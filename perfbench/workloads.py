"""The three workloads: their input pools, seeded op sequences, the set-up
each needs, how one op is run, and how its answer is checked.

Every workload is a closed loop with one client: an op starts when the
previous one has returned.  A workload's pool of ops is one pass; a timed run
makes whole passes, each in an order drawn from the seed, until the time is
up.  So a run measures the same ops whatever the seed, and its figures spread
only as much as the machine does, less what the scaling to the reference
host speed (speed.py) takes out.  A pass of the code the benchmark was
introduced on lasts longer than a run, so no op repeats within a run unless
the code gets faster.  A pass is a sequence of blocks of a fixed composition
(for example one query per root system), so any whole number of blocks, as
the traced run makes, has the workload's mix of op kinds.

complex_queries gives certify 15% of the ops (3 per block of 20) and relpos
30%, so that op_p90_ms falls inside the cluster of certify latencies rather
than on its lower edge, where it would swing with the single fastest one.

The pools and their reference answers live in `reference/<workload>.json`,
written by `record.py` from the seed commit of the benchmark.  A reference
answer holds only the mathematical fields of an op's output, so a change of
output wrapper (an added field, a stats line on stderr) is not a failure but
a wrong answer is.
"""

import contextlib
import io
import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))

GROUP_SYSTEMS = (("A", 2), ("C", 2), ("G", 2), ("B", 3), ("D", 4), ("F", 4), ("E", 6))
COMPLEX_SYSTEMS = (("A", 2), ("C", 2), ("G", 2))
DDAHA_ALGEBRAS = (("A", 1, 2), ("A", 2, 3), ("C", 2, 4))  # (type, rank, m), every c = 2

# workload -> ((pool group, ops of that group per block), ...)
BLOCKS = {
    "group_queries": tuple((f"{t}{n}", 1) for t, n in GROUP_SYSTEMS),
    "complex_queries": (("relpos", 6), ("spiral", 5), ("table", 4), ("fixed", 2), ("certify", 3)),
    "ddaha_assoc": tuple((f"{t}{n}", 1) for t, n, _ in DDAHA_ALGEBRAS),
}

# Blocks in one pass, sized so that a pass of the code the benchmark was
# introduced on lasts 14-17 s at the reference host speed (speed.py), longer
# than a 12 s run.
PASS_BLOCKS = {"group_queries": 50, "complex_queries": 10, "ddaha_assoc": 90}

# Blocks run by the fixed-length (traced) run, so its counts repeat exactly.
TRACE_BLOCKS = {"group_queries": 20, "complex_queries": 4, "ddaha_assoc": 40}


def load_pool(workload):
    with open(os.path.join(HERE, "reference", f"{workload}.json")) as fh:
        return json.load(fh)["ops"]


def op_sequence(workload, pool, seed):
    """Yield pool indices block by block, forever: each group is drawn
    without replacement in a seeded order, reshuffled when exhausted, so
    every PASS_BLOCKS blocks use each pool entry once."""
    rng = random.Random(seed)
    by_group = {}
    for i, op in enumerate(pool):
        by_group.setdefault(op["group"], []).append(i)
    queues = {g: [] for g in by_group}

    def draw(group):
        if not queues[group]:
            queues[group] = list(by_group[group])
            rng.shuffle(queues[group])
        return queues[group].pop()

    while True:
        block = [draw(group) for group, count in BLOCKS[workload] for _ in range(count)]
        rng.shuffle(block)
        yield block


# ---------------------------------------------------------------------------
# set-up: import the package and build what the workload uses
# ---------------------------------------------------------------------------


class Context:
    """What one workload process holds after set-up."""

    def __init__(self, workload):
        self.workload = workload
        if workload == "ddaha_assoc":
            from weylkit import ddaha
            from weylkit.root_system import affinize, build_finite

            self.ddaha = ddaha
            self.algebras = {}
            for t, n, m in DDAHA_ALGEBRAS:
                ambient = affinize(build_finite(t, n))
                params = ddaha.HeckeParameters.make(m, 1, {l: 2 for l in ambient.labels})
                self.algebras[f"{t}{n}"] = ddaha.build_algebra(ambient, params)
        else:
            from weylkit import cli
            from weylkit.root_system import affinize, build_finite

            self.cli = cli
            systems = GROUP_SYSTEMS if workload == "group_queries" else COMPLEX_SYSTEMS + (("B", 2),)
            for t, n in systems:
                affinize(build_finite(t, n))

    def run(self, op):
        """Run one op through the program; return its raw outcome.  This is
        the timed part."""
        if self.workload == "ddaha_assoc":
            dd = self.ddaha
            algebra = self.algebras[op["group"]]
            x, y, z = (dd.parse_element(algebra, op[k]) for k in ("x", "y", "z"))
            left = dd.multiply(dd.multiply(x, y), z)
            right = dd.multiply(x, dd.multiply(y, z))
            return left == right, dd.format_element(left)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(list(op["argv"]))
        return code, out.getvalue()


# ---------------------------------------------------------------------------
# answers and checks
# ---------------------------------------------------------------------------


def answer(workload, op, outcome):
    """The mathematical fields of an op's outcome, as recorded."""
    if workload == "ddaha_assoc":
        return {"normal_form": outcome[1]}
    code, text = outcome
    result = json.loads(text)["result"]
    kind = op["group"] if workload == "complex_queries" else "weyl"
    if kind == "weyl":
        keys = ("length", "reduced_word", "left_descents", "right_descents", "reflection_set_size")
        return {k: result[k] for k in keys}
    if kind == "relpos":
        return {k: result[k] for k in ("double_coset_word", "good")}
    if kind == "table":
        return {"count": result["count"],
                "facets": [[f["type"], f["word"]] for f in result["facets"]]}
    if kind == "fixed":
        return {"chambers": [[c["type"], c["word"]] for c in result["chambers"]],
                "single_free_orbit": result["single_free_orbit"]}
    if kind == "spiral":
        return {"table": result["table"], "partition_ok": result["partition_ok"]}
    if kind == "certify":
        return {"checks": {c["check"]: c["ok"] for c in result["checks"]}}
    raise ValueError(f"unknown op kind {kind!r}")


def check(workload, op, outcome):
    """None if the op's outcome is right, else the reason it failed: a
    nonzero exit, a broken invariant, or a mismatch with the reference."""
    if workload == "ddaha_assoc":
        if not outcome[0]:
            return "(x*y)*z != x*(y*z)"
    elif outcome[0] != 0:
        return f"exit code {outcome[0]}"
    try:
        got = answer(workload, op, outcome)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc!r}"
    if workload == "group_queries":
        sizes = {got["length"], len(got["reduced_word"]), got["reflection_set_size"]}
        if len(sizes) != 1:
            return f"length, reduced word and reflection set disagree: {sorted(sizes)}"
    if op["group"] == "certify" and not all(got["checks"].values()):
        return f"certify failed: {got['checks']}"
    if got != op["answer"]:
        return f"answer differs from the reference: {got}"
    return None


# ---------------------------------------------------------------------------
# pool generation (used by record.py)
# ---------------------------------------------------------------------------

POOL_SEED = 20181026


def _pool_size(workload, group):
    return PASS_BLOCKS[workload] * dict(BLOCKS[workload])[group]


def _word(rng, labels, lo, hi):
    return ",".join(str(rng.choice(labels)) for _ in range(rng.randint(lo, hi)))


def _proper_subsets(labels):
    out = []
    for mask in range(2 ** len(labels) - 1):
        out.append(",".join(str(l) for k, l in enumerate(labels) if mask >> k & 1))
    return out


def generate_pool(workload):
    """The op inputs of a workload's pool, one pass; answers are added by
    record.py.  Groups with fewer distinct inputs than entries (the facet
    tables, fixed chambers and certify) repeat them in turn."""
    rng = random.Random(f"{POOL_SEED}-{workload}")
    ops = []
    if workload == "group_queries":
        for t, n in GROUP_SYSTEMS:
            labels = list(range(n + 1))
            for _ in range(_pool_size(workload, f"{t}{n}")):
                argv = ["weyl", "--type", t, "--rank", str(n), "--word", _word(rng, labels, 6, 16)]
                ops.append({"group": f"{t}{n}", "argv": argv})
    elif workload == "complex_queries":
        from weylkit.root_system import build_finite

        labels = [0, 1, 2]
        for _ in range(_pool_size(workload, "relpos")):
            t, n = rng.choice(COMPLEX_SYSTEMS)
            argv = ["complex", "relpos", "--type", t, "--rank", str(n),
                    "--itype", rng.choice(_proper_subsets(labels)),
                    "--nu", _word(rng, labels, 0, 6), "--nuprime", _word(rng, labels, 0, 6)]
            ops.append({"group": "relpos", "argv": argv})
        for _ in range(_pool_size(workload, "spiral")):
            t, n = rng.choice(COMPLEX_SYSTEMS)
            theta = ",".join(map(str, build_finite(t, n).highest_root()))
            argv = ["spiral", "--type", t, "--rank", str(n), "--theta", theta, "--m", "3",
                    "--facet-word", _word(rng, labels, 0, 4),
                    "--facet-type", rng.choice(_proper_subsets(labels))]
            ops.append({"group": "spiral", "argv": argv})
        tables = [["table", "facets", "--type", t, "--rank", str(n), "--radius", str(r)]
                  for t, n in COMPLEX_SYSTEMS for r in (1, 2, 3)]
        fixed = [["complex", "fixed", "--type", "C", "--rank", "2", "--sigma", "1",
                  "--radius", str(r)] for r in (3, 4, 5)]
        certify = [["certify", "--type", t, "--rank", "2", "--sigma", "1", "--radius", "3",
                    "--depth", "2"] for t in ("B", "C")]
        for group, inputs in (("table", tables), ("fixed", fixed), ("certify", certify)):
            for i in range(_pool_size(workload, group)):
                ops.append({"group": group, "argv": inputs[i % len(inputs)]})
    elif workload == "ddaha_assoc":
        for t, n, _ in DDAHA_ALGEBRAS:
            for _ in range(_pool_size(workload, f"{t}{n}")):
                triple = {k: _ddaha_literal(rng, n) for k in ("x", "y", "z")}
                ops.append({"group": f"{t}{n}", **triple})
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops


def _ddaha_literal(rng, rank):
    """A random element: support <= 3, group parts words of length <= 2
    (the length-2 ball), polynomial parts of degree <= 2."""
    from fractions import Fraction

    terms = []
    for _ in range(rng.randint(1, 3)):
        coeff = Fraction(rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5]), rng.randint(1, 3))
        factors = [f"({coeff})"]
        factors += [f"s{rng.randint(0, rank)}" for _ in range(rng.randint(0, 2))]
        exps = [0] * rank
        for _ in range(rng.randint(0, 2)):
            exps[rng.randrange(rank)] += 1
        factors += [f"x{i + 1}^{e}" for i, e in enumerate(exps) if e]
        terms.append("*".join(factors))
    return " + ".join(terms)
