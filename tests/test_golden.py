"""Byte-exact CLI outputs on a fixed set of commands.

Each file in tests/golden/ holds one command's exit code on its first line
("exit N") followed by its stdout.  Commands are split with shell quoting
rules, so a DDAHA literal with spaces is one argument.  The files are written
from a commit known to be correct, never to make a failing comparison pass:

    PYTHONPATH=src python3 tests/test_golden.py [--overwrite] [NAME ...]

writes the files of the named cases, or, with no names, of every case that
has no file yet.  A named case whose file exists is rewritten only with
--overwrite.  Every file written is printed.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys

import pytest

from weylkit.cli import main

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

CASES = {
    "weyl_a2": "weyl --type A --rank 2 --word 0,1,2,1,0,2",
    "weyl_g2_tsv": "weyl --type G --rank 2 --word 0,1,2,1,2,0,1 --format tsv",
    "weyl_e6": "weyl --type E --rank 6 --word 0,2,4,3,1,5,6,4,2,0,3,4,5,1,2,6,4,0",
    "weyl_f4_tsv": "weyl --type F --rank 4 --word 0,1,2,3,4,3,2,1,0,2,3,2,4,1,2,3,0 --format tsv",
    "relative_c2": "relative --type C --rank 2 --sigma 1",
    "relative_a3": "relative --type A --rank 3 --sigma 1,3",
    "relative_bc2": "relative --type BC --rank 2 --sigma 1",
    "complex_facets_a2": "complex facets --type A --rank 2 --radius 2",
    "table_facets_a2": "table facets --type A --rank 2 --radius 2",
    "table_facets_a2_tsv": "table facets --type A --rank 2 --radius 2 --format tsv",
    "complex_relpos_c2": "complex relpos --type C --rank 2 --itype 1 --nuprime 0,1,0",
    "complex_relpos_g2": "complex relpos --type G --rank 2 --itype 1 --nuprime 2,1,2,1,2",
    "complex_fixed_c2": "complex fixed --type C --rank 2 --sigma 1 --radius 4",
    "complex_fixed_bc2": "complex fixed --type BC --rank 2 --sigma 1 --radius 4",
    "certify_b2": "certify --type B --rank 2 --sigma 1 --radius 3 --depth 2",
    "certify_a3_finite": "certify --type A --rank 3 --finite --sigma= --radius 2 --depth 1",
    "certify_a2_depth3": "certify --type A --rank 2 --sigma= --radius 2 --depth 3",
    "certify_c2_depth3": "certify --type C --rank 2 --sigma 1 --radius 3 --depth 3",
    "table_weyl_ball_g2": "table weyl-ball --type G --rank 2 --radius 3",
    "table_weyl_ball_b3_finite": "table weyl-ball --type B --rank 3 --finite --radius 4",
    "table_facets_g2": "table facets --type G --rank 2 --radius 3",
    "table_facets_b3_finite": "table facets --type B --rank 3 --finite --radius 3",
    "table_relpos_g2": "table relpos --type G --rank 2 --sigma 1 --radius 3",
    "table_relpos_c2_tsv": "table relpos --type C --rank 2 --sigma 1 --radius 3 --format tsv",
    "ddaha_weights": "ddaha --lam0 1/3 --depth 2 --weights",
    "ddaha_times_a2": "ddaha --type A --rank 2 --expr 's1*s0*x1^2 + (3/2)*s1' --times 's2*x2 - x1^3'",
    "ddaha_times_g2": "ddaha --type G --rank 2 --expr 's1*s2*x1 + x2^2' --times 's0*s2*x1*x2 - (1/2)*s1'",
    "ddaha_times_a1": "ddaha --type A --rank 1 --m 2 --expr 's1*s0*x1^2 + (2/3)*s0*x1 - 3' --times 's1*s0*s1*x1 - (1/2)*x1^2'",
    "ddaha_times_c2": "ddaha --type C --rank 2 --m 4 --expr 's1*s2*x1^2 + (3/2)*s0*x2' --times 's2*s1*s0*x1*x2 - x2^2'",
    "ddaha_times_a2_power": "ddaha --type A --rank 2 --expr 's1*x1^12*x2^8 - 2*x2' --times 's0*x1'",
    "ddaha_times_a2_x64": "ddaha --type A --rank 2 --expr 'x1^64' --times s0",
    "ddaha_times_b3": "ddaha --type B --rank 3 --m 2 --expr 's1*x1^2*x3 + (3/2)*s0*x2 - s3*s2' --times 's2*x1*x2 + (1/3)*x3^2*s0'",
    "root_bc2": "root --type BC --rank 2",
    "root_c3": "root --type C --rank 3",
    "root_d4": "root --type D --rank 4",
    "root_e6": "root --type E --rank 6",
    "root_f4": "root --type F --rank 4",
    "root_g2": "root --type G --rank 2",
    "spiral_a2": "spiral --type A --rank 2 --theta 1,1 --m 3 --d 1 --lam 0,0 --window=-2:2",
    "table_spiral_a2": "table spiral --type A --rank 2 --theta 1,1 --m 3 --window=-2:2",
    "table_weights_a1_tsv": "table weights --type A --rank 1 --lam0 1/3 --depth 2 --format tsv",
    "spiral_facet_a2": "spiral --type A --rank 2 --theta 1,1 --m 3 --facet-word 0,1 --facet-type 1 --window=-2:2",
    "spiral_facet_g2_tsv": "spiral --type G --rank 2 --theta 1,1 --m 4 --facet-word 0,1,2 --facet-type 2 --window=-3:3 --format tsv",
    "spiral_facet_bc2_neg_tsv": "spiral --type BC --rank 2 --theta 1,1 --m 3 --d -2 --facet-word 0,1,2 --facet-type 1 --window=-3:3 --format tsv",
    "spiral_facet_c3_neg": "spiral --type C --rank 3 --theta 1,0,1 --m 4 --d -1 --facet-word 3,2,1 --facet-type 0,2 --window=-3:3",
    "spiral_lam_frac_a2": "spiral --type A --rank 2 --theta 1,1 --m 3 --lam 1/2,-1/3 --window=-3:3",
    "ddaha_relations_c2": "ddaha --type C --rank 2 --m 4 --seed 3",
    "table_facets_c3_tsv": "table facets --type C --rank 3 --radius 2 --format tsv",
    "table_facets_f4_tsv": "table facets --type F --rank 4 --radius 1 --format tsv",
    "table_weights_c2_tsv": "table weights --type C --rank 2 --lam0 1/3,-1/2 --depth 2 --format tsv",
    "weyl_bc2": "weyl --type BC --rank 2 --word 0,1,2,1,0,2,1",
    "weyl_b3_finite": "weyl --type B --rank 3 --finite --word 1,2,3,2,1,3,2",
    "certify_c3_sigma3": "certify --type C --rank 3 --sigma 3 --radius 3 --depth 2",
    "certify_b4": "certify --type B --rank 4",
    "complex_fixed_c3_sigma13": "complex fixed --type C --rank 3 --sigma 1,3 --radius 4",
    "certify_c6_sigma135": "certify --type C --rank 6 --sigma 1,3,5",
    "complex_fixed_c2_sigma02": "complex fixed --type C --rank 2 --sigma 0,2 --radius 3",
}


def run_case(command: str) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(shlex.split(command))
    return f"exit {code}\n".encode() + out.getvalue().encode()


def golden_path(name: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{name}.txt")


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name):
    with open(golden_path(name), "rb") as fh:
        expected = fh.read()
    assert run_case(CASES[name]) == expected


def test_large_facet_table_is_pinned_by_sha1():
    # affine B6 at radius 4: 1.2 MB of JSON, pinned by its hash rather than
    # a golden file; the facet table's plan and row writer must keep every byte
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["table", "facets", "--type", "B", "--rank", "6"])
    text = out.getvalue().encode()
    assert (code, len(text)) == (0, 1242354)
    assert hashlib.sha1(text).hexdigest() == "de0f434baaba7b9a72a2bde2c175822965939c26"


@pytest.mark.parametrize(
    "argv,size,sha1",
    [
        ("certify --type C --rank 8 --sigma 1,3,5,7", 1287, "8052dfb8a0f0b3f4f25fe10445b93bbd5dda47b0"),
        ("certify --type B --rank 8", 1251, "8e4be24d11c56a543540745eca4f39f9964721be"),
        ("certify --type E --rank 8", 1251, "e72764f6d06935ffb80482ab2317ef29b239e63b"),
    ],
    ids=["c8_sigma1357", "b8", "e8"],
)
def test_rank_8_certify_is_pinned_by_sha1(argv, size, sha1):
    # rank-8 certify, with Sigma empty (B8, E8) and with |Sigma| = 4 (C8),
    # pinned by hash: too slow for a golden run in every fresh-process test
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv.split())
    text = out.getvalue().encode()
    assert (code, len(text)) == (0, size)
    assert hashlib.sha1(text).hexdigest() == sha1


def test_readme_counts_the_golden_commands():
    with open(os.path.join(GOLDEN_DIR, os.pardir, os.pardir, "README.md")) as fh:
        counts = re.findall(r"(\d+)\s+CLI commands", fh.read())
    assert counts == [str(len(CASES))]


# Run in a fresh interpreter, so that no root system is built (and cached)
# before Gaussian elimination is refused: prints the cases whose output
# differs from their golden file.
_NO_ELIMINATION = """
import json, sys
import weylkit.linalg

def refuse(rows):
    raise AssertionError("Gaussian elimination on a command path")

weylkit.linalg._echelon = refuse
sys.path.insert(0, sys.argv[1])
from test_golden import CASES, golden_path, run_case

bad = []
for name in sorted(CASES):
    with open(golden_path(name), "rb") as fh:
        expected = fh.read()
    try:
        ok = run_case(CASES[name]) == expected
    except AssertionError:
        ok = False
    if not ok:
        bad.append(name)
print(json.dumps(bad))
"""


# Counts the calls of one attribute of a module (argv[2]; argv[3], a dotted
# path such as "Class.method") while the cases whose names start with one of
# argv[4:] run, also in a fresh interpreter: {name: [output equals golden,
# calls]}.
_COUNTED_CALLS = """
import importlib, json, sys

owner = importlib.import_module(sys.argv[2])
*path, attr = sys.argv[3].split(".")
for part in path:
    owner = getattr(owner, part)
original = getattr(owner, attr)
calls = []

def counted(*args):
    calls.append(1)
    return original(*args)

setattr(owner, attr, counted)
sys.path.insert(0, sys.argv[1])
from test_golden import CASES, golden_path, run_case

out = {}
for name in sorted(n for n in CASES if n.startswith(tuple(sys.argv[4:]))):
    with open(golden_path(name), "rb") as fh:
        expected = fh.read()
    calls.clear()
    out[name] = [run_case(CASES[name]) == expected, len(calls)]
print(json.dumps(out))
"""


def _run_fresh(script: str, *args: str):
    """The JSON that `script` prints, run in a fresh interpreter on this
    checkout's weylkit with the tests directory and `args` as its arguments."""
    import weylkit

    src = os.path.dirname(os.path.dirname(weylkit.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    here = os.path.dirname(os.path.abspath(__file__))
    child = subprocess.run(
        [sys.executable, "-c", script, here, *args],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": path},
        text=True,
    )
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout)


def test_golden_commands_never_eliminate():
    # parabolic finiteness and the BC roots are read off integers, so no
    # command runs a Fraction elimination (linalg._echelon)
    assert _run_fresh(_NO_ELIMINATION) == []


def test_weyl_commands_form_no_matrix_product():
    # a word, its reduced word and its descents multiply by simple
    # reflections only, through the rank-one kernels of weyl
    names = sorted(n for n in CASES if n.startswith("weyl_"))
    assert len(names) == 6
    counts = _run_fresh(_COUNTED_CALLS, "weylkit.weyl", "_mat_mul", "weyl_")
    assert counts == {name: [True, 0] for name in names}


# Runs one case (argv[2]) in a fresh interpreter, so that no finite part is
# linked before it, counting the calls of weyl._mat_mul and the distinct
# pairs (left record, right record) that the general product sees: prints
# [output equals golden, calls, pairs, products].
_PRODUCT_WORK = """
import json, sys
import weylkit.weyl as weyl

mat_mul, product = weyl._mat_mul, weyl.ExtAffineWeylElement.__mul__
calls, pairs, products = [], set(), []

def counted(a, b):
    calls.append(1)
    return mat_mul(a, b)

def recorded(self, other):
    pairs.add((self.fin, other.fin))
    products.append(1)
    return product(self, other)

weyl._mat_mul, weyl.ExtAffineWeylElement.__mul__ = counted, recorded
sys.path.insert(0, sys.argv[1])
from test_golden import CASES, golden_path, run_case

with open(golden_path(sys.argv[2]), "rb") as fh:
    ok = run_case(CASES[sys.argv[2]]) == fh.read()
print(json.dumps([ok, len(calls), len(pairs), len(products)]))
"""


def test_certify_forms_each_finite_part_product_once():
    # a product's finite part is read off the left record's link to the
    # right one, so a fresh certify forms m1 m2 once per pair of records and
    # P1 P2 once per new record: at most two matrix products per pair, where
    # forming them per call made one or two per product (86 for certify_b2)
    names = sorted(n for n in CASES if n.startswith("certify_"))
    assert len(names) == 7
    for name in names:
        ok, calls, pairs, products = _run_fresh(_PRODUCT_WORK, name)
        assert ok and products > 0 and calls <= 2 * pairs, (name, calls, pairs, products)


# Runs one case (argv[2]) in a fresh interpreter, recording the elements
# that the CLI's bindings of weyl.length and weyl.reflections_T are called
# on: prints [output equals golden, [calls, distinct elements] of each].
_CERTIFY_TABLES = """
import json, sys
import weylkit.cli as cli

seen = {}

def recorder(name):
    fn, calls = getattr(cli, name), seen.setdefault(name, [])

    def recorded(g):
        calls.append(g)
        return fn(g)

    return recorded

cli.length, cli.reflections_T = recorder("length"), recorder("reflections_T")
sys.path.insert(0, sys.argv[1])
from test_golden import CASES, golden_path, run_case

with open(golden_path(sys.argv[2]), "rb") as fh:
    ok = run_case(CASES[sys.argv[2]]) == fh.read()
print(json.dumps([ok] + [[len(seen[n]), len(set(seen[n]))] for n in ("length", "reflections_T")]))
"""


def test_certify_computes_each_length_and_reflection_set_once():
    # every check of certify reads l(x) and T(x) off one table per command,
    # so each is computed once per distinct element; the parabolic subsets
    # keep T(w0^J) apart, once per subset.  Forming them per check called
    # length 30 times for 9 elements on certify_b2 and 420 for 110 on
    # certify_b4 (one call per pair of the depth ball).
    for name in ("certify_b2", "certify_b4", "certify_c3_sigma3"):
        ok, (calls, distinct), (t_calls, t_distinct) = _run_fresh(_CERTIFY_TABLES, name)
        assert ok and 0 < calls == distinct and 0 < t_calls == t_distinct, (name, calls, t_calls)


def test_certify_builds_one_relative_ball():
    # the fixed chambers read certify's relative ball, which reaches the
    # radius in every certify golden, instead of building a second one
    names = sorted(n for n in CASES if n.startswith("certify_"))
    counts = _run_fresh(_COUNTED_CALLS, "weylkit.coxcomplex", "relative_ball", "certify_")
    assert counts == {name: [True, 0] for name in names}


def test_relative_commands_compute_no_relative_length():
    # relative descents and words are read off the ambient descent test,
    # so no relative command counts the inversions of an element
    names = sorted(n for n in CASES if n.startswith("relative_"))
    assert len(names) == 3
    counts = _run_fresh(_COUNTED_CALLS, "weylkit.relative", "length", "relative_")
    assert counts == {name: [True, 0] for name in names}


def test_kernel_roots_are_not_revalidated():
    # W permutes the affine roots, so the images, negatives and reflection
    # keys that certify, the complex commands and the weyl commands derive
    # are built without the checks of the public AffineRoot constructor
    prefixes = ("certify_", "complex_", "weyl_")
    names = sorted(n for n in CASES if n.startswith(prefixes))
    assert len(names) == 20
    counts = _run_fresh(
        _COUNTED_CALLS, "weylkit.root_system", "AffineRoot.__init__", *prefixes
    )
    assert counts == {name: [True, 0] for name in names}


def test_point_tables_build_no_fraction_point():
    # the facet and weight tables act on each point as integer numerators
    # over one denominator and print them by one gcd per coordinate, so no
    # command that prints them calls the Fraction route act_point
    prefixes = ("table_facets_", "complex_facets_", "table_weights_", "ddaha_weights")
    names = sorted(n for n in CASES if n.startswith(prefixes))
    assert {"table_facets_c3_tsv", "table_weights_c2_tsv"} <= set(names)
    assert len(names) == 10
    counts = _run_fresh(
        _COUNTED_CALLS, "weylkit.weyl", "ExtAffineWeylElement.act_point", *prefixes
    )
    assert counts == {name: [True, 0] for name in names}


# Runs the `ddaha --expr` cases in a fresh interpreter, so that no monomial
# image is cached before them, and records the largest degree of a
# polynomial that Poly.substitute is called on and the calls of the DDAHA
# module's divide_linear: {name: [output equals golden, degree, calls]}.
_DDAHA_POLY_WORK = """
import json, sys
import weylkit.ddaha
from weylkit.poly import Poly

substitute, divide_linear = Poly.substitute, weylkit.ddaha.divide_linear
degrees, calls = [], []

def recorded(self, mapping):
    degrees.append(self.degree())
    return substitute(self, mapping)

def counted(f, a):
    calls.append(1)
    return divide_linear(f, a)

Poly.substitute, weylkit.ddaha.divide_linear = recorded, counted
sys.path.insert(0, sys.argv[1])
from test_golden import CASES, golden_path, run_case

out = {}
for name in sorted(n for n in CASES if "--expr" in CASES[n]):
    with open(golden_path(name), "rb") as fh:
        expected = fh.read()
    degrees.clear()
    calls.clear()
    out[name] = [run_case(CASES[name]) == expected, max(degrees, default=-1), len(calls)]
print(json.dumps(out))
"""


def test_ddaha_products_substitute_only_linear_forms():
    # the monomial images are built on integers by the twisted Leibniz rule
    # from s_a(x_i) and k_i, which the algebra reads off the integer wall of
    # each label, so no product substitutes into or divides any polynomial;
    # the division route substituted into every monomial, up to x1^64
    counts = _run_fresh(_DDAHA_POLY_WORK)
    assert len(counts) == 7
    for name, (ok, degree, calls) in counts.items():
        assert ok and degree == -1 and calls == 0, (name, degree, calls)


# Runs one case (argv[2], golden file argv[3]) on the CLI in a fresh
# interpreter, after importing the CLI and the DDAHA module, without the
# test modules (pytest imports both modules it lists): prints whether the
# output equals the golden and which of `dataclasses` and `inspect` are loaded.
_LOADED_MODULES = """
import contextlib, io, json, shlex, sys
import weylkit.cli, weylkit.ddaha

out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = weylkit.cli.main(shlex.split(sys.argv[2]))
with open(sys.argv[3], "rb") as fh:
    ok = f"exit {code}\\n".encode() + out.getvalue().encode() == fh.read()
print(json.dumps([ok, [m for m in ("dataclasses", "inspect") if m in sys.modules]]))
"""


def test_cli_loads_neither_dataclasses_nor_inspect():
    # the records are plain classes, so a CLI process does not pay for
    # importing dataclasses, which pulls in inspect, ast and dis
    name = "ddaha_times_a2"
    assert _run_fresh(_LOADED_MODULES, CASES[name], golden_path(name)) == [True, []]


def test_json_goldens_skip_the_pure_python_encoder():
    # json.dumps(indent=2) runs the pure-Python encoder (the C one takes no
    # indent); emit writes indented JSON from C-quoted strings instead, and
    # tsv output calls json.dumps without indent
    assert sum("--format tsv" not in command for command in CASES.values()) == 47
    counts = _run_fresh(_COUNTED_CALLS, "json.encoder", "_make_iterencode", "")
    assert counts == {name: [True, 0] for name in CASES}


def record(argv) -> int:
    """Write golden files as the module docstring says; exit 2, writing
    nothing, on an unknown name or an existing file without --overwrite."""
    parser = argparse.ArgumentParser(description="Record golden CLI outputs.")
    parser.add_argument("names", nargs="*", help="cases to write (default: those without a file)")
    parser.add_argument("--overwrite", action="store_true", help="rewrite existing files")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.names) - set(CASES))
    if unknown:
        sys.stderr.write(f"unknown cases {unknown}\n")
        return 2
    names = args.names or [n for n in sorted(CASES) if not os.path.exists(golden_path(n))]
    existing = [n for n in names if os.path.exists(golden_path(n))]
    if existing and not args.overwrite:
        sys.stderr.write(f"files exist for {existing}; pass --overwrite to rewrite them\n")
        return 2
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name in names:
        with open(golden_path(name), "wb") as fh:
            fh.write(run_case(CASES[name]))
        print(golden_path(name))
    return 0


if __name__ == "__main__":
    sys.exit(record(sys.argv[1:]))
