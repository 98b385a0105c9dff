"""Command-line front end.

Subcommands: root, weyl, relative, complex, spiral, ddaha, certify, table.
Global flags: --config FILE, --format json|tsv, --seed N, --radius N,
--depth N.  Exit codes: 0 ok, 1 check failure, 2 configuration error,
3 resource cap hit.  All rationals are serialized as "p/q" strings and every
run embeds its fully resolved configuration in the output header, so equal
configurations produce byte-identical output.
"""

import argparse
import functools
import json
import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations

from . import coxcomplex as cx
from . import ddaha as dd
from . import relative as rel
from . import spiral as spr
from .linalg import frac_str, numerators, numerators_str
from .root_system import (
    AffineRootSystem,
    IllegalType,
    affinize,
    build_finite,
    finite_coxeter,
    root_data_to_json,
)
from .weyl import (
    BallTooLarge,
    ExtAffineWeylElement,
    conjugate_reflections,
    element_to_json,
    enumerate_ball,  # noqa: F401  (bound here for perfbench's tracer and selftest)
    has_left_descent,
    has_right_descent,
    length,
    mul_simple,
    reduced_word,
    reflections_T,
)


class ConfigError(ValueError):
    pass


DEFAULTS = {
    "type": "A",
    "rank": 1,
    "affine": True,
    "sigma": [],
    "theta": None,
    "m": 1,
    "d": 1,
    "c": None,
    "radius": 4,
    "depth": 2,
    "window": [-4, 4],
    "lam0": None,
    "format": "json",
    "seed": 0,
}


def parse_frac(s) -> Fraction:
    try:
        return Fraction(str(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad rational {s!r}: {exc}") from exc


def _word_str(letters) -> str:
    """A word or a set of labels as "l1,l2,...", or "-" when empty."""
    return ",".join(map(str, letters)) or "-"


def _config_int(value, name: str) -> int:
    """An int (not a bool) or an integer string, from a flag or a config file."""
    try:
        if type(value) is int or isinstance(value, str):
            return int(value)
    except ValueError:
        pass
    raise ConfigError(f"{name} must be an integer, got {value!r}")


def _parse_int_list(s) -> list[int]:
    if s is None or s == "":
        return []
    tokens = s if isinstance(s, list) else [tok for tok in str(s).split(",") if tok != ""]
    return [_config_int(tok, "every list entry") for tok in tokens]


def _parse_frac_list(s) -> list[Fraction]:
    if isinstance(s, list):
        return [parse_frac(v) for v in s]
    return [parse_frac(tok) for tok in str(s).split(",") if tok != ""]


def _parse_c_map(s) -> dict[int, Fraction]:
    if isinstance(s, dict):
        items = list(s.items())
    else:
        items = []
        for item in str(s).split(","):
            if not item:
                continue
            if "=" not in item:
                raise ConfigError(f"bad parameter entry {item!r}; use label=value")
            items.append(item.split("=", 1))
    out = {}
    for k, v in items:
        try:
            label = int(k)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad parameter label {k!r}; use an integer label") from exc
        if label in out:
            raise ConfigError(f"parameter label {label} is given twice")
        out[label] = parse_frac(v)
    return out


def _parse_window(s) -> tuple[int, int]:
    bounds = s if isinstance(s, (list, tuple)) else str(s).split(":")
    if len(bounds) != 2:
        raise ConfigError(f"bad window {s!r}; use lo:hi")
    lo, hi = [_config_int(b, "every window bound") for b in bounds]
    if lo > hi:
        raise ConfigError(f"bad window {s!r}; lo must not exceed hi")
    return lo, hi


def _unique_keys(pairs) -> dict:
    """A JSON object of a config file; a key given twice raises ConfigError
    (json.load alone would keep the last)."""
    out = {}
    for k, v in pairs:
        if k in out:
            raise ConfigError(f"config key {k!r} is given twice")
        out[k] = v
    return out


def resolve_config(args) -> dict:
    config = dict(DEFAULTS)
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                loaded = json.load(fh, object_pairs_hook=_unique_keys)
        except ConfigError:
            raise
        # ValueError: malformed JSON, bytes that do not decode, or an integer
        # past the integer-string limit; RecursionError: nesting too deep
        except (OSError, ValueError, RecursionError) as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        if type(loaded) is not dict:
            raise ConfigError("the config file must hold a JSON object")
        unknown = set(loaded) - set(DEFAULTS)
        if unknown:
            raise ConfigError(f"unknown config keys {sorted(unknown)}")
        config.update(loaded)
    # every key but affine has a flag of the same name
    for key in DEFAULTS:
        value = getattr(args, key, None)
        if value is not None:
            config[key] = value
    if getattr(args, "finite", False):
        config["affine"] = False
    if not isinstance(config["affine"], bool):
        raise ConfigError(f"config key affine must be true or false, got {config['affine']!r}")
    config["sigma"] = _parse_int_list(config["sigma"])
    if len(set(config["sigma"])) != len(config["sigma"]):
        raise ConfigError(f"sigma repeats a label: {config['sigma']}")
    config["window"] = list(_parse_window(config["window"]))
    if config["format"] not in ("json", "tsv"):
        raise ConfigError(f"unknown format {config['format']!r}")
    for key in ("rank", "m", "d", "radius", "depth", "seed"):
        config[key] = _config_int(config[key], key)
    for key, low in (("radius", 0), ("depth", 0), ("m", 1)):
        if config[key] < low:
            raise ConfigError(f"config key {key} must be at least {low}, got {config[key]}")
    if config["d"] == 0:
        raise ConfigError("config key d must be nonzero")
    # the syntax of the keys only some commands read is checked for every
    # command; the config keeps the values as given, for the output header
    for key, parse in (
        ("theta", _parse_frac_list),
        ("lam0", _parse_frac_list),
        ("c", _parse_c_map),
    ):
        if config[key] is not None:
            parse(config[key])
    return config


def build_ambient(config) -> AffineRootSystem:
    try:
        finite = build_finite(str(config["type"]), config["rank"])
    except IllegalType as exc:
        raise ConfigError(str(exc)) from exc
    return affinize(finite) if config["affine"] else finite_coxeter(finite)


def _graded_datum(config, ambient) -> spr.GradedRootDatum:
    if config["theta"] is None:
        theta = tuple(Fraction(0) for _ in range(ambient.rank))
    else:
        theta = tuple(_parse_frac_list(config["theta"]))
        if len(theta) != ambient.rank:
            raise ConfigError(f"theta must have {ambient.rank} coordinates")
    try:
        return spr.GradedRootDatum(ambient.finite_base, theta, config["m"], config["d"])
    except spr.NotAdjoint as exc:
        raise ConfigError(str(exc)) from exc


def _lam0_vec(config, ambient):
    if config["lam0"] is None:
        raise ConfigError("this command needs --lam0")
    lam = tuple(_parse_frac_list(config["lam0"]))
    if len(lam) != ambient.rank:
        raise ConfigError(f"lam0 must have {ambient.rank} coordinates")
    return lam


def _word_to_element(ambient, word_str) -> ExtAffineWeylElement:
    g = ExtAffineWeylElement.identity(ambient)
    for l in _parse_int_list(word_str):
        if l not in ambient.labels:
            raise ConfigError(f"unknown simple label {l}")
        g = mul_simple(g, l)
    return g


def _refuse_flags(args, dests, why: str) -> None:
    """Raise ConfigError naming the first of the flags `dests` that was given:
    a flag the chosen mode does not read is an error, not a silent no-op."""
    for dest in dests:
        if getattr(args, dest) not in (None, False):
            raise ConfigError(f"--{dest.replace('_', '-')} {why}")


def _json(v, nl="\n") -> str:
    """json.dumps(v, sort_keys=True, indent=2) nested at the indentation that
    the newline `nl` carries, without the pure-Python encoder that `indent`
    selects: strings go through the C quoter, and ints, bools, None, lists,
    tuples, dicts of str keys and row tables (`_RowTable`) are written here.
    Any other value, and a dict with a key that is not a str, goes to
    json.dumps itself (raising TypeError where it does); JSON text holds no
    raw newline, so re-indenting its lines is exact."""
    t = type(v)
    if t is str:
        return json.encoder.encode_basestring_ascii(v)
    if t is int:
        return repr(v)
    if v is None or t is bool:
        return "null" if v is None else "true" if v else "false"
    inner = nl + "  "
    if t is list or t is tuple:
        items = [_json(x, inner) for x in v]
        return f"[{inner}{f',{inner}'.join(items)}{nl}]" if items else "[]"
    if t is dict and all(type(k) is str for k in v):
        left, items, right = "{", [f"{_json(k)}: {_json(v[k], inner)}" for k in sorted(v)], "}"
    elif t is _RowTable:
        left, items, right = "[", v.chunks(inner), "]"
    else:
        return json.dumps(v, sort_keys=True, indent=2).replace("\n", nl)
    if not items:
        return left + right
    # a row table, and the dicts that hold it, can be megabytes: their
    # brackets are joined in with the first and last item, so the text is
    # copied once, not once per concatenation
    items[0] = left + inner + items[0]
    items[-1] += nl + right
    return f",{inner}".join(items)


class _RowTable:
    """The rows of a table, each one value per header name, which `_json`
    writes as the list of dicts dict(zip(header, row)), byte for byte,
    without building them.  The header's names are sorted once into a row
    template (a name given twice keeps its last column, as in the dict), and
    each row fills it: a str through the C quoter, an int through repr, a
    bool or None as its literal, and any other value through `_json`."""

    __slots__ = ("header", "rows")

    # rows per chunk: the row texts are joined a chunk at a time, so they are
    # not all held next to the joined text
    CHUNK = 1024

    def __init__(self, header: list, rows: list):
        self.header, self.rows = header, rows

    def chunks(self, nl: str) -> list[str]:
        """The rows' texts at the indentation of `nl`, joined as `_json`
        joins list items, CHUNK rows to a string."""
        rows = self.rows
        field = nl + "  "
        column = dict(zip(self.header, range(len(self.header))))
        names = sorted(column)
        order = [column[k] for k in names]
        fields = [_json(k).replace("%", "%%") + ": %s" for k in names]
        template = "{" + field + f",{field}".join(fields) + nl + "}" if fields else "{}"
        quote = json.encoder.encode_basestring_ascii
        chunks = []
        for start in range(0, len(rows), self.CHUNK):
            out = []
            for row in rows[start : start + self.CHUNK]:
                values = []
                for i in order:
                    v = row[i]
                    t = type(v)
                    if t is str:
                        values.append(quote(v))
                    elif t is int:
                        values.append(repr(v))
                    elif v is None or t is bool:
                        values.append("null" if v is None else "true" if v else "false")
                    else:
                        values.append(_json(v, field))
                out.append(template % tuple(values))
            chunks.append(f",{nl}".join(out))
        return chunks


def emit(config, command, result, rows=None) -> str:
    """result: JSON-ready dict; rows: optional (header, rows) for tsv mode."""
    if config["format"] == "json":
        return _json({"command": command, "config": config, "result": result}) + "\n"
    lines = [f"# {k}\t{v}" for k, v in sorted(config.items())]
    lines.append(f"# command\t{command}")
    if rows is None:
        for k, v in sorted(result.items()):
            lines.append(f"{k}\t{json.dumps(v, sort_keys=True)}")
    else:
        header, data = rows
        lines.append("\t".join(header))
        for row in data:
            lines.append("\t".join(str(c) for c in row))
    return "\n".join(lines) + "\n"


def emit_rows(config, command, key, header, rows, extra=None) -> str:
    """A row table: in JSON one object per row, keyed by the header, under
    `key` next to the extra result fields, written from one row template
    (`_RowTable`) with no dict built per row; in tsv the header and the rows."""
    result = {**(extra or {}), key: _RowTable(header, rows)}
    return emit(config, command, result, (header, rows))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_root(args, config, ambient) -> tuple[int, str]:
    finite = ambient.finite_base
    data = root_data_to_json(finite)
    data["roots_count"] = len(finite.roots)
    data["positive_roots"] = [list(r) for r in sorted(finite.positive_roots)]
    data["highest_root"] = list(finite.highest_root())
    data["affine"] = ambient.affine
    data["labels"] = list(ambient.labels)
    data["simples"] = [
        {"label": l, "direction": list(a.direction), "level": a.level}
        for l, a in zip(ambient.labels, ambient.simples)
    ]
    rows = (
        ["direction", "positive"],
        [[",".join(map(str, r)), int(finite.is_positive(r))] for r in sorted(finite.roots)],
    )
    return 0, emit(config, "root", data, rows)


def cmd_weyl(args, config, ambient) -> tuple[int, str]:
    g = _word_to_element(ambient, getattr(args, "word", None) or "")
    rw = reduced_word(g)
    data = {
        "element": element_to_json(g),
        "length": length(g),
        "reduced_word": list(rw.letters),
        "automorphism_trivial": rw.pi.is_identity(),
        "left_descents": [l for l in ambient.labels if has_left_descent(g, l)],
        "right_descents": [l for l in ambient.labels if has_right_descent(g, l)],
        "reflection_set_size": len(reflections_T(g)),
    }
    return 0, emit(config, "weyl", data)


def cmd_relative(args, config, ambient) -> tuple[int, str]:
    sigma = config["sigma"]
    data = {"admissible": False, "sigma": sorted(sigma)}
    try:
        system = rel.relative_system(ambient, sigma)
    except rel.NotAdmissible as exc:
        data["violating_supersets"] = [sorted(c) for c in exc.violating]
        return 1, emit(config, "relative", data)
    data["admissible"] = True
    data["sigma_complement"] = list(system.sigma_complement)
    data["degenerate_single_complement"] = system.degenerate_single_complement
    simples = []
    for l in system.simple_labels():
        st = system.generator(l)
        simples.append(
            {
                "s": l,
                "word": list(reduced_word(st).letters),
                "length": length(st),
                "rel_length": rel.relative_length(system, st),
            }
        )
    data["simples"] = simples
    data["coxeter_matrix"] = {
        f"{s},{t}": (order if order is not None else "infinity")
        for (s, t), order in sorted(system.coxeter_matrix.items())
    }
    return 0, emit(config, "relative", data)


def cmd_complex(args, config, ambient) -> tuple[int, str]:
    sub = args.complex_command
    if sub != "relpos":
        _refuse_flags(args, ("nu", "nuprime", "itype"), "is read only by complex relpos")
    if sub == "facets":
        return _facets_table(config, ambient, "complex.facets")
    if sub == "relpos":
        itype = frozenset(_parse_int_list(args.itype))
        f1 = cx.facet(ambient, _word_to_element(ambient, args.nu), itype)
        f2 = cx.facet(ambient, _word_to_element(ambient, args.nuprime), itype)
        rp = cx.relative_position(f1, f2)
        data = {
            "double_coset_word": list(reduced_word(rp.double_coset).letters),
            "good": rp.good,
        }
        if rp.relative_element is not None:
            data["relative_element_word"] = list(
                reduced_word(rp.relative_element).letters
            )
        return 0, emit(config, "complex.relpos", data)
    # sub == "fixed", the last of the parser's choices
    try:
        system = rel.relative_system(ambient, config["sigma"])
        report = cx.fixed_chambers(system, config["radius"])
    except (rel.NotAdmissible, cx.BallTooSmall) as exc:
        raise ConfigError(str(exc)) from exc
    data = {
        "chambers": [
            {"type": sorted(f.type_labels), "word": list(report.ball.word(f.rep))}
            for f in report.chambers
        ],
        "single_free_orbit": report.single_free_orbit,
        "ball_complete": report.ball_complete,
        "boundary_excluded": len(report.boundary_excluded),
    }
    return 0, emit(config, "complex.fixed", data)


def _spiral_rows(spiral, window):
    rows = []
    lo, hi = window
    for n in range(lo, hi + 1):
        for kind, members in (
            ("P", spiral.p_n(n)),
            ("L", spiral.l_n(n)),
            ("U", spiral.u_n(n)),
        ):
            names = sorted(
                "h" if r is spr.CARTAN else ",".join(map(str, r)) for r in members
            )
            rows.append([n, kind, ";".join(names) or "-"])
    return rows


def cmd_spiral(args, config, ambient) -> tuple[int, str]:
    datum = _graded_datum(config, ambient)
    if args.lam is not None:
        _refuse_flags(args, ("facet_word", "facet_type"), "is not read with --lam")
        lam = tuple(_parse_frac_list(args.lam))
        if len(lam) != ambient.rank:
            raise ConfigError(f"lambda must have {ambient.rank} coordinates")
        spiral = spr.spiral_from_cochar(datum, lam)
    else:
        nu = cx.facet(
            ambient,
            _word_to_element(ambient, args.facet_word or ""),
            frozenset(_parse_int_list(args.facet_type or "")),
        )
        try:
            spiral = spr.spiral_from_facet(datum, nu)
        except spr.FiniteFacet as exc:
            raise ConfigError(str(exc)) from exc
    rows = _spiral_rows(spiral, config["window"])
    report = spr.levi_decomposition_check(spiral, tuple(config["window"]))
    data = {
        "lambda": [frac_str(c) for c in spiral.lam],
        "epsilon": spiral.epsilon,
        "partition_ok": report.partition_ok,
    }
    code = 0 if report.partition_ok else 1
    return code, emit_rows(config, "spiral", "table", ["n", "part", "members"], rows, data)


def _build_ddaha(config, ambient) -> dd.DdahaAlgebra:
    c = config["c"]
    if c is None:
        c = {l: 2 for l in ambient.labels}
    else:
        c = _parse_c_map(c)
    try:
        params = dd.HeckeParameters.make(config["m"], config["d"], c)
        return dd.build_algebra(ambient, params)
    except dd.InvalidParameters as exc:
        raise ConfigError(str(exc)) from exc


WEIGHT_HEADER = ["word", "weight", "multiplicity"]


def _weight_rows(config, ambient, algebra) -> list[list]:
    """Word, weight and multiplicity (WEIGHT_HEADER) of each basis element of
    the standard module, in basis order."""
    module = dd.standard_module(algebra, _lam0_vec(config, ambient), config["depth"])
    weights, den = module.weights()
    mults = Counter(weights)
    return [
        [_word_str(reduced_word(g).letters), numerators_str(w, den), mults[w]]
        for g, w in zip(module.basis, weights)
    ]


def cmd_ddaha(args, config, ambient) -> tuple[int, str]:
    algebra = _build_ddaha(config, ambient)
    if args.expr is not None:
        _refuse_flags(args, ("weights",), "is not read with --expr")
        x = dd.parse_element(algebra, args.expr)
        if args.times is not None:
            x = dd.multiply(x, dd.parse_element(algebra, args.times))
        data = {"normal_form": dd.format_element(x)}
        return 0, emit(config, "ddaha", data)
    _refuse_flags(args, ("times",), "is not read without --expr")
    if args.weights:
        rows = _weight_rows(config, ambient, algebra)
        data = {"dimension": len(rows)}
        return 0, emit_rows(config, "ddaha.weights", "weights", WEIGHT_HEADER, rows, data)
    report = dd.verify_relations(algebra, seed=config["seed"])
    data = {
        "squares_ok": report.squares_ok,
        "braid_ok": report.braid_ok,
        "cross_ok": report.cross_ok,
        "failures": len(report.failures),
    }
    return (0 if report.ok() else 1), emit(config, "ddaha.relations", data)


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


def certify_checks(config, ambient) -> list[dict]:
    checks = []
    sigma = config["sigma"]
    radius = config["radius"]
    rng = random.Random(config["seed"])

    try:
        system = rel.relative_system(ambient, sigma)
    except rel.NotAdmissible as exc:
        detail = f"violating supersets {[sorted(c) for c in exc.violating]}"
        checks.append({"check": "admissible", "ok": False, "detail": detail})
        return checks
    checks.append({"check": "admissible", "ok": True, "detail": ""})
    # relative BFS distance is relative length, and a product of two elements
    # of the depth ball lies within twice the depth: one ball serves the
    # sphere sizes, the depth ball (a prefix in BFS order), the products and,
    # when it reaches the radius, the fixed chambers
    depth = min(config["depth"], 3)
    ball_radius = max(min(radius, 4), 2 * depth)
    ball = rel.relative_ball(system, ball_radius)
    got = [0] * (min(radius, 4) + 1)
    for d in ball.values():
        if d < len(got):
            got[d] += 1
    try:
        expected = rel.coxeter_ball_sizes_from_matrix(
            list(system.simple_labels()), system.coxeter_matrix, min(radius, 4)
        )
        checks.append(
            {
                "check": "coxeter-ball-sizes",
                "ok": got == expected,
                "detail": f"got {got} expected {expected}",
            }
        )
    except NotImplementedError as exc:
        checks.append({"check": "coxeter-ball-sizes", "ok": True, "detail": f"skipped: {exc}"})

    # l(x) and T(x) of each element are computed once per command, on first
    # use, and read by every check
    length_of, reflections_of = functools.cache(length), functools.cache(reflections_T)
    small = {g: d for g, d in ball.items() if d <= depth}
    violations = 0
    for g, lg in small.items():
        for h, lh in small.items():
            gh = g * h
            rel_add = ball[gh] == lg + lh
            abs_add = length_of(gh) == length_of(g) + length_of(h)
            if rel_add != abs_add:
                violations += 1
    checks.append(
        {
            "check": "length-additivity-equivalence",
            "ok": violations == 0,
            "detail": f"{violations} violations over {len(small)}^2 pairs",
        }
    )

    # one length ball serves this check (to radius 3) and the fixed chambers
    length_ball = cx.Ball(ambient, radius)
    bad_t = sum(
        1 for g, d in length_ball.lengths.items() if d <= 3 and d != len(reflections_of(g))
    )
    checks.append(
        {
            "check": "length-equals-reflection-count",
            "ok": bad_t == 0,
            "detail": f"{bad_t} mismatches",
        }
    )

    exchange_bad = 0
    for g in small:
        word = rel.relative_reduced_word(system, g)
        for l in rel.relative_descents(system, g):
            st = system.generator(l)
            prefix = ExtAffineWeylElement.identity(ambient)
            found = False
            for i in range(len(word)):
                nxt = prefix * system.generator(word[i])
                if st * prefix == nxt:
                    found = True
                    break
                prefix = nxt
            if not found and word:
                exchange_bad += 1
    checks.append(
        {
            "check": "exchange-property",
            "ok": exchange_bad == 0,
            "detail": f"{exchange_bad} failures",
        }
    )

    try:
        report = cx.fixed_chambers(
            system, radius, ball=length_ball, rel_ball=ball if ball_radius >= radius else None
        )
        type_ok = all(f.type_labels == frozenset(sigma) for f in report.chambers)
        checks.append(
            {
                "check": "fixed-chambers",
                "ok": type_ok and report.single_free_orbit,
                "detail": (
                    f"{len(report.chambers)} chambers, free orbit "
                    f"{report.single_free_orbit}, boundary excluded "
                    f"{len(report.boundary_excluded)}"
                ),
            }
        )
    except cx.BallTooSmall as exc:
        checks.append({"check": "fixed-chambers", "ok": False, "detail": str(exc)})

    sample = sorted(small, key=lambda g: (length_of(g), g.mu, g.matrix))
    pairs_checked = 0
    eta_ok = True
    for _ in range(10):
        g = rng.choice(sample)
        h = rng.choice(sample)
        t_g, t_h = reflections_of(g), reflections_of(h)
        if reflections_of(g * h) <= t_g | conjugate_reflections(g, t_h):
            pairs_checked += 1
        else:
            eta_ok = False
    checks.append(
        {
            "check": "reflection-set-multiplicativity",
            "ok": eta_ok,
            "detail": f"{pairs_checked}/10 random pairs",
        }
    )
    return checks


def cmd_certify(args, config, ambient) -> tuple[int, str]:
    checks = certify_checks(config, ambient)
    all_ok = all(c["ok"] for c in checks)
    data = {"ok": all_ok, "checks": checks}
    rows = (["check", "ok", "detail"], [[c["check"], int(c["ok"]), c["detail"]] for c in checks])
    return (0 if all_ok else 1), emit(config, "certify", data, rows)


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------


def cmd_table(args, config, ambient) -> tuple[int, str]:
    which = args.which
    if which == "weyl-ball":
        ball = cx.Ball(ambient, config["radius"])
        lengths = ball.lengths
        rows = []
        for g in sorted(lengths, key=lambda g: (lengths[g], g.mu, g.matrix)):
            rows.append([lengths[g], _word_str(ball.word(g))])
        data = {"count": len(rows)}
        return 0, emit_rows(config, "table.weyl-ball", "rows", ["length", "word"], rows, data)
    if which == "facets":
        return _facets_table(config, ambient, "table.facets")
    if which == "spiral":
        datum = _graded_datum(config, ambient)
        lam = tuple(Fraction(0) for _ in range(ambient.rank))
        spiral = spr.spiral_from_cochar(datum, lam)
        rows = _spiral_rows(spiral, config["window"])
        return 0, emit_rows(config, "table.spiral", "table", ["n", "part", "members"], rows)
    if which == "relpos":
        itype = frozenset(config["sigma"])
        base = cx.facet(ambient, ExtAffineWeylElement.identity(ambient), itype)
        ball = cx.Ball(ambient, config["radius"])
        lengths = ball.lengths
        rows = []
        for f in sorted(
            cx.facets_in_ball(ambient, config["radius"], types=[itype], ball=ball),
            key=lambda f: (lengths[f.rep], f.rep.mu, f.rep.matrix),
        ):
            rp = cx.relative_position(base, f)
            # the double coset's minimal rep is no longer than f.rep: in the ball
            rows.append(
                [_word_str(ball.word(f.rep)), _word_str(ball.word(rp.double_coset)), int(rp.good)]
            )
        return 0, emit_rows(config, "table.relpos", "rows", ["facet", "coset", "good"], rows)
    # which == "weights", the last of the parser's choices
    rows = _weight_rows(config, ambient, _build_ddaha(config, ambient))
    return 0, emit_rows(config, "table.weights", "rows", WEIGHT_HEADER, rows)


def _facets_table(config, ambient, command) -> tuple[int, str]:
    """Every facet of the length ball with its type, word and interior point,
    planned per chamber.  A facet is y W_J for y in the ball with no right
    descent in J (`facets_in_ball`), so the chambers are sorted once by
    (length, mu, matrix) and each type lists, in label order, the chambers
    whose right descents miss it.  Its interior point is the barycentre of
    the alcove vertices off its walls (in finite mode the sum of the rays),
    and y acts affinely: y acts once on the n + 1 vertices, as numerators
    over one common denominator, and each facet sums the images off its
    walls.  `numerators_str` reduces each coordinate by its gcd, so the text
    does not depend on the denominator."""
    ball = cx.Ball(ambient, config["radius"])
    lengths, descents = ball.lengths, ball.descents
    labels, n = ambient.labels, ambient.rank
    vertices = ambient.alcove_vertices()
    flat, den = numerators([c for l in labels for c in vertices[l]])
    vertex_nums = [flat[k : k + n] for k in range(0, len(flat), n)]
    plan = [
        (
            descents[y.inverse()],
            _word_str(ball.word(y)),
            [y.act_numerators(v, den) for v in vertex_nums],
        )
        for y in sorted(lengths, key=lambda y: (lengths[y], y.mu, y.matrix))
    ]
    rows = []
    for t in sorted(c for k in range(len(labels)) for c in combinations(labels, k)):
        name = _word_str(t)
        off = [k for k, l in enumerate(labels) if l not in t]
        point_den = den * len(off) if ambient.affine else den
        for right, word, images in plan:
            if right.isdisjoint(t):
                point = map(sum, zip(*[images[k] for k in off]))
                rows.append([name, word, numerators_str(point, point_den)])
    header = ["type", "word", "interior"]
    return 0, emit_rows(config, command, "facets", header, rows, {"count": len(rows)})


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _add_common(p):
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--format", help="json or tsv")
    p.add_argument("--seed")
    p.add_argument("--radius")
    p.add_argument("--depth")
    p.add_argument("--type", help="root system type letter")
    p.add_argument("--rank")
    p.add_argument("--finite", action="store_true", help="spherical (non-affine) system")
    p.add_argument("--sigma", help="comma-separated simple labels")
    p.add_argument("--theta", help="comma-separated rational coweight coordinates")
    p.add_argument("--m")
    p.add_argument("--d")
    p.add_argument("--c", help="Hecke parameters as label=value,label=value")
    p.add_argument("--window", help="degree window lo:hi")
    p.add_argument("--lam0", help="comma-separated rational point coordinates")


def build_parser() -> argparse.ArgumentParser:
    """The whole parser; its `subcommands` maps each subcommand name to that
    subcommand's parser."""
    parser = argparse.ArgumentParser(
        prog="weylkit",
        description="Exact computations in affine Weyl groups, relative Coxeter "
        "systems, spirals and degenerate double affine Hecke algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.subcommands = {}

    def command(name, func, help):
        p = parser.subcommands[name] = sub.add_parser(name, help=help)
        _add_common(p)
        p.set_defaults(func=func)
        return p

    command("root", cmd_root, "root datum of the configured system")
    p = command("weyl", cmd_weyl, "analyze one group element given by a word")
    p.add_argument("--word", help="comma-separated simple labels")
    command("relative", cmd_relative, "relative Coxeter system of sigma")
    p = command("complex", cmd_complex, "Coxeter complex queries")
    p.add_argument(
        "complex_command", choices=("facets", "relpos", "fixed"), help="query kind"
    )
    p.add_argument("--nu", help="word for the first facet representative")
    p.add_argument("--nuprime", help="word for the second facet representative")
    p.add_argument("--itype", help="comma-separated facet type labels")
    p = command("spiral", cmd_spiral, "P/L/U membership tables")
    p.add_argument("--lam", help="cocharacter coordinates (else use a facet)")
    p.add_argument("--facet-word", dest="facet_word")
    p.add_argument("--facet-type", dest="facet_type")
    p = command("ddaha", cmd_ddaha, "Hecke algebra computations")
    p.add_argument("--expr", help="element literal, e.g. 's1*s0*x1^2 + (3/2)*s1'")
    p.add_argument("--times", help="second literal to multiply on the right")
    p.add_argument("--weights", action="store_true", help="standard module weights")
    command("certify", cmd_certify, "run the invariant suite for the config")
    p = command("table", cmd_table, "emit one of the canonical tables")
    p.add_argument(
        "which", choices=("weyl-ball", "facets", "spiral", "relpos", "weights")
    )
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process."""
    return build_parser()


def parse_args(argv) -> argparse.Namespace:
    """What the whole parser's parse_args(argv) gives, or the same SystemExit.
    An argv that starts with a subcommand name is parsed by that subcommand's
    parser alone, and its leftover words are reported as the whole parser
    reports them; any other argv goes to the whole parser, whose help and
    errors list the subcommands."""
    parser = _parser()
    sub = parser.subcommands.get(argv[0]) if argv else None
    if sub is None:
        return parser.parse_args(argv)
    args, extra = sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    return args


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        config = resolve_config(args)
        code, text = args.func(args, config, build_ambient(config))
    except (
        ConfigError,
        dd.LiteralSyntaxError,
        cx.TypesDiffer,
        cx.TypeNotContained,
        rel.UnknownLabels,
    ) as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return 2
    except (BallTooLarge, rel.NotFinite, dd.PowerTooLarge, dd.CoefficientTooLarge) as exc:
        sys.stderr.write(f"resource cap: {exc}\n")
        return 3
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
