"""DDAHA element literals parse as the recorded corpus says.

tests/ddaha_literals.json holds, for each literal, the algebra it is read
in and either `format_element` of the parsed element or the name of the
exception `parse_element` raised.  The corpus is the ddaha_assoc op pool of
the benchmark (read from perfbench/reference/ddaha_assoc.json), the `--expr`
and `--times` literals of the golden commands, and seeded fuzz literals on
affine A1, A2, C2 and G2: random token strings, and sums with whitespace,
signs, `^0`, `(-0/5)`, `s01`, powers above the cap and one-character
corruptions; last, three digit runs longer than Python converts to an int.
The file is written from a commit known to be correct, never to make a
failing comparison pass:

    PYTHONPATH=src python3 tests/test_ddaha_literals.py [--overwrite]
"""

import json
import os
import random
import re
import shlex
import sys

from weylkit import ddaha as dd
from weylkit.root_system import affinize, build_finite

HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS = os.path.join(HERE, "ddaha_literals.json")

# key -> (type, rank, m); every algebra has d = 1 and every c = 2
ALGEBRAS = {
    "A1m2": ("A", 1, 2),
    "A2m1": ("A", 2, 1),
    "A2m3": ("A", 2, 3),
    "C2m4": ("C", 2, 4),
    "G2m1": ("G", 2, 1),
}

# The one rule change since the corpus was recorded: a literal that is
# malformed and also holds a power above the cap raises LiteralSyntaxError,
# since the whole literal is matched before any factor is folded, where the
# recording parser folded each factor as it read it and raised PowerTooLarge.
SYNTAX_BEFORE_POWER = (
    "x1^65(0)1/0",
    "x2^65)^65\tx1s2",
    "x1^00712s2(-3/0)",
    "s2*s0 - x2^\t65 * x1-(3 *)*( -2/1 )*x2 ",
    "-\tx1 ^2*x1^712+x2\t^ 3*- 3/2 )+\tx1\t^3",
)


def build(key):
    t, n, m = ALGEBRAS[key]
    ambient = affinize(build_finite(t, n))
    params = dd.HeckeParameters.make(m, 1, {l: 2 for l in ambient.labels})
    return dd.build_algebra(ambient, params)


def outcome(algebra, text):
    try:
        return dd.format_element(dd.parse_element(algebra, text))
    except (dd.LiteralSyntaxError, dd.PowerTooLarge) as exc:
        return type(exc).__name__


def test_literal_corpus():
    with open(CORPUS) as fh:
        cases = json.load(fh)["cases"]
    algebras = {key: build(key) for key in ALGEBRAS}
    changed = {}
    for key, text, recorded in cases:
        expected = recorded
        if text in SYNTAX_BEFORE_POWER:
            # malformed still with every power lowered to 1
            lowered = re.sub(r"\^\s*\d+", "^1", text)
            assert outcome(algebras[key], lowered) == "LiteralSyntaxError", text
            assert recorded == "PowerTooLarge", text
            expected = "LiteralSyntaxError"
        got = outcome(algebras[key], text)
        if got != expected:
            changed[key, text] = (recorded, got)
    assert not changed


# ---------------------------------------------------------------------------
# Recording
# ---------------------------------------------------------------------------


def pool_literals():
    """The x, y and z of each ddaha_assoc op, in the algebra of its group."""
    path = os.path.join(os.path.dirname(HERE), "perfbench", "reference", "ddaha_assoc.json")
    with open(path) as fh:
        ops = json.load(fh)["ops"]
    keys = {"A1": "A1m2", "A2": "A2m3", "C2": "C2m4"}
    return [(keys[op["group"]], op[k]) for op in ops for k in ("x", "y", "z")]


def golden_literals():
    """The --expr and --times literals of the golden ddaha commands."""
    sys.path.insert(0, HERE)
    from test_golden import CASES

    out = []
    for command in CASES.values():
        argv = shlex.split(command)
        if argv[0] != "ddaha" or "--expr" not in argv:
            continue
        flags = dict(zip(argv[1::2], argv[2::2]))
        key = f"{flags['--type']}{flags['--rank']}m{flags.get('--m', 1)}"
        out += [(key, flags[f]) for f in ("--expr", "--times") if f in flags]
    return out


TOKENS = (
    "s0", "s1", "s2", "s3", "s01", "s10", "x0", "x1", "x2", "x3", "x01", "^", "^0", "^2",
    "^65", "^00712", "*", "*", "+", "+", "-", "-", "(", ")", "/", "(-0/5)", "(3/2)",
    "(-1/3)", "(0)", "0", "2", "12", " ", "  ", "\t", "3/2", "s", "x", "1/0", "(-3/0)",
)


def token_string(rng):
    return "".join(rng.choice(TOKENS) for _ in range(rng.randint(1, 8)))


def space(rng):
    return rng.choice(("", "", "", "", " ", "\t"))


def factor(rng, labels, rank):
    kind = rng.choice("ssxxc")
    if kind == "s":
        label = rank + 1 if rng.random() < 0.05 else rng.choice(labels)
        return f"s0{label}" if rng.random() < 0.1 else f"s{label}"
    if kind == "x":
        i = rng.randint(0, rank + 1) if rng.random() < 0.05 else rng.randint(1, rank)
        power = rng.choice((None, None, 0, 1, 2, 3))
        if rng.random() < 0.05:
            power = rng.choice((65, 100, 712))
        return f"x{i}" if power is None else f"x{i}{space(rng)}^{space(rng)}{power}"
    if rng.random() < 0.3:
        return str(rng.randint(0, 12))
    p, q = rng.randint(-4, 4), rng.choice((1, 2, 3, 5, 0) if rng.random() < 0.05 else (1, 2, 3, 5))
    sign, p = ("-" if p < 0 else rng.choice(("", "", "-"))), abs(p)
    body = f"{sign}{space(rng)}{p}" + (f"{space(rng)}/{space(rng)}{q}" if rng.random() < 0.7 else "")
    return f"({space(rng)}{body}{space(rng)})"


def structured(rng, labels, rank):
    text = space(rng) + ("-" + space(rng) if rng.random() < 0.3 else "")
    for k in range(rng.randint(1, 3)):
        if k:
            text += f"{space(rng)}{rng.choice('+-')}{space(rng)}"
        factors = [factor(rng, labels, rank) for _ in range(rng.randint(1, 3))]
        text += f"{space(rng)}*{space(rng)}".join(factors)
    text += space(rng)
    if rng.random() < 0.25 and text:
        at = rng.randrange(len(text) + 1)
        if rng.random() < 0.5:
            text = text[:at] + rng.choice("+-*/^()sx ") + text[at:]
        else:
            text = text[:at] + text[at + 1:]
    return text


def fuzz_literals(count=2000):
    rng = random.Random(20261019)
    out = []
    for key in ("A1m2", "A2m3", "C2m4", "G2m1"):
        t, rank, _ = ALGEBRAS[key]
        labels = list(range(rank + 1))
        for k in range(count // 4):
            text = token_string(rng) if k % 2 else structured(rng, labels, rank)
            out.append((key, text))
    return out


def long_digit_literals():
    """Digit runs past Python's integer-string limit, in a power, a generator
    label and a rational."""
    runs = ("x1^" + "9" * 5000, "s" + "1" * 5000, "(" + "9" * 5000 + ")")
    return [("A2m1", text) for text in runs]


def record(overwrite):
    if os.path.exists(CORPUS) and not overwrite:
        raise SystemExit(f"{CORPUS} exists; pass --overwrite to rewrite it")
    algebras = {key: build(key) for key in ALGEBRAS}
    cases = pool_literals() + golden_literals() + fuzz_literals() + long_digit_literals()
    lines = ",\n".join(json.dumps([key, text, outcome(algebras[key], text)], separators=(",", ":")) for key, text in cases)
    with open(CORPUS, "w") as fh:
        fh.write(f'{{"cases": [\n{lines}\n]}}\n')
    print(f"{len(cases)} literals -> {CORPUS}")


if __name__ == "__main__":
    record("--overwrite" in sys.argv[1:])
