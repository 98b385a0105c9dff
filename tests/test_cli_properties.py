"""Hypothesis property of the CLI over its argv grammar: every command and
every flag, with good and bad values, on systems of rank at most 3 and balls
of radius at most 2.  Whatever the argv, `main` returns an exit code from 0
to 3 and raises nothing; exits 2 and 3 print nothing on stdout; exit 1 comes
only with output that names a failing check; JSON output parses.  The same
argvs, with stray words added, parse as the whole argparse parser parses
them, and the JSON writer matches json.dumps on random values and row
tables (the rows written from one template per table).  A DDAHA
literal drawn from the literal alphabet, with digit runs past Python's
int-to-string limit, exits 0, 2 or 3 and raises nothing."""

import contextlib
import io
import json
from fractions import Fraction
from unittest import mock

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from weylkit import cli
from weylkit.cli import _json, build_parser, emit, emit_rows, main, parse_args
from test_cli_pins import parse_outcome

SUBCOMMANDS = [
    ["root"],
    ["weyl"],
    ["relative"],
    ["complex", "facets"],
    ["complex", "relpos"],
    ["complex", "fixed"],
    ["spiral"],
    ["ddaha"],
    ["certify"],
    ["table", "weyl-ball"],
    ["table", "facets"],
    ["table", "spiral"],
    ["table", "relpos"],
    ["table", "weights"],
]

# each flag with its good values and its bad ones; None is a bare switch.
# --radius is always given (the default 4 is too slow for a property run),
# and --config takes the files of the `configs` fixture
COMMON_FLAGS = {
    "--finite": ([None], []),
    "--sigma": (["", "1", "0,1", "1,2", "2"], ["1,1", "7", "x"]),
    "--theta": (["0,0", "1,1", "1,0,1", "1"], ["1/2,1", "1/3,1/3", "1/0,x"]),
    "--m": (["1", "3", "4"], ["-1", "0", "x"]),
    "--d": (["-2", "-1", "1"], ["0"]),
    "--c": (["0=2,1=2,2=2", "0=2,1=2", "0=2,1=3"], ["0=2,1=2,2=4", "a=2", "0=2,0=2", "x", "0=-1"]),
    "--window": (["-2:2", "0:0", "-1:3"], ["3:1", "x", "1:2:3"]),
    "--lam0": (["1/3", "0,0", "1/2,1/3"], ["q", "1/0"]),
    "--format": (["json", "tsv"], ["xml"]),
    "--seed": (["0", "3"], ["x"]),
    "--depth": (["0", "1", "2"], ["-1"]),
}
WORDS = (["", "1", "0,1,2,1", "2,1"], ["9", "x"])
COMMAND_FLAGS = {
    "weyl": {"--word": WORDS},
    "complex": {
        "--nu": WORDS,
        "--nuprime": WORDS,
        "--itype": (["", "1", "0,1", "2"], ["0,1,2", "9", "x"]),
    },
    "spiral": {
        "--lam": (["0,0", "1/2,-1/3", "0", "1,0,-1"], ["x"]),
        "--facet-word": WORDS,
        "--facet-type": (["", "1", "0,2"], ["0,1,2", "x"]),
    },
    "ddaha": {
        "--expr": (["s1", "s1*x1^2 + (3/2)*s0", "x1^100000"], ["(1/0)", "s9", "x7"]),
        "--times": (["s0*x1 - 1"], ["x1^"]),
        "--weights": ([None], []),
    },
}
SYSTEMS = (
    [("A", "1"), ("A", "2"), ("A", "3"), ("B", "2"), ("B", "3"), ("C", "2"), ("C", "3"),
     ("G", "2"), ("BC", "1"), ("BC", "2"), ("BC", "3")],
    [("D", "3"), ("Z", "2"), ("A", "0"), ("A", "-1"), ("A", "x")],
)
RADII = (["0", "1", "2"], ["-1"])

# flags that a failing check sets to false in the output
FAILING_FLAGS = ("ok", "admissible", "squares_ok", "braid_ok", "cross_ok")

PROPERTY = settings(
    derandomize=True,
    database=None,
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@pytest.fixture(scope="module")
def configs(tmp_path_factory):
    """Config files: a good one first, then one with a bad value of a key
    few commands read, one with an unknown key, malformed JSON, JSON that
    is not an object, and a missing path."""
    root = tmp_path_factory.mktemp("configs")
    files = {
        "good.json": '{"type": "C", "rank": 2, "sigma": [1]}',
        "bad_theta.json": '{"theta": "1/0"}',
        "unknown.json": '{"order_cap": 3}',
        "malformed.json": '{"type": ',
        "not_object.json": '[["type", "B"]]',
    }
    for name, text in files.items():
        (root / name).write_text(text)
    return [str(root / name) for name in files] + [str(root / "missing.json")]


def value(draw, values):
    """A good value, or one time in six a bad one (when there is one)."""
    good, bad = values
    return draw(st.sampled_from(bad if bad and draw(st.integers(0, 5)) == 0 else good))


@st.composite
def argvs(draw, configs):
    command = draw(st.sampled_from(SUBCOMMANDS))
    flags = {**COMMON_FLAGS, "--config": (configs[:1], configs[1:])}
    flags.update(COMMAND_FLAGS.get(command[0], {}))
    argv = command + [f"--radius={value(draw, RADII)}"]
    if draw(st.booleans()):
        type_label, rank = value(draw, SYSTEMS)
        argv += [f"--type={type_label}", f"--rank={rank}"]
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), unique=True, max_size=5)):
        v = value(draw, flags[flag])
        argv.append(flag if v is None else f"{flag}={v}")
    return argv


def names_a_failing_check(text: str, tsv: bool) -> bool:
    if not tsv:
        result = json.loads(text)["result"]
        return any(result.get(k) is False for k in FAILING_FLAGS)
    rows = [line.split("\t") for line in text.splitlines() if not line.startswith("#")]
    if rows and rows[0] == ["check", "ok", "detail"]:
        return any(row[1] == "0" for row in rows[1:])
    return any(row == [k, "false"] for row in rows for k in FAILING_FLAGS)


def test_every_argv_exits_0_to_3_with_consistent_output(configs):
    @PROPERTY
    @given(argvs(configs))
    def check(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        text = out.getvalue()
        assert code in (0, 1, 2, 3)
        if code in (2, 3):
            assert text == ""
            return
        tsv = "--format=tsv" in argv
        if not tsv:
            json.loads(text)
        if code == 1:
            assert names_a_failing_check(text, tsv)

    check()


# literals built from the factors of the grammar, with digit runs on both
# sides of Python's 4300-digit int-to-string limit, then with up to two
# characters of the literal alphabet inserted anywhere
LITERAL_ALPHABET = "sx^0123456789*+-/() "
DIGITS = st.sampled_from(["1", "12", "9" * 4299, "9" * 4301])
FACTORS = st.one_of(
    st.sampled_from(["s0", "s1", "s2", "x1", "x2"]),
    DIGITS,
    DIGITS.map(lambda d: f"x1^{d}"),
    st.tuples(DIGITS, DIGITS).map(lambda pq: f"(-{pq[0]}/{pq[1]})"),
)


@st.composite
def literals(draw):
    text = draw(FACTORS)
    for _ in range(draw(st.integers(0, 4))):
        text += draw(st.sampled_from(["*", " * ", "*", " + ", "-"])) + draw(FACTORS)
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(text)))
        text = text[:i] + draw(st.sampled_from(LITERAL_ALPHABET)) + text[i:]
    return text


@settings(PROPERTY, max_examples=300)
@given(literals())
@example("(" + "9" * 4000 + ")*(" + "9" * 4000 + ")")
def test_no_literal_raises(text):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["ddaha", "--type", "A", "--rank", "1", "--expr", text])
    assert code in (0, 2, 3)
    assert (out.getvalue() == "") == (code != 0)


# words argparse reads in unusual places: help, `--`, unknown flags, an
# extra positional, an abbreviation and a subcommand name
STRAY = ("-h", "--", "--bogus", "-x", "extra", "--wo", "--ra", "root", "facets")


@st.composite
def stray_argvs(draw):
    argv = draw(argvs(["good.json", "bad.json"]))
    for word in draw(st.lists(st.sampled_from(STRAY), max_size=2)):
        argv.insert(draw(st.integers(0, len(argv))), word)
    return argv


def test_dispatch_parses_as_the_whole_parser():
    whole = build_parser().parse_args

    @settings(PROPERTY, max_examples=200)
    @given(stray_argvs())
    def check(argv):
        assert parse_outcome(parse_args, argv) == parse_outcome(whole, argv)

    check()


# strings and keys with non-ASCII, quote, backslash and control characters;
# floats and int-keyed dicts take the writer's json.dumps fallback
TEXT = st.text(st.sampled_from('a"\\/\x00\x1f\x7f\n\té€\U0001f600'), max_size=4)
SCALARS = (
    st.none() | st.booleans() | st.integers(-3, 3) | st.integers(-(10**30), 10**30)
    | st.floats() | TEXT
)
VALUES = st.recursive(
    SCALARS | st.dictionaries(st.integers(), TEXT, max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=16,
)


@settings(PROPERTY, max_examples=150)
@given(VALUES)
def test_json_writer_matches_indented_dumps(value):
    assert _json(value) == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize(
    "value", [Fraction(1, 2), {"a": [1, Fraction(1, 2)]}, {1: "x", "a": "y"}, [{"a"}]]
)
def test_json_writer_raises_where_dumps_raises(value):
    with pytest.raises(TypeError):
        json.dumps(value, sort_keys=True, indent=2)
    with pytest.raises(TypeError):
        _json(value)


# header names with quotes, backslashes, "%" (the row template's format
# character) and non-ASCII; distinct, as every command's header is
NAMES = st.text(st.sampled_from('a"\\%/\né€\U0001f600'), max_size=3)
ROW_VALUES = st.none() | st.booleans() | st.integers(-(10**30), 10**30) | TEXT


@st.composite
def row_tables(draw):
    """(header, rows) with each row one value per header name."""
    header = draw(st.lists(NAMES, max_size=4, unique=True))
    row = st.lists(ROW_VALUES, min_size=len(header), max_size=len(header))
    return header, draw(st.lists(row, max_size=5))


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(
    row_tables(),
    st.dictionaries(TEXT, SCALARS, max_size=3),
    NAMES,
    st.sampled_from([1, 2, 1024]),
)
@example((["b", "a"], []), {"count": 0}, "rows", 1024)
def test_row_tables_match_one_dict_per_row(table, extra, key, chunk):
    # the JSON is that of one dict per row under `key`, next to the extra
    # fields, at every chunk size; the tsv is what emit writes of the rows
    header, rows = table
    config = {**cli.DEFAULTS, "format": "json"}
    result = {**extra, key: [dict(zip(header, r)) for r in rows]}
    expected = json.dumps(
        {"command": "table.x", "config": config, "result": result}, sort_keys=True, indent=2
    )
    with mock.patch.object(cli._RowTable, "CHUNK", chunk):
        assert emit_rows(config, "table.x", key, header, rows, extra) == expected + "\n"
    tsv = {**config, "format": "tsv"}
    assert emit_rows(tsv, "table.x", key, header, rows, extra) == emit(
        tsv, "table.x", result, (header, rows)
    )
