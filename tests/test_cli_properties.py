"""Hypothesis property of the CLI over its argv grammar: every command and
every flag, with good and bad values, on systems of rank at most 3 and balls
of radius at most 2.  Whatever the argv, `main` returns an exit code from 0
to 3 and raises nothing; exits 2 and 3 print nothing on stdout; exit 1 comes
only with output that names a failing check; JSON output parses."""

import contextlib
import io
import json

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from weylkit.cli import main

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
    few commands read, one with an unknown key, malformed JSON, and a
    missing path."""
    root = tmp_path_factory.mktemp("configs")
    files = {
        "good.json": '{"type": "C", "rank": 2, "sigma": [1]}',
        "bad_theta.json": '{"theta": "1/0"}',
        "unknown.json": '{"order_cap": 3}',
        "malformed.json": '{"type": ',
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
