"""Byte-exact exit code, stdout and stderr of the CLI's help and parse errors.

tests/cli_pins.json holds, for each argv below, what `main` returned and
wrote: the `--help` text of the top level and of every subcommand, and the
argvs that argparse itself rejects or reads in an unusual way (no words, an
unknown command, flags before the command, unknown flags, extra positionals,
a missing choice, `--`, abbreviations), and the words at the edge of the
flag-table reading (a repeated flag, values with a leading `-`, an empty
value).  The goldens pin only the exit code and stdout of commands that
run; these pin the front end.  Help text is wrapped to COLUMNS=80.  The file is written from a commit known to be
correct, never to make a failing comparison pass:

    PYTHONPATH=src python3 tests/test_cli_pins.py [--overwrite]
"""

import contextlib
import io
import json
import os
import sys

import pytest

from weylkit.cli import build_parser, main, parse_args

HERE = os.path.dirname(os.path.abspath(__file__))
PINS = os.path.join(HERE, "cli_pins.json")

SUBCOMMANDS = ("root", "weyl", "relative", "complex", "spiral", "ddaha", "certify", "table")

ARGVS = (
    # help, at the top level and for each subcommand
    [["-h"], ["--help"], ["--he"], ["-h", "weyl"], ["weyl", "--word", "1", "--help"]]
    + [[name, "--help"] for name in SUBCOMMANDS]
    + [["complex", "relpos", "-h"], ["weyl", "--bogus", "-h"], ["weyl", "-h", "--bogus"]]
    # argvs that never reach a subcommand parser
    + [[], ["frobnicate"], ["WEYL"], ["--bogus"], ["--type", "A", "weyl"], ["--", "weyl"],
       ["-x", "root"]]
    # unknown flags and extra words after the command
    + [["weyl", "--bogus"], ["weyl", "-x"], ["weyl", "extra"], ["weyl", "extra", "--bogus", "x"],
       ["root", "--finite=1"], ["complex", "facets", "relpos"],
       ["table", "weyl-ball", "--radius", "1", "extra"], ["ddaha", "--weights", "x"],
       ["root", "root"]]
    # missing or bad choices and values
    + [["complex"], ["complex", "bogus"], ["table"], ["table", "weyl_ball"], ["weyl", "--word"],
       ["root", "--format"], ["weyl", "--t", "A"], ["weyl", "--type"]]
    # `--` and abbreviations
    + [["weyl", "--", "x"], ["weyl", "--word", "1", "--"], ["weyl", "--", "--word", "1"],
       ["complex", "--", "facets", "--radius", "1"],
       ["weyl", "--wo", "1,2", "--ty", "A", "--ra", "2"],
       ["weyl", "--wo", "0,1", "--ty", "A", "--ran", "2"],
       ["weyl", "--word=0,1", "--word=1"], ["table", "weyl-ball", "--rad=1"]]
    # words at the edge of a plain flag-value reading: a flag or a switch
    # given twice, a negative value (read as a value), a value with a
    # leading `-` (rejected), an empty value, a positional after flags
    + [["weyl", "--type", "A", "--rank", "2", "--rank", "1", "--word", "1"],
       ["weyl", "--rank", "2", "--d", "-1", "--word", "1"], ["spiral", "--window", "-2:2"],
       ["weyl", "--sigma", "", "--word", "1"], ["root", "--finite", "--finite"],
       ["complex", "--radius", "1", "facets"]]
)


def run(argv):
    """[argv, exit code, stdout, stderr] of one `main` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return [list(argv), code, out.getvalue(), err.getvalue()]


@pytest.fixture(scope="module")
def pins():
    with open(PINS) as fh:
        return json.load(fh)["cases"]


def test_pins_cover_every_argv(pins):
    assert [case[0] for case in pins] == ARGVS


@pytest.mark.parametrize("index", range(len(ARGVS)))
def test_front_end_output_is_pinned(pins, index, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert run(pins[index][0]) == pins[index]


def parse_outcome(parse, argv):
    """(namespace attributes or None, exit code or None, stdout, stderr) of
    one parse of argv."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            found, code = vars(parse(list(argv))), None
        except SystemExit as exc:
            found, code = None, exc.code
    return found, code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("index", range(len(ARGVS)))
def test_dispatch_parses_as_the_whole_parser(index, monkeypatch):
    # parse_args reads a well-formed argv against the flag table and hands
    # any other to the whole parser; the whole parser is the reference
    monkeypatch.setenv("COLUMNS", "80")
    argv = ARGVS[index]
    assert parse_outcome(parse_args, argv) == parse_outcome(build_parser().parse_args, argv)


def record(overwrite):
    if os.path.exists(PINS) and not overwrite:
        raise SystemExit(f"{PINS} exists; pass --overwrite to rewrite it")
    os.environ["COLUMNS"] = "80"
    lines = ",\n".join(json.dumps(run(argv)) for argv in ARGVS)
    with open(PINS, "w") as fh:
        fh.write(f'{{"cases": [\n{lines}\n]}}\n')
    print(f"{len(ARGVS)} argvs -> {PINS}")


if __name__ == "__main__":
    record("--overwrite" in sys.argv[1:])
