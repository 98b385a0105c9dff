"""Every function, class and method that `src/weylkit` defines is reached by
something other than tests: a reference elsewhere in `src/weylkit`, the
benchmark's layer table or the bindings its selftest requires.  A name that
is public for the paper, an oracle or an input builder, with no caller in the
library, is listed in KEEP with the reason it stays.  So a helper that only
tests reach fails here by name, and a KEEP entry that no longer needs to be
listed fails too.  Dunder methods are reached by Python itself."""

import ast
import collections
import os

from test_benchmark_table import _layer_table

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "weylkit")
SELFTEST_PY = os.path.join(ROOT, "perfbench", "selftest.py")

KEEP = {
    # paper-facing: checked by tests, reached by no command
    "boundary": "the face relation of the Coxeter complex",
    "xi_orbit": "the Xi-orbit of a facet pair",
    "normalizer_pairs": "the normalizer pairs of the relative system",
    "lien_decompose": "the relative decomposition of an element",
    "pseudo_levi_from_subspace": "the graded pseudo-Levi of a relevant subspace",
    "grading_degree": "the Z/m grading itself",
    "eta": "the sign eta(g, t) of a reflection",
    "bruhat_leq": "the Bruhat order",
    # acceptance 9 reads the nilpotent part at a wall point off it
    "action_matrix": "the matrix of a polynomial on a standard module",
    # input builders
    "translation": "builds a translation element from a coweight",
    "element_from_json": "the inverse of the serializer the CLI prints with",
}


def _names(node):
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr


def _definitions_and_references():
    """(file, line, name) of every definition, and how often each name is
    referenced outside the definitions that carry it."""
    defs, refs = [], collections.Counter()
    for fname in sorted(os.listdir(SRC)):
        if not fname.endswith(".py"):
            continue
        with open(os.path.join(SRC, fname)) as fh:
            tree = ast.parse(fh.read(), fname)
        refs.update(_names(tree))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.append((fname, node.lineno, node.name))
                refs[node.name] -= sum(1 for n in _names(node) if n == node.name)
    return defs, refs


def _pinned_by_the_benchmark():
    """The function names of the layer table and the names the selftest
    requires weylkit modules to bind."""
    pinned = {qual.rsplit(".", 1)[-1] for _, qual, _ in _layer_table()["functions"]()}
    with open(SELFTEST_PY) as fh:
        tree = ast.parse(fh.read())
    for node in ast.walk(tree):
        if getattr(node, "name", None) == "test_every_binding_is_wrapped_and_restored":
            pinned |= {
                c.value
                for c in ast.walk(node)
                if isinstance(c, ast.Constant) and str(c.value).isidentifier()
            }
    return pinned


def _unreached():
    defs, refs = _definitions_and_references()
    pinned = _pinned_by_the_benchmark()
    return {
        (fname, line, name)
        for fname, line, name in defs
        if not (name.startswith("__") and name.endswith("__"))
        and refs[name] <= 0
        and name not in pinned
    }


def test_every_definition_is_reached_or_kept():
    orphans = sorted(f"{f}:{line} {name}" for f, line, name in _unreached() if name not in KEEP)
    assert not orphans, f"reached only by tests, and not in KEEP: {orphans}"


def test_every_keep_entry_is_needed():
    stale = sorted(set(KEEP) - {name for _, _, name in _unreached()})
    assert not stale, f"reached or no longer defined, drop from KEEP: {stale}"
