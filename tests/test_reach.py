"""Every function, class and method that `src/weylkit` defines is reached by
something other than tests: a reference elsewhere in `src/weylkit`, the
benchmark's layer table or the bindings its selftest requires.  A name that
is public for the paper, an oracle or an input builder, with no caller in the
library, is listed in KEEP with the reason it stays.  So a helper that only
tests reach fails here by name, and a KEEP entry that no longer needs to be
listed fails too.  Dunder methods are reached by Python itself.

A method `Cls.name` is reached only through an attribute reference: `Cls.name`
(or through a subclass that inherits it) reaches only that method, and
`obj.name` on anything that is not a class of the library reaches every method
of that name.  A bare local name reaches no method.
"""

import ast
import collections
import os

from test_benchmark_table import _layer_table

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "weylkit")
SELFTEST_PY = os.path.join(ROOT, "perfbench", "selftest.py")
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)

KEEP = {
    # paper-facing: checked by tests, reached by no command
    "boundary": "the face relation of the Coxeter complex",
    "xi_orbit": "the Xi-orbit of a facet pair",
    "normalizer_pairs": "the normalizer pairs of the relative system",
    "lien_decompose": "the relative decomposition of an element",
    "pseudo_levi_from_subspace": "the graded pseudo-Levi of a relevant subspace",
    "GradedRootDatum.grading_degree": "the Z/m grading itself",
    "eta": "the sign eta(g, t) of a reflection",
    "bruhat_leq": "the Bruhat order",
    # acceptance 9 reads the weights, and the nilpotent part at a wall point,
    # off these; the weights table counts numerators instead
    "StandardModule.action_matrix": "the matrix of a polynomial on a standard module",
    "StandardModule.weight_multiplicities": "the weights of a standard module as values",
    # input builders
    "ExtAffineWeylElement.translation": "builds a translation element from a coweight",
    "element_from_json": "the inverse of the serializer the CLI prints with",
    "DdahaAlgebra.zero": "the zero element, next to one, group and generator",
    "Poly.const": "builds a constant polynomial",
    # the validating constructor of an affine root of the system
    "AffineRootSystem.root": "builds an affine root, checked against the system",
}


def _trees():
    for fname in sorted(os.listdir(SRC)):
        if fname.endswith(".py"):
            with open(os.path.join(SRC, fname)) as fh:
                yield fname, ast.parse(fh.read(), fname)


def _definitions(tree):
    """(node, key) of every definition: `Cls.name` for a method, the bare
    name for anything else."""
    for node in ast.walk(tree):
        for item in ast.iter_child_nodes(node):
            if isinstance(item, FUNCTIONS) and isinstance(node, ast.ClassDef):
                yield item, f"{node.name}.{item.name}"
            elif isinstance(item, (*FUNCTIONS, ast.ClassDef)):
                yield item, item.name


def _class_table(trees):
    """class name -> (base class names, method names) over the library."""
    table = {}
    for _, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases = [b.id for b in node.bases if isinstance(b, ast.Name)]
                methods = {f.name for f in node.body if isinstance(f, FUNCTIONS)}
                table[node.name] = (bases, methods)
    return table


def _owner(classes, cls, name):
    """The class whose method `cls.name` resolves to, or None."""
    if cls not in classes:
        return None
    bases, methods = classes[cls]
    if name in methods:
        return cls
    return next((o for b in bases if (o := _owner(classes, b, name))), None)


def _references(node, classes):
    """The keys that the references inside node reach."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr  # a module-level name read off its module
            value = n.value.id if isinstance(n.value, ast.Name) else None
            if value in classes:
                owner = _owner(classes, value, n.attr)
                if owner is not None:
                    yield f"{owner}.{n.attr}"
            else:
                for cls, (_, methods) in classes.items():
                    if n.attr in methods:
                        yield f"{cls}.{n.attr}"


def _definitions_and_references():
    """(file, line, key) of every definition, and how often each key is
    referenced outside the definitions that carry it."""
    trees = list(_trees())
    classes = _class_table(trees)
    defs, refs = [], collections.Counter()
    for fname, tree in trees:
        refs.update(_references(tree, classes))
        for node, key in _definitions(tree):
            defs.append((fname, node.lineno, key))
            refs[key] -= sum(1 for k in _references(node, classes) if k == key)
    return defs, refs


def _pinned_by_the_benchmark():
    """The function names of the layer table and the names the selftest
    requires weylkit modules to bind."""
    pinned = {qual for _, qual, _ in _layer_table()["functions"]()}
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
        (fname, line, key)
        for fname, line, key in defs
        if not ((name := key.rsplit(".", 1)[-1]).startswith("__") and name.endswith("__"))
        and refs[key] <= 0
        and key not in pinned
    }


def test_every_definition_is_reached_or_kept():
    orphans = sorted(f"{f}:{line} {name}" for f, line, name in _unreached() if name not in KEEP)
    assert not orphans, f"reached only by tests, and not in KEEP: {orphans}"


def test_every_keep_entry_is_needed():
    stale = sorted(set(KEEP) - {name for _, _, name in _unreached()})
    assert not stale, f"reached or no longer defined, drop from KEEP: {stale}"
