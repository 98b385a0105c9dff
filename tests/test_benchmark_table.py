"""The benchmark's layer table (`perfbench/layers.py`) names weylkit functions
that its traced run wraps; a deletion or rename in weylkit that leaves one of
them dangling breaks the benchmark, so this test fails first.  The table is
read as source and executed in a fresh namespace, so nothing is written
under `perfbench/`."""

import importlib
import os
import sys

LAYERS_PY = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "layers.py"
)


def _layer_table():
    namespace = {}
    with open(LAYERS_PY) as fh:
        exec(compile(fh.read(), LAYERS_PY, "exec"), namespace)
    return namespace


def _resolve(layer, qual):
    target = importlib.import_module(f"weylkit.{layer}")
    for attr in qual.split("."):
        target = getattr(target, attr)
    return target


def test_every_traced_function_resolves_in_weylkit():
    table = _layer_table()
    functions = table["functions"]()
    assert functions
    for layer, qual, _ in functions:
        assert callable(_resolve(layer, qual)), f"weylkit.{layer}.{qual}"
    # the cache candidates are counted on wrapped functions
    assert set(table["CACHE_KEYS"]) <= {name for _, _, name in functions}


def test_the_counted_exception_resolves_in_the_module_of_its_function():
    name, exception = _layer_table()["RAISE_COUNTED"]
    fn = _resolve(*name.split(".", 1))
    counted = getattr(sys.modules[fn.__module__], exception)
    assert isinstance(counted, type) and issubclass(counted, Exception)
