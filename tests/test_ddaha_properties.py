"""Hypothesis properties of the DDAHA product on generated literals:
associativity, distributivity on both sides, and s_a s_a = 1."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from weylkit import ddaha as dd
from weylkit.root_system import affinize, build_finite

ALGEBRAS = {
    f"{t}{n}": dd.build_algebra(
        affinize(build_finite(t, n)), dd.HeckeParameters.make(m, 1, c)
    )
    for t, n, m, c in (
        ("A", 1, 2, {0: 2, 1: 3}),
        ("A", 2, 3, {0: 2, 1: 2, 2: 2}),
        ("C", 2, 4, {0: 2, 1: 3, 2: 4}),
    )
}

# derandomized, so every run checks the same examples; few enough to keep
# the file well under 2 s
PROPERTY = settings(derandomize=True, database=None, max_examples=20, deadline=None)


def literals(algebra):
    """Sums of one to three products of one to three factors: generators,
    coordinate powers x<k>^0..2 and rationals."""
    n = algebra.nvars
    factor = st.one_of(
        st.sampled_from(sorted(algebra.ambient.labels)).map(lambda l: f"s{l}"),
        st.tuples(st.integers(1, n), st.integers(0, 2)).map(lambda t: f"x{t[0]}^{t[1]}"),
        st.fractions(min_value=-3, max_value=3, max_denominator=3).map(lambda q: f"({q})"),
    )
    term = st.lists(factor, min_size=1, max_size=3).map("*".join)
    return st.lists(term, min_size=1, max_size=3).map(" + ".join)


@st.composite
def triples(draw):
    """An algebra and three elements of it, parsed from literals."""
    algebra = ALGEBRAS[draw(st.sampled_from(sorted(ALGEBRAS)))]
    x, y, z = (dd.parse_element(algebra, draw(literals(algebra))) for _ in range(3))
    return algebra, x, y, z


@PROPERTY
@given(triples())
def test_associativity(case):
    _, x, y, z = case
    assert (x * y) * z == x * (y * z)


@PROPERTY
@given(triples())
def test_distributivity(case):
    _, x, y, z = case
    assert x * (y + z) == x * y + x * z
    assert (x + y) * z == x * z + y * z


@PROPERTY
@given(triples(), st.integers(0, 2))
def test_simple_reflection_squares_to_one(case, k):
    algebra, x, _, _ = case
    labels = sorted(algebra.ambient.labels)
    s = algebra.generator(labels[k % len(labels)])
    assert s * s == algebra.one()
    assert (x * s) * s == x
    assert s * (s * x) == x
