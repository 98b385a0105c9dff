"""Hypothesis properties of the group layer on random elements of affine A2,
C2 and G2: the group axioms, length(g) = |T(g)|, and the exchange property
against reduced_word."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from weylkit.root_system import affinize, build_finite
from weylkit.weyl import (
    ExtAffineWeylElement,
    has_right_descent,
    length,
    reduced_word,
    reflections_T,
)

AMBIENTS = {f"{t}2": affinize(build_finite(t, 2)) for t in ("A", "C", "G")}

# derandomized, so every run checks the same examples; few enough to keep
# the file well under 2 s
PROPERTY = settings(derandomize=True, database=None, max_examples=30, deadline=None)


def from_word(ambient, letters, mu=None):
    """The product of the simple reflections of letters, after a translation
    by the integer coweight mu (so A2 reaches elements of length-0 part pi
    other than the identity)."""
    g = ExtAffineWeylElement.identity(ambient)
    if mu is not None:
        g = ExtAffineWeylElement.translation(ambient, mu)
    for l in letters:
        g = g * ExtAffineWeylElement.simple(ambient, l)
    return g


@st.composite
def elements(draw, ambient):
    """An element of the extended affine Weyl group: a random word of up to
    eight letters, after a translation by a small coweight or none."""
    letters = draw(st.lists(st.sampled_from(sorted(ambient.labels)), max_size=8))
    mu = draw(st.none() | st.tuples(st.integers(-1, 1), st.integers(-1, 1)))
    return from_word(ambient, letters, mu)


@st.composite
def triples(draw):
    ambient = AMBIENTS[draw(st.sampled_from(sorted(AMBIENTS)))]
    return ambient, draw(elements(ambient)), draw(elements(ambient)), draw(elements(ambient))


@PROPERTY
@given(triples())
def test_group_axioms(case):
    ambient, x, y, z = case
    e = ExtAffineWeylElement.identity(ambient)
    assert (x * y) * z == x * (y * z)
    assert e * x == x == x * e
    assert x * x.inverse() == e == x.inverse() * x
    assert (x * y).inverse() == y.inverse() * x.inverse()


@PROPERTY
@given(triples())
def test_length_is_the_number_of_reflections_in_T(case):
    _, x, y, _ = case
    for g in (x, y, x * y):
        assert length(g) == len(reflections_T(g))


@PROPERTY
@given(triples())
def test_exchange_property_against_reduced_word(case):
    """g = pi s_l1 ... s_lq reduced; for every right descent s of g,
    g s = pi s_l1 ... (s_li omitted) ... s_lq for some i."""
    ambient, x, _, _ = case
    rw = reduced_word(x)
    assert rw.evaluate() == x and len(rw.letters) == length(x)
    for l in ambient.labels:
        xs = x * ExtAffineWeylElement.simple(ambient, l)
        if not has_right_descent(x, l):
            assert length(xs) == length(x) + 1
            continue
        assert length(xs) == length(x) - 1
        deletions = (
            from_word(ambient, rw.letters[:i] + rw.letters[i + 1 :]) for i in range(len(rw.letters))
        )
        assert any(rw.pi * d == xs for d in deletions)
