"""Hypothesis properties of the DDAHA product on generated literals:
associativity, distributivity on both sides, and s_a s_a = 1; of the
lowest-terms constructor `_element` against its two-pass formula; and of the
monomial keys: packing, sums, order and the degree cap where a field could
carry."""

from fractions import Fraction
from math import gcd

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from weylkit import ddaha as dd
from weylkit.poly import Poly
from weylkit.root_system import affinize, build_finite
from weylkit.weyl import ExtAffineWeylElement

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


def _element_two_pass(num, den):
    """The lowest-terms form as first written: drop zeros and empty parts in
    one comprehension, then divide by the gcd of den and every numerator."""
    num = {g: p for g, f in num.items() if (p := {e: c for e, c in f.items() if c})}
    k = gcd(den, *(c for f in num.values() for c in f.values()))
    return {g: {e: c // k for e, c in f.items()} for g, f in num.items()}, den // k


# group parts keyed by small ints (_element reads no key), exponent -> int
# coefficient maps that may be empty or hold zeros, scaled so gcds above 1
# are common
parts = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), st.integers(-3, 3), max_size=4
)


@PROPERTY
@given(
    st.dictionaries(st.integers(0, 5), parts, max_size=4),
    st.integers(1, 12),
    st.sampled_from([1, 2, 6]),
)
def test_element_matches_the_two_pass_formula(num, den, scale):
    num = {g: {e: c * scale for e, c in f.items()} for g, f in num.items()}
    x = dd._element(ALGEBRAS["A1"], num, den * scale)
    assert (x.num, x.den) == _element_two_pass(num, den * scale)


# exponent vectors of one rank, 1-8, whose entries fill up to 31 bits, so
# sums of two of them reach both sides of the degree cap 2^FIELD = 2^32
def vectors(min_size, max_size):
    return st.integers(1, 8).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(0, 2**31 - 1), min_size=n, max_size=n).map(tuple),
            min_size=min_size,
            max_size=max_size,
        )
    )


@PROPERTY
@given(vectors(1, 1))
def test_unpack_inverts_pack(vs):
    (e,) = vs
    assert dd._unpack(dd._pack(e), len(e)) == e


@PROPERTY
@given(vectors(2, 2))
def test_key_sum_is_the_monomial_product_below_the_cap(vs):
    a, b = vs
    total = tuple(x + y for x, y in zip(a, b))
    key = dd._pack(a) + dd._pack(b)
    if sum(total) < 2**dd.FIELD:
        assert key == dd._pack(total) < dd._key_limit(len(a))
    else:  # a field may have carried, and the key says so
        assert key >= dd._key_limit(len(a))


@PROPERTY
@given(vectors(0, 12))
def test_key_order_is_degree_then_exponents(vs):
    assert sorted(vs, key=dd._pack) == sorted(vs, key=lambda e: (sum(e), e))


def _monomial(n, exps):
    return Poly(n, frozenset({(exps, Fraction(1))}))


def test_a_product_of_degree_two_to_the_field_raises():
    a1, a2 = ALGEBRAS["A1"], ALGEBRAS["A2"]
    half = 2 ** (dd.FIELD - 1)
    x = a1.polynomial(_monomial(1, (half,)))
    with pytest.raises(dd.PowerTooLarge):
        dd.multiply(x, x)
    # one degree below the cap, every field still holds its exponent
    below = dd.multiply(x, a1.polynomial(_monomial(1, (half - 1,))))
    top = _monomial(1, (2 * half - 1,))
    assert below.terms == {(ExtAffineWeylElement.identity(a1.ambient), top)}
    # the degree reaches the cap, though no exponent does
    x1, x2 = (a2.polynomial(_monomial(2, e)) for e in ((half, 0), (0, half)))
    with pytest.raises(dd.PowerTooLarge):
        dd.multiply(x1, x2)


def test_element_refuses_a_polynomial_of_degree_two_to_the_field(monkeypatch):
    algebra = ALGEBRAS["A2"]
    identity = ExtAffineWeylElement.identity(algebra.ambient)
    s1 = ExtAffineWeylElement.simple(algebra.ambient, 1)
    fine, too_large = _monomial(2, (1, 2)), _monomial(2, (2**dd.FIELD - 1, 1))
    packed, pack = [], dd._pack
    monkeypatch.setattr(dd, "_pack", lambda e: packed.append(e) or pack(e))
    with pytest.raises(dd.PowerTooLarge):
        algebra.element({identity: fine, s1: too_large})
    assert packed == []
    assert algebra.element({identity: fine, s1: fine}).as_dict() == {identity: fine, s1: fine}
