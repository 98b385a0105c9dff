import random
from fractions import Fraction

import pytest

from weylkit.poly import DivisionNotExact, Poly, divide_linear, weyl_action
from weylkit.root_system import affinize, build_finite
from weylkit.weyl import ExtAffineWeylElement


def test_basic_arithmetic():
    x = Poly.variable(2, 0)
    y = Poly.variable(2, 1)
    f = (x + y) * (x - y)
    assert f == x * x - y * y
    assert f.degree() == 2
    assert Poly.zero(2).degree() == -1
    assert (f - f).is_zero()
    assert f.scale(0).is_zero()


def test_affine_and_eval():
    f = Poly.affine((Fraction(2), Fraction(-1)), Fraction(1, 2))
    assert f.evaluate((Fraction(1), Fraction(3))) == Fraction(-1, 2)
    assert f.as_dict()[(0, 0)] == Fraction(1, 2)
    assert f.degree() == 1


def test_substitute():
    x = Poly.variable(1, 0)
    f = x * x + x
    g = f.substitute({0: x + Poly.const(1, 1)})
    assert g.evaluate((Fraction(2),)) == f.evaluate((Fraction(3),))


def _random_poly(rng, nvars, terms, max_exp):
    out = Poly.zero(nvars)
    for _ in range(terms):
        exps = tuple(rng.randrange(max_exp + 1) for _ in range(nvars))
        coeff = Fraction(rng.randrange(1, 10) * rng.choice((-1, 1)), rng.randrange(1, 5))
        out = out + Poly(nvars, frozenset({(exps, coeff)}))
    return out


def _substitute_by_repeated_products(f, mapping):
    """The reference: each term as its coefficient times every variable's
    image multiplied in once per unit of its exponent, summed with +."""
    out = Poly.zero(f.nvars)
    for exps, c in f.terms:
        term = Poly.const(f.nvars, c)
        for i, e in enumerate(exps):
            for _ in range(e):
                term = term * mapping.get(i, Poly.variable(f.nvars, i))
        out = out + term
    return out


@pytest.mark.parametrize("seed", range(9))
def test_substitute_matches_repeated_products(seed):
    # one to all variables mapped (to forms that may use them), the rest kept
    rng = random.Random(seed)
    nvars = 1 + seed % 3
    f = _random_poly(rng, nvars, 6, 5)
    mapped = rng.sample(range(nvars), 1 + rng.randrange(nvars))
    mapping = {i: _random_poly(rng, nvars, 3, 1) for i in mapped}
    assert f.substitute(mapping) == _substitute_by_repeated_products(f, mapping)


def test_weyl_action_a1():
    amb = affinize(build_finite("A", 1))
    x = Poly.variable(1, 0)
    s1 = ExtAffineWeylElement.simple(amb, 1)
    s0 = ExtAffineWeylElement.simple(amb, 0)
    assert weyl_action(s1, x) == x.scale(-1)
    # [DERIVED] s0 reflects across the wall 1 - x1 = 0
    assert weyl_action(s0, x) == Poly.const(1, 2) - x
    # action is contravariant on points: (g f)(p) = f(g^{-1} p)
    p = (Fraction(1, 3),)
    assert weyl_action(s0, x * x).evaluate(p) == (x * x).evaluate(
        s0.inverse().act_point(p)
    )


def test_weyl_action_is_homomorphism():
    amb = affinize(build_finite("A", 2))
    rng = random.Random(2)
    labels = list(amb.labels)
    g = ExtAffineWeylElement.identity(amb)
    for _ in range(4):
        g = g * ExtAffineWeylElement.simple(amb, rng.choice(labels))
    h = ExtAffineWeylElement.simple(amb, 0) * ExtAffineWeylElement.simple(amb, 2)
    f = Poly.variable(2, 0) * Poly.variable(2, 1) + Poly.variable(2, 0)
    assert weyl_action(g * h, f) == weyl_action(g, weyl_action(h, f))


def test_divide_linear_exact():
    x = Poly.variable(2, 0)
    y = Poly.variable(2, 1)
    a = x - y + Poly.const(2, 3)
    f = a * (x * x + y.scale(Fraction(1, 2)) + Poly.const(2, -7))
    q = divide_linear(f, a)
    assert q * a == f


def test_divide_linear_remainder():
    x = Poly.variable(1, 0)
    with pytest.raises(DivisionNotExact):
        divide_linear(x * x + Poly.const(1, 1), x)
    with pytest.raises(DivisionNotExact):
        divide_linear(x, Poly.const(1, 2))  # constant divisor


def test_divide_zero():
    x = Poly.variable(1, 0)
    assert divide_linear(Poly.zero(1), x).is_zero()
