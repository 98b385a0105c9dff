import random
from fractions import Fraction
from itertools import product
from math import gcd

import pytest

from weylkit import ddaha as dd
from weylkit.coxcomplex import stabilizer_group
from weylkit.poly import Poly, divide_linear, weyl_action
from weylkit.root_system import affinize, build_finite, finite_coxeter
from weylkit.weyl import ExtAffineWeylElement, enumerate_ball, length, reduced_word


@pytest.fixture(scope="module")
def alg_a1():
    amb = affinize(build_finite("A", 1))
    return dd.build_algebra(amb, dd.HeckeParameters.make(2, 1, {0: 2, 1: 2}))


@pytest.fixture(scope="module")
def alg_a2():
    amb = affinize(build_finite("A", 2))
    return dd.build_algebra(amb, dd.HeckeParameters.make(3, 1, {0: 2, 1: 2, 2: 2}))


def smash_multiply(algebra, x, y):
    """Oracle for h = 0: the plain smash product W x C[E]."""
    out = {}
    for g, f in x.terms:
        for w, q in y.terms:
            key = g * w
            moved = weyl_action(w.inverse(), f)
            acc = out.get(key, Poly.zero(algebra.nvars)) + moved * q
            out[key] = acc
    return algebra.element(out)


def random_element(algebra, rng, ball, support=2, degree=2):
    out = algebra.zero()
    for _ in range(rng.randrange(1, support + 1)):
        g = rng.choice(ball)
        out = out + algebra.element(
            {g: dd.random_polynomial(rng, algebra.nvars, degree=degree)}
        )
    return out


def test_parameters(alg_a1):
    # [PAPER] h_a = (d/2m) c_a with c = 2, m = 2, d = 1
    assert alg_a1.params.h(0) == Fraction(1, 2)
    assert alg_a1.params.h(1) == Fraction(1, 2)
    amb = alg_a1.ambient
    neg = dd.build_algebra(amb, dd.HeckeParameters.make(2, -1, {0: 2, 1: 2}))
    assert neg.params.h(1) == Fraction(-1, 2)


def test_parameter_validation():
    amb = affinize(build_finite("A", 1))
    with pytest.raises(dd.InvalidParameters):
        dd.build_algebra(amb, dd.HeckeParameters.make(2, 0, {0: 2, 1: 2}))
    with pytest.raises(dd.InvalidParameters):
        dd.build_algebra(amb, dd.HeckeParameters.make(2, 1, {0: 1, 1: 2}))
    with pytest.raises(dd.InvalidParameters):
        dd.build_algebra(amb, dd.HeckeParameters.make(2, 1, {1: 2}))
    # unsafe flag lifts the c >= 2 restriction
    dd.build_algebra(amb, dd.HeckeParameters.make(2, 1, {0: 0, 1: 0}, unsafe=True))
    # a label that is not an int is refused, not truncated to 1
    for bad in (1.5, True, "1"):
        with pytest.raises(dd.InvalidParameters, match="must be integers"):
            dd.HeckeParameters.make(2, 1, {0: 2, bad: 2})
    # odd-order braid pair in finite A2 forces equal parameters
    a2 = affinize(build_finite("A", 2))
    with pytest.raises(dd.InvalidParameters):
        dd.build_algebra(a2, dd.HeckeParameters.make(3, 1, {0: 2, 1: 2, 2: 4}))


def test_cross_multiply_cases(alg_a1):
    x = Poly.variable(1, 0)
    # symmetric polynomial commutes
    sym = x * x
    out = dd.cross_multiply(alg_a1, 1, sym)
    s = ExtAffineWeylElement.simple(alg_a1.ambient, 1)
    assert out == alg_a1.element({s: sym})
    # f = a: s tensor (-a) + e tensor 2 h_a
    out2 = dd.cross_multiply(alg_a1, 1, x)
    expected = alg_a1.element(
        {s: x.scale(-1), ExtAffineWeylElement.identity(alg_a1.ambient): Poly.const(1, 1)}
    )
    assert out2 == expected


def whole_polynomial_cross(algebra, label, f):
    """Oracle: s tensor s_a(f) + e tensor h_a (f - s_a(f)) / a, computed on
    all of f at once."""
    s = ExtAffineWeylElement.simple(algebra.ambient, label)
    sf = weyl_action(s, f)
    demazure = divide_linear(f - sf, algebra.wall_poly(label))
    e = ExtAffineWeylElement.identity(algebra.ambient)
    return algebra.element({s: sf, e: demazure.scale(algebra.params.h(label))})


# (type, rank, m, c): c differs between labels wherever no odd braid
# relation ties them, so a wrong label's h_a would show
CROSS_CASES = (
    ("A", 1, 2, {0: 2, 1: 3}),
    ("A", 2, 3, {0: 2, 1: 2, 2: 2}),
    ("C", 2, 4, {0: 2, 1: 3, 2: 4}),
    ("G", 2, 6, {0: 3, 1: 2, 2: 3}),
)


@pytest.mark.parametrize("type_, rank, m, c", CROSS_CASES)
def test_cross_multiply_matches_whole_polynomial_formula(type_, rank, m, c):
    amb = affinize(build_finite(type_, rank))
    alg = dd.build_algebra(amb, dd.HeckeParameters.make(m, 1, c))
    if type_ in ("C", "G"):
        # the wall of a_0 has a coefficient -2, so the division is not by a
        # monic linear form
        assert Fraction(-2) in dict(alg.wall_poly(0).terms).values()
    rng = random.Random(f"{type_}{rank}")
    for label in amb.labels:
        for _ in range(12):
            f = dd.random_polynomial(rng, alg.nvars, degree=4, support=4)
            expected = whole_polynomial_cross(alg, label, f)
            # the first call fills the monomial images, the second reads them
            assert dd.cross_multiply(alg, label, f) == expected
            assert dd.cross_multiply(alg, label, f) == expected


def represent(algebra, x, p):
    """Oracle: x acting on the polynomial p in the polynomial representation
    H tensor_{CW} triv = C[E] (Lusztig 1989): a polynomial acts by
    multiplication and s_a by s_a + h_a Delta_a, Delta_a f = (f - s_a f) / a,
    so g tensor f multiplies by f, then applies rho(s_l1) ... rho(s_lk) for a
    reduced word l1 ... lk of g, the last letter first.  Fraction Polys
    through `weyl_action` and `divide_linear` only."""
    out = Poly.zero(algebra.nvars)
    for g, f in x.terms:
        q = f * p
        for label in reversed(reduced_word(g).letters):
            s = ExtAffineWeylElement.simple(algebra.ambient, label)
            sq = weyl_action(s, q)
            q = sq + divide_linear(q - sq, algebra.wall_poly(label)).scale(algebra.params.h(label))
        out = out + q
    return out


# (type, rank, m, c) of the algebras on which multiply is checked against
# the polynomial representation
REPRESENTATION_CASES = (
    ("A", 1, 2, {0: 2, 1: 3}),
    ("A", 2, 3, {0: 2, 1: 2, 2: 2}),
    ("C", 2, 4, {0: 2, 1: 3, 2: 4}),
    ("B", 3, 2, {0: 2, 1: 2, 2: 2, 3: 3}),
    ("G", 2, 6, {0: 2, 1: 3, 2: 2}),
)


@pytest.mark.parametrize("type_, rank, m, c", REPRESENTATION_CASES)
def test_multiply_is_the_product_of_the_polynomial_representation(type_, rank, m, c):
    # the operands are built directly over the radius-2 ball, not parsed,
    # so no literal runs through the step before multiply does
    alg = dd.build_algebra(affinize(build_finite(type_, rank)), dd.HeckeParameters.make(m, 1, c))
    rng = random.Random(f"represent{type_}{rank}")
    ball = sorted(enumerate_ball(alg.ambient, 2), key=lambda g: (length(g), g.mu, g.matrix))
    for _ in range(6):
        x, y = (random_element(alg, rng, ball, support=2, degree=1) for _ in range(2))
        p = dd.random_polynomial(rng, alg.nvars, degree=2)
        assert represent(alg, dd.multiply(x, y), p) == represent(alg, x, represent(alg, y, p))


def _push(algebra, f, letters):
    """Oracle: the normal form of f * s_l1 * ... * s_lq as a map g -> Poly,
    by recursion on the word, crossing a whole polynomial at each letter."""
    if f.is_zero():
        return {}
    if not letters:
        return {ExtAffineWeylElement.identity(algebra.ambient): f}
    out = {}
    for g, p in whole_polynomial_cross(algebra, letters[0], f).terms:
        for w, q in _push(algebra, p, letters[1:]).items():
            key = g * w
            out[key] = out.get(key, Poly.zero(algebra.nvars)) + q
    return out


def recursive_multiply(x, y):
    """Oracle: x * y pushed term by term, each (g f)(w q) as g (f T_w) q."""
    algebra = x.algebra
    out = {}
    for g, f in x.terms:
        for w, q in y.terms:
            for u, p in _push(algebra, f, reduced_word(w).letters).items():
                key = g * u
                out[key] = out.get(key, Poly.zero(algebra.nvars)) + p * q
    return algebra.element(out)


def case_algebra(type_, rank, m, c, kind):
    """The algebra of a CROSS_CASES row with c as given ("integer"), zero
    ("zero", so h = 0), or scaled by 5/3 ("rational", so the denominators
    hd_a of the h_a differ between labels wherever c does)."""
    amb = affinize(build_finite(type_, rank))
    scale = {"integer": 1, "zero": 0, "rational": Fraction(5, 3)}[kind]
    c = {l: v * scale for l, v in c.items()}
    return dd.build_algebra(amb, dd.HeckeParameters.make(m, 1, c, unsafe=kind != "integer"))


@pytest.mark.parametrize("h_zero", [False, True])
@pytest.mark.parametrize("type_, rank, m, c", CROSS_CASES)
def test_multiply_matches_recursive_push(type_, rank, m, c, h_zero):
    rng = random.Random(f"{type_}{rank}{h_zero}")
    for kind in ("zero",) if h_zero else ("integer", "rational"):
        alg = case_algebra(type_, rank, m, c, kind)
        ball = sorted(enumerate_ball(alg.ambient, 2), key=lambda g: (length(g), g.mu, g.matrix))
        for _ in range(8):
            x = random_element(alg, rng, ball, support=3, degree=4)
            y = random_element(alg, rng, ball, support=3, degree=4)
            assert dd.multiply(x, y) == recursive_multiply(x, y)


def random_literal(algebra, rng):
    """A literal with its oracle value: up to three signed terms, each a
    product of one to five factors in any order (generators, x<k> with or
    without a power, x<k>^0, and rationals that may be zero, integers or
    negative), folded left to right through multiply one factor at a time,
    as the parser did before it worked on numerators."""
    labels = sorted(algebra.ambient.labels)
    n = algebra.nvars
    text, value = [], algebra.zero()
    for k in range(rng.randint(1, 3)):
        sign = rng.choice((1, -1))
        if k:
            text.append(" - " if sign < 0 else " + ")
        elif sign < 0:
            text.append("-")
        tokens, term = [], None
        for _ in range(rng.randint(1, 5)):
            kind = rng.choice("ssxc")
            if kind == "s":
                label = rng.choice(labels)
                token, factor = f"s{label}", algebra.generator(label)
            elif kind == "x":
                i, power = rng.randrange(n), rng.randint(0, 3)
                token = f"x{i + 1}" if power == 1 and rng.random() < 0.5 else f"x{i + 1}^{power}"
                exps = tuple(power if j == i else 0 for j in range(n))
                factor = algebra.polynomial(Poly(n, frozenset({(exps, Fraction(1))})))
            else:
                q = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                bare = q.denominator == 1 and q >= 0 and rng.random() < 0.5
                token = str(q) if bare else f"({q})"
                factor = algebra.polynomial(Poly.const(n, q))
            tokens.append(token)
            term = factor if term is None else dd.multiply(term, factor)
        text.append("*".join(tokens))
        value = value + (term if sign > 0 else term.scale(-1))
    return "".join(text), value


@pytest.mark.parametrize("kind", ["integer", "zero", "rational"])
@pytest.mark.parametrize("type_, rank, m, c", CROSS_CASES)
def test_parse_element_matches_factor_by_factor_fold(type_, rank, m, c, kind):
    alg = case_algebra(type_, rank, m, c, kind)
    if kind == "rational" and (type_, rank) != ("A", 2):
        assert len(set(alg._hd.values())) > 1
    rng = random.Random(f"{type_}{rank}{kind}")
    for _ in range(15):
        text, expected = random_literal(alg, rng)
        assert dd.parse_element(alg, text) == expected, text


def test_algebra_requires_its_parameters(alg_a1):
    with pytest.raises(TypeError, match="params"):
        dd.DdahaAlgebra(alg_a1.ambient)


def assert_lowest_terms(x):
    """x = num / den in the normal form: den > 0, no zero coefficient, no
    empty group part, and gcd 1 of den and every numerator."""
    assert type(x.den) is int and x.den > 0
    values = [c for f in x.num.values() for c in f.values()]
    assert all(type(c) is int and c for c in values)
    assert all(x.num.values())
    assert gcd(x.den, *values) == 1


def fraction_terms(x):
    """Oracle for the terms view: each group part summed monomial by
    monomial, each key decoded and each group id read off the intern table,
    as Polys with coefficient Fraction(c) / den."""
    n = x.algebra.nvars
    out = set()
    for g, f in x.num.items():
        p = Poly.zero(n)
        for e, c in f.items():
            p = p + Poly(n, frozenset({(dd._unpack(e, n), Fraction(c) / x.den)}))
        out.add((x.algebra._elts[g], p))
    return frozenset(out)


@pytest.mark.parametrize("kind", ["integer", "zero", "rational"])
@pytest.mark.parametrize("type_, rank, m, c", CROSS_CASES)
def test_every_constructor_returns_the_lowest_terms_form(type_, rank, m, c, kind):
    alg = case_algebra(type_, rank, m, c, kind)
    rng = random.Random(f"normal{type_}{rank}{kind}")
    ball = sorted(enumerate_ball(alg.ambient, 2), key=lambda g: (length(g), g.mu, g.matrix))
    built = [alg.zero(), alg.one(), alg.generator(0), alg.group(ball[-1])]
    for _ in range(6):
        x = dd.parse_element(alg, random_literal(alg, rng)[0])
        y = random_element(alg, rng, ball, support=3, degree=3)
        q = Fraction(rng.randint(-4, 4), rng.randint(1, 6))
        f = dd.random_polynomial(rng, alg.nvars, degree=3)
        built += [x, y, x * y, y * x, x + y, x - y, x - x, y.scale(q), y.scale(0)]
        built += [alg.polynomial(f), alg.element({ball[1]: f, ball[2]: f - f})]
    for x in built:
        assert_lowest_terms(x)
        assert x.terms == fraction_terms(x)
        assert x.as_dict() == dict(fraction_terms(x))
    assert alg.zero().num == {} and alg.zero().den == 1


@pytest.mark.parametrize("kind", ["integer", "rational"])
def test_parsed_and_polynomial_built_elements_are_equal_and_hash_equal(kind):
    alg = case_algebra("C", 2, 4, {0: 2, 1: 3, 2: 4}, kind)
    amb, n = alg.ambient, alg.nvars
    e = ExtAffineWeylElement.identity(amb)
    s1, s2 = (ExtAffineWeylElement.simple(amb, l) for l in (1, 2))
    x1, x2 = Poly.variable(n, 0), Poly.variable(n, 1)
    cases = [
        # s1*s1 runs the step, so its denominator hd_1 must cancel
        ("(1/2)*s1*s1", {e: Poly.const(n, Fraction(1, 2))}),
        ("(2/3)*x1 + (1/3)*x1", {e: x1}),
        ("(6/4)*s1*x2^2 - (1/2)*s1*x2^2", {s1: x2 * x2}),
        ("s1*x1 - s1*x1", {}),
        ("s1*s1*x1", {e: x1}),
        # leading rationals, then a generator that starts the term without a step
        ("(0)*s1*x1 + 2*(-3/4)*s1*s2", {s1 * s2: Poly.const(n, Fraction(-3, 2))}),
        ("(3/5)*s1 + (1/10)*x1*x2", {
            s1: Poly.const(n, Fraction(3, 5)),
            e: (x1 * x2).scale(Fraction(1, 10)),
        }),
        # a generator-only term whose word cancels, read off the product table
        ("(3/2)*s1*s2*s2*s1", {e: Poly.const(n, Fraction(3, 2))}),
        # x1^0 leaves the monomial constant, so the generators need no step
        ("x1^0*s1*s2", {s1 * s2: Poly.const(n, 1)}),
        # a generator after a coordinate runs the step, then x2^2 shifts its terms
        ("x1*s1*x2^2", {g: p * x2 * x2 for g, p in whole_polynomial_cross(alg, 1, x1).terms}),
        # rationals between the generators and coordinates of one monomial
        ("s1*(2/3)*x1*(-3)*x2", {s1: (x1 * x2).scale(-2)}),
    ]
    rng = random.Random(f"routes{kind}")
    ball = sorted(enumerate_ball(amb, 2), key=lambda g: (length(g), g.mu, g.matrix))
    for _ in range(10):
        x = random_element(alg, rng, ball, support=3, degree=3)
        cases.append((dd.format_element(x), x.as_dict()))
    for text, mapping in cases:
        parsed, built = dd.parse_element(alg, text), alg.element(mapping)
        assert parsed == built, text
        assert hash(parsed) == hash(built), text
        assert (parsed.num, parsed.den) == (built.num, built.den), text


def test_degree_cap_counts_the_written_powers_of_a_term(alg_a1):
    # the step keeps the top degree, so a term's degree is the sum of its
    # powers; a zero coefficient, which the step drops, does not hide it
    for text in ("(0)*s0*x1^70", "(0)*s0*s1*x1^70", "0*x1*s0*x1^70", "x1^40*s0*x1^25"):
        with pytest.raises(dd.PowerTooLarge, match="exceeds the cap of 64"):
            dd.parse_element(alg_a1, text)
    x40, x24 = (alg_a1.polynomial(Poly(1, frozenset({((k,), Fraction(1))}))) for k in (40, 24))
    at_cap = dd.parse_element(alg_a1, "x1^40*s0*x1^24")
    assert at_cap == x40 * alg_a1.generator(0) * x24
    assert max(sum(dd._unpack(e, 1)) for f in at_cap.num.values() for e in f) == 64
    assert dd.parse_element(alg_a1, "(0)*s0*x1^64") == alg_a1.zero()
    assert dd.parse_element(alg_a1, "x1*(0)*s0") == alg_a1.zero()


# the systems whose coordinate forms are checked against the division route
FORM_SYSTEMS = (
    [("A", r) for r in range(1, 6)]
    + [(t, r) for t in "BC" for r in range(2, 6)]
    + [("D", 4), ("D", 5), ("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
    + [("BC", r) for r in range(1, 5)]
)


@pytest.mark.parametrize("affine", [True, False], ids=["affine", "finite"])
@pytest.mark.parametrize("type_, rank", FORM_SYSTEMS)
def test_coordinate_forms_match_exact_division(type_, rank, affine):
    finite = build_finite(type_, rank)
    amb = affinize(finite) if affine else finite_coxeter(finite)
    alg = dd.build_algebra(amb, dd.HeckeParameters.make(2, 1, {l: 2 for l in amb.labels}))
    assert set(alg._forms) == set(amb.labels)
    for label in amb.labels:
        s = ExtAffineWeylElement.simple(amb, label)
        for i, (form, k) in enumerate(alg._forms[label]):
            x = Poly.variable(rank, i)
            sx = weyl_action(s, x)
            assert Poly(rank, frozenset((dd._unpack(e, rank), Fraction(c)) for e, c in form)) == sx
            assert divide_linear(x - sx, alg.wall_poly(label)) == Poly.const(rank, k)
            assert type(k) is int and all(type(c) is int for _, c in form)


def division_images(algebra, label, exps):
    """Oracle: the images hd_a s_a(x^e) and hn_a (x^e - s_a(x^e)) / a of the
    whole monomial x^e, by Fraction substitution and exact division, as
    dicts exponents -> integer."""
    x = Poly(algebra.nvars, frozenset({(exps, Fraction(1))}))
    sx = weyl_action(ExtAffineWeylElement.simple(algebra.ambient, label), x)
    quotient = divide_linear(x - sx, algebra.wall_poly(label))
    h = algebra.params.h(label)
    images = (sx.scale(h.denominator), quotient.scale(h.numerator))
    assert all(c.denominator == 1 for image in images for _, c in image.terms)
    return tuple({e: c.numerator for e, c in image.terms} for image in images)


# (type, rank, m, d, c, largest degree) of the algebras whose monomial
# images are checked against division; the last row has c and so h_a
# = (d / 2m) c_a differ in numerator and denominator from label to label
IMAGE_CASES = (
    ("A", 1, 2, 1, {0: 2, 1: 3}, 8),
    ("A", 2, 3, 1, {0: 2, 1: 2, 2: 2}, 8),
    ("C", 2, 4, 1, {0: 2, 1: 3, 2: 4}, 8),
    ("G", 2, 6, 1, {0: 3, 1: 2, 2: 3}, 8),
    ("B", 3, 2, 1, {0: 2, 1: 2, 2: 2, 3: 2}, 5),
    ("C", 3, 2, 1, {0: 2, 1: 2, 2: 2, 3: 2}, 5),
    ("C", 2, 4, 3, {0: 2, 1: 3, 2: 4}, 8),
)


@pytest.mark.parametrize("type_, rank, m, d, c, degree", IMAGE_CASES)
def test_monomial_images_match_exact_division(type_, rank, m, d, c, degree):
    amb = affinize(build_finite(type_, rank))
    alg = dd.build_algebra(amb, dd.HeckeParameters.make(m, d, c))
    monomials = [e for e in product(range(degree + 1), repeat=rank) if sum(e) <= degree]
    # highest degree first, so most images are read from the table filled
    # on the way down to x^0
    monomials.sort(key=lambda e: (-sum(e), e))
    for label in amb.labels:
        for exps in monomials:
            images = dd._monomial_images(alg, label, dd._pack(exps))
            images = tuple({dd._unpack(e, rank): c for e, c in image} for image in images)
            assert images == division_images(alg, label, exps)
    assert set(alg._images) == {(label, dd._pack(e)) for label in amb.labels for e in monomials}
    if d == 3:
        assert {l: (alg.params.h(l).numerator, alg._hd[l]) for l in amb.labels} == {
            0: (3, 4), 1: (9, 8), 2: (3, 2)
        }


def test_sum_and_difference_of_an_element_with_itself(alg_a2):
    rng = random.Random(51)
    ball = sorted(
        enumerate_ball(alg_a2.ambient, 2), key=lambda g: (length(g), g.mu, g.matrix)
    )
    for _ in range(10):
        x = random_element(alg_a2, rng, ball, support=3, degree=3)
        assert x + x == x.scale(2)
        assert x - x == alg_a2.zero()


def test_cross_multiply_demazure_part_vanishes_at_h_zero():
    amb = affinize(build_finite("C", 2))
    alg0 = dd.build_algebra(
        amb, dd.HeckeParameters.make(4, 1, {0: 0, 1: 0, 2: 0}, unsafe=True)
    )
    rng = random.Random(7)
    e = ExtAffineWeylElement.identity(amb)
    for label in amb.labels:
        s = ExtAffineWeylElement.simple(amb, label)
        for _ in range(8):
            f = dd.random_polynomial(rng, alg0.nvars, degree=4, support=4)
            out = dd.cross_multiply(alg0, label, f).as_dict()
            assert e not in out
            assert out.get(s, Poly.zero(alg0.nvars)) == weyl_action(s, f)
            assert dd.cross_multiply(alg0, label, f) == whole_polynomial_cross(alg0, label, f)


def test_word_cache_matches_reduced_word(alg_a2):
    ball = enumerate_ball(alg_a2.ambient, 3)
    for g in ball:
        assert alg_a2._word(g) == reduced_word(g).letters
    for g in ball:  # read back from the cache, kept under the id of g
        assert alg_a2._word(g) == reduced_word(g).letters
        assert alg_a2._words[alg_a2._ids[g]] == reduced_word(g).letters


# the algebras of the ddaha_assoc benchmark: (type, rank, m), every c = 2
TABLE_CASES = [("A", 1, 2), ("A", 2, 3), ("C", 2, 4)]


def _table_algebra(type_, rank, m):
    amb = affinize(build_finite(type_, rank))
    return dd.build_algebra(amb, dd.HeckeParameters.make(m, 1, {l: 2 for l in amb.labels}))


def _random_triples(alg, seed, count):
    rng = random.Random(seed)
    ball = sorted(enumerate_ball(alg.ambient, 2), key=lambda g: (length(g), g.mu, g.matrix))
    return [tuple(random_element(alg, rng, ball) for _ in range(3)) for _ in range(count)]


@pytest.mark.parametrize("type_, rank, m", TABLE_CASES)
def test_product_table_holds_the_group_products(type_, rank, m):
    alg = _table_algebra(type_, rank, m)
    for x, y, z in _random_triples(alg, 100 * rank + m, 6):
        assert dd.multiply(dd.multiply(x, y), z) == dd.multiply(x, dd.multiply(y, z))
    # the table of each label maps the id of g to the id of g * s_label
    assert any(alg._products.values())
    for label, table in alg._products.items():
        for g, gs in table.items():
            assert alg._elts[gs] == alg._elts[g] * ExtAffineWeylElement.simple(alg.ambient, label)


@pytest.mark.parametrize("type_, rank, m", TABLE_CASES)
def test_repeated_multiply_forms_no_group_product(type_, rank, m, monkeypatch):
    alg = _table_algebra(type_, rank, m)
    calls = []
    kernel = dd.mul_simple

    def counting_kernel(g, label):
        calls.append(1)
        return kernel(g, label)

    pairs = [(x, dd.multiply(y, z)) for x, y, z in _random_triples(alg, 200 * rank + m, 4)]
    monkeypatch.setattr(dd, "mul_simple", counting_kernel)
    first = [dd.multiply(x, yz) for x, yz in pairs]
    assert calls  # the first products fill the table
    calls.clear()
    assert [dd.multiply(x, yz) for x, yz in pairs] == first
    assert not calls


def test_length_zero_part_raises_on_every_call():
    amb = affinize(build_finite("A", 1))
    alg = dd.build_algebra(amb, dd.HeckeParameters.make(2, 1, {0: 2, 1: 2}))
    # translation by the fundamental coweight: pi * s_1 with pi != e
    t = ExtAffineWeylElement.translation(amb, (1,))
    assert not reduced_word(t).pi.is_identity()
    x = alg.group(t)
    for _ in range(2):
        with pytest.raises(dd.NotInGroupSupport):
            dd.multiply(alg.one(), x)
    assert alg._ids[t] not in alg._words
    assert all(g != alg._ids[t] for table in alg._products.values() for g in table)


# __hash__ and __eq__ calls of ExtAffineWeylElement in the counted round of
# test_warm_products_hash_and_compare_no_group_element when group parts were
# keyed by the elements themselves; __eq__ was called 769 times
PARENT_HASHES = 5052


def test_warm_products_hash_and_compare_no_group_element(monkeypatch):
    # group parts are ids, so once the tables are filled, parsing a triple,
    # both of its products and the printed normal form compare no group
    # element and hash almost none
    rounds = []
    for type_, rank, m in TABLE_CASES:
        alg = _table_algebra(type_, rank, m)
        triples = _random_triples(alg, 300 * rank + m, 8)
        rounds.append((alg, [tuple(map(dd.format_element, t)) for t in triples]))

    def products_round():
        for alg, texts in rounds:
            for triple in texts:
                x, y, z = (dd.parse_element(alg, text) for text in triple)
                left = dd.multiply(dd.multiply(x, y), z)
                assert left == dd.multiply(x, dd.multiply(y, z))
                dd.format_element(left)

    products_round()  # fills the tables
    counts = {"__hash__": 0, "__eq__": 0}
    for name in counts:
        method = getattr(ExtAffineWeylElement, name)

        def counted(*args, name=name, method=method):
            counts[name] += 1
            return method(*args)

        monkeypatch.setattr(ExtAffineWeylElement, name, counted)
    products_round()
    assert counts["__eq__"] == 0, counts
    assert counts["__hash__"] < PARENT_HASHES / 10, counts


def test_group_ids_agree_between_algebras_over_one_system(monkeypatch):
    # the intern table is kept per ambient system, so two algebras over one
    # system, with different c, give a group element one id whichever of
    # them interned it first, and their elements add and multiply as their
    # terms do, with equal fields but unequal as elements of two algebras;
    # over two systems + and multiply refuse
    amb = affinize(build_finite("C", 2))
    monkeypatch.delattr(amb, "_ddaha_group_ids", raising=False)  # an empty table
    first = dd.build_algebra(amb, dd.HeckeParameters.make(4, 1, {0: 2, 1: 3, 2: 4}))
    second = dd.build_algebra(amb, dd.HeckeParameters.make(4, 1, {0: 4, 1: 2, 2: 3}))
    ball = sorted(enumerate_ball(amb, 2), key=lambda g: (length(g), g.mu, g.matrix))
    for g in ball:
        first.group(g)
    for g in reversed(ball):
        second.group(g)
    assert [first.group(g).num for g in ball] == [second.group(g).num for g in ball]
    rng = random.Random(61)
    n = first.nvars
    for _ in range(10):
        x = random_element(first, rng, ball, support=3, degree=2)
        y = random_element(second, rng, ball, support=3, degree=2)
        # a sum lies in its left summand's algebra
        for sign, z, algebra in ((1, x + y, first), (-1, x - y, first), (1, y + x, second)):
            terms = dict(x.as_dict())
            for g, p in y.as_dict().items():
                terms[g] = terms.get(g, Poly.zero(n)) + p.scale(sign)
            assert z == algebra.element(terms)
        copy = second.element(x.as_dict())
        assert (copy.num, copy.den) == (x.num, x.den) and x != copy and copy != x
        # the product takes the left factor's parameters, whatever algebra
        # the right factor was built in
        assert dd.multiply(x, y) == dd.multiply(x, first.element(y.as_dict()))
        assert dd.multiply(y, x) == dd.multiply(y, second.element(x.as_dict()))
    other = _table_algebra("A", 2, 3)
    x, y = first.generator(1), other.generator(1)
    for combine in (lambda: x + y, lambda: y - x, lambda: x * y, lambda: dd.multiply(y, x)):
        with pytest.raises(ValueError, match="two different ambient systems"):
            combine()


def test_algebras_and_elements_over_two_systems_are_unequal():
    # one parameter set fits affine A2 and C2 (labels 0, 1, 2): the algebras
    # differ by their ambient, and so do their elements, whose group part
    # ids mean different elements of the two systems
    params = dd.HeckeParameters.make(2, 1, {0: 2, 1: 2, 2: 2})
    a2 = dd.build_algebra(affinize(build_finite("A", 2)), params)
    c2 = dd.build_algebra(affinize(build_finite("C", 2)), params)
    assert a2 != c2 and not a2 == c2 and len({a2, c2}) == 2
    x, y = dd.parse_element(a2, "s1"), dd.parse_element(c2, "s1")
    assert (x.num, x.den) == (y.num, y.den)
    assert x != y and not x == y and y != x
    # an algebra built again over the same system and parameters is equal,
    # and so are the elements it parses
    again = dd.build_algebra(affinize(build_finite("A", 2)), params)
    assert again is not a2 and again == a2 and hash(again) == hash(a2)
    assert dd.parse_element(again, "s1") == x


def test_polynomial_subalgebra(alg_a1):
    x = alg_a1.polynomial(Poly.variable(1, 0))
    f = dd.multiply(x, x)
    e = ExtAffineWeylElement.identity(alg_a1.ambient)
    assert f == alg_a1.element({e: Poly.variable(1, 0) * Poly.variable(1, 0)})


def test_square_and_relations(alg_a1, alg_a2):
    for alg in (alg_a1, alg_a2):
        report = dd.verify_relations(alg, seed=5)
        assert report.ok(), report.failures


def test_associativity(alg_a1, alg_a2):
    for alg, seed in ((alg_a1, 11), (alg_a2, 12)):
        rng = random.Random(seed)
        ball = sorted(
            enumerate_ball(alg.ambient, 2), key=lambda g: (length(g), g.mu, g.matrix)
        )
        for _ in range(15):
            x = random_element(alg, rng, ball)
            y = random_element(alg, rng, ball)
            z = random_element(alg, rng, ball)
            assert dd.multiply(dd.multiply(x, y), z) == dd.multiply(x, dd.multiply(y, z))


def test_filtration_and_degree_bounds(alg_a2):
    rng = random.Random(21)
    ball = sorted(
        enumerate_ball(alg_a2.ambient, 2), key=lambda g: (length(g), g.mu, g.matrix)
    )
    for _ in range(10):
        x = random_element(alg_a2, rng, ball)
        y = random_element(alg_a2, rng, ball)
        prod = dd.multiply(x, y)
        if prod.is_zero():
            continue
        # the longest group part and the top polynomial degree, read off num
        lengths = [max(length(z.algebra._elts[g]) for g in z.num) for z in (x, y, prod)]
        assert lengths[2] <= lengths[0] + lengths[1]
        degrees = [
            max(sum(dd._unpack(e, 2)) for f in z.num.values() for e in f) for z in (x, y, prod)
        ]
        assert degrees[2] <= degrees[0] + degrees[1]


def test_smash_product_degeneration():
    amb = affinize(build_finite("A", 1))
    alg0 = dd.build_algebra(
        amb, dd.HeckeParameters.make(2, 1, {0: 0, 1: 0}, unsafe=True)
    )
    rng = random.Random(31)
    ball = sorted(enumerate_ball(amb, 2), key=lambda g: (length(g), g.mu, g.matrix))
    for _ in range(25):
        x = random_element(alg0, rng, ball)
        y = random_element(alg0, rng, ball)
        assert dd.multiply(x, y) == smash_multiply(alg0, x, y)


def test_commuting_polynomial_action_matrices(alg_a1):
    mod = dd.standard_module(alg_a1, (Fraction(2, 7),), 3)
    x = Poly.variable(1, 0)
    a = mod.action_matrix(x)
    b = mod.action_matrix(x * x + x.scale(3))
    from weylkit.linalg import mat_mul

    assert mat_mul(a, b) == mat_mul(b, a)


def test_standard_module_depth0(alg_a1):
    mod = dd.standard_module(alg_a1, (Fraction(1, 5),), 0)
    assert len(mod.basis) == 1
    x = Poly.variable(1, 0)
    assert mod.action_matrix(x) == ((Fraction(1, 5),),)


def test_standard_module_generic_weights(alg_a1):
    # generic lam0: all weights distinct, multiplicity 1
    mod = dd.standard_module(alg_a1, (Fraction(1, 3),), 2)
    assert len(mod.basis) == 5
    assert set(mod.weight_multiplicities().values()) == {1}


def test_standard_module_wall_point(alg_a1):
    # a1(lam0) = 0: the {e, s1} block has one generalized weight of
    # multiplicity 2 with a nonzero nilpotent part iff h != 0
    mod = dd.standard_module(alg_a1, (Fraction(0),), 1)
    mults = mod.weight_multiplicities()
    assert mults[(Fraction(0),)] == 2
    x = Poly.variable(1, 0)
    mat = mod.action_matrix(x)
    i = mod.basis.index(ExtAffineWeylElement.identity(alg_a1.ambient))
    j = mod.basis.index(ExtAffineWeylElement.simple(alg_a1.ambient, 1))
    assert mat[i][i] == mat[j][j] == 0
    assert mat[i][j] != 0  # nilpotent part, proportional to 2 h_a
    amb = alg_a1.ambient
    alg0 = dd.build_algebra(amb, dd.HeckeParameters.make(2, 1, {0: 0, 1: 0}, unsafe=True))
    mat0 = dd.standard_module(alg0, (Fraction(0),), 1).action_matrix(x)
    assert mat0[i][j] == 0


def test_orbit_and_stabilizer(alg_a1):
    amb = alg_a1.ambient
    lam0 = (Fraction(1, 3),)
    ball = enumerate_ball(amb, 3)
    pts = {g.act_point(lam0) for g in ball}
    # [DERIVED] infinite dihedral orbit: 2 radius + 1 points for interior lam0
    assert len(pts) == 7
    # the boundary of the ball still adds orbit points
    assert pts != {g.act_point(lam0) for g, l in ball.items() if l < 3}
    # oracle: the elements of the ball that fix the point, for a stabilizer
    # that lies inside the ball
    for x in (lam0, (Fraction(0),)):
        assert stabilizer_group(amb, x) == {g for g in ball if g.act_point(x) == x}
    assert stabilizer_group(amb, lam0) == {ExtAffineWeylElement.identity(amb)}
    assert ExtAffineWeylElement.simple(amb, 1) in stabilizer_group(amb, (Fraction(0),))


def test_literal_roundtrip(alg_a2):
    rng = random.Random(41)
    ball = sorted(
        enumerate_ball(alg_a2.ambient, 2), key=lambda g: (length(g), g.mu, g.matrix)
    )
    for _ in range(10):
        x = random_element(alg_a2, rng, ball)
        text = dd.format_element(x)
        assert dd.parse_element(alg_a2, text) == x
    assert dd.format_element(alg_a2.zero()) == "0"


def test_power_literal_is_the_repeated_product(alg_a2):
    x2 = alg_a2.polynomial(Poly.variable(2, 1))
    left, right = alg_a2.generator(1), alg_a2.one()
    for k in range(5):
        assert dd.parse_element(alg_a2, f"s1*x2^{k}") == left
        assert dd.parse_element(alg_a2, f"x2^{k}*s0") == right * alg_a2.generator(0)
        left, right = left * x2, right * x2


def test_literal_examples(alg_a1):
    e = dd.parse_element(alg_a1, "s1*s0*x1^2 + (3/2)*s1")
    assert not e.is_zero()
    with pytest.raises(dd.LiteralSyntaxError):
        dd.parse_element(alg_a1, "s9")
    with pytest.raises(dd.LiteralSyntaxError):
        dd.parse_element(alg_a1, "x1 +")
    with pytest.raises(dd.LiteralSyntaxError):
        dd.parse_element(alg_a1, "y1")
    with pytest.raises(dd.LiteralSyntaxError):
        dd.parse_element(alg_a1, "(-3/0)")
    # whitespace between tokens, and leading zeros in an index
    assert dd.parse_element(alg_a1, "x1 ^ 2") == dd.parse_element(alg_a1, "x1^2")
    assert dd.parse_element(alg_a1, "( - 3 / 2 )*s1") == dd.parse_element(alg_a1, "(-3/2)*s1")
    assert dd.parse_element(alg_a1, "s01") == alg_a1.generator(1)
    for text in ("s 1", "1 2", "+x1", "--3", "3/2", ""):
        with pytest.raises(dd.LiteralSyntaxError):
            dd.parse_element(alg_a1, text)
    # the whole literal is matched before the power x1^65 is folded
    with pytest.raises(dd.LiteralSyntaxError):
        dd.parse_element(alg_a1, "x1^65 + +")
