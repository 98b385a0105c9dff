import random
from fractions import Fraction

import pytest

from weylkit import coxcomplex as cx
from weylkit.relative import (
    NotAdmissible,
    ParabolicSubset,
    in_relative_group,
    relative_system,
)
from weylkit.root_system import affinize, build_finite, finite_coxeter
from weylkit.weyl import ExtAffineWeylElement, enumerate_ball, length


def s(ambient, label):
    return ExtAffineWeylElement.simple(ambient, label)


@pytest.fixture(scope="module")
def aff_a1():
    return affinize(build_finite("A", 1))


@pytest.fixture(scope="module")
def aff_a2():
    return affinize(build_finite("A", 2))


@pytest.fixture(scope="module")
def aff_c2():
    return affinize(build_finite("C", 2))


def test_facet_canonicalization(aff_a2):
    e = ExtAffineWeylElement.identity(aff_a2)
    f1 = cx.facet(aff_a2, s(aff_a2, 1), {1})
    f2 = cx.facet(aff_a2, e, {1})
    assert f1 == f2  # s1 lies in W_{1}
    with pytest.raises(cx.TypeNotContained):
        cx.facet(aff_a2, e, {0, 1, 2})
    with pytest.raises(cx.TypeNotContained):
        cx.facet(aff_a2, e, {7})


def test_boundary(aff_a1):
    e = ExtAffineWeylElement.identity(aff_a1)
    alcove = cx.facet(aff_a1, e, set())
    assert cx.boundary(alcove, set()) == alcove
    vertex = cx.boundary(alcove, {1})
    assert cx.facet_type(vertex) == frozenset({1})
    # [DERIVED] the wall a1 = 0 passes through the origin
    assert cx.interior_point(vertex) == (Fraction(0),)
    with pytest.raises(cx.TypeNotContained):
        cx.boundary(vertex, set())


@pytest.mark.parametrize("bad", [True, 1.5, 1.0, "1"])
def test_facet_label_that_is_not_an_int_raises(aff_a2, bad):
    e = ExtAffineWeylElement.identity(aff_a2)
    with pytest.raises(cx.TypeNotContained, match="must be integers"):
        cx.facet(aff_a2, e, {bad})
    alcove = cx.facet(aff_a2, e, set())
    with pytest.raises(cx.TypeNotContained, match="must be integers"):
        cx.boundary(alcove, {0, bad})


def test_boundary_functorial(aff_a2):
    rng = random.Random(3)
    ball = sorted(enumerate_ball(aff_a2, 3), key=lambda g: (g.mu, g.matrix))
    for _ in range(10):
        y = rng.choice(ball)
        f = cx.facet(aff_a2, y, set())
        assert cx.boundary(cx.boundary(f, {1}), {1, 2}) == cx.boundary(f, {1, 2})


def test_type_is_w_invariant(aff_a2):
    rng = random.Random(5)
    ball = sorted(enumerate_ball(aff_a2, 3), key=lambda g: (g.mu, g.matrix))
    f = cx.facet(aff_a2, ExtAffineWeylElement.identity(aff_a2), {1})
    for _ in range(20):
        w = rng.choice(ball)
        assert cx.facet_type(cx.act(w, f)) == cx.facet_type(f)


def test_interior_point_sign_conditions(aff_c2):
    # interior point vanishes exactly on the J-walls of the defining alcove
    e = ExtAffineWeylElement.identity(aff_c2)
    for J in [set(), {1}, {0, 2}]:
        f = cx.facet(aff_c2, e, J)
        p = cx.interior_point(f)
        for l in aff_c2.labels:
            v = aff_c2.simple_by_label(l).as_function()(p)
            assert (v == 0) == (l in J)
            assert v >= 0


def test_span_and_projection(aff_a2):
    e = ExtAffineWeylElement.identity(aff_a2)
    alcove = cx.facet(aff_a2, e, set())
    sp = cx.span(alcove)
    assert sp.dim() == 2 and not sp.vanishing_roots
    x = (Fraction(1, 3), Fraction(1, 7))
    assert cx.project_point(aff_a2, x, sp) == x
    # vertex at the origin: span is a point, every projection lands there
    vertex = cx.facet(aff_a2, e, {1, 2})
    spv = cx.span(vertex)
    assert spv.dim() == 0
    assert cx.project_point(aff_a2, x, spv) == (Fraction(0), Fraction(0))
    # level-0 positive roots all vanish at the origin
    assert len(spv.vanishing_roots) == 3


def test_projection_is_gram_orthogonal(aff_c2):
    e = ExtAffineWeylElement.identity(aff_c2)
    wall = cx.facet(aff_c2, e, {1})
    sp = cx.span(wall)
    x = (Fraction(2, 5), Fraction(1, 3))
    p = cx.project_point(aff_c2, x, sp)
    diff = tuple(a - b for a, b in zip(x, p))
    for d in sp.directions:
        assert aff_c2.finite_base.point_inner(diff, d) == 0


def test_stabilizer_of_facet(aff_a2):
    # Stab(y W_J) = y W_J y^{-1}: reflection sets match under conjugation
    for y in enumerate_ball(aff_a2, 3):
        f = cx.facet(aff_a2, y, {1})
        keys = cx.facet_stabilizer_reflections(f)
        assert len(keys) == 1
        # the stabilizing reflection fixes the interior point
        from weylkit.weyl import ExtAffineWeylElement as E

        refl = E.reflection(aff_a2, next(iter(keys)))
        assert refl.act_point(cx.interior_point(f)) == cx.interior_point(f)


def test_point_stabilizers(aff_a2):
    # interior of the alcove: trivial
    assert cx.stabilizer_of_point(aff_a2, aff_a2.alcove_interior_point) == ()
    # origin: the three positive level-0 roots
    roots = cx.stabilizer_of_point(aff_a2, (Fraction(0), Fraction(0)))
    assert len(roots) == 3 and all(a.level == 0 for a in roots)
    assert len(cx.stabilizer_group(aff_a2, (Fraction(0), Fraction(0)))) == 6


def test_grading_point(aff_a1):
    gp = cx.GradingPoint(aff_a1, (Fraction(1),), 2)
    assert gp.x == (Fraction(1, 2),)
    # [DERIVED] x is the alcove midpoint: no affine root vanishes there
    assert gp.stabilizer_roots() == ()
    assert len(gp.stabilizer()) == 1
    gp0 = cx.GradingPoint(aff_a1, (Fraction(0),), 2)
    assert len(gp0.stabilizer()) == 2
    with pytest.raises(ValueError):
        cx.GradingPoint(aff_a1, (Fraction(1),), 0)


def test_relative_position_reflexive(aff_c2):
    nu = cx.facet(aff_c2, ExtAffineWeylElement.identity(aff_c2), {1})
    rp = cx.relative_position(nu, nu)
    assert rp.double_coset.is_identity()
    assert rp.good and rp.relative_element.is_identity()


def test_relative_position_types_differ(aff_c2):
    e = ExtAffineWeylElement.identity(aff_c2)
    with pytest.raises(cx.TypesDiffer):
        cx.relative_position(cx.facet(aff_c2, e, {1}), cx.facet(aff_c2, e, {2}))


def test_relative_position_good_iff_span_equal(aff_c2):
    base = cx.facet(aff_c2, ExtAffineWeylElement.identity(aff_c2), {1})
    target = cx.span(base)
    seen_good = seen_bad = 0
    for f in cx.facets_in_ball(aff_c2, 3, types=[frozenset({1})]):
        rp = cx.relative_position(base, f)
        assert rp.good == (cx.span(f) == target)
        if rp.good:
            seen_good += 1
            assert cx.act_relative(rp.relative_element, f) == base
        else:
            seen_bad += 1
    assert seen_good >= 2 and seen_bad >= 1


@pytest.mark.parametrize("typ", ["C", "G"])
def test_relative_element_against_the_coset_enumeration(typ):
    # the relative element of a good pair is the one member of the coset
    # W_I (rep_f^-1 rep_g) that lies in the relative group
    ambient = affinize(build_finite(typ, 2))
    labels = ambient.labels
    good = 0
    for mask in range(2 ** len(labels) - 1):
        itype = frozenset(l for k, l in enumerate(labels) if mask >> k & 1)
        group = ParabolicSubset(ambient, itype).elements()
        sources = cx.facets_in_ball(ambient, 2, types=[itype])
        for f in sources:
            for g in cx.facets_in_ball(ambient, 4, types=[itype]):
                rp = cx.relative_position(f, g)
                if not rp.good:
                    assert rp.relative_element is None
                    continue
                good += 1
                coset = f.rep.inverse() * g.rep
                matches = [u * coset for u in group if in_relative_group(ambient, u * coset, itype)]
                assert matches == [rp.relative_element]
    assert good >= 20


def test_relative_position_w_invariant(aff_c2):
    rng = random.Random(9)
    ball = sorted(enumerate_ball(aff_c2, 3), key=lambda g: (g.mu, g.matrix))
    base = cx.facet(aff_c2, ExtAffineWeylElement.identity(aff_c2), {1})
    other = cx.facet(aff_c2, rng.choice(ball), {1})
    rp = cx.relative_position(base, other)
    for _ in range(10):
        w = rng.choice(ball)
        rp2 = cx.relative_position(cx.act(w, base), cx.act(w, other))
        assert rp2.double_coset == rp.double_coset and rp2.good == rp.good


def test_xi_orbit(aff_a1):
    gp = cx.GradingPoint(aff_a1, (Fraction(0),), 2)  # x = origin, W_x = {e, s1}
    nu0 = cx.facet(aff_a1, ExtAffineWeylElement.identity(aff_a1), set())
    orbit, complete = cx.xi_orbit(gp, nu0, 3)
    # alcoves of the full line in the ball, symmetrized around the origin
    assert nu0 in orbit
    assert all(cx.facet_type(f) == frozenset() for f in orbit)
    assert len(orbit) >= 4


def test_fixed_chambers_b2():
    # [DERIVED] C(Sigma) = {W_Sigma, w0 s1 W_Sigma}, free Z/2 action
    b2 = finite_coxeter(build_finite("B", 2))
    rep = cx.fixed_chambers(relative_system(b2, {1}), radius=5)
    assert len(rep.chambers) == 2
    assert rep.single_free_orbit and rep.ball_complete
    assert {cx.facet_type(c) for c in rep.chambers} == {frozenset({1})}


def test_fixed_chambers_affine_c2(aff_c2):
    rep = cx.fixed_chambers(relative_system(aff_c2, {1}), radius=6)
    assert rep.chambers
    assert all(cx.facet_type(c) == frozenset({1}) for c in rep.chambers)
    assert rep.single_free_orbit
    # every interior chamber has all its generator-images inside the found set
    assert rep.ball_complete


def test_fixed_chambers_not_admissible():
    # fixed_chambers reads its system from relative_system, which refuses a
    # non-admissible Sigma before any chamber is enumerated
    a2 = finite_coxeter(build_finite("A", 2))
    with pytest.raises(NotAdmissible) as exc:
        cx.fixed_chambers(relative_system(a2, {1}), radius=4)
    assert exc.value.violating


def test_fixed_chambers_empty_sigma(aff_a1):
    rep = cx.fixed_chambers(relative_system(aff_a1, set()), radius=3)
    # chambers are all alcoves, W-tilde = W acts simply transitively
    assert all(cx.facet_type(c) == frozenset() for c in rep.chambers)
    assert rep.single_free_orbit
