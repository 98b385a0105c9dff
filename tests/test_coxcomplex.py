import random
from fractions import Fraction
from itertools import combinations

import pytest

from weylkit import coxcomplex as cx
from weylkit import relative
from weylkit.relative import (
    NotAdmissible,
    ParabolicSubset,
    _normalizes,
    in_relative_group,
    is_admissible,
    relative_system,
)
from weylkit.root_system import affinize, build_finite, finite_coxeter
from weylkit import weyl
from weylkit.weyl import (
    BallTooLarge,
    ExtAffineWeylElement,
    closure,
    enumerate_ball,
    has_left_descent,
    has_right_descent,
    length,
    reduced_word,
    simple_mul,
)


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


# (type, rank, affine) of the systems the ball-aware enumeration is checked on
ORACLE_SYSTEMS = [("A", 2, True), ("C", 2, True), ("G", 2, True), ("B", 3, True), ("B", 3, False)]


def oracle_system(type_label, rank, affine):
    finite = build_finite(type_label, rank)
    return affinize(finite) if affine else finite_coxeter(finite)


def proper_types(ambient):
    labels = ambient.labels
    return [
        frozenset(l for k, l in enumerate(labels) if mask >> k & 1)
        for mask in range(2 ** len(labels) - 1)
    ]


def facets_by_coset_strip(ambient, radius, types):
    """The facets of the length ball by one min_coset_rep strip (inside
    `facet`) per element and type: the enumeration that reading right
    descent sets replaced."""
    ball = enumerate_ball(ambient, radius)
    return frozenset(cx.facet(ambient, y, t) for y in ball for t in types)


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
    assert vertex.type_labels == frozenset({1})
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
        assert cx.act(w, f).type_labels == f.type_labels


def test_interior_point_sign_conditions(aff_c2):
    # interior point vanishes exactly on the J-walls of the defining alcove
    e = ExtAffineWeylElement.identity(aff_c2)
    for J in [set(), {1}, {0, 2}]:
        f = cx.facet(aff_c2, e, J)
        p = cx.interior_point(f)
        for l in aff_c2.labels:
            a = aff_c2.simple_by_label(l)
            v = aff_c2.finite_base.pair(a.direction, p) + a.level
            assert (v == 0) == (l in J)
            assert v >= 0


def test_span_of_alcove_and_vertex(aff_a2):
    e = ExtAffineWeylElement.identity(aff_a2)
    alcove = cx.facet(aff_a2, e, set())
    sp = cx.span(alcove)
    assert len(sp.directions) == 2 and not sp.vanishing_roots
    # vertex at the origin: span is a point
    vertex = cx.facet(aff_a2, e, {1, 2})
    spv = cx.span(vertex)
    assert len(spv.directions) == 0
    assert spv.base == (Fraction(0), Fraction(0))
    # level-0 positive roots all vanish at the origin
    assert len(spv.vanishing_roots) == 3


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
    assert cx.stabilizer_of_point(gp.ambient, gp.x) == ()
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
    assert all(f.type_labels == frozenset() for f in orbit)
    assert len(orbit) >= 4


def xi_orbit_by_spans(point, nu0, radius):
    """Xi read off the Fraction spans: the route `xi_orbit` replaced by
    stabilizer reflections."""
    target = cx.span(nu0)
    ball = cx.Ball(point.ambient, radius)
    facets = cx.facets_in_ball(point.ambient, radius, types=[nu0.type_labels], ball=ball)
    alcoves = {f for f in facets if cx.span(f) == target}
    orbit = {cx.act(w, f) for w in point.stabilizer() for f in alcoves}
    return frozenset(orbit), all(ball.lengths.get(f.rep, radius) < radius for f in orbit)


# (type, rank, radius) of the Xi-orbit oracle, at x = 0 and x = (1, .., 1) / m
XI_SYSTEMS = [("A", 2, 3), ("C", 2, 3), ("G", 2, 3), ("BC", 2, 3), ("B", 3, 2)]


@pytest.mark.parametrize(
    "type_label,rank,radius", XI_SYSTEMS, ids=[f"{t}{n}" for t, n, _ in XI_SYSTEMS]
)
def test_xi_orbit_against_spans(type_label, rank, radius):
    ambient = affinize(build_finite(type_label, rank))
    points = [cx.GradingPoint(ambient, (0,) * rank, 1)]
    points += [cx.GradingPoint(ambient, (1,) * rank, m) for m in (2, 3)]
    sizes = set()
    for point in points:
        for t in proper_types(ambient):
            nu0 = cx.facet(ambient, ExtAffineWeylElement.identity(ambient), t)
            orbit, complete = cx.xi_orbit(point, nu0, radius)
            assert (orbit, complete) == xi_orbit_by_spans(point, nu0, radius), (point.x, t)
            sizes.add(len(orbit))
    assert len(sizes) >= 3


def test_fixed_chambers_b2():
    # [DERIVED] C(Sigma) = {W_Sigma, w0 s1 W_Sigma}, free Z/2 action
    b2 = finite_coxeter(build_finite("B", 2))
    rep = cx.fixed_chambers(relative_system(b2, {1}), radius=5)
    assert len(rep.chambers) == 2
    assert rep.single_free_orbit and rep.ball_complete
    assert {c.type_labels for c in rep.chambers} == {frozenset({1})}


def test_fixed_chambers_affine_c2(aff_c2):
    rep = cx.fixed_chambers(relative_system(aff_c2, {1}), radius=6)
    assert rep.chambers
    assert all(c.type_labels == frozenset({1}) for c in rep.chambers)
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
    assert all(c.type_labels == frozenset() for c in rep.chambers)
    assert rep.single_free_orbit


@pytest.mark.parametrize(
    "type_label,rank,sigma",
    [
        ("A", 2, {1}),
        ("C", 2, {1}),
        ("G", 2, {1}),
        ("BC", 2, {1}),
        ("A", 3, {1, 3}),
        ("C", 3, {1, 3}),
        ("C", 3, {3}),
        ("C", 2, {0, 2}),
        ("C", 3, {0}),
        ("BC", 2, {0}),
        ("D", 4, {1, 3, 4}),
    ],
)
def test_fixed_chamber_test_against_the_stabilizer_reflections(type_label, rank, sigma):
    # fixed_chambers keeps the facets whose rep sends J's simple roots into
    # T_Sigma; over every facet of a finite type of |Sigma| labels in the
    # radius-4 ball (radius 3 at rank 4) that must be the test
    # y T_J y^-1 = T_Sigma, also for a type with |T_J| != |T_Sigma| (A3's
    # {1, 2} against Sigma = {1, 3}).  Sigma = {1} is not admissible on
    # affine A2, so only the facet test is checked there.  The Sigma holding
    # label 0 catch a search that keys a_0, whose direction has negative
    # height, other than canonically.
    radius = 3 if rank == 4 else 4
    ambient = affinize(build_finite(type_label, rank))
    base = ParabolicSubset(ambient, sigma)
    t_sigma = base.reflections()
    types = [
        t
        for t in map(frozenset, combinations(ambient.labels, len(sigma)))
        if ParabolicSubset(ambient, t).is_finite()
    ]
    tested = {t: 0 for t in types}
    fixed = set()
    for f in cx.facets_in_ball(ambient, radius, types=types):
        by_roots = _normalizes(f.rep, ParabolicSubset(ambient, f.type_labels), base)
        assert by_roots == (cx.facet_stabilizer_reflections(f) == t_sigma), f.rep
        tested[f.type_labels] += 1
        if by_roots:
            fixed.add(f)
    assert fixed and all(tested.values())
    if (type_label, rank) == ("A", 3):
        other = ParabolicSubset(ambient, {1, 2})
        assert len(other.reflections()) != len(t_sigma)
        assert all(f.type_labels != other.sigma for f in fixed)
    if is_admissible(ambient, sigma)[0]:
        chambers = cx.fixed_chambers(relative_system(ambient, sigma), radius).chambers
        assert set(chambers) == fixed


def test_fixed_chambers_checks_coverage_through_a_larger_relative_ball():
    # a rel_ball reaching past the radius is read up to the radius, and the
    # check that every interior chamber is some g(base) still runs: with the
    # one element that reaches an interior chamber left out, the orbit is
    # not reported single and free
    system = relative_system(affinize(build_finite("C", 2)), {1})
    radius = 4
    rel = cx.relative_ball(system, radius + 2)
    assert max(rel.values()) > radius
    rep = cx.fixed_chambers(system, radius, rel_ball=rel)
    assert rep.single_free_orbit
    base = cx.facet(system.ambient, ExtAffineWeylElement.identity(system.ambient), {1})
    interior = set(rep.chambers) - set(rep.boundary_excluded) - {base}
    missing = next(g for g, d in rel.items() if d <= radius and cx.act(g, base) in interior)
    truncated = {g: d for g, d in rel.items() if g != missing}
    assert max(truncated.values()) > radius
    assert not cx.fixed_chambers(system, radius, rel_ball=truncated).single_free_orbit


def test_fixed_chambers_conjugate_t_sigma_once_per_ball_element(monkeypatch):
    # the search reads S_y off y^-1 T_Sigma y, one conjugate_reflections call
    # per element y of the ball; it lists no facet of the ball and tests
    # none by _normalizes
    system = relative_system(affinize(build_finite("C", 4)), {1, 3})
    calls = {"conjugate_reflections": 0, "_normalizes": 0, "facets_in_ball": 0}

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    count(cx, "conjugate_reflections")
    count(relative, "conjugate_reflections")
    count(relative, "_normalizes")
    count(cx, "facets_in_ball")
    rep = cx.fixed_chambers(system, 4)
    assert len(rep.chambers) > 1
    assert calls == {
        "conjugate_reflections": len(rep.ball.lengths), "_normalizes": 0, "facets_in_ball": 0
    }


@pytest.mark.parametrize("type_label,rank,affine", ORACLE_SYSTEMS)
def test_facets_in_ball_match_the_coset_strip(type_label, rank, affine):
    ambient = oracle_system(type_label, rank, affine)
    types = proper_types(ambient)
    for radius in range(5):
        ball = cx.Ball(ambient, radius)
        for t in types:
            got = cx.facets_in_ball(ambient, radius, types=[t], ball=ball)
            assert got == facets_by_coset_strip(ambient, radius, [t])
        assert cx.facets_in_ball(ambient, radius) == facets_by_coset_strip(ambient, radius, types)


def _series(numerator, denominator, r):
    """The coefficients of u^0..u^r in numerator(u)/denominator(u), both
    given as coefficient lists, with denominator[0] == 1."""
    out = []
    for k in range(r + 1):
        c = numerator[k] if k < len(numerator) else 0
        c -= sum(denominator[i] * out[k - i] for i in range(1, min(k, len(denominator) - 1) + 1))
        out.append(c)
    return out


def test_facet_counts_from_the_growth_series(aff_a2):
    # [DERIVED] Bott's formula (Humphreys, Reflection Groups and Coxeter
    # Groups, 8.9): W(u) = (1+u)(1+u+u^2) / ((1-u)(1-u^2)) for affine A2.
    # W(u) = W^J(u) W_J(u), and a facet of type J has one minimal rep, so
    # the facets of type J with a rep of length <= r number the first r+1
    # coefficients of W(u)/W_J(u), summed.  W_J is trivial, A1 or A2.
    denominator = [1, -1, -1, 1]
    numerators = {0: [1, 2, 2, 1], 1: [1, 1, 1], 2: [1]}  # W(u) W_J(u)^-1 (1-u)(1-u^2)
    for t in proper_types(aff_a2):
        expected = sum(_series(numerators[len(t)], denominator, 4))
        assert len(cx.facets_in_ball(aff_a2, 4, types=[t])) == expected
    counts = [len(cx.facets_in_ball(aff_a2, 4, types=[t])) for t in ([], [0], [1], [0, 1])]
    assert counts == [31, 19, 19, 9]


@pytest.mark.parametrize(
    "labels,message",
    [
        ({0, 1, 2}, "a facet type must be a proper subset of the walls"),
        ({7}, r"unknown labels \[7\]"),
    ],
)
def test_facets_in_ball_bad_type_raises(aff_a2, labels, message):
    with pytest.raises(cx.TypeNotContained, match=message):
        cx.facets_in_ball(aff_a2, 2, types=[labels])
    with pytest.raises(cx.TypeNotContained, match=message):
        cx.facets_in_ball(aff_a2, 2, types=[{0}, labels])


@pytest.mark.parametrize("type_label,rank,affine", ORACLE_SYSTEMS)
def test_ball_words_are_reduced_words(type_label, rank, affine):
    ambient = oracle_system(type_label, rank, affine)
    ball = cx.Ball(ambient, 4)
    for g, d in ball.lengths.items():
        word = ball.word(g)
        assert word == reduced_word(g).letters
        assert len(word) == d


# (type, rank, affine, radius) of every ball the complex_queries benchmark
# pool and the goldens build, and finite systems at radii past l(w0)
SEARCHED_BALLS = (
    [(t, 2, True, r) for t in ("A", "C", "G") for r in range(1, 6)]
    + [("B", 2, True, 3), ("BC", 2, True, 4)]
    + [("A", 3, False, 2), ("B", 3, False, 3), ("B", 3, False, 4)]
    + [("A", 2, False, 4), ("B", 2, False, 5), ("G", 2, False, 7), ("A", 3, False, 7)]
    + [("B", 3, False, 10), ("C", 3, False, 10), ("D", 4, False, 13)]
)


def facets_by_right_descents(ambient, ball, types):
    """The facets of the ball with every label's right descent tested on
    every element: the comprehension that reading the left descents of
    y^-1 replaced."""
    out = []
    for y in ball.lengths:
        descents = {l for l in ambient.labels if has_right_descent(y, l)}
        out.extend(cx.Facet(ambient, y, t) for t in types if descents.isdisjoint(t))
    return frozenset(out)


@pytest.mark.parametrize("type_label,rank,affine,radius", SEARCHED_BALLS)
def test_length_ball_search_against_the_generic_closure(type_label, rank, affine, radius):
    ambient = oracle_system(type_label, rank, affine)
    ball = cx.Ball(ambient, radius)
    e = ExtAffineWeylElement.identity(ambient)
    bfs = closure(e, ambient.labels, radius, step=simple_mul)
    assert list(ball.lengths.items()) == list(bfs.items())
    assert enumerate_ball(ambient, radius) == ball.lengths
    assert ball.descents.keys() == ball.lengths.keys()
    for g, d in ball.lengths.items():
        assert length(g) == d
        assert ball.word(g) == reduced_word(g).letters
        assert ball.descents[g] == {l for l in ambient.labels if has_left_descent(g, l)}
    types = proper_types(ambient)
    facets = cx.facets_in_ball(ambient, radius, ball=ball)
    assert facets == facets_by_right_descents(ambient, ball, types)


def test_length_ball_search_hits_the_cap(aff_a1, monkeypatch):
    # 1 + 2 per level: radius 3 holds 7 elements, radius 4 one level more
    monkeypatch.setattr(weyl, "BALL_CAP", 7)
    assert len(cx.Ball(aff_a1, 3).lengths) == 7
    with pytest.raises(BallTooLarge) as info:
        cx.Ball(aff_a1, 4)
    assert str(info.value) == "ball exceeds cap of 7 elements"
    with pytest.raises(BallTooLarge, match="^ball exceeds cap of 7 elements$"):
        enumerate_ball(aff_a1, 4)


def test_ball_words_at_a_radius_beyond_the_recursion_limit(aff_a1):
    radius = 3000
    ball = cx.Ball(aff_a1, radius)
    assert len(ball.lengths) == 2 * radius + 1
    longest = [g for g, d in ball.lengths.items() if d == radius]
    assert len(longest) == 2
    for g in longest:
        word = ball.word(g)
        assert word == reduced_word(g).letters
        # [DERIVED] the reduced words of affine A1 alternate the two letters
        assert len(word) == radius and all(a != b for a, b in zip(word, word[1:]))


def test_equal_spans_hash_equal(aff_a2):
    # two alcoves span the whole plane: equal spans, different base points
    e = ExtAffineWeylElement.identity(aff_a2)
    a = cx.span(cx.facet(aff_a2, e, set()))
    b = cx.span(cx.facet(aff_a2, s(aff_a2, 0), set()))
    assert a == b and a.base != b.base
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize(
    "type_label,rank,affine",
    [("C", 2, True), ("G", 2, True), ("BC", 2, True), ("B", 3, True), ("B", 3, False)],
)
def test_relative_position_good_iff_spans_agree_on_every_pair(type_label, rank, affine):
    # relative_position reads `good` off the stabilizer reflections; the span
    # route (interior point, nullspace, every root through the point) is the
    # independent oracle
    ambient = oracle_system(type_label, rank, affine)
    by_type = {}
    for f in cx.facets_in_ball(ambient, 2):
        by_type.setdefault(f.type_labels, []).append(f)
    assert set(by_type) == set(proper_types(ambient))
    good = bad = 0
    for facets in by_type.values():
        spans = {f: cx.span(f) for f in facets}
        for f in facets:
            for g in facets:
                rp = cx.relative_position(f, g)
                assert rp.good == (spans[f] == spans[g])
                good += rp.good
                bad += not rp.good
    assert good > 0 and bad > 0
