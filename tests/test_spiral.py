import random
from fractions import Fraction

import pytest

from weylkit import coxcomplex as cx
from weylkit import spiral as sp
from weylkit.root_system import affinize, build_finite, finite_coxeter
from weylkit.weyl import ExtAffineWeylElement

from spiral_oracle import (
    assert_facet_spiral_matches_its_points,
    assert_pieces_match,
    fraction_table,
    table_bound,
)

# the affine systems of the integer-table oracle, each with an adjoint
# theta-tilde and a modulus
ORACLE_DATA = [
    ("A", (1, 1), 3),
    ("C", (1, 0), 4),
    ("G", (1, 1), 4),
    ("BC", (1, 1), 3),
]


@pytest.fixture(scope="module")
def a1_datum():
    # theta-tilde = fundamental coweight, <alpha, theta> = 1, m = 2, d = 1
    return sp.GradedRootDatum(build_finite("A", 1), (Fraction(1),), 2, 1)


@pytest.fixture(scope="module")
def a2_datum():
    return sp.GradedRootDatum(build_finite("A", 2), (Fraction(1), Fraction(1)), 3, 1)


def test_datum_validation():
    fin = build_finite("A", 1)
    with pytest.raises(sp.NotAdjoint):
        sp.GradedRootDatum(fin, (Fraction(1, 2),), 2, 1)  # <alpha, theta> = 1/2
    with pytest.raises(ValueError):
        sp.GradedRootDatum(fin, (Fraction(1),), 0, 1)
    with pytest.raises(ValueError):
        sp.GradedRootDatum(fin, (Fraction(1),), 2, 0)
    assert sp.GradedRootDatum(fin, (Fraction(1),), 2, -3).epsilon == -1


def test_grading_degree_trivial():
    fin = build_finite("B", 2)
    datum = sp.GradedRootDatum(fin, (Fraction(0), Fraction(0)), 2, 1)
    assert all(datum.grading_degree(r) == 0 for r in fin.roots)


def test_grading_degree_a1(a1_datum):
    # [DERIVED] deg(alpha) = deg(-alpha) = 1 since -1 = 1 mod 2
    assert a1_datum.grading_degree((1,)) == 1
    assert a1_datum.grading_degree((-1,)) == 1


def test_grading_degree_a2(a2_datum):
    # [DERIVED] pairing table of A2 with theta = sum of coweights
    assert a2_datum.grading_degree((1, 0)) == 1
    assert a2_datum.grading_degree((0, 1)) == 1
    assert a2_datum.grading_degree((1, 1)) == 2
    assert a2_datum.grading_degree((-1, -1)) == 1  # -2 = 1 mod 3


def test_grading_additive(a2_datum):
    fin = a2_datum.finite
    for a in fin.roots:
        for b in fin.roots:
            s = tuple(x + y for x, y in zip(a, b))
            if fin.is_root(s):
                expect = (a2_datum.grading_degree(a) + a2_datum.grading_degree(b)) % 3
                assert a2_datum.grading_degree(s) == expect


def test_zero_cochar_spiral(a1_datum):
    spiral = sp.spiral_from_cochar(a1_datum, (Fraction(0),), 1)
    for n in range(-4, 5):
        p = spiral.p_n(n)
        # [TRIVIAL] alpha in P_n iff n <= 0 and deg matches
        for r in a1_datum.finite.roots:
            assert (r in p) == (n <= 0 and n % 2 == 1)
        assert (sp.CARTAN in p) == (n <= 0 and n % 2 == 0)
        ln = spiral.l_n(n)
        if n != 0:
            assert not ln
    assert sp.CARTAN in spiral.l_n(0)


def test_a1_hand_enumeration(a1_datum):
    # [DERIVED] lambda = alpha-check / 2, so <alpha, lambda> = 1
    spiral = sp.spiral_from_cochar(a1_datum, (Fraction(1),), 1)
    assert (1,) in spiral.l_n(1)
    for n in range(-4, 5):
        in_p = (-1,) in spiral.p_n(n)
        assert in_p == (n <= -1 and n % 2 == 1)
    assert (-1,) in spiral.u_n(-3)
    assert (-1,) in spiral.l_n(-1)


def test_partition_property(a2_datum):
    rng = random.Random(13)
    for _ in range(10):
        lam = tuple(Fraction(rng.randrange(-6, 7), rng.randrange(1, 4)) for _ in range(2))
        spiral = sp.spiral_from_cochar(a2_datum, lam, rng.choice((1, -1)))
        report = sp.levi_decomposition_check(spiral, (-8, 8))
        assert report.partition_ok


def test_levi_check_refuses_a_wide_window_before_walking_it(a1_datum, monkeypatch):
    # a billion degrees would walk for over an hour; the cap refuses them at
    # once, and the cap counts degrees: lo:hi spans hi - lo + 1 of them
    import time

    spiral = sp.spiral_from_cochar(a1_datum, (Fraction(0),))
    start = time.perf_counter()
    with pytest.raises(sp.WindowTooWide, match="a window of 1000000001 degrees exceeds"):
        sp.levi_decomposition_check(spiral, (0, 10**9))
    assert time.perf_counter() - start < 1
    assert sp.WINDOW_CAP == 10**5
    monkeypatch.setattr(sp, "WINDOW_CAP", 3)
    assert sp.levi_decomposition_check(spiral, (-1, 1)).window == (-1, 1)
    with pytest.raises(sp.WindowTooWide, match="^a window of 4 degrees exceeds the cap of 3$"):
        sp.levi_decomposition_check(spiral, (-1, 2))


def _pieces_by_definition(spiral, n):
    """P_n, L_n and U_n straight from their definition, root by root."""
    datum = spiral.datum
    bound = spiral.epsilon * n
    pieces = []
    for keep in (lambda w: w >= bound, lambda w: w == bound, lambda w: w > bound):
        out = {
            r
            for r in datum.finite.roots
            if datum.grading_degree(r) == n % datum.m
            and keep(datum.finite.pair(r, spiral.lam))
        }
        if n % datum.m == 0 and keep(0):
            out.add(sp.CARTAN)
        pieces.append(frozenset(out))
    return pieces


@pytest.mark.parametrize("type_label", ["A", "C", "G"])
@pytest.mark.parametrize("m", [2, 3])
def test_spiral_table_against_definition(type_label, m):
    fin = build_finite(type_label, 2)
    rng = random.Random(m)
    for theta in [(0, 0), (1, 0), (1, 2)]:
        datum = sp.GradedRootDatum(fin, tuple(map(Fraction, theta)), m, 1)
        for _ in range(4):
            lam = tuple(Fraction(rng.randrange(-7, 8), rng.randrange(1, 4)) for _ in range(2))
            spiral = sp.spiral_from_cochar(datum, lam, rng.choice((1, -1)))
            for n in range(-8, 9):
                assert [spiral.p_n(n), spiral.l_n(n), spiral.u_n(n)] == (
                    _pieces_by_definition(spiral, n)
                )


def test_bracket_compatibility(a2_datum):
    fin = a2_datum.finite
    lam = (Fraction(1, 2), Fraction(-1, 3))
    spiral = sp.spiral_from_cochar(a2_datum, lam, 1)
    bound = table_bound(fraction_table(a2_datum, lam), a2_datum.m)
    for a_deg in range(-bound, bound + 1):
        pa = spiral.p_n(a_deg)
        for b_deg in range(-bound, bound + 1):
            pb = spiral.p_n(b_deg)
            ub = spiral.u_n(b_deg)
            for a in pa:
                if a is sp.CARTAN:
                    continue
                for b in pb:
                    if b is sp.CARTAN:
                        continue
                    s = tuple(x + y for x, y in zip(a, b))
                    if fin.is_root(s):
                        assert s in spiral.p_n(a_deg + b_deg)
                        if b in ub:
                            assert s in spiral.u_n(a_deg + b_deg)


def test_spiral_from_facet_at_x(a1_datum):
    # [TRIVIAL] the facet containing x = theta/m yields the lambda = 0 P-sets
    ambient = affinize(a1_datum.finite)
    alcove = cx.facet(ambient, ExtAffineWeylElement.identity(ambient), set())
    got = sp.spiral_from_facet(a1_datum, alcove)
    ref = sp.spiral_from_cochar(a1_datum, (Fraction(0),), 1)
    for n in range(-5, 6):
        assert got.p_n(n) == ref.p_n(n)


def test_facet_point_independence_exhaustive(a1_datum):
    ambient = affinize(a1_datum.finite)
    for f in cx.facets_in_ball(ambient, 3):
        assert_facet_spiral_matches_its_points(a1_datum, f)


def test_facet_spiral_equivariance(a1_datum):
    # w in W_x permutes the facet spiral's root sets by its root action
    ambient = affinize(a1_datum.finite)
    gp = cx.GradingPoint(ambient, a1_datum.theta_tilde, a1_datum.m)
    nu = cx.facet(ambient, ExtAffineWeylElement.simple(ambient, 1), set())
    for w in gp.stabilizer():
        left = sp.spiral_from_facet(a1_datum, cx.act(w, nu))
        right = sp.spiral_from_facet(a1_datum, nu)
        for n in range(-4, 5):
            mapped = set()
            for r in right.p_n(n):
                if r is sp.CARTAN:
                    mapped.add(sp.CARTAN)
                else:
                    img = w.act_affine(r, 0)[0]
                    mapped.add(tuple(int(c) for c in img))
            assert left.p_n(n) == frozenset(mapped)


def test_pseudo_levi_full_space(a1_datum):
    ambient = affinize(a1_datum.finite)
    alcove = cx.facet(ambient, ExtAffineWeylElement.identity(ambient), set())
    levi = sp.pseudo_levi_from_subspace(a1_datum, cx.span(alcove), ambient)
    assert levi.roots == ()
    assert levi.degree_piece(0) == frozenset({sp.CARTAN})


def test_pseudo_levi_wall(a1_datum):
    # [DERIVED] the wall alpha = 0 in affine A1: roots {alpha, -alpha},
    # grading +-<alpha, theta>
    ambient = affinize(a1_datum.finite)
    vertex = cx.facet(ambient, ExtAffineWeylElement.identity(ambient), {1})
    levi = sp.pseudo_levi_from_subspace(a1_datum, cx.span(vertex), ambient)
    assert set(levi.roots) == {(1,), (-1,)}
    assert levi.grading[(1,)] == 1 and levi.grading[(-1,)] == -1
    # the other vertex: wall 1 - alpha = 0, grading shifts by m
    vertex2 = cx.facet(ambient, ExtAffineWeylElement.identity(ambient), {0})
    levi2 = sp.pseudo_levi_from_subspace(a1_datum, cx.span(vertex2), ambient)
    assert levi2.grading[(1,)] == 1 - 2  # <alpha,theta> + m*level with level -1


def test_pseudo_levi_closure_a2(a2_datum):
    ambient = affinize(a2_datum.finite)
    origin = cx.facet(ambient, ExtAffineWeylElement.identity(ambient), {1, 2})
    levi = sp.pseudo_levi_from_subspace(a2_datum, cx.span(origin), ambient)
    assert len(levi.roots) == 6  # whole level-0 system; closure checked inside


def test_pseudo_levi_not_relevant(a1_datum):
    bad = cx.AffineSpan((Fraction(1, 3),), (), frozenset())
    with pytest.raises(sp.NotRelevant):
        sp.pseudo_levi_from_subspace(a1_datum, bad)


@pytest.mark.parametrize("type_label,theta,m", ORACLE_DATA, ids=[t[0] for t in ORACLE_DATA])
@pytest.mark.parametrize("d", [1, -1])
def test_facet_spirals_against_the_fraction_table(type_label, theta, m, d):
    fin = build_finite(type_label, 2)
    datum = sp.GradedRootDatum(fin, tuple(map(Fraction, theta)), m, d)
    for f in cx.facets_in_ball(affinize(fin), 3):
        assert_facet_spiral_matches_its_points(datum, f)


def test_facet_spirals_of_affine_b3_against_the_fraction_table():
    # rank 3, all 217 facets of the radius-3 ball, epsilon = -1
    fin = build_finite("B", 3)
    datum = sp.GradedRootDatum(fin, (Fraction(1), Fraction(0), Fraction(1)), 4, -1)
    for f in cx.facets_in_ball(affinize(fin), 3):
        assert_facet_spiral_matches_its_points(datum, f)


def test_facet_spirals_refuse_finite_mode_facets():
    # a facet of the finite arrangement is a cone, and lambda_y changes along
    # it, so it has no spiral: every facet of finite B3 to radius 3 is refused
    fin = build_finite("B", 3)
    datum = sp.GradedRootDatum(fin, (Fraction(1), Fraction(0), Fraction(1)), 4, 1)
    facets = cx.facets_in_ball(finite_coxeter(fin), 3)
    assert facets
    for f in facets:
        with pytest.raises(sp.FiniteFacet, match="affine arrangement"):
            sp.spiral_from_facet(datum, f)


@pytest.mark.parametrize("type_label,theta,m", ORACLE_DATA, ids=[t[0] for t in ORACLE_DATA])
@pytest.mark.parametrize(
    "lam",
    [(0, 0), (Fraction(1, 2), Fraction(-3, 2)), (Fraction(-2, 3), 1), (Fraction(5, 6), Fraction(-1, 3))],
    ids=["zero", "den2", "den3", "den6"],
)
def test_cochar_spirals_against_the_fraction_table(type_label, theta, m, lam):
    datum = sp.GradedRootDatum(build_finite(type_label, 2), tuple(map(Fraction, theta)), m, 1)
    table = fraction_table(datum, lam)
    bound = table_bound(table, m)
    for epsilon in (1, -1):
        spiral = sp.spiral_from_cochar(datum, lam, epsilon)
        assert_pieces_match(spiral, [table], bound)
