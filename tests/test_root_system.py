import random
from fractions import Fraction

import pytest

from weylkit import linalg
from weylkit.root_system import (
    AffineRoot,
    ConstantFunction,
    IllegalType,
    affinize,
    build_finite,
    finite_coxeter,
    root_data_to_json,
)
from weylkit.weyl import ExtAffineWeylElement, _system_data, act_on_affine_root

# [DERIVED] root counts from the classification tables
ROOT_COUNTS = {
    ("A", 1): 2,
    ("A", 2): 6,
    ("A", 3): 12,
    ("B", 2): 8,
    ("B", 3): 18,
    ("C", 2): 8,
    ("C", 3): 18,
    ("D", 4): 24,
    ("E", 6): 72,
    ("E", 7): 126,
    ("E", 8): 240,
    ("F", 4): 48,
    ("G", 2): 12,
    ("BC", 1): 4,
    ("BC", 2): 12,
}


@pytest.mark.parametrize("tl,rk", sorted(ROOT_COUNTS))
def test_root_counts(tl, rk):
    assert len(build_finite(tl, rk).roots) == ROOT_COUNTS[(tl, rk)]


def test_illegal_types():
    for tl, rk in [("A", 0), ("B", 1), ("D", 3), ("E", 5), ("F", 3), ("G", 3), ("H", 2)]:
        with pytest.raises(IllegalType):
            build_finite(tl, rk)
    with pytest.raises(IllegalType):
        build_finite("A", 9)  # rank cap


def test_cartan_matrices():
    # [DERIVED] standard Cartan matrices
    # [DERIVED] entry (i,j) is <alpha_i, alpha_j-check>
    assert build_finite("A", 1).cartan_matrix == ((2,),)
    assert build_finite("A", 2).cartan_matrix == ((2, -1), (-1, 2))
    assert build_finite("B", 2).cartan_matrix == ((2, -2), (-1, 2))
    assert build_finite("C", 2).cartan_matrix == ((2, -1), (-2, 2))
    assert build_finite("G", 2).cartan_matrix == ((2, -1), (-3, 2))


def _norm(system, r):
    """r^T G r, the squared length of a root in simple-root coordinates."""
    g = system.gram_matrix
    return sum(r[i] * g[i][j] * r[j] for i in range(len(r)) for j in range(len(r)))


def test_gram_normalisation():
    # long roots have squared length 2 in the reduced types
    for tl, rk in [("A", 2), ("B", 3), ("C", 3), ("D", 4), ("F", 4), ("G", 2)]:
        sys = build_finite(tl, rk)
        assert max(_norm(sys, r) for r in sys.roots) == 2
    # [PAPER] BC convention: |alpha|^2 = 1 for short, 4 for doubled roots
    bc = build_finite("BC", 2)
    norms = sorted({_norm(bc, r) for r in bc.roots})
    assert norms == [Fraction(1), Fraction(2), Fraction(4)]


def test_bc_roots_are_b_roots_with_doubled_short_roots():
    # BC_n has the simple roots of B_n, so one coordinate system serves
    # both: R(BC_n) = R(B_n) with 2r added for every short root r
    assert set(build_finite("BC", 1).roots) == {(1,), (-1,), (2,), (-2,)}
    for n in range(2, 9):
        b = build_finite("B", n)
        doubled = {tuple(2 * c for c in r) for r in b.roots if _norm(b, r) == 1}
        assert len(doubled) == 2 * n
        assert set(build_finite("BC", n).roots) == set(b.roots) | doubled


def _legal_systems(max_rank):
    for tl in ("A", "B", "C", "D", "E", "F", "G", "BC"):
        for rk in range(1, max_rank + 1):
            try:
                finite = build_finite(tl, rk)
            except IllegalType:
                continue
            yield affinize(finite)
            yield finite_coxeter(finite)


def test_parabolic_finiteness_against_the_rank_of_the_gradients():
    # W_J is finite exactly when the gradients of the J-walls are linearly
    # independent; the rule reads that off whether J is a proper subset
    seen = set()
    for system in _legal_systems(6):
        labels = system.labels
        for mask in range(2 ** len(labels)):
            walls = [l for k, l in enumerate(labels) if mask >> k & 1]
            grads = tuple(system.simple_by_label(l).direction for l in walls)
            independent = linalg.rank(grads) == len(grads)
            assert system.parabolic_is_finite(walls) is independent, (system.labels, walls)
            seen.add((system.affine, independent))
    assert seen == {(True, True), (True, False), (False, True)}


def test_highest_roots():
    # [DERIVED] theta in simple-root coordinates
    assert build_finite("A", 2).highest_root() == (1, 1)
    assert build_finite("B", 2).highest_root() == (1, 2)
    assert build_finite("C", 2).highest_root() == (2, 1)
    assert build_finite("G", 2).highest_root() == (3, 2)
    assert build_finite("F", 4).highest_root() == (2, 3, 4, 2)
    assert build_finite("E", 8).highest_root() == (2, 3, 4, 6, 5, 4, 3, 2)


def test_pairing_is_dot_product():
    sys = build_finite("B", 2)
    # <alpha_i, pi_j-check> = delta_ij by the coordinate conventions
    for i in range(2):
        f = tuple(1 if j == i else 0 for j in range(2))
        for j in range(2):
            x = tuple(Fraction(1 if k == j else 0) for k in range(2))
            assert sys.pair(f, x) == (1 if i == j else 0)


def _value(a, x):
    """The affine root a evaluated at the point x."""
    return a.system.pair(a.direction, x) + a.level


def _coroot_vector(system, root):
    """The Fraction oracle of the integer coroot: the Gram image t = G r,
    whose j-th coweight coordinate is (r, alpha_j), scaled by 2 / (r, r)."""
    t = linalg.mat_vec(system.gram_matrix, tuple(map(Fraction, root)))
    return tuple(Fraction(2) / linalg.dot(t, root) * c for c in t)


def test_reflection_formulas():
    # [PAPER] s_a(x) = x - a(x) a-check and s_a(b) = b - <a-check, b> a, on
    # the integer group kernel, for the affine roots of levels -1 to 1
    points = [(Fraction(1, 3), Fraction(-2, 5)), (Fraction(0), Fraction(2))]
    for tl in ("A", "C", "G", "BC"):
        aff = affinize(build_finite(tl, 2))
        fin = aff.finite_base
        roots = [aff.root(r, n) for r in fin.roots for n in (-1, 0, 1) if aff.contains(r, n)]
        for a in roots:
            s_a = ExtAffineWeylElement.reflection(aff, a)
            corovec = _coroot_vector(fin, a.direction)
            for x in points + [aff.alcove_interior_point]:
                assert s_a.act_point(x) == tuple(
                    c - _value(a, x) * v for c, v in zip(x, corovec)
                )
            for b in roots:
                k = fin.pair(b.direction, corovec)
                assert k.denominator == 1
                expected = AffineRoot(
                    fin,
                    tuple(q - k * p for p, q in zip(a.direction, b.direction)),
                    b.level - k * a.level,
                )
                assert act_on_affine_root(s_a, b) == expected
    with pytest.raises(ConstantFunction):
        _system_data(affinize(build_finite("A", 2))).coroot((0, 0))


def test_bc_parity_twist():
    bc = build_finite("BC", 1)
    aff = affinize(bc)
    # alpha = (1,) is not in 2Q_R: all levels allowed
    assert aff.contains((1,), 0) and aff.contains((1,), 1)
    # 2alpha = (2,) is in 2Q_R: odd levels only
    assert aff.contains((2,), 1) and aff.contains((2,), -1)
    assert not aff.contains((2,), 0) and not aff.contains((2,), 2)
    with pytest.raises(ValueError):
        AffineRoot(bc, (2,), 0)
    # a direction that is no root at any level
    with pytest.raises(ValueError, match="is not a root of the finite system"):
        AffineRoot(build_finite("A", 2), (2, 0), 1)


def test_non_integral_coordinates_are_rejected():
    # a coordinate or level that is not an integer is not truncated
    a2 = build_finite("A", 2)
    aff = affinize(a2)
    assert not aff.contains((1.5, 0), 0)
    assert not aff.contains((1, 0), 0.5)
    assert not aff.contains((Fraction(3, 2), 0), 0)
    for direction, level in (((1.9, 0), 0.5), ((1.9, 0), 0), ((1, 0), 0.5), ((1, "1/2"), 1)):
        with pytest.raises(ValueError, match="is not an integer"):
            AffineRoot(a2, direction, level)
        with pytest.raises(ValueError):
            aff.root(direction, level)
    # integral values of other types are converted to ints
    a = AffineRoot(a2, (Fraction(1), 1.0), "-2")
    assert a == AffineRoot(a2, (1, 1), -2) and aff.contains((1.0, Fraction(1)), Fraction(4, 2))
    assert all(type(c) is int for c in a.direction) and type(a.level) is int


def test_affinize_base():
    aff = affinize(build_finite("A", 2))
    assert aff.labels == (0, 1, 2)
    a0 = aff.simple_by_label(0)
    assert a0.direction == (-1, -1) and a0.level == 1
    # interior point is strictly inside every simple wall
    for a in aff.simples:
        assert _value(a, aff.alcove_interior_point) > 0


def test_alcove_vertices():
    aff = affinize(build_finite("B", 2))
    verts = aff.alcove_vertices()
    assert verts[0] == (Fraction(0), Fraction(0))
    # theta = (1,2): vertex i is coweight_i / theta_i
    assert verts[1] == (Fraction(1), Fraction(0))
    assert verts[2] == (Fraction(0), Fraction(1, 2))
    # the facet interior point for J = {0} avoids wall 0 only
    x = aff.facet_interior_point(frozenset({1, 2}))
    assert x == (Fraction(0), Fraction(0))


def test_facet_interior_point_is_kept_per_face():
    aff = affinize(build_finite("B", 2))
    x = aff.facet_interior_point({1})
    assert aff.facet_interior_point(frozenset({1})) is x
    for _ in range(2):  # a bad type is refused every time, nothing is kept for it
        with pytest.raises(ValueError, match="proper subset"):
            aff.facet_interior_point({0, 1, 2})


@pytest.mark.parametrize(
    "system", [affinize(build_finite("G", 2)), finite_coxeter(build_finite("B", 3))]
)
def test_face_point_lies_on_exactly_its_walls(system):
    labels = system.labels
    for mask in range(2 ** len(labels) - 1):
        walls = frozenset(l for k, l in enumerate(labels) if mask >> k & 1)
        x = system.facet_interior_point(walls)
        for l, a in zip(labels, system.simples):
            value = _value(a, x)
            assert value == 0 if l in walls else value > 0
    with pytest.raises(ValueError, match="unknown wall labels"):
        system.facet_interior_point(frozenset({9}))


def test_reprs():
    # pytest failure messages show these in place of the whole root system
    from weylkit.spiral import CARTAN

    a2 = build_finite("A", 2)
    assert repr(AffineRoot(a2, (1, 1), 1)) == "AffineRoot((1, 1), +1)"
    assert repr(AffineRoot(a2, (-1, 0), -2)) == "AffineRoot((-1, 0), -2)"
    assert repr(CARTAN) == "Cartan"


def test_finite_mode_contains_level_zero_only():
    fin = finite_coxeter(build_finite("A", 2))
    assert fin.contains((1, 0), 0)
    assert not fin.contains((1, 0), 1)


def test_root_data_to_json():
    sys = build_finite("G", 2)
    assert root_data_to_json(sys) == {
        "type": "G",
        "rank": 2,
        "cartan": [[2, -1], [-3, 2]],
        "gram": [["2/3", "-1"], ["-1", "2"]],
    }


def test_root_data_match_sympy():
    """Cartan matrices (exactly, not up to transpose, so that B_n and C_n are
    told apart), |R+| and, up to rank 3, |W| against sympy.liealgebras for
    every legal (type, rank) it accepts.  sympy rejects A1 and C2;
    `test_cartan_matrices` covers them."""
    cartan_type = pytest.importorskip("sympy.liealgebras.cartan_type")
    from sympy.liealgebras.weyl_group import WeylGroup

    from weylkit.weyl import enumerate_ball

    rejected = []
    for t in "ABCDEFG":
        for n in range(1, 9):
            try:
                finite = build_finite(t, n)
            except IllegalType:
                continue
            try:
                theirs = cartan_type.CartanType(f"{t}{n}")
                their_cartan = theirs.cartan_matrix().tolist()
                their_positive = len(theirs.positive_roots())
            except (IndexError, ValueError):
                rejected.append(f"{t}{n}")
                continue
            assert their_cartan == [list(row) for row in finite.cartan_matrix], (t, n)
            assert len(finite.positive_roots) == their_positive, (t, n)
            if n <= 3:
                # the longest element has length |R+|, so that ball is all of W
                ball = enumerate_ball(finite_coxeter(finite), their_positive)
                assert len(ball) == WeylGroup(f"{t}{n}").group_order(), (t, n)
    assert rejected == ["A1", "C2"]


# -- the integer root data against the Fraction construction they replaced ----


def _legal_pairs():
    for tl in ("A", "B", "C", "D", "E", "F", "G", "BC"):
        for rk in range(1, 9):
            try:
                yield build_finite(tl, rk)
            except IllegalType:
                pass


LEGAL = list(_legal_pairs())


def _reference_root_data(finite):
    """(Cartan matrix, roots) as they were built before the integer
    construction: the Cartan matrix in Fractions off the Gram matrix, and
    the roots as the closure of the simple roots (with 2 alpha_n in type BC)
    under negation and every simple reflection."""
    gram, n = finite.gram_matrix, finite.rank
    cartan = tuple(tuple(int(2 * gram[i][j] / gram[j][j]) for j in range(n)) for i in range(n))
    frontier = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    if finite.type_label == "BC":
        frontier.append((0,) * (n - 1) + (2,))
    roots = set()
    while frontier:
        r = frontier.pop()
        if r in roots:
            continue
        roots.add(r)
        frontier.append(tuple(-c for c in r))
        for i in range(n):
            shift = sum(r[j] * cartan[j][i] for j in range(n))
            frontier.append(tuple(c - shift * (k == i) for k, c in enumerate(r)))
    return cartan, tuple(sorted(roots))


def test_every_legal_pair_is_covered():
    assert len(LEGAL) == 40


@pytest.mark.parametrize("finite", LEGAL, ids=lambda f: f"{f.type_label}{f.rank}")
def test_integer_root_data_match_the_fraction_closure(finite):
    cartan, roots = _reference_root_data(finite)
    assert finite.cartan_matrix == cartan
    assert finite.roots == roots
    positive = tuple(r for r in roots if any(c > 0 for c in r))
    assert finite.positive_roots == positive
    assert finite.highest_root() == max(positive, key=lambda r: (sum(r), r))
    assert all(type(c) is int for row in finite.cartan_matrix for c in row)
    assert all(type(c) is int for r in finite.roots for c in r)


@pytest.mark.parametrize("finite", LEGAL, ids=lambda f: f"{f.type_label}{f.rank}")
def test_integer_coroots_match_the_gram_formula(finite):
    data = _system_data(affinize(finite))
    assert finite.gram6 == tuple(tuple(6 * e for e in row) for row in finite.gram_matrix)
    for r in finite.roots:
        corovec = data.coroot(r)
        assert corovec == _coroot_vector(finite, r), r
        assert all(type(c) is int for c in corovec)


def test_integer_coroot_refuses_a_remainder_and_the_zero_functional():
    data = _system_data(affinize(build_finite("B", 2)))
    # G = [[2, -1], [-1, 1]]: r = (1, 3) has G r = (-1, 2) and (r, r) = 5, so
    # its first coordinate would be 2 (-1) / 5
    for _ in range(2):  # refused every time, nothing is kept for either
        with pytest.raises(ValueError, match="^-2/5 is not an integer$"):
            data.coroot((1, 3))
        with pytest.raises(ConstantFunction, match="zero functional"):
            data.coroot((0, 0))
    assert (1, 3) not in data.coroots and (0, 0) not in data.coroots


# Builds the root system, affinization and group data of each (type, rank)
# in argv[2:] in a fresh interpreter, counting each call of a Fraction method
# by the weylkit function that made it (comprehension frames are read as the
# function around them; calls inside `fractions` itself are not counted):
# prints {"function method": calls}.
_FRACTION_CALLS = """
import collections, fractions, json, sys

Fraction, counts = fractions.Fraction, collections.Counter()
METHODS = [
    name for name, value in vars(Fraction).items()
    if name.startswith("__") and callable(value) and name not in ("__init_subclass__",)
]

def counting(name, method):
    def counted(*args, **kwargs):
        frame = sys._getframe(1)
        while frame.f_code.co_name.startswith("<"):
            frame = frame.f_back
        if frame.f_code.co_filename != fractions.__file__:
            counts[frame.f_code.co_name + " " + name] += 1
        return method(*args, **kwargs)
    return counted

for name in METHODS:
    method = vars(Fraction)[name]
    if isinstance(method, staticmethod):
        setattr(Fraction, name, staticmethod(counting(name, method.__func__)))
    else:
        setattr(Fraction, name, counting(name, method))

from weylkit.root_system import affinize, build_finite
from weylkit.weyl import _system_data

counts.clear()
for spec in sys.argv[2:]:
    type_label, rank = spec.split(":")
    _system_data(affinize(build_finite(type_label, int(rank))))
print(json.dumps(counts))
"""


def test_root_data_run_no_fraction_arithmetic():
    # the Gram matrix of the diagram, kept for printing and for checking an
    # element's matrix, is the only Fraction arithmetic of the root data;
    # the alcove interior point builds one Fraction per system
    from test_golden import _run_fresh

    counts = _run_fresh(_FRACTION_CALLS, "E:8", "BC:8", "G:2")
    callers = {key.split()[0] for key in counts}
    assert callers == {"_simple_gram", "_build_affinization"}, counts
    assert {key for key in counts if key.startswith("_build_affinization")} == {
        "_build_affinization __new__"
    }, counts
    assert counts["_build_affinization __new__"] == 3


# -- the raising chain: each positive root as a lower root plus c alpha_i ------


@pytest.mark.parametrize("finite", LEGAL, ids=lambda f: f"{f.type_label}{f.rank}")
def test_raising_chain_rebuilds_the_positive_roots(finite):
    from weylkit.weyl import _root_pairings

    raised, chain = finite.raising
    n = finite.rank
    assert sorted(raised) == sorted(finite.positive_roots) and len(set(raised)) == len(raised)
    assert raised[:n] == tuple(tuple(int(j == i) for j in range(n)) for i in range(n))
    assert len(chain) == len(raised) - n
    for k, (j, i, c) in enumerate(chain, start=n):
        assert 0 <= j < k and 0 <= i < n and c > 0  # every parent precedes its child
        rebuilt = list(raised[j])
        rebuilt[i] += c
        assert tuple(rebuilt) == raised[k]
    # the chain the build records is the one a system made by the
    # constructor raises again
    copy = type(finite)(
        finite.type_label, n, finite.cartan_matrix, finite.gram_matrix, finite.roots
    )
    assert copy.raising == finite.raising
    # the pairing primitive is the dot product with every raised root
    rng = random.Random(f"{finite.type_label}{n}")
    for _ in range(5):
        v = tuple(rng.randint(-9, 9) for _ in range(n))
        assert _root_pairings(chain, v) == [sum(a * x for a, x in zip(r, v)) for r in raised]


def test_raising_chain_steps_in_bc_and_g2():
    # BC_n records 2 alpha_n as alpha_n + alpha_n; G2 raises alpha_2 by
    # 3 alpha_1, alpha_1 being short
    raised, chain = build_finite("BC", 3).raising
    assert raised[3] == (0, 0, 2) and chain[0] == (2, 2, 1)
    raised, chain = build_finite("G", 2).raising
    assert raised[3] == (3, 1) and chain[1] == (1, 0, 3)
