import random
from fractions import Fraction

import pytest

from weylkit import weyl
from weylkit.linalg import frac_str, mat_inv, mat_vec, numerators, numerators_str, transpose
from weylkit.root_system import (
    AffineRoot,
    IllegalType,
    affinize,
    build_finite,
    finite_coxeter,
)
from weylkit.weyl import (
    BallTooLarge,
    DifferentComponents,
    ExtAffineWeylElement,
    NotAReflection,
    ReducedWord,
    _element,
    _finite_parts,
    _FinitePart,
    act_on_affine_root,
    automorphism_part,
    bruhat_leq,
    canonical_reflection_key,
    closure,
    double_coset_min_rep,
    element_from_json,
    element_to_json,
    enumerate_ball,
    eta,
    has_left_descent,
    has_right_descent,
    length,
    min_coset_rep,
    mul_simple,
    reduced_word,
    reflection_root_of,
    reflections_T,
    simple_mul,
)


@pytest.fixture(scope="module")
def aff_a1():
    return affinize(build_finite("A", 1))


@pytest.fixture(scope="module")
def aff_a2():
    return affinize(build_finite("A", 2))


@pytest.fixture(scope="module")
def fin_b2():
    return finite_coxeter(build_finite("B", 2))


def s(ambient, label):
    return ExtAffineWeylElement.simple(ambient, label)


def test_simple_reflections_are_involutions(aff_a2):
    for l in aff_a2.labels:
        g = s(aff_a2, l)
        assert (g * g).is_identity()
        assert length(g) == 1


def test_translation_action(aff_a1):
    # [PAPER] X^mu a = a - <da, mu>
    x = ExtAffineWeylElement.translation(aff_a1, (Fraction(2),))  # theta-check
    a = aff_a1.root((1,), 0)
    assert act_on_affine_root(x, a) == AffineRoot(aff_a1.finite_base, (1,), -2)
    assert length(x) == 2
    assert reduced_word(x).letters == (0, 1)


def test_affine_reflection_formula(aff_a1):
    # [DERIVED] s0 = s_{1-theta} maps theta to -theta + 2
    s0 = s(aff_a1, 0)
    assert act_on_affine_root(s0, aff_a1.root((1,), 0)) == AffineRoot(
        aff_a1.finite_base, (-1,), 2
    )


def test_lengths_affine_a1(aff_a1):
    # [DERIVED] the infinite dihedral group: alternating words are reduced
    g = ExtAffineWeylElement.identity(aff_a1)
    for k, label in enumerate([0, 1, 0, 1, 0]):
        g = g * s(aff_a1, label)
        assert length(g) == k + 1


def test_ball_sizes_affine_a1(aff_a1):
    ball = enumerate_ball(aff_a1, 5)
    # 1 + 2 per length level
    assert len(ball) == 11


def test_closure_without_radius_hits_the_cap(aff_a1, monkeypatch):
    e = ExtAffineWeylElement.identity(aff_a1)
    gens = [s(aff_a1, 0), s(aff_a1, 1)]
    # the infinite dihedral group never closes: the cap ends the search
    monkeypatch.setattr(weyl, "BALL_CAP", 50)
    with pytest.raises(BallTooLarge, match="cap of 50 elements"):
        closure(e, gens)
    assert closure(e, gens, radius=3) == enumerate_ball(aff_a1, 3)


def test_strip_outrunning_the_length_raises(aff_a1, monkeypatch):
    g = s(aff_a1, 0) * s(aff_a1, 1) * s(aff_a1, 0)
    word = weyl.reduced_word(g).letters
    # a strip longer than STRIP_CHECK steps is checked against l(g), which
    # bounds every strip of g, and a true one runs on
    monkeypatch.setattr(weyl, "STRIP_CHECK", 1)
    assert weyl.reduced_word(g).letters == word == (0, 1, 0)
    # a descent test that never says no would strip forever
    monkeypatch.setattr(weyl, "has_left_descent", lambda g, label: True)
    with pytest.raises(RuntimeError, match="ran 4 steps from length 3"):
        weyl.reduced_word(g)


def test_longest_element_a2():
    a2 = finite_coxeter(build_finite("A", 2))
    w0 = s(a2, 1) * s(a2, 2) * s(a2, 1)
    assert length(w0) == 3
    assert reduced_word(w0).letters == (1, 2, 1)
    assert len(reflections_T(w0)) == 3
    ball = enumerate_ball(a2, 10)
    assert len(ball) == 6  # |W(A2)|


def test_b2_weyl_group(fin_b2):
    ball = enumerate_ball(fin_b2, 10)
    assert len(ball) == 8
    w0 = max(ball, key=length)
    assert length(w0) == 4
    assert len(reflections_T(w0)) == 4


def test_length_is_card_T(aff_a2):
    # [PAPER] l(w) = #T(w)
    for g in enumerate_ball(aff_a2, 4):
        assert length(g) == len(reflections_T(g))


def test_descents(fin_b2):
    g = s(fin_b2, 1) * s(fin_b2, 2)
    assert has_right_descent(g, 2) and not has_right_descent(g, 1)
    assert has_left_descent(g, 1) and not has_left_descent(g, 2)


def test_reduced_word_roundtrip(aff_a2):
    rng = random.Random(7)
    labels = list(aff_a2.labels)
    for _ in range(25):
        g = ExtAffineWeylElement.identity(aff_a2)
        for _ in range(rng.randrange(8)):
            g = g * s(aff_a2, rng.choice(labels))
        rw = reduced_word(g)
        assert rw.evaluate() == g
        assert len(rw) == length(g)


def test_delta_permutation_rejects_an_element_of_positive_length(aff_a2):
    with pytest.raises(ValueError, match="^element of length 0 does not permute the base$"):
        weyl._delta_permutation(s(aff_a2, 1))


def test_automorphism_part_of_lattice_translation(aff_a2):
    # X^{coweight_1} lies outside W_S: its length-0 part is a diagram rotation
    x = ExtAffineWeylElement.translation(aff_a2, (Fraction(1), Fraction(0)))
    pi = automorphism_part(x)
    assert not pi.is_identity()
    assert length(pi) == 0
    rw = reduced_word(x)
    assert rw.pi == pi and rw.evaluate() == x


def test_reflection_recovery(aff_a2):
    for direction, level in [((1, 0), 0), ((1, 1), 0), ((1, 1), -3), ((-1, 0), 2)]:
        a = aff_a2.root(direction, level)
        g = ExtAffineWeylElement.reflection(aff_a2, a)
        assert (g * g).is_identity()
        assert reflection_root_of(g) == canonical_reflection_key(a)
    with pytest.raises(NotAReflection):
        reflection_root_of(s(aff_a2, 0) * s(aff_a2, 1))
    # a translation negates no root
    with pytest.raises(NotAReflection):
        reflection_root_of(ExtAffineWeylElement.translation(aff_a2, (1, -1)))


@pytest.mark.parametrize(
    "type_label,rank,word",
    [
        # w0 = -1 negates every root, yet is no reflection
        ("B", 2, (1, 2, 1, 2)),
        ("G", 2, (1, 2, 1, 2, 1, 2)),
        # s1 s3 negates alpha_1, alpha_3 and alpha_1 + alpha_3
        ("A", 3, (1, 3)),
    ],
)
def test_reflection_recovery_rejects_root_negating_elements(type_label, rank, word):
    ambient = finite_coxeter(build_finite(type_label, rank))
    g = ExtAffineWeylElement.identity(ambient)
    for l in word:
        g = g * s(ambient, l)
    # several positive roots are negated, so the search reaches its closing check
    negated = [
        r for r in ambient.finite_base.positive_roots
        if g.act_gradient(r) == tuple(-c for c in r)
    ]
    assert len(negated) > 1
    with pytest.raises(NotAReflection):
        reflection_root_of(g)


@pytest.mark.parametrize("type_label,rank", [("A", 2), ("C", 2), ("G", 2), ("BC", 2)])
def test_reflection_recovery_every_root(type_label, rank):
    ambient = affinize(build_finite(type_label, rank))
    seen = 0
    for _ in range(2):  # a second pass reads the coroots kept from the first
        for direction in ambient.finite_base.roots:
            for level in range(-3, 4):
                if not ambient.contains(direction, level):
                    continue
                a = ambient.root(direction, level)
                g = ExtAffineWeylElement.reflection(ambient, a)
                assert reflection_root_of(g) == canonical_reflection_key(a)
                seen += 1
    assert seen > 0


def test_eta_sign(fin_b2):
    w0 = s(fin_b2, 1) * s(fin_b2, 2) * s(fin_b2, 1) * s(fin_b2, 2)
    t = fin_b2.root((1, 0), 0)
    assert eta(w0, t) == -1
    assert eta(ExtAffineWeylElement.identity(fin_b2), t) == 1
    # a reflection element and its root give one sign
    g = s(fin_b2, 1) * s(fin_b2, 2)
    assert eta(g, s(fin_b2, 1)) == eta(g, fin_b2.simple_by_label(1)) == -1
    with pytest.raises(NotAReflection):
        eta(g, "x")


def test_T_multiplicativity(aff_a2):
    # [PAPER] T(wy) is contained in T(w) union w T(y) w^{-1}
    rng = random.Random(11)
    ball = sorted(enumerate_ball(aff_a2, 3), key=lambda g: (g.mu, g.matrix))
    for _ in range(50):
        w, y = rng.choice(ball), rng.choice(ball)
        tw = reflections_T(w)
        conj = {
            reflection_root_of(
                w * ExtAffineWeylElement.reflection(aff_a2, t) * w.inverse()
            )
            for t in reflections_T(y)
        }
        assert reflections_T(w * y) <= tw | conj


def test_bruhat_order(fin_b2):
    s1, s2 = s(fin_b2, 1), s(fin_b2, 2)
    assert bruhat_leq(s1, s1 * s2)
    assert not bruhat_leq(s2, s1)
    assert bruhat_leq(s1, s1 * s2 * s1 * s2)


def test_bruhat_different_components(aff_a2):
    x = ExtAffineWeylElement.translation(aff_a2, (Fraction(1), Fraction(0)))
    with pytest.raises(DifferentComponents):
        bruhat_leq(x, ExtAffineWeylElement.identity(aff_a2))


def test_min_coset_rep(fin_b2):
    g = s(fin_b2, 2) * s(fin_b2, 1)
    assert min_coset_rep(g, {1}, "right") == s(fin_b2, 2)
    assert min_coset_rep(g, {2}, "left") == s(fin_b2, 1)
    assert double_coset_min_rep(g, {2}, {1}).is_identity()


def _oracle_double_coset_min_rep(g, left_set, right_set):
    """Strip on both sides until nothing changes: the loop that one pass of
    each strip replaced."""
    while True:
        h = min_coset_rep(min_coset_rep(g, left_set, "left"), right_set, "right")
        if h == g:
            return h
        g = h


@pytest.mark.parametrize(
    "tl,rk,affine",
    [("A", 2, True), ("C", 2, True), ("G", 2, True), ("BC", 2, True), ("B", 3, False)],
)
def test_double_coset_min_rep_against_the_fixpoint_loop(tl, rk, affine):
    finite = build_finite(tl, rk)
    ambient = affinize(finite) if affine else finite_coxeter(finite)
    labels = ambient.labels
    subsets = [
        frozenset(l for k, l in enumerate(labels) if mask >> k & 1)
        for mask in range(2 ** len(labels))
    ]
    for g in enumerate_ball(ambient, 3):
        for left in subsets:
            for right in subsets:
                got = double_coset_min_rep(g, left, right)
                assert got == _oracle_double_coset_min_rep(g, left, right), (g, left, right)


def test_element_json_roundtrip(aff_a2):
    g = s(aff_a2, 0) * s(aff_a2, 2) * s(aff_a2, 1)
    data = element_to_json(g)
    assert element_from_json(aff_a2, data) == g
    bad = dict(data)
    bad["w"] = [["1", "1"], ["0", "1"]]
    with pytest.raises(ValueError):
        element_from_json(aff_a2, bad)
    with pytest.raises(ValueError, match="length-2 mu"):
        element_from_json(aff_a2, {**data, "mu": ["0", "0", "0"]})
    # on finite A2 both simple roots map to roots, so only the Gram form refuses it
    fin_a2 = finite_coxeter(build_finite("A", 2))
    with pytest.raises(ValueError, match="not orthogonal for the Gram form"):
        element_from_json(fin_a2, bad)


@pytest.mark.parametrize("affine", [True, False], ids=["affine", "finite"])
@pytest.mark.parametrize(
    "type_label,rank",
    [("A", 2), ("A", 3), ("B", 3), ("C", 2), ("G", 2), ("BC", 2), ("D", 4), ("E", 6), ("F", 4)],
)
def test_element_json_reads_back_every_ball_element(type_label, rank, affine):
    finite = build_finite(type_label, rank)
    ambient = affinize(finite) if affine else finite_coxeter(finite)
    shifts = [ExtAffineWeylElement.identity(ambient)]
    if affine:  # X^{coweight_1} w leaves W_S: a nontrivial length-0 part
        shifts.append(ExtAffineWeylElement.translation(ambient, (1,) + (0,) * (rank - 1)))
    for w in enumerate_ball(ambient, 3):
        for g in (x * w for x in shifts):
            assert element_from_json(ambient, element_to_json(g)) == g


def test_element_json_refuses_what_is_not_in_the_group():
    a1, a2 = build_finite("A", 1), build_finite("A", 2)
    # the diagram flip permutes the roots and keeps the form, but is not in W0
    flip = {"mu": ["0", "0"], "w": [["0", "1"], ["1", "0"]]}
    for ambient in (affinize(a2), finite_coxeter(a2)):
        with pytest.raises(ValueError, match="not in the finite Weyl group"):
            element_from_json(ambient, flip)
    with pytest.raises(ValueError, match="no translations"):
        element_from_json(finite_coxeter(a1), {"mu": ["1"], "w": [["1"]]})
    # a missing key, a non-list (a string is not read digit by digit), a
    # non-number entry, or no object at all
    for bad in (
        {"w": [["1"]]},
        {"mu": 1, "w": [["1"]]},
        {"mu": "1", "w": [["1"]]},
        {"mu": ["0"], "w": ["1"]},
        {"mu": [None], "w": [["1"]]},
        None,
    ):
        with pytest.raises(ValueError, match="lists of integers"):
            element_from_json(affinize(a1), bad)
    # matrices outside the group are refused as before, and refused before
    # their finite part is interned (so none is inverted)
    for rows, message in (
        ([[0, 0], [0, 0]], "does not permute the root system"),
        ([[2, 0], [0, 1]], "does not permute the root system"),
        ([[1, 0, 0], [0, 1, 0]], "length-2 mu and an 2x2 matrix"),
    ):
        with pytest.raises(ValueError, match=message):
            element_from_json(affinize(a2), {"mu": ["0", "0"], "w": rows})
        assert tuple(map(tuple, rows)) not in _finite_parts


# (type, rank, radius) of the affine balls checked against the brute-force
# inversion count, including the non-reduced BC systems and G2
ORACLE_BALLS = [
    ("A", 2, 6), ("BC", 1, 8), ("BC", 2, 6), ("C", 2, 6),
    ("G", 2, 6), ("B", 3, 4), ("D", 4, 3), ("F", 4, 3),
]


def _inversions(g):
    """Brute-force oracle: the affine roots a in S+ with g(a) in S-, found by
    testing every level from 0 up to the one g moves to 0, through the exact
    public action."""
    ambient = g.ambient
    finite = ambient.finite_base
    for alpha in finite.roots:
        # g(alpha + n) = galpha + (n + shift)
        galpha, shift = g.act_affine(alpha, 0)
        for n in range(0, 1 - int(shift) if ambient.affine else 1):
            if not ambient.contains(alpha, n):
                continue
            a = AffineRoot(finite, alpha, n)
            if a.is_positive() and not AffineRoot(finite, galpha, n + shift).is_positive():
                yield a


def _check_against_oracle(g):
    assert all(type(c) is int for c in g.mu)
    assert all(type(c) is int for row in g.matrix for c in row)
    assert length(g) == sum(1 for _ in _inversions(g))
    assert reflections_T(g) == frozenset(
        canonical_reflection_key(a) for a in _inversions(g.inverse())
    )
    assert (g * g.inverse()).is_identity()
    assert (g.inverse() * g).is_identity()


@pytest.mark.parametrize("type_label,rank,radius", ORACLE_BALLS)
def test_integer_kernel_against_inversion_oracle(type_label, rank, radius):
    # each ball element g, and g X^{omega_1} and its length-0 part, which
    # leave W_S wherever omega_1 is not in Q^v
    ambient = affinize(build_finite(type_label, rank))
    x = ExtAffineWeylElement.translation(ambient, (1,) + (0,) * (rank - 1))
    for g in enumerate_ball(ambient, radius):
        gx = g * x
        for h in (g, gx, automorphism_part(gx)):
            _check_against_oracle(h)


@pytest.mark.parametrize("type_label,rank,radius", [("B", 3, 9), ("G", 2, 6), ("F", 4, 3)])
def test_integer_kernel_against_inversion_oracle_finite(type_label, rank, radius):
    for g in enumerate_ball(finite_coxeter(build_finite(type_label, rank)), radius):
        _check_against_oracle(g)


def _is_point_matrix_of(p, m):
    """Whether p m^T = I in exact integers."""
    n = len(m)
    return all(type(c) is int for row in p for c in row) and all(
        sum(p[i][k] * m[j][k] for k in range(n)) == int(i == j)
        for i in range(n)
        for j in range(n)
    )


def test_recorded_point_matrices_invert_their_transposes(monkeypatch):
    # the oracle balls above (again here, so that the test stands alone) and
    # their inverses fill the table from products, reflections and inverses
    for type_label, rank, radius in ORACLE_BALLS:
        for g in enumerate_ball(affinize(build_finite(type_label, rank)), radius):
            g.inverse()
    # a matrix from outside, whose record is removed first, is inverted once
    aff_g2 = affinize(build_finite("G", 2))
    g = s(aff_g2, 0) * s(aff_g2, 1) * s(aff_g2, 2) * s(aff_g2, 1)
    expected = _finite_parts.pop(g.matrix).p
    inversions = []

    def counted_mat_inv(m):
        inversions.append(m)
        return mat_inv(m)

    monkeypatch.setattr("weylkit.weyl.mat_inv", counted_mat_inv)
    h = element_from_json(aff_g2, element_to_json(g))
    assert h.fin.p == expected and len(inversions) == 1
    again = element_from_json(aff_g2, element_to_json(g))
    assert again.fin is h.fin and len(inversions) == 1  # kept
    assert len(_finite_parts) > 100
    for m, fin in _finite_parts.items():
        assert fin.m is m and _is_point_matrix_of(fin.p, m), m


def test_group_operations_never_invert(monkeypatch):
    # 40-letter words on E6, F4 and G2 reach finite parts that no other test
    # forms, so this fails wherever a point matrix is still inverted
    def refuse(m):
        raise AssertionError("the group kernel inverted a matrix")

    monkeypatch.setattr("weylkit.weyl.mat_inv", refuse)
    rng = random.Random(40)
    for type_label, rank in [("E", 6), ("F", 4), ("G", 2)]:
        ambient = affinize(build_finite(type_label, rank))
        one = ExtAffineWeylElement.identity(ambient)
        for _ in range(5):
            letters = tuple(rng.choice(ambient.labels) for _ in range(40))
            g = ReducedWord(ambient, one, letters).evaluate()
            h = g.inverse()
            assert (g * h).is_identity() and (h * g).is_identity()
            word = reduced_word(g)
            assert word.evaluate() == g and len(word) == length(g)
            assert reduced_word(h).evaluate() == h
            x = tuple(Fraction(rng.randrange(-9, 10), 7) for _ in range(rank))
            assert h.act_point(g.act_point(x)) == x
            assert g.act_point(x) == _act_point_oracle(g, x)


def _poincare_b(n):
    """Sphere sizes of the finite Weyl group of type B_n: the coefficients
    of the product over i = 1..n of 1 + q + ... + q^(2i - 1)."""
    coeffs = [1]
    for i in range(1, n + 1):
        out = [0] * (len(coeffs) + 2 * i - 1)
        for k, c in enumerate(coeffs):
            for j in range(2 * i):
                out[k + j] += c
        coeffs = out
    return coeffs


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_finite_bc_is_finite_b(rank):
    # level 0 is even, so no 2Q_R root of BC_n is a finite-mode root, and
    # the finite group of BC_n is that of B_n (of A_1 when n = 1)
    def spheres(ambient):
        counts = [0] * (rank * rank + 1)
        for l in enumerate_ball(ambient, rank * rank).values():
            counts[l] += 1
        return counts

    bc = finite_coxeter(build_finite("BC", rank))
    assert spheres(bc) == _poincare_b(rank)
    if rank > 1:
        assert spheres(finite_coxeter(build_finite("B", rank))) == _poincare_b(rank)
    for g in enumerate_ball(bc, rank * rank):
        _check_against_oracle(g)
        assert length(g) == len(reduced_word(g).letters) == len(reflections_T(g))


def test_descents_of_extended_elements_match_length_drops(aff_a2):
    # X^{coweight_1} w leaves W_S; descents must still be the length drops
    x = ExtAffineWeylElement.translation(aff_a2, (1, 0))
    for w in enumerate_ball(aff_a2, 3):
        for g in (w, x * w, w * x, x * w * x):
            _check_against_oracle(g)
            for l in aff_a2.labels:
                sl = s(aff_a2, l)
                assert has_left_descent(g, l) == (length(sl * g) < length(g))
                assert has_right_descent(g, l) == (length(g * sl) < length(g))


def test_element_entries_must_be_integers(aff_a2):
    data = element_to_json(s(aff_a2, 0))
    for bad in ({**data, "mu": ["1/2", "0"]}, {**data, "w": [["1/2", "0"], ["0", "1"]]}):
        with pytest.raises(ValueError):
            element_from_json(aff_a2, bad)
    with pytest.raises(ValueError):
        ExtAffineWeylElement.translation(aff_a2, (Fraction(1, 3), Fraction(0)))


def test_translation_on_a_finite_system_raises():
    # X^mu with mu != 0 is not in the finite Weyl group, which the kernel
    # would answer for (length 2 and |T| = 2 on finite A2); mu = 0 is e
    a2 = finite_coxeter(build_finite("A", 2))
    with pytest.raises(ValueError, match="a finite system has no translations"):
        ExtAffineWeylElement.translation(a2, (1, 0))
    assert ExtAffineWeylElement.translation(a2, (0, 0)) == ExtAffineWeylElement.identity(a2)


def test_actions_stay_exact(aff_a2):
    g = s(aff_a2, 0) * s(aff_a2, 1)
    point = g.act_point((Fraction(1, 3), Fraction(1, 5)))
    grad, const = g.act_affine((1, 0), 0)
    assert all(type(c) is Fraction for c in point + grad + (const,))
    assert g.inverse().act_point(point) == (Fraction(1, 3), Fraction(1, 5))



def _act_point_oracle(g, x):
    """g(x) = P x + mu in Fractions, the rational form the integer kernel of
    act_point replaces."""
    px = mat_vec(mat_inv(transpose(g.matrix)), tuple(Fraction(c) for c in x))
    return tuple(a + b for a, b in zip(px, g.mu, strict=True))


@pytest.mark.parametrize("type_label,rank", [("A", 2), ("C", 2), ("G", 2), ("B", 3), ("BC", 2)])
def test_act_point_matches_the_rational_form(type_label, rank):
    ambient = affinize(build_finite(type_label, rank))
    rng = random.Random(17)
    for _ in range(20):
        g = ExtAffineWeylElement.identity(ambient)
        for _ in range(rng.randrange(9)):
            g = g * ExtAffineWeylElement.simple(ambient, rng.choice(ambient.labels))
        g = g * ExtAffineWeylElement.translation(
            ambient, tuple(rng.randrange(-3, 4) for _ in range(rank))
        )
        points = [
            tuple(rng.randrange(-5, 6) for _ in range(rank)),  # ints
            tuple(Fraction(rng.randrange(-9, 10), 7) for _ in range(rank)),  # one denominator
            tuple(Fraction(rng.randrange(-9, 10), rng.randrange(1, 13)) for _ in range(rank)),
            (Fraction(1, 6),) + tuple(rng.randrange(-2, 3) for _ in range(rank - 1)),  # mixed
        ]
        for x in points:
            got = g.act_point(x)
            assert got == _act_point_oracle(g, x)
            assert all(type(c) is Fraction for c in got)


def _printed_by_fractions(g, x):
    """g(x) printed by the Fraction route: the rational form, then frac_str."""
    return ",".join(frac_str(c) for c in _act_point_oracle(g, x))


def _printed_by_numerators(g, x):
    nums, den = numerators(x)
    return numerators_str(g.act_numerators(nums, den), den)


@pytest.mark.parametrize("affine", [True, False], ids=["affine", "finite"])
@pytest.mark.parametrize(
    "type_label,rank", [("A", 2), ("B", 3), ("C", 3), ("G", 2), ("F", 4), ("BC", 2)]
)
def test_act_numerators_prints_as_the_fraction_route(type_label, rank, affine):
    # every element of the radius-2 ball on every facet type's interior point
    finite = build_finite(type_label, rank)
    ambient = affinize(finite) if affine else finite_coxeter(finite)
    labels = ambient.labels
    types = [
        frozenset(l for k, l in enumerate(labels) if mask >> k & 1)
        for mask in range(2 ** len(labels) - 1)
    ]
    points = [ambient.facet_interior_point(t) for t in types]
    # mixed denominators (over 6, -1/2 is -3/6 and prints reduced), zero,
    # negative and integral coordinates
    points.append((Fraction(1, 3), Fraction(-1, 2), 0, -2)[:rank])
    points.append((Fraction(-3, 2),) + (0,) * (rank - 1))
    for g in enumerate_ball(ambient, 2):
        for x in points:
            assert _printed_by_numerators(g, x) == _printed_by_fractions(g, x)
            assert g.act_point(x) == _act_point_oracle(g, x)


def test_act_point_rejects_a_point_of_the_wrong_dimension(aff_a2):
    with pytest.raises(ValueError, match="dimension"):
        s(aff_a2, 0).act_point((Fraction(1, 2),))


# (type, rank, affine): every label of these radius-3 balls in both kernels
KERNEL_BALLS = [
    ("A", 2, True), ("C", 2, True), ("G", 2, True), ("BC", 2, True), ("B", 3, True),
    ("D", 4, True), ("F", 4, True), ("E", 6, True), ("A", 3, False), ("B", 3, False),
]


def test_kernel_links_are_kept_per_wall_not_per_label():
    """Systems of one rank share finite parts (the identity, for one) but not
    walls: label 1 of A2, C2, G2 and BC2 is a different wall.  Over the
    radius-3 balls of these four, affine and finite, formed by the general
    product alone, the two kernels and both descent tests are interleaved
    across the systems, element by element, and each result is checked
    against the general product and against the sign of the image of the
    simple root under g and under g^-1."""
    systems = []
    for type_label in ("A", "C", "G", "BC"):
        finite = build_finite(type_label, 2)
        for ambient in (affinize(finite), finite_coxeter(finite)):
            gens = [s(ambient, l) for l in ambient.labels]
            ball = list(closure(ExtAffineWeylElement.identity(ambient), gens, 3))
            systems.append((ambient, ball))
    checked = 0
    for i in range(max(len(ball) for _, ball in systems)):
        for ambient, ball in systems:
            if i >= len(ball):
                continue
            g = ball[i]
            g_inv = g.inverse()
            for l, a in zip(ambient.labels, ambient.simples):
                assert mul_simple(g, l) == g * s(ambient, l)
                assert simple_mul(l, g) == s(ambient, l) * g
                image = weyl._image(g_inv.matrix, g_inv.mu, a.direction, a.level)
                assert has_left_descent(g, l) == weyl._is_negative(*image)
                image = weyl._image(g.matrix, g.mu, a.direction, a.level)
                assert has_right_descent(g, l) == weyl._is_negative(*image)
                checked += 1
    assert checked > 200


def test_product_and_inverse_links_do_not_depend_on_the_system():
    """A product or inverse of finite parts is the same matrix in every
    system, so its link is kept on the record with no system key.  Over the
    radius-3 balls of affine and finite A2, C2, G2 and BC2 and of affine B2
    (affine B2 and BC2 share every finite part of these balls, and any two
    systems share some), interleaved element by element, g is multiplied by
    every earlier element h on both sides: each product's m is m1 m2, its P
    is (m^T)^-1, and forming it again returns the same record; g^-1 has
    point matrix m^T and g g^-1 is the identity."""
    ambients = []
    for type_label in ("A", "C", "G", "BC"):
        finite = build_finite(type_label, 2)
        ambients += [affinize(finite), finite_coxeter(finite)]
    ambients.append(affinize(build_finite("B", 2)))
    systems = [
        list(closure(ExtAffineWeylElement.identity(a), [s(a, l) for l in a.labels], 3))
        for a in ambients
    ]
    oracle = {}
    checked = 0
    for i in range(max(map(len, systems))):
        for ball in systems:
            if i >= len(ball):
                continue
            g = ball[i]
            for h in ball[: i + 1]:
                for x, y in ((g, h), (h, g)):
                    xy = x * y
                    m = xy.matrix
                    assert m == weyl._mat_mul(x.matrix, y.matrix)
                    if m not in oracle:
                        oracle[m] = mat_inv(transpose(m))
                    assert xy.fin.p == oracle[m]
                    assert (x * y).fin is xy.fin
                    checked += 1
            g_inv = g.inverse()
            assert g_inv.fin.p == transpose(g.matrix)
            assert (g * g_inv).is_identity() and g.inverse().fin is g_inv.fin
    assert checked > 1500


@pytest.mark.parametrize("type_label,rank,affine", KERNEL_BALLS)
def test_simple_kernels_are_the_general_product(type_label, rank, affine, monkeypatch):
    """g s_l and s_l g from the rank-one kernels equal the general product,
    and the point matrix each kernel records is (m^T)^-1 of the product: the
    kernel runs from a fresh record of g's, with no links, in a table that
    holds only that record, so it records its product's itself."""
    finite = build_finite(type_label, rank)
    ambient = affinize(finite) if affine else finite_coxeter(finite)
    recorded = weyl._finite_parts
    oracle = {}
    for g in enumerate_ball(ambient, 3):
        for l in ambient.labels:
            got = []
            for kernel in (mul_simple, lambda x, l: simple_mul(l, x)):
                fresh = _FinitePart(g.matrix, recorded[g.matrix].p)
                monkeypatch.setattr(weyl, "_finite_parts", {g.matrix: fresh})
                h = kernel(_element(ambient, g.mu, fresh), l)
                m = h.matrix
                if m not in oracle:
                    oracle[m] = mat_inv(transpose(m))
                assert weyl._finite_parts[m] is h.fin and h.fin.p == oracle[m]
                got.append(h)
            monkeypatch.setattr(weyl, "_finite_parts", recorded)
            assert got == [g * s(ambient, l), s(ambient, l) * g]


def test_kernels_reject_an_unknown_label(aff_a2):
    # the product kernels, both descent tests, simple_by_label and the simple reflection
    e = ExtAffineWeylElement.identity(aff_a2)
    for call in (
        lambda: mul_simple(e, 7),
        lambda: simple_mul(7, e),
        lambda: has_left_descent(e, 7),
        lambda: has_right_descent(e, 7),
        lambda: aff_a2.simple_by_label(7),
        lambda: ExtAffineWeylElement.simple(aff_a2, 7),
    ):
        with pytest.raises(ValueError, match="^unknown simple label 7$"):
            call()


@pytest.mark.parametrize(
    "tl,rk,affine",
    [
        ("A", 2, True),
        ("C", 2, True),
        ("G", 2, True),
        ("BC", 2, True),
        ("B", 3, True),
        ("B", 3, False),
    ],
)
def test_kernel_roots_pass_the_validating_constructor(tl, rk, affine):
    """The roots the kernel builds unchecked (`root_system._affine_root`):
    the simples, every image g(a) of a simple root, its negative, T(g) and
    the conjugates of the reflections of every facet type, for every g of
    the radius-3 ball, are affine roots of int coordinates that the
    validating constructor and `contains` accept unchanged."""
    from weylkit.relative import ParabolicSubset

    finite = build_finite(tl, rk)
    ambient = affinize(finite) if affine else finite_coxeter(finite)
    labels = ambient.labels
    types = [
        frozenset(l for k, l in enumerate(labels) if mask >> k & 1)
        for mask in range(2 ** len(labels) - 1)
    ]
    type_reflections = [ParabolicSubset(ambient, t).reflections() for t in types]
    # a list, not a set: a set keeps one of two equal roots, and 1.0 == 1
    seen = list(ambient.simples)
    for g in enumerate_ball(ambient, 3):
        images = [act_on_affine_root(g, a) for a in ambient.simples]
        seen += images
        seen += [a.negate() for a in images]
        seen += reflections_T(g)
        for ts in type_reflections:
            seen += weyl.conjugate_reflections(g, ts)
    for a in seen:
        assert all(type(c) is int for c in a.direction) and type(a.level) is int, a
        assert AffineRoot(finite, a.direction, a.level) == a
        assert ambient.contains(a.direction, a.level), a


def test_root_sign_is_the_sign_of_its_height():
    """All coordinates of a root share one sign, so the sign of its height
    decides it: on every root of all 40 legal finite systems."""
    systems = []
    for type_label in ("A", "B", "C", "D", "E", "F", "G", "BC"):
        for rank in range(1, 9):
            try:
                systems.append(build_finite(type_label, rank))
            except IllegalType:
                pass
    assert len(systems) == 40
    for finite in systems:
        for v in finite.roots:
            assert (sum(v) < 0) == (min(v) < 0) == weyl._is_negative(v, 0), (finite, v)
