from collections import Counter
from fractions import Fraction
from itertools import combinations, islice

import pytest

from weylkit import linalg
from weylkit import relative as rel
from weylkit.ddaha import _finite_order_pairs
from weylkit.root_system import IllegalType, affinize, build_finite, finite_coxeter
from weylkit.weyl import (
    ExtAffineWeylElement,
    NotAReflection,
    automorphism_part,
    conjugate_reflections,
    enumerate_ball,
    has_left_descent,
    length,
    min_coset_rep,
    reflection_root_of,
    reflections_T,
)


def s(ambient, label):
    return ExtAffineWeylElement.simple(ambient, label)


@pytest.fixture(scope="module")
def fin_b2():
    return finite_coxeter(build_finite("B", 2))


@pytest.fixture(scope="module")
def aff_c2():
    return affinize(build_finite("C", 2))


def test_finiteness_by_gradients(aff_c2):
    assert rel.ParabolicSubset(aff_c2, {1, 2}).is_finite()
    assert rel.ParabolicSubset(aff_c2, {0, 2}).is_finite()
    assert not rel.ParabolicSubset(aff_c2, {0, 1, 2}).is_finite()
    with pytest.raises(rel.NotFinite):
        rel.ParabolicSubset(aff_c2, {0, 1, 2}).longest_element()
    # W-tilde is not defined for an infinite W_Sigma, whatever the element
    for l in (0, 1, 2):
        with pytest.raises(rel.NotFinite):
            rel.in_relative_group(aff_c2, s(aff_c2, l), {0, 1, 2})


def test_elements_of_an_infinite_parabolic_raise_at_once(monkeypatch):
    def no_closure(*args, **kwargs):
        raise AssertionError("closure run on an infinite parabolic")

    monkeypatch.setattr(rel, "closure", no_closure)
    with pytest.raises(rel.NotFinite):
        rel.ParabolicSubset(affinize(build_finite("A", 2)), {0, 1, 2}).elements()


def test_longest_element(fin_b2):
    w0 = rel.ParabolicSubset(fin_b2, {1, 2}).longest_element()
    assert length(w0) == 4
    assert (w0 * w0).is_identity()
    assert length(rel.ParabolicSubset(fin_b2, {1}).longest_element()) == 1
    assert rel.ParabolicSubset(fin_b2, set()).longest_element().is_identity()


def test_longest_element_climb_is_bounded(aff_c2, monkeypatch):
    # l(w0^Sigma) <= |R+| = 4, reached by Sigma = {1, 2}; a descent test that
    # never says yes raises past that bound instead of climbing forever
    p = rel.ParabolicSubset(aff_c2, {1, 2})
    assert length(p.longest_element()) == len(aff_c2.finite_base.positive_roots) == 4
    monkeypatch.setattr(p, "_longest", None)
    monkeypatch.setattr(rel, "has_left_descent", lambda g, l: False)
    with pytest.raises(RuntimeError, match=r"past \|R\+\| = 4 steps"):
        p.longest_element()
    assert p._longest is None


def test_parabolic_reflections(fin_b2):
    p = rel.ParabolicSubset(fin_b2, {1, 2})
    assert len(p.reflections()) == 4
    assert len(p.elements()) == 8
    assert len(rel.ParabolicSubset(fin_b2, {1}).reflections()) == 1


@pytest.mark.parametrize(
    "ambient",
    [
        affinize(build_finite("A", 2)),
        affinize(build_finite("C", 2)),
        affinize(build_finite("G", 2)),
        finite_coxeter(build_finite("B", 3)),
    ],
    ids=["affine A2", "affine C2", "affine G2", "finite B3"],
)
def test_cached_parabolic_data_against_fresh_computation(ambient):
    labels = ambient.labels
    for k in range(len(labels) + 1):
        for sigma in map(frozenset, combinations(labels, k)):
            p = rel.ParabolicSubset(ambient, sigma)
            # one object per (ambient, Sigma), whatever the iterable
            assert rel.ParabolicSubset(ambient, sorted(sigma, reverse=True)) is p
            grads = tuple(
                tuple(map(Fraction, ambient.simple_by_label(l).direction)) for l in sorted(sigma)
            )
            finite = linalg.rank(grads) == len(grads)
            assert p.is_finite() is finite
            if not finite:
                continue
            group = p.elements()
            top = max(map(length, group))
            longest = [g for g in group if length(g) == top]
            assert len(longest) == 1
            assert p.longest_element() == longest[0]
            assert p.longest_element() is p.longest_element()
            assert p.reflections() == reflections_T(longest[0])


def test_unknown_label_raises_on_every_call(aff_c2):
    for _ in range(2):
        with pytest.raises(rel.UnknownLabels, match=r"\[5\]"):
            rel.ParabolicSubset(aff_c2, {1, 5})
        with pytest.raises(rel.UnknownLabels):
            rel.is_admissible(aff_c2, {5})
    assert rel.ParabolicSubset(aff_c2, {1}).sigma == {1}


@pytest.mark.parametrize("bad", [1.5, 1.0, True, "1"])
def test_label_that_is_not_an_int_raises(aff_c2, bad):
    # int() would read 1.5, 1.0, True and "1" all as the label 1
    rel.ParabolicSubset(aff_c2, {1})  # a cached {1} must not answer for them
    for _ in range(2):
        with pytest.raises(rel.UnknownLabels, match="must be integers"):
            rel.ParabolicSubset(aff_c2, {bad})
        with pytest.raises(rel.UnknownLabels):
            rel.is_admissible(aff_c2, [0, bad])


def test_admissibility_oracles(fin_b2):
    # [DERIVED] worked example: B2 with Sigma = {s1} is admissible
    ok, cert = rel.is_admissible(fin_b2, {1})
    assert ok and not cert
    # [DERIVED] A2 with Sigma = {s1} fails: w0 conjugates s1 to s2
    a2 = finite_coxeter(build_finite("A", 2))
    ok2, cert2 = rel.is_admissible(a2, {1})
    assert not ok2
    assert frozenset({1, 2}) in cert2


def test_admissibility_acceptance_systems():
    for ambient, sigma in [
        (affinize(build_finite("C", 2)), {1}),
        (affinize(build_finite("A", 3)), {1, 3}),
        (finite_coxeter(build_finite("F", 4)), {2, 3}),
    ]:
        ok, cert = rel.is_admissible(ambient, sigma)
        assert ok, cert


def test_relative_system_b2(fin_b2):
    system = rel.relative_system(fin_b2, {1})
    assert system.sigma_complement == (2,)
    st = system.generator(2)
    w0 = rel.ParabolicSubset(fin_b2, {1, 2}).longest_element()
    assert st == w0 * s(fin_b2, 1)
    assert length(st) == 3
    assert rel.relative_length(system, st) == 1
    assert system.coxeter_matrix[(2, 2)] == 1
    assert system.degenerate_single_complement
    assert len(rel.relative_ball(system, 5)) == 2  # W-tilde is Z/2


def test_relative_system_affine_c2(aff_c2):
    system = rel.relative_system(aff_c2, {1})
    assert system.sigma_complement == (0, 2)
    # [DERIVED] W-tilde is infinite dihedral here
    assert system.coxeter_matrix[(0, 2)] is None
    ball = rel.relative_ball(system, 4)
    assert Counter(ball.values()) == Counter({0: 1, 1: 2, 2: 2, 3: 2, 4: 2})
    for g, d in ball.items():
        assert rel.relative_length(system, g) == d


def test_sigma_complement_is_every_label_outside_sigma():
    # affine A2 with Sigma = {0, 1}: W_{0,1,2} is infinite, so label 2 gives
    # no generator, but it still lies outside Sigma
    system = rel.relative_system(affinize(build_finite("A", 2)), {0, 1})
    assert system.sigma_complement == (2,)
    assert system.simple_labels() == ()
    assert system.degenerate_single_complement


def test_relative_not_admissible_raises():
    # relative_system is the admissibility gate, so fixed chambers of a
    # non-admissible Sigma cannot even be asked for
    for a2 in (finite_coxeter(build_finite("A", 2)), affinize(build_finite("A", 2))):
        with pytest.raises(rel.NotAdmissible) as exc:
            rel.relative_system(a2, {1})
        assert exc.value.violating == rel.is_admissible(a2, {1})[1]
    assert str(exc.value) == (
        "Sigma = [1] is not admissible; violating supersets: [[0, 1], [1, 2]]"
    )


def test_empty_sigma_recovers_full_group(fin_b2):
    system = rel.relative_system(fin_b2, set())
    assert set(system.sigma_complement) == {1, 2}
    for l in (1, 2):
        assert system.generator(l) == s(fin_b2, l)
    assert system.coxeter_matrix[(1, 2)] == 4
    assert len(rel.relative_ball(system, 10)) == 8


def test_membership(fin_b2):
    w0 = rel.ParabolicSubset(fin_b2, {1, 2}).longest_element()
    assert rel.in_relative_group(fin_b2, w0 * s(fin_b2, 1), {1})
    assert not rel.in_relative_group(fin_b2, s(fin_b2, 1), {1})
    assert not rel.in_relative_group(fin_b2, s(fin_b2, 2), {1})
    system = rel.relative_system(fin_b2, {1})
    with pytest.raises(rel.NotInRelativeGroup):
        rel.relative_length(system, s(fin_b2, 1))


def test_length_dichotomy(aff_c2):
    # [PAPER] for s-tilde in the relative simple system, either lengths add
    # or subtract exactly by l(s-tilde)
    system = rel.relative_system(aff_c2, {1})
    for g in rel.relative_ball(system, 3):
        for st in system.simples.values():
            diff = length(st * g) - length(g)
            assert diff in (length(st), -length(st))


# every admissible Sigma with a relative generator of these types, affine
# and finite, over its relative ball of radius 6 cut at 1000 elements
DESCENT_TYPES = [
    ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("C", 2),
    ("C", 3), ("G", 2), ("BC", 2), ("BC", 3), ("D", 4), ("F", 4),
]


def test_relative_descents_are_the_length_drops():
    # on W-tilde the ambient left descents are the labels whose s-tilde
    # lowers the length
    checked = 0
    for kind, rank in DESCENT_TYPES:
        for make in (affinize, finite_coxeter):
            ambient = make(build_finite(kind, rank))
            for k in range(len(ambient.labels) + 1):
                for sigma in combinations(ambient.labels, k):
                    if not rel.is_admissible(ambient, sigma)[0]:
                        continue
                    system = rel.relative_system(ambient, sigma)
                    if not system.simples:
                        continue
                    for g in islice(rel.relative_ball(system, 6), 1000):
                        drops = [
                            l
                            for l, st in sorted(system.simples.items())
                            if length(st * g) < length(g)
                        ]
                        assert rel.relative_descents(system, g) == drops, (kind, rank, sigma)
                        checked += 1
    assert checked == 4174


def test_relative_word_checks_membership_first(fin_b2):
    # off W-tilde the criteria differ: 2 is a left descent of s2, but
    # s-tilde_2 = s2 s1 s2 lengthens it, and stripping by ambient descents
    # would cycle s2 -> s2 s1 -> s2; so membership is checked before the
    # loop (s1 comes first: without the check it raises the other message
    # instead of hanging)
    system = rel.relative_system(fin_b2, {1})
    g = s(fin_b2, 2)
    assert rel.relative_descents(system, g) == [2]
    assert length(system.simples[2] * g) > length(g)
    for h in (s(fin_b2, 1), g):
        with pytest.raises(rel.NotInRelativeGroup, match="not in the relative group"):
            rel.relative_reduced_word(system, h)


def test_length_zero_elements_have_no_relative_word():
    # a length-0 pi != e normalises W_Sigma for Sigma empty, so it lies in
    # W-tilde, but the s-tilde do not generate it
    ambient = affinize(build_finite("A", 2))
    pi = automorphism_part(ExtAffineWeylElement.translation(ambient, (1, 0)))
    assert length(pi) == 0 and not pi.is_identity()
    system = rel.relative_system(ambient, set())
    assert rel.in_relative_group(ambient, pi, set())
    for g in (pi, s(ambient, 1) * pi):
        with pytest.raises(rel.NotInRelativeGroup):
            rel.relative_length(system, g)
        with pytest.raises(rel.NotInRelativeGroup):
            rel.relative_reduced_word(system, g)


def test_relative_reduced_word(aff_c2):
    system = rel.relative_system(aff_c2, {1})
    for g, d in rel.relative_ball(system, 4).items():
        word = rel.relative_reduced_word(system, g)
        assert len(word) == d
        acc = ExtAffineWeylElement.identity(aff_c2)
        for l in word:
            acc = acc * system.simples[l]
        assert acc == g


def test_normalizer_pairs_and_lien():
    a3 = finite_coxeter(build_finite("A", 3))
    pairs = rel.normalizer_pairs(a3, {1}, {3}, radius=6)
    assert sorted(length(p) for p in pairs) == [4, 5]
    for y in pairs:
        moves = rel.lien_decompose(a3, y, {1}, {3})
        assert sum(length(m.element) for m in moves) == length(y)
        acc = ExtAffineWeylElement.identity(a3)
        for m in moves:
            acc = m.element * acc
        assert acc == y
        assert moves[0].sigma_from == frozenset({1})
        assert moves[-1].sigma_to == frozenset({3})


def test_lien_rejects_non_normalizer():
    a3 = finite_coxeter(build_finite("A", 3))
    with pytest.raises(rel.NotANormalizerElement):
        rel.lien_decompose(a3, s(a3, 1), {1}, {3})


# ---------------------------------------------------------------------------
# The conjugation primitive against the elements it stands for
# ---------------------------------------------------------------------------

# every Sigma of these systems, with a length ball reaching past the longest
# elements of their finite parabolics
CONJUGATION_SYSTEMS = [
    (affinize(build_finite("A", 2)), 4),
    (affinize(build_finite("C", 2)), 4),
    (affinize(build_finite("G", 2)), 4),
    (affinize(build_finite("BC", 2)), 4),
    (finite_coxeter(build_finite("B", 3)), 9),
    (finite_coxeter(build_finite("BC", 3)), 9),
]
CONJUGATION_IDS = ["affine A2", "affine C2", "affine G2", "affine BC2", "finite B3", "finite BC3"]


def _finite_subsets(ambient):
    labels = ambient.labels
    return [
        sigma
        for k in range(len(labels) + 1)
        for sigma in map(frozenset, combinations(labels, k))
        if rel.ParabolicSubset(ambient, sigma).is_finite()
    ]


def _oracle_reflections(ambient, sigma):
    """T_Sigma as the roots of the reflections among the elements of W_Sigma."""
    out = set()
    for g in rel.ParabolicSubset(ambient, sigma).elements():
        try:
            out.add(reflection_root_of(g))
        except NotAReflection:
            pass
    return frozenset(out)


def _oracle_normalizes(y, sigma, t_right):
    """Whether y s y^-1, formed as an element, is a reflection of T_right for
    every simple s of Sigma."""
    yinv = y.inverse()
    for l in sorted(sigma):
        try:
            if reflection_root_of(y * s(y.ambient, l) * yinv) not in t_right:
                return False
        except NotAReflection:
            return False
    return True


def _oracle_longest(ambient, sigma):
    group = rel.ParabolicSubset(ambient, sigma).elements()
    return max(group, key=length)


@pytest.mark.parametrize(("ambient", "radius"), CONJUGATION_SYSTEMS, ids=CONJUGATION_IDS)
def test_conjugate_reflections_against_the_conjugated_element(ambient, radius):
    ball = sorted(enumerate_ball(ambient, min(radius, 3)), key=lambda g: (g.mu, g.matrix))
    for y in ball:
        yinv = y.inverse()
        for h in ball:
            ts = reflections_T(h)
            expected = {
                reflection_root_of(y * ExtAffineWeylElement.reflection(ambient, t) * yinv)
                for t in ts
            }
            assert conjugate_reflections(y, ts) == expected


@pytest.mark.parametrize(("ambient", "radius"), CONJUGATION_SYSTEMS, ids=CONJUGATION_IDS)
def test_normalizer_checks_against_conjugated_elements(ambient, radius):
    subsets = _finite_subsets(ambient)
    t_oracle = {sigma: _oracle_reflections(ambient, sigma) for sigma in subsets}
    labels = sorted(ambient.labels)
    for sigma in subsets:
        # admissibility: w0 of every finite enlargement normalises W_Sigma
        others = [l for l in labels if l not in sigma]
        expected = [
            sigma | set(extra)
            for k in range(len(others) + 1)
            for extra in combinations(others, k)
            if rel.ParabolicSubset(ambient, sigma | set(extra)).is_finite()
            and not _oracle_normalizes(
                _oracle_longest(ambient, sigma | set(extra)), sigma, t_oracle[sigma]
            )
        ]
        assert rel.is_admissible(ambient, sigma) == (not expected, expected)
    ball = enumerate_ball(ambient, radius)
    for sigma in subsets:
        # W-tilde: minimal in W_Sigma g (no left descent in Sigma) and normalising
        for g in ball:
            expected = not any(has_left_descent(g, l) for l in sigma) and _oracle_normalizes(
                g, sigma, t_oracle[sigma]
            )
            assert rel.in_relative_group(ambient, g, sigma) is expected
    small = enumerate_ball(ambient, min(radius, 4))
    for sigma in subsets:
        for sigma_prime in subsets:
            expected = [
                y
                for y in small
                if min_coset_rep(y, sigma, "right") == y
                and min_coset_rep(y, sigma_prime, "left") == y
                and _oracle_normalizes(y, sigma, t_oracle[sigma_prime])
                and _oracle_normalizes(y.inverse(), sigma_prime, t_oracle[sigma])
            ]
            got = rel.normalizer_pairs(ambient, sigma, sigma_prime, 0, ball=small)
            assert set(got) == set(expected) and len(got) == len(expected)


@pytest.mark.parametrize(("ambient", "radius"), CONJUGATION_SYSTEMS, ids=CONJUGATION_IDS)
def test_conjugate_labels_against_conjugated_elements(ambient, radius):
    simple_keys = {reflection_root_of(s(ambient, l)): l for l in ambient.labels}
    for z in enumerate_ball(ambient, min(radius, 3)):
        zinv = z.inverse()
        for sigma in _finite_subsets(ambient):
            keys = {reflection_root_of(z * s(ambient, l) * zinv) for l in sigma}
            if keys <= simple_keys.keys():
                assert rel._conjugate_labels(ambient, z, sigma) == {simple_keys[k] for k in keys}
            else:
                with pytest.raises(rel.NotANormalizerElement):
                    rel._conjugate_labels(ambient, z, sigma)


# ---------------------------------------------------------------------------
# Coxeter orders against the product loop they replace
# ---------------------------------------------------------------------------

ORDER_SYSTEMS = {
    "affine A2": affinize(build_finite("A", 2)),
    "affine A3": affinize(build_finite("A", 3)),
    "affine B3": affinize(build_finite("B", 3)),
    "affine C3": affinize(build_finite("C", 3)),
    "affine G2": affinize(build_finite("G", 2)),
    "affine BC2": affinize(build_finite("BC", 2)),
    "finite A3": finite_coxeter(build_finite("A", 3)),
    "finite B3": finite_coxeter(build_finite("B", 3)),
    "finite D4": finite_coxeter(build_finite("D", 4)),
}


def _oracle_order(x, y, bound=1000):
    """The order of xy found by multiplying up to `bound`; None, standing for
    infinity, if xy has not reached the identity by then."""
    p = x * y
    acc = p
    for k in range(1, bound + 1):
        if acc.is_identity():
            return k
        acc = acc * p
    return None


@pytest.mark.parametrize("name", ORDER_SYSTEMS)
def test_coxeter_matrix_against_the_product_loop(name):
    ambient = ORDER_SYSTEMS[name]
    labels = ambient.labels
    checked = 0
    for k in range(len(labels) + 1):
        for sigma in combinations(labels, k):
            if not rel.is_admissible(ambient, sigma)[0]:
                continue
            system = rel.relative_system(ambient, sigma)
            simples = system.simples
            assert set(system.coxeter_matrix) == {(a, b) for a in simples for b in simples}
            for (a, b), order in system.coxeter_matrix.items():
                assert order == _oracle_order(simples[a], simples[b]), (sigma, a, b)
                checked += 1
    assert checked


@pytest.mark.parametrize("finite", [False, True], ids=["affine", "finite"])
def test_simple_pair_orders_against_the_product_loop(finite):
    """`ddaha._finite_order_pairs` reads each order off two Cartan integers:
    on every simple pair of every legal system, the finite orders are those
    of the product loop, and only the pairs whose product has infinite order
    are left out."""
    systems = []
    for type_label in ("A", "B", "C", "D", "E", "F", "G", "BC"):
        for rank in range(1, 9):
            try:
                base = build_finite(type_label, rank)
            except IllegalType:
                continue
            systems.append(finite_coxeter(base) if finite else affinize(base))
    assert len(systems) == 40
    checked = 0
    for ambient in systems:
        got = {(a, b): order for a, b, order in _finite_order_pairs(ambient)}
        for a, b in combinations(sorted(ambient.labels), 2):
            assert got.get((a, b)) == _oracle_order(s(ambient, a), s(ambient, b)), (ambient, a, b)
            checked += 1
    assert checked == (487 if finite else 686)


# every normalizer pair (Sigma, Sigma', y) with y in the radius-4 ball of the
# affine systems and anywhere in the finite groups: 302 pairs
LIEN_SYSTEMS = [(ambient, 4) for ambient, _ in CONJUGATION_SYSTEMS[:4]] + [
    CONJUGATION_SYSTEMS[4],
    (finite_coxeter(build_finite("A", 3)), 6),
]
LIEN_IDS = CONJUGATION_IDS[:5] + ["finite A3"]


def _oracle_move_label(ambient, sigma, element):
    """Every label s whose w0^{Sigma+s} w0^Sigma is `element`, by trying each."""
    w0 = rel.ParabolicSubset(ambient, sigma).longest_element()
    out = []
    for l in sorted(set(ambient.labels) - sigma):
        enlarged = rel.ParabolicSubset(ambient, sigma | {l})
        if enlarged.is_finite() and enlarged.longest_element() * w0 == element:
            out.append(l)
    return out


@pytest.mark.parametrize(("ambient", "radius"), LIEN_SYSTEMS, ids=LIEN_IDS)
def test_lien_move_labels_against_the_label_search(ambient, radius):
    ball = enumerate_ball(ambient, radius)
    subsets = _finite_subsets(ambient)
    pairs = 0
    for sigma in subsets:
        for sigma_prime in subsets:
            for y in rel.normalizer_pairs(ambient, sigma, sigma_prime, 0, ball=ball):
                pairs += 1
                for mv in rel.lien_decompose(ambient, y, sigma, sigma_prime):
                    assert _oracle_move_label(ambient, mv.sigma_from, mv.element) == [mv.s]
    assert pairs
