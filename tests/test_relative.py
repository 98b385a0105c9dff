from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from weylkit import linalg
from weylkit import relative as rel
from weylkit.root_system import affinize, build_finite, finite_coxeter
from weylkit.weyl import ExtAffineWeylElement, length, reflections_T


def s(ambient, label):
    return ExtAffineWeylElement.simple(ambient, label)


@pytest.fixture(scope="module")
def fin_b2():
    return finite_coxeter(build_finite("B", 2))


@pytest.fixture(scope="module")
def aff_c2():
    return affinize(build_finite("C", 2))


def test_finiteness_by_gradients(aff_c2):
    assert rel.is_parabolic_finite(aff_c2, {1, 2})
    assert rel.is_parabolic_finite(aff_c2, {0, 2})
    assert not rel.is_parabolic_finite(aff_c2, {0, 1, 2})
    with pytest.raises(rel.NotFinite):
        rel.longest_element(aff_c2, {0, 1, 2})


def test_longest_element(fin_b2):
    w0 = rel.longest_element(fin_b2, {1, 2})
    assert length(w0) == 4
    assert (w0 * w0).is_identity()
    assert length(rel.longest_element(fin_b2, {1})) == 1
    assert rel.longest_element(fin_b2, set()).is_identity()


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
    w0 = rel.longest_element(fin_b2, {1, 2})
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


def test_relative_not_admissible_raises():
    a2 = finite_coxeter(build_finite("A", 2))
    with pytest.raises(rel.NotAdmissible):
        rel.relative_system(a2, {1})


def test_empty_sigma_recovers_full_group(fin_b2):
    system = rel.relative_system(fin_b2, set())
    assert set(system.sigma_complement) == {1, 2}
    for l in (1, 2):
        assert system.generator(l) == s(fin_b2, l)
    assert system.coxeter_matrix[(1, 2)] == 4
    assert len(rel.relative_ball(system, 10)) == 8


def test_membership(fin_b2):
    w0 = rel.longest_element(fin_b2, {1, 2})
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
