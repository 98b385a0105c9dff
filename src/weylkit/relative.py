"""Relative Coxeter groups: admissible parabolic subsets, the subgroup of
minimal-length normalizer representatives, its simple system and length.

A parabolic subset is a set of simple-wall labels.  The relative simple
reflections are the elements w0^{Sigma+s} * w0^Sigma for s ranging over the
labels whose enlarged parabolic stays finite.

`ParabolicSubset(ambient, sigma)` returns one object per (ambient, Sigma),
kept on the ambient object (itself one object per system), and that object
caches w0^Sigma and T_Sigma.  Every membership test and normalizer check of
the module therefore computes each of them once per subset and system.

`relative_system` is the admissibility gate: it raises NotAdmissible with
the violating supersets, and callers pass the system it builds along.

Admissibility, membership in the relative group, normalizer pairs and the
chain decomposition all ask whether y conjugates the simple reflections of
one parabolic into T of another.  Since y s_a y^-1 = s_{y(a)}, that is one
question, `_normalizes`, answered by acting on the simple roots with
`weyl.conjugate_reflections` and comparing canonical keys with T_Sigma.

For g in W-tilde, s-tilde shortens g exactly when s is a left descent of g:
g^-1 permutes Phi+_Sigma, and by the dichotomy sends every root of
Phi+_{Sigma+s} - Phi_Sigma, a_s among them, to one sign (tier-1 oracle:
test_relative_descents_are_the_length_drops).  Off W-tilde the criteria
differ, so only the membership-checked `relative_reduced_word` strips by them.
"""

from dataclasses import dataclass, field
from itertools import combinations

from .root_system import AffineRoot, AffineRootSystem
from .weyl import (
    ExtAffineWeylElement,
    _strip_descents,
    canonical_reflection_key,
    closure,
    conjugate_reflections,
    coxeter_order,
    enumerate_ball,
    has_left_descent,
    has_right_descent,
    length,
    mul_simple,
    reflections_T,
    simple_mul,
)


class NotFinite(ValueError):
    pass


class NotAdmissible(ValueError):
    def __init__(self, sigma, violating):
        self.violating = violating
        cert = [sorted(c) for c in violating]
        super().__init__(f"Sigma = {sorted(sigma)} is not admissible; violating supersets: {cert}")


class NotInRelativeGroup(ValueError):
    pass


class NotANormalizerElement(ValueError):
    pass


class UnknownLabels(ValueError):
    pass


def int_labels(labels, error) -> frozenset:
    """The labels as a frozenset; a label that is not an int (a bool or a
    float included, which int() would coerce or truncate) raises error."""
    labels = frozenset(labels)
    bad = [l for l in labels if type(l) is not int]
    if bad:
        raise error(f"labels must be integers, got {bad!r}")
    return labels


class ParabolicSubset:
    """A subset of the simple walls with cached finiteness data, one object
    per (ambient, Sigma), so equal subsets are the same object; an unknown
    label raises UnknownLabels on every call, since nothing is stored for
    it, and so does a label that is not an int."""

    def __new__(cls, ambient: AffineRootSystem, sigma):
        sigma = int_labels(sigma, UnknownLabels)
        subsets = getattr(ambient, "_parabolic_subsets", None)
        if subsets is None:
            subsets = {}
            object.__setattr__(ambient, "_parabolic_subsets", subsets)
        self = subsets.get(sigma)
        if self is None:
            unknown = sigma - set(ambient.labels)
            if unknown:
                raise UnknownLabels(f"unknown simple labels {sorted(unknown)}")
            self = super().__new__(cls)
            self.ambient = ambient
            self.sigma = sigma
            self._longest = None
            self._reflections = None
            subsets[sigma] = self
        return self

    def __repr__(self):
        return f"ParabolicSubset({sorted(self.sigma)})"

    def is_finite(self) -> bool:
        """Whether W_Sigma is finite, by `AffineRootSystem.parabolic_is_finite`."""
        return self.ambient.parabolic_is_finite(self.sigma)

    def _require_finite(self):
        if not self.is_finite():
            raise NotFinite(f"W_Sigma is infinite for Sigma = {sorted(self.sigma)}")

    def longest_element(self) -> ExtAffineWeylElement:
        self._require_finite()
        if self._longest is None:
            # climb right ascents, lowest label first, up to w0^Sigma
            labels = sorted(self.sigma)
            g = ExtAffineWeylElement.identity(self.ambient)
            while True:
                l = next((l for l in labels if not has_right_descent(g, l)), None)
                if l is None:
                    break
                g = mul_simple(g, l)
            self._longest = g
        return self._longest

    def reflections(self) -> frozenset[AffineRoot]:
        """T_Sigma, as canonical reflection keys: exactly T(w0^Sigma)."""
        if self._reflections is None:
            self._reflections = reflections_T(self.longest_element())
        return self._reflections

    def elements(self) -> frozenset[ExtAffineWeylElement]:
        self._require_finite()
        identity = ExtAffineWeylElement.identity(self.ambient)
        return frozenset(closure(identity, sorted(self.sigma), step=simple_mul))


def _normalizes(y: ExtAffineWeylElement, left: ParabolicSubset, right: ParabolicSubset) -> bool:
    """Whether y conjugates every simple reflection of `left` into T of
    `right`."""
    simples = [left.ambient.simple_by_label(l) for l in left.sigma]
    return conjugate_reflections(y, simples) <= right.reflections()


def is_admissible(ambient: AffineRootSystem, sigma) -> tuple[bool, list[frozenset[int]]]:
    """Check the two normalisation hypotheses; on failure the certificate
    lists every enlarged subset whose longest element moves W_Sigma."""
    base = ParabolicSubset(ambient, sigma)
    if not base.is_finite():
        return False, [base.sigma]
    violations = []
    others = sorted(set(ambient.labels) - base.sigma)
    for k in range(len(others) + 1):
        for extra in combinations(others, k):
            big = ParabolicSubset(ambient, base.sigma | set(extra))
            if not big.is_finite():
                continue
            if not _normalizes(big.longest_element(), base, base):
                violations.append(big.sigma)
    return not violations, violations


@dataclass(frozen=True)
class RelativeCoxeterSystem:
    ambient: AffineRootSystem = field(compare=False)
    base: ParabolicSubset = field(compare=False)
    sigma_complement: tuple[int, ...] = ()
    simples: dict = field(compare=False, default=None)  # label -> s-tilde element
    coxeter_matrix: dict = field(compare=False, default=None)  # (s,t) -> order, None if infinite
    degenerate_single_complement: bool = False

    def simple_labels(self):
        return tuple(sorted(self.simples))

    def generator(self, label: int) -> ExtAffineWeylElement:
        return self.simples[label]


def relative_system(ambient: AffineRootSystem, sigma) -> RelativeCoxeterSystem:
    """The relative Coxeter system of Sigma, or NotAdmissible if there is none.

    s-tilde and t-tilde lie in W_{Sigma+s+t}, so their product has finite
    order exactly when that parabolic is finite (Howlett 1980); the order
    is None for an infinite one and is computed only for a finite one."""
    ok, cert = is_admissible(ambient, sigma)
    if not ok:
        raise NotAdmissible(sigma, cert)
    base = ParabolicSubset(ambient, sigma)
    w0_sigma = base.longest_element()
    complement = sorted(set(ambient.labels) - base.sigma)
    simples = {}
    for l in complement:
        enlarged = ParabolicSubset(ambient, base.sigma | {l})
        if enlarged.is_finite():
            simples[l] = enlarged.longest_element() * w0_sigma
    labels = sorted(simples)
    cox = {(s, s): 1 for s in labels}
    for s, t in combinations(labels, 2):
        finite = ParabolicSubset(ambient, base.sigma | {s, t}).is_finite()
        cox[(s, t)] = cox[(t, s)] = coxeter_order(simples[s], simples[t]) if finite else None
    return RelativeCoxeterSystem(
        ambient=ambient,
        base=base,
        sigma_complement=tuple(complement),
        simples=simples,
        coxeter_matrix=cox,
        degenerate_single_complement=(len(complement) == 1),
    )


def in_relative_group(ambient: AffineRootSystem, g: ExtAffineWeylElement, sigma) -> bool:
    """Membership in W-tilde = N(Sigma, Sigma): minimal in its W_Sigma-coset
    and normalising; then g W_Sigma = W_Sigma g, so either coset's check does."""
    base = ParabolicSubset(ambient, sigma)
    base._require_finite()
    return _is_normalizer_pair(g, base, base)


def relative_descents(rel: RelativeCoxeterSystem, g: ExtAffineWeylElement) -> list[int]:
    """Labels s whose relative simple reflection shortens g on the left: the
    ambient left descents s of g.  Valid only for g in W-tilde."""
    return [l for l in sorted(rel.simples) if has_left_descent(g, l)]


def relative_length(rel: RelativeCoxeterSystem, g: ExtAffineWeylElement) -> int:
    return len(relative_reduced_word(rel, g))


def relative_reduced_word(rel: RelativeCoxeterSystem, g: ExtAffineWeylElement) -> tuple[int, ...]:
    """Strip relative descents, lowest label first; NotInRelativeGroup off
    W-tilde or when a length-0 element other than e is left."""
    if not in_relative_group(rel.ambient, g, rel.base.sigma):
        raise NotInRelativeGroup(f"element is not in the relative group of {rel.base}")
    rest, letters = _strip_descents(g, rel.simples, "left", lambda l, h: rel.simples[l] * h)
    if not rest.is_identity():
        raise NotInRelativeGroup("element has no relative reduced word")
    return letters


def relative_ball(rel: RelativeCoxeterSystem, radius: int) -> dict[ExtAffineWeylElement, int]:
    """Elements of W-tilde with relative length <= radius."""
    return closure(ExtAffineWeylElement.identity(rel.ambient), rel.simples.values(), radius)


def dihedral_ball_sizes(order, radius: int) -> list[int]:
    """Ball growth of a rank-2 Coxeter group from its single order entry
    (None meaning infinite): the independent oracle for rank <= 2."""
    sizes = [1]
    for k in range(1, radius + 1):
        if order is None or k < order:
            sizes.append(2)
        elif k == order:
            sizes.append(1)
        else:
            sizes.append(0)
    return sizes


def coxeter_ball_sizes_from_matrix(labels, matrix, radius: int) -> list[int]:
    """Sphere sizes 0..radius of a Coxeter group given by its Coxeter matrix,
    computed without enumerating the group."""
    if len(labels) == 0:
        return [1] + [0] * radius
    if len(labels) == 1:
        return [1, 1] + [0] * (radius - 1) if radius >= 1 else [1]
    if len(labels) == 2:
        s, t = labels
        return dihedral_ball_sizes(matrix[(s, t)], radius)
    raise NotImplementedError(
        "independent ball oracle implemented for relative rank <= 2 only"
    )


# ---------------------------------------------------------------------------
# Normalizer sets and the chain decomposition
# ---------------------------------------------------------------------------


def normalizer_pairs(
    ambient: AffineRootSystem, sigma, sigma_prime, radius: int, ball=None
) -> list[ExtAffineWeylElement]:
    """Elements of N(Sigma, Sigma') found in the length ball."""
    left = ParabolicSubset(ambient, sigma)
    right = ParabolicSubset(ambient, sigma_prime)
    if ball is None:
        ball = enumerate_ball(ambient, radius)
    out = []
    for y in ball:
        if _is_normalizer_pair(y, left, right):
            out.append(y)
    return sorted(out, key=lambda y: (ball[y], y.mu, y.matrix))


def _is_normalizer_pair(y, left: ParabolicSubset, right: ParabolicSubset) -> bool:
    # normalising both ways makes y W_Sigma = W_Sigma' y, so one minimality check covers both
    if any(has_right_descent(y, l) for l in left.sigma):
        return False
    return _normalizes(y, left, right) and _normalizes(y.inverse(), right, left)


@dataclass(frozen=True)
class ElementaryMove:
    sigma_from: frozenset[int]
    sigma_to: frozenset[int]
    s: int
    element: ExtAffineWeylElement = field(compare=False)


def _conjugate_labels(ambient, z: ExtAffineWeylElement, labels) -> frozenset[int]:
    """Image of a set of simple labels under Int_z, which must send simples
    to simples."""
    simple_labels = {
        canonical_reflection_key(a): l for a, l in zip(ambient.simples, ambient.labels)
    }
    keys = conjugate_reflections(z, [ambient.simple_by_label(l) for l in labels])
    if not keys <= simple_labels.keys():
        raise NotANormalizerElement("conjugation does not preserve the simple system")
    return frozenset(simple_labels[k] for k in keys)


def lien_decompose(
    ambient: AffineRootSystem, y: ExtAffineWeylElement, sigma, sigma_prime
) -> list[ElementaryMove]:
    """Split y in N(Sigma, Sigma') into elementary w0*w0 moves whose lengths
    add up to l(y), following the descent-peeling induction."""
    left = ParabolicSubset(ambient, sigma)
    right = ParabolicSubset(ambient, sigma_prime)
    if not (left.is_finite() and right.is_finite()):
        raise NotANormalizerElement("both parabolic subgroups must be finite")
    if not _is_normalizer_pair(y, left, right):
        raise NotANormalizerElement(
            f"element is not in N({sorted(left.sigma)}, {sorted(right.sigma)})"
        )
    moves = _lien_recurse(ambient, y, left.sigma, right.sigma)
    total = ExtAffineWeylElement.identity(ambient)
    for mv in moves:
        total = mv.element * total
    assert total == y
    assert sum(length(mv.element) for mv in moves) == length(y)
    return moves


def _lien_recurse(ambient, y, sigma, sigma_prime) -> list[ElementaryMove]:
    if y.is_identity():
        assert sigma == sigma_prime
        return []
    s = next(l for l in sorted(ambient.labels) if has_left_descent(y, l))
    assert s not in sigma_prime
    enlarged = ParabolicSubset(ambient, set(sigma_prime) | {s})
    z = enlarged.longest_element() * ParabolicSubset(ambient, sigma_prime).longest_element()
    sigma_second = _conjugate_labels(ambient, z, sigma_prime)
    rest = z * y
    moves = _lien_recurse(ambient, rest, sigma, sigma_second)
    zinv = z.inverse()
    s_q = None
    for cand in sorted(set(ambient.labels) - sigma_second):
        cand_parab = ParabolicSubset(ambient, sigma_second | {cand})
        if not cand_parab.is_finite():
            continue
        w = cand_parab.longest_element() * ParabolicSubset(ambient, sigma_second).longest_element()
        if w == zinv:
            s_q = cand
            break
    assert s_q is not None, "inverse move is not of the w0*w0 form"
    moves.append(ElementaryMove(frozenset(sigma_second), frozenset(sigma_prime), s_q, zinv))
    return moves
