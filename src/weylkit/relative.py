"""Relative Coxeter groups: admissible parabolic subsets, the subgroup of
minimal-length normalizer representatives, its simple system and length.

A parabolic subset is a set of simple-wall labels.  The relative simple
reflections are the elements w0^{Sigma+s} * w0^Sigma for s ranging over the
labels whose enlarged parabolic stays finite; the same product is each move
of the chain decomposition.  The Coxeter matrix and the normalizer pairs are
read off the sizes of the cached reflection sets T_J, with l(w0^J) = |T_J|.

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
differ, so only the membership-checked `relative_reduced_word`, and
`strip_relative_descents` on elements built from the generators, strip by
them, and `relative_ball` skips them in the one search, `weyl.length_ball`.
"""

from itertools import combinations

from .root_system import AffineRoot, AffineRootSystem, Record
from .weyl import (
    ExtAffineWeylElement,
    _strip_descents,
    canonical_reflection_key,
    conjugate_reflections,
    enumerate_ball,
    has_left_descent,
    has_right_descent,
    length,
    length_ball,
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
        subsets = ambient.__dict__.setdefault("_parabolic_subsets", {})
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
            # climb left ascents, lowest label first, from w0 of Sigma minus its
            # largest label (e if Sigma is empty) to w0^Sigma, the one element of
            # W_Sigma whose left descents are all of Sigma; a finite W_Sigma has
            # one reflection per direction, so l(w0^Sigma) <= |R+|, and a longer
            # climb (a faulty descent test) raises
            labels = sorted(self.sigma)
            g = ExtAffineWeylElement.identity(self.ambient)
            if labels:
                g = ParabolicSubset(self.ambient, labels[:-1]).longest_element()
            bound = len(self.ambient.finite_base.positive_roots)
            for _ in range(bound + 1):
                l = next((l for l in labels if not has_left_descent(g, l)), None)
                if l is None:
                    break
                g = simple_mul(l, g)
            else:
                raise RuntimeError(f"the climb to w0^Sigma ran past |R+| = {bound} steps")
            self._longest = g
        return self._longest

    def reflections(self) -> frozenset[AffineRoot]:
        """T_Sigma, as canonical reflection keys: exactly T(w0^Sigma)."""
        if self._reflections is None:
            self._reflections = reflections_T(self.longest_element())
        return self._reflections

    def elements(self) -> frozenset[ExtAffineWeylElement]:
        self._require_finite()
        return frozenset(length_ball(self.ambient, None, sorted(self.sigma))[0])


def parabolic_reflections(ambient: AffineRootSystem) -> dict:
    """w0^J -> T_J for each parabolic subset J of ambient whose T_J is
    already kept, so that a caller's own table of T(x) starts from these
    values instead of computing them again."""
    subsets = ambient.__dict__.get("_parabolic_subsets", {}).values()
    return {p._longest: p._reflections for p in subsets if p._reflections is not None}


def _normalizes(y: ExtAffineWeylElement, left: ParabolicSubset, right: ParabolicSubset) -> bool:
    """Whether y conjugates every simple reflection of `left` into T of
    `right`."""
    simples = [left.ambient.simple_by_label(l) for l in left.sigma]
    return conjugate_reflections(y, simples) <= right.reflections()


def _move(ambient: AffineRootSystem, sigma: frozenset[int], s: int) -> ExtAffineWeylElement:
    """w0^{Sigma+s} w0^Sigma: the relative simple reflection s-tilde of Sigma,
    and each elementary move of the chain decomposition."""
    enlarged = ParabolicSubset(ambient, sigma | {s})
    return enlarged.longest_element() * ParabolicSubset(ambient, sigma).longest_element()


def is_admissible(ambient: AffineRootSystem, sigma) -> tuple[bool, list[frozenset[int]]]:
    """Check the two normalisation hypotheses; on failure the certificate
    lists every enlarged subset whose longest element moves W_Sigma."""
    base = ParabolicSubset(ambient, sigma)
    if not base.is_finite():
        return False, [base.sigma]
    violations = []
    others = sorted(set(ambient.labels) - base.sigma)
    # k = 0 would test w0^Sigma against Sigma itself, which always passes
    for k in range(1, len(others) + 1):
        for extra in combinations(others, k):
            big = ParabolicSubset(ambient, base.sigma | set(extra))
            if not big.is_finite():
                continue
            if not _normalizes(big.longest_element(), base, base):
                violations.append(big.sigma)
    return not violations, violations


class RelativeCoxeterSystem(Record):
    """The relative system of a base parabolic: its simples map each label
    to s-tilde, and its Coxeter matrix each (s, t) to the order of s-tilde
    t-tilde, None if infinite."""

    __slots__ = (
        "ambient", "base", "sigma_complement", "simples", "coxeter_matrix",
        "degenerate_single_complement",
    )

    def __init__(
        self, ambient: AffineRootSystem, base: ParabolicSubset, sigma_complement=(),
        simples: dict = None, coxeter_matrix: dict = None, degenerate_single_complement=False,
    ):
        self.ambient, self.base, self.sigma_complement = ambient, base, sigma_complement
        self.simples, self.coxeter_matrix = simples, coxeter_matrix
        self.degenerate_single_complement = degenerate_single_complement

    def _key(self) -> tuple:
        return self.sigma_complement, self.degenerate_single_complement

    def simple_labels(self):
        return tuple(sorted(self.simples))

    def generator(self, label: int) -> ExtAffineWeylElement:
        return self.simples[label]


def relative_system(ambient: AffineRootSystem, sigma) -> RelativeCoxeterSystem:
    """The relative Coxeter system of Sigma, or NotAdmissible if there is none.

    s-tilde and t-tilde lie in W_K, K = Sigma+s+t, so their product has
    finite order exactly when W_K is finite (Howlett 1980); the order is None
    for an infinite one.  For a finite one, w0^K is the alternating word of
    m letters s-tilde, t-tilde times w0^Sigma, all lengths adding (for odd m
    the two are conjugate, of one length); as l(w0^J) = |T_J|, that gives
    m = 2 (|T_K| - |T_Sigma|) / (l(s-tilde) + l(t-tilde))."""
    ok, cert = is_admissible(ambient, sigma)
    if not ok:
        raise NotAdmissible(sigma, cert)
    base = ParabolicSubset(ambient, sigma)
    complement = sorted(set(ambient.labels) - base.sigma)

    def excess(extra):  # l(w0^{Sigma+extra}) - l(w0^Sigma)
        big = ParabolicSubset(ambient, base.sigma | extra)
        return len(big.reflections()) - len(base.reflections())

    simples = {}
    for l in complement:
        if ParabolicSubset(ambient, base.sigma | {l}).is_finite():
            simples[l] = _move(ambient, base.sigma, l)
    labels = sorted(simples)
    cox = {(s, s): 1 for s in labels}
    for s, t in combinations(labels, 2):
        order = None
        if ParabolicSubset(ambient, base.sigma | {s, t}).is_finite():
            order, rest = divmod(2 * excess({s, t}), excess({s}) + excess({t}))
            assert not rest, "relative dihedral lengths do not add up"
        cox[(s, t)] = cox[(t, s)] = order
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
    return strip_relative_descents(rel, g)


def strip_relative_descents(rel: RelativeCoxeterSystem, g: ExtAffineWeylElement) -> tuple[int, ...]:
    """The relative reduced word of g, which the caller knows to lie in
    W-tilde (an element of `relative_ball`, built from the generators): its
    relative descents stripped, lowest label first, with no membership
    test.  NotInRelativeGroup when a length-0 element other than e is left."""
    rest, letters = _strip_descents(g, rel.simples, "left", lambda l, h: rel.simples[l] * h)
    if not rest.is_identity():
        raise NotInRelativeGroup("element has no relative reduced word")
    return letters


def relative_ball(rel: RelativeCoxeterSystem, radius: int) -> dict[ExtAffineWeylElement, int]:
    """Elements of W-tilde with relative length <= radius, mapped to it in
    BFS order: the `length_ball` search by s-tilde g."""
    simples = rel.simples
    return length_ball(rel.ambient, radius, sorted(simples), lambda l, g: simples[l] * g)[0]


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
    # y W_Sigma y^-1 is then generated by y T_Sigma y^-1, a subset of T_Sigma'
    # that conjugation fills injectively: equal counts make it all of T_Sigma',
    # so y W_Sigma = W_Sigma' y and one minimality check covers both cosets
    if any(has_right_descent(y, l) for l in left.sigma):
        return False
    return _normalizes(y, left, right) and len(left.reflections()) == len(right.reflections())


class ElementaryMove(Record):
    __slots__ = ("sigma_from", "sigma_to", "s", "element")

    def __init__(self, sigma_from: frozenset[int], sigma_to: frozenset[int], s: int, element):
        self.sigma_from, self.sigma_to, self.s, self.element = sigma_from, sigma_to, s, element

    def _key(self) -> tuple:
        return self.sigma_from, self.sigma_to, self.s


def simple_labels_by_key(ambient: AffineRootSystem) -> dict[AffineRoot, int]:
    """The label of each simple reflection, keyed by the canonical key of its
    root, as `conjugate_reflections` keys its images: a_0 = -theta + 1 by its
    negative, whose direction has positive height."""
    return {canonical_reflection_key(a): l for a, l in zip(ambient.simples, ambient.labels)}


def _conjugate_labels(ambient, z: ExtAffineWeylElement, labels) -> frozenset[int]:
    """Image of a set of simple labels under Int_z, which must send simples
    to simples."""
    by_key = simple_labels_by_key(ambient)
    keys = conjugate_reflections(z, [ambient.simple_by_label(l) for l in labels])
    if not keys <= by_key.keys():
        raise NotANormalizerElement("conjugation does not preserve the simple system")
    return frozenset(by_key[k] for k in keys)


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
    z = _move(ambient, sigma_prime, s)
    sigma_second = _conjugate_labels(ambient, z, sigma_prime)
    moves = _lien_recurse(ambient, z * y, sigma, sigma_second)
    # w0^K (K = Sigma' + s) conjugates Sigma' onto Sigma'' inside K, so
    # z^-1 = w0^Sigma' w0^K = w0^K w0^Sigma'': the move of the one label of K - Sigma''
    (s_q,) = (sigma_prime | {s}) - sigma_second
    zinv = _move(ambient, sigma_second, s_q)
    assert zinv == z.inverse(), "inverse move is not of the w0*w0 form"
    moves.append(ElementaryMove(sigma_second, sigma_prime, s_q, zinv))
    return moves
