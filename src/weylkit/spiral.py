"""Z/m-graded root combinatorics: gradings from a lifted cocharacter, spirals
with their splittings and nilpotent radicals, the facet-to-spiral map and the
relevant-subspace-to-graded-pseudo-Levi map.

The graded Lie algebra is represented by its root set plus a Cartan marker;
every statement in scope reduces to pairings of roots against rational
cocharacters and to root addition.  A `Spiral` computes the grading degree
<alpha, theta-tilde> mod m and the weight <alpha, lambda> of every root once,
on first use, and keeps them on the spiral; P_n, L_n, U_n and the support
bound read that table.
"""

import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .linalg import Vec, dot
from .root_system import FiniteRootSystem
from .coxcomplex import AffineSpan, Facet, facets_in_ball, span


class NotRelevant(ValueError):
    pass


class _CartanMarker:
    __slots__ = ()

    def __repr__(self):
        return "Cartan"


CARTAN = _CartanMarker()


@dataclass(frozen=True)
class GradedRootDatum:
    """A finite root system with the grading data (theta-tilde, m, d)."""

    finite: FiniteRootSystem
    theta_tilde: Vec = ()
    m: int = 1
    d: int = 1

    def __post_init__(self):
        object.__setattr__(
            self, "theta_tilde", tuple(Fraction(c) for c in self.theta_tilde)
        )
        if self.m <= 0:
            raise ValueError("m must be a positive integer")
        if self.d == 0:
            raise ValueError("d must be nonzero")
        for root in self.finite.roots:
            v = self.finite.pair(tuple(map(Fraction, root)), self.theta_tilde)
            if v.denominator != 1:
                raise ValueError(
                    f"theta-tilde is not an adjoint cocharacter: <{root}, theta> = {v}"
                )

    @property
    def epsilon(self) -> int:
        return 1 if self.d > 0 else -1

    def grading_degree(self, root) -> int:
        """<alpha, theta-tilde> mod m, in {0, .., m-1}."""
        v = self.finite.pair(tuple(map(Fraction, root)), self.theta_tilde)
        return int(v) % self.m


@dataclass(frozen=True)
class Spiral:
    """Membership predicates for the graded pieces P_n (spiral), L_n
    (splitting) and U_n (nilpotent radical), evaluated per degree."""

    datum: GradedRootDatum
    lam: Vec = ()
    epsilon: int = 1

    def __post_init__(self):
        object.__setattr__(self, "lam", tuple(Fraction(c) for c in self.lam))
        if self.epsilon not in (1, -1):
            raise ValueError("epsilon must be +1 or -1")

    @cached_property
    def _by_degree(self) -> dict:
        """The roots of each grading degree mod m, each with its weight
        <alpha, lambda>: the per-root table every degree n reads, built once
        per spiral."""
        finite = self.datum.finite
        table = {}
        for root in finite.roots:
            weight = finite.pair(tuple(map(Fraction, root)), self.lam)
            table.setdefault(self.datum.grading_degree(root), []).append((root, weight))
        return {k: tuple(rows) for k, rows in table.items()}

    def _piece(self, n: int, keep) -> frozenset:
        """The roots of degree n mod m whose weight w has keep(w, epsilon n),
        plus the Cartan in degree 0 when keep(0, epsilon n)."""
        bound = self.epsilon * n
        k = n % self.datum.m
        out = {r for r, w in self._by_degree.get(k, ()) if keep(w, bound)}
        if k == 0 and keep(0, bound):
            out.add(CARTAN)
        return frozenset(out)

    def p_n(self, n: int) -> frozenset:
        return self._piece(n, operator.ge)

    def l_n(self, n: int) -> frozenset:
        return self._piece(n, operator.eq)

    def u_n(self, n: int) -> frozenset:
        return self._piece(n, operator.gt)

    def support_bound(self) -> int:
        """P_n can differ from L_n = U_n = empty only for |n| below this."""
        weights = [abs(w) for rows in self._by_degree.values() for _, w in rows]
        top = max(weights, default=Fraction(0))
        return int(top) + self.datum.m + 1


def spiral_from_cochar(datum: GradedRootDatum, lam: Vec, epsilon: int | None = None) -> Spiral:
    if epsilon is None:
        epsilon = datum.epsilon
    return Spiral(datum, tuple(lam), epsilon)


def _facet_sample_points(nu: Facet, count: int = 3) -> list[Vec]:
    """Distinct rational points in the relative interior of the facet:
    differently-weighted barycenters of its defining vertex set."""
    ambient = nu.ambient
    verts = ambient.alcove_vertices()
    chosen = [verts[l] for l in ambient.labels if l not in nu.type_labels]
    out = []
    for t in range(count):
        weights = [Fraction(1 + t * i) for i in range(1, len(chosen) + 1)]
        total = sum(weights)
        acc = [Fraction(0)] * ambient.rank
        for w, v in zip(weights, chosen):
            for i, c in enumerate(v):
                acc[i] += w * c / total
        out.append(nu.rep.act_point(tuple(acc)))
    return out


def spiral_from_facet(datum: GradedRootDatum, nu: Facet, window: int = 4) -> Spiral:
    """The spiral of a facet of the affine arrangement: lambda_y =
    epsilon (theta-tilde - m y) for any y in the facet; independence of the
    choice is validated on sample points over the degree window."""
    eps = datum.epsilon
    spirals = []
    for y in _facet_sample_points(nu):
        lam = tuple(
            eps * (t - datum.m * c) for t, c in zip(datum.theta_tilde, y)
        )
        spirals.append(Spiral(datum, lam, eps))
    first = spirals[0]
    for other in spirals[1:]:
        for n in range(-window, window + 1):
            assert first.p_n(n) == other.p_n(n), (
                "facet spiral depends on the sample point"
            )
    return first


# ---------------------------------------------------------------------------
# Graded pseudo-Levi subalgebras
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GradedPseudoLevi:
    """Roots constant at integer levels on a relevant subspace, with their
    integral grading; the Cartan sits in degree 0."""

    datum: GradedRootDatum = field(compare=False)
    roots: tuple = ()
    grading: dict = field(compare=False, default=None)  # root -> int

    def degree_piece(self, n: int) -> frozenset:
        out = {r for r in self.roots if self.grading[r] == n}
        if n == 0:
            out.add(CARTAN)
        return frozenset(out)


def pseudo_levi_from_subspace(
    datum: GradedRootDatum, sp: AffineSpan, ambient=None, radius: int = 3
) -> GradedPseudoLevi:
    """The graded pseudo-Levi attached to a relevant subspace: roots whose
    hyperplanes (at the forced integer level) contain the subspace, graded by
    <alpha, theta-tilde> + m * level.  When an ambient system is
    supplied, independence of the spanning facet is cross-checked against the
    splittings of facets spanning the subspace in a small ball."""
    finite = datum.finite
    levels = {}
    for root in finite.roots:
        rf = tuple(map(Fraction, root))
        if any(dot(rf, d) != 0 for d in sp.directions):
            continue
        value = finite.pair(rf, sp.base)
        if value.denominator != 1:
            raise NotRelevant(
                f"root {root} is constant on the subspace at non-integral value {value}"
            )
        levels[root] = -int(value)
    # relevance: the constant roots must cut out exactly this subspace
    grads = tuple(tuple(map(Fraction, r)) for r in levels)
    from . import linalg

    codim = finite.rank - len(sp.directions)
    if linalg.rank(grads) != codim:
        raise NotRelevant("subspace is not an intersection of root hyperplanes")
    # alpha sits in L_n of any spanning facet's spiral exactly for
    # n = <alpha, theta-tilde> + m * level, independent of epsilon
    grading = {}
    for root, lvl in levels.items():
        pair = int(finite.pair(tuple(map(Fraction, root)), datum.theta_tilde))
        grading[root] = pair + datum.m * lvl
    levi = GradedPseudoLevi(datum, tuple(sorted(levels)), grading)
    _check_pseudo_levi(levi)
    if ambient is not None:
        _cross_check_with_facets(datum, sp, ambient, radius, levi)
    return levi


def _check_pseudo_levi(levi: GradedPseudoLevi) -> None:
    roots = set(levi.roots)
    finite = levi.datum.finite
    for a in roots:
        assert tuple(-c for c in a) in roots
        for b in roots:
            s = tuple(x + y for x, y in zip(a, b))
            if finite.is_root(s):
                assert s in roots, "pseudo-Levi roots not closed under addition"
                assert levi.grading[s] == levi.grading[a] + levi.grading[b]


def _cross_check_with_facets(datum, sp, ambient, radius, levi) -> None:
    spanning = [
        f
        for f in facets_in_ball(ambient, radius)
        if span(f) == sp
    ]
    bound = max((abs(n) for n in levi.grading.values()), default=0) + datum.m
    for f in spanning[:2]:
        spi = spiral_from_facet(datum, f, window=bound)
        for n in range(-bound, bound + 1):
            expected = levi.degree_piece(n)
            got = spi.l_n(n)
            got_roots = {r for r in got if r is not CARTAN}
            exp_roots = {r for r in expected if r is not CARTAN}
            assert got_roots == exp_roots, "splitting differs from subspace data"


# ---------------------------------------------------------------------------
# Levi decomposition report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LeviDecompositionReport:
    window: tuple[int, int]
    partition_ok: bool
    u_agreement_ok: bool | None = None  # None when no comparison spiral given


def levi_decomposition_check(
    spi: Spiral, window: tuple[int, int], other: Spiral | None = None
) -> LeviDecompositionReport:
    """Check P_n = L_n disjoint-union U_n over the window, and (optionally)
    that a second spiral with the same P-sets has the same U-sets."""
    lo, hi = window
    partition_ok = True
    for n in range(lo, hi + 1):
        ln, un, pn = spi.l_n(n), spi.u_n(n), spi.p_n(n)
        if ln & un or ln | un != pn:
            partition_ok = False
    u_ok = None
    if other is not None:
        same_p = all(spi.p_n(n) == other.p_n(n) for n in range(lo, hi + 1))
        if same_p:
            u_ok = all(spi.u_n(n) == other.u_n(n) for n in range(lo, hi + 1))
    return LeviDecompositionReport((lo, hi), partition_ok, u_ok)
