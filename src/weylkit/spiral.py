"""Z/m-graded root combinatorics: gradings from a lifted cocharacter, spirals
with their splittings and nilpotent radicals, the facet-to-spiral map (read
at one interior point of the facet) and the map from relevant subspaces to
graded pseudo-Levi subalgebras.

The graded Lie algebra is represented by its root set plus a Cartan marker;
every statement in scope reduces to pairings of roots against rational
cocharacters and to root addition.  Both pairings run on integers: the datum
pairs every root with theta-tilde once, as integer numerators over the lcm of
theta-tilde's denominators, and keeps <alpha, theta-tilde> per root; a
`Spiral` writes lambda as integer numerators over one positive denominator D
(the lcm of its denominators) and keeps, per grading degree, every root with
the numerator D <alpha, lambda>, built once on first use.  P_n, L_n and U_n
compare that numerator with epsilon n D.
"""

import operator
from fractions import Fraction
from functools import cached_property

from . import linalg
from .linalg import Vec, dot
from .root_system import FiniteRootSystem, Record
from .coxcomplex import AffineSpan, Facet, facets_in_ball, interior_point, span


class NotRelevant(ValueError):
    pass


class NotAdjoint(ValueError):
    """Raised for a theta-tilde that pairs some root to a non-integer."""


class FiniteFacet(ValueError):
    """Raised for a spiral asked of a facet of the finite arrangement."""


class WindowTooWide(RuntimeError):
    """Raised for a degree window of more than WINDOW_CAP degrees."""


# the most degrees a window walks: far above every window a table needs (the
# goldens read at most 7), and refused before any degree is walked
WINDOW_CAP = 10**5


def check_window(window: tuple[int, int]) -> tuple[int, int]:
    """The window (lo, hi), or WindowTooWide if it spans more than
    WINDOW_CAP degrees; lo:hi spans hi - lo + 1 of them."""
    lo, hi = window
    if hi - lo >= WINDOW_CAP:
        raise WindowTooWide(f"a window of {hi - lo + 1} degrees exceeds the cap of {WINDOW_CAP}")
    return lo, hi


class _CartanMarker:
    __slots__ = ()

    def __repr__(self):
        return "Cartan"


CARTAN = _CartanMarker()


class GradedRootDatum(Record):
    """A finite root system with the grading data (theta-tilde, m, d)."""

    __slots__ = ("finite", "theta_tilde", "m", "d", "theta_pairs")

    def __init__(self, finite: FiniteRootSystem, theta_tilde: Vec = (), m: int = 1, d: int = 1):
        self.finite, self.theta_tilde = finite, tuple(map(Fraction, theta_tilde))
        self.m, self.d = m, d
        if m <= 0:
            raise ValueError("m must be a positive integer")
        if d == 0:
            raise ValueError("d must be nonzero")
        nums, den = linalg.numerators(self.theta_tilde)
        # root -> <alpha, theta-tilde>, an integer
        self.theta_pairs = {}
        for root, num in _pairings(finite.roots, nums):
            if num % den:
                raise NotAdjoint(
                    "theta-tilde is not an adjoint cocharacter: "
                    f"<{root}, theta> = {Fraction(num, den)}"
                )
            self.theta_pairs[root] = num // den

    def _key(self) -> tuple:
        return self.finite, self.theta_tilde, self.m, self.d

    @property
    def epsilon(self) -> int:
        return 1 if self.d > 0 else -1

    def grading_degree(self, root) -> int:
        """<alpha, theta-tilde> mod m, in {0, .., m-1}."""
        return self.theta_pairs[tuple(root)] % self.m


def _pairings(roots, nums):
    """Each root with its pairing against the integer point nums; roots are in
    simple-root coordinates and points in coweight coordinates, so the
    pairing is the plain dot product."""
    for root in roots:
        yield root, sum(a * x for a, x in zip(root, nums))


class Spiral(Record):
    """Membership predicates for the graded pieces P_n (spiral), L_n
    (splitting) and U_n (nilpotent radical), evaluated per degree."""

    def __init__(self, datum: GradedRootDatum, lam: Vec = (), epsilon: int = 1):
        self.datum, self.lam, self.epsilon = datum, tuple(map(Fraction, lam)), epsilon
        if epsilon not in (1, -1):
            raise ValueError("epsilon must be +1 or -1")

    def _key(self) -> tuple:
        return self.datum, self.lam, self.epsilon

    @cached_property
    def _by_degree(self) -> tuple[int, dict]:
        """D, the lcm of lambda's denominators, and the roots of each grading
        degree mod m, each with the integer D <alpha, lambda>: the per-root
        table every degree n reads, built once per spiral."""
        datum = self.datum
        nums, den = linalg.numerators(self.lam)
        table = {}
        for root, num in _pairings(datum.finite.roots, nums):
            table.setdefault(datum.theta_pairs[root] % datum.m, []).append((root, num))
        return den, {k: tuple(rows) for k, rows in table.items()}

    def _piece(self, n: int, keep) -> frozenset:
        """The roots of degree n mod m whose weight w has keep(w, epsilon n),
        plus the Cartan in degree 0 when keep(0, epsilon n).  As D > 0, keep
        holds there exactly when it holds on D w and D epsilon n."""
        den, table = self._by_degree
        bound = self.epsilon * n * den
        k = n % self.datum.m
        out = {r for r, w in table.get(k, ()) if keep(w, bound)}
        if k == 0 and keep(0, bound):
            out.add(CARTAN)
        return frozenset(out)

    def p_n(self, n: int) -> frozenset:
        return self._piece(n, operator.ge)

    def l_n(self, n: int) -> frozenset:
        return self._piece(n, operator.eq)

    def u_n(self, n: int) -> frozenset:
        return self._piece(n, operator.gt)


def spiral_from_cochar(datum: GradedRootDatum, lam: Vec, epsilon: int | None = None) -> Spiral:
    if epsilon is None:
        epsilon = datum.epsilon
    return Spiral(datum, tuple(lam), epsilon)


def spiral_from_facet(datum: GradedRootDatum, nu: Facet) -> Spiral:
    """The spiral of a facet of the affine arrangement: lambda_y =
    epsilon (theta-tilde - m y), read at the facet's interior point y.  For
    a root alpha of degree n mod m, <alpha, theta-tilde> = n + k m with k an
    integer, so <alpha, lambda_y> - epsilon n = epsilon m (k - <alpha, y>):
    an affine function whose zero set is a wall of the arrangement, of
    constant sign on the facet.  Every point of the facet therefore gives
    the same P_n, L_n and U_n (Lusztig-Yun).  A facet of the finite
    arrangement is a cone on which lambda_y changes, so it is refused."""
    if not nu.ambient.affine:
        raise FiniteFacet("facet spirals need the affine arrangement")
    eps = datum.epsilon
    y = interior_point(nu)
    lam = tuple(eps * (t - datum.m * c) for t, c in zip(datum.theta_tilde, y))
    return Spiral(datum, lam, eps)


# ---------------------------------------------------------------------------
# Graded pseudo-Levi subalgebras
# ---------------------------------------------------------------------------


class GradedPseudoLevi(Record):
    """Roots constant at integer levels on a relevant subspace, with their
    integral grading root -> int; the Cartan sits in degree 0."""

    __slots__ = ("datum", "roots", "grading")

    def __init__(self, datum: GradedRootDatum, roots: tuple = (), grading: dict = None):
        self.datum, self.roots, self.grading = datum, roots, grading

    def _key(self) -> tuple:
        return (self.roots,)

    def degree_piece(self, n: int) -> frozenset:
        out = {r for r in self.roots if self.grading[r] == n}
        if n == 0:
            out.add(CARTAN)
        return frozenset(out)


def pseudo_levi_from_subspace(
    datum: GradedRootDatum, sp: AffineSpan, ambient=None
) -> GradedPseudoLevi:
    """The graded pseudo-Levi attached to a relevant subspace: roots whose
    hyperplanes (at the forced integer level) contain the subspace, graded by
    <alpha, theta-tilde> + m * level.  When an ambient system is
    supplied, independence of the spanning facet is cross-checked against the
    splittings of facets spanning the subspace in the length ball of radius 3."""
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
    codim = finite.rank - len(sp.directions)
    if linalg.rank(grads) != codim:
        raise NotRelevant("subspace is not an intersection of root hyperplanes")
    # alpha sits in L_n of any spanning facet's spiral exactly for
    # n = <alpha, theta-tilde> + m * level, independent of epsilon
    grading = {root: datum.theta_pairs[root] + datum.m * lvl for root, lvl in levels.items()}
    levi = GradedPseudoLevi(datum, tuple(sorted(levels)), grading)
    _check_pseudo_levi(levi)
    if ambient is not None:
        _cross_check_with_facets(datum, sp, ambient, levi)
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


def _cross_check_with_facets(datum, sp, ambient, levi) -> None:
    spanning = [f for f in facets_in_ball(ambient, 3) if span(f) == sp]
    bound = max((abs(n) for n in levi.grading.values()), default=0) + datum.m
    for f in spanning[:2]:
        spi = spiral_from_facet(datum, f)
        for n in range(-bound, bound + 1):
            expected = levi.degree_piece(n)
            got = spi.l_n(n)
            got_roots = {r for r in got if r is not CARTAN}
            exp_roots = {r for r in expected if r is not CARTAN}
            assert got_roots == exp_roots, "splitting differs from subspace data"


# ---------------------------------------------------------------------------
# Levi decomposition report
# ---------------------------------------------------------------------------


class LeviDecompositionReport(Record):
    __slots__ = ("window", "partition_ok")

    def __init__(self, window: tuple[int, int], partition_ok: bool):
        self.window, self.partition_ok = window, partition_ok

    def _key(self) -> tuple:
        return self.window, self.partition_ok


def levi_decomposition_check(spi: Spiral, window: tuple[int, int]) -> LeviDecompositionReport:
    """Check P_n = L_n disjoint-union U_n over the window (`check_window`)."""
    lo, hi = check_window(window)
    partition_ok = True
    for n in range(lo, hi + 1):
        ln, un, pn = spi.l_n(n), spi.u_n(n), spi.p_n(n)
        if ln & un or ln | un != pn:
            partition_ok = False
    return LeviDecompositionReport((lo, hi), partition_ok)
