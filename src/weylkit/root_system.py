"""Finite and affine root systems: exact root data, affine roots and the
fundamental alcove.  Reflections, and the group action on points and on
affine roots, are integer operations of `weyl`; the root data they read (the
simple walls, the integer coroots and the 2Q_R flags of the positive roots)
are kept here, each built on first use.

The root data of a finite system are read off its Dynkin diagram, with no
realisation in an orthonormal basis: the bonds and the short simple roots
give the Gram matrix of the simple roots, the Gram matrix gives the Cartan
matrix, and the positive roots are raised by height from the simple roots
(and, in type BC, from the doubled root 2 alpha_n) by the simple
reflections.  The closure records each raising step, so that the group
kernel pairs every positive root with a vector by one multiply-add per root
(`FiniteRootSystem.raising`).  Past the Gram matrix, which is kept as
Fractions, all of this is integer arithmetic on 6G, whose entries are ints;
so are the coroots (`FiniteRootSystem.coroot`).

Coordinate conventions, fixed once for the whole library:

* functionals on the ambient euclidean space (roots, gradients of affine
  functions) are written in the basis of simple roots;
* points and translation vectors are written in the basis of fundamental
  coweights, so that the canonical pairing of a functional against a point
  is the plain dot product of coordinate vectors;
* the scalar product of functionals is given by the Gram matrix, normalised
  so that long roots have squared length 2, except in type BC where the
  convention is |alpha|^2 = 1, |2 alpha|^2 = 4 for the doubled roots.

Simple reflections of an affinised system are labelled 0..n with label 0
reserved for the extra affine root a0 = 1 - theta; a finite system used as a
Coxeter system keeps labels 1..n.
"""

from fractions import Fraction
from functools import cached_property, lru_cache
from operator import mul

from . import linalg
from .linalg import Mat, Vec, dot, frac_str, integral


class IllegalType(ValueError):
    """Raised for (type, rank) pairs outside the finite-type classification."""


class NotIrreducible(ValueError):
    """Raised when an operation requires an irreducible root system."""


class ConstantFunction(ValueError):
    """Raised when a coroot, and so a reflection, is asked of the zero functional."""


_LEGAL_RANKS = {
    "A": lambda n: n >= 1,
    "B": lambda n: n >= 2,
    "C": lambda n: n >= 2,
    "D": lambda n: n >= 4,
    "E": lambda n: n in (6, 7, 8),
    "F": lambda n: n == 4,
    "G": lambda n: n == 2,
    "BC": lambda n: n >= 1,
}

_MAX_RANK = 8


def _simple_gram(type_label: str, rank: int) -> Mat:
    """Scalar products of the simple roots, read off the Dynkin diagram in
    Bourbaki's numbering.  The diagonal holds the squared lengths: 2 for long
    roots, 1 for short ones (2/3 for the short root of G2).  At a bond i - j,
    (alpha_i, alpha_j) = -max(|alpha_i|^2, |alpha_j|^2) / 2; elsewhere 0.
    Bonds run along the chain i - (i+1), except that alpha_n of D_n is bonded
    to alpha_(n-2), and E_n has the bonds 1-3, 2-4, 3-4, 4-5, ...  The code
    counts the nodes from 0."""
    n = rank
    short = {"B": {n - 1}, "BC": {n - 1}, "C": set(range(n - 1)), "F": {2, 3}, "G": {0}}
    short_sq = Fraction(2, 3) if type_label == "G" else Fraction(1)
    sq = [short_sq if i in short.get(type_label, ()) else Fraction(2) for i in range(n)]
    bonds = {(i, i + 1) for i in range(n - 1)}
    if type_label == "D":
        bonds ^= {(n - 3, n - 1), (n - 2, n - 1)}
    if type_label == "E":
        bonds ^= {(0, 1), (1, 2), (0, 2), (1, 3)}
    gram = [[sq[i] if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    for i, j in bonds:
        gram[i][j] = gram[j][i] = -max(sq[i], sq[j]) / 2
    return tuple(map(tuple, gram))


class Record:
    """Value semantics for the record classes: a record equals another of the
    same class with an equal `_key()`, the tuple of its compared fields, and
    hashes as that tuple.  Each subclass defines `_key()`."""

    __slots__ = ()

    def __eq__(self, other):
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


class FiniteRootSystem(Record):
    """Exact root data of an irreducible finite root system, reduced or not:
    the Gram matrix holds the scalar products of the simple roots, and the
    roots are all roots, in simple-root coordinates."""

    def __init__(self, type_label: str, rank: int, cartan_matrix, gram_matrix: Mat, roots):
        self.type_label, self.rank, self.cartan_matrix = type_label, rank, cartan_matrix
        self.gram_matrix, self.roots, self._root_set = gram_matrix, roots, frozenset(roots)
        self._coroots = {}  # root -> its integer coroot (`coroot`)

    def _key(self) -> tuple:
        return self.type_label, self.rank, self.cartan_matrix, self.gram_matrix, self.roots

    # -- pairings ---------------------------------------------------------

    def pair(self, functional: Vec, point: Vec) -> Fraction:
        """Canonical pairing of a functional against a point of E."""
        return dot(tuple(map(Fraction, functional)), point)

    # -- root-set queries -------------------------------------------------

    def is_root(self, coords) -> bool:
        return tuple(coords) in self._root_set

    # -- the systems built on this one, once each -------------------------

    @cached_property
    def gram6(self) -> tuple[tuple[int, ...], ...]:
        """6 times the Gram matrix, in ints (see `_times_six`)."""
        return _times_six(self.gram_matrix)

    @cached_property
    def _affinization(self) -> "AffineRootSystem":
        return _build_affinization(self)

    @cached_property
    def _coxeter_system(self) -> "AffineRootSystem":
        return _build_finite_coxeter(self)

    @cached_property
    def raising(self) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, int, int], ...]]:
        """(positive roots in closure order, chain) of `_positive_roots`:
        recorded by `build_finite`, raised again only for a system made by
        the constructor."""
        return _positive_roots(self.type_label, self.cartan_matrix)

    @cached_property
    def positive_in_two_q_r(self) -> tuple[bool, ...]:
        """For each positive root of `raising`, in its order, whether it lies
        in 2Q_R, so that only its odd levels are affine roots."""
        return tuple(map(self.in_two_q_r, self.raising[0]))

    @cached_property
    def positive_roots(self) -> tuple[tuple[int, ...], ...]:
        return tuple(r for r in self.roots if self.is_positive(r))

    def coroot(self, root: tuple[int, ...]) -> tuple[int, ...]:
        """The coweight coordinates of the coroot of `root`, as ints, kept
        once formed: the scalar products (r, alpha_j) scaled by 2 / (r, r).
        With t = 6G r that is 2 t_j / <r, t>, an exact division of ints;
        ValueError on a remainder, ConstantFunction for the zero functional,
        and neither is kept."""
        corovec = self._coroots.get(root)
        if corovec is None:
            t = [sum(map(mul, row, root)) for row in self.gram6]
            norm = sum(map(mul, t, root))
            if norm == 0:
                raise ConstantFunction("zero functional has no coroot")
            corovec = []
            for c in t:
                q, rest = divmod(2 * c, norm)
                if rest:
                    raise ValueError(f"{Fraction(2 * c, norm)} is not an integer")
                corovec.append(q)
            corovec = self._coroots[root] = tuple(corovec)
        return corovec

    @staticmethod
    def is_positive(root) -> bool:
        return any(c > 0 for c in root)

    def in_two_q_r(self, root) -> bool:
        return all(c % 2 == 0 for c in root)

    def highest_root(self) -> tuple[int, ...]:
        return max(self.positive_roots, key=lambda r: (sum(r), r))


def build_finite(type_label: str, rank: int) -> FiniteRootSystem:
    """Construct the full root data for a legal (type, rank) pair."""
    if type_label not in _LEGAL_RANKS or not _LEGAL_RANKS[type_label](rank):
        raise IllegalType(f"illegal pair ({type_label!r}, {rank})")
    if rank > _MAX_RANK:
        raise IllegalType(f"rank {rank} exceeds the supported cap {_MAX_RANK}")
    return _build_finite_cached(type_label, rank)


@lru_cache(maxsize=None)
def _build_finite_cached(type_label: str, rank: int) -> FiniteRootSystem:
    gram = _simple_gram(type_label, rank)
    gram6 = _times_six(gram)
    # cartan[i][j] = <alpha_i, alpha_j-check> = 2 (alpha_i, alpha_j) / (alpha_j, alpha_j)
    cartan = tuple(tuple(2 * row[j] // gram6[j][j] for j in range(rank)) for row in gram6)
    # an indefinite diagram has infinitely many roots: refuse it before the closure
    if not linalg.leading_minors_positive(gram6):
        raise IllegalType(f"Gram matrix of ({type_label}, {rank}) is not positive definite")
    raising = _positive_roots(type_label, cartan)
    positive = raising[0]
    finite = FiniteRootSystem(
        type_label=type_label,
        rank=rank,
        cartan_matrix=cartan,
        gram_matrix=gram,
        roots=tuple(sorted(positive + tuple([tuple([-c for c in r]) for r in positive]))),
    )
    finite.raising = raising
    return finite


def _times_six(gram: Mat) -> tuple[tuple[int, ...], ...]:
    """6G in ints: every squared length is 2, 1, 2/3 or 4 and every bond
    entry half of one, so every denominator of the Gram matrix divides 6."""
    return tuple(tuple(e.numerator * (6 // e.denominator) for e in row) for row in gram)


def _positive_roots(type_label: str, cartan) -> tuple[tuple, tuple[tuple[int, int, int], ...]]:
    """The positive roots in simple-root coordinates, in closure order, and
    the chain that raised them.  They are raised by height from the simple
    roots and, in type BC, the doubled root 2 alpha_n, which is not a Weyl
    image of a simple root.  Every other positive root is s_i(beta) = beta +
    c alpha_i, c = -<beta, alpha_i-check> > 0, for a lower positive root beta
    (Humphreys, Reflection Groups and Coxeter Groups, 1.6 and 2.9-2.10), and
    that pairing is beta against column i of the Cartan matrix.

    The chain holds one step (j, i, c) for each root past the n simple ones,
    in order: that root is root j + c alpha_i, and root j comes before it;
    2 alpha_n is recorded as alpha_n + alpha_n.  So <alpha, v> for every
    positive root alpha is v itself on the simple roots and then one
    multiply-add per step (`weyl._root_pairings`)."""
    n = len(cartan)
    columns = list(zip(*cartan))
    found = [tuple([int(j == i) for j in range(n)]) for i in range(n)]
    chain = []
    if type_label == "BC":
        found.append((0,) * (n - 1) + (2,))
        chain.append((n - 1, n - 1, 1))
    seen = set(found)
    # the loop also visits the roots it appends
    for j, beta in enumerate(found):
        for i, column in enumerate(columns):
            c = sum(map(mul, beta, column))
            if c < 0:
                image = list(beta)
                image[i] -= c
                image = tuple(image)
                if image not in seen:
                    seen.add(image)
                    found.append(image)
                    chain.append((j, i, -c))
    return tuple(found), tuple(chain)


# ---------------------------------------------------------------------------
# Affine roots and affinisation
# ---------------------------------------------------------------------------


class AffineRoot:
    """An affine root: a finite root direction plus an integer level."""

    __slots__ = ("system", "direction", "level")

    def __init__(self, system: FiniteRootSystem, direction: tuple[int, ...] = (), level: int = 0):
        d, level = tuple(map(integral, direction)), integral(level)
        if not system.is_root(d):
            raise ValueError(f"{d} is not a root of the finite system")
        if system.in_two_q_r(d) and level % 2 == 0:
            raise ValueError(
                f"root {d} lies in 2Q_R; only odd levels are affine roots (got level {level})"
            )
        self.system, self.direction, self.level = system, d, level

    def __eq__(self, other):
        return (
            isinstance(other, AffineRoot)
            and self.direction == other.direction
            and self.level == other.level
        )

    def __hash__(self):
        return hash((self.direction, self.level))

    def negate(self) -> "AffineRoot":
        return _affine_root(self.system, tuple([-c for c in self.direction]), -self.level)

    def is_positive(self) -> bool:
        """Positivity on the fundamental alcove: level >= 1, or level 0 with
        a positive direction."""
        if self.level != 0:
            return self.level > 0
        return FiniteRootSystem.is_positive(self.direction)

    def __repr__(self):
        return f"AffineRoot({self.direction}, {self.level:+d})"


def _affine_root(system: FiniteRootSystem, direction: tuple[int, ...], level: int) -> AffineRoot:
    """An affine root from an int tuple and an int that are known to form
    one, skipping the checks of __init__: the constructor of the roots the
    kernel derives from roots (the simples, images g(a), negatives and
    reflection keys), which W permutes.  Roots from outside go through
    `AffineRoot(...)` or `AffineRootSystem.root`, which validate."""
    a = object.__new__(AffineRoot)
    a.system, a.direction, a.level = system, direction, level
    return a


# (gamma, integer coroot) -> a small int naming the wall, which keys the
# links of a finite-part record in `weyl`: systems share finite parts (the
# identity, for one) but not walls, and an int hashes faster than the pair
_wall_ids: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}


class AffineRootSystem(Record):
    """Either the affinisation of a finite system, or the finite system itself
    packaged as a (spherical) Coxeter system with level-0 roots only.  The
    simple roots are aligned with their labels."""

    def __init__(
        self, finite_base: FiniteRootSystem, affine: bool, simples: tuple[AffineRoot, ...],
        labels: tuple[int, ...], theta: tuple[int, ...], alcove_interior_point: Vec,
    ):
        self.finite_base, self.affine, self.simples = finite_base, affine, simples
        self.labels, self.theta, self.alcove_interior_point = labels, theta, alcove_interior_point
        self._facet_points = {}  # wall labels -> interior point of that face

    def _key(self) -> tuple:
        return (
            self.finite_base, self.affine, self.simples, self.labels, self.theta,
            self.alcove_interior_point,
        )

    @property
    def rank(self) -> int:
        return self.finite_base.rank

    def contains(self, direction, level: int) -> bool:
        try:
            direction = tuple(map(integral, direction))
            level = integral(level)
        except ValueError:
            return False
        if not self.finite_base.is_root(direction):
            return False
        if not self.affine:
            # level 0 is even, so no 2Q_R direction is a root here
            return level == 0 and not self.finite_base.in_two_q_r(direction)
        if self.finite_base.in_two_q_r(direction):
            return level % 2 == 1
        return True

    def root(self, direction, level: int = 0) -> AffineRoot:
        if not self.contains(direction, level):
            raise ValueError(f"({tuple(direction)}, {level}) is not in this affine root system")
        return AffineRoot(self.finite_base, tuple(direction), level)

    def simple_by_label(self, label: int) -> AffineRoot:
        try:
            return self.simples[self.labels.index(label)]
        except ValueError:
            raise ValueError(f"unknown simple label {label}") from None

    @cached_property
    def walls(self) -> dict[int, tuple[tuple[int, ...], tuple[int, ...], int, int, int | None]]:
        """label -> (gamma, integer coroot, level k, wall id, coordinate j) of
        the simple wall a = gamma + k.  The wall id names (gamma, coroot) in
        `_wall_ids`.  j is the coordinate with gamma = e_j at level 0, a
        simple root of the finite system (label l >= 1 has j = l - 1), and
        None for a_0 = 1 - theta."""
        walls = {}
        for l, a in zip(self.labels, self.simples):
            gamma, corovec = a.direction, self.finite_base.coroot(a.direction)
            wall = _wall_ids.setdefault((gamma, corovec), len(_wall_ids))
            j = gamma.index(1) if a.level == 0 and sum(map(abs, gamma)) == 1 else None
            walls[l] = (gamma, corovec, a.level, wall, j)
        return walls

    def parabolic_is_finite(self, labels) -> bool:
        """Whether the walls `labels` generate a finite group: exactly when
        their gradients are linearly independent, in which case the group
        fixes a point of E.  The finite-mode simples are a basis.  The affine
        gradients -theta, alpha_1 .. alpha_n have one linear relation,
        theta = sum c_i alpha_i with every mark c_i >= 1 (BC included), and
        it uses all n + 1 walls: so exactly the proper subsets are finite."""
        return not self.affine or frozenset(labels) < frozenset(self.labels)

    def alcove_vertices(self) -> dict[int, Vec]:
        """Vertices of the fundamental alcove keyed by the label of the wall
        they avoid.  Finite mode: the chamber cone has the origin as its only
        vertex plus one ray point per label."""
        n = self.rank
        out: dict[int, Vec] = {}
        if self.affine:
            out[0] = linalg.zero_vec(n)
            for i in range(1, n + 1):
                coeff = Fraction(self.theta[i - 1])
                v = [Fraction(0)] * n
                v[i - 1] = 1 / coeff
                out[i] = tuple(v)
        else:
            for i in range(1, n + 1):
                v = [Fraction(0)] * n
                v[i - 1] = Fraction(1)
                out[i] = tuple(v)
        return out

    def facet_interior_point(self, wall_labels: frozenset[int]) -> Vec:
        """A rational relative-interior point of the face of the fundamental
        alcove on which exactly the given simple walls vanish: the barycenter
        of the alcove vertices off those walls (finite mode: the sum of the
        ray points of the chamber cone).  Computed once per face and kept on
        the system object (one per system)."""
        wall_labels = frozenset(wall_labels)
        points = self._facet_points
        point = points.get(wall_labels)
        if point is not None:
            return point
        if not wall_labels <= set(self.labels):
            raise ValueError(f"unknown wall labels {sorted(wall_labels - set(self.labels))}")
        if wall_labels == set(self.labels):
            raise ValueError("the facet type must be a proper subset of the walls")
        verts = self.alcove_vertices()
        chosen = [verts[l] for l in self.labels if l not in wall_labels]
        total = len(chosen) if self.affine else 1
        point = tuple(sum(coords) / total for coords in zip(*chosen))
        points[wall_labels] = point
        return point


def affinize(finite: FiniteRootSystem) -> AffineRootSystem:
    """The affinisation: level-shifted copies of R with the parity twist for
    roots in 2Q_R, based by Delta_0 together with a0 = 1 - theta.  Built once
    per finite system; every call returns the same object."""
    return finite._affinization


def finite_coxeter(finite: FiniteRootSystem) -> AffineRootSystem:
    """Package a finite root system as a Coxeter system on its chamber.
    Built once per finite system; every call returns the same object."""
    return finite._coxeter_system


def _build_affinization(finite: FiniteRootSystem) -> AffineRootSystem:
    _check_irreducible(finite)
    n = finite.rank
    theta = finite.highest_root()
    simples = [_affine_root(finite, tuple(-c for c in theta), 1)]
    labels = [0]
    for i in range(n):
        coords = tuple(1 if j == i else 0 for j in range(n))
        simples.append(_affine_root(finite, coords, 0))
        labels.append(i + 1)
    height = sum(theta)
    interior = (Fraction(1, height + 1),) * n
    sys = AffineRootSystem(
        finite_base=finite,
        affine=True,
        simples=tuple(simples),
        labels=tuple(labels),
        theta=theta,
        alcove_interior_point=interior,
    )
    # each simple root is positive on the interior point: (height + 1) a(x) > 0
    assert all(sum(a.direction) + a.level * (height + 1) > 0 for a in sys.simples)
    return sys


def _build_finite_coxeter(finite: FiniteRootSystem) -> AffineRootSystem:
    _check_irreducible(finite)
    n = finite.rank
    simples = tuple(
        _affine_root(finite, tuple(1 if j == i else 0 for j in range(n)), 0) for i in range(n)
    )
    interior = tuple(Fraction(1) for _ in range(n))
    return AffineRootSystem(
        finite_base=finite,
        affine=False,
        simples=simples,
        labels=tuple(range(1, n + 1)),
        theta=finite.highest_root(),
        alcove_interior_point=interior,
    )


def _check_irreducible(finite: FiniteRootSystem) -> None:
    n = finite.rank
    seen = {0}
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for j in range(n):
            if j not in seen and finite.cartan_matrix[i][j] != 0:
                seen.add(j)
                frontier.append(j)
    if len(seen) != n:
        raise NotIrreducible(f"({finite.type_label}, {n}) Cartan diagram is disconnected")


# ---------------------------------------------------------------------------
# Root data as JSON, as the CLI prints them
# ---------------------------------------------------------------------------


def root_data_to_json(finite: FiniteRootSystem) -> dict:
    return {
        "type": finite.type_label,
        "rank": finite.rank,
        "cartan": [list(row) for row in finite.cartan_matrix],
        "gram": [[frac_str(e) for e in row] for row in finite.gram_matrix],
    }
