"""The Coxeter complex of an affine (or spherical) root system.

A facet is a coset y W_J with y a minimal-length representative and J a
proper subset of the simple-wall labels.  The walls through it are the
y-images of the J-walls, so its stabilizer reflections are integer data read
off y and J.  It also has an exact geometric realisation: one rational
interior point per facet (listed by the facet tables, and the point a facet
spiral is read at) and the affine span cut out by the J-walls of the
defining alcove.  Spans are computed from Fraction points; the graded
pseudo-Levi cross-check compares them, and they are the independent oracle
of the good/bad test and of `xi_orbit`.  On top of facets the module
computes point stabilizers, the grading point x = theta-tilde / m, relative
positions with the good/bad dichotomy, orbit sets and the fixed subcomplex
of an admissible parabolic, computed from its relative system.
"""

from fractions import Fraction
from itertools import combinations, takewhile

from . import linalg
from .linalg import Vec, dot
from .root_system import AffineRoot, AffineRootSystem, Record
from .weyl import (
    ExtAffineWeylElement,
    act_on_affine_root,
    closure,
    conjugate_reflections,
    double_coset_min_rep,
    length_ball,
    min_coset_rep,
)
from .relative import (
    ParabolicSubset,
    RelativeCoxeterSystem,
    in_relative_group,
    int_labels,
    relative_ball,
    simple_labels_by_key,
)


class TypeNotContained(ValueError):
    pass


class TypesDiffer(ValueError):
    pass


class BallTooSmall(RuntimeError):
    pass


class Facet:
    """The coset rep * W_J, rep minimal in its right W_J-coset."""

    __slots__ = ("ambient", "rep", "type_labels")

    def __init__(self, ambient: AffineRootSystem, rep=None, type_labels=frozenset()):
        self.ambient, self.rep, self.type_labels = ambient, rep, type_labels

    def __eq__(self, other):
        return (
            isinstance(other, Facet)
            and self.rep == other.rep
            and self.type_labels == other.type_labels
        )

    def __hash__(self):
        return hash((self.rep, self.type_labels))


def _facet_type(ambient: AffineRootSystem, labels) -> frozenset[int]:
    """The labels as a facet type: a proper subset of the simple walls."""
    labels = int_labels(labels, TypeNotContained)
    if not labels <= set(ambient.labels):
        raise TypeNotContained(f"unknown labels {sorted(labels - set(ambient.labels))}")
    if labels == set(ambient.labels):
        raise TypeNotContained("a facet type must be a proper subset of the walls")
    return labels


def facet(ambient: AffineRootSystem, y: ExtAffineWeylElement, labels) -> Facet:
    labels = _facet_type(ambient, labels)
    return Facet(ambient, min_coset_rep(y, labels, "right"), labels)


def boundary(f: Facet, coarser_labels) -> Facet:
    coarser = int_labels(coarser_labels, TypeNotContained)
    if not f.type_labels <= coarser:
        raise TypeNotContained(
            f"{sorted(coarser)} does not contain the type {sorted(f.type_labels)}"
        )
    return facet(f.ambient, f.rep, coarser)


def act(w: ExtAffineWeylElement, f: Facet) -> Facet:
    return facet(f.ambient, w * f.rep, f.type_labels)


def interior_point(f: Facet) -> Vec:
    return f.rep.act_point(f.ambient.facet_interior_point(f.type_labels))


class AffineSpan(Record):
    """An affine subspace of E: a rational base point, a basis of the
    direction space, and the full set of affine-root hyperplanes through it
    (canonical keys), which pins the subspace down exactly."""

    __slots__ = ("base", "directions", "vanishing_roots")

    def __init__(self, base: Vec, directions: tuple[Vec, ...], vanishing_roots: frozenset):
        self.base, self.directions, self.vanishing_roots = base, directions, vanishing_roots

    def _key(self) -> tuple:
        return frozenset(self.vanishing_roots), len(self.directions)


def span(f: Facet) -> AffineSpan:
    ambient = f.ambient
    base = interior_point(f)
    # the walls of the defining alcove through f: rep-images of the J-simples
    grads = tuple(
        act_on_affine_root(f.rep, ambient.simple_by_label(l)).direction
        for l in sorted(f.type_labels)
    )
    if grads:
        directions = linalg.nullspace(grads)
    else:
        directions = tuple(linalg.identity(ambient.rank))
    return AffineSpan(base, directions, frozenset(_roots_through(ambient, base, directions)))


def facet_stabilizer_reflections(f: Facet) -> frozenset[AffineRoot]:
    """Reflection set of Stab(f) = rep W_J rep^{-1}, as canonical keys."""
    return conjugate_reflections(f.rep, ParabolicSubset(f.ambient, f.type_labels).reflections())


# ---------------------------------------------------------------------------
# Point stabilizers and the grading point
# ---------------------------------------------------------------------------


def _roots_through(ambient: AffineRootSystem, x: Vec, directions=()) -> list[AffineRoot]:
    """The affine roots with positive direction that vanish at x and are
    constant along `directions`; a positive direction makes each root its own
    canonical key."""
    finite = ambient.finite_base
    out = []
    for root in finite.positive_roots:
        rf = tuple(map(Fraction, root))
        if any(dot(rf, d) != 0 for d in directions):
            continue
        level = -finite.pair(rf, x)
        if level.denominator == 1 and ambient.contains(root, level.numerator):
            out.append(AffineRoot(finite, root, level.numerator))
    return out


def stabilizer_of_point(ambient: AffineRootSystem, x: Vec) -> tuple[AffineRoot, ...]:
    """All affine roots vanishing at x (canonical keys); their reflections
    generate Stab_W(x)."""
    out = _roots_through(ambient, tuple(Fraction(c) for c in x))
    return tuple(sorted(out, key=lambda a: (a.direction, a.level)))


def stabilizer_group(ambient: AffineRootSystem, x: Vec) -> frozenset[ExtAffineWeylElement]:
    gens = [
        ExtAffineWeylElement.reflection(ambient, a) for a in stabilizer_of_point(ambient, x)
    ]
    return frozenset(closure(ExtAffineWeylElement.identity(ambient), gens))


class GradingPoint(Record):
    """x = theta_tilde / m with its stabilizer data."""

    __slots__ = ("ambient", "theta_tilde", "m")

    def __init__(self, ambient: AffineRootSystem, theta_tilde: Vec = (), m: int = 1):
        self.ambient, self.theta_tilde, self.m = ambient, tuple(map(Fraction, theta_tilde)), m
        if m <= 0:
            raise ValueError("m must be a positive integer")

    def _key(self) -> tuple:
        return self.theta_tilde, self.m

    @property
    def x(self) -> Vec:
        return tuple(c / self.m for c in self.theta_tilde)

    def stabilizer(self) -> frozenset[ExtAffineWeylElement]:
        return stabilizer_group(self.ambient, self.x)


# ---------------------------------------------------------------------------
# Relative position
# ---------------------------------------------------------------------------


class RelativePosition(Record):
    __slots__ = ("double_coset", "good", "relative_element")

    def __init__(self, double_coset: ExtAffineWeylElement, good: bool, relative_element=None):
        self.double_coset, self.good, self.relative_element = double_coset, good, relative_element

    def _key(self) -> tuple:
        return self.double_coset, self.good, self.relative_element


def act_relative(w: ExtAffineWeylElement, f: Facet) -> Facet:
    """The base-point-transported left action of the relative group on
    facets: w is conjugated into the copy of the Coxeter system based at the
    alcove of f before acting, which amounts to yW_J -> y w^{-1} W_J."""
    return facet(f.ambient, f.rep * w.inverse(), f.type_labels)


def relative_position(f: Facet, g: Facet) -> RelativePosition:
    """The W_I-double coset of the pair, its good/bad classification by span
    comparison, and for good pairs the relative-group element that moves g
    onto f under act_relative: base = rep_f^-1 rep_g itself.  The affine-root
    hyperplanes through a facet are the reflections of its stabilizer
    rep W_I rep^-1, and facets of one type span subspaces of one dimension,
    so the spans agree exactly when the stabilizer reflections do.  With
    minimal reps and equal spans, base maps the positive roots of I onto
    themselves, so it has no left descent in I and is the one relative-group
    element of W_I base; the asserts catch a facet built with another rep."""
    if f.type_labels != g.type_labels:
        raise TypesDiffer(
            f"types {sorted(f.type_labels)} and {sorted(g.type_labels)} differ"
        )
    labels = f.type_labels
    base = f.rep.inverse() * g.rep
    w = double_coset_min_rep(base, labels, labels)
    good = facet_stabilizer_reflections(f) == facet_stabilizer_reflections(g)
    if good:
        assert in_relative_group(f.ambient, base, labels), (
            "good pair without a relative element"
        )
        assert act_relative(base, g) == f
    return RelativePosition(w, good, base if good else None)


# ---------------------------------------------------------------------------
# Enumeration, orbit sets, fixed subcomplex
# ---------------------------------------------------------------------------


class Ball:
    """The length ball of W_S from one `length_ball` search: its elements
    mapped to their lengths (in BFS order), their left-descent sets, and
    their reduced words read off the recorded steps."""

    def __init__(self, ambient: AffineRootSystem, radius: int):
        self.ambient = ambient
        self.radius = radius
        self.lengths, self.descents, self._steps = length_ball(ambient, radius)

    def word(self, g: ExtAffineWeylElement) -> tuple[int, ...]:
        """The letters of reduced_word(g) for g in the ball.  reduced_word
        strips the lowest left descent l first, so the word of g is l
        followed by the word of s_l g, one shorter: the search recorded that
        step for g, and the word walks the steps down to the identity."""
        letters = []
        while self.lengths[g]:
            l, g = self._steps[g]
            letters.append(l)
        return tuple(letters)


def facets_in_ball(
    ambient: AffineRootSystem, radius: int, types=None, ball: Ball | None = None
) -> frozenset[Facet]:
    """All facets with a representative in the length ball; `types` restricts
    the facet types, default all proper subsets of the walls.  y is the
    minimal representative of y W_J exactly when y has no right descent in J
    (the parabolic quotient W^J; Bjorner-Brenti, Combinatorics of Coxeter
    Groups, 2.4), so each element of the ball gives one facet of every type
    disjoint from its right descent set.  The right descents of y are the
    left descents of y^-1, which the ball, closed under inversion, has
    recorded.  `ball` is the caller's Ball of this radius, used instead of
    enumerating a second one."""
    labels = ambient.labels
    if types is None:
        types = [
            frozenset(l for k, l in enumerate(labels) if mask >> k & 1)
            for mask in range(2 ** len(labels) - 1)
        ]
    else:
        types = [_facet_type(ambient, t) for t in types]
    if ball is None:
        ball = Ball(ambient, radius)
    assert ball.radius == radius
    descents = ball.descents
    out = []
    for y in ball.lengths:
        right = descents[y.inverse()]
        out.extend(Facet(ambient, y, t) for t in types if right.isdisjoint(t))
    return frozenset(out)


def xi_orbit(
    point: GradingPoint, nu0: Facet, radius: int
) -> tuple[frozenset[Facet], bool]:
    """The orbit Xi = W_x . (E-alcoves of span(nu0)) intersected with the
    enumeration ball; the flag reports whether the ball saw every E-alcove
    candidate strictly inside (no representative at the boundary length).
    A facet of nu0's type spans span(nu0) exactly when it has nu0's
    stabilizer reflections, as in `relative_position`."""
    target = facet_stabilizer_reflections(nu0)
    ball = Ball(point.ambient, radius)
    alcoves = {
        f
        for f in facets_in_ball(point.ambient, radius, types=[nu0.type_labels], ball=ball)
        if facet_stabilizer_reflections(f) == target
    }
    orbit = set()
    for w in point.stabilizer():
        for f in alcoves:
            orbit.add(act(w, f))
    # a rep outside the ball is longer than the radius
    complete = all(ball.lengths.get(f.rep, radius) < radius for f in orbit)
    return frozenset(orbit), complete


class FixedChambersReport(Record):
    """The chambers, the action table (generator label, facet) -> facet or
    None, the length ball the chambers were found in, and the checks."""

    __slots__ = (
        "chambers", "action", "ball", "single_free_orbit", "ball_complete", "boundary_excluded"
    )

    def __init__(
        self, chambers: tuple[Facet, ...], action: dict, ball: Ball, single_free_orbit=False,
        ball_complete=False, boundary_excluded: tuple[Facet, ...] = (),
    ):
        self.chambers, self.action, self.ball = chambers, action, ball
        self.single_free_orbit, self.ball_complete = single_free_orbit, ball_complete
        self.boundary_excluded = boundary_excluded

    def _key(self) -> tuple:
        return self.chambers, self.single_free_orbit, self.ball_complete, self.boundary_excluded


def fixed_chambers(
    system: RelativeCoxeterSystem,
    radius: int,
    ball: Ball | None = None,
    rel_ball: dict | None = None,
) -> FixedChambersReport:
    """Chambers of the fixed subcomplex of an admissible Sigma, given by its
    relative system: facets in the ball whose stabilizer equals W_Sigma, with
    the relative-group action table on them.  `ball` is the caller's Ball of
    this radius, used instead of enumerating a second one; `rel_ball` is the
    caller's `relative_ball` of at least this radius, whose entries at
    distance <= radius are this radius's ball, in the same BFS order.

    A facet (y, J) with |J| = |Sigma| has stabilizer reflections
    y T_J y^-1, and that set is T_Sigma exactly when y conjugates every
    simple reflection of J into T_Sigma.  The walls of those |J| independent
    reflections meet in the affine span of the facet y F_J; lying in
    T_Sigma, each wall contains the span of F_Sigma, of the same dimension,
    so the two spans are equal, and the reflections of either stabilizer are
    those whose walls contain that span.

    So the search runs per element y of the ball, not per facet.  S_y, the
    labels l with y s_l y^-1 in T_Sigma, is read off the |T_Sigma| canonical
    keys of y^-1 T_Sigma y: the keys of simple roots among them, matched by
    `simple_labels_by_key` (a_0 = -theta + 1 by its negative, since a key's
    direction has positive height).  The fixed facets at y are the types
    J in S_y of |Sigma| labels that miss the right descents of y (as in
    `facets_in_ball`).  A Sigma of every wall, admissible on a finite
    system, raises TypeNotContained: W_Sigma is then the whole group, the
    stabilizer of no facet, at any radius; any other type of |Sigma| labels
    is a proper subset of the walls."""
    ambient = system.ambient
    sigma = system.base.sigma
    if sigma == frozenset(ambient.labels):
        raise TypeNotContained(
            f"Sigma = {sorted(sigma)} holds every wall: W_Sigma is the whole group, "
            "so no facet has type Sigma"
        )
    by_key = simple_labels_by_key(ambient)
    t_sigma = system.base.reflections()
    if ball is None:
        ball = Ball(ambient, radius)
    assert ball.radius == radius
    lengths, descents = ball.lengths, ball.descents
    found = set()
    types = {}  # one frozenset per type, shared by its facets
    for y in lengths:
        y_inv = y.inverse()
        right = descents[y_inv]
        s_y = [
            l
            for l in map(by_key.get, conjugate_reflections(y_inv, t_sigma))
            if l is not None and l not in right
        ]
        for t in map(frozenset, combinations(s_y, len(sigma))):
            found.add(Facet(ambient, y, types.setdefault(t, t)))
    for f in found:
        assert f.type_labels == sigma, "fixed chamber of unexpected type"

    # one total order for the chambers and the boundary cut alike, so neither
    # depends on the order in which the search found them
    chambers = tuple(
        sorted(found, key=lambda f: (lengths[f.rep], f.rep.mu, f.rep.matrix))
    )
    interior = {f for f in found if lengths[f.rep] < radius}
    boundary_cut = tuple(f for f in chambers if f not in interior)
    action = {}
    closed = True
    for f in interior:
        for l, st in system.simples.items():
            image = act(st, f)
            if image in found:
                action[(l, f)] = image
            else:
                action[(l, f)] = None
                closed = False
    if not interior:
        raise BallTooSmall("no fixed chamber lies strictly inside the ball")

    # simple transitivity: the found set is exactly the distinct translates of
    # the base chamber under the relative ball, with no repeats off-identity
    base = facet(ambient, ExtAffineWeylElement.identity(ambient), sigma)
    single_free = base in found
    if single_free:
        if rel_ball is None:
            rel_ball = relative_ball(system, radius)
        seen = {}
        within = takewhile(lambda item: item[1] <= radius, rel_ball.items())
        for g, _ in within:
            image = act(g, base)
            if image in found:
                if image in seen and seen[image] != g:
                    single_free = False
                    break
                seen[image] = g
        else:
            single_free = single_free and set(seen) >= interior
    return FixedChambersReport(
        chambers=chambers,
        action=action,
        ball=ball,
        single_free_orbit=single_free,
        ball_complete=closed,
        boundary_excluded=boundary_cut,
    )
