"""The (extended) affine Weyl group of an affinised root system.

Elements are stored in the canonical form (translation, finite matrix), both
as tuples of Python ints: a translation vector in the coweight basis (it lies
in the coweight lattice P^v) together with the matrix of the finite part
acting on functionals in the simple-root basis (integral, since the finite
part permutes the roots, also in types BC and G2).  Products and inverses are
integer arithmetic.  So is the matrix P = (m^T)^-1 of the finite part acting
on points: P is multiplicative, so the group operations form it from their
factors' (a product's P is the product of theirs, a reflection's is its
transpose, an inverse's is m^T) and keep it per finite part.  Only a matrix
given from outside is inverted, once.  Actions on points and functionals
take and return Fractions.

A product with a simple reflection s = s_a, a = gamma + k, is a rank-one
update: s acts on functionals by I - gamma gamma_check^T and on points by
I - gamma_check gamma^T (Humphreys, Reflection Groups and Coxeter Groups,
1.1 and 4.1), so `mul_simple` (g s) and `simple_mul` (s g) change each row
of m and of P by one multiple of a fixed vector, with no matrix product.
Words, reduced words, descent stripping and the length balls multiply by
simple reflections only through these two kernels; `__mul__` is the one
general product.

The inversions of an element are read in closed form, root by root
(Iwahori-Matsumoto): each root's inverted levels form one range, which the
length counts and T(w) lists.  Word and descent algorithms reduce to the sign
of one affine root image.  All coordinates of a root have one sign, so that
sign is the sign of its height, the sum of its coordinates: the height of
m alpha is alpha paired with the column sums of m, and no image is formed.

W permutes the affine roots, so the roots the kernel derives from roots
(images g(a), their negatives, the keys of T(w) and of conjugated
reflections) are built by `root_system._affine_root`, without the checks of
the public `AffineRoot` constructor; tier-1 checks them against it.
"""

from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import mul

from .linalg import Vec, dot, integral, mat_inv, mat_mul, mat_vec, transpose
from .root_system import AffineRoot, AffineRootSystem, Record, _affine_root, finite_coxeter

IntVec = tuple[int, ...]
IntMat = tuple[IntVec, ...]


class NotAReflection(ValueError):
    pass


class DifferentComponents(ValueError):
    """Bruhat comparison across distinct W_S-cosets of the extended group."""


class BallTooLarge(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Integer kernels
# ---------------------------------------------------------------------------


def _mat_vec(m: IntMat, v: IntVec) -> IntVec:
    return tuple(sum(map(mul, row, v)) for row in m)


def _mat_mul(a: IntMat, b: IntMat) -> IntMat:
    # list comprehensions: in CPython 3.11, tuple() of a generator costs
    # about 15% more on the rank-2 products that DDAHA steps make most
    cols = list(zip(*b))
    return tuple([tuple([sum(map(mul, row, col)) for col in cols]) for row in a])


# finite part m -> its point matrix P(m) = (m^T)^-1, read by _point_matrix
_point_matrices: dict[IntMat, IntMat] = {}


@lru_cache(maxsize=None)
def _identity(n: int) -> IntMat:
    eye = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    _point_matrices[eye] = eye
    return eye


def _image(matrix: IntMat, mu: IntVec, direction: IntVec, level: int) -> tuple[IntVec, int]:
    """(gradient, level) of g(a) for g = (mu, matrix) and the affine root
    a = (direction, level): g moves the gradient by its finite part and
    lowers the level by the pairing of the new gradient with mu."""
    grad = _mat_vec(matrix, direction)
    return grad, level - sum(map(mul, grad, mu))


def _is_negative(grad: IntVec, level: int) -> bool:
    """Whether the affine root (grad, level) lies in S-: a negative level, or
    level 0 and a negative root, whose height is negative."""
    return level < 0 or (level == 0 and sum(grad) < 0)


class _SystemData:
    """Group data built once per ambient system: the simple reflections by
    label, the wall (gamma, integer coroot, level) of each label, for every
    root alpha the first level n with alpha + n in S+ and whether only odd
    levels are affine roots, and the integer coroots of the roots, each
    filled in on first use."""

    def __init__(self, ambient: AffineRootSystem):
        finite = ambient.finite_base
        self.finite = finite
        self.coroots = {}
        self.walls = {
            l: (a.direction, self.coroot(a.direction), a.level)
            for l, a in zip(ambient.labels, ambient.simples)
        }
        self.simples = {
            l: _reflection(ambient, a, self.walls[l][1])
            for l, a in zip(ambient.labels, ambient.simples)
        }
        self.roots = tuple(
            (alpha, 0 if finite.is_positive(alpha) else 1, finite.in_two_q_r(alpha))
            for alpha in finite.roots
        )

    def coroot(self, root) -> IntVec:
        """The coweight coordinates of the coroot of `root`, as ints."""
        corovec = self.coroots.get(root)
        if corovec is None:
            corovec = tuple(map(integral, self.finite.coroot_vector(root)))
            self.coroots[root] = corovec
        return corovec


def _system_data(ambient: AffineRootSystem) -> _SystemData:
    """The ambient's group data, built on first use and kept on the ambient
    object itself (one object per system, see `affinize`)."""
    data = getattr(ambient, "_group_data", None)
    if data is None:
        data = ambient._group_data = _SystemData(ambient)
    return data


def _point_matrix(m: IntMat) -> IntMat:
    """Matrix of the same isometry acting on points, given its matrix m on
    functionals: the inverse transpose, integral because the finite part
    preserves P^v.  The group operations record it for every finite part
    they form, from products (P(m1 m2) = P(m1) P(m2)); only a matrix given
    from outside (`element_from_json`, the constructor) is inverted, once."""
    p = _point_matrices.get(m)
    if p is None:
        p = tuple(tuple(map(integral, row)) for row in mat_inv(transpose(m)))
        _point_matrices[m] = p
    return p


# ---------------------------------------------------------------------------
# Elements
# ---------------------------------------------------------------------------


class ExtAffineWeylElement:
    """(mu, matrix) over an ambient system; equal and hashed by (mu, matrix),
    the hash computed on first use and kept."""

    __slots__ = ("ambient", "mu", "matrix", "_hash")

    def __init__(self, ambient: AffineRootSystem, mu: IntVec = (), matrix: IntMat = ()):
        self.ambient, self.mu, self._hash = ambient, tuple(map(integral, mu)), None
        self.matrix = tuple(tuple(map(integral, row)) for row in matrix)

    def __eq__(self, other):
        return (
            isinstance(other, ExtAffineWeylElement)
            and self.mu == other.mu
            and self.matrix == other.matrix
        )

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash((self.mu, self.matrix))
        return h

    # -- constructors -----------------------------------------------------

    @staticmethod
    def identity(ambient: AffineRootSystem) -> "ExtAffineWeylElement":
        n = ambient.rank
        return _element(ambient, (0,) * n, _identity(n))

    @staticmethod
    def translation(ambient: AffineRootSystem, mu: Vec) -> "ExtAffineWeylElement":
        return ExtAffineWeylElement(ambient, tuple(mu), _identity(ambient.rank))

    @staticmethod
    def reflection(ambient: AffineRootSystem, a: AffineRoot) -> "ExtAffineWeylElement":
        """s_a as a group element: X^{-n a_check} s_{da}."""
        return _reflection(ambient, a, _system_data(ambient).coroot(a.direction))

    @staticmethod
    def simple(ambient: AffineRootSystem, label: int) -> "ExtAffineWeylElement":
        try:
            return _system_data(ambient).simples[label]
        except KeyError:
            raise ValueError(f"unknown simple label {label}") from None

    # -- group structure --------------------------------------------------

    def __mul__(self, other: "ExtAffineWeylElement") -> "ExtAffineWeylElement":
        p = _point_matrix(self.matrix)
        omu = other.mu
        mu = tuple(a + sum(map(mul, row, omu)) for a, row in zip(self.mu, p))
        matrix = _mat_mul(self.matrix, other.matrix)
        if matrix not in _point_matrices:
            _point_matrices[matrix] = _mat_mul(p, _point_matrix(other.matrix))
        return _element(self.ambient, mu, matrix)

    def inverse(self) -> "ExtAffineWeylElement":
        """g^-1 = (-m^T mu, P^T), with P the point matrix of g; the point
        matrix of g^-1 is then m^T."""
        m = self.matrix
        mu = tuple(-sum(map(mul, col, self.mu)) for col in zip(*m))
        matrix = transpose(_point_matrix(m))
        if matrix not in _point_matrices:
            _point_matrices[matrix] = transpose(m)
        return _element(self.ambient, mu, matrix)

    def is_identity(self) -> bool:
        return not any(self.mu) and self.matrix == _identity(len(self.mu))

    # -- actions ----------------------------------------------------------

    def act_point(self, x: Vec) -> Vec:
        """P x + mu on integers: x as numerators over one common denominator,
        then one Fraction per coordinate."""
        x = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in x]
        if len(x) != len(self.mu):
            raise ValueError(f"point of dimension {len(x)}, expected {len(self.mu)}")
        den = lcm(*(c.denominator for c in x))
        nums = [c.numerator * (den // c.denominator) for c in x]
        return tuple(
            Fraction(sum(map(mul, row, nums)) + den * m, den)
            for row, m in zip(_point_matrix(self.matrix), self.mu)
        )

    def act_gradient(self, gradient: Vec) -> Vec:
        return mat_vec(self.matrix, tuple(Fraction(c) for c in gradient))

    def act_affine(self, gradient: Vec, constant: Fraction) -> tuple[Vec, Fraction]:
        grad = self.act_gradient(gradient)
        return grad, Fraction(constant) - dot(grad, self.mu)


def _element(ambient: AffineRootSystem, mu: IntVec, matrix: IntMat) -> ExtAffineWeylElement:
    """An element from int tuples, skipping the conversion in __init__: the
    constructor of the group operations, whose results are ints already."""
    g = object.__new__(ExtAffineWeylElement)
    g.ambient, g.mu, g.matrix, g._hash = ambient, mu, matrix, None
    return g


def _reflection(
    ambient: AffineRootSystem, a: AffineRoot, corovec: IntVec
) -> ExtAffineWeylElement:
    """s_a from the integer coroot of its direction gamma: the coweight
    coordinates of the coroot are the pairings <gamma_check, alpha_j>, so
    s_gamma(alpha_j) = alpha_j - corovec[j] gamma.  A reflection is an
    involution, so its point matrix is its transpose."""
    gamma = a.direction
    n = len(gamma)
    rows = tuple(
        tuple(int(k == j) - corovec[j] * gamma[k] for j in range(n)) for k in range(n)
    )
    if rows not in _point_matrices:
        _point_matrices[rows] = transpose(rows)
    return _element(ambient, tuple(-a.level * c for c in corovec), rows)


def _wall(ambient: AffineRootSystem, label: int) -> tuple[IntVec, IntVec, int]:
    """(gamma, integer coroot, level k) of the simple wall a = gamma + k."""
    try:
        return _system_data(ambient).walls[label]
    except KeyError:
        raise ValueError(f"unknown simple label {label}") from None


def _times_reflector(rows: IntMat, a: IntVec, b: IntVec) -> IntMat:
    """rows (I - a b^T): each row r becomes r - <r, a> b."""
    out = []
    for r in rows:
        c = sum(map(mul, r, a))
        out.append(tuple([x - c * y for x, y in zip(r, b)]) if c else r)
    return tuple(out)


def _reflector_times(a: IntVec, b: IntVec, rows: IntMat) -> IntMat:
    """(I - a b^T) rows: row i becomes r_i - a_i (b^T rows)."""
    v = [0] * len(rows[0])
    for c, r in zip(b, rows):
        if c:
            v = [x + c * y for x, y in zip(v, r)]
    return tuple([tuple([x - c * y for x, y in zip(r, v)]) if c else r for c, r in zip(a, rows)])


def mul_simple(g: ExtAffineWeylElement, label: int) -> ExtAffineWeylElement:
    """g s_label, for the wall a = gamma + k: mu - k P gamma_check, m (I -
    gamma gamma_check^T) and P (I - gamma_check gamma^T), P recorded only
    for a new finite part."""
    gamma, corovec, k = _wall(g.ambient, label)
    m, mu = g.matrix, g.mu
    p = _point_matrix(m)
    if k:
        mu = tuple([a - k * sum(map(mul, row, corovec)) for a, row in zip(mu, p)])
    matrix = _times_reflector(m, gamma, corovec)
    if matrix not in _point_matrices:
        _point_matrices[matrix] = _times_reflector(p, corovec, gamma)
    return _element(g.ambient, mu, matrix)


def simple_mul(label: int, g: ExtAffineWeylElement) -> ExtAffineWeylElement:
    """s_label g, for the wall a = gamma + k: mu - (<gamma, mu> + k)
    gamma_check, (I - gamma gamma_check^T) m and (I - gamma_check gamma^T) P,
    P recorded only for a new finite part."""
    gamma, corovec, k = _wall(g.ambient, label)
    m, mu = g.matrix, g.mu
    c = sum(map(mul, gamma, mu)) + k
    if c:
        mu = tuple([a - c * y for a, y in zip(mu, corovec)])
    matrix = _reflector_times(gamma, corovec, m)
    if matrix not in _point_matrices:
        _point_matrices[matrix] = _reflector_times(corovec, gamma, _point_matrix(m))
    return _element(g.ambient, mu, matrix)


def act_on_affine_root(g: ExtAffineWeylElement, a: AffineRoot) -> AffineRoot:
    """g(a), a root because W permutes the affine roots."""
    grad, level = _image(g.matrix, g.mu, a.direction, a.level)
    return _affine_root(g.ambient.finite_base, grad, level)


# ---------------------------------------------------------------------------
# Length and inversions
# ---------------------------------------------------------------------------


def _inverted_levels(g: ExtAffineWeylElement) -> list[tuple[IntVec, range]]:
    """(alpha, levels) for every root alpha with inverted levels: the n with
    alpha + n in S+ and g(alpha + n) in S-, as one range, in closed form
    (Iwahori-Matsumoto 1965; Macdonald, Affine Hecke algebras and orthogonal
    polynomials, section 2).  On the affine roots alpha + n, g lowers the
    level by c = <g(alpha), mu> = <alpha, m^T mu>: the levels n in [start, c)
    are inverted, those in 2Q_R only when odd, and the level n = c when
    g(alpha) is negative.  m^T mu and the column sums of m are formed once,
    so a root costs one pairing, and the sign of g(alpha) one more: that of
    its height, alpha paired with the column sums."""
    mu = g.mu
    cols = list(zip(*g.matrix))
    nu = [sum(map(mul, col, mu)) for col in cols]
    heights = [sum(col) for col in cols]
    affine = g.ambient.affine
    out = []
    for alpha, start, odd_only in _system_data(g.ambient).roots:
        c = sum(map(mul, alpha, nu))
        if not affine:
            # only level 0 is a root, and it lies in S+ only for alpha > 0;
            # a 2Q_R root is affine only at odd levels; g(alpha) has level -c
            if start == 0 and not odd_only and (
                c > 0 or (c == 0 and sum(map(mul, alpha, heights)) < 0)
            ):
                out.append((alpha, range(1)))
            continue
        if c < start:
            continue
        if (c % 2 or not odd_only) and sum(map(mul, alpha, heights)) < 0:
            c += 1
        levels = range(1, c, 2) if odd_only else range(start, c)
        if levels:
            out.append((alpha, levels))
    return out


def length(g: ExtAffineWeylElement) -> int:
    """The number of affine roots a in S+ with g(a) in S-."""
    return sum([len(levels) for _, levels in _inverted_levels(g)])


def has_left_descent(g: ExtAffineWeylElement, label: int) -> bool:
    """Whether g^-1(a_label) is negative.  g^-1 = (-m^T mu, P^T) maps the
    affine root (d, k) to (P^T d, k + <d, mu>), as P m^T = I, so neither g^-1
    nor its translation is formed.  A nonzero level decides; at level 0 the
    root P^T d has the height <d, row sums of P>."""
    d, _, k = _wall(g.ambient, label)
    level = k + sum(map(mul, d, g.mu))
    if level:
        return level < 0
    return sum(map(mul, d, map(sum, _point_matrix(g.matrix)))) < 0


def has_right_descent(g: ExtAffineWeylElement, label: int) -> bool:
    """Whether g(a_label) is negative."""
    d, _, k = _wall(g.ambient, label)
    return _is_negative(*_image(g.matrix, g.mu, d, k))


# ---------------------------------------------------------------------------
# Reduced words
# ---------------------------------------------------------------------------


class ReducedWord(Record):
    """Reduced decomposition pi * s_{l_1} * ... * s_{l_q} with an optional
    lattice-automorphism prefix pi (identity for elements of W_S)."""

    __slots__ = ("ambient", "pi", "letters")

    def __init__(self, ambient: AffineRootSystem, pi: ExtAffineWeylElement = None, letters=()):
        self.ambient, self.pi, self.letters = ambient, pi, letters

    def _key(self) -> tuple:
        return self.pi, self.letters

    def evaluate(self) -> ExtAffineWeylElement:
        g = self.pi
        for l in self.letters:
            g = mul_simple(g, l)
        return g

    def __len__(self):
        return len(self.letters)


def _delta_permutation(pi: ExtAffineWeylElement) -> dict[int, int]:
    """The permutation of simple labels induced by a length-0 element."""
    labels = dict(zip(pi.ambient.simples, pi.ambient.labels))
    out = {}
    for a, lab in labels.items():
        image = labels.get(act_on_affine_root(pi, a))
        if image is None:
            raise ValueError("element of length 0 does not permute the base")
        out[lab] = image
    return out


def _strip_descents(
    g: ExtAffineWeylElement, labels, side: str, step=None
) -> tuple[ExtAffineWeylElement, tuple[int, ...]]:
    """Strip descents of g among `labels` on `side` ('left' or 'right'),
    lowest label first, until none is left: (h, letters) with g = s_{l1} ...
    s_{lq} h on the left, or g = h s_{lq} ... s_{l1} on the right.  `step`
    multiplies by a label's generator on `side`, step(l, h) on the left and
    step(h, l) on the right; it defaults to s_l (`simple_mul` /
    `mul_simple`), and a relative system passes its s-tilde.  Each step
    lowers the length, so a strip of g takes at most l(g) steps: past
    BALL_CAP steps that bound is checked, and a strip that exceeds it (a
    wrong descent test) raises RuntimeError instead of running forever."""
    labels = sorted(labels)
    left = side == "left"
    is_descent = has_left_descent if left else has_right_descent
    if step is None:
        step = simple_mul if left else mul_simple
    start, letters, steps, bound = g, [], 0, BALL_CAP
    while True:
        label = next((l for l in labels if is_descent(g, l)), None)
        if label is None:
            return g, tuple(letters)
        g = step(label, g) if left else step(g, label)
        letters.append(label)
        steps += 1
        if steps > bound:
            bound = length(start)
            if steps > bound:
                raise RuntimeError(f"a descent strip ran {steps} steps from length {bound}")


def reduced_word(g: ExtAffineWeylElement) -> ReducedWord:
    """Greedy left-descent stripping, lowest simple label first."""
    # g = s_{l1} ... s_{lq} * pi; rewrite with the automorphism in front.
    pi, letters = _strip_descents(g, g.ambient.labels, "left")
    if pi.is_identity():
        return ReducedWord(g.ambient, pi, letters)
    perm = _delta_permutation(pi)
    inv_perm = {v: k for k, v in perm.items()}
    conjugated = tuple(inv_perm[l] for l in letters)
    return ReducedWord(g.ambient, pi, conjugated)


def automorphism_part(g: ExtAffineWeylElement) -> ExtAffineWeylElement:
    """The length-0 component pi of g = w * pi with w in W_S."""
    return _strip_descents(g, g.ambient.labels, "left")[0]


# ---------------------------------------------------------------------------
# Reflections, T(w) and eta
# ---------------------------------------------------------------------------


def canonical_reflection_key(a: AffineRoot) -> AffineRoot:
    """Canonical affine root of the reflection s_a: the representative with
    positive direction, that is, of positive height."""
    return a.negate() if sum(a.direction) < 0 else a


def conjugate_reflections(y: ExtAffineWeylElement, roots) -> frozenset[AffineRoot]:
    """Canonical keys of y s_a y^-1 = s_{y(a)} for each affine root a in
    `roots`: conjugating a reflection is acting on its root.  The key is
    the image or its negative, whichever has the positive direction, read
    off the sign of the image's height."""
    finite = y.ambient.finite_base
    m, mu = y.matrix, y.mu
    keys = []
    for a in roots:
        grad, level = _image(m, mu, a.direction, a.level)
        if sum(grad) < 0:
            grad, level = tuple([-c for c in grad]), -level
        keys.append(_affine_root(finite, grad, level))
    return frozenset(keys)


def reflection_root_of(g: ExtAffineWeylElement) -> AffineRoot:
    """Recover the affine root (canonical key) of a reflection element: s_a
    for a = gamma + k negates the positive root gamma and has translation
    mu = -k gamma_check."""
    ambient = g.ambient
    finite = ambient.finite_base
    data = _system_data(ambient)
    for gamma, start, _ in data.roots:  # start == 0 exactly for gamma > 0
        if start or any(a != -b for a, b in zip(_mat_vec(g.matrix, gamma), gamma)):
            continue
        corovec = data.coroot(gamma)
        j = next(j for j, c in enumerate(corovec) if c)
        k, rest = divmod(-g.mu[j], corovec[j])
        if rest or not ambient.contains(gamma, k):
            continue
        candidate = AffineRoot(finite, gamma, k)
        if ExtAffineWeylElement.reflection(ambient, candidate) == g:
            return candidate
    raise NotAReflection("element is not a reflection of this affine root system")


def reflections_T(g: ExtAffineWeylElement) -> frozenset[AffineRoot]:
    """T(g) = set of reflections t with l(tg) < l(g), keyed canonically: the
    inversions of g^-1, each alpha + n with alpha < 0 keyed as -alpha - n."""
    finite = g.ambient.finite_base
    keys = []
    for alpha, levels in _inverted_levels(g.inverse()):
        if sum(alpha) < 0:
            alpha, levels = tuple([-c for c in alpha]), [-n for n in levels]
        keys.extend([_affine_root(finite, alpha, n) for n in levels])
    return frozenset(keys)


def eta(g: ExtAffineWeylElement, t) -> int:
    """The sign eta(g, t): -1 iff the reflection t shortens g from the left."""
    if isinstance(t, ExtAffineWeylElement):
        key = reflection_root_of(t)
    elif isinstance(t, AffineRoot):
        key = canonical_reflection_key(t)
    else:
        raise NotAReflection(f"cannot interpret {t!r} as a reflection")
    return -1 if key in reflections_T(g) else 1


# ---------------------------------------------------------------------------
# Bruhat order
# ---------------------------------------------------------------------------


def bruhat_leq(x: ExtAffineWeylElement, y: ExtAffineWeylElement) -> bool:
    """Subword order, computed by the standard descent recursion."""
    pix = automorphism_part(x)
    piy = automorphism_part(y)
    if pix != piy:
        raise DifferentComponents("elements lie in different W_S-cosets")
    u = x * pix.inverse()
    v = y * piy.inverse()
    return _bruhat_ws(u, v, length(u), length(v))


def _bruhat_ws(u, v, lu, lv):
    if lu > lv:
        return False
    if lv == 0:
        return lu == 0
    label = next(l for l in sorted(v.ambient.labels) if has_left_descent(v, l))
    sv = simple_mul(label, v)
    if has_left_descent(u, label):
        return _bruhat_ws(simple_mul(label, u), sv, lu - 1, lv - 1)
    return _bruhat_ws(u, sv, lu, lv - 1)


# ---------------------------------------------------------------------------
# Coset representatives and ball enumeration
# ---------------------------------------------------------------------------


def min_coset_rep(g: ExtAffineWeylElement, sigma, side: str = "right") -> ExtAffineWeylElement:
    """Minimal-length representative of g W_Sigma (side='right') or
    W_Sigma g (side='left'), obtained by stripping descents in Sigma."""
    return _strip_descents(g, sigma, side)[0]


def double_coset_min_rep(g: ExtAffineWeylElement, left_set, right_set) -> ExtAffineWeylElement:
    """Minimal-length representative of W_I g W_J: strip left descents in I,
    then right descents in J.  The second strip keeps the element minimal in
    its W_I-coset (Deodhar's lemma: for h minimal in W_I h and s in S, either
    hs is minimal in W_I hs or hs = t h with t in I, and the latter makes
    l(hs) > l(h), so not for a right descent s), so one pass of each
    suffices."""
    return min_coset_rep(min_coset_rep(g, left_set, "left"), right_set, "right")


# the most elements a `closure` or `length_ball` search may reach, and the
# steps after which a descent strip checks that it has not outrun the length
BALL_CAP = 10**6


def closure(
    start: ExtAffineWeylElement, gens, radius: int | None = None, step=mul
) -> dict[ExtAffineWeylElement, int]:
    """Breadth-first search from `start` by left multiplication with `gens`,
    each step(s, g) = s g (`simple_mul` when `gens` are simple labels):
    every element at most `radius` steps away (all of them when radius is
    None), mapped to its distance.  More than BALL_CAP elements raise
    BallTooLarge."""
    gens = list(gens)
    dist = {start: 0}
    frontier = [start]
    d = 0
    while frontier and (radius is None or d < radius):
        d += 1
        nxt = []
        for g in frontier:
            for s in gens:
                h = step(s, g)
                if h not in dist:
                    dist[h] = d
                    nxt.append(h)
                    if len(dist) > BALL_CAP:
                        raise BallTooLarge(f"ball exceeds cap of {BALL_CAP} elements")
        frontier = nxt
    return dist


def length_ball(ambient: AffineRootSystem, radius: int) -> tuple[dict, dict, dict]:
    """(lengths, descents, steps) of the elements of W_S with length <=
    radius, from one breadth-first search by s_l g: each element mapped to
    its length (in BFS order), to its set of left descents, and, past the
    identity, to (l, s_l g) for its lowest left descent l.

    g at level d is multiplied only by the labels that are not its left
    descents, and each h = s_l g found so gets l as a left descent.  Every
    left descent l of h arises so, from s_l h one level down, so the set of
    h is complete once that level is visited.  A new h is checked by one
    descent test: l(s_l g) = l(g) + 1 exactly when l is a left descent of
    s_l g (Humphreys, Reflection Groups and Coxeter Groups, 5.2-5.4), so
    its level is its length by induction; a rediscovered h must sit one
    level up as well.  More than BALL_CAP elements raise BallTooLarge."""
    e = ExtAffineWeylElement.identity(ambient)
    labels = ambient.labels
    lengths, descents, steps = {e: 0}, {e: set()}, {}
    frontier, d = [e], 0
    while frontier and d < radius:
        d += 1
        nxt = []
        for g in frontier:
            below = descents[g]
            for l in labels:
                if l in below:
                    continue
                h = simple_mul(l, g)
                known = descents.get(h)
                if known is None:
                    assert has_left_descent(h, l)
                    lengths[h], descents[h], steps[h] = d, {l}, (l, g)
                    nxt.append(h)
                    if len(lengths) > BALL_CAP:
                        raise BallTooLarge(f"ball exceeds cap of {BALL_CAP} elements")
                else:
                    assert lengths[h] == d
                    known.add(l)
                    if l < steps[h][0]:
                        steps[h] = (l, g)
        frontier = nxt
    return lengths, descents, steps


def enumerate_ball(ambient: AffineRootSystem, radius: int) -> dict[ExtAffineWeylElement, int]:
    """All elements of W_S with length <= radius, mapped to their lengths in
    BFS order: the lengths of `length_ball`."""
    return length_ball(ambient, radius)[0]


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def element_to_json(g: ExtAffineWeylElement) -> dict:
    return {
        "mu": [str(c) for c in g.mu],
        "w": [[str(c) for c in row] for row in g.matrix],
    }


def element_from_json(ambient: AffineRootSystem, data: dict) -> ExtAffineWeylElement:
    """The element serialized by `element_to_json`: ValueError unless it lies
    in the group of `ambient`, W0 x| P^v (W0 alone on a finite system).  So
    every entry must be an integer, the shape right, the matrix that of an
    isometry permuting the roots, and that isometry in W0: stripping its
    finite descents must reach the identity, which refuses a diagram
    automorphism (it fixes the chamber)."""
    try:
        mu, rows = data["mu"], data["w"]
        if not all(isinstance(v, list) for v in (mu, rows, *rows)):
            raise TypeError
        g = ExtAffineWeylElement(ambient, mu, rows)
    except (KeyError, TypeError):
        raise ValueError('element must be an object with "mu" and "w" lists of integers') from None
    n = ambient.rank
    if len(g.mu) != n or len(g.matrix) != n or any(len(row) != n for row in g.matrix):
        raise ValueError(f"element must have a length-{n} mu and an {n}x{n} matrix")
    finite = ambient.finite_base
    for alpha in (s.direction for s in ambient.simples):
        if not finite.is_root(_mat_vec(g.matrix, alpha)):
            raise ValueError("matrix does not permute the root system")
    gram = finite.gram_matrix
    if mat_mul(transpose(g.matrix), mat_mul(gram, g.matrix)) != gram:
        raise ValueError("matrix is not orthogonal for the Gram form")
    spherical = finite_coxeter(finite)
    m = _element(spherical, (0,) * n, g.matrix)
    if not _strip_descents(m, spherical.labels, "left")[0].is_identity():
        raise ValueError("matrix is not in the finite Weyl group")
    if any(g.mu) and not ambient.affine:
        raise ValueError("a finite system has no translations")
    return g
