"""The (extended) affine Weyl group of an affinised root system.

Elements are stored in the canonical form (translation, finite matrix), both
as tuples of Python ints: a translation vector in the coweight basis (it lies
in the coweight lattice P^v) together with the matrix of the finite part
acting on functionals in the simple-root basis (integral, since the finite
part permutes the roots, also in types BC and G2).  Products and inverses are
integer arithmetic.  So is the matrix P = (m^T)^-1 of the finite part acting
on points: P is multiplicative, so the group operations form it from their
factors' (a product's P is the product of theirs, a reflection's is its
transpose, an inverse's is m^T).  Each finite part is interned once, as one
record (`_FinitePart`) that holds m, P and what is read off them; an element
holds its translation and that record, so no group operation looks its
matrix up again.  Only a matrix given from outside is inverted, once.  The
general product and the inverse read their finite part off links of the
record, each built on first use: `times`, keyed by the right factor's
record, and `inv`.  So the product of two finite parts is formed once per
process, and only the translation, mu1 + P1 mu2 or -m^T mu, is computed per
call.  Actions on points and functionals take and return Fractions.

A product with a simple reflection s = s_a, a = gamma + k, is a rank-one
update: s acts on functionals by I - gamma gamma_check^T and on points by
I - gamma_check gamma^T (Humphreys, Reflection Groups and Coxeter Groups,
1.1 and 4.1), so `mul_simple` (g s) and `simple_mul` (s g) change each row
of m and of P by one multiple of a fixed vector, with no matrix product.
In the library's coordinates the wall of every label l >= 1 is the
coordinate hyperplane of alpha_l = e_j, j = l - 1, at level 0; there the
kernels read coordinate j where they would pair a vector with gamma: s g
shifts the translation by mu_j, and g s takes each row r of m to r - r_j
gamma_check and changes P in column j only.  Only a_0 = 1 - theta pairs.
Each record links to its neighbours under the walls it has been multiplied
by, on either side, so a finite part is updated once per wall and side; the
translation then takes one vector step, read off the link on the right.
Words, reduced words, descent stripping and the balls of W_S multiply by
simple reflections only through these two kernels; `__mul__` is the one
general product.  One breadth-first search, `length_ball`, enumerates the
balls of W_S, its parabolic subgroups and the relative balls (by s-tilde).

The inversions of an element are read in closed form over the positive
roots (Iwahori-Matsumoto): those on alpha and -alpha together form one range,
which the length counts and T(w) lists; a finite system is the case mu = 0,
with no branch of its own.  Word and descent algorithms reduce to the sign
of the image of a simple root a = gamma + k under g or g^-1: a nonzero
level decides, and all coordinates of a root have one sign, so at level 0
the sign is that of its height, the sum of its coordinates.  On the left
neither g^-1 nor the image is formed (`has_left_descent`).  At a coordinate
wall gamma = e_j both sides read coordinate j of mu, of m and of the sums
kept on the record, and only the right descent at a_0 forms the image.
The length and T(w) pair every positive root with a vector along the chain
that raised the roots (`FiniteRootSystem.raising`): alpha = beta + c alpha_i
gives <alpha, v> = <beta, v> + c v_i, one multiply-add per root
(`_root_pairings`) in place of an n-term dot product.

W permutes the affine roots, so the roots the kernel derives from roots
(images g(a), their negatives, the keys of T(w) and of conjugated
reflections) are built by `root_system._affine_root`, without the checks of
the public `AffineRoot` constructor; tier-1 checks them against it.
"""

from fractions import Fraction
from functools import lru_cache
from operator import mul

from .linalg import Vec, dot, integral, mat_inv, mat_mul, mat_vec, numerators, transpose
from .root_system import (
    AffineRoot, AffineRootSystem, ConstantFunction, Record, _affine_root, finite_coxeter,
)

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


class _FinitePart:
    """One finite part of the group: its matrix m on functionals, its point
    matrix p = (m^T)^-1 and, each built on first use, the column sums of m
    (`heights`), the row sums of p (`p_sums`), its neighbours by wall id
    (see `_wall_ids`): `left[w]` the record of (I - gamma gamma_check^T) m and
    `right[w]` the pair (record of m (I - gamma gamma_check^T), p
    gamma_check), its products `times[r]`, the record of m r.m for the
    record r of a right factor, and `inv`, the record of m^-1 = p^T.  A
    product or inverse of matrices is the same in every system, so these two
    links need no system key."""

    __slots__ = ("m", "p", "heights", "p_sums", "left", "right", "times", "inv")

    def __init__(self, m: IntMat, p: IntMat):
        self.m, self.p = m, p

    def __getattr__(self, name):
        # reached only while the slot `name` is empty
        if name == "heights":
            value = tuple(map(sum, zip(*self.m)))
        elif name == "p_sums":
            value = tuple(map(sum, self.p))
        elif name in ("left", "right", "times"):
            value = {}
        elif name == "inv":
            # the point matrix of m^-1 is m^T; m is the inverse of m^-1
            value = _intern(transpose(self.p), transpose, self.m)
            value.inv = self
        else:
            raise AttributeError(name)
        setattr(self, name, value)
        return value


# finite part m -> its record, one per finite part the process has formed
_finite_parts: dict[IntMat, _FinitePart] = {}

# (gamma, integer coroot) -> a small int naming the wall, which keys the
# links of a record: systems share finite parts (the identity, for one) but
# not walls, and an int hashes faster than the pair
_wall_ids: dict[tuple[IntVec, IntVec], int] = {}


def _intern(m: IntMat, point, *args) -> _FinitePart:
    """The record of finite part m; a new one gets the point matrix
    point(*args), formed only then."""
    fin = _finite_parts.get(m)
    if fin is None:
        fin = _finite_parts[m] = _FinitePart(m, point(*args))
    return fin


@lru_cache(maxsize=None)
def _identity(n: int) -> _FinitePart:
    eye = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    return _intern(eye, lambda: eye)


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
    label, the wall (gamma, integer coroot, level, wall id, coordinate) of
    each label, the positive roots in closure order with the chain that
    raised them (`FiniteRootSystem.raising`, read by `_root_pairings`) and
    whether only odd levels of each are affine roots (alpha in 2Q_R), and
    the integer coroots of the roots, each filled in on first use from the
    integer matrix 6G (`FiniteRootSystem.gram6`).  The coordinate of a wall
    is the j with gamma = e_j at level 0, a simple root of the finite system
    (label l >= 1 has j = l - 1), and None for a_0 = 1 - theta."""

    def __init__(self, ambient: AffineRootSystem):
        finite = ambient.finite_base
        self.gram6 = finite.gram6
        self.coroots = {}
        self.walls = {}
        for l, a in zip(ambient.labels, ambient.simples):
            gamma, corovec = a.direction, self.coroot(a.direction)
            wall = _wall_ids.setdefault((gamma, corovec), len(_wall_ids))
            j = gamma.index(1) if a.level == 0 and sum(map(abs, gamma)) == 1 else None
            self.walls[l] = (gamma, corovec, a.level, wall, j)
        self.simples = {
            l: _reflection(ambient, a, self.walls[l][1])
            for l, a in zip(ambient.labels, ambient.simples)
        }
        self.positive, self.chain = finite.raising
        self.odd_only = tuple(map(finite.in_two_q_r, self.positive))

    def coroot(self, root: IntVec) -> IntVec:
        """The coweight coordinates of the coroot of `root`, as ints: the
        scalar products (r, alpha_j) scaled by 2 / (r, r).  With t = 6G r
        that is 2 t_j / <r, t>, an exact division of ints; ValueError on a
        remainder, ConstantFunction for the zero functional."""
        corovec = self.coroots.get(root)
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
            corovec = self.coroots[root] = tuple(corovec)
        return corovec


def _system_data(ambient: AffineRootSystem) -> _SystemData:
    """The ambient's group data, built on first use and kept on the ambient
    object itself (one object per system, see `affinize`)."""
    data = getattr(ambient, "_group_data", None)
    if data is None:
        data = ambient._group_data = _SystemData(ambient)
    return data


def _root_pairings(chain, v: IntVec) -> list[int]:
    """<alpha, v> for every positive root alpha, in closure order, for an
    integer vector v: v itself on the simple roots, then <beta, v> + c v_i
    for each root alpha = beta + c alpha_i of the chain
    (`FiniteRootSystem.raising`), one multiply-add per root where a dot
    product takes n."""
    p = list(v)
    append = p.append
    for j, i, c in chain:
        append(p[j] + c * v[i])
    return p


def _finite_part(m: IntMat) -> _FinitePart:
    """The record of a matrix given from outside (`element_from_json`, the
    constructor): if it is new, its point matrix is the inverse transpose,
    integral because the finite part preserves P^v.  The group operations
    make the records of the parts they form from their factors' (P(m1 m2) =
    P(m1) P(m2)), so each matrix is inverted at most once."""
    return _intern(m, lambda: tuple(tuple(map(integral, row)) for row in mat_inv(transpose(m))))


# ---------------------------------------------------------------------------
# Elements
# ---------------------------------------------------------------------------


class ExtAffineWeylElement:
    """(mu, matrix) over an ambient system, the matrix held as the record of
    its finite part; equal by (mu, matrix) over one finite root system, so
    the affine and finite packagings of a system share their elements but
    two systems do not, and hashed by (mu, matrix), the hash computed on
    first use and kept.  `_intern` keeps one record per matrix, so equal
    matrices are one record, compared by identity."""

    __slots__ = ("ambient", "mu", "fin", "_hash")

    def __init__(self, ambient: AffineRootSystem, mu: IntVec = (), matrix: IntMat = ()):
        self.ambient, self.mu, self._hash = ambient, tuple(map(integral, mu)), None
        self.fin = _finite_part(tuple(tuple(map(integral, row)) for row in matrix))

    @property
    def matrix(self) -> IntMat:
        return self.fin.m

    def __eq__(self, other):
        return (
            isinstance(other, ExtAffineWeylElement)
            and self.fin is other.fin
            and self.mu == other.mu
            and (
                self.ambient is other.ambient
                or self.ambient.finite_base == other.ambient.finite_base
            )
        )

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash((self.mu, self.fin.m))
        return h

    # -- constructors -----------------------------------------------------

    @staticmethod
    def identity(ambient: AffineRootSystem) -> "ExtAffineWeylElement":
        n = ambient.rank
        return _element(ambient, (0,) * n, _identity(n))

    @staticmethod
    def translation(ambient: AffineRootSystem, mu: Vec) -> "ExtAffineWeylElement":
        """X^mu for an integer coweight mu; a finite system has only mu = 0."""
        mu = tuple(map(integral, mu))
        if any(mu) and not ambient.affine:
            raise ValueError("a finite system has no translations")
        return _element(ambient, mu, _identity(ambient.rank))

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
        f, h = self.fin, other.fin
        omu = other.mu
        mu = tuple(a + sum(map(mul, row, omu)) for a, row in zip(self.mu, f.p))
        fin = f.times.get(h)
        if fin is None:
            fin = f.times[h] = _intern(_mat_mul(f.m, h.m), _mat_mul, f.p, h.p)
        return _element(self.ambient, mu, fin)

    def inverse(self) -> "ExtAffineWeylElement":
        """g^-1 = (-m^T mu, P^T), with P the point matrix of g, its finite
        part read off the record's `inv` link."""
        mu = tuple(-sum(map(mul, col, self.mu)) for col in zip(*self.fin.m))
        return _element(self.ambient, mu, self.fin.inv)

    def is_identity(self) -> bool:
        return not any(self.mu) and self.fin is _identity(len(self.mu))

    # -- actions ----------------------------------------------------------

    def act_numerators(self, nums, den: int) -> tuple[int, ...]:
        """g on a point given as integer numerators over one denominator:
        x = nums / den maps to (P nums + den mu) / den, P the integer point
        matrix, so the result is the numerators over the same den."""
        return tuple(
            sum(map(mul, row, nums)) + den * m
            for row, m in zip(self.fin.p, self.mu)
        )

    def act_point(self, x: Vec) -> Vec:
        """g(x) = P x + mu as Fractions, for a point that enters or leaves as
        a value: x split into numerators over their lcm (`linalg.numerators`),
        acted on by `act_numerators`, and one Fraction built per coordinate."""
        nums, den = numerators(x)
        if len(nums) != len(self.mu):
            raise ValueError(f"point of dimension {len(nums)}, expected {len(self.mu)}")
        return tuple(Fraction(n, den) for n in self.act_numerators(nums, den))

    def act_gradient(self, gradient: Vec) -> Vec:
        return mat_vec(self.fin.m, tuple(Fraction(c) for c in gradient))

    def act_affine(self, gradient: Vec, constant: Fraction) -> tuple[Vec, Fraction]:
        grad = self.act_gradient(gradient)
        return grad, Fraction(constant) - dot(grad, self.mu)


def _element(ambient: AffineRootSystem, mu: IntVec, fin: _FinitePart) -> ExtAffineWeylElement:
    """An element from an int tuple and a record, skipping the conversion in
    __init__: the constructor of the group operations, whose results are
    ints already."""
    g = object.__new__(ExtAffineWeylElement)
    g.ambient, g.mu, g.fin, g._hash = ambient, mu, fin, None
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
    return _element(ambient, tuple(-a.level * c for c in corovec), _intern(rows, transpose, rows))


def _wall(ambient: AffineRootSystem, label: int) -> tuple[IntVec, IntVec, int, int, int | None]:
    """(gamma, integer coroot, level k, wall id, coordinate j) of the simple
    wall a = gamma + k, read off the ambient's group data in one lookup: the
    kernels call this once per step, so `_system_data` builds that data only
    when the ambient has none yet.  j is None unless a = e_j (see
    `_SystemData`); the kernels read coordinate j of a vector in place of
    pairing it with gamma."""
    try:
        walls = ambient._group_data.walls
    except AttributeError:
        walls = _system_data(ambient).walls
    try:
        return walls[label]
    except KeyError:
        raise ValueError(f"unknown simple label {label}") from None


def _times_reflector(rows: IntMat, a: IntVec, b: IntVec) -> IntMat:
    """rows (I - a b^T): each row r becomes r - <r, a> b."""
    out = []
    for r in rows:
        c = sum(map(mul, r, a))
        out.append(tuple([x - c * y for x, y in zip(r, b)]) if c else r)
    return tuple(out)


def _times_coordinate_reflector(rows: IntMat, j: int, b: IntVec) -> IntMat:
    """rows (I - e_j b^T): each row r becomes r - r_j b."""
    return tuple([tuple([x - r[j] * y for x, y in zip(r, b)]) if r[j] else r for r in rows])


def _minus_in_column(rows: IntMat, j: int, v: IntVec) -> IntMat:
    """rows - v e_j^T: entry j of row i less v_i, the other columns kept."""
    return tuple([r[:j] + (r[j] - c,) + r[j + 1 :] if c else r for r, c in zip(rows, v)])


def _reflector_times(a: IntVec, b: IntVec, rows: IntMat) -> IntMat:
    """(I - a b^T) rows: row i becomes r_i - a_i (b^T rows)."""
    v = [0] * len(rows[0])
    for c, r in zip(b, rows):
        if c:
            v = [x + c * y for x, y in zip(v, r)]
    return tuple([tuple([x - c * y for x, y in zip(r, v)]) if c else r for c, r in zip(a, rows)])


def mul_simple(g: ExtAffineWeylElement, label: int) -> ExtAffineWeylElement:
    """g s_label, for the wall a = gamma + k: mu - k P gamma_check, m (I -
    gamma gamma_check^T) and P (I - gamma_check gamma^T), the finite part and
    P gamma_check formed once per record and wall, then read off its right
    link.  At a coordinate wall gamma = e_j (k = 0): row r of m becomes r -
    r_j gamma_check, and P changes in column j only, by P gamma_check."""
    gamma, corovec, k, wall, j = _wall(g.ambient, label)
    fin = g.fin
    link = fin.right.get(wall)
    if link is None:
        m, p = fin.m, fin.p
        pc = _mat_vec(p, corovec)
        if j is None:
            rec = _intern(_times_reflector(m, gamma, corovec), _times_reflector, p, corovec, gamma)
        else:
            rec = _intern(_times_coordinate_reflector(m, j, corovec), _minus_in_column, p, j, pc)
        link = fin.right[wall] = (rec, pc)
    fin, pc = link
    mu = g.mu
    if k:
        mu = tuple([a - k * c for a, c in zip(mu, pc)])
    return _element(g.ambient, mu, fin)


def simple_mul(label: int, g: ExtAffineWeylElement) -> ExtAffineWeylElement:
    """s_label g, for the wall a = gamma + k: mu - (<gamma, mu> + k)
    gamma_check, (I - gamma gamma_check^T) m and (I - gamma_check gamma^T) P,
    the finite part formed once per record and wall, then read off its left
    link.  At a coordinate wall gamma = e_j, <gamma, mu> + k is mu_j."""
    gamma, corovec, k, wall, j = _wall(g.ambient, label)
    mu = g.mu
    c = mu[j] if j is not None else sum(map(mul, gamma, mu)) + k
    if c:
        mu = tuple([a - c * y for a, y in zip(mu, corovec)])
    left = g.fin.left
    fin = left.get(wall)
    if fin is None:
        m, p = g.fin.m, g.fin.p
        fin = left[wall] = _intern(
            _reflector_times(gamma, corovec, m), _reflector_times, corovec, gamma, p
        )
    return _element(g.ambient, mu, fin)


def act_on_affine_root(g: ExtAffineWeylElement, a: AffineRoot) -> AffineRoot:
    """g(a), a root because W permutes the affine roots."""
    grad, level = _image(g.fin.m, g.mu, a.direction, a.level)
    return _affine_root(g.ambient.finite_base, grad, level)


# ---------------------------------------------------------------------------
# Length and inversions
# ---------------------------------------------------------------------------


def length(g: ExtAffineWeylElement) -> int:
    """The number of affine roots a in S+ with g(a) in S-, read over the
    positive roots alpha (Iwahori-Matsumoto 1965; Macdonald, Affine Hecke
    algebras and orthogonal polynomials, section 2).  g maps alpha + n to
    g(alpha) + n - c, c = <alpha, m^T mu>, so with t = c + [g(alpha) < 0]
    the inversions on alpha and -alpha are alpha + k and -alpha - k for k
    in [min(0, t), max(0, t)), odd k only for alpha in 2Q_R: |t| of them,
    or floor(hi / 2) - floor(lo / 2).  The pairings of every alpha with m^T
    mu and with the column sums of m, which give the height of g(alpha),
    are read along the raising chain (`_root_pairings`), one addition per
    root.  A finite system needs no branch: mu = 0 there, so t =
    [g(alpha) < 0], and a 2Q_R root gets no odd k in [0, 1), as it is no
    root at level 0."""
    try:
        data = g.ambient._group_data
    except AttributeError:
        data = _system_data(g.ambient)
    mu, chain = g.mu, data.chain
    shifts = _root_pairings(chain, [sum(map(mul, col, mu)) for col in zip(*g.fin.m)])
    heights = _root_pairings(chain, g.fin.heights)
    total = 0
    for c, h, odd_only in zip(shifts, heights, data.odd_only):
        t = c + (h < 0)
        if odd_only:
            total += t // 2 if t > 0 else -(t // 2)
        else:
            total += t if t > 0 else -t
    return total


def has_left_descent(g: ExtAffineWeylElement, label: int) -> bool:
    """Whether g^-1(a_label) is negative.  g^-1 = (-m^T mu, P^T) maps the
    affine root (d, k) to (P^T d, k + <d, mu>), as P m^T = I, so neither g^-1
    nor its translation is formed.  A nonzero level decides; at level 0 the
    root P^T d has the height <d, row sums of P>, kept on the record.  At a
    coordinate wall d = e_j (k = 0) both pairings read coordinate j: the
    level is mu_j, and the height the sum of row j of P."""
    d, _, k, _, j = _wall(g.ambient, label)
    if j is None:
        level = k + sum(map(mul, d, g.mu))
        return level < 0 if level else sum(map(mul, d, g.fin.p_sums)) < 0
    level = g.mu[j]
    return level < 0 if level else g.fin.p_sums[j] < 0


def has_right_descent(g: ExtAffineWeylElement, label: int) -> bool:
    """Whether g(a_label) is negative.  At a coordinate wall a = e_j the
    image is column j of m at the level -<column j, mu>, and at level 0 its
    height is the sum of column j, kept on the record, so no image is
    formed; a_0 takes the image."""
    d, _, k, _, j = _wall(g.ambient, label)
    if j is None:
        return _is_negative(*_image(g.fin.m, g.mu, d, k))
    fin = g.fin
    c = sum([row[j] * a for row, a in zip(fin.m, g.mu)])
    return c > 0 if c else fin.heights[j] < 0


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


# Steps after which a descent strip compares its count with l(g), once: above
# every strip that the golden commands and the benchmark pools make (their
# words have at most 18 letters), so none of them computes l(g), and small, so
# a wrong descent test raises at once.
STRIP_CHECK = 64


def _strip_descents(
    g: ExtAffineWeylElement, labels, side: str, step=None
) -> tuple[ExtAffineWeylElement, tuple[int, ...]]:
    """Strip descents of g among `labels` on `side` ('left' or 'right'),
    lowest label first, until none is left: (h, letters) with g = s_{l1} ...
    s_{lq} h on the left, or g = h s_{lq} ... s_{l1} on the right.  `step`
    multiplies by a label's generator on `side`, step(l, h) on the left and
    step(h, l) on the right; it defaults to s_l (`simple_mul` /
    `mul_simple`), and a relative system passes its s-tilde.  The labels are
    scanned by a plain loop (no generator per step), and the descent test is
    looked up in the module globals at each call.  Each step
    lowers the length, so a strip of g takes at most l(g) steps: past
    STRIP_CHECK steps that bound is checked, and a strip that exceeds it (a
    wrong descent test) raises RuntimeError instead of running on."""
    labels = sorted(labels)
    left = side == "left"
    is_descent = has_left_descent if left else has_right_descent
    if step is None:
        step = simple_mul if left else mul_simple
    start, letters, steps, bound = g, [], 0, STRIP_CHECK
    while True:
        for label in labels:
            if is_descent(g, label):
                break
        else:
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
    m, mu = y.fin.m, y.mu
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
    for gamma in data.positive:
        if any(a != -b for a, b in zip(_mat_vec(g.fin.m, gamma), gamma)):
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
    inversions of g^-1, read as in `length`, each pair +-(alpha + k) keyed
    by alpha + k for alpha > 0.  g^-1 = (-m^T mu, P^T) is not formed: its
    m^T mu is -mu, as P m^T = I, and its column sums are the row sums of P,
    kept on the record; both are paired with every alpha along the raising
    chain, and finite systems need no branch, as for `length`."""
    ambient = g.ambient
    try:
        data = ambient._group_data
    except AttributeError:
        data = _system_data(ambient)
    finite, chain = ambient.finite_base, data.chain
    heights = _root_pairings(chain, g.fin.p_sums)
    shifts = _root_pairings(chain, g.mu)
    keys = []
    for alpha, odd_only, h, c in zip(data.positive, data.odd_only, heights, shifts):
        t = (h < 0) - c
        if t:
            lo, hi = (0, t) if t > 0 else (t, 0)
            # lo | 1 is the first odd k >= lo
            levels = range(lo | 1, hi, 2) if odd_only else range(lo, hi)
            keys.extend([_affine_root(finite, alpha, k) for k in levels])
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


# the most elements a `length_ball` search may reach
BALL_CAP = 10**6


def length_ball(
    ambient: AffineRootSystem, radius: int | None, labels=None, step=simple_mul
) -> tuple[dict, dict, dict]:
    """(lengths, descents, steps) of the elements of length <= radius (all
    when radius is None) of the group that `labels` generate, from one
    breadth-first search from e by step(l, g): each h mapped to its length
    (in BFS order), to its left descents and, past e, to (l, g) with h =
    step(l, g) for its lowest left descent l.  The defaults, all simple
    labels and s_l g (`simple_mul`), search W_S; a parabolic passes its
    labels, and a relative group its labels and s-tilde g, whose relative
    descents are its ambient left descents there (`relative_descents`).

    g at level d is multiplied only by the labels that are not its left
    descents, and h = step(l, g) gets l as a left descent; every left
    descent of h arises so, one level down, so h's set is complete once that
    level is visited.  A new h is checked by one descent test, as l(s_l g) =
    l(g) + 1 exactly when l is a left descent of s_l g (Humphreys, Reflection
    Groups and Coxeter Groups, 5.2-5.4), so its level is its length; a
    rediscovered h must sit one level up.  More than BALL_CAP elements raise
    BallTooLarge."""
    e = ExtAffineWeylElement.identity(ambient)
    if labels is None:
        labels = ambient.labels
    lengths, descents, steps = {e: 0}, {e: set()}, {}
    frontier, d = [e], 0
    while frontier and (radius is None or d < radius):
        d += 1
        nxt = []
        for g in frontier:
            below = descents[g]
            for l in labels:
                if l in below:
                    continue
                h = step(l, g)
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
        mu = tuple(map(integral, mu))
        m = tuple(tuple(map(integral, row)) for row in rows)
    except (KeyError, TypeError):
        raise ValueError('element must be an object with "mu" and "w" lists of integers') from None
    n = ambient.rank
    if len(mu) != n or len(m) != n or any(len(row) != n for row in m):
        raise ValueError(f"element must have a length-{n} mu and an {n}x{n} matrix")
    finite = ambient.finite_base
    for alpha in (s.direction for s in ambient.simples):
        if not finite.is_root(_mat_vec(m, alpha)):
            raise ValueError("matrix does not permute the root system")
    gram = finite.gram_matrix
    if mat_mul(transpose(m), mat_mul(gram, m)) != gram:
        raise ValueError("matrix is not orthogonal for the Gram form")
    # m is an isometry permuting the roots, so invertible over the integers:
    # only now is it interned
    fin = _finite_part(m)
    spherical = finite_coxeter(finite)
    w = _element(spherical, (0,) * n, fin)
    if not _strip_descents(w, spherical.labels, "left")[0].is_identity():
        raise ValueError("matrix is not in the finite Weyl group")
    if any(mu) and not ambient.affine:
        raise ValueError("a finite system has no translations")
    return _element(ambient, mu, fin)
