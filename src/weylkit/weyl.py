"""The (extended) affine Weyl group of an affinised root system.

Elements are stored in the canonical form (translation, finite matrix): a
coweight-lattice translation vector together with the exact integer matrix of
the finite part acting on functionals in the simple-root basis.  All word and
length algorithms reduce to inversion counting on affine roots, which is made
finite by the bound |level| <= max over roots of |<root, translation>| + 1.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from . import linalg
from .linalg import Mat, Vec, dot, frac_str, mat_inv, mat_mul, mat_vec, transpose
from .root_system import AffineRoot, AffineRootSystem


class NotAReflection(ValueError):
    pass


class DifferentComponents(ValueError):
    """Bruhat comparison across distinct W_S-cosets of the extended group."""


class BallTooLarge(RuntimeError):
    pass


@lru_cache(maxsize=None)
def _point_matrix(m: Mat) -> Mat:
    """Matrix of the same isometry acting on points, given its action on
    functionals: the inverse transpose."""
    return mat_inv(transpose(m))


@dataclass(frozen=True)
class ExtAffineWeylElement:
    ambient: AffineRootSystem = field(compare=False)
    mu: Vec = ()
    matrix: Mat = ()

    def __post_init__(self):
        object.__setattr__(self, "mu", tuple(Fraction(c) for c in self.mu))
        object.__setattr__(
            self, "matrix", tuple(tuple(Fraction(c) for c in row) for row in self.matrix)
        )

    # -- constructors -----------------------------------------------------

    @staticmethod
    def identity(ambient: AffineRootSystem) -> "ExtAffineWeylElement":
        n = ambient.rank
        return ExtAffineWeylElement(ambient, linalg.zero_vec(n), linalg.identity(n))

    @staticmethod
    def translation(ambient: AffineRootSystem, mu: Vec) -> "ExtAffineWeylElement":
        return ExtAffineWeylElement(ambient, tuple(mu), linalg.identity(ambient.rank))

    @staticmethod
    def reflection(ambient: AffineRootSystem, a: AffineRoot) -> "ExtAffineWeylElement":
        """s_a as a group element: X^{-n a_check} s_{da}."""
        finite = ambient.finite_base
        gamma = a.direction
        corovec = finite.coroot_vector(tuple(map(Fraction, gamma)))
        mu = linalg.vec_scale(-a.level, corovec)
        norm = finite.inner(gamma, gamma)
        n = finite.rank
        rows = []
        for k in range(n):
            row = []
            for j in range(n):
                basis = Fraction(1 if k == j else 0)
                # s_gamma(alpha_j) = alpha_j - <gamma_check, alpha_j> gamma
                cj = 2 * finite.inner(gamma, tuple(1 if t == j else 0 for t in range(n))) / norm
                row.append(basis - cj * gamma[k])
            rows.append(tuple(row))
        return ExtAffineWeylElement(ambient, mu, tuple(rows))

    @staticmethod
    def simple(ambient: AffineRootSystem, label: int) -> "ExtAffineWeylElement":
        return ExtAffineWeylElement.reflection(ambient, ambient.simple_by_label(label))

    # -- group structure --------------------------------------------------

    def __mul__(self, other: "ExtAffineWeylElement") -> "ExtAffineWeylElement":
        shifted = mat_vec(_point_matrix(self.matrix), other.mu)
        return ExtAffineWeylElement(
            self.ambient,
            linalg.vec_add(self.mu, shifted),
            mat_mul(self.matrix, other.matrix),
        )

    def inverse(self) -> "ExtAffineWeylElement":
        minv = mat_inv(self.matrix)
        mu = tuple(-c for c in mat_vec(transpose(self.matrix), self.mu))
        return ExtAffineWeylElement(self.ambient, mu, minv)

    def is_identity(self) -> bool:
        return all(c == 0 for c in self.mu) and self.matrix == linalg.identity(
            self.ambient.rank
        )

    # -- actions ----------------------------------------------------------

    def act_point(self, x: Vec) -> Vec:
        moved = mat_vec(_point_matrix(self.matrix), tuple(Fraction(c) for c in x))
        return linalg.vec_add(moved, self.mu)

    def act_gradient(self, gradient: Vec) -> Vec:
        return mat_vec(self.matrix, tuple(Fraction(c) for c in gradient))

    def act_affine(self, gradient: Vec, constant: Fraction) -> tuple[Vec, Fraction]:
        grad = self.act_gradient(gradient)
        return grad, Fraction(constant) - dot(grad, self.mu)


def act_on_affine_root(g: ExtAffineWeylElement, a: AffineRoot) -> AffineRoot:
    grad, const = g.act_affine(tuple(map(Fraction, a.direction)), Fraction(a.level))
    direction = tuple(int(c) for c in grad)
    assert const.denominator == 1, "affine root left the root system: non-integral level"
    return AffineRoot(g.ambient.finite_base, direction, int(const))


# ---------------------------------------------------------------------------
# Length and inversions
# ---------------------------------------------------------------------------


def _inversions(g: ExtAffineWeylElement):
    """Yield the affine roots a in S+ with g(a) in S-."""
    ambient = g.ambient
    finite = ambient.finite_base
    for alpha in finite.roots:
        galpha, shift = g.act_affine(tuple(map(Fraction, alpha)), Fraction(0))
        c = -shift  # g(alpha + n) = galpha + (n - c)
        assert c.denominator == 1
        c = int(c)
        start = 0 if finite.is_positive(alpha) else 1
        if not ambient.affine:
            stop = 0
        else:
            stop = c
        for n in range(start, stop + 1):
            if not ambient.contains(alpha, n):
                continue
            image_level = n - c
            gdir = tuple(int(x) for x in galpha)
            if image_level < 0 or (image_level == 0 and not finite.is_positive(gdir)):
                yield AffineRoot(finite, alpha, n)


def length(g: ExtAffineWeylElement) -> int:
    return sum(1 for _ in _inversions(g))


def has_left_descent(g: ExtAffineWeylElement, label: int) -> bool:
    a = g.ambient.simple_by_label(label)
    image = act_on_affine_root(g.inverse(), a)
    return not image.is_positive()


def has_right_descent(g: ExtAffineWeylElement, label: int) -> bool:
    a = g.ambient.simple_by_label(label)
    image = act_on_affine_root(g, a)
    return not image.is_positive()


# ---------------------------------------------------------------------------
# Reduced words
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReducedWord:
    """Reduced decomposition pi * s_{l_1} * ... * s_{l_q} with an optional
    lattice-automorphism prefix pi (identity for elements of W_S)."""

    ambient: AffineRootSystem = field(compare=False)
    pi: ExtAffineWeylElement = None
    letters: tuple[int, ...] = ()

    def evaluate(self) -> ExtAffineWeylElement:
        g = self.pi
        for l in self.letters:
            g = g * ExtAffineWeylElement.simple(self.ambient, l)
        return g

    def __len__(self):
        return len(self.letters)


def _delta_permutation(pi: ExtAffineWeylElement) -> dict[int, int]:
    """The permutation of simple labels induced by a length-0 element."""
    out = {}
    for a, lab in zip(pi.ambient.simples, pi.ambient.labels):
        image = act_on_affine_root(pi, a)
        for b, lab2 in zip(pi.ambient.simples, pi.ambient.labels):
            if image == b:
                out[lab] = lab2
                break
        else:
            raise ValueError("element of length 0 does not permute the base")
    return out


def _strip_descents(
    g: ExtAffineWeylElement, labels, side: str
) -> tuple[ExtAffineWeylElement, tuple[int, ...]]:
    """Strip descents of g among `labels` on `side` ('left' or 'right'),
    always the lowest such label first, until none is left.  Returns (h,
    letters) with g = s_{l1} ... s_{lq} h on the left, or g = h s_{lq} ...
    s_{l1} on the right."""
    labels = sorted(labels)
    is_descent = has_left_descent if side == "left" else has_right_descent
    letters = []
    while True:
        label = next((l for l in labels if is_descent(g, l)), None)
        if label is None:
            return g, tuple(letters)
        s = ExtAffineWeylElement.simple(g.ambient, label)
        g = s * g if side == "left" else g * s
        letters.append(label)


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
    lexicographically positive direction."""
    first = next(c for c in a.direction if c != 0)
    return a if first > 0 else a.negate()


def reflection_root_of(g: ExtAffineWeylElement) -> AffineRoot:
    """Recover the affine root (canonical key) of a reflection element."""
    ambient = g.ambient
    n = ambient.rank
    ident = linalg.identity(n)
    diff = tuple(
        tuple(g.matrix[i][j] - ident[i][j] for j in range(n)) for i in range(n)
    )
    if linalg.rank(diff) != 1 or mat_mul(g.matrix, g.matrix) != ident:
        raise NotAReflection("finite part is not a reflection matrix")
    col = next(
        tuple(diff[i][j] for i in range(n)) for j in range(n) if any(diff[i][j] for i in range(n))
    )
    finite = ambient.finite_base
    for root in finite.roots:
        rv = tuple(map(Fraction, root))
        scale = None
        ok = True
        for a, b in zip(col, rv):
            if b == 0:
                if a != 0:
                    ok = False
                    break
            else:
                s = a / b
                if scale is None:
                    scale = s
                elif s != scale:
                    ok = False
                    break
        if not ok or scale is None or scale == 0:
            continue
        # level from the translation part: s_{gamma+k} has mu = -k gamma_check
        corovec = finite.coroot_vector(rv)
        kv = [
            -m / c for m, c in zip(g.mu, corovec) if c != 0
        ]
        if not kv:
            if any(g.mu):
                continue
            kv = [Fraction(0)]
        k = kv[0]
        if any(x != k for x in kv[1:]) or k.denominator != 1:
            continue
        if not ambient.contains(root, int(k)):
            continue
        candidate = AffineRoot(finite, root, int(k))
        if ExtAffineWeylElement.reflection(ambient, candidate) == g:
            return canonical_reflection_key(candidate)
    raise NotAReflection("element is not a reflection of this affine root system")


def reflections_T(g: ExtAffineWeylElement) -> frozenset[AffineRoot]:
    """T(g) = set of reflections t with l(tg) < l(g), keyed canonically."""
    return frozenset(canonical_reflection_key(a) for a in _inversions(g.inverse()))


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
    s = ExtAffineWeylElement.simple(v.ambient, label)
    sv = s * v
    if has_left_descent(u, label):
        return _bruhat_ws(s * u, sv, lu - 1, lv - 1)
    return _bruhat_ws(u, sv, lu, lv - 1)


# ---------------------------------------------------------------------------
# Coset representatives and ball enumeration
# ---------------------------------------------------------------------------


def min_coset_rep(g: ExtAffineWeylElement, sigma, side: str = "right") -> ExtAffineWeylElement:
    """Minimal-length representative of g W_Sigma (side='right') or
    W_Sigma g (side='left'), obtained by stripping descents in Sigma."""
    return _strip_descents(g, sigma, side)[0]


def double_coset_min_rep(g: ExtAffineWeylElement, left_set, right_set) -> ExtAffineWeylElement:
    """Minimal-length representative of W_I g W_J."""
    while True:
        h = min_coset_rep(min_coset_rep(g, left_set, "left"), right_set, "right")
        if h == g:
            return h
        g = h


def closure(
    start: ExtAffineWeylElement, gens, radius: int | None = None, cap: int = 10**6
) -> dict[ExtAffineWeylElement, int]:
    """Breadth-first search from `start` by left multiplication with `gens`:
    every element at most `radius` steps away (all of them when radius is
    None), mapped to its distance.  More than `cap` elements raise
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
                h = s * g
                if h not in dist:
                    dist[h] = d
                    nxt.append(h)
                    if len(dist) > cap:
                        raise BallTooLarge(f"ball exceeds cap of {cap} elements")
        frontier = nxt
    return dist


def enumerate_ball(
    ambient: AffineRootSystem, radius: int, cap: int = 10**6
) -> dict[ExtAffineWeylElement, int]:
    """All elements of W_S with length <= radius, mapped to their lengths."""
    gens = [ExtAffineWeylElement.simple(ambient, l) for l in ambient.labels]
    ball = closure(ExtAffineWeylElement.identity(ambient), gens, radius, cap)
    for g, d in ball.items():
        assert length(g) == d
    return ball


def coxeter_order(
    x: ExtAffineWeylElement, y: ExtAffineWeylElement, cap: int = 50
) -> int | None:
    """Order of the product xy, or None if it exceeds the cap (infinite or
    merely large; callers decide how to report)."""
    p = x * y
    acc = p
    for k in range(1, cap + 1):
        if acc.is_identity():
            return k
        acc = acc * p
    return None


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def element_to_json(g: ExtAffineWeylElement) -> dict:
    return {
        "mu": [frac_str(c) for c in g.mu],
        "w": [[frac_str(c) for c in row] for row in g.matrix],
    }


def element_from_json(ambient: AffineRootSystem, data: dict) -> ExtAffineWeylElement:
    mu = tuple(Fraction(c) for c in data["mu"])
    w = tuple(tuple(Fraction(c) for c in row) for row in data["w"])
    g = ExtAffineWeylElement(ambient, mu, w)
    finite = ambient.finite_base
    for alpha in (s.direction for s in ambient.simples):
        img = g.act_gradient(tuple(map(Fraction, alpha)))
        if not finite.is_root(tuple(int(c) if c.denominator == 1 else c for c in img)):
            raise ValueError("matrix does not permute the root system")
    g_mat = g.matrix
    gram = finite.gram_matrix
    if mat_mul(transpose(g_mat), mat_mul(gram, g_mat)) != gram:
        raise ValueError("matrix is not orthogonal for the Gram form")
    return g
