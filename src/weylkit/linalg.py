"""Small exact linear algebra over the rationals.

Vectors are tuples, matrices are tuples of row tuples, and entries are ints
or Fractions.  Products (dot, mat_vec, mat_mul, vec_scale) and the
eliminations return Fractions; transpose keeps the types of its entries.
Everything returns fresh immutable values; nothing here ever touches a
float.  The integral group elements of `weyl` multiply with their own
int-only kernels.  No command reaches the Gaussian elimination `_echelon`:
rank, nullspace and mat_inv serve spans, the pseudo-Levi relevance check and
the point matrices of elements built from outside.
"""

from fractions import Fraction
from itertools import chain
from math import gcd, lcm

Vec = tuple[Fraction, ...]
Mat = tuple[tuple[Fraction, ...], ...]


def integral(c) -> int:
    """An int equal to c (an int, a Fraction, a float or a rational string);
    ValueError if c is not an integer."""
    if type(c) is int:
        return c
    q = Fraction(c)
    if q.denominator != 1:
        raise ValueError(f"{c} is not an integer")
    return q.numerator


def zero_vec(n: int) -> Vec:
    return (Fraction(0),) * n


def vec_scale(c, v: Vec) -> Vec:
    c = Fraction(c)
    return tuple(c * a for a in v)


def dot(u: Vec, v: Vec) -> Fraction:
    return sum((a * b for a, b in zip(u, v, strict=True)), Fraction(0))


def frac_str(x) -> str:
    """A rational as "p/q", or "p" when it is an integer."""
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def numerators(x) -> tuple[tuple[int, ...], int]:
    """A rational point as (integer numerators, their least common
    denominator), the form `ExtAffineWeylElement.act_numerators` acts on."""
    x = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in x]
    den = lcm(*(c.denominator for c in x))
    return tuple(c.numerator * (den // c.denominator) for c in x), den


def numerators_str(nums, den: int) -> str:
    """The point nums / den (den > 0) as comma-joined frac_str coordinates,
    each reduced by one gcd, with no Fraction built."""
    return ",".join(
        [str(n // k) if (k := gcd(n, den)) == den else f"{n // k}/{den // k}" for n in nums]
    )


def identity(n: int) -> Mat:
    return tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)
    )


def transpose(m: Mat) -> Mat:
    return tuple(zip(*m, strict=True))


def mat_vec(m: Mat, v: Vec) -> Vec:
    return tuple(dot(row, v) for row in m)


def mat_mul(a: Mat, b: Mat) -> Mat:
    bt = transpose(b)
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def _echelon(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Row-reduce in place; return (reduced rows, pivot column indices)."""
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [e * inv for e in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rank(m: Mat) -> int:
    rows = [list(map(Fraction, row)) for row in m]
    _, pivots = _echelon(rows)
    return len(pivots)


def mat_inv(m: Mat) -> Mat:
    n = len(m)
    aug = [list(chain(map(Fraction, row), identity(n)[i])) for i, row in enumerate(m)]
    rows, pivots = _echelon(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return tuple(tuple(row[n:]) for row in rows)


def nullspace(m: Mat) -> tuple[Vec, ...]:
    """Basis of the kernel of m (acting on column vectors)."""
    if not m:
        return ()
    n = len(m[0])
    rows = [list(map(Fraction, row)) for row in m]
    rows, pivots = _echelon(rows)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][fc]
        basis.append(tuple(v))
    return tuple(basis)


def is_positive_definite(g: Mat) -> bool:
    """Sylvester's criterion by one symmetric elimination without row
    exchange: the k-th pivot is the ratio of the k-th and (k-1)-th leading
    minors, so every pivot is positive exactly when every minor is."""
    rows = [list(map(Fraction, row)) for row in g]
    for c, pivot_row in enumerate(rows):
        if pivot_row[c] <= 0:
            return False
        for row in rows[c + 1 :]:
            f = row[c] / pivot_row[c]
            row[:] = [a - f * b for a, b in zip(row, pivot_row)]
    return True
