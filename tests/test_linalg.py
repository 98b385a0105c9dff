import random
from fractions import Fraction

from weylkit import linalg


def _mat(rows):
    return tuple(tuple(Fraction(e) for e in row) for row in rows)


def test_vec_ops():
    u = (Fraction(1), Fraction(2))
    v = (Fraction(1, 2), Fraction(3))
    assert linalg.dot(u, v) == Fraction(13, 2)


def test_mat_inverse_roundtrip():
    m = _mat([[2, -1], [-2, 2]])
    inv = linalg.mat_inv(m)
    assert linalg.mat_mul(m, inv) == linalg.identity(2)
    # [DERIVED] hand inverse of the B2 Cartan matrix
    assert inv == ((Fraction(1), Fraction(1, 2)), (Fraction(1), Fraction(1)))


def test_singular_matrix_rejected():
    import pytest

    with pytest.raises(ValueError):
        linalg.mat_inv(_mat([[1, 2], [2, 4]]))


def test_rank_and_nullspace():
    m = _mat([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert linalg.rank(m) == 2
    ns = linalg.nullspace(m)
    assert len(ns) == 1
    for row in m:
        assert linalg.dot(row, ns[0]) == 0


def test_positive_definite():
    assert linalg.leading_minors_positive([[2, -1], [-1, 2]])
    assert not linalg.leading_minors_positive([[1, 2], [2, 1]])


def test_positive_definite_zero_leading_entry_and_singular():
    # a zero leading entry stops the elimination at once: no row exchange
    assert not linalg.leading_minors_positive([[0, 1], [1, 2]])
    assert not linalg.leading_minors_positive([[0, 0], [0, 1]])
    # positive semi-definite but singular: the last pivot is exactly 0
    assert not linalg.leading_minors_positive([[1, 1], [1, 1]])
    assert not linalg.leading_minors_positive([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])


def _det(m):
    """Laplace expansion along the first row: the test oracle for minors."""
    if not m:
        return 1
    return sum(
        (-1) ** j * m[0][j] * _det([row[:j] + row[j + 1 :] for row in m[1:]])
        for j in range(len(m))
    )


def test_positive_definite_matches_leading_minors():
    rng = random.Random(3)
    verdicts = set()
    for _ in range(2000):
        n = rng.randint(1, 4)
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            g[i][i] = rng.randint(-1, 5)
            for j in range(i):
                g[i][j] = g[j][i] = rng.randint(-3, 3)
        minors_positive = all(_det([row[:k] for row in g[:k]]) > 0 for k in range(1, n + 1))
        assert linalg.leading_minors_positive(g) == minors_positive, g
        verdicts.add(minors_positive)
    assert verdicts == {True, False}


def _det_by_elimination(m):
    """Gaussian elimination in Fractions with row exchange: the oracle for
    the determinants too large for the Laplace expansion."""
    rows, det = [list(map(Fraction, row)) for row in m], Fraction(1)
    for c in range(len(rows)):
        p = next((i for i in range(c, len(rows)) if rows[i][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            rows[c], rows[p], det = rows[p], rows[c], -det
        det *= rows[c][c]
        for row in rows[c + 1 :]:
            f = row[c] / rows[c][c]
            row[:] = [a - f * b for a, b in zip(row, rows[c])]
    return det


def test_bareiss_pivots_are_the_leading_minors():
    # the check works on matrices past the random ones' sizes: 6G of every
    # legal diagram up to rank 8 is positive definite, and lowering its last
    # diagonal entry past det / (the minor before it) makes only the last
    # leading minor negative
    from weylkit.root_system import IllegalType, build_finite

    seen = 0
    for tl in ("A", "B", "C", "D", "E", "F", "G", "BC"):
        for rk in range(1, 9):
            try:
                g = [list(row) for row in build_finite(tl, rk).gram6]
            except IllegalType:
                continue
            seen += 1
            assert linalg.leading_minors_positive(g)
            inner = _det_by_elimination([row[:-1] for row in g[:-1]])
            g[-1][-1] -= int(_det_by_elimination(g) / inner) + 1
            assert _det_by_elimination(g) < 0 and not linalg.leading_minors_positive(g), (tl, rk)
    assert seen == 40
