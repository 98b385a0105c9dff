import random
from fractions import Fraction

from weylkit import linalg


def _mat(rows):
    return tuple(tuple(Fraction(e) for e in row) for row in rows)


def test_vec_ops():
    u = (Fraction(1), Fraction(2))
    v = (Fraction(1, 2), Fraction(3))
    assert linalg.dot(u, v) == Fraction(13, 2)
    assert linalg.vec_scale(Fraction(2), v) == (Fraction(1), Fraction(6))


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
    assert linalg.is_positive_definite(_mat([[2, -1], [-1, 2]]))
    assert not linalg.is_positive_definite(_mat([[1, 2], [2, 1]]))


def test_positive_definite_zero_leading_entry_and_singular():
    # a zero leading entry stops the elimination at once: no row exchange
    assert not linalg.is_positive_definite(_mat([[0, 1], [1, 2]]))
    assert not linalg.is_positive_definite(_mat([[0, 0], [0, 1]]))
    # positive semi-definite but singular: the last pivot is exactly 0
    assert not linalg.is_positive_definite(_mat([[1, 1], [1, 1]]))
    assert not linalg.is_positive_definite(_mat([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]))


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
        assert linalg.is_positive_definite(_mat(g)) == minors_positive, g
        verdicts.add(minors_positive)
    assert verdicts == {True, False}
