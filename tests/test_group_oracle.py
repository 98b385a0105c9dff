"""Oracles for the group layer that share none of its representation.

Affine permutations (Bjorner-Brenti, Combinatorics of Coxeter Groups, ch. 8):
the extended affine Weyl group of type A_{n-1} acts on Z by the bijections v
with v(i + n) = v(i) + n (8.3), and the affine Weyl group of type C_n by the
bijections u with u(i + N) = u(i) + N and u(-i) = -u(i), N = 2n + 1 (8.4).
Both are stored as their windows (v(1), ..., v(n)); lengths, descents and
products are read off the window, with no matrix and no root.  In type A,
s_i swaps the window positions i and i + 1, s_0 swaps positions 0 and 1
across the period, and the shift i -> i + 1 has length 0.  In type C, s_0
swaps 1 and -1, s_i swaps i and i + 1 for 0 < i < n, and s_n swaps n and
n + 1.  The finite groups of types B_n and D_n are read off windows too,
as the signed permutations of [n] (8.1) and the even ones (8.2).

The subword property (Bjorner-Brenti, Theorem 2.2.2): u <= w in the Bruhat
order exactly when some subword of a reduced word of w evaluates to u.  The
reduced words come from a breadth-first search over the generators, so the
oracle for `bruhat_leq` uses only products, on every type.
"""

import random
from functools import lru_cache
from itertools import combinations, combinations_with_replacement

import pytest

from weylkit.root_system import affinize, build_finite, finite_coxeter
from weylkit.weyl import (
    DifferentComponents,
    ExtAffineWeylElement,
    ReducedWord,
    automorphism_part,
    bruhat_leq,
    has_left_descent,
    has_right_descent,
    length,
    reduced_word,
    reflections_T,
)

# ---------------------------------------------------------------------------
# Affine permutations
# ---------------------------------------------------------------------------


class _AffinePermutations:
    """The window calculus shared by every type: a subclass gives the value
    v(i) off the window, the inverse window, the generators and the length
    formula; descents are the i in `labels` with v(i) > v(i + 1)."""

    def __init__(self, n):
        self.n = n
        self.one = tuple(range(1, n + 1))

    def compose(self, u, v):
        """The window of u v: i -> u(v(i))."""
        return tuple(self.value(u, x) for x in v)

    def word(self, v, letters):
        for l in letters:
            v = self.compose(v, self.generator(l))
        return v

    def right_descents(self, v):
        return {i for i in self.labels if self.value(v, i) > self.value(v, i + 1)}

    def left_descents(self, v):
        return self.right_descents(self.inverse(v))


class _TypeA(_AffinePermutations):
    """A~_{n-1} and its extension by the shift (Bjorner-Brenti 8.3)."""

    def __init__(self, n):
        super().__init__(n)
        self.labels = range(n)

    def value(self, v, i):
        q, r = divmod(i - 1, self.n)
        return v[r] + q * self.n

    def inverse(self, v):
        out = [0] * self.n
        for j, x in enumerate(v, 1):
            q, r = divmod(x - 1, self.n)
            out[r] = j - q * self.n
        return tuple(out)

    def generator(self, i):
        window = list(self.one)
        if i == 0:
            window[0], window[-1] = 0, self.n + 1
        else:
            window[i - 1], window[i] = window[i], window[i - 1]
        return tuple(window)

    def shift(self):
        return tuple(range(2, self.n + 2))

    def length(self, v):
        """sum over 1 <= i < j <= n of |floor((v(j) - v(i)) / n)|
        (Proposition 8.3.1)."""
        return sum(abs((v[j] - v[i]) // self.n) for i, j in combinations(range(self.n), 2))

    def is_reflection(self, v):
        """A transposition t_{a,b}: an involution moving two window positions."""
        return self.compose(v, v) == self.one and sum(x != i for i, x in enumerate(v, 1)) == 2


class _TypeC(_AffinePermutations):
    """C~_n (Bjorner-Brenti 8.4), period N = 2n + 1."""

    def __init__(self, n):
        super().__init__(n)
        self.labels = range(n + 1)
        self.period = 2 * n + 1

    def value(self, u, i):
        """u(0) = 0 and u(N - j) = N - u(j) for 1 <= j <= n."""
        q, r = divmod(i, self.period)
        if r == 0:
            x = 0
        elif r <= self.n:
            x = u[r - 1]
        else:
            x = self.period - u[self.period - r - 1]
        return x + q * self.period

    def inverse(self, u):
        out = [0] * self.n
        for j, x in enumerate(u, 1):
            q, r = divmod(x, self.period)
            if r <= self.n:
                out[r - 1] = j - q * self.period
            else:  # u(-j + (q + 1) N) = N - r
                out[self.period - r - 1] = (q + 1) * self.period - j
        return tuple(out)

    def generator(self, i):
        window = list(self.one)
        if i == 0:
            window[0] = -1
        elif i == self.n:
            window[-1] = self.n + 1
        else:
            window[i - 1], window[i] = window[i], window[i - 1]
        return tuple(window)

    def length(self, u):
        """inv_B(u(1), ..., u(n)) plus, over 1 <= i <= j <= n, the floors of
        |u(i) - u(j)| / N and |u(i) + u(j)| / N (Proposition 8.4.3), where
        inv_B counts the i < j with u(i) > u(j) and the i <= j with u(i) +
        u(j) < 0."""
        n, big = self.n, self.period
        inv = sum(u[i] > u[j] for i, j in combinations(range(n), 2))
        nsp = sum(u[i] + u[j] < 0 for i, j in combinations_with_replacement(range(n), 2))
        floors = sum(
            abs(u[i] - u[j]) // big + abs(u[i] + u[j]) // big
            for i, j in combinations_with_replacement(range(n), 2)
        )
        return inv + nsp + floors

    def is_reflection(self, u):
        """An involution of odd length moving one or two window positions:
        a product of commuting reflections that moves so few has even
        length."""
        moved = sum(x != i for i, x in enumerate(u, 1))
        return self.compose(u, u) == self.one and moved in (1, 2) and self.length(u) % 2


class _TypeB(_AffinePermutations):
    """Finite B_n as the signed permutations of [n] (Bjorner-Brenti 8.1):
    v(-i) = -v(i).  s_0 negates v(1) and s_i swaps i and i + 1; a descent
    at 0 is v(1) < 0, as v(0) = 0."""

    def __init__(self, n):
        super().__init__(n)
        self.labels = range(n)

    def value(self, v, i):
        return v[i - 1] if i > 0 else -v[-i - 1] if i < 0 else 0

    def inverse(self, v):
        out = [0] * self.n
        for j, x in enumerate(v, 1):
            out[abs(x) - 1] = j if x > 0 else -j
        return tuple(out)

    def generator(self, i):
        window = list(self.one)
        if i == 0:
            window[0] = -1
        else:
            window[i - 1], window[i] = window[i], window[i - 1]
        return tuple(window)

    def length(self, v):
        """inv(v) plus the pairs i <= j with v(i) + v(j) < 0 (Proposition
        8.1.1)."""
        n = self.n
        inv = sum(v[i] > v[j] for i, j in combinations(range(n), 2))
        return inv + sum(v[i] + v[j] < 0 for i, j in combinations_with_replacement(range(n), 2))


class _TypeD(_TypeB):
    """Finite D_n as the even signed permutations (Bjorner-Brenti 8.2): s_0
    sends 1 to -2 and 2 to -1, and has a descent where v(1) + v(2) < 0."""

    def generator(self, i):
        if i:
            return super().generator(i)
        return (-2, -1) + self.one[2:]

    def right_descents(self, v):
        rest = {i for i in self.labels if i and v[i - 1] > v[i]}
        return rest | {0} if v[0] + v[1] < 0 else rest

    def length(self, v):
        """inv(v) plus the pairs i < j with v(i) + v(j) < 0 (Proposition
        8.2.1)."""
        return sum(
            (v[i] > v[j]) + (v[i] + v[j] < 0) for i, j in combinations(range(self.n), 2)
        )


def _order(mul, g, one, cap=12):
    """The order of g, or None past `cap` (infinite for these groups)."""
    h = g
    for k in range(1, cap + 1):
        if h == one:
            return k
        h = mul(h, g)
    return None


# ---------------------------------------------------------------------------
# Balls with their words
# ---------------------------------------------------------------------------


def _ball_words(ambient, radius):
    """Every element of W_S at most `radius` steps from the identity, mapped
    to a word of minimal length: h = s_l g gets the word (l,) + word(g), by
    breadth-first search with the general product."""
    gens = [(l, ExtAffineWeylElement.simple(ambient, l)) for l in ambient.labels]
    words = {ExtAffineWeylElement.identity(ambient): ()}
    frontier = list(words)
    for _ in range(radius):
        nxt = []
        for g in frontier:
            for l, s in gens:
                h = s * g
                if h not in words:
                    words[h] = (l,) + words[g]
                    nxt.append(h)
        frontier = nxt
    return words


# (type, rank) of the affine system -> the radius of its ball
PERM_BALLS = {("A", 1): 6, ("A", 2): 6, ("A", 3): 5, ("A", 4): 4, ("C", 2): 6, ("C", 3): 4}
CASES = sorted(PERM_BALLS)


@lru_cache(maxsize=None)
def _model(case):
    """(ambient, perms, rho, pairs): the ball of the affine system, each
    element g mapped to the affine permutation v of its word under s_l ->
    s_l, with its distance from the identity.  In type A the pairs go on
    with g rho^j for j = 1..n-1, mapped to v tau^j, where tau is the shift
    and rho the element of length 0 that conjugates each s_l to s_{l+1 mod
    n}, as tau does; in type C, rho is None."""
    type_label, rank = case
    ambient = affinize(build_finite(type_label, rank))
    perms = _TypeA(rank + 1) if type_label == "A" else _TypeC(rank)
    pairs = [
        (g, perms.word(perms.one, word), len(word))
        for g, word in _ball_words(ambient, PERM_BALLS[case]).items()
    ]
    if type_label != "A":
        return ambient, perms, None, pairs
    n = rank + 1
    simple = [ExtAffineWeylElement.simple(ambient, l) for l in range(n)]
    candidates = [
        automorphism_part(ExtAffineWeylElement.translation(ambient, omega))
        for omega in (tuple(int(i == j) for i in range(rank)) for j in range(rank))
    ]
    rho = next(
        r for r in candidates
        if all(r * simple[l] * r.inverse() == simple[(l + 1) % n] for l in range(n))
    )
    extended = []
    r, t = ExtAffineWeylElement.identity(ambient), perms.one
    for _ in range(n - 1):
        r, t = r * rho, perms.compose(t, perms.shift())
        extended += [(g * r, perms.compose(v, t), None) for g, v, _ in pairs]
    return ambient, perms, rho, pairs + extended


def _case_id(case):
    return f"{case[0]}~{case[1]}"


cases = pytest.mark.parametrize("case", CASES, ids=_case_id)


@cases
def test_label_map_keeps_the_coxeter_matrix(case):
    # s_l -> s_l is a homomorphism only if the orders of s_l s_l' agree
    ambient, perms, _, _ = _model(case)
    one = ExtAffineWeylElement.identity(ambient)
    for l, k in combinations_with_replacement(perms.labels, 2):
        s, t = ExtAffineWeylElement.simple(ambient, l), ExtAffineWeylElement.simple(ambient, k)
        expected = _order(perms.compose, perms.word(perms.generator(l), (k,)), perms.one)
        assert _order(lambda a, b: a * b, s * t, one) == expected, (l, k)


@cases
def test_the_permutation_map_is_a_bijection(case):
    ambient, perms, _, pairs = _model(case)
    seen = {}
    for g, v, _ in pairs:
        assert seen.setdefault(v, g) == g, v
    assert len(seen) == len(pairs)
    # every word to an element lands on its permutation: s_l g -> s_l v
    model = {g: v for g, v, _ in pairs}
    for g, v, _ in pairs:
        for l in perms.labels:
            h = ExtAffineWeylElement.simple(ambient, l) * g
            if h in model:
                assert model[h] == perms.compose(perms.generator(l), v)


@cases
def test_length_is_the_permutation_length(case):
    _, perms, _, pairs = _model(case)
    for g, v, dist in pairs:
        assert length(g) == perms.length(v), v
        if dist is not None:
            assert dist == perms.length(v), v


@cases
def test_left_descents_are_the_permutation_descents(case):
    _, perms, _, pairs = _model(case)
    for g, v, _ in pairs:
        assert {l for l in perms.labels if has_left_descent(g, l)} == perms.left_descents(v), v


@cases
def test_right_descents_are_the_permutation_descents(case):
    _, perms, _, pairs = _model(case)
    for g, v, _ in pairs:
        assert {l for l in perms.labels if has_right_descent(g, l)} == perms.right_descents(v), v


@cases
def test_reduced_word_evaluates_to_the_element(case):
    ambient, perms, rho, pairs = _model(case)
    powers = {ExtAffineWeylElement.identity(ambient): perms.one}
    if rho is not None:
        r, t = rho, perms.shift()
        while r not in powers:
            powers[r] = t
            r, t = r * rho, perms.compose(t, perms.shift())
    for g, v, _ in pairs:
        word = reduced_word(g)
        assert word.evaluate() == g
        assert perms.word(powers[word.pi], word.letters) == v, v
        assert len(word) == perms.length(v), v


@cases
def test_reflection_set_is_the_permutation_one(case):
    # T(g) has l(g) reflections, each a reflection t with l(t v) < l(v), no
    # two the same; so it is all of T(v)
    ambient, perms, _, pairs = _model(case)
    for g, v, _ in pairs:
        keys = reflections_T(g)
        assert len(keys) == perms.length(v), v
        images = set()
        for a in keys:
            word = reduced_word(ExtAffineWeylElement.reflection(ambient, a))
            t = perms.word(perms.one, word.letters)
            assert word.pi.is_identity() and perms.is_reflection(t), a
            assert perms.length(perms.compose(t, v)) < perms.length(v), (a, v)
            images.add(t)
        assert len(images) == len(keys)


@pytest.mark.parametrize("case", [c for c in CASES if c[0] == "A"], ids=_case_id)
def test_shift_has_length_zero_and_rotates_the_labels(case):
    ambient, perms, rho, _ = _model(case)
    n, tau = perms.n, perms.shift()
    assert perms.length(tau) == 0
    assert not perms.left_descents(tau) and not perms.right_descents(tau)
    for l in range(n):
        rotated = perms.compose(perms.word(tau, (l,)), perms.inverse(tau))
        assert rotated == perms.generator((l + 1) % n)
    assert length(rho) == 0 and not rho.is_identity()
    assert not any(has_left_descent(rho, l) or has_right_descent(rho, l) for l in range(n))
    assert reflections_T(rho) == frozenset()
    # rho generates the length-0 group P^v / Q^v, cyclic of order n; the
    # model's tau^n is the central i -> i + n, which the group does not see
    assert _order(lambda a, b: a * b, rho, ExtAffineWeylElement.identity(ambient)) == n


# ---------------------------------------------------------------------------
# Signed permutations: finite B_n and D_n on random long words
# ---------------------------------------------------------------------------

# (type, rank) of the finite system; weylkit's label l is the model's n - l
SIGNED_CASES = [("B", 3), ("B", 4), ("D", 4), ("D", 5)]


@lru_cache(maxsize=None)
def _signed_model(case):
    """(ambient, perms, labels): the finite system, its model and the map
    from weylkit's labels to the model's."""
    type_label, rank = case
    ambient = finite_coxeter(build_finite(type_label, rank))
    perms = _TypeB(rank) if type_label == "B" else _TypeD(rank)
    return ambient, perms, {l: rank - l for l in ambient.labels}


signed_cases = pytest.mark.parametrize("case", SIGNED_CASES, ids=lambda c: f"{c[0]}{c[1]}")


@signed_cases
def test_signed_label_map_keeps_the_coxeter_matrix(case):
    ambient, perms, labels = _signed_model(case)
    one = ExtAffineWeylElement.identity(ambient)
    assert sorted(labels.values()) == list(perms.labels)
    for l, k in combinations_with_replacement(ambient.labels, 2):
        s, t = ExtAffineWeylElement.simple(ambient, l), ExtAffineWeylElement.simple(ambient, k)
        u = perms.compose(perms.generator(labels[l]), perms.generator(labels[k]))
        assert _order(lambda a, b: a * b, s * t, one) == _order(perms.compose, u, perms.one)


@signed_cases
def test_random_words_against_the_signed_permutations(case):
    """g and h from random words of 20-40 letters, with g h and g^-1: each
    has the model's length and both descent sets, and its reduced word
    evaluates back to it and, mapped to the model, to the model's
    element; so `__mul__` and `inverse` are composition and inversion."""
    ambient, perms, labels = _signed_model(case)
    rng = random.Random(f"signed-{case}")
    one = ExtAffineWeylElement.identity(ambient)

    def random_word():
        letters = rng.choices(ambient.labels, k=rng.randint(20, 40))
        v = perms.word(perms.one, [labels[l] for l in letters])
        return ReducedWord(ambient, one, tuple(letters)).evaluate(), v

    for _ in range(15):
        (g, v), (h, u) = random_word(), random_word()
        for x, w in ((g, v), (g * h, perms.compose(v, u)), (g.inverse(), perms.inverse(v))):
            assert length(x) == perms.length(w), w
            left = {labels[l] for l in ambient.labels if has_left_descent(x, l)}
            right = {labels[l] for l in ambient.labels if has_right_descent(x, l)}
            assert left == perms.left_descents(w) and right == perms.right_descents(w), w
            word = reduced_word(x)
            assert word.pi.is_identity() and word.evaluate() == x
            assert perms.word(perms.one, [labels[l] for l in word.letters]) == w, w


# ---------------------------------------------------------------------------
# Subword oracle for the Bruhat order
# ---------------------------------------------------------------------------


def _subword_products(ambient, word):
    """Every product of a subword of `word`."""
    out = {ExtAffineWeylElement.identity(ambient)}
    for l in word:
        s = ExtAffineWeylElement.simple(ambient, l)
        out |= {x * s for x in out}
    return out


SUBWORD_BALLS = [
    ("A", 2, True, 4), ("C", 2, True, 4), ("G", 2, True, 4),
    ("B", 3, True, 3), ("BC", 2, True, 3), ("B", 3, False, 9),
]


@pytest.mark.parametrize("type_label,rank,affine,radius", SUBWORD_BALLS)
def test_bruhat_leq_is_the_subword_order(type_label, rank, affine, radius):
    finite = build_finite(type_label, rank)
    ambient = affinize(finite) if affine else finite_coxeter(finite)
    words = _ball_words(ambient, radius)
    for w, word in words.items():
        below = _subword_products(ambient, word)
        for u in words:
            assert bruhat_leq(u, w) == (u in below), (words[u], word)


def test_bruhat_leq_on_extended_elements():
    # u rho <= w rho exactly when u <= w; across components it refuses
    ambient, _, rho, _ = _model(("A", 2))
    words = _ball_words(ambient, 3)
    for w, word in words.items():
        below = _subword_products(ambient, word)
        for u in words:
            assert bruhat_leq(u * rho, w * rho) == (u in below), (words[u], word)
        with pytest.raises(DifferentComponents):
            bruhat_leq(w, w * rho)
