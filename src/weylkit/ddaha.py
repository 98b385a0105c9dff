"""The degenerate double affine Hecke algebra of an affine root system.

Elements live in the vector space CW tensor C[E] in the normal form
"group letters left, polynomials right".  The cross relation

    s_a f - s_a(f) s_a = h_a (f - s_a(f)) / a,      h_a = (d / 2m) c_a,

is applied in one step, `_times_simple`: the normal form of x * s_a for a
whole element x, summed from the images of single monomials, each computed
once per algebra.  The group products g * s_a of the step are kept per
algebra too, in the table `DdahaAlgebra._products`, so each is formed once:
a miss forms it by the rank-one update `weyl.mul_simple`, with no matrix
product.  An element is stored as integer numerators over one positive
denominator, in lowest terms, and the step runs on that form.

Each group part g of an element is a small int, its id in an intern table
kept per ambient system (`_group_table`: the dict g -> id and the list
id -> g, with the identity at id 0), so the step, sums and comparisons hash
and compare ints only.  The product table maps, per label, the id of g to
the id of g * s_a, and the word table the id of g to its reduced word.
Group elements appear only where a value enters or leaves the algebra:
`group` and `element` intern a g, `terms` and `as_dict` map ids back, and a
miss of either table reads g off the list.  `+` and `multiply` refuse
elements over two systems, whose ids mean different elements.

Each monomial x^e of an element is one int key: the degree |e| in the top
field, then e_0, ..., e_{n-1} in FIELD-bit fields below it, e_0 highest
(`_pack`, `_unpack`).  A monomial product is then the sum of the keys, and
int order is the normal form's order (|e|, e).  Every field of a key of
degree below 2^FIELD holds its exponent exactly; a key at or above
2^(FIELD (n + 1)), degree 2^FIELD or more, may hold a field that carried,
so `multiply` raises PowerTooLarge on forming one and `element` refuses a
Poly of that degree before forming any key.  Only this module knows the
keys: `Poly` and everything outside keep exponent tuples, which are
unpacked in the `terms` view and packed by `element` and `polynomial`.

A simple reflection maps each coordinate x_i to an affine form s_a(x_i)
with integer coefficients, and x_i - s_a(x_i) = k_i a with k_i an integer:
the algebra reads both off the integer coroot of each wall when it is built.
The divided difference (1 - s_a) / a is a twisted derivation
(Bernstein-Gelfand-Gelfand, Demazure), so s_a(x^e) and (x^e - s_a(x^e)) / a
follow from the images of x^e / x_i by integer products with s_a(x_i), and
only h_a carries a denominator, hd_a.  The cached images are hd_a s_a(x^e)
and hd_a h_a (x^e - s_a(x^e)) / a as integer terms, and each letter
multiplies the denominator by hd_a.
`multiply(x, y)` folds the step over the reduced word of each group part of
y, brings the terms of y to one denominator by integer scaling, multiplies
monomials by adding keys, and reduces the result to lowest terms.
`parse_element` reads each term of a literal as a rational times monomials
g x^e, a generator after a coordinate starting the next one, and forms their
product with `multiply`; its degree cap counts the term's written powers,
whatever the coefficient.  `format_element` prints each group part's terms
in key order, each coefficient in lowest terms from one gcd, and builds each
key's monomial text once (`_monomial_text`).
Fractions and exponent tuples are built only in the `terms` view, where a
value leaves the algebra (`as_dict`, `StandardModule.action_matrix`); a
Poly enters it through `element`, which packs its tuples and scales its
Fractions to integers.  The module also provides relation verification and
truncated standard modules for category-O weight analysis.
"""

import random
import re
import sys
from collections import Counter
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import combinations
from math import gcd, lcm
from operator import mul

from .linalg import numerators
from .poly import Poly, divide_linear, weyl_action
from .root_system import AffineRootSystem, Record
from .weyl import ExtAffineWeylElement, enumerate_ball, length, mul_simple, reduced_word


class InvalidParameters(ValueError):
    pass


# the width in bits of each exponent field of a monomial key
FIELD = 32


def _pack(exps) -> int:
    """The key of the monomial x^e: the degree |e| in the top field, then
    e_0, ..., e_{n-1} in FIELD-bit fields below it, e_0 highest."""
    key = sum(exps)
    for e in exps:
        key = key << FIELD | e
    return key


def _unpack(key: int, n: int) -> tuple:
    """The exponents e of the n-variable monomial with this key."""
    mask = (1 << FIELD) - 1
    return tuple(key >> FIELD * (n - 1 - i) & mask for i in range(n))


def _key_limit(n: int) -> int:
    """The least key of degree 2^FIELD in n variables: a key at or above it
    may hold a field that carried into the one above."""
    return 1 << FIELD * (n + 1)


class TriangularityViolated(RuntimeError):
    pass


class NotInGroupSupport(ValueError):
    """An element's group part left the subgroup generated by the simples."""


class HeckeParameters(Record):
    """Grading integers (m, d) and the orbit-invariant family c, as sorted
    (label, value) pairs."""

    __slots__ = ("m", "d", "c", "unsafe")

    def __init__(self, m: int, d: int, c: tuple = (), unsafe: bool = False):
        self.m, self.d, self.c, self.unsafe = m, d, c, unsafe

    def _key(self) -> tuple:
        return self.m, self.d, self.c, self.unsafe

    @staticmethod
    def make(m: int, d: int, c: dict, unsafe: bool = False) -> "HeckeParameters":
        bad = [l for l in c if type(l) is not int]
        if bad:
            raise InvalidParameters(f"parameter labels must be integers, got {bad!r}")
        return HeckeParameters(m, d, tuple(sorted((l, Fraction(v)) for l, v in c.items())), unsafe)

    def c_map(self) -> dict:
        return dict(self.c)

    def h(self, label: int) -> Fraction:
        return Fraction(self.d, 2 * self.m) * self.c_map()[label]


class DdahaAlgebra(Record):
    """The algebra of an ambient system and its parameters; equal and hashed
    by the two.  Group parts are ids in the ambient's intern table
    (`_group_table`): `_ids` maps g -> id and `_elts` id -> g."""

    __slots__ = (
        "ambient", "params", "_images", "_forms", "_products", "_words", "_hd", "_units",
        "_ids", "_elts",
    )

    def __init__(self, ambient: AffineRootSystem, params: HeckeParameters):
        self.ambient, self.params = ambient, params
        self._ids, self._elts = _group_table(ambient)
        # filled on first use: (label, monomial key) -> monomial images (see
        # _monomial_images), label -> {id of g: id of g * s_label} (see
        # _times_simple), and id of g -> reduced word (see _word)
        self._images, self._words = {}, {}
        self._products = {label: {} for label in ambient.labels}
        # label -> the denominator hd_a of h_a, read at every letter of the step
        self._hd = {label: params.h(label).denominator for label, _ in params.c}
        # the keys of the coordinates x_1, ..., x_n
        n = ambient.rank
        units = self._units = tuple(_pack([int(j == i) for j in range(n)]) for i in range(n))
        # label -> the coordinate forms the monomial images are built from
        self._forms = {label: _coordinate_forms(ambient, label, units) for label in ambient.labels}

    def _key(self) -> tuple:
        return self.ambient, self.params

    @property
    def nvars(self) -> int:
        return self.ambient.rank

    # -- element constructors --------------------------------------------

    def zero(self) -> "DdahaElement":
        return DdahaElement(self, {})

    def one(self) -> "DdahaElement":
        return DdahaElement(self, {0: {0: 1}})  # id 0 is the identity, key 0 is x^0

    def group(self, g: ExtAffineWeylElement) -> "DdahaElement":
        return DdahaElement(self, {self._id(g): {0: 1}})

    def generator(self, label: int) -> "DdahaElement":
        return self.group(ExtAffineWeylElement.simple(self.ambient, label))

    def polynomial(self, f: Poly) -> "DdahaElement":
        return self.element({ExtAffineWeylElement.identity(self.ambient): f})

    def element(self, mapping: dict) -> "DdahaElement":
        """The element sum of g tensor f over the pairs (g, Poly f) of mapping;
        a Poly of degree 2^FIELD or more raises PowerTooLarge, as its key
        could carry."""
        for f in mapping.values():
            if f.degree() >= 1 << FIELD:
                raise PowerTooLarge(
                    f"a polynomial of degree {f.degree()} exceeds the cap of 2^{FIELD} - 1"
                )
        den = lcm(*{c.denominator for f in mapping.values() for _, c in f.terms})
        num = {
            self._id(g): {_pack(e): c.numerator * (den // c.denominator) for e, c in f.terms}
            for g, f in mapping.items()
        }
        return _element(self, num, den)

    # -- internals --------------------------------------------------------

    def wall_poly(self, label: int) -> Poly:
        a = self.ambient.simple_by_label(label)
        return Poly.affine(tuple(map(Fraction, a.direction)), Fraction(a.level))

    def _id(self, g: ExtAffineWeylElement) -> int:
        """The id of g in the intern table, given it on first use."""
        i = self._ids.get(g)
        if i is None:
            i = self._ids[g] = len(self._elts)
            self._elts.append(g)
        return i

    def _word(self, g: ExtAffineWeylElement) -> tuple[int, ...]:
        """The reduced word of g, kept in _words under the id of g.  A g with
        a nontrivial length-0 part raises NotInGroupSupport on every call,
        as nothing is kept for it.  `multiply` and `format_element` read
        _words by id and call this only on a miss."""
        i = self._id(g)
        letters = self._words.get(i)
        if letters is None:
            rw = reduced_word(g)
            if not rw.pi.is_identity():
                raise NotInGroupSupport("group part has a nontrivial length-0 component")
            letters = self._words[i] = rw.letters
        return letters


def _group_table(ambient: AffineRootSystem) -> tuple[dict, list]:
    """The intern table of the group parts over ambient: the dict g -> id
    and the list id -> g, with id 0 the identity.  It is built on first use
    and kept on the ambient object, as its walls are
    (`AffineRootSystem.walls`), so every algebra over one system reads one
    table and an id means one g in every element that `+`, `-`, `==` and
    `multiply` combine; `+` and `multiply` refuse elements over two
    systems."""
    table = getattr(ambient, "_ddaha_group_ids", None)
    if table is None:
        e = ExtAffineWeylElement.identity(ambient)
        table = ambient._ddaha_group_ids = ({e: 0}, [e])
    return table


# the order m of s_a s_b from the product of the Cartan integers
# <a, b_check><b, a_check> = 4 cos^2(pi / m) of two simple walls
_ORDER_OF_CARTAN_PRODUCT = {0: 2, 1: 3, 2: 4, 3: 6}


def _finite_order_pairs(ambient: AffineRootSystem):
    """(s, t, order of s_s s_t) for the label pairs s < t whose product has
    finite order: exactly those whose parabolic W_{s,t} is finite."""
    walls = {l: wall[:2] for l, wall in ambient.walls.items()}  # (gamma, integer coroot)
    for s, t in combinations(sorted(walls), 2):
        if ambient.parabolic_is_finite((s, t)):
            (a, a_check), (b, b_check) = walls[s], walls[t]
            cartan = sum(map(mul, a, b_check)) * sum(map(mul, b, a_check))
            yield s, t, _ORDER_OF_CARTAN_PRODUCT[cartan]


def build_algebra(ambient: AffineRootSystem, params: HeckeParameters) -> DdahaAlgebra:
    if params.m <= 0 or params.d == 0:
        raise InvalidParameters("need m > 0 and d != 0")
    c = params.c_map()
    if set(c) != set(ambient.labels):
        raise InvalidParameters(
            f"parameter labels {sorted(c)} do not match the walls {list(ambient.labels)}"
        )
    for l, v in c.items():
        if not params.unsafe:
            if v.denominator != 1 or v < 2:
                raise InvalidParameters(f"c_{l} = {v} must be an integer >= 2")
    # invariance over conjugation orbits: s and t are conjugate inside their
    # dihedral subgroup exactly when the order of st is odd
    for s, t, order in _finite_order_pairs(ambient):
        if order % 2 == 1 and c[s] != c[t]:
            raise InvalidParameters(
                f"c_{s} = {c[s]} and c_{t} = {c[t]} differ on one conjugation orbit"
            )
    return DdahaAlgebra(ambient, params)


class DdahaElement:
    """The element num / den: num maps the id of a group part g (see
    `_group_table`) -> {monomial key: integer}, in lowest terms (den > 0, no
    zero coefficient, no empty group part, and gcd 1 of den and every
    numerator), so equal elements have equal fields.  Two elements are equal
    when their algebras are (the same object, tested first, in every product
    check) and their fields are; the hash reads the ints only.  Build one
    with `_element` or the algebra's constructors."""

    __slots__ = ("algebra", "num", "den")

    def __init__(self, algebra: DdahaAlgebra, num: dict, den: int = 1):
        self.algebra, self.num, self.den = algebra, num, den

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DdahaElement)
            and (self.algebra is other.algebra or self.algebra == other.algebra)
            and self.den == other.den
            and self.num == other.num
        )

    def __hash__(self) -> int:
        return hash((self.den, frozenset((g, frozenset(f.items())) for g, f in self.num.items())))

    @property
    def terms(self) -> frozenset:
        """The pairs (group element, Poly), one Fraction per coefficient."""
        n, den, elts = self.algebra.nvars, self.den, self.algebra._elts
        return frozenset(
            (elts[g], Poly(n, frozenset((_unpack(e, n), Fraction(c, den)) for e, c in f.items())))
            for g, f in self.num.items()
        )

    def as_dict(self) -> dict:
        return dict(self.terms)

    def is_zero(self) -> bool:
        return not self.num

    def __add__(self, other: "DdahaElement") -> "DdahaElement":
        _same_system(self, other)
        parts = [(self.num, self.den, 1), (other.num, other.den, 1)]
        return _element(self.algebra, *_combine(parts))

    def __sub__(self, other: "DdahaElement") -> "DdahaElement":
        return self + other.scale(-1)

    def scale(self, c) -> "DdahaElement":
        c = Fraction(c)
        num = {g: {e: c.numerator * v for e, v in f.items()} for g, f in self.num.items()}
        return _element(self.algebra, num, self.den * c.denominator)

    def __mul__(self, other: "DdahaElement") -> "DdahaElement":
        return multiply(self, other)


def _same_system(x: DdahaElement, y: DdahaElement) -> None:
    """Raise ValueError unless x and y are over one ambient system, whose
    intern table gives their ids one meaning."""
    if x.algebra.ambient is not y.algebra.ambient:
        raise ValueError("the elements lie over two different ambient systems")


def _add_terms(out: dict, terms, c=1) -> None:
    """Add c times the (monomial, coefficient) pairs of terms into the
    monomial -> coefficient dict out."""
    for e, v in terms:
        out[e] = out.get(e, 0) + c * v


def _combine(parts) -> tuple[dict, int]:
    """The sum of c N / D over the triples (N, D, c) of parts, as numerators
    over the least common multiple of the D."""
    den = lcm(*(d for _, d, _ in parts))
    out = {}
    for num, d, c in parts:
        for g, f in num.items():
            _add_terms(out.setdefault(g, {}), f.items(), c * (den // d))
    return out, den


def _element(algebra: DdahaAlgebra, num: dict, den: int) -> DdahaElement:
    """The element num / den (den > 0) in lowest terms: zero coefficients
    and empty group parts dropped, and num and den divided by their gcd.
    A part of num (a fresh dict) is copied only to drop a zero, and the gcd
    is taken part by part until it reaches 1."""
    out, k = {}, den
    for g, f in num.items():
        if not f or 0 in f.values():
            f = {e: c for e, c in f.items() if c}
            if not f:
                continue
        out[g] = f
        if k > 1:
            k = gcd(k, *f.values())
    if k > 1:
        out = {g: {e: c // k for e, c in f.items()} for g, f in out.items()}
    return DdahaElement(algebra, out, den // k)


def _times_simple(algebra: DdahaAlgebra, x: dict, label: int) -> dict:
    """hd_a times the normal form of x * s_label, for x a map id of g ->
    {monomial key: integer}: g (c x^e) s_a = g s_a (c s_a(x^e)) + g (c h_a (x^e - s_a(x^e)) / a),
    summed from the cached integral images of the monomials x^e (see
    `_monomial_images`) in one loop per image, with no helper call per
    term.  hd_a is the denominator of h_a (algebra._hd), which the caller
    multiplies into its denominator.  Each product g * s_a is formed once
    per algebra, by `mul_simple`, and read by id from the label's table
    algebra._products[label], so the loop hashes ints only."""
    products, images = algebra._products[label], algebra._images
    out = {}
    for g, f in x.items():
        gs = products.get(g)
        if gs is None:
            gs = products[g] = algebra._id(mul_simple(algebra._elts[g], label))
        reflected, demazure = out.setdefault(gs, {}), out.setdefault(g, {})
        for key, c in f.items():
            if not c:
                continue
            pair = images.get((label, key))
            if pair is None:
                pair = _monomial_images(algebra, label, key)
            for e, v in pair[0]:
                reflected[e] = reflected.get(e, 0) + c * v
            for e, v in pair[1]:
                demazure[e] = demazure.get(e, 0) + c * v
    return out


def _coordinate_forms(ambient: AffineRootSystem, label: int, units: tuple) -> tuple:
    """For each coordinate x_i, the pair (integer terms of the affine form
    s_a(x_i), integer k_i) with x_i - s_a(x_i) = k_i a, read off the wall
    (gamma, integer coroot, level) of a = gamma + level.  s_a moves a point p
    to p - a(p) gamma_check (Humphreys, Reflection Groups and Coxeter Groups,
    4.1), so s_a(x_i) = x_i - gamma_check_i (<gamma, x> + level) and k_i is
    the i-th coweight coordinate of the coroot.  The terms are (monomial
    key, integer) pairs, from units, the keys of the coordinates."""
    gamma, corovec, level = ambient.walls[label][:3]
    units = (*units, 0)
    forms = []
    for i, k in enumerate(corovec):
        coeffs = [-k * c for c in gamma] + [-k * level]
        coeffs[i] += 1
        forms.append((tuple((e, c) for e, c in zip(units, coeffs) if c), k))
    return tuple(forms)


def _monomial_images(algebra: DdahaAlgebra, label: int, key: int) -> tuple:
    """The images hd_a s_a(x^e) and hn_a (x^e - s_a(x^e)) / a of the monomial
    x^e with this key, for h_a = hn_a / hd_a, as (monomial key, nonzero
    integer) pairs, kept in algebra._images.  Write e = e' + delta_i, i the
    first nonzero coordinate of e, the highest nonzero field of the key
    below its degree.  The divided difference (1 - s_a) / a is a twisted
    derivation, so with x_i - s_a(x_i) = k_i a (`_coordinate_forms`):

        hd s_a(x^e)   = s_a(x_i) hd s_a(x^e'),
        hn Delta(x^e) = hn k_i x^e' + s_a(x_i) hn Delta(x^e'),

    from the image (hd, 0) of x^0.  The images from the nearest kept one up
    to x^e are built and kept, on integers only; no image has a higher
    degree than its monomial, so no key of them carries."""
    images, forms, units = algebra._images, algebra._forms[label], algebra._units
    n = len(units)
    low = (1 << FIELD * n) - 1  # the exponent fields, without the degree
    chain = []
    while (label, key) not in images and key:
        i = n - 1 - ((key & low).bit_length() - 1) // FIELD
        chain.append((key, i))
        key -= units[i]
    pair = images.get((label, key))
    if pair is None:
        pair = images[label, key] = (((key, algebra._hd[label]),), ())
    hn = algebra.params.h(label).numerator
    for e, i in reversed(chain):
        form, k = forms[i]
        reflected, demazure = products = ({}, {})
        for image, out in zip(pair, products):
            for u1, c1 in image:
                for u2, c2 in form:
                    u = u1 + u2
                    out[u] = out.get(u, 0) + c1 * c2
        demazure[key] = demazure.get(key, 0) + hn * k
        pair = images[label, e] = tuple(
            tuple((u, c) for u, c in image.items() if c) for image in products
        )
        key = e
    return pair


def cross_multiply(algebra: DdahaAlgebra, label: int, f: Poly) -> DdahaElement:
    """The normal form of f * s_label: s tensor s_a(f) + e tensor h_a (f - s_a(f)) / a."""
    x = algebra.polynomial(f)
    return _element(algebra, _times_simple(algebra, x.num, label), x.den * algebra._hd[label])


def multiply(x: DdahaElement, y: DdahaElement) -> DdahaElement:
    """x * y on numerators: for x = N / D, each term w tensor q of y gives
    (N * s_l1 * ... * s_lk) * q over D hd_l1 ... hd_lk, for the reduced word
    l1 ... lk of w.  The terms are brought to one denominator by integer
    scaling, and the result is reduced to lowest terms.  A monomial product
    is the sum of the keys; one of degree 2^FIELD or more, whose key may
    have carried, raises PowerTooLarge.  Each group part's word is read by
    id from algebra._words, and formed by `_word` on a miss."""
    _same_system(x, y)
    algebra = x.algebra
    hd, words = algebra._hd, algebra._words
    pushed = []
    for w, q in y.num.items():
        word = words.get(w)
        if word is None:
            word = algebra._word(algebra._elts[w])
        z, den = x.num, 1
        for label in word:
            z = _times_simple(algebra, z, label)
            den *= hd[label]
        pushed.append((z, q, den))
    common = lcm(*(den for _, _, den in pushed))
    out = {}
    for z, q, den in pushed:
        scale = common // den
        for u, p in z.items():
            acc = out.setdefault(u, {})
            for e2, c2 in q.items():
                c2 *= scale
                for e1, c1 in p.items():
                    e = e1 + e2
                    acc[e] = acc.get(e, 0) + c1 * c2
    if max(map(max, filter(None, out.values())), default=0) >= _key_limit(algebra.nvars):
        raise PowerTooLarge(f"a product reaches degree 2^{FIELD} or more")
    return _element(algebra, out, x.den * y.den * common)


# ---------------------------------------------------------------------------
# Relation verification
# ---------------------------------------------------------------------------


class RelationReport(Record):
    __slots__ = ("squares_ok", "braid_ok", "cross_ok", "failures")

    def __init__(self, squares_ok: bool, braid_ok: bool, cross_ok: bool, failures: tuple = ()):
        self.squares_ok, self.braid_ok, self.cross_ok = squares_ok, braid_ok, cross_ok
        self.failures = failures

    def _key(self) -> tuple:
        return self.squares_ok, self.braid_ok, self.cross_ok, self.failures

    def ok(self) -> bool:
        return self.squares_ok and self.braid_ok and self.cross_ok


def random_polynomial(
    rng: random.Random, nvars: int, degree: int = 2, support: int = 3
) -> Poly:
    out = {}
    for _ in range(rng.randrange(1, support + 1)):
        exps = [0] * nvars
        for _ in range(rng.randrange(degree + 1)):
            exps[rng.randrange(nvars)] += 1
        coeff = Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
        _add_terms(out, ((tuple(exps), coeff),))
    return Poly._from_dict(nvars, out)


# the random polynomials f per label on which the cross relation is checked
CROSS_SAMPLES = 10


def verify_relations(algebra: DdahaAlgebra, seed: int = 0) -> RelationReport:
    rng = random.Random(seed)
    failures = []
    labels = sorted(algebra.ambient.labels)
    one = algebra.one()
    squares_ok = True
    for l in labels:
        s = algebra.generator(l)
        if multiply(s, s) != one:
            squares_ok = False
            failures.append(("square", l))
    braid_ok = True
    for s, t, order in _finite_order_pairs(algebra.ambient):
        lhs = rhs = one
        for k in range(order):
            lhs = multiply(lhs, algebra.generator(s if k % 2 == 0 else t))
            rhs = multiply(rhs, algebra.generator(t if k % 2 == 0 else s))
        if lhs != rhs:
            braid_ok = False
            failures.append(("braid", s, t))
    cross_ok = True
    for l in labels:
        s_elt = ExtAffineWeylElement.simple(algebra.ambient, l)
        for _ in range(CROSS_SAMPLES):
            f = random_polynomial(rng, algebra.nvars, degree=3)
            sf = weyl_action(s_elt, f)
            lhs = multiply(algebra.generator(l), algebra.polynomial(f)) - multiply(
                algebra.polynomial(sf), algebra.generator(l)
            )
            demazure = divide_linear(f - sf, algebra.wall_poly(l))
            rhs = algebra.polynomial(demazure.scale(algebra.params.h(l)))
            if lhs != rhs:
                cross_ok = False
                failures.append(("cross", l, f))
    return RelationReport(squares_ok, braid_ok, cross_ok, tuple(failures))


# ---------------------------------------------------------------------------
# Standard modules and weights
# ---------------------------------------------------------------------------


class StandardModule(Record):
    """The induced module with highest weight lam0, truncated to basis
    vectors g with l(g) <= depth: the group elements of the basis, sorted
    by (length, mu, matrix).  Equal by (algebra, lam0, depth, basis), so
    modules over two algebras differ."""

    __slots__ = ("algebra", "lam0", "depth", "basis")

    def __init__(self, algebra: DdahaAlgebra, lam0: tuple = (), depth: int = 0, basis: tuple = ()):
        self.algebra, self.lam0, self.depth, self.basis = algebra, lam0, depth, basis

    def _key(self) -> tuple:
        return self.algebra, self.lam0, self.depth, self.basis

    def weight_of(self, g: ExtAffineWeylElement) -> tuple:
        return g.act_point(self.lam0)

    def weights(self) -> tuple[tuple, int]:
        """The weights g(lam0) of the basis, in basis order, as integer
        numerator tuples over one denominator: (numerators, den)."""
        nums, den = numerators(self.lam0)
        return tuple(g.act_numerators(nums, den) for g in self.basis), den

    def weight_multiplicities(self) -> dict:
        """Weight (as Fractions) -> the number of basis elements with it."""
        weights, den = self.weights()
        return {tuple(Fraction(n, den) for n in w): k for w, k in Counter(weights).items()}

    def action_matrix(self, f: Poly):
        """Matrix of the polynomial f on the truncation, columns indexed by
        the basis order; triangularity over length is asserted."""
        n = len(self.basis)
        index = {g: i for i, g in enumerate(self.basis)}
        cols = []
        for g in self.basis:
            product = multiply(self.algebra.polynomial(f), self.algebra.group(g))
            col = [Fraction(0)] * n
            for u, p in product.terms:
                value = p.evaluate(self.lam0)
                if value == 0:
                    continue
                if u != g and length(u) >= length(g):
                    raise TriangularityViolated(
                        f"length {length(u)} term above diagonal of length {length(g)}"
                    )
                col[index[u]] += value
            diag = f.evaluate(self.weight_of(g))
            assert col[index[g]] == diag, "diagonal entry is not f at the weight"
            cols.append(col)
        return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))


def standard_module(algebra: DdahaAlgebra, lam0, depth: int) -> StandardModule:
    lam0 = tuple(Fraction(c) for c in lam0)
    ball = enumerate_ball(algebra.ambient, depth)
    basis = tuple(sorted(ball, key=lambda g: (ball[g], g.mu, g.matrix)))
    return StandardModule(algebra, lam0, depth, basis)


# ---------------------------------------------------------------------------
# Element literals
# ---------------------------------------------------------------------------


class LiteralSyntaxError(ValueError):
    pass


class PowerTooLarge(RuntimeError):
    pass


class CoefficientTooLarge(RuntimeError):
    """A coefficient to print has more digits than Python converts to a string."""


# the largest sum N of the x<k>^n powers of a term of an element literal, the
# top degree of the term: the literal itself holds the monomial, but every
# group letter that later moves past it substitutes affine-linear forms into
# it, which expands a product of N of them
MAX_LITERAL_POWER = 64

# one factor of a literal with the operator before it (none at the start):
# s<k>, x<k> with an optional ^n, an integer, or a parenthesized rational (-p/q)
_FACTOR = re.compile(
    r"\s*(?P<op>[-+*]?)\s*(?:(?P<gen>s\d+)|(?P<coord>x\d+)(?:\s*\^\s*(?P<power>\d+))?"
    r"|(?P<int>\d+)|\(\s*(?P<neg>-?)\s*(?P<p>\d+)\s*(?:/\s*(?P<q>\d+)\s*)?\))\s*"
)


def parse_element(algebra: DdahaAlgebra, text: str) -> DdahaElement:
    """Parse the literal grammar `s1*s0*x1^2 + (3/2)*s1`: sums of products of
    generators s<k>, coordinates x<k> with optional integer powers, and exact
    rational literals (parenthesized when fractional, `-` allowed).  The
    whole literal is matched factor by factor first, so a malformed one
    raises LiteralSyntaxError before any factor is folded.  A term whose
    x<k>^N powers sum to more than MAX_LITERAL_POWER (x1^40*x1^40, or
    x1^40*s0*x1^25) raises PowerTooLarge whatever its coefficient, as does a
    power with more digits than Python converts to an int (4300 by default);
    a label, coordinate or rational that long raises LiteralSyntaxError.
    A term is k / den times a product of monomials g x^e: a generator
    multiplies g, read from the product table (s_a needs no step past 1, as
    s_a(1) = 1 and the divided difference of 1 is 0), x<k>^N adds to e and
    a rational scales k and den.  A generator that follows x^e != 1 closes
    the monomial and starts the next one.  A term of one monomial is added
    as it stands; the monomials of a longer one are multiplied from left to
    right by `multiply`.  The terms are summed into one element."""
    terms, pos = [], 0  # the factor matches of each term
    while pos < len(text) or not terms:
        m = _FACTOR.match(text, pos)
        if m is None or m["op"] not in (("*", "+", "-") if terms else ("", "-")):
            raise LiteralSyntaxError(f"cannot parse at: {text[pos:]!r}")
        if m["op"] != "*":
            terms.append([])
        terms[-1].append(m)
        pos = m.end()
    labels, products, units = algebra.ambient.labels, algebra._products, algebra._units
    n = len(units)
    parts = []  # (numerators, denominator, coefficient) of each term
    for factors in terms:
        # k / den times the product of the closed monomials and the open one
        # g x^e, g held as its id (0, the identity, to start) and e as its
        # key; a generator that follows x^e != 1 closes it
        g, e, k, den, closed, degree = 0, 0, 1, 1, [], 0
        for m in factors:
            if (gen := m["gen"]) is not None:
                try:
                    label = int(gen[1:])
                except ValueError:  # more digits than Python converts: no label
                    label = None
                if label not in labels:
                    raise LiteralSyntaxError(f"unknown generator {gen}")
                if e:
                    closed.append(DdahaElement(algebra, {g: {e: 1}}))
                    g, e = 0, 0
                # g * s_a, as the step keeps it
                table = products[label]
                gs = table.get(g)
                if gs is None:
                    gs = table[g] = algebra._id(mul_simple(algebra._elts[g], label))
                g = gs
            elif (coord := m["coord"]) is not None:
                try:
                    i = int(coord[1:]) - 1
                except ValueError:  # more digits than Python converts
                    i = -1
                if not 0 <= i < n:
                    raise LiteralSyntaxError(f"unknown coordinate {coord}")
                try:
                    power = int(m["power"] or 1)
                except ValueError:
                    raise PowerTooLarge(
                        f"the power of {coord} exceeds the cap of {MAX_LITERAL_POWER}"
                    ) from None
                # the step keeps the top degree, so the term's is the sum of its powers
                degree += power
                if degree > MAX_LITERAL_POWER:
                    raise PowerTooLarge(
                        f"a monomial of degree {degree} at {coord}^{power} exceeds the cap of "
                        f"{MAX_LITERAL_POWER}"
                    )
                e += power * units[i]
            else:
                try:
                    p, q = int(m["int"] or m["neg"] + m["p"]), int(m["q"] or 1)
                except ValueError:
                    raise LiteralSyntaxError("a rational has too many digits to convert") from None
                if not q:
                    raise LiteralSyntaxError(f"zero denominator in {p}/0")
                k, den = k * p, den * q
        num = {g: {e: 1}}
        if closed:
            # left to right, so each monomial's group part moves only what precedes it
            x = reduce(multiply, [*closed, DdahaElement(algebra, num)])
            num, den = x.num, x.den * den
        parts.append((num, den, -k if factors[0]["op"] == "-" else k))
    return _element(algebra, *_combine(parts))


@lru_cache(maxsize=4096)
def _monomial_text(key: int, n: int) -> str:
    """The factors x<i> and x<i>^e of the n-variable monomial with this key,
    joined by "*"; empty for x^0."""
    return "*".join(
        f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in enumerate(_unpack(key, n), 1) if e
    )


def format_element(x: DdahaElement) -> str:
    """Deterministic normal-form printer emitting the literal grammar: the
    group parts by (length, reduced word), each part's terms by monomial
    key, which is the order (|e|, e).  A coefficient past Python's
    int-to-string digit limit (4300 by default) raises CoefficientTooLarge."""
    if x.is_zero():
        return "0"
    algebra, den, n = x.algebra, x.den, x.algebra.nvars
    words, parts = algebra._words, []
    for g, f in x.num.items():
        word = words.get(g)
        if word is None:
            word = algebra._word(algebra._elts[g])
        parts.append((word, f))
    # word is reduced, so len(word) is the length of g
    parts.sort(key=lambda p: (len(p[0]), p[0]))
    chunks = []
    for word, f in parts:
        word_text = "*".join([f"s{l}" for l in word])
        prefix = word_text + "*" if word else ""
        for key in sorted(f):
            c = f[key]
            d = gcd(c, den)  # |c| / den in lowest terms is (|c| // d) / (den // d)
            mag, mag_den = abs(c) // d, den // d
            monomial = _monomial_text(key, n)
            if (mag, mag_den) != (1, 1) or not (word or key):
                try:
                    coeff = str(mag) if mag_den == 1 else f"({mag}/{mag_den})"
                except ValueError:
                    raise CoefficientTooLarge(
                        f"a coefficient has more than {sys.get_int_max_str_digits()} digits, "
                        "the most Python converts to a string"
                    ) from None
                body = f"{prefix}{coeff}*{monomial}" if monomial else prefix + coeff
            else:
                body = prefix + monomial if monomial else word_text
            if chunks:
                chunks.append(f" - {body}" if c < 0 else f" + {body}")
            else:
                chunks.append(f"-{body}" if c < 0 else body)
    return "".join(chunks)
