"""The degenerate double affine Hecke algebra of an affine root system.

Elements live in the vector space CW tensor C[E] in the normal form
"group letters left, polynomials right".  The cross relation

    s_a f - s_a(f) s_a = h_a (f - s_a(f)) / a,      h_a = (d / 2m) c_a,

is applied in one step, `_times_simple`: the normal form of x * s_a for a
whole element x, summed from the images of single monomials, each computed
once per algebra by exact polynomial division (a non-exact division still
raises).  The step runs on integer numerators over one denominator per
element.  A simple reflection maps each coordinate to an affine form with
integer coefficients, and each wall a has integer coefficients of content 1,
so by Gauss's lemma s_a(x^e) and (x^e - s_a(x^e)) / a are integral and only
h_a carries a denominator, hd_a.  The cached images are hd_a s_a(x^e) and
hd_a h_a (x^e - s_a(x^e)) / a as integer terms, and each letter multiplies
the denominator by hd_a.  `multiply(x, y)` folds the step over the reduced
word of each group part of y, brings the terms of y to one denominator by
integer scaling, and builds one Fraction per coefficient of the result;
`parse_element` folds each factor of a literal straight into that form.  The
module also provides relation verification and truncated standard modules
for category-O weight analysis.
"""

import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from operator import add

from .poly import DivisionNotExact, Poly, divide_linear, weyl_action
from .root_system import AffineRootSystem
from .weyl import (
    ExtAffineWeylElement,
    coxeter_order,
    enumerate_ball,
    length,
    reduced_word,
)


class InvalidParameters(ValueError):
    pass


class TriangularityViolated(RuntimeError):
    pass


class NotInGroupSupport(ValueError):
    """An element's group part left the subgroup generated by the simples."""


class ImageNotIntegral(ArithmeticError):
    """A monomial image of the step has a coefficient that is not an integer."""


@dataclass(frozen=True)
class HeckeParameters:
    """Grading integers (m, d) and the orbit-invariant family c."""

    m: int
    d: int
    c: tuple = ()  # sorted (label, value) pairs
    unsafe: bool = False

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


@dataclass(frozen=True)
class DdahaAlgebra:
    ambient: AffineRootSystem = field(compare=False)
    params: HeckeParameters = None
    # filled on first use: (label, exponents) -> monomial images (see
    # _times_simple), and group element -> reduced word (see _word)
    _images: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _words: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # label -> the denominator hd_a of h_a, read at every letter of the step
    _hd: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        hd = {label: self.params.h(label).denominator for label, _ in self.params.c}
        object.__setattr__(self, "_hd", hd)

    @property
    def nvars(self) -> int:
        return self.ambient.rank

    # -- element constructors --------------------------------------------

    def zero(self) -> "DdahaElement":
        return DdahaElement(self, frozenset())

    def one(self) -> "DdahaElement":
        return self.group(ExtAffineWeylElement.identity(self.ambient))

    def group(self, g: ExtAffineWeylElement) -> "DdahaElement":
        return self.element({g: Poly.const(self.nvars, 1)})

    def generator(self, label: int) -> "DdahaElement":
        return self.group(ExtAffineWeylElement.simple(self.ambient, label))

    def polynomial(self, f: Poly) -> "DdahaElement":
        return self.element({ExtAffineWeylElement.identity(self.ambient): f})

    def element(self, mapping: dict) -> "DdahaElement":
        return DdahaElement(
            self, frozenset((g, f) for g, f in mapping.items() if not f.is_zero())
        )

    # -- internals --------------------------------------------------------

    def wall_poly(self, label: int) -> Poly:
        a = self.ambient.simple_by_label(label)
        return Poly.affine(tuple(map(Fraction, a.direction)), Fraction(a.level))

    def _word(self, g: ExtAffineWeylElement) -> tuple[int, ...]:
        letters = self._words.get(g)
        if letters is None:
            rw = reduced_word(g)
            if not rw.pi.is_identity():
                raise NotInGroupSupport("group part has a nontrivial length-0 component")
            letters = self._words[g] = rw.letters
        return letters


def _finite_order_pairs(ambient: AffineRootSystem):
    """(s, t, order of s_s s_t) for the label pairs s < t whose product has
    finite order (found up to 12)."""
    labels = sorted(ambient.labels)
    for i, s in enumerate(labels):
        for t in labels[i + 1 :]:
            order = coxeter_order(
                ExtAffineWeylElement.simple(ambient, s),
                ExtAffineWeylElement.simple(ambient, t),
                cap=12,
            )
            if order is not None:
                yield s, t, order


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
                raise InvalidParameters(
                    f"c_{l} = {v} must be an integer >= 2 (or pass unsafe=True)"
                )
    # invariance over conjugation orbits: s and t are conjugate inside their
    # dihedral subgroup exactly when the order of st is odd
    for s, t, order in _finite_order_pairs(ambient):
        if order % 2 == 1 and c[s] != c[t]:
            raise InvalidParameters(
                f"c_{s} = {c[s]} and c_{t} = {c[t]} differ on one conjugation orbit"
            )
    return DdahaAlgebra(ambient, params)


@dataclass(frozen=True)
class DdahaElement:
    """Normal form: a finitely supported map g -> nonzero polynomial."""

    algebra: DdahaAlgebra = field(compare=False)
    terms: frozenset = frozenset()  # pairs (group element, Poly)

    def as_dict(self) -> dict:
        return dict(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def support_lengths(self) -> tuple[int, ...]:
        return tuple(sorted(length(g) for g, _ in self.terms))

    def max_degree(self) -> int:
        return max((f.degree() for _, f in self.terms), default=-1)

    def __add__(self, other: "DdahaElement") -> "DdahaElement":
        parts = [(*_numerators(self), 1), (*_numerators(other), 1)]
        return _element(self.algebra, *_combine(parts))

    def __sub__(self, other: "DdahaElement") -> "DdahaElement":
        return self + other.scale(-1)

    def scale(self, c) -> "DdahaElement":
        return self.algebra.element({g: f.scale(c) for g, f in self.terms})

    def __mul__(self, other: "DdahaElement") -> "DdahaElement":
        return multiply(self, other)


def _add_terms(out: dict, terms, c=1) -> None:
    """Add c times the (exponents, coefficient) pairs of terms into the
    exponent -> coefficient dict out."""
    for e, v in terms:
        out[e] = out.get(e, 0) + c * v


def _numerators(x: DdahaElement) -> tuple[dict, int]:
    """(N, D) with x = N / D: N maps g -> {exponents: integer}, and D is the
    least common denominator of the coefficients of x."""
    den = lcm(*{c.denominator for _, f in x.terms for _, c in f.terms})
    return {g: {e: c.numerator * (den // c.denominator) for e, c in f.terms} for g, f in x.terms}, den


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
    """The element N / D, with one Fraction per nonzero coefficient."""
    n = algebra.nvars
    return algebra.element(
        {g: Poly(n, frozenset((e, Fraction(c, den)) for e, c in f.items() if c)) for g, f in num.items()}
    )


def _times_simple(algebra: DdahaAlgebra, x: dict, label: int) -> dict:
    """hd_a times the normal form of x * s_label, for x a map g -> {exponents:
    integer}: g (c x^e) s_a = g s_a (c s_a(x^e)) + g (c h_a (x^e - s_a(x^e)) / a),
    summed from the cached integral images of the monomials x^e.  hd_a is
    the denominator of h_a (algebra._hd), which the caller multiplies into
    its denominator."""
    s = ExtAffineWeylElement.simple(algebra.ambient, label)
    out = {}
    for g, f in x.items():
        reflected, demazure = out.setdefault(g * s, {}), out.setdefault(g, {})
        for exps, c in f.items():
            if not c:
                continue
            images = algebra._images.get((label, exps))
            if images is None:
                images = algebra._images[label, exps] = _monomial_images(algebra, label, exps)
            _add_terms(reflected, images[0], c)
            _add_terms(demazure, images[1], c)
    return out


def _monomial_images(algebra: DdahaAlgebra, label: int, exps: tuple) -> tuple:
    """The integer terms of hd_a s_a(x^e) and of hd_a h_a (x^e - s_a(x^e)) / a,
    integral by Gauss's lemma (see the module docstring); a coefficient that
    is not an integer raises ImageNotIntegral."""
    x = Poly(algebra.nvars, frozenset({(exps, Fraction(1))}))
    sx = weyl_action(ExtAffineWeylElement.simple(algebra.ambient, label), x)
    try:
        quotient = divide_linear(x - sx, algebra.wall_poly(label))
    except DivisionNotExact as exc:
        raise DivisionNotExact(
            f"x^{exps} - s_a(x^{exps}) not divisible by the wall at label {label}: {exc}"
        ) from exc
    h = algebra.params.h(label)
    images = (sx.scale(h.denominator), quotient.scale(h.numerator))
    for image in images:
        for e, c in image.terms:
            if c.denominator != 1:
                raise ImageNotIntegral(
                    f"the image of x^{exps} at label {label} has the coefficient {c} at x^{e}"
                )
    return tuple(tuple((e, c.numerator) for e, c in image.terms) for image in images)


def cross_multiply(algebra: DdahaAlgebra, label: int, f: Poly) -> DdahaElement:
    """The normal form of f * s_label: s tensor s_a(f) + e tensor h_a (f - s_a(f)) / a."""
    num, den = _numerators(algebra.polynomial(f))
    return _element(algebra, _times_simple(algebra, num, label), den * algebra._hd[label])


def multiply(x: DdahaElement, y: DdahaElement) -> DdahaElement:
    """x * y on numerators: for x = N / D, each term w tensor q of y gives
    (N * s_l1 * ... * s_lk) * q over D hd_l1 ... hd_lk, for the reduced word
    l1 ... lk of w.  The terms are brought to one denominator by integer
    scaling, and one Fraction is built per coefficient of the result."""
    algebra, hd = x.algebra, x.algebra._hd
    (xnum, xden), (ynum, yden) = _numerators(x), _numerators(y)
    pushed = []
    for w, q in ynum.items():
        z, den = xnum, 1
        for label in algebra._word(w):
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
                _add_terms(acc, ((tuple(map(add, e1, e2)), c1) for e1, c1 in p.items()), c2 * scale)
    return _element(algebra, out, xden * yden * common)


# ---------------------------------------------------------------------------
# Relation verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RelationReport:
    squares_ok: bool
    braid_ok: bool
    cross_ok: bool
    failures: tuple = ()

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


def verify_relations(
    algebra: DdahaAlgebra, seed: int = 0, n_random: int = 20
) -> RelationReport:
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
        for _ in range(n_random):
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


@dataclass(frozen=True)
class StandardModule:
    """The induced module with highest weight lam0, truncated to basis
    vectors g with l(g) <= depth."""

    algebra: DdahaAlgebra = field(compare=False)
    lam0: tuple = ()
    depth: int = 0
    basis: tuple = ()  # group elements, sorted by (length, mu, matrix)

    def weight_of(self, g: ExtAffineWeylElement) -> tuple:
        return g.act_point(self.lam0)

    def weights(self) -> tuple:
        return tuple(self.weight_of(g) for g in self.basis)

    def weight_multiplicities(self) -> dict:
        out = {}
        for w in self.weights():
            out[w] = out.get(w, 0) + 1
        return out

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

_TOKEN = re.compile(r"\s*(s\d+|x\d+|\^|\*|\+|-|\(|\)|\d+|/)")


class LiteralSyntaxError(ValueError):
    pass


class PowerTooLarge(RuntimeError):
    pass


# the largest power N accepted in an x<k>^N literal: the literal itself is one
# monomial, but every group letter that later moves past it substitutes an
# affine-linear form into x^N, which expands (affine)^N
MAX_LITERAL_POWER = 64


def parse_element(algebra: DdahaAlgebra, text: str) -> DdahaElement:
    """Parse the literal grammar `s1*s0*x1^2 + (3/2)*s1`: sums of products of
    generators s<k>, coordinates x<k> with optional integer powers, and exact
    rational literals (parenthesized when fractional, `-` allowed).  A power
    above MAX_LITERAL_POWER raises PowerTooLarge.  Each term is folded
    factor by factor into numerators over one denominator (a generator
    applies the step, x<k>^N shifts exponents, a rational scales), and the
    terms are summed into one element."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise LiteralSyntaxError(f"cannot tokenize at: {text[pos:]!r}")
            break
        tokens.append(m.group(1))
        pos = m.end()
    state = {"i": 0}

    def peek():
        return tokens[state["i"]] if state["i"] < len(tokens) else None

    def take(expected=None):
        tok = peek()
        if tok is None or (expected is not None and tok != expected):
            want = "a token" if expected is None else repr(expected)
            got = "end of input" if tok is None else repr(tok)
            raise LiteralSyntaxError(f"expected {want}, got {got}")
        state["i"] += 1
        return tok

    def take_int() -> int:
        tok = peek()
        if tok is None or not tok.isdigit():
            got = "end of input" if tok is None else repr(tok)
            raise LiteralSyntaxError(f"expected an integer, got {got}")
        state["i"] += 1
        return int(tok)

    def parse_rational() -> Fraction:
        sign = 1
        if peek() == "-":
            take()
            sign = -1
        num = take_int()
        if peek() == "/":
            take()
            den = take_int()
            if den == 0:
                raise LiteralSyntaxError(f"zero denominator in {sign * num}/0")
            return Fraction(sign * num, den)
        return Fraction(sign * num)

    def parse_factor(num: dict, den: int) -> tuple[dict, int]:
        """num / den times the next factor, as numerators over a denominator."""
        tok = peek()
        if tok is None:
            raise LiteralSyntaxError("unexpected end of input")
        if tok.startswith("s"):
            take()
            label = int(tok[1:])
            if label not in algebra.ambient.labels:
                raise LiteralSyntaxError(f"unknown generator {tok}")
            return _times_simple(algebra, num, label), den * algebra._hd[label]
        if tok.startswith("x"):
            take()
            i = int(tok[1:]) - 1
            if not 0 <= i < algebra.nvars:
                raise LiteralSyntaxError(f"unknown coordinate {tok}")
            power = 1
            if peek() == "^":
                take()
                power = take_int()
                if power > MAX_LITERAL_POWER:
                    raise PowerTooLarge(
                        f"power {power} in {tok}^{power} exceeds the cap of {MAX_LITERAL_POWER}"
                    )
            shift = tuple(power if j == i else 0 for j in range(algebra.nvars))
            return {g: {tuple(map(add, e, shift)): c for e, c in f.items()} for g, f in num.items()}, den
        if tok == "(":
            take()
            value = parse_rational()
            take(")")
        elif tok.isdigit():
            value = Fraction(take_int())
        else:
            raise LiteralSyntaxError(f"unexpected token {tok!r}")
        k = value.numerator
        return {g: {e: k * c for e, c in f.items()} for g, f in num.items()}, den * value.denominator

    one = {ExtAffineWeylElement.identity(algebra.ambient): {(0,) * algebra.nvars: 1}}

    def parse_term() -> tuple[dict, int]:
        term = parse_factor(one, 1)
        while peek() == "*":
            take()
            term = parse_factor(*term)
        return term

    def parse_sum() -> list:
        """The (numerators, denominator, sign) of each term."""
        sign = 1
        if peek() == "-":
            take()
            sign = -1
        parts = [(*parse_term(), sign)]
        while peek() in ("+", "-"):
            sign = -1 if take() == "-" else 1
            parts.append((*parse_term(), sign))
        return parts

    parts = parse_sum()
    if peek() is not None:
        raise LiteralSyntaxError(f"trailing tokens from {peek()!r}")
    return _element(algebra, *_combine(parts))


def format_element(x: DdahaElement) -> str:
    """Deterministic normal-form printer emitting the literal grammar."""
    if x.is_zero():
        return "0"
    algebra = x.algebra
    items = []
    for g, f in x.terms:
        word = algebra._word(g)
        for exps, coeff in sorted(f.terms, key=lambda t: (sum(t[0]), t[0])):
            # word is reduced, so len(word) is the length of g
            items.append((len(word), word, sum(exps), exps, coeff))
    items.sort(key=lambda it: (it[0], it[1], it[2], it[3]))
    chunks = []
    for k, (_, word, _, exps, coeff) in enumerate(items):
        sign = "-" if coeff < 0 else "+"
        mag = abs(coeff)
        factors = [f"s{l}" for l in word]
        if mag != 1 or (not factors and not any(exps)):
            factors.append(str(mag) if mag.denominator == 1 else f"({mag})")
        for i, e in enumerate(exps):
            if e == 1:
                factors.append(f"x{i + 1}")
            elif e > 1:
                factors.append(f"x{i + 1}^{e}")
        body = "*".join(factors)
        if k == 0:
            chunks.append(body if sign == "+" else f"-{body}")
        else:
            chunks.append(f" {sign} {body}")
    return "".join(chunks)
