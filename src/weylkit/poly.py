"""Sparse multivariate polynomials over the rationals.

Variables are the coordinate functions of E in the fundamental-coweight
basis, which by the pairing convention are exactly the simple-root
functionals.  The Weyl action is substitution of the affine-linear images of
the coordinates; division by an affine-linear polynomial is exact via a
change of variables, with a hard error on a nonzero remainder.
"""

from fractions import Fraction
from operator import add

from .root_system import Record


class DivisionNotExact(ArithmeticError):
    pass


def _product(left, right) -> dict:
    """The terms of a product, as a dict exponents -> coefficient, from the
    (exponents, coefficient) pairs of its factors; zero sums are kept."""
    right = list(right)
    out = {}
    for e1, c1 in left:
        for e2, c2 in right:
            e = tuple(map(add, e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return out


class Poly(Record):
    """Map from exponent tuples to nonzero rational coefficients, held as a
    frozenset of (exponents, coefficient) pairs."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: frozenset = frozenset()):
        for exps, c in terms:
            assert len(exps) == nvars and c != 0
        self.nvars, self.terms = nvars, terms

    def _key(self) -> tuple:
        return self.nvars, self.terms

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "Poly":
        return Poly(nvars, frozenset())

    @staticmethod
    def const(nvars: int, c) -> "Poly":
        c = Fraction(c)
        if c == 0:
            return Poly.zero(nvars)
        return Poly(nvars, frozenset({((0,) * nvars, c)}))

    @staticmethod
    def variable(nvars: int, i: int) -> "Poly":
        exps = tuple(1 if j == i else 0 for j in range(nvars))
        return Poly(nvars, frozenset({(exps, Fraction(1))}))

    @staticmethod
    def affine(gradient, constant) -> "Poly":
        """The affine-linear polynomial <gradient, x> + constant."""
        n = len(gradient)
        terms = {}
        c = Fraction(constant)
        if c != 0:
            terms[(0,) * n] = c
        for i, g in enumerate(gradient):
            g = Fraction(g)
            if g != 0:
                terms[tuple(1 if j == i else 0 for j in range(n))] = g
        return Poly(n, frozenset(terms.items()))

    @staticmethod
    def _from_dict(nvars: int, d: dict) -> "Poly":
        return Poly(nvars, frozenset((e, c) for e, c in d.items() if c != 0))

    # -- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e, _ in self.terms), default=-1)

    def as_dict(self) -> dict:
        return dict(self.terms)

    def evaluate(self, point) -> Fraction:
        point = [Fraction(c) for c in point]
        total = Fraction(0)
        for exps, c in self.terms:
            v = c
            for x, e in zip(point, exps):
                v *= x**e
            total += v
        return total

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        out = self.as_dict()
        for e, c in other.terms:
            out[e] = out.get(e, Fraction(0)) + c
        return Poly._from_dict(self.nvars, out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + other.scale(-1)

    def __mul__(self, other: "Poly") -> "Poly":
        return Poly._from_dict(self.nvars, _product(self.terms, other.terms))

    def scale(self, c) -> "Poly":
        c = Fraction(c)
        if c == 0:
            return Poly.zero(self.nvars)
        return Poly(self.nvars, frozenset((e, c * co) for e, co in self.terms))

    def substitute(self, mapping: dict) -> "Poly":
        """Replace variable i by mapping[i] (a Poly); unmapped variables stay.
        Each power of a mapped form is built once per call, from the one
        below it; an unmapped variable keeps its exponent, so a term starts
        as c times its unmapped part, and every term is summed into one
        dict."""
        powers = {i: [{(0,) * self.nvars: 1}] for i in mapping}
        out = {}
        for exps, c in self.terms:
            term = {tuple(0 if i in powers else e for i, e in enumerate(exps)): c}
            for i, e in enumerate(exps):
                if e and i in powers:
                    table = powers[i]
                    while len(table) <= e:
                        table.append(_product(table[-1].items(), mapping[i].terms))
                    term = _product(term.items(), table[e].items())
            for e, v in term.items():
                out[e] = out.get(e, 0) + v
        return Poly._from_dict(self.nvars, out)


def weyl_action(g, f: Poly) -> Poly:
    """(g . f)(p) = f(g^{-1} p): substitute the g-images of the coordinate
    functionals, which are affine-linear."""
    n = f.nvars
    mapping = {}
    for i in range(n):
        e_i = tuple(Fraction(1 if j == i else 0) for j in range(n))
        grad, const = g.act_affine(e_i, Fraction(0))
        mapping[i] = Poly.affine(grad, const)
    return f.substitute(mapping)


def divide_linear(f: Poly, a: Poly) -> Poly:
    """Exact quotient f / a for an affine-linear divisor a with a nonzero
    gradient.  Raises DivisionNotExact on a nonzero remainder."""
    n = f.nvars
    if a.degree() != 1:
        raise DivisionNotExact("divisor must be affine-linear with nonzero gradient")
    pivot = None
    coeff = None
    for exps, c in sorted(a.terms):
        if sum(exps) == 1:
            pivot = exps.index(1)
            coeff = c
            break
    assert pivot is not None
    # change of variables u = a: x_pivot = (u - rest) / coeff, with u stored
    # in the pivot slot
    rest = a - Poly.variable(n, pivot).scale(coeff)
    u = Poly.variable(n, pivot)
    replacement = (u - rest).scale(Fraction(1) / coeff)
    in_u = f.substitute({pivot: replacement})
    quotient_u = {}
    for exps, c in in_u.terms:
        if exps[pivot] == 0:
            raise DivisionNotExact(f"nonzero remainder term {exps} -> {c}")
        shifted = tuple(e - 1 if i == pivot else e for i, e in enumerate(exps))
        quotient_u[shifted] = quotient_u.get(shifted, Fraction(0)) + c
    return Poly._from_dict(n, quotient_u).substitute({pivot: a})
