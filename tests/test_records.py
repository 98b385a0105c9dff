"""The value semantics of weylkit's record classes: constructor signatures and
defaults, equality and hashing over the compared fields only, and the checks
and conversions that run at construction."""

import inspect
from fractions import Fraction

import pytest

from weylkit import coxcomplex as cx
from weylkit import ddaha as dd
from weylkit import poly
from weylkit import relative as rel
from weylkit import root_system
from weylkit import spiral as sp
from weylkit import weyl
from weylkit.poly import Poly
from weylkit.root_system import (
    AffineRoot,
    AffineRootSystem,
    FiniteRootSystem,
    Record,
    affinize,
    build_finite,
    finite_coxeter,
)
from weylkit.weyl import ExtAffineWeylElement, ReducedWord

REQ = inspect.Parameter.empty

# class -> its constructor parameters with their defaults (REQ: none)
SIGNATURES = {
    ExtAffineWeylElement: [("ambient", REQ), ("mu", ()), ("matrix", ())],
    ReducedWord: [("ambient", REQ), ("pi", None), ("letters", ())],
    FiniteRootSystem: [
        ("type_label", REQ), ("rank", REQ), ("cartan_matrix", REQ), ("gram_matrix", REQ),
        ("roots", REQ),
    ],
    AffineRoot: [("system", REQ), ("direction", ()), ("level", 0)],
    AffineRootSystem: [
        ("finite_base", REQ), ("affine", REQ), ("simples", REQ), ("labels", REQ),
        ("theta", REQ), ("alcove_interior_point", REQ),
    ],
    Poly: [("nvars", REQ), ("terms", frozenset())],
    dd.HeckeParameters: [("m", REQ), ("d", REQ), ("c", ()), ("unsafe", False)],
    dd.DdahaAlgebra: [("ambient", REQ), ("params", REQ)],
    dd.DdahaElement: [("algebra", REQ), ("num", REQ), ("den", 1)],
    dd.RelationReport: [
        ("squares_ok", REQ), ("braid_ok", REQ), ("cross_ok", REQ), ("failures", ()),
    ],
    dd.StandardModule: [("algebra", REQ), ("lam0", ()), ("depth", 0), ("basis", ())],
    cx.Facet: [("ambient", REQ), ("rep", None), ("type_labels", frozenset())],
    cx.AffineSpan: [("base", REQ), ("directions", REQ), ("vanishing_roots", REQ)],
    cx.GradingPoint: [("ambient", REQ), ("theta_tilde", ()), ("m", 1)],
    cx.RelativePosition: [("double_coset", REQ), ("good", REQ), ("relative_element", None)],
    cx.FixedChambersReport: [
        ("chambers", REQ), ("action", REQ), ("ball", REQ), ("single_free_orbit", False),
        ("ball_complete", False), ("boundary_excluded", ()),
    ],
    rel.RelativeCoxeterSystem: [
        ("ambient", REQ), ("base", REQ), ("sigma_complement", ()), ("simples", None),
        ("coxeter_matrix", None), ("degenerate_single_complement", False),
    ],
    rel.ElementaryMove: [("sigma_from", REQ), ("sigma_to", REQ), ("s", REQ), ("element", REQ)],
    sp.GradedRootDatum: [("finite", REQ), ("theta_tilde", ()), ("m", 1), ("d", 1)],
    sp.Spiral: [("datum", REQ), ("lam", ()), ("epsilon", 1)],
    sp.GradedPseudoLevi: [("datum", REQ), ("roots", ()), ("grading", None)],
    sp.LeviDecompositionReport: [("window", REQ), ("partition_ok", REQ)],
}

A2, G2 = build_finite("A", 2), build_finite("G", 2)
AFF, FIN, AFF_C2 = affinize(A2), finite_coxeter(A2), affinize(build_finite("C", 2))
I2 = ((1, 0), (0, 1))
E = ExtAffineWeylElement.identity(AFF)
PARAMS = dd.HeckeParameters.make(2, 1, {0: 2, 1: 2, 2: 2})


def _finite_copy(**changes):
    fields = dict(
        type_label="A", rank=2, cartan_matrix=A2.cartan_matrix, gram_matrix=A2.gram_matrix,
        roots=A2.roots,
    )
    return FiniteRootSystem(**{**fields, **changes})


def _ambient_copy(**changes):
    fields = dict(
        finite_base=A2, affine=True, simples=AFF.simples, labels=AFF.labels, theta=AFF.theta,
        alcove_interior_point=AFF.alcove_interior_point,
    )
    return AffineRootSystem(**{**fields, **changes})


def _algebras():
    used = dd.DdahaAlgebra(AFF, PARAMS)
    used.generator(1) * used.generator(2)  # fills the algebra's caches
    return used, dd.DdahaAlgebra(AFF, PARAMS)


def _ddaha_elements():
    a, b = _algebras()
    x = a.generator(1) + a.polynomial(Poly.variable(2, 0)).scale(Fraction(1, 2))
    return x, dd.DdahaElement(b, dict(x.num), x.den), dd.DdahaElement(a, dict(x.num), 2 * x.den)


def _span():
    wall = cx.span(cx.facet(AFF, E, {1}))
    moved = cx.AffineSpan((Fraction(0), Fraction(1)), wall.directions, wall.vanishing_roots)
    return wall, moved, cx.AffineSpan(wall.base, wall.directions, frozenset())


def _relative_systems():
    r = rel.relative_system(AFF_C2, {1})
    same = rel.RelativeCoxeterSystem(
        AFF, None, r.sigma_complement, {}, {}, r.degenerate_single_complement
    )
    other = rel.RelativeCoxeterSystem(
        r.ambient, r.base, (0,), r.simples, r.coxeter_matrix, r.degenerate_single_complement
    )
    return r, same, other


def _data():
    return sp.GradedRootDatum(A2, (1, 1), 3, 1), sp.GradedRootDatum(A2, (1, 1), 3, -1)


# name -> (x, y, z): y differs from x only in fields that are not compared
# (or is a copy of x), z differs from x in a compared field
CASES = {
    "ExtAffineWeylElement": lambda: (
        ExtAffineWeylElement(AFF, (1, 0), I2),
        ExtAffineWeylElement(FIN, (1, 0), I2),
        ExtAffineWeylElement(AFF, (0, 1), I2),
    ),
    "ReducedWord": lambda: (
        ReducedWord(AFF, E, (1, 2)), ReducedWord(FIN, E, (1, 2)), ReducedWord(AFF, E, (2, 1))
    ),
    "FiniteRootSystem": lambda: (A2, _finite_copy(), _finite_copy(roots=A2.roots[1:])),
    "AffineRoot": lambda: (
        AffineRoot(A2, (1, 0), 1), AffineRoot(G2, (1, 0), 1), AffineRoot(A2, (1, 0), 2)
    ),
    "AffineRootSystem": lambda: (AFF, _ambient_copy(), _ambient_copy(affine=False)),
    "Poly": lambda: (
        Poly.variable(2, 0), Poly(2, frozenset({((1, 0), Fraction(1))})), Poly.variable(2, 1)
    ),
    "HeckeParameters": lambda: (
        PARAMS,
        dd.HeckeParameters.make(2, 1, {2: 2, 1: 2, 0: 2}),
        dd.HeckeParameters.make(2, 1, {0: 2, 1: 2, 2: 2}, unsafe=True),
    ),
    "DdahaAlgebra": lambda: (*_algebras(), dd.DdahaAlgebra(AFF_C2, PARAMS)),
    "DdahaElement": _ddaha_elements,
    "RelationReport": lambda: (
        dd.RelationReport(True, True, True),
        dd.RelationReport(True, True, True, ()),
        dd.RelationReport(True, True, True, (("square", 1),)),
    ),
    # the algebra is compared: y is over a fresh copy of x's algebra (a
    # module over the C2 algebra differs, test_equality_across_systems)
    "StandardModule": lambda: (
        dd.StandardModule(_algebras()[0], (Fraction(1, 3),), 1, (E,)),
        dd.StandardModule(_algebras()[1], (Fraction(1, 3),), 1, (E,)),
        dd.StandardModule(_algebras()[0], (Fraction(1, 3),), 2, (E,)),
    ),
    "Facet": lambda: (
        cx.Facet(AFF, E, frozenset({1})),
        cx.Facet(FIN, E, frozenset({1})),
        cx.Facet(AFF, E, frozenset({2})),
    ),
    "AffineSpan": _span,
    "GradingPoint": lambda: (
        cx.GradingPoint(AFF, (1, 1), 3),
        cx.GradingPoint(FIN, (1, 1), 3),
        cx.GradingPoint(AFF, (1, 1), 2),
    ),
    "RelativePosition": lambda: (
        cx.RelativePosition(E, True, E),
        cx.RelativePosition(E, True, E),
        cx.RelativePosition(E, False),
    ),
    "FixedChambersReport": lambda: (
        cx.FixedChambersReport((), {}, None, True, True),
        cx.FixedChambersReport((), {(1, None): None}, object(), True, True, ()),
        cx.FixedChambersReport((), {}, None, True, False),
    ),
    "RelativeCoxeterSystem": _relative_systems,
    "ElementaryMove": lambda: (
        rel.ElementaryMove(frozenset({1}), frozenset({2}), 0, E),
        rel.ElementaryMove(frozenset({1}), frozenset({2}), 0, ExtAffineWeylElement.simple(AFF, 0)),
        rel.ElementaryMove(frozenset({1}), frozenset({2}), 1, E),
    ),
    "GradedRootDatum": lambda: (
        _data()[0], sp.GradedRootDatum(A2, (Fraction(1), 1), 3), _data()[1]
    ),
    "Spiral": lambda: (
        sp.Spiral(_data()[0], (0, 1)),
        sp.Spiral(_data()[0], (Fraction(0), Fraction(1)), 1),
        sp.Spiral(_data()[0], (0, 1), -1),
    ),
    "GradedPseudoLevi": lambda: (
        sp.GradedPseudoLevi(_data()[0], ((1, 0),), {(1, 0): 1}),
        sp.GradedPseudoLevi(_data()[1], ((1, 0),), {(1, 0): 2}),
        sp.GradedPseudoLevi(_data()[0], ((0, 1),), {(1, 0): 1}),
    ),
    "LeviDecompositionReport": lambda: (
        sp.LeviDecompositionReport((-1, 1), True),
        sp.LeviDecompositionReport((-1, 1), True),
        sp.LeviDecompositionReport((-1, 2), True),
    ),
}


# name -> the field tuple whose hash is the record's hash; a record's hash
# fixes the iteration order of the sets and dicts it is kept in
HASHED = {
    "ExtAffineWeylElement": lambda r: (r.mu, r.matrix),
    "ReducedWord": lambda r: (r.pi, r.letters),
    "FiniteRootSystem": lambda r: (r.type_label, r.rank, r.cartan_matrix, r.gram_matrix, r.roots),
    "AffineRoot": lambda r: (r.direction, r.level),
    "AffineRootSystem": lambda r: (
        r.finite_base, r.affine, r.simples, r.labels, r.theta, r.alcove_interior_point
    ),
    "Poly": lambda r: (r.nvars, r.terms),
    "HeckeParameters": lambda r: (r.m, r.d, r.c, r.unsafe),
    "DdahaAlgebra": lambda r: (r.ambient, r.params),
    "DdahaElement": lambda r: (
        r.den, frozenset((g, frozenset(f.items())) for g, f in r.num.items())
    ),
    "RelationReport": lambda r: (r.squares_ok, r.braid_ok, r.cross_ok, r.failures),
    "StandardModule": lambda r: (r.algebra, r.lam0, r.depth, r.basis),
    "Facet": lambda r: (r.rep, r.type_labels),
    "AffineSpan": lambda r: (frozenset(r.vanishing_roots), len(r.directions)),
    "GradingPoint": lambda r: (r.theta_tilde, r.m),
    "RelativePosition": lambda r: (r.double_coset, r.good, r.relative_element),
    "FixedChambersReport": lambda r: (
        r.chambers, r.single_free_orbit, r.ball_complete, r.boundary_excluded
    ),
    "RelativeCoxeterSystem": lambda r: (r.sigma_complement, r.degenerate_single_complement),
    "ElementaryMove": lambda r: (r.sigma_from, r.sigma_to, r.s),
    "GradedRootDatum": lambda r: (r.finite, r.theta_tilde, r.m, r.d),
    "Spiral": lambda r: (r.datum, r.lam, r.epsilon),
    "GradedPseudoLevi": lambda r: (r.roots,),
    "LeviDecompositionReport": lambda r: (r.window, r.partition_ok),
}


def test_every_record_class_is_covered():
    assert sorted(cls.__name__ for cls in SIGNATURES) == sorted(CASES)
    assert len(CASES) == 22


@pytest.mark.parametrize("name", sorted(CASES))
def test_hash_is_pinned_to_the_field_tuple(name):
    for r in CASES[name]():
        assert hash(r) == hash(HASHED[name](r))


@pytest.mark.parametrize("cls", list(SIGNATURES), ids=lambda c: c.__name__)
def test_constructor_signature(cls):
    params = inspect.signature(cls).parameters.values()
    assert [(p.name, p.default) for p in params] == SIGNATURES[cls]


@pytest.mark.parametrize("name", sorted(CASES))
def test_equality_and_hash(name):
    x, y, z = CASES[name]()
    assert x is not y
    assert x == y and not x != y
    assert hash(x) == hash(y)
    assert x != z and not x == z
    assert x != "x" and x != None  # noqa: E711


def test_own_equality_of_ddaha_elements_and_spans():
    # DdahaElement compares its algebra (by identity first) and den and num;
    # AffineSpan compares the roots through it and the dimension, whatever
    # the base
    x, y, _ = _ddaha_elements()
    assert x.algebra is not y.algebra and x == y
    over_c2 = dd.DdahaElement(dd.DdahaAlgebra(AFF_C2, PARAMS), dict(x.num), x.den)
    assert x != over_c2 and not x == over_c2 and hash(x) == hash(over_c2)
    assert dd.DdahaElement.__eq__(x, "x") is False
    assert hash(x) == hash((x.den, frozenset((g, frozenset(f.items())) for g, f in x.num.items())))
    a, b, _ = _span()
    assert a.base != b.base and a == b
    assert cx.AffineSpan.__eq__(a, "a") is False
    assert hash(a) == hash((a.vanishing_roots, len(a.directions)))


def test_equality_across_systems():
    # group elements compare their finite base (the ambient by identity
    # first), so the identities of affine A2 and C2 differ while the affine
    # and finite packagings of A2 share theirs; a standard module compares
    # its algebra, so the depth-1 modules over the A2 and C2 algebras with
    # one parameter set and lam0 = (1/3, 0) differ too.  The element hash
    # stays (mu, matrix).
    e_c2 = ExtAffineWeylElement.identity(AFF_C2)
    assert E.mu == e_c2.mu and E.matrix == e_c2.matrix and hash(E) == hash(e_c2)
    assert E != e_c2 and not E == e_c2 and len({E, e_c2}) == 2
    assert E == ExtAffineWeylElement.identity(FIN) == ExtAffineWeylElement.identity(_ambient_copy())
    lam0 = (Fraction(1, 3), Fraction(0))
    a2 = dd.StandardModule(dd.DdahaAlgebra(AFF, PARAMS), lam0, 1, (E,))
    c2 = dd.StandardModule(dd.DdahaAlgebra(AFF_C2, PARAMS), lam0, 1, (E,))
    assert a2 != c2 and not a2 == c2
    assert a2 == dd.StandardModule(dd.DdahaAlgebra(AFF, PARAMS), lam0, 1, (E,))


def test_equal_elements_share_their_finite_part_record():
    # elements compare their finite parts by record identity, which decides
    # matrix equality because `_intern` keeps one record per matrix: the
    # public constructor, given a kernel element's (mu, matrix) as lists of
    # Fractions, builds an element on the kernel's record, equal to it
    g = weyl.mul_simple(weyl.simple_mul(0, ExtAffineWeylElement.simple(AFF, 1)), 2)
    h = ExtAffineWeylElement(AFF, list(map(Fraction, g.mu)), [list(r) for r in g.matrix])
    assert h.fin is g.fin and h == g and hash(h) == hash(g)
    # the same (mu, matrix) over another system shares the record but not
    # the value
    c2 = ExtAffineWeylElement(AFF_C2, g.mu, g.matrix)
    assert c2.fin is g.fin and c2 != g and hash(c2) == hash(g)
    # the same mu on another record is another element
    assert ExtAffineWeylElement(AFF, g.mu, I2) != g
    one = ExtAffineWeylElement(AFF, (0, 0), I2)
    assert one.fin is weyl._identity(2) and one.is_identity() and one == E
    assert not ExtAffineWeylElement(AFF, (1, 0), I2).is_identity()
    assert not g.is_identity() and not ExtAffineWeylElement.simple(AFF, 1).is_identity()


# the classes a command reaches on every op keep their own inline equality and
# hash; every other record takes both from Record through its _key()
HOT = {ExtAffineWeylElement, AffineRoot, cx.Facet, dd.DdahaElement}
# the records that keep per-object caches in an instance __dict__
UNSLOTTED = {FiniteRootSystem, AffineRootSystem, sp.Spiral}


def test_one_value_semantics_primitive():
    modules = (root_system, weyl, poly, dd, cx, rel, sp)
    classes = {
        c for m in modules for c in vars(m).values()
        if isinstance(c, type) and c.__module__ == m.__name__
    }
    own = {c for c in classes if "__eq__" in vars(c) or "__hash__" in vars(c)}
    assert own == {Record, *HOT}

    for cls in SIGNATURES:
        assert issubclass(cls, Record) is (cls not in HOT)
        x = CASES[cls.__name__]()[0]
        assert hasattr(x, "__dict__") is (cls in UNSLOTTED)

    # equal keys in two different record classes are still two values
    report = sp.LeviDecompositionReport((-1, 1), True)
    system = rel.RelativeCoxeterSystem(AFF, None, (-1, 1), {}, {}, True)
    assert report._key() == system._key() and hash(report) == hash(system)
    assert report != system and not report == system

def test_construction_converts_and_checks():
    g = ExtAffineWeylElement(AFF, [Fraction(1), 0], [[1, 0], [Fraction(0), 1]])
    assert g.mu == (1, 0) and g.matrix == I2
    assert all(type(c) is int for c in g.mu + g.matrix[0] + g.matrix[1])
    assert ExtAffineWeylElement(AFF).mu == () and ExtAffineWeylElement(AFF).matrix == ()
    with pytest.raises(ValueError):
        ExtAffineWeylElement(AFF, (Fraction(1, 2), 0), I2)

    a = AffineRoot(A2, [Fraction(1), 0], Fraction(-1))
    assert (a.direction, a.level) == ((1, 0), -1) and type(a.level) is int
    assert repr(a) == "AffineRoot((1, 0), -1)"
    with pytest.raises(ValueError, match="is not a root"):
        AffineRoot(A2, (2, 0), 0)
    with pytest.raises(ValueError, match="only odd levels"):
        AffineRoot(build_finite("BC", 1), (2,), 0)

    point = cx.GradingPoint(AFF, (1, 1), 3)
    assert point.theta_tilde == (Fraction(1), Fraction(1)) and point.x == (Fraction(1, 3),) * 2
    with pytest.raises(ValueError, match="m must be a positive integer"):
        cx.GradingPoint(AFF, (1, 1), 0)

    datum = sp.GradedRootDatum(A2, (1, 1), 3)
    assert datum.theta_pairs[(1, 1)] == 2 and datum.epsilon == 1
    with pytest.raises(ValueError, match="m must be a positive integer"):
        sp.GradedRootDatum(A2, (1, 1), 0)
    with pytest.raises(ValueError, match="d must be nonzero"):
        sp.GradedRootDatum(A2, (1, 1), 3, 0)
    with pytest.raises(sp.NotAdjoint):
        sp.GradedRootDatum(A2, (Fraction(1, 2), 0), 3)

    spiral = sp.Spiral(datum, (0, 1), -1)
    assert spiral.lam == (Fraction(0), Fraction(1))
    with pytest.raises(ValueError, match="epsilon must be"):
        sp.Spiral(datum, (0, 1), 2)

    algebra, other = _algebras()
    assert algebra._hd == {0: 2, 1: 2, 2: 2} == other._hd
    assert other._images == other._words == {} and not any(other._products.values())
    assert sorted(other._products) == sorted(other.ambient.labels)
    assert other._elts[0] == ExtAffineWeylElement.identity(other.ambient)
    assert algebra._images is not other._images and algebra._words
