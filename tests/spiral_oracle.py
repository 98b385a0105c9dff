"""Fraction oracle for spirals, shared by the spiral tests and the
acceptance suite.  Every weight here is paired root by root in Fractions,
and facet points are built from the alcove vertices, independently of the
library's spiral tables and of its choice of interior point."""

import functools
from fractions import Fraction

from weylkit import spiral as sp
from weylkit.weyl import act_on_affine_root


@functools.cache
def degrees(datum):
    """root -> <alpha, theta-tilde> mod m, paired in Fractions."""
    return {
        root: int(sum(a * t for a, t in zip(root, datum.theta_tilde))) % datum.m
        for root in datum.finite.roots
    }


def fraction_table(datum, lam):
    """degree -> [(root, <alpha, lambda>)], the weights paired root by root
    in Fractions (a root in simple-root coordinates pairs with a point in
    coweight coordinates by the plain dot product)."""
    table = {}
    for root, degree in degrees(datum).items():
        table.setdefault(degree, []).append((root, sum(a * c for a, c in zip(root, lam))))
    return table


def table_bound(table, m):
    weights = [abs(w) for rows in table.values() for _, w in rows]
    return int(max(weights, default=Fraction(0))) + m + 1


def assert_pieces_match(spiral, tables, bound):
    """P_n, L_n and U_n of the spiral against each table, for |n| <= bound."""
    for n in range(-bound, bound + 1):
        k = n % spiral.datum.m
        target = spiral.epsilon * n
        pieces = (
            (spiral.p_n(n), lambda w: w >= target),
            (spiral.l_n(n), lambda w: w == target),
            (spiral.u_n(n), lambda w: w > target),
        )
        for table in tables:
            for piece, keep in pieces:
                expected = {r for r, w in table.get(k, ()) if keep(w)}
                if k == 0 and keep(0):
                    expected.add(sp.CARTAN)
                assert piece == frozenset(expected)


def facet_points(f):
    """Three points of the facet f, built here from the alcove vertices: the
    barycenters of the vertices off the type's walls with weights 1 + t i
    (i = 1, .., k) for t = 0, 1, 2, moved by the rep.  Each one vanishes on
    exactly the rep-images of the type's walls and is positive on the images
    of the other walls, so it lies in the facet."""
    ambient = f.ambient
    finite = ambient.finite_base
    verts = ambient.alcove_vertices()
    chosen = [verts[l] for l in ambient.labels if l not in f.type_labels]
    walls = [(l, act_on_affine_root(f.rep, a)) for l, a in zip(ambient.labels, ambient.simples)]
    points = []
    for t in range(3):
        weights = [1 + t * i for i in range(1, len(chosen) + 1)]
        x = tuple(
            sum(w * v[j] for w, v in zip(weights, chosen)) / sum(weights)
            for j in range(ambient.rank)
        )
        y = f.rep.act_point(x)
        for l, b in walls:
            value = finite.pair(b.direction, y) + b.level
            assert value == 0 if l in f.type_labels else value > 0
        points.append(y)
    return points


def assert_facet_spiral_matches_its_points(datum, f):
    """The library's facet spiral against the Fraction table of lambda_y =
    epsilon (theta-tilde - m y) at each of three points y of the facet, over
    the largest of their table bounds."""
    spiral = sp.spiral_from_facet(datum, f)
    assert spiral.epsilon == datum.epsilon
    tables = []
    for y in facet_points(f):
        lam = tuple(datum.epsilon * (t - datum.m * c) for t, c in zip(datum.theta_tilde, y))
        tables.append(fraction_table(datum, lam))
    bound = max(table_bound(t, datum.m) for t in tables)
    assert_pieces_match(spiral, tables, bound)


