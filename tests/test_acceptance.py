"""Acceptance suite: ten end-to-end criteria, one pass/fail line each.

Each test computes a single boolean verdict, records one line of the form
``[ACCEPTANCE k] name: PASS|FAIL`` (re-emitted after the run by the
terminal-summary hook in conftest.py so it survives output capture), then
asserts the verdict.
"""

import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import weylkit
from weylkit import coxcomplex as cx
from weylkit import ddaha as dd
from weylkit import relative as rel
from weylkit import spiral as spr
from weylkit.relative import coxeter_ball_sizes_from_matrix
from weylkit.poly import Poly, weyl_action
from weylkit.root_system import affinize, build_finite, finite_coxeter
from weylkit.weyl import (
    ExtAffineWeylElement,
    act_on_affine_root,
    canonical_reflection_key,
    enumerate_ball,
    length,
    reflections_T,
)

from spiral_oracle import assert_facet_spiral_matches_its_points


REPORT_LINES = []


def report(num, name, ok):
    line = f"[ACCEPTANCE {num}] {name}: {'PASS' if ok else 'FAIL'}"
    REPORT_LINES.append(line)
    print(line, flush=True)
    assert ok, line


def _sorted_ball(ambient, radius):
    ball = enumerate_ball(ambient, radius)
    return sorted(ball, key=lambda g: (ball[g], g.mu, g.matrix))


# The four relative systems used throughout: (ambient builder, sigma).
def acceptance_systems():
    return [
        ("finite B2 / {1}", finite_coxeter(build_finite("B", 2)), [1]),
        ("finite F4 / {2,3}", finite_coxeter(build_finite("F", 4)), [2, 3]),
        ("affine C2 / {1}", affinize(build_finite("C", 2)), [1]),
        ("affine A3 / {1,3}", affinize(build_finite("A", 3)), [1, 3]),
    ]


def test_acceptance_1_coxeter_certification():
    """The computed Coxeter matrix of (W-tilde, S-tilde), fed to an
    independent ball-size oracle, reproduces the ball sizes inside W."""
    t0 = time.monotonic()
    ok = True
    for name, ambient, sigma in acceptance_systems():
        admissible, _ = rel.is_admissible(ambient, sigma)
        if not admissible:
            ok = False
            continue
        system = rel.relative_system(ambient, sigma)
        ball = rel.relative_ball(system, 4)
        got = [0] * 5
        for dist in ball.values():
            got[dist] += 1
        expected = coxeter_ball_sizes_from_matrix(
            list(system.simple_labels()), system.coxeter_matrix, 4
        )
        ok = ok and got == expected
    elapsed = time.monotonic() - t0
    report(1, "Coxeter certification", ok and elapsed < 30)


def test_acceptance_2_length_additivity_equivalence():
    """Exhaustive over pairs with relative length <= 3: relative length is
    additive on a product iff ambient length is."""
    ok = True
    for name, ambient, sigma in acceptance_systems():
        system = rel.relative_system(ambient, sigma)
        ball = rel.relative_ball(system, 3)
        for g, lg in ball.items():
            for h, lh in ball.items():
                rel_add = rel.relative_length(system, g * h) == lg + lh
                abs_add = length(g * h) == length(g) + length(h)
                if rel_add != abs_add:
                    ok = False
    report(2, "length-additivity equivalence", ok)


def test_acceptance_3_reflection_calculus():
    ambient = affinize(build_finite("A", 2))
    ball = _sorted_ball(ambient, 5)
    ok = all(length(g) == len(reflections_T(g)) for g in ball)
    rng = random.Random(3)
    for _ in range(500):
        w = rng.choice(ball)
        y = rng.choice(ball)
        conj = frozenset(
            canonical_reflection_key(act_on_affine_root(w, t))
            for t in reflections_T(y)
        )
        if not reflections_T(w * y) <= reflections_T(w) | conj:
            ok = False
    report(3, "reflection calculus", ok)


def test_acceptance_4_exchange_property():
    """For every relative left descent s of w there is an index i with
    s * s_{l_1}..s_{l_{i-1}} = s_{l_1}..s_{l_i} in a relative reduced word."""
    ok = True
    systems = [s for s in acceptance_systems() if s[0] in ("finite B2 / {1}", "affine C2 / {1}")]
    for name, ambient, sigma in systems:
        system = rel.relative_system(ambient, sigma)
        for g in rel.relative_ball(system, 3):
            word = rel.relative_reduced_word(system, g)
            for l in rel.relative_descents(system, g):
                st = system.generator(l)
                prefix = ExtAffineWeylElement.identity(ambient)
                found = False
                for letter in word:
                    nxt = prefix * system.generator(letter)
                    if st * prefix == nxt:
                        found = True
                        break
                    prefix = nxt
                if not found and word:
                    ok = False
    report(4, "exchange property", ok)


def test_acceptance_5_fixed_subcomplex():
    ok = True
    for name, ambient, sigma in acceptance_systems():
        if not rel.is_admissible(ambient, sigma)[0]:
            ok = False
            continue
        fc = cx.fixed_chambers(rel.relative_system(ambient, sigma), 6)
        if not fc.chambers:
            ok = False
            continue
        if any(c.type_labels != frozenset(sigma) for c in fc.chambers):
            ok = False
        if not fc.single_free_orbit:
            ok = False
        # boundary cases must be excluded from the action table, and reported
        for (label, f), image in fc.action.items():
            if image is None and f not in fc.chambers:
                ok = False
    report(5, "fixed subcomplex", ok)


def test_acceptance_6_relative_position():
    ambient = affinize(build_finite("C", 2))
    itype = frozenset({1})
    facets = sorted(
        cx.facets_in_ball(ambient, 3, types=[itype]),
        key=lambda f: (length(f.rep), f.rep.mu, f.rep.matrix),
    )
    ok = True
    for f1 in facets:
        rel_to_target = {}
        for f2 in facets:
            rp = cx.relative_position(f1, f2)
            good = cx.span(f1) == cx.span(f2)
            if rp.good != good:
                ok = False
            if rp.good:
                w = rp.relative_element
                # w nu' = nu under the transported action; uniqueness of w in
                # its W_I-coset is asserted inside relative_position
                if cx.act_relative(w, f2) != f1:
                    ok = False
                # fibers of the orbit map have size <= 1: distinct targets
                # cannot share a relative element
                if w in rel_to_target and rel_to_target[w] != f2:
                    ok = False
                rel_to_target[w] = f2
    report(6, "relative position", ok)


def _bracket_checks(spiral, finite, bound):
    """[l_n, l_k] stays in l_{n+k} and [p_n, u_k] stays in u_{n+k} whenever
    the root sum exists; the pieces are nested, so membership is checked per
    degree pair rather than per root."""
    ok = True
    rng = range(-2 * bound, 2 * bound + 1)
    lpieces = {n: spiral.l_n(n) for n in rng}
    upieces = {n: spiral.u_n(n) for n in rng}
    ppieces = {n: spiral.p_n(n) for n in rng}
    for n in range(-bound, bound + 1):
        for k in range(-bound, bound + 1):
            for a in lpieces[n]:
                if a is spr.CARTAN:
                    continue
                for b in lpieces[k]:
                    if b is spr.CARTAN:
                        continue
                    s = tuple(x + y for x, y in zip(a, b))
                    if finite.is_root(s) and s not in lpieces[n + k]:
                        ok = False
            if not upieces[k]:
                continue
            for a in ppieces[n]:
                if a is spr.CARTAN:
                    continue
                for b in upieces[k]:
                    if b is spr.CARTAN:
                        continue
                    s = tuple(x + y for x, y in zip(a, b))
                    if finite.is_root(s) and s not in upieces[n + k]:
                        ok = False
    return ok


def test_acceptance_7_spiral_algebra():
    ok = True
    rng = random.Random(7)
    for type_label, n in (("A", 2), ("G", 2)):
        finite = build_finite(type_label, n)
        theta = finite.highest_root()
        datum = spr.GradedRootDatum(
            finite, tuple(Fraction(c) for c in theta), 3, 1
        )
        for _ in range(50):
            lam = tuple(
                Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(n)
            )
            spiral = spr.spiral_from_cochar(datum, lam)
            rep = spr.levi_decomposition_check(spiral, (-8, 8))
            if not rep.partition_ok:
                ok = False
            if not _bracket_checks(spiral, finite, 8):
                ok = False
        # facet-point independence on every facet of a radius-3 ball: the
        # facet spiral against the Fraction tables of three facet points
        ambient = affinize(finite)
        for f in cx.facets_in_ball(ambient, 3):
            try:
                assert_facet_spiral_matches_its_points(datum, f)
            except AssertionError:
                ok = False
    report(7, "spiral algebra", ok)


def _random_element(algebra, rng, ball, support, degree):
    out = algebra.zero()
    for _ in range(rng.randrange(1, support + 1)):
        g = rng.choice(ball)
        out = out + algebra.element(
            {g: dd.random_polynomial(rng, algebra.nvars, degree=degree)}
        )
    return out


def _smash_multiply(algebra, x, y):
    out = {}
    for g, f in x.terms:
        for w, q in y.terms:
            key = g * w
            acc = out.get(key, Poly.zero(algebra.nvars)) + weyl_action(
                w.inverse(), f
            ) * q
            out[key] = acc
    return algebra.element(out)


def test_acceptance_8_ddaha_consistency():
    t0 = time.monotonic()
    ok = True
    for type_label, n, m in (("A", 1, 2), ("A", 2, 3)):
        ambient = affinize(build_finite(type_label, n))
        params = dd.HeckeParameters.make(m, 1, {l: 2 for l in ambient.labels})
        algebra = dd.build_algebra(ambient, params)
        if not dd.verify_relations(algebra, seed=8, n_random=10).ok():
            ok = False
        rng = random.Random(80 + n)
        ball = _sorted_ball(ambient, 2)
        for _ in range(100):
            x = _random_element(algebra, rng, ball, 3, 2)
            y = _random_element(algebra, rng, ball, 3, 2)
            z = _random_element(algebra, rng, ball, 3, 2)
            if dd.multiply(dd.multiply(x, y), z) != dd.multiply(x, dd.multiply(y, z)):
                ok = False
    # h = 0 degeneration against the smash-product oracle
    ambient = affinize(build_finite("A", 1))
    zero = dd.build_algebra(
        ambient,
        dd.HeckeParameters.make(2, 1, {l: 0 for l in ambient.labels}, unsafe=True),
    )
    rng = random.Random(88)
    ball = _sorted_ball(ambient, 2)
    for _ in range(100):
        x = _random_element(zero, rng, ball, 3, 2)
        y = _random_element(zero, rng, ball, 3, 2)
        if dd.multiply(x, y) != _smash_multiply(zero, x, y):
            ok = False
    elapsed = time.monotonic() - t0
    report(8, "Hecke algebra consistency", ok and elapsed < 60)


def test_acceptance_9_category_o_weights():
    ambient = affinize(build_finite("A", 1))
    algebra = dd.build_algebra(
        ambient, dd.HeckeParameters.make(2, 1, {l: 2 for l in ambient.labels})
    )
    ok = True
    # generic rational point, depth 2
    lam0 = (Fraction(2, 7),)
    mod = dd.standard_module(algebra, lam0, 2)
    expected = {
        tuple(g.act_point(lam0)) for g in enumerate_ball(ambient, 2)
    }
    mults = mod.weight_multiplicities()
    if set(mults) != expected or set(mults.values()) != {1}:
        ok = False
    # wall point a(lam0) = 0: the {e, s} block has a rank-2 generalized
    # weight with a nonzero nilpotent part iff h != 0
    wall = dd.standard_module(algebra, (Fraction(0),), 1)
    if wall.weight_multiplicities()[(Fraction(0),)] != 2:
        ok = False
    x = Poly.variable(1, 0)
    mat = wall.action_matrix(x)
    i = wall.basis.index(ExtAffineWeylElement.identity(ambient))
    j = wall.basis.index(ExtAffineWeylElement.simple(ambient, 1))
    if mat[i][i] != 0 or mat[j][j] != 0 or mat[i][j] == 0:
        ok = False
    zero = dd.build_algebra(
        ambient,
        dd.HeckeParameters.make(2, 1, {l: 0 for l in ambient.labels}, unsafe=True),
    )
    mat0 = dd.standard_module(zero, (Fraction(0),), 1).action_matrix(x)
    if mat0[i][j] != 0:
        ok = False
    report(9, "category O weights", ok)


def test_acceptance_10_determinism():
    argv = [
        sys.executable, "-m", "weylkit.cli",
        "certify", "--type", "C", "--rank", "2", "--sigma", "1", "--seed", "5",
    ]
    # the child imports the same weylkit as this process, installed or not
    src = os.path.dirname(os.path.dirname(weylkit.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    first = subprocess.run(argv, capture_output=True, env=env)
    second = subprocess.run(argv, capture_output=True, env=env)
    ok = (
        first.returncode == second.returncode == 0
        and first.stdout == second.stdout
    )
    report(10, "determinism", ok)
