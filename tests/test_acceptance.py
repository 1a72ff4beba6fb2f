"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance and time limit is pinned here.
"""

import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from rht.algebra import AlgElement, GeneratorContext
from rht.cdga import (CdgaMorphism, SullivanPresentation, cohomology,
                      cohomology_algebra, is_quasi_iso, validate)
from rht.constructions import (PDAlgebra, SubspaceArrangement, arrangement_complex,
                               config_space_model, cp, free_loop_model,
                               mapping_space_pi, sphere, tensor_presentations,
                               torus, wedge_cohomology)
from rht.homotopy_lie import (LieTable, bch_product, lcs_filtrations,
                              lie_table, nilpotency_class, quadratic_part,
                              whitehead_product)
from rht.invariants import (DegreeSequence, cat_bounds, elliptic_degrees_check,
                            loop_homology_dims, massey_triple, tc_cup_length,
                            toomer_invariant)
from rht.minimal_model import minimal_model

from conftest import nonformal_uvw, sphere2_model, wedge_two_s2_cohomology
from test_invariants import brute_force_elliptic, brute_force_tc, \
    brute_force_ul_monomials


def report(num, message):
    print("PASS criterion %d: %s" % (num, message))


MODEL_CORPUS = []       # MinimalModelResults accumulated for criterion 2


def test_criterion_01_minimal_model_golden_spheres():
    for n in (2, 3, 4, 5):
        start = time.monotonic()
        H = cohomology_algebra(sphere(n), 2 * n if n % 2 == 0 else n,
                               name="H(S%d)" % n)
        mm = minimal_model(H, min(4 * n, 16))
        elapsed = time.monotonic() - start
        degrees = sorted(mm.model.ctx.degrees)
        if n % 2 == 0:
            assert degrees == [n, 2 * n - 1], n
            gen_a = [g for g, d in mm.model.ctx.gens if d == n][0]
            gen_b = [g for g, d in mm.model.ctx.gens if d == 2 * n - 1][0]
            a = mm.model.ctx.generator(gen_a)
            db = mm.model.d.image_of(gen_b)
            assert db == a * a or db == -(a * a)
            assert mm.model.d.image_of(gen_a).is_zero()
        else:
            assert degrees == [n]
            assert mm.model.d.image_of(mm.model.ctx.names[0]).is_zero()
        assert elapsed < 1.0, "S%d took %.2fs" % (n, elapsed)
        MODEL_CORPUS.append(mm)
    report(1, "sphere models reproduce the catalog (da=0, db=a^2 / single "
              "generator) in < 1 s each")


def test_criterion_02_quasi_iso_reverification():
    start = time.monotonic()
    H_cp3 = cohomology_algebra(cp(3), 6)
    MODEL_CORPUS.append(minimal_model(H_cp3, 9))
    MODEL_CORPUS.append(minimal_model(wedge_two_s2_cohomology(), 8))
    MODEL_CORPUS.append(minimal_model(sphere2_model(), 8))
    checked = 0
    for mm in MODEL_CORPUS:
        n = min(mm.certified_degree, 16)
        ok, witness = is_quasi_iso(mm.phi, n)
        assert ok, witness
        checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    report(2, "%d minimal models re-verified as quasi-isomorphisms (exact, "
              "N <= 16) in %.1f s" % (checked, elapsed))


def test_criterion_03_hyperbolic_growth_oracle():
    start = time.monotonic()
    mm = minimal_model(wedge_two_s2_cohomology(), 8)
    # oracle: PBW inversion of loop homology dims 2^k (tensor algebra on two
    # degree-1 classes), computed greedily and exactly
    target = [2 ** k for k in range(9)]
    cur = [1] + [0] * 8
    expect = {}

    def mul(a, b):
        out = [0] * 9
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj and i + j <= 8:
                        out[i + j] += ai * bj
        return out

    for k in range(1, 9):
        need = target[k] - cur[k]
        expect[k] = need
        factor = [0] * 9
        if k % 2 == 1:
            for m in range(0, 8 // k + 1):
                if m <= need:
                    factor[k * m] = math.comb(need, m)
        else:
            for m in range(0, 8 // k + 1):
                factor[k * m] = math.comb(need + m - 1, m)
        cur = mul(cur, factor)
    ranks = mm.ranks()
    for k in range(2, 9):
        assert ranks[k] == expect[k - 1], (k, ranks[k], expect[k - 1])
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(3, "wedge-of-two-2-spheres ranks k<=8 equal the PBW inversion of "
              "2^k exactly (%s) in %.1f s"
              % ([ranks[k] for k in range(2, 9)], elapsed))


def test_criterion_04_lie_signs_match_frozen_oracle():
    s2 = sphere2_model()
    t = lie_table(quadratic_part(s2), 4)
    # frozen hand evaluation: <b, s[x,x]> = (-1)^{1+1} <a^2, sx, sx> = 2
    deg, vec = t.bracket((1, {0: 1}), (1, {0: 1}))
    assert (deg, vec) == (2, {0: Fraction(2)})
    # Whitehead transport [sx, sy]_W = (-1)^{deg x} s[x, y]: deg x = 1
    degw, vecw = whitehead_product(t, (2, {0: 1}), (2, {0: 1}))
    assert (degw, vecw) == (3, {0: Fraction(-2)})
    # mixed-degree transport sign on an abelian-bracket-free check:
    # [s x, s y]_W for x in L_2 must carry (-1)^2 = +1
    ctx = GeneratorContext([("p", 3), ("q", 3), ("r", 5)])
    p, q = ctx.generator("p"), ctx.generator("q")
    zero = AlgElement.zero(ctx)
    m = SullivanPresentation(ctx, {"p": zero, "q": zero, "r": p * q})
    t2 = lie_table(quadratic_part(m), 6)
    _, inner = t2.bracket((2, {0: 1}), (2, {1: 1}))
    degw, outer = whitehead_product(t2, (3, {0: 1}), (3, {1: 1}))
    assert degw == 5 and outer == inner      # (-1)^{deg x} = +1 for deg x = 2
    report(4, "S2 bracket [x,x] = +2y and Whitehead signs match the frozen "
              "pairing oracle exactly")


def free_nilpotent_class3():
    from test_homotopy_lie import free_nilpotent_class3 as f
    return f()


def free_nilpotent_class4():
    from test_homotopy_lie import free_nilpotent_class4 as f
    return f()


def test_criterion_05_bch_coefficients_and_associativity():
    start = time.monotonic()
    t3 = free_nilpotent_class3()
    z = bch_product(t3, {0: Fraction(1)}, {1: Fraction(1)})
    assert z == {0: Fraction(1), 1: Fraction(1), 2: Fraction(1, 2),
                 3: Fraction(1, 12), 4: Fraction(-1, 12)}
    rng = random.Random(20240817)
    t4 = free_nilpotent_class4()
    count = 0
    for table in (t3, t4):
        c = nilpotency_class(table)
        dim = len(table.basis[0])
        for _ in range(50):
            a, b, cc = ({i: Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                         for i in range(dim)} for _ in range(3))
            left = bch_product(table, bch_product(table, a, b, c), cc, c)
            right = bch_product(table, a, bch_product(table, b, cc, c), c)
            assert left == right
            count += 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report(5, "BCH coefficients 1/2, 1/12, -1/12 exact at class 3; "
              "associativity exact on %d random triples (classes <= 4) in %.1f s"
              % (count, elapsed))


def test_criterion_06_nilpotency_theorem():
    uvw = nonformal_uvw()
    rep = lcs_filtrations(uvw, 1)
    assert rep.nil_v == rep.nil_l == 2
    # a deeper Heisenberg-type model (class 3)
    ctx = GeneratorContext([("u", 1), ("v", 1), ("z", 1), ("w", 1)])
    u, v, z = (ctx.generator(g) for g in "uvz")
    zero = AlgElement.zero(ctx)
    deep = SullivanPresentation(ctx, {"u": zero, "v": zero, "z": u * v,
                                      "w": u * z})
    rep2 = lcs_filtrations(deep, 1)
    assert rep2.nil_v == rep2.nil_l == 3
    # higher k with V^1 = 0: both sides 1
    rep3 = lcs_filtrations(sphere2_model(), 2)
    assert rep3.nil_v == rep3.nil_l == 1
    report(6, "nil V^k = nil L_{k-1} exactly on the degree-1 example (2), a "
              "class-3 variant (3), and a simply connected model (1)")


def test_criterion_07_toomer_and_cat():
    start = time.monotonic()
    for n in (1, 2, 3, 4):
        model = cp(n)
        rep = toomer_invariant(model, n=2 * n + 2, h_vanishes_above=2 * n)
        assert rep.value == n
        H = cohomology_algebra(model, 2 * n)
        mm = minimal_model(H, 2 * n + 3)
        cat = cat_bounds(mm, n=2 * n + 3)
        assert cat.cat_exact == n and cat.pd
    pairs = [
        (sphere(2), 2, sphere(3), 3, 1, 1),
        (sphere(3), 3, sphere(5), 5, 1, 1),
        (sphere(2), 2, sphere(2), 2, 1, 1),
        (cp(2), 4, sphere(3), 3, 2, 1),
        (cp(2), 4, cp(2), 4, 2, 2),
    ]
    for p1, t1, p2, t2, e1, e2 in pairs:
        t = tensor_presentations(p1, p2)
        rep = toomer_invariant(t, n=t1 + t2 + 2, h_vanishes_above=t1 + t2)
        assert rep.value == e1 + e2, (p1.name, p2.name)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(7, "e(CP^n) = n with PD-exact cat = n for n <= 4; e additive on 5 "
              "catalog tensor pairs (exact) in %.1f s" % elapsed)


def test_criterion_08_formality_obstruction():
    uvw = nonformal_uvw()
    u, v = uvw.ctx.generator("u"), uvw.ctx.generator("v")
    res = massey_triple(uvw, u, v, v)
    assert res.defined and res.nontrivial
    # the formal sphere: every defined triple of cocycle representatives of
    # H(S2) classes is trivial
    s2 = sphere2_model()
    a = s2.ctx.generator("a")
    one = AlgElement.unit(s2.ctx)
    reps = [one, a]
    defined = 0
    for x in reps:
        for y in reps:
            for z in reps:
                r = massey_triple(s2, x, y, z)
                if r.defined:
                    defined += 1
                    assert not r.nontrivial
    assert defined > 0
    report(8, "<u,v,v> nontrivial mod indeterminacy on the non-formal example; "
              "all %d defined triples on the formal sphere vanish" % defined)


def enumerate_degree_sequences(max_weight):
    """All (evens, odds) multisets with sum(2a) + sum(2b-1) <= max_weight."""

    def multisets(parts, budget, min_part):
        yield []
        for part in parts:
            if part < min_part or part > budget:
                continue
            for rest in multisets(parts, budget - part, part):
                yield [part] + rest

    out = []
    even_parts = list(range(1, max_weight // 2 + 1))
    odd_parts = list(range(1, (max_weight + 1) // 2 + 1))
    for evens in multisets(even_parts, max_weight // 2, 1):
        weight = sum(2 * a for a in evens)
        budget = max_weight - weight
        for odds in multisets(odd_parts, budget, 1):
            if sum(2 * b - 1 for b in odds) <= budget:
                out.append((sorted(evens), sorted(odds)))
    return out


def test_criterion_09_elliptic_checker_vs_brute_force():
    start = time.monotonic()
    seqs = enumerate_degree_sequences(14)
    seen = set()
    checked = 0
    for evens, odds in seqs:
        key = (tuple(evens), tuple(odds))
        if key in seen:
            continue
        seen.add(key)
        got, _ = elliptic_degrees_check(DegreeSequence(evens, odds))
        want = brute_force_elliptic(evens, odds)
        assert got == want, (evens, odds)
        checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(9, "elliptic checker agrees with k-vector brute force on %d degree "
              "sequences of weight <= 14 in %.1f s" % (checked, elapsed))


def test_criterion_10_free_loop_space():
    ls3 = free_loop_model(sphere(3))
    rep = cohomology(ls3, 0, 10)
    assert [rep.dim(k) for k in range(11)] == [1, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1]
    ls2 = free_loop_model(sphere(2))
    ctx = GeneratorContext([("a", 2), ("b", 3), ("p", 1), ("q", 2)])
    A, P = ctx.generator("a"), ctx.generator("p")
    manual = SullivanPresentation(ctx, {
        "a": AlgElement.zero(ctx), "b": A * A,
        "p": AlgElement.zero(ctx), "q": (A * P).scale(-2)}, name="LS2")
    got = cohomology(ls2, 0, 10).dims()
    want = cohomology(manual, 0, 10).dims()
    assert got == want
    report(10, "LS^3 Betti numbers are 1,0,1,1,1,... up to degree 10; LS^2 "
               "matches the brute-force 4-generator run exactly")


def test_criterion_11_loop_homology_of_s2():
    dims = loop_homology_dims({1: 1, 2: 1}, 12)
    assert all(dims[k] == 1 for k in range(13))
    assert dims == brute_force_ul_monomials([1, 2], 12)
    report(11, "dim H_k(Omega S^2) = 1 for k <= 12 via PBW, equal to the "
               "brute-force UL monomial count")


def test_criterion_12_mapping_space_constant_map():
    Y, X = sphere(3), sphere(2)
    phi = CdgaMorphism(Y, X, {"u": AlgElement.zero(X.ctx)})
    dims = {n: mapping_space_pi(phi, n).dim for n in range(1, 6)}
    assert dims == {1: 1, 2: 0, 3: 1, 4: 0, 5: 0}
    report(12, "constant-map S^2 -> S^3 derivation homology equals "
               "sum_q Hom(pi_q(Y), H_{q-n}(X)): dims 1 at n = 1, 3")


def test_criterion_13_configuration_model():
    start = time.monotonic()
    A = PDAlgebra(cohomology_algebra(sphere2_model(), 2), 2)
    model = config_space_model(A, 2)
    rep = validate(model.quotient)
    assert rep.ok, rep.violations
    chi, exact = cohomology(model.quotient, 0, 11).euler_characteristic()
    assert (chi, exact) == (2, True)
    amb = model.quotient.ambient
    dx = amb.d.image_of("x12")
    g1 = amb.ctx.generator("g1_h2_0")
    g2 = amb.ctx.generator("g2_h2_0")
    assert dx == g1 + g2          # p_12(D_A) with D_A = 1 (x) a + a (x) 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(13, "F(H(S^2), 2) validates (ideal d-stable, dx_ij = p_ij(D_A)) "
               "with exact Euler characteristic 2 in %.1f s" % elapsed)


def _random_arrangement(rng):
    dim = rng.choice([2, 3, 4])
    subs = []
    for _ in range(rng.randint(1, 5)):
        rows = []
        for _ in range(rng.randint(1, 2)):
            row = [rng.randint(-2, 2) for _ in range(dim)]
            if any(row):
                rows.append(row)
        if rows:
            subs.append(rows)
    if not subs:
        subs = [[[1] + [0] * (dim - 1)]]
    return SubspaceArrangement(dim, subs)


def test_criterion_14_arrangements():
    start = time.monotonic()
    subs = []
    for i in range(3):
        row = [0, 0, 0]
        row[i] = 1
        subs.append([row])
    D = arrangement_complex(SubspaceArrangement(3, subs, name="boolean3"))
    rep = cohomology(D, 0, 4)
    assert [rep.dim(k) for k in range(4)] == [1, 3, 3, 1]
    assert validate(D).ok
    braid = SubspaceArrangement(3, [[[1, -1, 0]], [[1, 0, -1]], [[0, 1, -1]]])
    Db = arrangement_complex(braid)
    repb = cohomology(Db, 0, 3)
    assert [repb.dim(k) for k in range(4)] == [1, 3, 2, 0]
    rng = random.Random(1789)
    for _ in range(50):
        arr = _random_arrangement(rng)
        Dx = arrangement_complex(arr)
        # d^2 = 0 on every basis subset
        for (k, i), col in Dx.diff.items():
            dd = {}
            for j, c in col.items():
                for l, c2 in Dx.differential_column(k + 1, j).items():
                    dd[l] = dd.get(l, Fraction(0)) + c * c2
            assert all(v == 0 for v in dd.values())
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    report(14, "boolean H = exterior on 3 classes, braid Poincare polynomial "
               "(1+t)(1+2t), d^2 = 0 on 50 random arrangements in %.1f s" % elapsed)


def test_criterion_15_tc_cup_length_oracle():
    catalog_cohomologies = [
        cohomology_algebra(sphere(2), 2, name="H(S2)"),
        cohomology_algebra(sphere(3), 3, name="H(S3)"),
        cohomology_algebra(sphere(4), 4, name="H(S4)"),
        cohomology_algebra(sphere(5), 5, name="H(S5)"),
        cohomology_algebra(cp(2), 4, name="H(CP2)"),
        cohomology_algebra(cp(3), 6, name="H(CP3)"),
        cohomology_algebra(tensor_presentations(sphere(2), sphere(3)), 5,
                           name="H(S2xS3)"),
        cohomology_algebra(tensor_presentations(sphere(3), sphere(5)), 8,
                           name="H(S3xS5)"),
        wedge_two_s2_cohomology(),
        cohomology_algebra(torus(2), 2, name="H(T2)"),
        cohomology_algebra(torus(3), 3, name="H(T3)"),
        cohomology_algebra(torus(4), 4, name="H(T4)"),
    ]
    results = {}
    for H in catalog_cohomologies:
        assert sum(map(len, H.basis.values())) <= 16
        got = tc_cup_length(H)
        want = brute_force_tc(H)
        assert got == want, (H.name, got, want)
        results[H.name] = got
    assert results["H(S2)"] == 2 and results["H(S3)"] == 1
    assert results["H(CP2)"] == 4 and results["H(CP3)"] == 6
    report(15, "TC cup length matches the brute-force kernel-product oracle "
               "on %d catalog cohomologies (%s)" % (len(results),
                                                    json.dumps(results, sort_keys=True)))


CLI_DATA = os.path.join(os.path.dirname(__file__), "data", "catalog.rht")

CLI_BATTERY = [
    ("validate", CLI_DATA),
    ("cohomology", CLI_DATA, "--name", "S2", "--max", "8", "--json"),
    ("cohomology", CLI_DATA, "--name", "X", "--max", "4"),
    ("minimal-model", CLI_DATA, "--name", "S2", "--of-cohomology", "2",
     "--max", "8", "--json"),
    ("minimal-model", CLI_DATA, "--name", "CP3", "--of-cohomology", "6",
     "--max", "9"),
    ("homotopy", CLI_DATA, "--name", "S2", "--ranks", "8", "--brackets", "4",
     "--json"),
    ("homotopy", CLI_DATA, "--name", "X", "--filtration", "1"),
    ("homotopy", CLI_DATA, "--name", "S2", "--hurewicz", "2"),
    ("bch", CLI_DATA, "--name", "X", "1,0,0", "0,1,0"),
    ("invariants", CLI_DATA, "--name", "CP3", "--max", "8", "--toomer",
     "--json"),
    ("invariants", CLI_DATA, "--name", "X", "--max", "3", "--massey", "u",
     "v", "v"),
    ("invariants", CLI_DATA, "--name", "S2", "--max", "6", "--tc",
     "--loop-betti", "8"),
    ("elliptic-check", "--evens", "1,2", "--odds", "3,4"),
    ("loopspace", CLI_DATA, "--name", "S3", "--max", "10", "--json"),
    ("fibration", "pullback", CLI_DATA, "--total", "Hopf", "--base", "a,b",
     "--along", "double"),
    ("config-space", CLI_DATA, "--pd", "S2", "--k", "2", "--max", "11",
     "--json"),
    ("arrangement", CLI_DATA, "--name", "braid3", "--json"),
    ("arrangement", CLI_DATA, "--name", "boolean3"),
    ("catalog", "product(sphere(2),sphere(3))"),
    ("mapping-space", CLI_DATA, "--morphism", "collapse", "--n", "1"),
]


def test_criterion_16_cli_determinism():
    for cmd in CLI_BATTERY:
        outputs = set()
        for _ in range(3):
            proc = subprocess.run([sys.executable, "-m", "rht.cli", *cmd],
                                  capture_output=True)
            assert proc.returncode == 0, (cmd, proc.stderr)
            outputs.add(proc.stdout)
        assert len(outputs) == 1, cmd
    report(16, "all %d CLI commands byte-identical across 3 runs" % len(CLI_BATTERY))
