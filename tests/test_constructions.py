import os
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import rht.algebra
import rht.cdga
import rht.constructions
from rht import dsl
from rht.algebra import (ONE, AlgElement, GeneratorContext, apply_derivation, degree_basis,
                         rebase)
from rht.cdga import (CdgaMorphism, SullivanPresentation, cohomology,
                      cohomology_algebra, validate)
from rht.constructions import (PDAlgebra, SubspaceArrangement, arrangement_complex,
                               biquotient_model, catalog, config_space_model, cp,
                               diagonal_class, free_loop_extension, free_loop_model,
                               holonomy_representation, homogeneous_space_model,
                               mapping_space_pi, point, sphere, tensor_presentations,
                               torus, truncated_poly, wedge_cohomology)
from rht.errors import BudgetExceededError, RhtError, UnsupportedInputError
from rht.linalg import Echelon, RationalMatrix, lincomb, solve_linear
from rht.minimal_model import LambdaExtension, acyclic_closure, minimal_model

from conftest import leibniz_loop, sphere2_model, wedge_two_s2_cohomology


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------

def test_catalog_spheres():
    s3 = catalog("sphere", 3)
    assert list(s3.ctx.degrees) == [3]
    assert s3.d.image_of("u").is_zero()
    s2 = catalog("sphere", 2)
    assert list(s2.ctx.degrees) == [2, 3]
    assert s2.d.image_of("b") == s2.ctx.generator("a") ** 2


def test_catalog_product_kunneth():
    t = catalog("product", sphere(2), sphere(3))
    rep = cohomology(t, 0, 6)
    assert [rep.dim(k) for k in range(6)] == [1, 0, 1, 1, 0, 1]
    assert validate(t).ok


def test_catalog_wedge():
    H = wedge_cohomology(cohomology_algebra(sphere(2), 2),
                         cohomology_algebra(sphere(2), 2))
    assert validate(H).ok
    assert H.dim(2) == 2
    # all positive products vanish
    for i in range(2):
        for j in range(2):
            assert H.product(2, i, 2, j) == {}


def test_catalog_unknown():
    with pytest.raises(UnsupportedInputError):
        catalog("mystery")


def test_catalog_k_z():
    m = catalog("k_z", 4)
    assert list(m.ctx.degrees) == [4]
    assert m.d.image_of("a").is_zero()


def test_truncated_poly_is_valid():
    A = truncated_poly(2, 4)       # Q[x]/x^4, the cohomology of CP3
    assert validate(A).ok
    assert [A.dim(k) for k in (0, 2, 4, 6)] == [1, 1, 1, 1]


@pytest.mark.parametrize("degree, power", [(2, 2), (4, 7), (2, 30)])
def test_truncated_poly_table_matches_the_square_loop(degree, power):
    """The p(p+1)/2 nonzero products, in the order the p x p loop wrote them."""
    want = [(((i * degree, 0), (j * degree, 0)), {0: ONE})
            for i in range(power) for j in range(power) if i + j < power]
    assert list(truncated_poly(degree, power).mul.items()) == want


def test_truncated_poly_budget(monkeypatch):
    with pytest.raises(BudgetExceededError, match="has 200028 nonzero products"):
        truncated_poly(2, 632)      # 632 * 633 / 2 = 200,028 products
    monkeypatch.setattr(rht.algebra, "MONOMIAL_BUDGET", 10)
    assert len(truncated_poly(2, 4).mul) == 10
    with pytest.raises(BudgetExceededError, match="has 15 nonzero products, more than 10"):
        truncated_poly(2, 5)


def test_torus_model():
    t = torus(3)
    rep = cohomology(t, 0, 3)
    assert [rep.dim(k) for k in range(4)] == [1, 3, 3, 1]


# ---------------------------------------------------------------------------
# Homogeneous spaces / biquotients
# ---------------------------------------------------------------------------

def test_homogeneous_trivial_subgroup_gives_group_model():
    m = homogeneous_space_model([3, 5], [], lambda t: [None, None] and
                                [AlgElement.zero(GeneratorContext([("x1", 3), ("x2", 5)])),
                                 AlgElement.zero(GeneratorContext([("x1", 3), ("x2", 5)]))])
    # with H = {e} the model is (Lambda V_G, 0)
    assert sorted(m.ctx.degrees) == [3, 5]
    assert all(m.d.image_of(g).is_zero() for g in m.ctx.names)


def test_homogeneous_su3_mod_su2_is_s5():
    def images(t):
        ctx = t[0].ctx
        return [t[0], AlgElement.zero(ctx)]
    m = homogeneous_space_model([3, 5], [3], images)
    assert validate(m).ok
    rep = cohomology(m, 0, 10)
    assert [rep.dim(k) for k in range(11)] == [1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0]


def test_homogeneous_cp2_from_su3_mod_u2():
    # U(2) in SU(3): H(BU(2)) = Q[c1, c2]; c2 -> c2 - c1^2, c3 -> -c1 c2.
    def images(t):
        c1, c2 = t
        return [c2 - c1 * c1, -(c1 * c2)]
    m = homogeneous_space_model([3, 5], [1, 3], images)
    assert validate(m).ok
    rep = cohomology(m, 0, 6)
    assert [rep.dim(k) for k in range(7)] == [1, 0, 1, 0, 1, 0, 0]
    # multiplicatively a truncated polynomial algebra: h^2 spans H^4
    H = cohomology_algebra(m, 4)
    assert H.product(2, 0, 2, 0) != {}


def test_homogeneous_flag_manifold_su3_mod_torus():
    # SU(3)/T^2: phi sends c2, c3 to the symmetric functions of t1, t2,
    # -(t1 + t2); cohomology is the coinvariant algebra of W(SU(3)).
    def images(t):
        t1, t2 = t
        return [t1 * t2 - (t1 + t2) * (t1 + t2), -(t1 * t2) * (t1 + t2)]
    m = homogeneous_space_model([3, 5], [1, 1], images)
    assert validate(m).ok
    rep = cohomology(m, 0, 8)
    assert [rep.dim(k) for k in range(9)] == [1, 0, 2, 0, 2, 0, 1, 0, 0]
    chi, _ = cohomology(m, 0, 8).euler_characteristic()
    assert chi == 6            # order of the Weyl group


def _homogeneous_oracle(g_degrees, h_degrees, images, name="G/H"):
    """The homogeneous-space builder as it was before it became the
    biquotient with K trivial: its own generators, images and checks."""
    gens = [("t%d" % (i + 1), d + 1) for i, d in enumerate(h_degrees)]
    gens += [("x%d" % (i + 1), d) for i, d in enumerate(g_degrees)]
    ctx = GeneratorContext(gens)
    t_gens = [ctx.generator("t%d" % (i + 1)) for i in range(len(h_degrees))]
    d_imgs = {"t%d" % (i + 1): AlgElement.zero(ctx) for i in range(len(h_degrees))}
    polys = images(t_gens) if callable(images) else list(images)
    assert len(polys) == len(g_degrees)
    for i, poly in enumerate(polys):
        assert poly.is_zero() or poly.degree() == g_degrees[i] + 1
        d_imgs["x%d" % (i + 1)] = rebase(poly, ctx) if poly.ctx != ctx else poly
    return SullivanPresentation(ctx, d_imgs, name=name)


def _same_presentation(m, oracle):
    assert (m.ctx.gens, m.name) == (oracle.ctx.gens, oracle.name)
    for g in oracle.ctx.names:
        img, want = m.d.image_of(g), oracle.d.image_of(g)
        assert img.ctx == want.ctx and list(img.terms.items()) == list(want.terms.items())


def _su3_mod_u2(t):
    c1, c2 = t
    return [c2 - c1 * c1, -(c1 * c2)]


def _su3_mod_torus(t):
    t1, t2 = t
    return [t1 * t2 - (t1 + t2) * (t1 + t2), -(t1 * t2) * (t1 + t2)]


def _trivial_h(_):
    ctx = GeneratorContext([("x1", 3), ("x2", 5)])
    return [AlgElement.zero(ctx)] * 2


@pytest.mark.parametrize("h_degrees, images, name", [
    ([1, 3], _su3_mod_u2, "CP2"), ([1, 1], _su3_mod_torus, "G/H"), ([], _trivial_h, "SU3"),
], ids=["SU3/U2", "SU3/T", "trivial-H"])
def test_homogeneous_space_is_the_biquotient_with_k_trivial(h_degrees, images, name):
    _same_presentation(homogeneous_space_model([3, 5], h_degrees, images, name=name),
                       _homogeneous_oracle([3, 5], h_degrees, images, name=name))


@st.composite
def _homogeneous_inputs(draw):
    odd = st.sampled_from([1, 3, 5, 7])
    g_degrees = draw(st.lists(odd, max_size=3))
    h_degrees = draw(st.lists(st.sampled_from([1, 3]), max_size=3))
    t_gens = [("t%d" % (i + 1), d + 1) for i, d in enumerate(h_degrees)]
    x_gens = [("x%d" % (i + 1), d) for i, d in enumerate(g_degrees)]
    # Images over the s^{-1}V_H generators alone (rebased) or over all of them.
    ctx = GeneratorContext(t_gens + (x_gens if draw(st.booleans()) else []))
    coeff = st.integers(-3, 3)
    polys = [AlgElement(ctx, {mono: draw(coeff) for mono in degree_basis(ctx, d + 1)})
             for d in g_degrees]
    return g_degrees, h_degrees, polys


@settings(max_examples=60, deadline=None)
@given(case=_homogeneous_inputs())
def test_homogeneous_space_matches_its_oracle_on_random_images(case):
    g_degrees, h_degrees, polys = case
    _same_presentation(homogeneous_space_model(g_degrees, h_degrees, lambda t: polys),
                       _homogeneous_oracle(g_degrees, h_degrees, lambda t: polys))


def test_biquotient_reduces_to_homogeneous():
    def bf(t):
        return [t[0], AlgElement.zero(t[0].ctx)]

    def bg(s):
        # K = {e}: no generators, images are zero in the empty context
        ctx = GeneratorContext([("t1", 4), ("x1", 3), ("x2", 5)])
        return [AlgElement.zero(ctx), AlgElement.zero(ctx)]

    m = biquotient_model([3, 5], [3], [], bf, bg)
    rep = cohomology(m, 0, 6)
    assert rep.dim(5) == 1 and rep.dim(2) == 0


def test_biquotient_trivial_groups():
    def nothing(_):
        ctx = GeneratorContext([("x1", 3), ("x2", 7)])
        return [AlgElement.zero(ctx), AlgElement.zero(ctx)]
    m = biquotient_model([3, 7], [], [], nothing, nothing)
    assert sorted(m.ctx.degrees) == [3, 7]
    assert all(m.d.image_of(g).is_zero() for g in m.ctx.names)


def test_biquotient_bg_side_sign():
    # K = T in G = SU(2), H = {e}: dx = -s^2 gives the flag manifold S^2.
    def bf(_):
        ctx = GeneratorContext([("s1", 2), ("x1", 3)])
        return [AlgElement.zero(ctx)]

    def bg(s):
        return [s[0] * s[0]]

    m = biquotient_model([3], [], [1], bf, bg)
    assert validate(m).ok
    assert m.d.image_of("x1") == -(m.ctx.generator("s1") ** 2)
    rep = cohomology(m, 0, 8)
    assert [rep.dim(k) for k in range(9)] == [1, 0, 1, 0, 0, 0, 0, 0, 0]


def test_biquotient_flag_type_is_finite():
    # Maximal-torus data on both sides of SU(2) x SU(2): dx1 = t^2, dx2 = -s^2.
    def bf(t):
        ctx = t[0].ctx
        return [t[0] * t[0], AlgElement.zero(ctx)]

    def bg(s):
        ctx = s[0].ctx
        return [AlgElement.zero(ctx), s[0] * s[0]]

    m = biquotient_model([3, 3], [1], [1], bf, bg)
    assert validate(m).ok
    rep = cohomology(m, 0, 10)
    # flag-manifold-type: H(S^2 x S^2), finite dimensional
    assert [rep.dim(k) for k in (0, 2, 4)] == [1, 2, 1]
    assert all(rep.dim(k) == 0 for k in range(5, 11))


# ---------------------------------------------------------------------------
# Free loop spaces
# ---------------------------------------------------------------------------

def test_free_loop_s3_betti():
    lp = free_loop_model(sphere(3))
    rep = cohomology(lp, 0, 10)
    assert [rep.dim(k) for k in range(11)] == [1, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1]


def test_free_loop_s2_frozen_sign_and_betti():
    lp = free_loop_model(sphere(2))
    a = lp.ctx.generator("a")
    sa = lp.ctx.generator("s_a")
    assert lp.d.image_of("s_b") == (a * sa).scale(-2)
    assert lp.d.image_of("s_a").is_zero()
    # independent brute-force run of the explicit 4-generator model
    ctx = GeneratorContext([("a", 2), ("b", 3), ("p", 1), ("q", 2)])
    A, B, P, Q = (ctx.generator(g) for g in ("a", "b", "p", "q"))
    manual = SullivanPresentation(ctx, {
        "a": AlgElement.zero(ctx), "b": A * A,
        "p": AlgElement.zero(ctx), "q": (A * P).scale(-2)}, name="LS2-manual")
    assert validate(manual).ok
    got = cohomology(lp, 0, 10).dims()
    want = cohomology(manual, 0, 10).dims()
    assert got == want
    assert [got[k] for k in range(11)] == [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1]


def test_free_loop_point():
    lp = free_loop_model(point())
    assert len(lp.ctx) == 0


def test_free_loop_restriction_is_original(s2):
    lp = free_loop_model(s2)
    for g in s2.ctx.names:
        img = lp.d.image_of(g)
        # no s-generators appear: D restricted to V equals d
        for mono in img.terms:
            for i, _ in mono:
                assert not lp.ctx.names[i].startswith("s_")


def test_free_loop_rejects_degree_one():
    with pytest.raises(UnsupportedInputError):
        free_loop_model(torus(1))


def test_free_loop_rejects_an_invalid_differential():
    # da = 0, db = a^2, dc = a b: d^2(c) = a^3, and so D^2(c) on the loop model.
    ctx = GeneratorContext([("a", 2), ("b", 3), ("c", 4)])
    a, b = ctx.generator("a"), ctx.generator("b")
    p = SullivanPresentation(ctx, {"a": AlgElement.zero(ctx), "b": a * a, "c": a * b})
    with pytest.raises(RhtError, match="^free loop differential does not square to zero$"):
        free_loop_model(p)


def test_free_loop_cp2_betti_regression():
    # hand-checked through degree 6; frozen as a regression beyond that
    lp = free_loop_model(cp(2))
    rep = cohomology(lp, 0, 12)
    assert [rep.dim(k) for k in range(13)] == [1] * 13


# ---------------------------------------------------------------------------
# Holonomy
# ---------------------------------------------------------------------------

def test_holonomy_product_extension_is_zero(s2):
    t = tensor_presentations(s2, sphere(3))
    ext = LambdaExtension(t, ["a_1", "b_1"])
    rep = holonomy_representation(ext, 5)
    for i in range(2):
        for k in range(0, 6):
            assert all(col == {} for col in rep.matrix(i, k))


def test_holonomy_nilpotent_example():
    ctx = GeneratorContext([("w", 1), ("x", 2), ("y", 2)])
    w, x = ctx.generator("w"), ctx.generator("x")
    p = SullivanPresentation(ctx, {"w": AlgElement.zero(ctx),
                                   "x": AlgElement.zero(ctx), "y": w * x})
    ext = LambdaExtension(p, ["w"])
    rep = holonomy_representation(ext, 4)
    # theta_w maps [y] to [x] and [x] to 0 at degree 2
    cols = rep.matrix(0, 2)
    nonzero = [c for c in cols if c]
    assert len(nonzero) == 1
    assert list(nonzero[0].values()) == [Fraction(1)] or \
        list(nonzero[0].values()) == [Fraction(-1)]
    assert rep.is_nilpotent(0)


def test_holonomy_acyclic_closure_nilpotent(s2):
    ac = acyclic_closure(s2, 6)
    rep = holonomy_representation(ac.extension, 4)
    for i in range(2):
        assert rep.is_nilpotent(i)
    # theta_a sends [a_bar] to a nonzero multiple of [1]
    cols = rep.matrix(0, 1)
    assert any(c for c in cols)


def parent_holonomy(ext, n):
    """theta_i through the element path holonomy took before it read
    coordinates: lift each fiber representative by generator name, apply d as
    an AlgElement, keep the terms with exactly one base factor, of exponent 1,
    and read the fiber part with `to_coords`."""
    total, ctx = ext.total, ext.total.ctx
    base_idx = [ctx.index[g] for g in ext.base_names]
    fiber = ext.fiber_presentation()
    frep = cohomology(fiber, 0, n + 1)
    matrices = {(w_pos, k): [] for k in range(n + 1) for w_pos in range(len(base_idx))}
    for k in range(n + 1):
        for rep_vec in frep.representatives(k):
            lifted = AlgElement(ctx, {tuple((ctx.index[fiber.ctx.names[j]], e)
                                            for j, e in fiber.basis(k)[i]): c
                                      for i, c in rep_vec.items()})
            parts = {}
            for mono, c in apply_derivation(total.d, lifted).terms.items():
                base_part = [(j, e) for j, e in mono if j in base_idx]
                if len(base_part) == 1 and base_part[0][1] == 1:
                    fib = tuple((fiber.ctx.index[ctx.names[j]], e)
                                for j, e in mono if j not in base_idx)
                    parts.setdefault(base_part[0][0], {})[fib] = c
            for w_pos, w in enumerate(base_idx):
                psi = AlgElement(fiber.ctx, parts.get(w, {}))
                if psi.is_zero():
                    matrices[(w_pos, k)].append({})
                    continue
                coords = fiber.to_coords(psi, psi.degree())
                assert frep.is_cocycle(psi.degree(), coords)
                matrices[(w_pos, k)].append(frep.class_coordinates(psi.degree(), coords))
    return matrices


def two_base_factor_extension(base=("u", "v")):
    """Base u, v of degree 1; dy = u x + u v z puts a second base factor beside u."""
    ctx = GeneratorContext([("u", 1), ("v", 1), ("z", 1), ("x", 2), ("y", 2)])
    u, v, z, x = (ctx.generator(g) for g in "uvzx")
    zero = AlgElement.zero(ctx)
    p = SullivanPresentation(ctx, {"u": zero, "v": zero, "z": zero, "x": zero,
                                   "y": u * x + u * v * z})
    return LambdaExtension(p, list(base), name="two-base")


def dy_wx_extension():
    ctx = GeneratorContext([("w", 1), ("x", 2), ("y", 2)])
    w, x = ctx.generator("w"), ctx.generator("x")
    zero = AlgElement.zero(ctx)
    return LambdaExtension(SullivanPresentation(ctx, {"w": zero, "x": zero, "y": w * x}), ["w"])


def two_term_rep_extension():
    """da = u + w c, db = -u + w e: the fiber class [a + b] has two terms, and
    d(a + b) = w e + w c reaches its W-linear part out of monomial order."""
    ctx = GeneratorContext([("w", 1), ("c", 2), ("e", 2), ("u", 3), ("a", 2), ("b", 2)])
    w, c, e, u = (ctx.generator(g) for g in "wceu")
    zero = AlgElement.zero(ctx)
    return LambdaExtension(SullivanPresentation(ctx, {"w": zero, "c": zero, "e": zero, "u": zero,
                                                      "a": u + w * c, "b": -u + w * e}), ["w"])


@pytest.mark.parametrize("make, n", [
    (lambda: free_loop_extension(sphere(2)), 6),
    (lambda: free_loop_extension(cp(2)), 6),
    (lambda: free_loop_extension(sphere(3)), 6),
    (lambda: acyclic_closure(sphere2_model(), 6).extension, 5),
    (lambda: acyclic_closure(cp(2), 8).extension, 6),
    (lambda: LambdaExtension(tensor_presentations(sphere2_model(), sphere(3)), ["b_1", "a_1"]), 5),
    (dy_wx_extension, 4),
    (two_term_rep_extension, 4),
    (two_base_factor_extension, 4),
    (lambda: two_base_factor_extension(("v", "u")), 4),
], ids=["LS2", "LCP2", "LS3", "closure-S2", "closure-CP2", "S2xS3-b-first", "dy=wx",
        "two-term-rep", "two-base", "two-base-v-first"])
def test_holonomy_matches_the_element_path(make, n, monkeypatch):
    # Coordinates in, coordinates out: the matrices and every class read on
    # the way (its degree, coordinates, their types and key order) are those
    # of the element path, on extensions whose d has W-linear terms, w^2
    # terms (the closure of CP2: d b_bar = b - a^2 a_bar) and a second base
    # factor, and on bases listed out of context order.
    ext = make()
    calls = []
    record = rht.cdga.CohomologyReport.class_coordinates

    def recording(self, k, coords):
        calls.append((k, [(i, type(c), c) for i, c in coords.items()]))
        return record(self, k, coords)
    monkeypatch.setattr(rht.cdga.CohomologyReport, "class_coordinates", recording)
    want = parent_holonomy(ext, n)
    expected_calls, calls[:] = calls[:], []
    report = holonomy_representation(ext, n)
    assert calls == expected_calls
    assert report.base_labels == ext.base_names
    assert list(report.matrices) == list(want)
    assert [[[(i, type(c), c) for i, c in col.items()] for col in cols]
            for cols in report.matrices.values()] == \
        [[[(i, type(c), c) for i, c in col.items()] for col in cols] for cols in want.values()]


# ---------------------------------------------------------------------------
# Mapping spaces
# ---------------------------------------------------------------------------

def test_mapping_space_constant_s2_to_s3():
    Y = sphere(3)
    X = sphere(2)
    phi = CdgaMorphism(Y, X, {"u": AlgElement.zero(X.ctx)})
    dims = {n: mapping_space_pi(phi, n).dim for n in range(1, 5)}
    # oracle: sum_q Hom(pi_q(Y), H_{q-n}(X)) = H_{3-n}(S^2)
    assert dims == {1: 1, 2: 0, 3: 1, 4: 0}


def test_mapping_space_identity_s3():
    Y = sphere(3)
    phi = CdgaMorphism(Y, Y, {"u": Y.ctx.generator("u")})
    assert mapping_space_pi(phi, 3).dim == 1
    assert mapping_space_pi(phi, 1).dim == 0
    assert mapping_space_pi(phi, 2).dim == 0


def test_mapping_space_y_point():
    # Y = point: the source model has no generators, so Der = 0.
    pt = point()
    X = sphere(2)
    phi = CdgaMorphism(pt, X, {})
    for n in range(1, 4):
        assert mapping_space_pi(phi, n).dim == 0


def reference_d_matrix(phi, m):
    """D: Der_m -> Der_{m-1} of the phi-derivation complex, built generically:
    theta(x) expands every monomial of x into its factors and multiplies
    AlgElements phi(f_1) ... theta(f_i) ... phi(f_r) one factor at a time.
    Returns (columns, dim Der_{m-1})."""
    V, W = phi.source, phi.target

    def der_basis(k):
        return [(g, V.ctx.degree_of(g) - k, i) for g in V.ctx.names
                if V.ctx.degree_of(g) >= k for i in range(W.dim(V.ctx.degree_of(g) - k))]

    def theta_apply(assign, x):
        terms = []
        for mono, coeff in x.terms.items():
            factors = [gi for gi, e in mono for _ in range(e)]
            for pos, f in enumerate(factors):
                img = assign.get(V.ctx.names[f])
                if img is None:
                    continue
                prefix_deg = sum(V.ctx.degrees[h] for h in factors[:pos])
                term = AlgElement.unit(W.ctx, -coeff if m % 2 and prefix_deg % 2 else coeff)
                for h in factors[:pos]:
                    term = term * phi.apply_element(V.ctx.generator(V.ctx.names[h]))
                term = term * img
                for h in factors[pos + 1:]:
                    term = term * phi.apply_element(V.ctx.generator(V.ctx.names[h]))
                terms.append((1, term.terms))
        return AlgElement(W.ctx, lincomb(terms))

    tgt = der_basis(m - 1)
    tgt_pos = {(g, i): pos for pos, (g, _, i) in enumerate(tgt)}
    cols = []
    for g, wdeg, i in der_basis(m):
        base = W.from_coords(wdeg, {i: ONE})
        dw = leibniz_loop(W.d, base)
        rows = [(1, {tgt_pos[(g, W.index(wdeg + 1)[mono])]: c for mono, c in dw.terms.items()})]
        for v in V.ctx.names:
            val = theta_apply({g: base}, V.d.image_of(v))
            if not val.is_zero():
                index = W.index(val.degree())
                rows.append((1 if m % 2 else -1,
                             {tgt_pos[(v, index[mono])]: c for mono, c in val.terms.items()}))
        cols.append(lincomb(rows))
    return cols, len(tgt)


def _morphism(source, target, images):
    return CdgaMorphism(source, target, {g: target.ctx.generator(x).scale(c) if x else
                                         AlgElement.zero(target.ctx)
                                         for g, (c, x) in images.items()})


def _mapping_space_morphisms():
    with open(os.path.join(os.path.dirname(__file__), "data", "catalog.rht"),
              encoding="utf-8") as fh:
        doc = dsl.parse(fh.read())
    s2, c2, t3, s2s3 = sphere(2), cp(2), torus(3), tensor_presentations(sphere(2), sphere(3))
    wedge = minimal_model(wedge_two_s2_cohomology(), 5).model
    t1, t2, v = t3.generator("t1"), t3.generator("t2"), wedge.generator("v2_0")
    return [
        ("double", doc.morphisms["double"]),
        ("collapse", doc.morphisms["collapse"]),
        ("id S2", _morphism(s2, s2, {"a": (1, "a"), "b": (1, "b")})),
        ("3 on S2", _morphism(s2, s2, {"a": (3, "a"), "b": (9, "b")})),
        ("id CP2", _morphism(c2, c2, {"x": (1, "x"), "y": (1, "y")})),
        ("2 on CP2", _morphism(c2, c2, {"x": (2, "x"), "y": (8, "y")})),
        ("id T3", _morphism(t3, t3, {"t1": (1, "t1"), "t2": (1, "t2"), "t3": (1, "t3")})),
        ("scaling T3", _morphism(t3, t3, {"t1": (2, "t1"), "t2": (-1, "t2"),
                                          "t3": (Fraction(1, 2), "t3")})),
        ("id S2xS3", _morphism(s2s3, s2s3, {"a_1": (1, "a_1"), "b_1": (1, "b_1"),
                                            "u_2": (1, "u_2")})),
        ("S2 -> S2xS3", _morphism(s2s3, s2, {"a_1": (1, "a"), "b_1": (1, "b"),
                                             "u_2": (0, None)})),
        ("S2xS3 -> S2", _morphism(s2, s2s3, {"a": (1, "a_1"), "b": (1, "b_1")})),
        # Targets with more in low degrees, where theta d has many terms.
        ("id X", _morphism(doc.presentations["X"], doc.presentations["X"],
                           {"u": (1, "u"), "v": (1, "v"), "w": (1, "w")})),
        ("T3 -> S2", CdgaMorphism(s2, t3, {"a": t1 * t2, "b": t1 * t2 * t3.generator("t3")})),
        ("M(S2vS2) -> CP2", CdgaMorphism(c2, wedge, {"x": v, "y": v * wedge.generator("w3_2")})),
        ("id M(S2vS2)", _morphism(wedge, wedge, {g: (1, g) for g in wedge.ctx.names})),
    ]


MAPPING_SPACE_MORPHISMS = _mapping_space_morphisms()


@pytest.mark.parametrize("name, phi", MAPPING_SPACE_MORPHISMS,
                         ids=[name for name, _ in MAPPING_SPACE_MORPHISMS])
def test_mapping_space_d_matrices_match_the_generic_theta(name, phi, monkeypatch):
    # The D matrices `mapping_space_pi` reads equal the ones the generic
    # theta(x) extension gives, for n = 1..6: D_n and the dimension of its
    # target through the matrix it solves, and D_(n+1) through the columns it
    # ranks in an Echelon, every nonzero one in order (a 0 column is skipped).
    seen = []

    def recording_matrix(rows, columns):
        seen.append((columns, rows, []))
        return RationalMatrix(rows, columns)

    class RecordingEchelon(Echelon):
        def add(self, vec):
            seen[-1][2].append(dict(vec))
            return super().add(vec)

    monkeypatch.setattr(rht.constructions, "RationalMatrix", recording_matrix)
    monkeypatch.setattr(rht.constructions, "Echelon", RecordingEchelon)
    assert phi.validate().ok
    reference = {m: reference_d_matrix(phi, m) for m in range(1, 8)}
    for n in range(1, 7):
        mapping_space_pi(phi, n)
        (cols_n, dim_n1), (cols_n1, _) = reference[n], reference[n + 1]
        assert seen == [(cols_n, dim_n1, [col for col in cols_n1 if col])]
        seen.clear()


def slice_homology_count(d_out, out_dim, d_in):
    """dim H at one degree as `linalg.slice_homology` counted it: the kernel
    vectors j of d_out whose unit e_j lies outside the span of the boundaries
    d_in, restricted to the free columns, and of e_0 .. e_(j-1)."""
    kernel = solve_linear(RationalMatrix(out_dim, d_out)).kernel
    free = {max(vec): -j for j, vec in enumerate(kernel)}
    echelon = Echelon()
    for vec in filter(None, ({free[c]: v for c, v in col.items() if c in free} for col in d_in)):
        echelon.add(vec)
    return sum(1 for j in range(len(kernel)) if -j not in echelon.position)


@pytest.mark.parametrize("name, phi", MAPPING_SPACE_MORPHISMS,
                         ids=[name for name, _ in MAPPING_SPACE_MORPHISMS])
def test_mapping_space_rank_nullity_matches_the_slice_homology_count(name, phi):
    # nullity D_n - rank D_(n+1) is the count the cocycles-modulo-boundaries
    # copy gave, on the generic theta's D matrices, for n = 1..6.
    reference = {m: reference_d_matrix(phi, m) for m in range(1, 8)}
    for n in range(1, 7):
        (cols_n, dim_n1), (cols_n1, _) = reference[n], reference[n + 1]
        assert mapping_space_pi(phi, n).dim == slice_homology_count(cols_n, dim_n1, cols_n1)


# ---------------------------------------------------------------------------
# PD algebras, diagonal classes, configuration spaces
# ---------------------------------------------------------------------------

def test_diagonal_class_s2(s2):
    A = PDAlgebra(cohomology_algebra(s2, 2), 2)
    _, coords, terms = diagonal_class(A)
    # 1 (x) a + a (x) 1 with positive signs
    signs = sorted((c, p, q) for c, p, q in terms)
    assert [(c, p[0], q[0]) for c, p, q in terms] == [(1, 0, 2), (1, 2, 0)]


def test_diagonal_class_s3():
    A = PDAlgebra(cohomology_algebra(sphere(3), 3), 3)
    _, _, terms = diagonal_class(A)
    assert [(c, p[0], q[0]) for c, p, q in terms] == [(1, 0, 3), (-1, 3, 0)]


def test_diagonal_class_point():
    q = cohomology_algebra(point(), 0)
    A = PDAlgebra(q, 0)
    _, coords, terms = diagonal_class(A)
    assert [(c, p[0], q_[0]) for c, p, q_ in terms] == [(1, 0, 0)]


@pytest.mark.parametrize("make, m, eps", [(lambda: torus(4), 4, None),
                                          (lambda: tensor_presentations(cp(2), sphere(2)), 6,
                                           {0: Fraction(-2, 3)})],
                         ids=["T4", "CP2xS2-eps"])
def test_dual_basis_pairs_to_delta(make, m, eps):
    H = cohomology_algebra(make(), m)
    A = PDAlgebra(H, m, eps=eps)
    assert max(H.dim(p) for p in H.degrees()) > 1
    for p in H.degrees():
        duals = A.dual_basis(p)
        assert len(duals) == H.dim(p)
        for i in range(H.dim(p)):
            for j, dual in enumerate(duals):
                pairing = A.eps_of(H.multiply_coords(p, {i: Fraction(1)}, m - p, dual))
                assert pairing == (1 if i == j else 0)


def test_config_space_k1_returns_a(s2):
    A = PDAlgebra(cohomology_algebra(s2, 2), 2)
    assert config_space_model(A, 1) is A.cdga


def test_config_space_s2_k2(s2):
    A = PDAlgebra(cohomology_algebra(s2, 2), 2)
    model = config_space_model(A, 2)
    rep = validate(model.quotient)
    assert rep.ok, rep.violations
    chi, exact = cohomology(model.quotient, 0, 11).euler_characteristic()
    assert chi == 2 and exact          # chi(F(M,2)) = chi(chi - 1) = 2
    h = cohomology(model.quotient, 0, 8)
    assert h.dim(0) == 1 and h.dim(2) == 1
    assert all(h.dim(k) == 0 for k in (1, 3, 4, 5, 6, 7, 8))
    # d x_12 = p_12(D_A) modulo nothing: check on the nose in the ambient
    amb = model.quotient.ambient
    dx = amb.d.image_of("x12")
    g1 = amb.ctx.generator("g1_h2_0")
    g2 = amb.ctx.generator("g2_h2_0")
    assert dx == g1 + g2


def test_config_space_s3_k2():
    A = PDAlgebra(cohomology_algebra(sphere(3), 3), 3)
    model = config_space_model(A, 2)
    assert validate(model.quotient).ok
    h = cohomology(model.quotient, 0, 9)
    # F(S^3, 2) ~ S^3: Fadell-Neuwirth fibration with contractible fibre
    assert [h.dim(k) for k in range(10)] == [1, 0, 0, 1, 0, 0, 0, 0, 0, 0]
    chi, exact = cohomology(model.quotient, 0, 13).euler_characteristic()
    assert chi == 0 and exact


def test_config_space_arnold_relation_in_quotient():
    A = PDAlgebra(cohomology_algebra(sphere(2), 2), 2)
    model = config_space_model(A, 3)
    quot = model.quotient
    assert validate(quot).ok
    cx = quot
    ctx = quot.ambient.ctx
    m = A.m
    x12 = ctx.generator("x12")
    x13 = ctx.generator("x13")
    x23 = ctx.generator("x23")
    # cyclic Arnold relation with x31 = (-1)^m x13
    arnold = x12 * x23 + (x23 * x13).scale((-1) ** m) + (x13 * x12).scale((-1) ** m)
    if arnold.is_zero():
        return
    amb = quot.ambient
    deg = arnold.degree()
    assert cx.project(deg, amb.to_coords(arnold, deg)) == {}


def test_config_space_s2_k2_minimal_model_is_sphere():
    # End to end through the quotient machinery: F(H(S^2), 2) is rationally
    # S^2, and the model construction recovers Lambda(a_2, b_3), db = a^2.
    from rht.cdga import is_quasi_iso
    from rht.minimal_model import minimal_model
    A = PDAlgebra(cohomology_algebra(sphere(2), 2), 2)
    model = config_space_model(A, 2)
    mm = minimal_model(model.quotient, 8)
    assert sorted(mm.model.ctx.degrees) == [2, 3]
    v = mm.model.ctx.generator(mm.model.ctx.names[0])
    dw = mm.model.d.image_of(mm.model.ctx.names[1])
    assert dw == v * v or dw == -(v * v)
    ok, _ = is_quasi_iso(mm.phi, 8)
    assert ok


def test_config_space_k_bound():
    A = PDAlgebra(cohomology_algebra(sphere(2), 2), 2)
    with pytest.raises(BudgetExceededError):
        config_space_model(A, 4)


def test_config_space_s4_k2_even_sign_branch():
    # m = 4: deg x_12 = 3 is odd, so x^2 vanishes automatically and the
    # symmetry sign is +; chi(F(S^4, 2)) = 2 * (2 - 1) = 2.
    A = PDAlgebra(cohomology_algebra(sphere(4), 4), 4)
    model = config_space_model(A, 2)
    assert validate(model.quotient).ok
    chi, exact = cohomology(model.quotient, 0, 23).euler_characteristic()
    assert chi == 2 and exact


def test_config_space_s2_k3_euler():
    # chi(F(M,3)) = chi (chi - 1)(chi - 2) = 0 for M = S^2.
    A = PDAlgebra(cohomology_algebra(sphere(2), 2), 2)
    model = config_space_model(A, 3)
    assert validate(model.quotient).ok
    chi, exact = cohomology(model.quotient, 0, 15).euler_characteristic()
    assert chi == 0 and exact


# ---------------------------------------------------------------------------
# Arrangements
# ---------------------------------------------------------------------------

def boolean_arrangement(n):
    subs = []
    for i in range(n):
        row = [0] * n
        row[i] = 1
        subs.append([row])
    return SubspaceArrangement(n, subs, name="boolean%d" % n)


def braid3():
    return SubspaceArrangement(3, [[[1, -1, 0]], [[1, 0, -1]], [[0, 1, -1]]],
                               name="braid3")


def test_boolean_arrangement_torus_cohomology():
    D = arrangement_complex(boolean_arrangement(3))
    assert validate(D).ok
    rep = cohomology(D, 0, 4)
    assert [rep.dim(k) for k in range(4)] == [1, 3, 3, 1]
    # general position: differential vanishes identically
    assert not D.diff


def test_braid_arrangement_poincare_polynomial():
    D = arrangement_complex(braid3())
    assert validate(D).ok
    rep = cohomology(D, 0, 3)
    # (1 + t)(1 + 2t) = 1 + 3t + 2t^2
    assert [rep.dim(k) for k in range(4)] == [1, 3, 2, 0]


def test_empty_arrangement_is_q():
    D = arrangement_complex(SubspaceArrangement(2, [], name="empty"))
    assert sum(map(len, D.basis.values())) == 1
    rep = cohomology(D, 0, 2)
    assert rep.dim(0) == 1


def test_general_position_hyperplanes_have_zero_differential():
    # At most n independent hyperplanes in C^n: every subset drops rank when
    # an element is removed, so d = 0 and the dims are binomial.
    import math as _math
    arr = SubspaceArrangement(4, [[[1, 0, 0, 0]], [[1, 2, 0, 0]], [[3, 1, 1, 0]]],
                              name="generic3in4")
    D = arrangement_complex(arr)
    assert not D.diff
    dims = {}
    for k, labels in D.basis.items():
        dims[k] = len(labels)
    assert dims == {k: _math.comb(3, k) for k in range(4)}
    rep = cohomology(D, 0, 3)
    assert [rep.dim(k) for k in range(4)] == [1, 3, 3, 1]


def test_intersection_lattice_closed():
    arr = braid3()
    lattice = arr.intersection_lattice()
    codims = sorted(c for c, _ in lattice)
    assert codims == [0, 1, 1, 1, 2]   # whole space, three planes, the line


def random_arrangement(rng, max_subspaces=5, dim=3):
    subs = []
    for _ in range(rng.randint(1, max_subspaces)):
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


def test_pencil_of_five_lines_negative_degrees():
    # Five concurrent lines in C^2: the full subset sits in degree
    # 2*2 - 5 = -1, yet the complex is a valid cdga and its cohomology is
    # the Orlik-Solomon algebra with Poincare polynomial (1+t)(1+4t).
    lines = [[[1, 0]], [[0, 1]], [[1, -1]], [[1, 1]], [[1, 2]]]
    D = arrangement_complex(SubspaceArrangement(2, lines, name="pencil5"))
    assert min(D.basis) == -1
    assert validate(D).ok
    rep = cohomology(D, 0, 3)
    assert [rep.dim(k) for k in range(0, 4)] == [1, 5, 4, 0]
    assert rep.dim(-1) == 0


def test_random_arrangements_give_valid_cdgas():
    rng = random.Random(2024)
    done = 0
    while done < 12:
        try:
            arr = random_arrangement(rng)
        except Exception:
            continue
        D = arrangement_complex(arr)
        rep = validate(D)
        assert rep.ok, rep.violations
        done += 1


def window_gap_certified(quot, lo, hi):
    """The quotient certificate as it read only the cochain dims in [lo, hi]:
    a finite ambient with top <= hi, or dims 0 on a full gap [t, 2t-1]."""
    top = quot.ambient.top_degree()
    if top is not None and top <= hi:
        return True
    checked = {k: quot.dim(k) for k in range(lo, hi + 1)}
    maxgen = max(quot.ambient.ctx.degrees, default=0)
    for t in range(maxgen + 1, hi + 1):
        if 2 * t - 1 > hi:
            break
        if all(checked.get(j) == 0 for j in range(t, 2 * t)):
            return True
    return False


def test_quotient_certificate_matches_window_gap_argument():
    # F(S^2,2) ~ S^2, F(S^3,2) ~ S^3, F(S^2,3) ~_Q S^3 and F(S^4,2) ~ S^4.
    cases = [(2, 2, 2), (3, 2, 3), (2, 3, 3), (4, 2, 4)]
    verdicts = set()
    for m, k, betti_top in cases:
        quot = config_space_model(PDAlgebra(cohomology_algebra(sphere(m), m), m), k).quotient
        for lo in (0, 1, 3, 5):
            for hi in range(lo, 16):
                rep = cohomology(quot, lo, hi)
                want = window_gap_certified(quot, lo, hi)
                assert rep.certified_above() == want, (m, k, lo, hi)
                verdicts.add(want)
                assert rep.dims() == {j: int(j in (0, betti_top)) for j in range(lo, hi + 1)}
    assert verdicts == {True, False}
