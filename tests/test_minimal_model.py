import hashlib
import json
import math
import os
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rht.algebra import (AlgElement, Derivation, GeneratorContext, ONE, degree_basis,
                         substitute)
from rht.cdga import (CdgaMorphism, FiniteCDGA, SullivanPresentation, cohomology,
                      cohomology_algebra, is_quasi_iso, validate)
from rht.constructions import sphere, cp, free_loop_extension, tensor_presentations
from rht.errors import DegreeError, UnsupportedInputError
from rht.homotopy_lie import lie_table, quadratic_part
from rht.dsl import minimal_model_json, serialize_presentation, to_json_text
from rht.linalg import Echelon, lincomb, solve_linear
from rht.minimal_model import (AcyclicClosure, LambdaExtension, acyclic_closure,
                               is_minimal, is_sullivan, minimal_model,
                               primitives, pushout_extension)

from conftest import nonformal_uvw, sphere2_model, wedge_two_s2_cohomology


def contractible():
    ctx = GeneratorContext([("x", 2), ("y", 3)])
    return SullivanPresentation(ctx, {"x": ctx.generator("y"),
                                      "y": AlgElement.zero(ctx)}, name="contractible")


def test_is_minimal_examples(s2):
    assert is_minimal(s2)
    assert not is_minimal(contractible())
    u = GeneratorContext([("u", 3)])
    assert is_minimal(SullivanPresentation(u, {"u": AlgElement.zero(u)}))


def test_is_sullivan_examples(s2, uvw):
    assert is_sullivan(s2).ok
    cert = is_sullivan(uvw)
    assert cert.ok
    assert cert.stages[0] == ["u", "v"] and cert.stages[1] == ["w"]
    # self-referential degree-1 differential: stuck
    ctx = GeneratorContext([("x", 1), ("y", 1)])
    x, y = ctx.generator("x"), ctx.generator("y")
    p = SullivanPresentation(ctx, {"x": x * y, "y": AlgElement.zero(ctx)})
    cert = is_sullivan(p)
    assert not cert.ok and "x" in cert.stuck


def test_minimal_model_of_h_s2(s2):
    H = cohomology_algebra(s2, 2)
    mm = minimal_model(H, 8)
    degs = sorted(mm.model.ctx.degrees)
    assert degs == [2, 3]
    gen2 = [g for g, d in mm.model.ctx.gens if d == 2][0]
    gen3 = [g for g, d in mm.model.ctx.gens if d == 3][0]
    a = mm.model.ctx.generator(gen2)
    assert mm.model.d.image_of(gen3) == a * a or \
        mm.model.d.image_of(gen3) == -(a * a)
    assert is_minimal(mm.model) and is_sullivan(mm.model).ok
    ok, _ = is_quasi_iso(mm.phi, 8)
    assert ok


@pytest.mark.parametrize("n", [3, 5, 7])
def test_minimal_model_of_odd_spheres(n):
    H = cohomology_algebra(sphere(n), n)
    mm = minimal_model(H, 2 * n + 1)
    assert list(mm.model.ctx.degrees) == [n]
    assert mm.model.d.image_of(mm.model.ctx.names[0]).is_zero()
    ok, _ = is_quasi_iso(mm.phi, 2 * n + 1)
    assert ok


def test_minimal_model_of_h_cp3():
    from rht.constructions import truncated_poly
    # the catalog truncated polynomial algebra Q[x]/x^4 is the same input
    H_cat = truncated_poly(2, 4)
    mm_cat = minimal_model(H_cat, 9)
    assert sorted(mm_cat.model.ctx.degrees) == [2, 7]
    H = cohomology_algebra(cp(3), 6)
    mm = minimal_model(H, 9)
    assert sorted(mm.model.ctx.degrees) == [2, 7]
    x = mm.model.ctx.generator([g for g, d in mm.model.ctx.gens if d == 2][0])
    yname = [g for g, d in mm.model.ctx.gens if d == 7][0]
    dy = mm.model.d.image_of(yname)
    assert dy == x ** 4 or dy == -(x ** 4)
    ok, _ = is_quasi_iso(mm.phi, 9)
    assert ok


def pbw_inverted_dims(h_loop_dims, n):
    """Oracle: dims l_k with prod (1 +- t^k)^{+-l_k} = sum h_k t^k, solved greedily."""
    cur = [1] + [0] * n
    l = {}

    def mul(a, b):
        out = [0] * (n + 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj and i + j <= n:
                        out[i + j] += ai * bj
        return out

    for k in range(1, n + 1):
        need = h_loop_dims[k] - cur[k]
        l[k] = need
        factor = [0] * (n + 1)
        if k % 2 == 1:
            for m in range(0, n // k + 1):
                if m <= need:
                    factor[k * m] = math.comb(need, m)
        else:       # (1 - t^k)^(-need); its m = 0 factor is 1, also when need = 0
            for m in range(0, n // k + 1):
                factor[k * m] = math.comb(need + m - 1, m) if m else 1
        cur = mul(cur, factor)
    return l


def test_minimal_model_wedge_ranks_match_pbw_oracle():
    H = wedge_two_s2_cohomology()
    assert validate(H).ok
    mm = minimal_model(H, 8)
    ok, _ = is_quasi_iso(mm.phi, 8)
    assert ok
    # Loop homology of a wedge of two 2-spheres is the tensor algebra on two
    # degree-1 classes: dims 2^k.  PBW-invert and compare generator counts.
    oracle = pbw_inverted_dims([2 ** k for k in range(9)], 8)
    ranks = mm.ranks()
    for k in range(2, 9):
        assert ranks[k] == oracle[k - 1]


def wedge_of_spheres(dims):
    """H(S^n1 v ... v S^nr) as a FiniteCDGA: the unit and one class per sphere,
    every product of two classes zero."""
    basis = {0: ["1"]}
    for j, n in enumerate(dims):
        basis.setdefault(n, []).append("e%d" % j)
    mul = {}
    for k, labels in basis.items():
        for i in range(len(labels)):
            mul[((0, 0), (k, i))] = mul[((k, i), (0, 0))] = {i: 1}
    return FiniteCDGA(basis, {}, mul, name="v".join("S%d" % n for n in dims))


def assert_wedge_matches_pbw(dims, n):
    """M(H(S^n1 v ... v S^nr)) to degree n against the PBW inversion.

    H_*(Omega X) of a wedge of spheres is the tensor algebra on classes of
    degrees n_i - 1 (Bott-Samelson), series 1 / (1 - sum t^(n_i - 1)), and
    U(L_X) (Milnor-Moore): PBW inversion gives dim L_k = rank V^(k+1).
    Mixed parities and gaps give generator chains S2 v S2 never builds.
    """
    loop = [1] + [0] * n
    for k in range(1, n + 1):
        loop[k] = sum(loop[k - d + 1] for d in dims if d - 1 <= k)
    oracle = pbw_inverted_dims(loop, n - 1)
    mm = minimal_model(wedge_of_spheres(dims), n)
    assert mm.ranks() == {k: oracle[k - 1] for k in range(2, n + 1)}
    assert is_quasi_iso(mm.phi, n)[0]
    # Both paths to L: mm.model carries no d^2 = 0 record, so lie_table checks
    # Jacobi on it; quadratic_part's d_1 carries a passing one, so it does not.
    want = {k: l for k, l in oracle.items() if l}
    assert mm.model.validation is None
    assert lie_table(mm.model, n - 1).dims() == want
    assert lie_table(quadratic_part(mm.model), n - 1).dims() == want


@pytest.mark.parametrize("dims, n", [([2, 3], 14), ([3, 3], 14), ([2, 2, 3], 10), ([4, 5, 6], 16)],
                         ids=["S2vS3", "S3vS3", "S2vS2vS3", "S4vS5vS6"])
def test_wedge_of_spheres_ranks_match_pbw_oracle(dims, n):
    assert_wedge_matches_pbw(dims, n)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(2, 6), min_size=1, max_size=3))
def test_random_wedges_of_spheres_match_pbw_oracle(dims):
    # Degree 9: the largest draw, S2 v S2 v S2 (1,329 generators), takes about
    # 0.7 s, and the 30 draws about 0.3-1.3 s in all.
    assert_wedge_matches_pbw(dims, 9)

def test_minimal_model_of_kunneth_input():
    # H(S2 x S4) fed as a finite cdga: ranks are the sums of the factors'.
    from rht.constructions import tensor_presentations, sphere
    H = cohomology_algebra(tensor_presentations(sphere(2), sphere(4)), 6)
    mm = minimal_model(H, 8)
    assert mm.ranks() == {2: 1, 3: 1, 4: 1, 5: 0, 6: 0, 7: 1, 8: 0}
    ok, _ = is_quasi_iso(mm.phi, 8)
    assert ok


# minimal_model_json of the CP^2 model, recorded when the solver still had a
# pivot-policy option; the solver's answers are canonical, so it must not move.
FROZEN_CP2_MODEL = {
    "certified_degree": 8,
    "kind": "minimal_model",
    "model": {
        "differential": {"v2_0": "0", "w5_0": "v2_0^3"},
        "generators": [{"degree": 2, "name": "v2_0"}, {"degree": 5, "name": "w5_0"}],
        "kind": "cdga",
        "name": "M(H(CP2))",
        "schema": "rht/1",
    },
    "phi": {"v2_0": {"0": "1"}, "w5_0": {}},
    "provenance": {"v2_0": {"kind": "cocycle", "stage": 2},
                   "w5_0": {"kind": "kernel", "stage": 5}},
    "ranks": {"2": 1, "3": 0, "4": 0, "5": 1, "6": 0, "7": 0, "8": 0},
    "schema": "rht/1",
}


def test_cp2_model_matches_frozen_output():
    mm = minimal_model(cohomology_algebra(cp(2), 4), 8)
    assert minimal_model_json(mm) == FROZEN_CP2_MODEL
    ok, _ = is_quasi_iso(mm.phi, 8)
    assert ok


FROZEN_WEDGE_MODEL = os.path.join(os.path.dirname(__file__), "data",
                                  "wedge_s2_model_10.json")


def test_wedge_model_matches_frozen_output():
    # minimal_model_json text of M(H(S2 v S2)) to degree 10 (131 generators),
    # recorded before the per-stage batching and windowed cohomology.
    mm = minimal_model(wedge_two_s2_cohomology(), 10)
    with open(FROZEN_WEDGE_MODEL, encoding="utf-8") as fh:
        frozen = fh.read()
    assert to_json_text(minimal_model_json(mm)) == frozen
    ok, _ = is_quasi_iso(mm.phi, 10)
    assert ok


def test_tensor_with_contractible_is_sullivan_not_minimal(s2):
    from rht.constructions import tensor_presentations
    t = tensor_presentations(s2, contractible())
    assert validate(t).ok
    assert is_sullivan(t).ok
    assert not is_minimal(t)


def test_minimal_model_rejects_h1():
    ctx = GeneratorContext([("u", 1)])
    circle = SullivanPresentation(ctx, {"u": AlgElement.zero(ctx)})
    with pytest.raises(UnsupportedInputError):
        minimal_model(circle, 4)


def test_minimal_model_of_contractible_presentation():
    mm = minimal_model(contractible(), 6)
    assert len(mm.model.ctx) == 0


def test_minimal_model_of_non_minimal_presentation(s2):
    # S2 (x) contractible is Sullivan but not minimal; its minimal model is
    # the S2 model again.
    from rht.constructions import tensor_presentations
    t = tensor_presentations(s2, contractible())
    assert not is_minimal(t)
    mm = minimal_model(t, 8)
    assert sorted(mm.model.ctx.degrees) == [2, 3]
    ok, _ = is_quasi_iso(mm.phi, 8)
    assert ok


# ---------------------------------------------------------------------------
# Lambda-extensions
# ---------------------------------------------------------------------------

def elementary_fibration_over_s2():
    """Principal K(Z,2)-style extension over the S2 model: dz = a."""
    ctx = GeneratorContext([("a", 2), ("b", 3), ("z", 1)])
    a = ctx.generator("a")
    p = SullivanPresentation(ctx, {"a": AlgElement.zero(ctx), "b": a * a, "z": a},
                             name="hopf")
    return LambdaExtension(p, ["a", "b"], name="hopf")


def test_fiber_model_of_trivial_extension(s2):
    from rht.constructions import tensor_presentations
    other = sphere(3)
    t = tensor_presentations(s2, other)
    ext = LambdaExtension(t, ["a_1", "b_1"])
    fib = ext.fiber_presentation()
    assert [d for d in fib.ctx.degrees] == [3]
    assert fib.d.image_of("u_2").is_zero()


def _base_oracle(ext):
    """base_presentation as it was before base and fiber shared one restriction."""
    sub = GeneratorContext([(g, ext.total.ctx.degree_of(g)) for g in ext.base_names])
    assign = {g: sub.generator(g) for g in ext.base_names}
    images = {}
    for g in ext.base_names:
        src = ext.total.d.image_of(g)
        for mono in src.terms:
            for j, _ in mono:
                if ext.total.ctx.names[j] not in sub.index:
                    raise DegreeError("d(%s) leaves the base algebra" % g)
        images[g] = substitute(src, assign, sub)
    return SullivanPresentation(sub, images, name="%s|base" % ext.name)


def _fiber_oracle(ext):
    """fiber_presentation as it was before base and fiber shared one restriction."""
    ctx = ext.total.ctx
    sub = GeneratorContext([(g, ctx.degree_of(g)) for g in ext.fiber_names])
    kill = {g: sub.generator(g) if g in sub.index else AlgElement.zero(sub) for g in ctx.names}
    images = {g: substitute(ext.total.d.image_of(g), kill, sub) for g in ext.fiber_names}
    return SullivanPresentation(sub, images, name="%s|fiber" % ext.name)


def _tensor_s2_s3():
    from rht.constructions import tensor_presentations
    return LambdaExtension(tensor_presentations(sphere2_model(), sphere(3)), ["a_1", "b_1"])


@pytest.mark.parametrize("make", [
    elementary_fibration_over_s2, _tensor_s2_s3,
    lambda: free_loop_extension(sphere(2)), lambda: free_loop_extension(cp(2)),
    lambda: acyclic_closure(sphere2_model(), 8).extension,
], ids=["hopf", "S2xS3", "LS2", "LCP2", "acyclic-S2"])
def test_base_and_fiber_restrictions_match_their_oracles(make):
    ext = make()
    for got, want in ((ext.base_presentation(), _base_oracle(ext)),
                      (ext.fiber_presentation(), _fiber_oracle(ext))):
        assert (got.ctx.gens, got.name) == (want.ctx.gens, want.name)
        for g in want.ctx.names:
            assert list(got.d.image_of(g).terms.items()) == \
                list(want.d.image_of(g).terms.items())


def test_base_presentation_rejects_an_escaping_base():
    ctx = GeneratorContext([("a", 2), ("b", 3), ("z", 1), ("y", 3)])
    z, y = ctx.generator("z"), ctx.generator("y")
    total = SullivanPresentation(ctx, {"a": AlgElement.zero(ctx), "b": z * y,
                                       "z": AlgElement.zero(ctx), "y": AlgElement.zero(ctx)})
    ext = LambdaExtension(total, ["a", "b"], name="escape")
    with pytest.raises(DegreeError) as want:
        _base_oracle(ext)
    with pytest.raises(DegreeError) as got:
        ext.base_presentation()
    assert str(got.value) == str(want.value) == "d(b) leaves the base algebra"
    assert "d(b) leaves the base algebra" in ext.validate().violations
    assert ext.fiber_presentation().ctx.names == ("z", "y")


def test_pushout_identity_keeps_extension(s2):
    ext = elementary_fibration_over_s2()
    base = ext.base_presentation()
    ident = CdgaMorphism(base, base, {g: base.ctx.generator(g) for g in base.ctx.names})
    out = pushout_extension(ident, ext)
    assert out.total.ctx.gens == ext.total.ctx.gens
    for g in out.total.ctx.names:
        assert out.total.d.image_of(g) == ext.total.d.image_of(g)


def test_pushout_to_point_gives_fiber(s2):
    ext = elementary_fibration_over_s2()
    base = ext.base_presentation()
    point = SullivanPresentation(GeneratorContext([]), {}, name="pt")
    collapse = CdgaMorphism(base, point, {g: AlgElement.zero(point.ctx)
                                          for g in base.ctx.names})
    out = pushout_extension(collapse, ext)
    fib = ext.fiber_presentation()
    assert [out.total.ctx.degree_of(g) for g in out.total.ctx.names] == \
        [fib.ctx.degree_of(g) for g in fib.ctx.names]
    for g in out.total.ctx.names:
        assert out.total.d.image_of(g).is_zero() == fib.d.image_of(g).is_zero()


def test_pushout_elementary_fibration_pullback():
    """Pull the path-ish extension over S2 back along a degree-2 map data."""
    ext = elementary_fibration_over_s2()
    base = ext.base_presentation()
    # f: S2 model -> S2 model sending a to 2a (degree-2 cohomology map)
    tgt = sphere2_model()
    phi = CdgaMorphism(base, tgt, {"a": tgt.ctx.generator("a").scale(2),
                                   "b": tgt.ctx.generator("b").scale(4)})
    assert phi.is_chain_map()[0]
    out = pushout_extension(phi, ext)
    assert validate(out.total).ok
    # new differential of z carries phi(a) = 2a
    assert out.total.d.image_of("z") == out.total.ctx.generator("a").scale(2)
    # fiber unchanged: single degree-1 generator with zero differential
    fib = out.fiber_presentation()
    assert list(fib.ctx.degrees) == [1]
    assert fib.d.image_of("z").is_zero()


# ---------------------------------------------------------------------------
# Acyclic closures
# ---------------------------------------------------------------------------

def test_acyclic_closure_odd_sphere():
    p = sphere(3)
    ac = acyclic_closure(p, 8)
    assert [d for d in ac.total.ctx.degrees] == [3, 2]
    assert ac.total.d.image_of("u_bar") == ac.total.ctx.generator("u")
    rep = cohomology(ac.total, 0, 8)
    assert all(rep.dim(k) == 0 for k in range(1, 9))


def test_acyclic_closure_s2(s2):
    ac = acyclic_closure(s2, 8)
    # d(a_bar) = a; d(b_bar) = b - (correction in the a.a_bar span)
    d_abar = ac.total.d.image_of("a_bar")
    assert d_abar == ac.total.ctx.generator("a")
    d_bbar = ac.total.d.image_of("b_bar")
    b = ac.total.ctx.generator("b")
    corr = d_bbar - b
    a = ac.total.ctx.generator("a")
    abar = ac.total.ctx.generator("a_bar")
    assert corr == -(a * abar) or corr == a * abar
    rep = cohomology(ac.total, 0, 8)
    assert all(rep.dim(k) == 0 for k in range(1, 9))
    # quotient differential on Lambda U vanishes
    fib = ac.extension.fiber_presentation()
    assert all(fib.d.image_of(g).is_zero() for g in fib.ctx.names)
    # pairing degrees: deg(alpha(u)) = deg(u) + 1
    for u, v in ac.pairing.items():
        assert ac.total.ctx.degree_of(v) == ac.total.ctx.degree_of(u) + 1


def test_acyclic_closure_rejects_degree_one(uvw):
    with pytest.raises(UnsupportedInputError):
        acyclic_closure(uvw, 6)


def test_acyclic_closure_cp2_deeper_corrections():
    ac = acyclic_closure(cp(2), 10)
    rep = cohomology(ac.total, 0, 10)
    assert all(rep.dim(k) == 0 for k in range(1, 11))
    # fiber dims must match the PBW count for L(CP2): degrees 1 and 4
    fib = ac.extension.fiber_presentation()
    assert sorted(fib.ctx.degrees) == [1, 4]
    cx = fib
    assert [cx.dim(k) for k in range(11)] == [1, 1, 0, 0, 1, 1, 0, 0, 1, 1, 0]


FROZEN_CLOSURES = os.path.join(os.path.dirname(__file__), "data", "acyclic_closures.json")


@pytest.mark.parametrize("name, make", [
    ("CP2", lambda: cp(2)),
    ("S2xS3", lambda: tensor_presentations(sphere(2), sphere(3))),
    ("S2vS2_model_5", lambda: minimal_model(wedge_two_s2_cohomology(), 5).model),
    ("S2vS2_model_7", lambda: minimal_model(wedge_two_s2_cohomology(), 7).model),
])
def test_acyclic_closure_matches_frozen_output(name, make):
    # serialize_presentation of the total space and the pairing, recorded
    # when each primitive was solved by its own V-ideal solver.
    with open(FROZEN_CLOSURES, encoding="utf-8") as fh:
        frozen = json.load(fh)[name]
    ac = acyclic_closure(make(), frozen["n"])
    assert serialize_presentation(ac.total) == frozen["total"]
    assert ac.pairing == frozen["pairing"]


def test_acyclic_closure_solves_once_per_degree(monkeypatch):
    # 45 generators in degrees 2..8: a copy of p, then one extension and one
    # solve per degree (the last extension is the total space), then the
    # fiber (47 and 43 one at a time).
    p = minimal_model(wedge_two_s2_cohomology(), 8).model
    counts = Counter()

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(SullivanPresentation, "__init__",
                        counted("presentations", SullivanPresentation.__init__))
    monkeypatch.setattr("rht.minimal_model.solve_linear", counted("solves", solve_linear))
    acyclic_closure(p, 8)
    assert counts == {"presentations": 9, "solves": 7}


@pytest.mark.parametrize("n, columns", [(10, 748), (12, 2759)])
def test_model_chain_computes_each_column_once(monkeypatch, report_windows, n, columns):
    # The stages are one chain of extensions, so the columns of the returned
    # model are the ones its stages computed, and the quasi-iso check reads
    # them; every column comes from the Leibniz rule, never apply_derivation.
    # validate's d^2 check then reads the same store and computes no column.
    H = wedge_two_s2_cohomology()
    computed = Counter()
    leibniz = Derivation._leibniz

    def counted_leibniz(theta, block, rest, theta_rest):
        computed[(block,) + rest] += 1
        return leibniz(theta, block, rest, theta_rest)

    def refused(*args):
        raise AssertionError("apply_derivation called")

    monkeypatch.setattr(Derivation, "_leibniz", counted_leibniz)
    with monkeypatch.context() as refusing:
        refusing.setattr("rht.algebra.apply_derivation", refused)
        refusing.setattr("rht.cdga.apply_derivation", refused)
        report_windows.clear()
        mm = minimal_model(H, n)
        # One report per stage, H^(stage+1) of the partial model, and the
        # target to n + 1, whose H^0 and H^1 are checked.
        assert report_windows == [(H.name, 0, n + 1)] + [
            (mm.model.name, k, k) for k in range(3, n + 2)]
        assert is_quasi_iso(mm.phi, n)[0]
    assert sum(computed.values()) == len(computed) == columns
    assert validate(mm.model).ok
    assert sum(computed.values()) == columns


def _two_report_minimal_model(A, n):
    """Reference stage loop with two reports per stage: the cocycle step
    computes H^stage of the partial model itself unless the last kernel step
    added no generator, and the target window runs to n + 2."""
    from rht.cdga import induced_classes
    from rht.linalg import RationalMatrix
    from rht.minimal_model import MinimalModelResult
    tgt_rep = cohomology(A, 0, n + 2)
    model = SullivanPresentation(GeneratorContext([]), {}, name="M(%s)" % A.name)
    phi_imgs, provenance = {}, {}
    phi = CdgaMorphism(model, A, {}, name="phi")
    held = None
    for stage in range(2, n + 1):
        src_rep = held or cohomology(model, stage, stage)
        image = Echelon()
        for cls in induced_classes(phi, src_rep, tgt_rep, stage):
            image.add(cls)
        new = {}
        for i, t_rep in enumerate(tgt_rep.representatives(stage)):
            if not image.add({i: ONE}):
                continue
            gname = "v%d_%d" % (stage, len(new))
            new[gname] = AlgElement.zero(model.ctx)
            phi_imgs[gname] = t_rep
            provenance[gname] = ("cocycle", stage)
        if new:
            model = model.extend([(g, stage) for g in new], new)
            phi = CdgaMorphism(model, A, dict(phi_imgs), name="phi")
        src_rep = cohomology(model, stage + 1, stage + 1)
        reps = src_rep.representatives(stage + 1)
        cols = induced_classes(phi, src_rep, tgt_rep, stage + 1)
        ker = solve_linear(RationalMatrix(tgt_rep.dim(stage + 1), cols)).kernel
        held = None if ker else src_rep
        if not ker:
            continue
        cycles = [lincomb((c, reps[i]) for i, c in kvec.items()) for kvec in ker]
        sols = primitives(A, stage, [phi.apply_coords(stage + 1, z) for z in cycles],
                          range(A.dim(stage)))
        new = {}
        for j, (z_coords, s) in enumerate(zip(cycles, sols)):
            gname = "w%d_%d" % (stage, j)
            new[gname] = model.from_coords(stage + 1, z_coords)
            phi_imgs[gname] = s
            provenance[gname] = ("kernel", stage)
        model = model.extend([(g, stage) for g in new], new)
        phi = CdgaMorphism(model, A, dict(phi_imgs), name="phi")
    return MinimalModelResult(model, phi, n, provenance, A)


def _stage_loop_targets():
    from rht.constructions import truncated_poly, wedge_cohomology
    from rht.dsl import parse
    H = cohomology_algebra
    s2, s3, s4 = (H(sphere(k), k, name="H(S%d)" % k) for k in (2, 3, 4))
    doc = parse("cdga W { gen a:2; gen b:2; gen x:3; gen y:3; gen z:3; "
                "d x = a^2; d y = a*b; d z = b^2; }\n"
                "cdga V { gen a:2; gen b:4; gen x:5; gen y:7; d x = a^3; d y = b^2; }")
    return [H(tensor_presentations(sphere(2), sphere(2)), 4, name="H(S2xS2)"),
            wedge_cohomology(s2, s4, name="H(S2vS4)"),
            wedge_cohomology(H(cp(2), 4), s3, name="H(CP2vS3)"),
            H(cp(3), 6, name="H(CP3)"),
            truncated_poly(4, 3),
            wedge_cohomology(H(tensor_presentations(sphere(2), sphere(3)), 5), s4,
                             name="H(S2xS3)vH(S4)"),
            cp(2), tensor_presentations(sphere(2), sphere(4)),
            doc.presentation("W"), doc.presentation("V")]


def test_one_report_per_stage_matches_the_two_report_loop():
    # Targets whose cocycle generators appear after stage 2, or whose kernel
    # step hands the next cocycle step a nonzero image.
    for A in _stage_loop_targets():
        assert to_json_text(minimal_model_json(minimal_model(A, 8))) == \
            to_json_text(minimal_model_json(_two_report_minimal_model(A, 8))), A.name


def test_acyclic_closure_name_collision_names_first_generator():
    # In (degree, context) order y comes first, and its u would be named y_bar.
    ctx = GeneratorContext([("x", 3), ("x_bar", 3), ("y", 2), ("y_bar", 2)])
    p = SullivanPresentation(ctx, {g: AlgElement.zero(ctx) for g in ctx.names})
    with pytest.raises(DegreeError, match="generator name y_bar collides"):
        acyclic_closure(p, 4)


@st.composite
def primitive_batches(draw):
    """A presentation on odd and even generators (d of degree +1, d^2 not
    required), a degree, candidate indices and a batch of targets, each with
    its expected solvability: a boundary of a candidate chain (True), one
    plus a unit vector outside the candidates' image (False), or a random
    vector (None: either)."""
    degrees = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    ctx = GeneratorContext([("g%d" % i, d) for i, d in enumerate(degrees)])
    coeff = st.builds(Fraction, st.sampled_from([-3, -1, 1, 2]), st.integers(1, 3))
    images = {}
    for name, d in ctx.gens:
        basis = degree_basis(ctx, d + 1)
        picks = draw(st.lists(st.sampled_from(basis), max_size=3)) if basis else []
        images[name] = AlgElement(ctx, {m: draw(coeff) for m in picks})
    pres = SullivanPresentation(ctx, images)
    deg = draw(st.sampled_from([k for k in range(1, 6) if pres.dim(k) and pres.dim(k + 1)] or [1]))
    n, m = pres.dim(deg), pres.dim(deg + 1)
    candidates = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1))) if n else []
    image = Echelon()
    for i in candidates:
        image.add(pres.differential_column(deg, i))
    outside = [r for r in range(m) if r not in sorted(image.position)]
    targets, expected = [], []
    for kind in draw(st.lists(st.sampled_from([True, False, None]), min_size=1, max_size=5)):
        chain = (draw(st.lists(st.sampled_from(candidates), min_size=1, max_size=3))
                 if candidates else [])
        t = lincomb((draw(coeff), pres.differential_column(deg, i)) for i in chain)
        if kind is False and outside:
            t = lincomb([(ONE, t), (ONE, {draw(st.sampled_from(outside)): ONE})])
        elif kind is None and m:
            t = {r: draw(coeff) for r in draw(st.lists(st.integers(0, m - 1), max_size=3))}
        targets.append(t)
        expected.append(kind if kind or outside else None)
    return pres, deg, targets, candidates, expected


@settings(max_examples=200, deadline=None)
@given(primitive_batches())
def test_primitives_batch_matches_single_target_calls(case):
    pres, deg, targets, candidates, expected = case
    batch = primitives(pres, deg, targets, candidates)
    singles = [primitives(pres, deg, [t], candidates)[0] for t in targets]

    def shape(sols):
        return [None if s is None else [(i, type(c), c) for i, c in s.items()] for s in sols]

    assert shape(batch) == shape(singles)
    for t, s, solvable in zip(targets, batch, expected):
        assert solvable is None or (s is not None) == solvable
        if s is not None:
            assert set(s) <= set(candidates)
            assert lincomb((c, pres.differential_column(deg, i)) for i, c in s.items()) == t


def test_free_loop_extension_fiber_of_s3():
    ext = free_loop_extension(sphere(3))
    fib = ext.fiber_presentation()
    assert list(fib.ctx.degrees) == [2]
    assert fib.d.image_of("s_u").is_zero()


def test_wedge_model_to_degree_12_is_unchanged():
    # sha256 of the minimal_model_json text of M(H(S2 v S2)) to degree 12,
    # recorded with the Fraction eliminator that the integer rows replaced.
    mm = minimal_model(wedge_two_s2_cohomology(), 12)
    text = to_json_text(minimal_model_json(mm))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == \
        "dfc83199b9981e7911c3bfa22dac104bf4f2dfda298ec9538e946a2821323257"


def test_wedge_model_to_degree_13_is_unchanged():
    # sha256 of the minimal_model_json text of M(H(S2 v S2)) to degree 13,
    # recorded before the solves' rows were sorted and before cohomology was
    # read in kernel coordinates.
    mm = minimal_model(wedge_two_s2_cohomology(), 13)
    text = to_json_text(minimal_model_json(mm))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == \
        "364956e43ae2f052456372152af370431f370186ed056e29b6135a52e277fdac"


def test_one_extend_per_generator_degree(monkeypatch):
    # Stage s adjoins all of V^s in one link of the extend chain, with one
    # CdgaMorphism: S2 v S3 v S4 to degree 12 has generators in 11 degrees,
    # and stages 3 and 4 gain both cocycles and kernel-killers.  The sha256
    # of its minimal_model_json was recorded with two links for such stages.
    from rht.constructions import wedge_cohomology
    H = [cohomology_algebra(sphere(k), k, name="H(S%d)" % k) for k in (2, 3, 4)]
    A = wedge_cohomology(wedge_cohomology(H[0], H[1], name="H(S2vS3)"), H[2],
                         name="H(S2vS3vS4)")
    calls = Counter()
    extend, morphism = SullivanPresentation.extend, CdgaMorphism.__init__

    def counted_extend(self, *args, **kwargs):
        calls["extend"] += 1
        return extend(self, *args, **kwargs)

    def counted_morphism(self, *args, **kwargs):
        calls["morphism"] += 1
        return morphism(self, *args, **kwargs)

    monkeypatch.setattr(SullivanPresentation, "extend", counted_extend)
    monkeypatch.setattr(CdgaMorphism, "__init__", counted_morphism)
    mm = minimal_model(A, 12)
    kinds = Counter(stage for _, stage in set(mm.provenance.values()))
    assert len(set(mm.model.ctx.degrees)) == 11
    assert sorted(stage for stage, n in kinds.items() if n == 2) == [3, 4]
    assert calls == {"extend": 11, "morphism": 12}    # one more: the empty phi
    text = to_json_text(minimal_model_json(mm))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == \
        "2fb55c40f52406e4ff59a3dc1419c043688615d09839844a0630d45079741cbf"
