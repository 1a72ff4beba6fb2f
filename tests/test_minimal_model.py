import hashlib
import json
import math
import os
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rht.algebra import AlgElement, Derivation, GeneratorContext, ONE, degree_basis
from rht.cdga import (CdgaMorphism, SullivanPresentation, cohomology,
                      cohomology_algebra, is_quasi_iso, validate)
from rht.constructions import sphere, cp, free_loop_extension, product
from rht.errors import DegreeError, UnsupportedInputError
from rht.dsl import minimal_model_json, serialize_presentation, to_json_text
from rht.linalg import Echelon, lincomb, solve_linear
from rht.minimal_model import (AcyclicClosure, LambdaExtension, acyclic_closure,
                               fiber_model, is_minimal, is_sullivan, minimal_model,
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
        else:
            for m in range(0, n // k + 1):
                factor[k * m] = math.comb(need + m - 1, m)
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
    fib = fiber_model(ext)
    assert [d for d in fib.ctx.degrees] == [3]
    assert fib.d.image_of("u_2").is_zero()


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
    fib = fiber_model(ext)
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
    fib = fiber_model(out)
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
    fib = ac.fiber()
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
    fib = ac.fiber()
    assert sorted(fib.ctx.degrees) == [1, 4]
    cx = fib
    assert [cx.dim(k) for k in range(11)] == [1, 1, 0, 0, 1, 1, 0, 0, 1, 1, 0]


FROZEN_CLOSURES = os.path.join(os.path.dirname(__file__), "data", "acyclic_closures.json")


@pytest.mark.parametrize("name, make", [
    ("CP2", lambda: cp(2)),
    ("S2xS3", lambda: product(sphere(2), sphere(3))),
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
def test_model_chain_computes_each_column_once(monkeypatch, n, columns):
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
        mm = minimal_model(H, n)
        assert is_quasi_iso(mm.phi, n)[0]
    assert sum(computed.values()) == len(computed) == columns
    assert validate(mm.model).ok
    assert sum(computed.values()) == columns


def test_acyclic_closure_name_collision_names_first_generator():
    # In (degree, context) order y comes first, and its u would be named y_bar.
    p = SullivanPresentation.build([("x", 3), ("x_bar", 3), ("y", 2), ("y_bar", 2)], {})
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
    outside = [r for r in range(m) if r not in image.pivot_columns()]
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
    fib = fiber_model(ext)
    assert list(fib.ctx.degrees) == [2]
    assert fib.d.image_of("s_u").is_zero()


def test_wedge_model_to_degree_12_is_unchanged():
    # sha256 of the minimal_model_json text of M(H(S2 v S2)) to degree 12,
    # recorded with the Fraction eliminator that the integer rows replaced.
    mm = minimal_model(wedge_two_s2_cohomology(), 12)
    text = to_json_text(minimal_model_json(mm))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == \
        "dfc83199b9981e7911c3bfa22dac104bf4f2dfda298ec9538e946a2821323257"
