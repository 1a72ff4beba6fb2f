import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rht.algebra import AlgElement, GeneratorContext, monomial_word_length
from rht.cdga import (FiniteCDGA, SullivanPresentation, cohomology, cohomology_algebra,
                      tensor_finite, validate)
from rht.constructions import (catalog, cp, k_z, sphere, tensor_presentations, torus,
                               truncated_poly, wedge_cohomology)
from rht.errors import DegreeError, UnsupportedInputError
from rht.homotopy_lie import homotopy_ranks
from rht.invariants import (DegreeSequence, _representable, _toomer_fails_at, cat_bounds,
                            elliptic_degrees_check, is_poincare_duality,
                            loop_homology_dims, massey_triple,
                            tc_cup_length, toomer_invariant, trichotomy_report,
                            ELLIPTIC, HYPERBOLIC)
from rht.linalg import Echelon, lincomb
from rht.minimal_model import minimal_model, primitives

from conftest import (nonformal_uvw, random_monomial_algebras, sphere2_model,
                      wedge_two_s2_cohomology)


# ---------------------------------------------------------------------------
# Toomer / cat
# ---------------------------------------------------------------------------

def test_toomer_spheres(s2):
    assert toomer_invariant(s2, n=8, h_vanishes_above=2).value == 1
    s3 = sphere(3)
    assert toomer_invariant(s3, n=8).value == 1


def test_toomer_cp_n():
    for n in (2, 3, 4):
        model = cp(n)
        rep = toomer_invariant(model, n=2 * n + 2, h_vanishes_above=2 * n)
        assert rep.value == n
        assert rep.exact
        # injectivity must fail at word bound n-1
        assert (n - 1) in rep.failures


def test_toomer_trivial_model():
    q = SullivanPresentation(GeneratorContext([]), {}, name="Q")
    assert toomer_invariant(q, n=4).value == 0


def _word_truncation_fails_at(p, rep, m, n):
    """Oracle: Lambda V / Lambda^{>m} V as its own complex, on the monomials of
    word length <= m re-indexed in ambient order, with projected columns."""
    cx = p

    def kept(k):
        return [i for i, mono in enumerate(cx.basis(k)) if monomial_word_length(mono) <= m]

    def project(k, vec):
        pos = {amb: i for i, amb in enumerate(kept(k))}
        return {pos[i]: c for i, c in vec.items() if i in pos}

    for k in range(0, n + 1):
        h = rep.dim(k)
        if h == 0:
            continue
        bound = Echelon()
        for amb in kept(k - 1):
            bound.add(project(k, cx.differential_column(k - 1, amb)))
        rank = sum(1 for v in rep.representatives(k) if bound.add(project(k, v)))
        if rank < h:
            return k
    return None


def test_toomer_truncation_matches_truncated_complex():
    s2, s3 = sphere(2), sphere(3)
    h2 = cohomology_algebra(s2, 2)
    corpus = [s2, s3, sphere(4), cp(2), cp(3), cp(4), torus(3), k_z(2),
              tensor_presentations(s2, s3), tensor_presentations(s2, s2),
              tensor_presentations(cp(2), s3), tensor_presentations(s3, torus(2))]
    for H in (tensor_finite(h2, h2), wedge_cohomology(h2, cohomology_algebra(s3, 3)),
              wedge_cohomology(h2, h2)):
        corpus.append(minimal_model(H, 8).model)
    for p in corpus:
        rep = cohomology(p, 0, 8)
        for m in range(0, 7):
            for n in range(0, 9):
                assert _toomer_fails_at(p, rep, m, n) == \
                    _word_truncation_fails_at(p, rep, m, n), (p.name, m, n)


def test_cat_cp3_poincare_duality_exact():
    H = cohomology_algebra(cp(3), 6)
    mm = minimal_model(H, 9)
    rep = cat_bounds(mm, n=9)
    assert rep.e == 3
    assert rep.pd
    assert rep.cat_exact == 3
    assert rep.upper == 6


def test_cat_product_formula_via_toomer():
    # e is additive on tensor products of catalog models with PD cohomology.
    pairs = [
        (sphere(2), sphere(3), 1, 1),
        (sphere(3), sphere(5), 1, 1),
        (sphere(2), sphere(2), 1, 1),
        (cp(2), sphere(3), 2, 1),
        (sphere(3), sphere(3), 1, 1),
    ]
    for p1, p2, e1, e2 in pairs:
        t = tensor_presentations(p1, p2)
        top = {"S2": 2, "S3": 3, "S5": 5, "CP2": 4}
        bound = top[p1.name] + top[p2.name]
        rep = toomer_invariant(t, n=bound + 2, h_vanishes_above=bound)
        assert rep.value == e1 + e2, (p1.name, p2.name, rep.value)


def test_cat_s2_x_s3_is_two():
    t = tensor_presentations(sphere(2), sphere(3))
    rep = cat_bounds(t, n=7, h_vanishes_above=5)
    assert rep.e == 2
    assert rep.pd and rep.cat_exact == 2      # cat(S2) + cat(S3) = 1 + 1


def test_cat_interval_never_inverted(s2):
    rep = cat_bounds(s2, n=8, h_vanishes_above=2)
    assert rep.e <= rep.upper
    assert rep.cat_exact == 1


def _cat_bounds_three_windows(model, n, h_vanishes_above=None):
    """`cat_bounds` as it was before it read the Toomer report's window:
    (e, upper, certified, pd, cat_exact) from three separate windows."""
    rep = cohomology(model, 0, n)
    certified = rep.certified_above() or (h_vanishes_above is not None
                                          and h_vanishes_above <= n)
    toomer = toomer_invariant(model, n=n, h_vanishes_above=h_vanishes_above)
    top = max((k for k in range(0, n + 1) if rep.dim(k)), default=0)
    H = cohomology_algebra(model, min(n, max(top, 0)))
    pd = is_poincare_duality(H)
    cat_exact = toomer.value if pd and certified and toomer.value is not None else None
    return (toomer.value, top, certified, pd, cat_exact), H


def rank_check_poincare_duality(H):
    """`is_poincare_duality` as a rank check: each pairing matrix
    P[i][j] = coefficient of the top class in a_i c_j has full rank."""
    if H.diff:
        return False
    degs = [k for k in H.degrees() if H.dim(k)]
    m = max(degs)
    if H.dim(m) != 1 or H.dim(0) != 1:
        return False
    for p in degs:
        q = m - p
        if H.dim(q) != H.dim(p):
            return False
        ech = Echelon()
        rows = [{j: H.product(p, i, q, j)[0] for j in range(H.dim(q))
                 if H.product(p, i, q, j).get(0)} for i in range(H.dim(p))]
        if sum(1 for r in rows if ech.add(r)) != H.dim(p):
            return False
    return True


def _outcome(f, H):
    try:
        return f(H)
    except Exception as exc:    # the two must fail alike, too
        return type(exc), str(exc)


@st.composite
def random_tables(draw):
    """A FiniteCDGA table with random dimensions in degrees -1..4 (degree 0
    at least 1), or with dim A^k = dim A^(m-k) and dim A^0 = dim A^m = 1, so
    that only the pairing decides; product coefficients drawn with 0 among
    them (the constructor drops those entries, so a product may vanish), and
    sometimes a nonzero d."""
    if draw(st.booleans()):
        dims = {k: draw(st.integers(1 if k == 0 else 0, 2)) for k in range(-1, 5)}
    else:
        m = draw(st.integers(0, 4))
        dims = {0: 1, m: 1}
        for k in range(1, m // 2 + 1):
            dims[k] = dims[m - k] = draw(st.integers(0, 2))
    basis = {k: ["e%d_%d" % (k, i) for i in range(n)] for k, n in dims.items()}
    items = [(k, i) for k in basis for i in range(len(basis[k]))]
    coeff = st.integers(-2, 2)
    mul = {}
    for (p, i), (q, j) in itertools.product(items, repeat=2):
        if basis.get(p + q) and draw(st.integers(0, 3)):
            mul[((p, i), (q, j))] = draw(st.dictionaries(
                st.integers(0, len(basis[p + q]) - 1), coeff, min_size=1))
    diff = {}
    if draw(st.integers(0, 4)) == 0:
        for k, i in items:
            if basis.get(k + 1) and draw(st.booleans()):
                diff[(k, i)] = {draw(st.integers(0, len(basis[k + 1]) - 1)): draw(coeff)}
    return FiniteCDGA(basis, diff, mul, name="T")


def _pd_algebras():
    return ([cohomology_algebra(torus(k), k) for k in range(1, 5)]
            + [truncated_poly(d, h) for d in (2, 4) for h in (2, 3, 4)]
            + [cohomology_algebra(cp(n), 2 * n) for n in range(1, 5)])


@settings(max_examples=400, deadline=None)
@given(random_tables())
def test_poincare_duality_matches_the_rank_check_on_random_tables(H):
    assert _outcome(is_poincare_duality, H) == _outcome(rank_check_poincare_duality, H)


@settings(max_examples=60, deadline=None)
@given(random_monomial_algebras())
def test_poincare_duality_on_monomial_algebras_in_random_bases(H):
    assert is_poincare_duality(H) is True
    assert rank_check_poincare_duality(H) is True


@pytest.mark.parametrize("H", _pd_algebras(), ids=lambda H: H.name)
def test_poincare_duality_on_exterior_truncated_and_projective(H):
    assert is_poincare_duality(H) is True
    assert rank_check_poincare_duality(H) is True


@pytest.mark.parametrize("model, n, bound", [
    (cp(2), 8, None), (cp(2), 8, 4), (cp(3), 9, 6), (cp(3), 4, None),
    (sphere(2), 6, None), (sphere(2), 6, 2), (sphere(2), 1, None),
])
def test_cat_bounds_matches_the_three_window_version(model, n, bound):
    rep = cat_bounds(model, n=n, h_vanishes_above=bound)
    old, old_H = _cat_bounds_three_windows(model, n, bound)
    assert (rep.e, rep.upper, rep.certified, rep.pd, rep.cat_exact) == old
    # H on [0, n] and on [0, top] differ only in window_certified.
    H = toomer_invariant(model, n=n, h_vanishes_above=bound).cohomology.algebra()
    assert (H.name, H.basis, list(H.mul.items())) == \
        (old_H.name, old_H.basis, list(old_H.mul.items()))


def test_cat_bounds_builds_one_window(report_windows):
    cat_bounds(cp(3), n=9)
    assert report_windows == [("CP3", 0, 9)]
    report_windows.clear()
    ctx = GeneratorContext([("a", 2), ("z", 1)])
    linear = SullivanPresentation(ctx, {"a": AlgElement.zero(ctx), "z": ctx.generator("a")})
    with pytest.raises(UnsupportedInputError):       # not minimal: rejected before any window
        cat_bounds(linear, n=4)
    assert report_windows == []


def test_cat_point():
    # (Lambda u, 0) for odd u: e = cat = 1
    rep = cat_bounds(sphere(3), n=7)
    assert rep.e == 1 and rep.upper == 3 and rep.cat_exact == 1


# ---------------------------------------------------------------------------
# Massey products
# ---------------------------------------------------------------------------

def test_massey_nonformal_example(uvw):
    u, v = uvw.ctx.generator("u"), uvw.ctx.generator("v")
    res = massey_triple(uvw, u, v, v)
    assert res.defined
    assert res.nontrivial
    assert not res.representative.is_zero()
    # representative is a cocycle
    assert uvw.differential(res.representative).is_zero()


def test_massey_formal_sphere_trivial(s2):
    # On (Lambda(a, b), db = a^2) every defined triple vanishes: the model is
    # formal.  <a, a, a> is defined (a^2 = db is exact) and its canonical
    # representative b a - a b is identically zero.
    a = s2.ctx.generator("a")
    res = massey_triple(s2, a, a, a)
    assert res.defined and not res.nontrivial
    assert res.rep_class == {}
    zero = AlgElement.zero(s2.ctx)
    res = massey_triple(s2, a, zero, a)
    assert res.defined and not res.nontrivial


def test_massey_simply_connected_nonformal():
    # Lambda(a3, b3, z5), dz = ab: <a, a, b> = [a z] != 0 with zero
    # indeterminacy (H^5 = 0), so the model is not formal.
    ctx = GeneratorContext([("a", 3), ("b", 3), ("z", 5)])
    a, b = ctx.generator("a"), ctx.generator("b")
    zero = AlgElement.zero(ctx)
    p = SullivanPresentation(ctx, {"a": zero, "b": zero, "z": a * b})
    res = massey_triple(p, a, a, b)
    assert res.defined and res.nontrivial
    assert res.indeterminacy == []


def test_massey_zero_slot_trivial(uvw):
    u = uvw.ctx.generator("u")
    zero = AlgElement.zero(uvw.ctx)
    res = massey_triple(uvw, u, zero, u)
    assert res.defined and not res.nontrivial and res.rep_class == {}


def test_massey_representative_moves_within_indeterminacy(uvw):
    # <u, v, u>: dw = uv gives primitives for both products; changing them
    # by degree-1 cocycles moves the class only inside the indeterminacy.
    from rht.linalg import Echelon
    u, v, w = (uvw.ctx.generator(g) for g in "uvw")
    res = massey_triple(uvw, u, v, u)
    assert res.defined
    rep0 = res.representative
    top = 2
    hrep = cohomology(uvw, 0, top)
    cx = uvw
    ech = Echelon()
    for vcl in res.indeterminacy:
        ech.add(dict(vcl))
    sign = (-1) ** (1 + 1)
    for zx in (u, v, u + v):
        for zy in (u, v, u - v):
            x_alt = w + zx          # still solves dx = uv
            y_alt = w + zy          # still solves dy = vu? d(w) = uv = -vu...
            # here b = v, c = u: dy must equal v*u = -uv, so y = -w + cocycle
            y_alt = -w + zy
            rep_alt = x_alt * u + u.scale(sign) * y_alt
            assert uvw.differential(rep_alt).is_zero()
            diff = rep_alt - rep0
            if diff.is_zero():
                continue
            cls = hrep.class_coordinates(top, cx.to_coords(diff, top))
            if cls:
                assert ech.contains(cls)


def parent_indeterminacy(p, a, c, top):
    """The indeterminacy classes and span massey_triple formed from
    AlgElement representatives: a h for h in H^(top - |a|), then h c for h in
    H^(top - |c|), each class kept when it is new."""
    hrep, ind, classes = cohomology(p, 0, top), Echelon(), []

    def reps(k):
        return [p.from_coords(k, v) for v in hrep.representatives(k)] if k >= 0 else []
    for z in [a * h for h in reps(top - a.degree())] + [h * c for h in reps(top - c.degree())]:
        if not z.is_zero():
            cls = hrep.class_coordinates(top, p.to_coords(z, top))
            if cls and ind.add(dict(cls)):
                classes.append(cls)
    return classes, ind


def heisenberg_circle():
    """x, y, z, t of degree 1, dt = xy: x, y odd classes whose products with z survive."""
    ctx = GeneratorContext([("x", 1), ("y", 1), ("z", 1), ("t", 1)])
    zero = AlgElement.zero(ctx)
    return SullivanPresentation(ctx, {"x": zero, "y": zero, "z": zero,
                                      "t": ctx.generator("x") * ctx.generator("y")})


def a3_b3_z5():
    """a, b of degree 3, dz = ab: <a, a, b> = [a z] != 0."""
    ctx = GeneratorContext([("a", 3), ("b", 3), ("z", 5)])
    zero = AlgElement.zero(ctx)
    return SullivanPresentation(ctx, {"a": zero, "b": zero,
                                      "z": ctx.generator("a") * ctx.generator("b")})


def seeded_cocycles(p, top, rng):
    """Cocycles of degree 0..top: each representative, a boundary, and a
    representative plus a boundary, with coefficients drawn from [-2, 2];
    then 0."""
    rep = cohomology(p, 0, top)
    out = []
    for k in range(top + 1):
        reps = rep.representatives(k)
        bound = lincomb((rng.randint(-2, 2), p.differential_column(k - 1, i))
                        for i in range(p.dim(k - 1)))
        vecs = [bound] + [lincomb([(rng.choice([-2, -1, 1, 2]), v)]) for v in reps]
        vecs += [lincomb([(1, rng.choice(reps)), (1, bound)])] if reps else []
        out += [p.from_coords(k, v) for v in vecs if v]
    return out + [AlgElement.zero(p.ctx)]


def seeded_triples(space, top):
    """The presentation named `space` and up to 400 seeded triples of its
    cocycles of degree 0..top."""
    p = {"uvw": nonformal_uvw, "heisenberg": heisenberg_circle, "S2": sphere2_model,
         "CP2": lambda: cp(2), "S2xS3": lambda: tensor_presentations(sphere2_model(), sphere(3)),
         "a3b3z5": a3_b3_z5}[space]()
    rng = random.Random(space)
    cocycles = seeded_cocycles(p, top, rng)
    triples = list(itertools.product(cocycles, repeat=3))
    return p, rng.sample(triples, min(len(triples), 400))


SEEDED_SPACES = [("uvw", 2), ("heisenberg", 2), ("S2", 3), ("CP2", 4), ("S2xS3", 3),
                 ("a3b3z5", 3)]


@pytest.mark.parametrize("space, top", SEEDED_SPACES)
def test_massey_indeterminacy_matches_the_element_path(space, top):
    # Seeded cocycle triples, degree-0 and zero slots among them: the
    # indeterminacy classes, their value types and key order, are those of
    # the AlgElement products a h and h c, and so is `nontrivial`.
    p, triples = seeded_triples(space, top)
    counts = {"zero": 0, "undefined": 0, "defined": 0}
    for a, b, c in triples:
        res = massey_triple(p, a, b, c)
        if a.is_zero() or b.is_zero() or c.is_zero():
            assert res.defined and res.indeterminacy == [] and not res.nontrivial
            counts["zero"] += 1
        elif not res.defined:
            counts["undefined"] += 1
        else:
            counts["defined"] += 1
            classes, ind = parent_indeterminacy(p, a, c, a.degree() + b.degree() + c.degree() - 1)
            assert [[(i, type(v), v) for i, v in cls.items()] for cls in res.indeterminacy] == \
                [[(i, type(v), v) for i, v in cls.items()] for cls in classes]
            assert res.nontrivial == (bool(res.rep_class) and not ind.contains(res.rep_class))
    assert all(counts.values()), counts


def parent_massey_triple(p, a, b, c):
    """`massey_triple` as it was on AlgElements: a b and b c multiplied and
    read with `to_coords`, the representative x c + (-1)^(|a| + 1) a y formed
    as an element; (defined, reason, repr of the representative, class,
    indeterminacy, nontrivial)."""
    da, db, dc = a.degree(), b.degree(), c.degree()
    if a.is_zero() or b.is_zero() or c.is_zero():
        return True, None, "0", {}, [], False
    x = primitives(p, da + db - 1, [p.to_coords(a * b, da + db)], range(p.dim(da + db - 1)))[0]
    if x is None:
        return False, "[a][b] != 0 in cohomology", None, None, None, None
    y = primitives(p, db + dc - 1, [p.to_coords(b * c, db + dc)], range(p.dim(db + dc - 1)))[0]
    if y is None:
        return False, "[b][c] != 0 in cohomology", None, None, None, None
    rep_el = (p.from_coords(da + db - 1, x) * c
              + a.scale((-1) ** (da + 1)) * p.from_coords(db + dc - 1, y))
    top = da + db + dc - 1
    hrep = cohomology(p, 0, top)
    rep_class = {} if rep_el.is_zero() else hrep.class_coordinates(top, p.to_coords(rep_el, top))
    classes, ind = parent_indeterminacy(p, a, c, top)
    return (True, None, repr(rep_el), rep_class, classes,
            bool(rep_class) and not ind.contains(rep_class))


@pytest.mark.parametrize("space, top", SEEDED_SPACES)
def test_massey_representative_matches_the_element_path(space, top):
    # On the same seeded triples, the representative built in coordinates
    # prints as the AlgElement one, and its class, the indeterminacy and the
    # verdict are the element path's, value types and key order included.
    def typed(cls):
        return [(i, type(v), v) for i, v in cls.items()]

    def seen(defined, reason, rep, rep_class, classes, nontrivial):
        if not defined:
            return reason, rep, rep_class, classes, nontrivial
        return reason, rep, typed(rep_class), [typed(cls) for cls in classes], nontrivial
    p, triples = seeded_triples(space, top)
    for a, b, c in triples:
        res = massey_triple(p, a, b, c)
        rep = None if res.representative is None else repr(res.representative)
        assert seen(res.defined, res.reason, rep, res.rep_class, res.indeterminacy,
                    res.nontrivial) == seen(*parent_massey_triple(p, a, b, c))


# ---------------------------------------------------------------------------
# Elliptic degree sequences
# ---------------------------------------------------------------------------

def test_elliptic_examples():
    assert elliptic_degrees_check(DegreeSequence([], [2, 3]))[0]       # S3 x S5
    assert elliptic_degrees_check(DegreeSequence([1], [3]))[0]        # CP2-like
    ok, witness = elliptic_degrees_check(DegreeSequence([1], []))
    assert not ok and witness == [1]


def test_elliptic_monotone_in_odds():
    rng = random.Random(23)
    for _ in range(40):
        evens = [rng.randint(1, 4) for _ in range(rng.randint(0, 3))]
        odds = [rng.randint(1, 6) for _ in range(rng.randint(0, 3))]
        ok, _ = elliptic_degrees_check(DegreeSequence(evens, odds))
        if ok:
            ok2, _ = elliptic_degrees_check(DegreeSequence(evens, odds + [rng.randint(1, 8)]))
            assert ok2


def brute_force_elliptic(evens, odds):
    """Oracle: direct enumeration of k-vectors per subsequence."""
    n = len(evens)
    for r in range(1, n + 1):
        for subset in itertools.combinations(range(n), r):
            vals = [evens[i] for i in subset]
            count = 0
            for b in odds:
                found = False
                # enumerate k-vectors with sum k_l * vals[l] = b
                def rec(idx, remaining, coins):
                    nonlocal found
                    if found:
                        return
                    if idx == len(vals):
                        if remaining == 0 and coins >= 2:
                            found = True
                        return
                    k = 0
                    while k * vals[idx] <= remaining:
                        rec(idx + 1, remaining - k * vals[idx], coins + k)
                        if found:
                            return
                        k += 1
                rec(0, b, 0)
                if found:
                    count += 1
            if count < r:
                return False
    return True


def test_elliptic_checker_agrees_with_brute_force_small():
    rng = random.Random(9)
    for _ in range(60):
        evens = [rng.randint(1, 5) for _ in range(rng.randint(0, 3))]
        odds = [rng.randint(1, 7) for _ in range(rng.randint(0, 3))]
        got, _ = elliptic_degrees_check(DegreeSequence(evens, odds))
        assert got == brute_force_elliptic(sorted(evens), sorted(odds))


def coin_dp_representable(b, values):
    """Oracle by dynamic programming: reach[s][j] says s is a sum of values
    with min(number of terms, 2) = j."""
    reach = [[False] * 3 for _ in range(b + 1)]
    reach[0][0] = True
    for s in range(1, b + 1):
        for v in values:
            if v <= s:
                for j in range(3):
                    if reach[s - v][j]:
                        reach[s][min(j + 1, 2)] = True
    return reach[b][2]


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 80), st.lists(st.integers(1, 9), min_size=1, max_size=5))
def test_representable_agrees_with_coin_dp(b, values):
    assert _representable(b, values, {}) == coin_dp_representable(b, values)


# ---------------------------------------------------------------------------
# Trichotomy
# ---------------------------------------------------------------------------

def test_trichotomy_cp3_elliptic():
    H = cohomology_algebra(cp(3), 6)
    mm = minimal_model(H, 12)
    rep = trichotomy_report(mm, 12)
    assert rep.tag == ELLIPTIC
    assert rep.chi_pi == 0


def test_trichotomy_wedge_hyperbolic():
    for n in (8, 10):
        rep = trichotomy_report(minimal_model(wedge_two_s2_cohomology(), n), n)
        assert rep.tag == HYPERBOLIC
        assert rep.alpha_estimate > 0


@pytest.mark.parametrize("space, dim, n", [("sphere", 2, 2), ("sphere", 2, 3),
                                           ("sphere", 3, 3), ("cp", 3, 2)])
def test_trichotomy_needs_two_degrees_in_the_last_half_window(space, dim, n):
    # The last half-window holds one degree here, so "every rank exceeds the
    # first" held vacuously and these elliptic spaces were tagged hyperbolic.
    assert trichotomy_report(minimal_model(catalog(space, dim), n), n).tag != HYPERBOLIC


def test_trichotomy_point():
    q_alg = cohomology_algebra(SullivanPresentation(GeneratorContext([]), {},
                                                    name="pt"), 4)
    mm = minimal_model(q_alg, 9)
    rep = trichotomy_report(mm, 9)
    assert rep.tag == ELLIPTIC
    assert all(v == 0 for v in rep.ranks.values())


def test_trichotomy_reads_the_rank_table_of_homotopy_ranks():
    mm = minimal_model(wedge_two_s2_cohomology(), 6)
    assert trichotomy_report(mm).ranks == homotopy_ranks(mm, 6)
    assert trichotomy_report(mm, 4).ranks == homotopy_ranks(mm, 4)
    with pytest.raises(DegreeError, match="^ranks requested beyond the certified degree 6$"):
        trichotomy_report(mm, 7)


# ---------------------------------------------------------------------------
# TC cup length
# ---------------------------------------------------------------------------

def brute_force_tc(H):
    """Oracle: kernel-product length computed with its own H (x) H arithmetic.

    Elements are dicts ((p,i),(q,j)) -> Fraction multiplied by the direct
    Koszul rule (a (x) b)(a' (x) b') = (-1)^{|b||a'|} aa' (x) bb', completely
    bypassing the tensor_finite structure constants used by the
    implementation.
    """
    from rht.linalg import Echelon, RationalMatrix, solve_linear
    items = [(p, i) for p in sorted(H.basis) for i in range(H.dim(p))]

    def mul(t1, t2):
        out = {}
        for ((p1, i1), (q1, j1)), c1 in t1.items():
            for ((p2, i2), (q2, j2)), c2 in t2.items():
                sign = -1 if (q1 % 2) and (p2 % 2) else 1
                left = H.product(p1, i1, p2, i2)
                right = H.product(q1, j1, q2, j2)
                for la, ca in left.items():
                    for lb, cb in right.items():
                        key = ((p1 + p2, la), (q1 + q2, lb))
                        out[key] = out.get(key, Fraction(0)) + sign * c1 * c2 * ca * cb
        return {k: v for k, v in out.items() if v != 0}

    by_deg = {}
    for (p, i) in items:
        for (q, j) in items:
            by_deg.setdefault(p + q, []).append(((p, i), (q, j)))
    kernel = []
    for k, pairs in sorted(by_deg.items()):
        cols = [H.product(p, i, q, j) for ((p, i), (q, j)) in pairs]
        mat = RationalMatrix(H.dim(k), cols)
        for vec in solve_linear(mat).kernel:
            kernel.append({pairs[c]: v for c, v in vec.items()})
    if not kernel:
        return 0
    pair_index = {}
    for (p, i) in items:
        for (q, j) in items:
            pair_index[((p, i), (q, j))] = len(pair_index)

    def flatten(elem):
        return {pair_index[k]: v for k, v in elem.items()}

    current = kernel
    length = 1
    while True:
        ech = Echelon()
        nxt = []
        for z in kernel:
            for w in current:
                prod = mul(z, w)
                if prod and ech.add(flatten(prod)):
                    nxt.append(prod)
        if not nxt:
            return length
        current = nxt
        length += 1
        if length > 4 * len(items) + 4:
            raise RuntimeError("runaway cup length")


def test_tc_cup_lengths_catalog(s2):
    assert tc_cup_length(cohomology_algebra(s2, 2)) == 2
    assert tc_cup_length(cohomology_algebra(sphere(3), 3)) == 1
    assert tc_cup_length(cohomology_algebra(sphere(4), 4)) == 2
    q = cohomology_algebra(SullivanPresentation(GeneratorContext([]), {}, name="pt"), 2)
    assert tc_cup_length(q) == 0


def test_tc_cup_length_cp2():
    assert tc_cup_length(cohomology_algebra(cp(2), 4)) == 4


def test_tc_cup_length_torus():
    assert tc_cup_length(cohomology_algebra(torus(2), 2)) == 2
    assert tc_cup_length(cohomology_algebra(torus(3), 3)) == 3


def test_tc_matches_brute_force_oracle(s2):
    candidates = [cohomology_algebra(s2, 2), cohomology_algebra(sphere(3), 3),
                  cohomology_algebra(cp(2), 4), cohomology_algebra(torus(2), 2)]
    for H in candidates:
        assert tc_cup_length(H) == brute_force_tc(H)


def test_tc_requires_zero_differential(s2):
    from rht.cdga import finite_truncation
    A = finite_truncation(s2, 4)
    with pytest.raises(UnsupportedInputError):
        tc_cup_length(A)
    B = FiniteCDGA({-1: ["y"], 0: ["1"]}, {}, {((0, 0), (0, 0)): {0: 1}})
    with pytest.raises(UnsupportedInputError):
        tc_cup_length(B)


@settings(max_examples=40, deadline=None)
@given(random_monomial_algebras(max_dim=9))
def test_tc_matches_brute_force_on_random_algebras(H):
    """Tensor products of exterior and truncated-polynomial algebras, with a
    random change of basis of H^+ (so generators hide among decomposables)."""
    assert tc_cup_length(H) == brute_force_tc(H)


def test_tc_cup_length_t5():
    assert tc_cup_length(cohomology_algebra(torus(5), 5)) == 5


# ---------------------------------------------------------------------------
# Loop homology
# ---------------------------------------------------------------------------

def test_loop_dims_s3():
    dims = loop_homology_dims({2: 1}, 10)
    assert dims == {k: (1 if k % 2 == 0 else 0) for k in range(11)}


def test_loop_dims_s2():
    dims = loop_homology_dims({1: 1, 2: 1}, 12)
    assert all(dims[k] == 1 for k in range(13))


def brute_force_ul_monomials(degrees, n):
    """Oracle: count PBW monomials x1^{e1}...xr^{er}, odd-degree exponents <= 1."""
    counts = {k: 0 for k in range(n + 1)}

    def rec(idx, total):
        if total > n:
            return
        if idx == len(degrees):
            counts[total] += 1
            return
        d = degrees[idx]
        cap = 1 if d % 2 == 1 else n
        e = 0
        while e <= cap and total + e * d <= n:
            rec(idx + 1, total + e * d)
            e += 1

    rec(0, 0)
    return counts


def test_loop_dims_match_ul_monomial_count():
    # S2: L has basis in degrees 1 and 2
    assert loop_homology_dims({1: 1, 2: 1}, 12) == brute_force_ul_monomials([1, 2], 12)
    # a fatter Lie algebra: degrees 1,1,2,3,4
    dims = {1: 2, 2: 1, 3: 1, 4: 1}
    assert loop_homology_dims(dims, 10) == \
        brute_force_ul_monomials([1, 1, 2, 3, 4], 10)


def test_loop_dims_wedge_tensor_algebra():
    oracle = [2 ** k for k in range(9)]
    mm = minimal_model(wedge_two_s2_cohomology(), 9)
    dims = loop_homology_dims({k - 1: r for k, r in mm.ranks().items()}, 8)
    assert [dims[k] for k in range(9)] == oracle


def test_loop_dims_nonnegative_and_connected(s2):
    dims = loop_homology_dims({1: 3, 2: 2, 5: 1}, 9)
    assert dims[0] == 1
    assert all(v >= 0 for v in dims.values())


def test_loop_dims_cp2():
    # Omega CP^2 ~ S^1 x Omega S^5 rationally: L in degrees 1 and 4.
    dims = loop_homology_dims({1: 1, 4: 1}, 10)
    assert [dims[k] for k in range(11)] == [1, 1, 0, 0, 1, 1, 0, 0, 1, 1, 0]


def test_trichotomy_reports_refined_alpha():
    mm = minimal_model(wedge_two_s2_cohomology(), 8)
    rep = trichotomy_report(mm, 8)
    r, est = rep.refined_alpha
    assert r == 6 and est > 0
    assert rep.alpha_estimate >= est
