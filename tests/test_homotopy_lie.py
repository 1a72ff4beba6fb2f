import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rht.algebra import ONE, ZERO, AlgElement, GeneratorContext, apply_derivation
from rht.cdga import SullivanPresentation, cohomology_algebra
from rht.constructions import (cp, k_z, point, sphere, tensor_presentations, torus,
                               wedge_cohomology)
from rht.errors import RhtError, UnsupportedInputError
from rht.homotopy_lie import (LieTable, _free_exp, _free_log, _free_mul, _lower_central_series,
                              bch_product, homotopy_ranks,
                              hurewicz_matrix, lcs_filtrations,
                              lie_table, nilpotency_class, quadratic_part,
                              whitehead_product)
from rht.linalg import Echelon, RationalMatrix, lincomb, solve_linear
from rht.minimal_model import is_minimal, minimal_model

from conftest import (ZeroTouchDict, assert_matches_reference_sum, nonformal_uvw,
                      sphere2_model, wedge_two_s2_cohomology)
from test_cdga import pure_sullivan_algebras, random_image


def test_quadratic_part_examples(s2, uvw):
    assert quadratic_part(s2).d.image_of("b") == \
        s2.ctx.generator("a") ** 2
    assert quadratic_part(uvw).d.image_of("w") == \
        uvw.ctx.generator("u") * uvw.ctx.generator("v")
    # cubic and higher terms are dropped, quadratic ones kept
    ctx = GeneratorContext([("a", 2), ("c", 2), ("e", 4), ("b", 3), ("f", 7)])
    a, c, e = (ctx.generator(g) for g in ("a", "c", "e"))
    zero = AlgElement.zero(ctx)
    p = SullivanPresentation(ctx, {"a": zero, "c": zero, "e": zero,
                                   "b": a * a, "f": a ** 4 + a * c * e + e * e * 2})
    qp = quadratic_part(p)
    assert qp.d.image_of("f") == e * e * 2
    assert qp.d.image_of("b") == a * a


def wrapped_quadratic_part(p):
    """quadratic_part as it was, returning the presentation its wrapper held."""
    if not is_minimal(p):
        raise UnsupportedInputError("quadratic part requires a minimal presentation")
    ctx = p.ctx
    images = {g: p.d.image_of(g).word_part(2) for g in ctx.names}
    q = SullivanPresentation(ctx, images, name="%s.d1" % p.name)
    for g in ctx.names:
        if not apply_derivation(q.d, q.d.image_of(g)).is_zero():
            raise RhtError("d_1^2 != 0; input was not a valid minimal presentation")
    return q


def assert_quadratic_part_pinned(p):
    """quadratic_part(p) is the presentation the old wrapper held: same
    context, name and images (values and key order), or the same error; and
    lie_table reads the same d_1 off p itself, or refuses a non-minimal p."""
    try:
        want = wrapped_quadratic_part(p)
    except RhtError as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            quadratic_part(p)
        if isinstance(exc, UnsupportedInputError):
            with pytest.raises(UnsupportedInputError, match="requires a minimal presentation"):
                lie_table(p, 4)
        return
    got = quadratic_part(p)
    assert got.ctx is want.ctx and got.name == want.name
    assert [(g, list(got.d.image_of(g).terms.items())) for g in got.ctx.names] == \
        [(g, list(want.d.image_of(g).terms.items())) for g in want.ctx.names]
    bound = max(p.ctx.degrees, default=1)
    assert list(lie_table(p, bound).brackets.items()) == \
        list(lie_table(got, bound).brackets.items())


@pytest.mark.parametrize("make", [
    point, lambda: sphere(2), lambda: sphere(3), lambda: sphere(4), lambda: cp(1),
    lambda: cp(3), lambda: k_z(2), lambda: torus(3), nonformal_uvw,
    lambda: tensor_presentations(sphere(2), cp(2)),
    lambda: minimal_model(wedge_two_s2_cohomology(), 6).model,
    lambda: minimal_model(wedge_cohomology(cohomology_algebra(sphere(2), 2),
                                           cohomology_algebra(sphere(3), 3)), 7).model,
], ids=["point", "S2", "S3", "S4", "CP1", "CP3", "KZ2", "T3", "uvw", "S2xCP2",
        "S2vS2_model_6", "S2vS3_model_7"])
def test_quadratic_part_is_the_old_wrapped_presentation(make):
    assert_quadratic_part_pinned(make())


@settings(max_examples=60, deadline=None)
@given(pure_sullivan_algebras())
def test_quadratic_part_of_random_pure_models_is_pinned(case):
    # dy_i = x_i^n_i + ...: minimal when every n_i >= 2, else a linear term.
    assert_quadratic_part_pinned(case[0])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 4), min_size=1, max_size=4), st.data())
def test_quadratic_part_of_random_presentations_is_pinned(degrees, data):
    # Random images without their linear terms, so minimal: d_1^2 != 0 and
    # valid d_1 both occur (the pure models above bring the non-minimal ones).
    ctx = GeneratorContext([("g%d" % i, d) for i, d in enumerate(degrees)])
    images = {g: random_image(data.draw, ctx, d + 1) for g, d in ctx.gens}
    assert_quadratic_part_pinned(SullivanPresentation(
        ctx, {g: img - img.linear_part() for g, img in images.items()}))


def test_lie_table_refuses_a_non_minimal_presentation():
    ctx = GeneratorContext([("w", 1), ("u", 2)])
    p = SullivanPresentation(ctx, {"w": ctx.generator("u"), "u": AlgElement.zero(ctx)})
    with pytest.raises(UnsupportedInputError, match="requires a minimal presentation"):
        lie_table(p, 3)


# Frozen pairing oracle (hand evaluation of <v, s[x,y]> = (-1)^{deg y+1}
# <d_1 v, sx, sy>): on the even-sphere model [x,x] = +2y for the dual basis
# orientation <a, sx> = <b, sy> = 1, and the Whitehead transport multiplies
# by (-1)^{deg x} = -1.
S2_BRACKET_XX = 2
S2_WHITEHEAD_XX = -2


def test_s2_bracket_sign_frozen(s2):
    t = lie_table(quadratic_part(s2), 4)
    deg, vec = t.bracket((1, {0: 1}), (1, {0: 1}))
    assert deg == 2 and vec == {0: Fraction(S2_BRACKET_XX)}


def test_s2_whitehead_sign_frozen(s2):
    t = lie_table(quadratic_part(s2), 4)
    deg, vec = whitehead_product(t, (2, {0: 1}), (2, {0: 1}))
    assert deg == 3 and vec == {0: Fraction(S2_WHITEHEAD_XX)}


def test_uvw_brackets(uvw):
    t = lie_table(quadratic_part(uvw), 0)
    # [x_u, x_v] = x_w (hand-evaluated), [x_u, x_w] = 0
    assert t.bracket((0, {0: 1}), (0, {1: 1}))[1] == {2: Fraction(1)}
    assert t.bracket((0, {0: 1}), (0, {2: 1}))[1] == {}


def test_abelian_model_brackets_vanish():
    ctx = GeneratorContext([("x", 3), ("y", 5)])
    zero = AlgElement.zero(ctx)
    p = SullivanPresentation(ctx, {"x": zero, "y": zero})
    t = lie_table(quadratic_part(p), 8)
    assert not t.brackets


def test_lie_table_validates_jacobi(uvw):
    t = lie_table(quadratic_part(uvw), 0)
    ok, why = t.validate()
    assert ok, why


def test_homotopy_ranks_spheres():
    for n in (2, 4):
        H = cohomology_algebra(sphere(n), n)
        mm = minimal_model(H, 4 * n)
        ranks = homotopy_ranks(mm, 4 * n)
        expect = {k: 0 for k in range(2, 4 * n + 1)}
        expect[n] = 1
        expect[2 * n - 1] = 1
        assert ranks == expect


def test_homotopy_ranks_cp2():
    from rht.constructions import cp
    H = cohomology_algebra(cp(2), 4)
    mm = minimal_model(H, 8)
    ranks = homotopy_ranks(mm, 8)
    assert ranks[2] == 1 and ranks[5] == 1
    assert all(v == 0 for k, v in ranks.items() if k not in (2, 5))


def test_whitehead_degree():
    t = lie_table(quadratic_part(sphere2_model()), 6)
    deg, _ = whitehead_product(t, (2, {0: 1}), (3, {0: 1}))
    assert deg == 4


def test_whitehead_pi1_is_group_commutator(uvw):
    t = lie_table(quadratic_part(uvw), 0)
    # alpha = exp(x_u), beta = exp(x_v): commutator = exp([x_u, x_v]) in the
    # Heisenberg group, i.e. the class-2 BCH commutator is exactly the bracket.
    deg, vec = whitehead_product(t, (1, {0: 1}), (1, {1: 1}))
    assert deg == 1 and vec == {2: Fraction(1)}


def test_whitehead_out_of_bound_raises():
    from rht.errors import DegreeError
    t = lie_table(quadratic_part(sphere2_model()), 2)
    with pytest.raises(DegreeError):
        whitehead_product(t, (3, {0: 1}), (3, {0: 1}))


def test_abelian_whitehead_vanishes():
    ctx = GeneratorContext([("x", 3), ("y", 3)])
    zero = AlgElement.zero(ctx)
    p = SullivanPresentation(ctx, {"x": zero, "y": zero})
    t = lie_table(quadratic_part(p), 6)
    assert whitehead_product(t, (3, {0: 1}), (3, {1: 1}))[1] == {}


# ---------------------------------------------------------------------------
# Filtrations / nilpotency
# ---------------------------------------------------------------------------

def test_lcs_v1_zero_gives_nil_one():
    p = sphere2_model()
    rep = lcs_filtrations(p, 2)
    assert rep.nil_v == 1 and rep.nil_l == 1


def test_lcs_heisenberg(uvw):
    rep = lcs_filtrations(uvw, 1)
    assert rep.nil_v == 2 and rep.nil_l == 2
    assert rep.v_dims == [2, 3]


def test_lcs_depth_three_example():
    ctx = GeneratorContext([("u", 1), ("v", 1), ("z", 1), ("w", 1)])
    u, v, z = (ctx.generator(g) for g in "uvz")
    zero = AlgElement.zero(ctx)
    p = SullivanPresentation(ctx, {"u": zero, "v": zero, "z": u * v, "w": u * z})
    rep = lcs_filtrations(p, 1)
    assert rep.nil_v == 3 and rep.nil_l == 3


def test_lcs_zero_space():
    p = sphere2_model()
    rep = lcs_filtrations(p, 5)   # V^5 = 0
    assert rep.nil_v == 0 and rep.nil_l == 0


def test_lcs_non_nilpotent_is_infinite_on_both_sides():
    # du = 0, dv = uv: [x_u, x_v] = +-x_v, so the LCS stabilizes at a
    # nonzero subspace and the V-filtration stabilizes below V^1.
    ctx = GeneratorContext([("u", 1), ("v", 1)])
    u = ctx.generator("u")
    p = SullivanPresentation(ctx, {"u": AlgElement.zero(ctx),
                                   "v": u * ctx.generator("v")})
    rep = lcs_filtrations(p, 1, depth=12)
    assert rep.nil_v == "inf" and rep.nil_l == "inf"


def test_lcs_v1_times_v2_filtration():
    # du = da = 0, db = u a: delta(b) = u a lies in V^1 . ker delta, so
    # F_0 = <a> and F_1 = V^2; dually [x_u, x_a] = +-x_b spans the LCS step.
    ctx = GeneratorContext([("u", 1), ("a", 2), ("b", 2)])
    zero = AlgElement.zero(ctx)
    p = SullivanPresentation(ctx, {"u": zero, "a": zero,
                                   "b": ctx.generator("u") * ctx.generator("a")})
    rep = lcs_filtrations(p, 2)
    assert (rep.v_dims, rep.l_dims, rep.nil_v, rep.nil_l) == ([1, 2], [2, 1, 0], 2, 2)


def reference_lcs(p, k, depth=32):
    """(v_dims, l_dims, nil_v, nil_l) of lcs_filtrations with the V-side
    formed from AlgElement products over a hand-built monomial index."""
    pres = quadratic_part(p)
    ctx = pres.ctx
    vk_idx = [i for i, d in enumerate(ctx.degrees) if d == k]
    if not vk_idx:
        return [0], [0], 0, 0
    v1_idx = [i for i, d in enumerate(ctx.degrees) if d == 1]
    basis_k1 = pres.basis(k + 1)
    pos = {m: c for c, m in enumerate(basis_k1)}

    def relevant(mono):
        factors = [i for i, e in mono for _ in range(e)]
        if len(factors) != 2:
            return False
        return sorted(ctx.degrees[f] for f in factors) == [1, k]

    delta = {i: {pos[m]: c for m, c in pres.d.image_of(ctx.names[i]).terms.items()
                 if relevant(m)} for i in vk_idx}

    def preimage(ech):
        mat = RationalMatrix.from_columns(len(basis_k1), [ech.residue(delta[i]) for i in vk_idx])
        return solve_linear(mat).kernel

    def span_of_level(level):
        ech = Echelon()
        elems = [AlgElement(ctx, {((vk_idx[c], 1),): x for c, x in vec.items()})
                 for vec in level]
        if k == 1:
            prods = [elems[a] * elems[b] for a in range(len(elems))
                     for b in range(a, len(elems))]
        else:
            prods = [ctx.generator(ctx.names[u]) * f for u in v1_idx for f in elems]
        for prod in prods:
            if not prod.is_zero():
                ech.add({pos[m]: c for m, c in prod.terms.items()})
        return ech

    level = preimage(Echelon())
    v_dims, nil_v = [len(level)], ">=%d" % depth
    for _ in range(depth):
        if len(level) == len(vk_idx):
            nil_v = len(v_dims)
            break
        nxt = preimage(span_of_level(level))
        if len(nxt) == len(level):
            nil_v = "inf"
            break
        level = nxt
        v_dims.append(len(level))
    t = lie_table(pres, k - 1)
    l_dims, nil_l = _lower_central_series(t, k - 1, depth)
    return v_dims, l_dims, nil_v, 0 if t.dim(k - 1) == 0 else nil_l


def random_triangular_model(rng):
    """Generators of degree 1-3 in random order; each dg a random sum of
    products of two earlier cocycle generators (or 0), so d^2 = 0 and d is
    quadratic."""
    ctx = GeneratorContext([("g%d" % i, rng.randint(1, 3)) for i in range(rng.randint(3, 7))])
    images, cocycles = {}, []
    for name, deg in ctx.gens:
        pairs = [(a, b) for a in cocycles for b in cocycles
                 if a <= b and ctx.degree_of(a) + ctx.degree_of(b) == deg + 1]
        img = AlgElement.zero(ctx)
        if pairs and rng.random() < 0.7:
            for a, b in rng.choices(pairs, k=rng.randint(1, 3)):
                img = img + ctx.generator(a) * ctx.generator(b) * rng.choice([-2, -1, 1, 2])
        images[name] = img
        if img.is_zero():
            cocycles.append(name)
    return SullivanPresentation(ctx, images)


def test_lcs_filtrations_match_algelement_v_side_on_triangular_models():
    rng = random.Random(20261019)
    deep = 0
    for _ in range(150):
        p = random_triangular_model(rng)
        for k in (1, 2, 3):
            v_dims, l_dims, nil_v, nil_l = reference_lcs(p, k)
            rep = lcs_filtrations(p, k)
            assert (rep.v_dims, rep.l_dims, rep.nil_v, rep.nil_l) == \
                (v_dims, l_dims, nil_v, nil_l), (p.d, k)
            deep += k >= 2 and len(v_dims) > 1
    assert deep >= 20, deep


# ---------------------------------------------------------------------------
# Hurewicz
# ---------------------------------------------------------------------------

def test_hurewicz_s3_iso():
    from rht.constructions import sphere
    H = cohomology_algebra(sphere(3), 3)
    mm = minimal_model(H, 6)
    rep = hurewicz_matrix(mm, 3)
    assert rep.h_dim == 1 and rep.v_dim == 1 and rep.rank == 1


def test_hurewicz_wedge_iso_in_metastable_range():
    from conftest import wedge_two_s2_cohomology
    mm = minimal_model(wedge_two_s2_cohomology(), 4)
    rep = hurewicz_matrix(mm, 2)
    assert rep.h_dim == 2 and rep.v_dim == 2 and rep.rank == 2


def test_hurewicz_builds_only_its_degree(report_windows):
    from conftest import wedge_two_s2_cohomology
    from rht.cdga import cohomology
    mm = minimal_model(wedge_two_s2_cohomology(), 4)
    report_windows.clear()
    rep = hurewicz_matrix(mm, 2)
    assert report_windows == [(mm.model.name, 2, 2)]
    assert (rep.h_dim, rep.v_dim, rep.rank) == (2, 2, 2)
    # Representatives in degree k do not depend on the rest of the window.
    for k in range(5):
        assert cohomology(mm.model, k, k).representative_elements(k) == \
            cohomology(mm.model, 0, k).representative_elements(k)


def test_hurewicz_s2_k3_image_orthogonal_to_whitehead(s2):
    from rht.cdga import cohomology
    # H^3(S2 model) = 0, and the Whitehead product [x,x] spans L_2 = (V^3)^#;
    # the Hurewicz image must be the annihilator of the Whitehead span,
    # which is 0 here.
    rep = hurewicz_matrix(s2, 3)
    assert rep.h_dim == 0 and rep.v_dim == 1 and rep.rank == 0
    t = lie_table(quadratic_part(s2), 4)
    _, wh = t.bracket((1, {0: 1}), (1, {0: 1}))
    assert wh                      # the Whitehead span is everything
    # annihilator of a spanning set in a 1-dim space is 0 = image rank.


def test_hurewicz_s2_k4_zero_map(s2):
    rep = hurewicz_matrix(s2, 4)
    assert rep.h_dim == 0 and rep.rank == 0


@pytest.mark.parametrize("space", ["S2", "S3", "S2vS2", "CP2"])
def test_hurewicz_rank_of_its_sparse_columns_is_the_solver_rank(space):
    # On CP2 the class of a^2 in H^4 maps to V^4 = 0: rank 0 < h_dim.
    model = {"S2": sphere2_model, "S3": lambda: sphere(3), "CP2": lambda: cp(2),
             "S2vS2": lambda: minimal_model(wedge_two_s2_cohomology(), 5)}[space]()
    for k in range(2, 5):
        rep = hurewicz_matrix(model, k)
        assert isinstance(rep.matrix, list) and len(rep.matrix) == rep.h_dim
        solver = solve_linear(RationalMatrix.from_columns(rep.v_dim, rep.matrix))
        assert rep.rank == solver.rank


# ---------------------------------------------------------------------------
# BCH
# ---------------------------------------------------------------------------

def free_nilpotent_class3():
    basis = {0: ["a", "b", "c", "d", "e"]}
    br = {}

    def setbr(i, j, vec):
        br[((0, i), (0, j))] = dict(vec)
        br[((0, j), (0, i))] = {k: -v for k, v in vec.items()}

    setbr(0, 1, {2: Fraction(1)})
    setbr(0, 2, {3: Fraction(1)})
    setbr(1, 2, {4: Fraction(1)})
    return LieTable(basis, br, 0, name="freenil3")


def free_nilpotent_class4():
    basis = {0: ["a", "b", "c", "d", "e", "f", "g", "h"]}
    br = {}

    def setbr(i, j, vec):
        br[((0, i), (0, j))] = dict(vec)
        br[((0, j), (0, i))] = {k: -v for k, v in vec.items()}

    # c=[a,b]; d=[a,c]; e=[b,c]; f=[a,d]; g=[b,d]=[a,e]; h=[b,e]
    setbr(0, 1, {2: Fraction(1)})
    setbr(0, 2, {3: Fraction(1)})
    setbr(1, 2, {4: Fraction(1)})
    setbr(0, 3, {5: Fraction(1)})
    setbr(1, 3, {6: Fraction(1)})
    setbr(0, 4, {6: Fraction(1)})
    setbr(1, 4, {7: Fraction(1)})
    return LieTable(basis, br, 0, name="freenil4")


def test_free_nilpotent_tables_are_lie_algebras():
    ok3, why3 = free_nilpotent_class3().validate()
    ok4, why4 = free_nilpotent_class4().validate()
    assert ok3, why3
    assert ok4, why4


def test_bch_abelian():
    ctx = GeneratorContext([("x", 1), ("y", 1)])
    zero = AlgElement.zero(ctx)
    p = SullivanPresentation(ctx, {"x": zero, "y": zero})
    t = lie_table(quadratic_part(p), 0)
    assert bch_product(t, {0: Fraction(1)}, {1: Fraction(3)}) == \
        {0: Fraction(1), 1: Fraction(3)}


def test_bch_heisenberg_class2(uvw):
    t = lie_table(quadratic_part(uvw), 0)
    assert nilpotency_class(t) == 2
    z = bch_product(t, {0: Fraction(1)}, {1: Fraction(1)})
    assert z == {0: Fraction(1), 1: Fraction(1), 2: Fraction(1, 2)}


def test_bch_class3_coefficients():
    t = free_nilpotent_class3()
    z = bch_product(t, {0: Fraction(1)}, {1: Fraction(1)})
    assert z == {0: Fraction(1), 1: Fraction(1), 2: Fraction(1, 2),
                 3: Fraction(1, 12), 4: Fraction(-1, 12)}


def test_bch_inverses():
    t = free_nilpotent_class4()
    rng = random.Random(5)
    for _ in range(10):
        a = {i: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for i in range(2)}
        na = {i: -c for i, c in a.items()}
        assert bch_product(t, a, na) == {}


def test_bch_associativity_exact():
    rng = random.Random(17)
    for t in (free_nilpotent_class3(), free_nilpotent_class4()):
        c = nilpotency_class(t)
        for _ in range(20):
            a, b, cvec = ({i: Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                           for i in range(len(t.basis[0]))} for _ in range(3))
            left = bch_product(t, bch_product(t, a, b, c), cvec, c)
            right = bch_product(t, a, bch_product(t, b, cvec, c), c)
            assert left == right


def test_bch_symmetry_identity():
    # z(a, b) = -z(-b, -a): classical consequence of inverting exp a exp b.
    rng = random.Random(31)
    t = free_nilpotent_class4()
    dim = len(t.basis[0])
    for _ in range(10):
        a = {i: Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for i in range(dim)}
        b = {i: Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for i in range(dim)}
        na = {i: -c for i, c in a.items()}
        nb = {i: -c for i, c in b.items()}
        lhs = bch_product(t, a, b)
        rhs = {i: -c for i, c in bch_product(t, nb, na).items()}
        assert lhs == rhs


def test_bch_rejects_non_nilpotent():
    # sl2-like table is not nilpotent: [h,e]=2e, [h,f]=-2f, [e,f]=h
    basis = {0: ["e", "f", "h"]}
    br = {}

    def setbr(i, j, vec):
        br[((0, i), (0, j))] = dict(vec)
        br[((0, j), (0, i))] = {k: -v for k, v in vec.items()}

    setbr(2, 0, {0: Fraction(2)})
    setbr(2, 1, {1: Fraction(-2)})
    setbr(0, 1, {2: Fraction(1)})
    t = LieTable(basis, br, 0, name="sl2")
    with pytest.raises(UnsupportedInputError):
        nilpotency_class(t)


def pairing_loop_brackets(pres, bound):
    """The original per-(v, p, q) pairing loop, kept as the oracle of lie_table."""
    ctx = pres.ctx
    by_degree = {}
    for idx, deg in enumerate(ctx.degrees):
        by_degree.setdefault(deg - 1, []).append(idx)
    degrees = sorted(k for k in by_degree if 0 <= k <= bound)
    d1 = {v: pres.d.image_of(g).word_part(2).terms for v, g in enumerate(ctx.names)}

    def pairing(v, p, q, deg_y):
        total = Fraction(0)
        for mono, coeff in d1[v].items():
            factors = [i for i, e in mono for _ in range(e)]
            a, b = factors
            if a == b:
                total += coeff * (2 if a == p == q else 0)
            else:
                total += coeff * ((a == q and b == p)
                                  + (a == p and b == q) * (-1) ** (ctx.degrees[a] * ctx.degrees[b]))
        return (-1) ** (deg_y + 1) * total

    brackets = {}
    for k in degrees:
        for l in degrees:
            if k + l > bound or k + l not in by_degree:
                continue
            for i, p in enumerate(by_degree[k]):
                for j, q in enumerate(by_degree[l]):
                    vec = {m: pairing(v, p, q, l) for m, v in enumerate(by_degree[k + l])}
                    vec = {m: c for m, c in vec.items() if c != 0}
                    if vec:
                        brackets[((k, i), (l, j))] = vec
    return brackets


@pytest.mark.parametrize("target, n", [("wedge", 10), ("cp3", 9)])
def test_lie_table_matches_pairing_loop(target, n):
    H = wedge_two_s2_cohomology() if target == "wedge" else cohomology_algebra(cp(3), 6)
    qp = quadratic_part(minimal_model(H, n).model)
    t = lie_table(qp, n - 1)
    expected = pairing_loop_brackets(qp, n - 1)
    assert list(t.brackets.items()) == list(expected.items())


def full_loop_validate(t):
    """LieTable.validate over all ordered pairs and triples, kept as the oracle."""
    items = [(k, i) for k in sorted(t.basis) for i in range(t.dim(k))]
    for (k, i) in items:
        for (l, j) in items:
            if k + l > t.bound:
                continue
            sign = -1 if (k % 2) and (l % 2) else 1
            if lincomb([(1, t.bracket_of(k, i, l, j)), (sign, t.bracket_of(l, j, k, i))]):
                return False, "antisymmetry fails on (%d,%d),(%d,%d)" % (k, i, l, j)
    for (k, i) in items:
        for (l, j) in items:
            for (m, h) in items:
                if k + l + m > t.bound:
                    continue
                x, y, z = (k, {i: 1}), (l, {j: 1}), (m, {h: 1})
                lhs = t.bracket(x, t.bracket(y, z))[1]
                r1 = t.bracket(t.bracket(x, y), z)[1]
                r2 = t.bracket(y, t.bracket(x, z))[1]
                if lhs != lincomb([(1, r1), (-1 if (k % 2) and (l % 2) else 1, r2)]):
                    return False, "Jacobi fails on degrees (%d,%d,%d)" % (k, l, m)
    return True, None


def test_lie_validate_matches_full_loops():
    t = lie_table(quadratic_part(minimal_model(wedge_two_s2_cohomology(), 7).model), 6)
    assert t.validate() == full_loop_validate(t) == (True, None)
    rng = random.Random(7)
    failures = set()
    for trial in range(80):
        brackets = {key: dict(vec) for key, vec in t.brackets.items()}
        key = rng.choice(sorted(brackets))
        brackets[key] = {m: c + rng.randint(-1, 1) for m, c in brackets[key].items()}
        if trial % 2:       # keep antisymmetry, so that Jacobi has to catch it
            (k, i), (l, j) = key
            sign = 1 if (k % 2) and (l % 2) else -1
            brackets[((l, j), (k, i))] = {m: sign * c for m, c in brackets[key].items()}
        u = LieTable(t.basis, brackets, rng.randint(0, 6))
        got = u.validate()
        assert got == full_loop_validate(u)
        failures.add(got[1].split()[0] if got[1] else None)
    assert failures == {None, "antisymmetry", "Jacobi"}
    # Perturbations by Fraction(p, q), q <= 7: validate checks the table
    # scaled by the lcm of its denominators, which now exceeds 6.
    failures, lcms = set(), set()
    for trial in range(80):
        brackets = {key: dict(vec) for key, vec in t.brackets.items()}
        key = rng.choice(sorted(brackets))
        brackets[key] = {m: c + Fraction(rng.randint(-3, 3), rng.randint(1, 7))
                         for m, c in brackets[key].items()}
        if trial % 2:
            (k, i), (l, j) = key
            sign = 1 if (k % 2) and (l % 2) else -1
            brackets[((l, j), (k, i))] = {m: sign * c for m, c in brackets[key].items()}
        lcms.add(math.lcm(*[c.denominator for vec in brackets.values() for c in vec.values()]))
        u = LieTable(t.basis, brackets, rng.randint(0, 6))
        got = u.validate()
        assert got == full_loop_validate(u)
        failures.add(got[1].split()[0] if got[1] else None)
    assert failures == {None, "antisymmetry", "Jacobi"}
    assert max(lcms) > 6


def test_lie_validate_checks_diagonal_pairs_and_triples():
    # Each failure below sits on a repeated basis element, so a scan that
    # skips x == y or y == z misses it.
    one = Fraction(1)
    basis = {1: ["x"], 2: ["y"], 3: ["z"]}
    jacobi = LieTable(basis, {((1, 0), (1, 0)): {0: one}, ((1, 0), (2, 0)): {0: one},
                              ((2, 0), (1, 0)): {0: -one}}, 3)
    # [x,[x,x]] - [[x,x],x] + [x,[x,x]] = z + z + z
    assert jacobi.validate() == full_loop_validate(jacobi) == (
        False, "Jacobi fails on degrees (1,1,1)")
    square = LieTable({2: ["x"], 4: ["y"]}, {((2, 0), (2, 0)): {0: one}}, 4)
    # [x,x] + [x,x] = 2y for x even
    assert square.validate() == full_loop_validate(square) == (
        False, "antisymmetry fails on (2,0),(2,0)")


# -- the free associative algebra of BCH, pinned against the loops it replaced -

def reference_free_mul(x, y, cap):
    out = ZeroTouchDict()
    for w1, c1 in x.items():
        for w2, c2 in y.items():
            if len(w1) + len(w2) > cap:
                continue
            w = w1 + w2
            out[w] = out.get(w, ZERO) + c1 * c2
    return {w: c for w, c in out.items() if c != 0}, out.retouched


def reference_free_exp(x, cap):
    out = ZeroTouchDict({(): ONE})
    term, retouched = {(): ONE}, False
    fact = 1
    for m in range(1, cap + 1):
        term, r = reference_free_mul(term, x, cap)
        retouched |= r
        if not term:
            break
        fact *= m
        for w, c in term.items():
            out[w] = out.get(w, ZERO) + c / fact
    return out, retouched or out.retouched


def reference_free_log(x, cap):
    u = dict(x)
    u.pop((), None)
    out = ZeroTouchDict()
    term, retouched = {(): ONE}, False
    for m in range(1, cap + 1):
        term, r = reference_free_mul(term, u, cap)
        retouched |= r
        if not term:
            break
        sign = Fraction((-1) ** (m + 1), m)
        for w, c in term.items():
            out[w] = out.get(w, ZERO) + sign * c
    return out, retouched or out.retouched


# bch_product feeds these Fraction-valued sums only; 0 is among the coefficients.
FREE_ELEMENTS = st.dictionaries(
    st.lists(st.integers(0, 1), max_size=3).map(tuple),
    st.fractions(min_value=-2, max_value=2, max_denominator=3), max_size=4)


@settings(max_examples=100, deadline=None)
@given(FREE_ELEMENTS, FREE_ELEMENTS, st.integers(1, 4))
def test_free_algebra_sums_match_reference_loops(x, y, cap):
    ref, retouched = reference_free_mul(x, y, cap)
    assert_matches_reference_sum(_free_mul(x, y, cap), ref, retouched)
    ref, retouched = reference_free_exp(x, cap)
    assert_matches_reference_sum(_free_exp(x, cap), ref, retouched)
    ref, retouched = reference_free_log(x, cap)
    assert_matches_reference_sum(_free_log(x, cap), ref, retouched)
