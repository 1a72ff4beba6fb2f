import gc
import inspect
import random
import re
import sys
import weakref
from collections import Counter
from fractions import Fraction
from itertools import combinations, product as iproduct

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from rht.algebra import (ONE, ZERO, AlgElement, GeneratorContext, MonomialBases, as_q,
                         degree_basis, monomial_degree, monomial_divide, monomial_order,
                         substitute)
from rht.cdga import (CdgaMorphism, FiniteCDGA, FiniteMorphism, QuotientCDGA,
                      SullivanPresentation, cohomology, cohomology_algebra,
                      finite_truncation, is_quasi_iso, tensor_finite, tensor_mul,
                      tensor_positions, validate)
from rht.constructions import (PDAlgebra, SubspaceArrangement, arrangement_complex,
                               biquotient_model, config_space_model, cp, free_loop_model, k_z,
                               point, sphere, tensor_presentations, torus, truncated_poly,
                               wedge_cohomology)
from rht.errors import ContextMismatchError, DegreeError, RhtError, UnsupportedInputError
from rht.invariants import tc_cup_length
from rht.homotopy_lie import lie_table
from rht.linalg import Echelon, RationalMatrix, lincomb, solve_linear
from rht.minimal_model import minimal_model
import rht.algebra
import rht.cdga

from conftest import (ZeroTouchDict, assert_matches_reference_sum, leibniz_loop,
                      nonformal_uvw, random_monomial_algebras, sphere2_model,
                      wedge_two_s2_cohomology)


def test_validate_s2(s2):
    assert validate(s2).ok


def test_validate_catches_degree_mismatch():
    ctx = GeneratorContext([("a", 2), ("b", 3)])
    with pytest.raises(DegreeError):
        # deg(db) = 4 is required; a has degree 2
        SullivanPresentation(ctx, {"a": AlgElement.zero(ctx),
                                   "b": ctx.generator("a")})


def test_validate_catches_d_squared():
    ctx = GeneratorContext([("x", 1), ("y", 2)])
    x, y = ctx.generator("x"), ctx.generator("y")
    # d x = y, d y = x y: d^2 x = x y != 0.
    p = SullivanPresentation(ctx, {"x": y, "y": x * y})
    rep = validate(p)
    assert not rep.ok
    assert any("d^2" in v for v in rep.violations)


def test_quotient_ideal_stability_violation():
    ctx = GeneratorContext([("a", 2), ("b", 3)])
    a, b = ctx.generator("a"), ctx.generator("b")
    p = SullivanPresentation(ctx, {"a": AlgElement.zero(ctx), "b": a * a})
    # d(b) = a^2 which is not in the ideal generated by b alone.
    q = QuotientCDGA(p, [b])
    rep = validate(q)
    assert not rep.ok
    assert any("differential-stable" in v for v in rep.violations)


def test_cohomology_s2(s2):
    rep = cohomology(s2, 0, 8)
    assert rep.dims() == {0: 1, 1: 0, 2: 1, 3: 0, 4: 0, 5: 0, 6: 0, 7: 0, 8: 0}


def test_cohomology_odd_sphere():
    ctx = GeneratorContext([("u", 3)])
    p = SullivanPresentation(ctx, {"u": AlgElement.zero(ctx)}, name="S3")
    rep = cohomology(p, 0, 8)
    assert rep.dims() == {0: 1, 1: 0, 2: 0, 3: 1, 4: 0, 5: 0, 6: 0, 7: 0, 8: 0}
    assert rep.certified_above()  # all generators odd: Lambda V is finite


def brute_force_h(p, n):
    """Cohomology oracle by direct kernel/image dimension count over Q.

    Independent path: builds dense matrices from scratch and row-reduces
    with plain fraction arithmetic.
    """
    cx = p

    def rank(mat):
        mat = [row[:] for row in mat]
        rank = 0
        cols = len(mat[0]) if mat else 0
        row = 0
        for col in range(cols):
            piv = None
            for r in range(row, len(mat)):
                if mat[r][col] != 0:
                    piv = r
                    break
            if piv is None:
                continue
            mat[row], mat[piv] = mat[piv], mat[row]
            pv = mat[row][col]
            for r in range(len(mat)):
                if r != row and mat[r][col] != 0:
                    f = mat[r][col] / pv
                    mat[r] = [x - f * y for x, y in zip(mat[r], mat[row])]
            row += 1
            rank += 1
        return rank

    def d_matrix(k):
        rows = cx.dim(k + 1)
        cols = cx.dim(k)
        m = [[Fraction(0)] * cols for _ in range(rows)]
        for j in range(cols):
            for i, c in cx.differential_column(k, j).items():
                m[i][j] = c
        return m

    dims = {}
    for k in range(0, n + 1):
        dk = cx.dim(k)
        r_k = rank(d_matrix(k)) if dk else 0
        r_prev = rank(d_matrix(k - 1)) if cx.dim(k - 1) else 0
        dims[k] = dk - r_k - r_prev
    return dims


def test_nonformal_example_h1_h2(uvw):
    rep = cohomology(uvw, 0, 3)
    assert rep.dim(1) == 2 and rep.dim(2) == 2
    assert brute_force_h(uvw, 3) == rep.dims()
    # H^1 classes are [u], [v]; H^2 classes are [uw], [vw] up to span.
    labels = rep.pres.labels(2)
    reps = [rep.pres.from_coords(2, v) for v in rep.representatives(2)]
    for el in reps:
        assert not el.is_zero()


def test_is_quasi_iso_identity(s2):
    phi = CdgaMorphism(s2, s2, {g: s2.ctx.generator(g) for g in s2.ctx.names})
    ok, witness = is_quasi_iso(phi, 8)
    assert ok


def test_is_quasi_iso_to_finite_cohomology(s2):
    H = cohomology_algebra(s2, 2)
    phi = CdgaMorphism(s2, H, {"a": {"h2_0": 1}, "b": {}})
    ok, _ = is_quasi_iso(phi, 10)
    assert ok


def test_is_quasi_iso_source_below_target_window():
    from rht.cdga import FiniteMorphism
    A = FiniteCDGA({-1: ["e"], 0: ["1"]}, {}, {((0, 0), (0, 0)): {0: 1},
                                              ((0, 0), (-1, 0)): {0: 1},
                                              ((-1, 0), (0, 0)): {0: 1}}, name="A")
    B = FiniteCDGA({0: ["1"]}, {}, {((0, 0), (0, 0)): {0: 1}}, name="Q")
    for col in ({}, {0: 1}):    # the image of e lies outside B either way
        ok, witness = is_quasi_iso(FiniteMorphism(A, B, {-1: [col], 0: [{0: 1}]}), 2)
        assert not ok
        assert witness[-1] == (1, 0, 0) and witness[0] == (1, 1, 1)


def test_inclusion_of_q_is_not_quasi_iso():
    ctx = GeneratorContext([("u", 3)])
    p = SullivanPresentation(ctx, {"u": AlgElement.zero(ctx)})
    trivial = SullivanPresentation(GeneratorContext([]), {}, name="Q")
    phi = CdgaMorphism(trivial, p, {})
    ok, witness = is_quasi_iso(phi, 4)
    assert not ok
    assert witness[3] == (0, 1, 0)


def _free_euler_characteristic(p, n):
    """The free function `CohomologyReport.euler_characteristic` replaced."""
    rep = cohomology(p, 0, n)
    lo = rep.lo
    chi = sum((-1) ** (k % 2) * rep.dim(k) for k in range(lo, n + 1))
    return chi, rep.certified_above()


def test_report_euler_characteristic_matches_the_free_function():
    pd = PDAlgebra(cohomology_algebra(sphere(2), 2), 2)
    three_equal = arrangement_complex(SubspaceArrangement(3, [[[1, -1, 0]]] * 3))
    cases = [(sphere(2), 8), (sphere(3), 8), (cp(3), 10),
             (config_space_model(pd, 2).quotient, 11), (three_equal, 2)]
    pairs = [(cohomology(p, 0, n).euler_characteristic(), _free_euler_characteristic(p, n))
             for p, n in cases]
    assert [new for new, _ in pairs] == [old for _, old in pairs]
    assert [new for new, _ in pairs] == [(2, False), (0, True), (4, False), (2, True), (0, True)]
    assert cohomology(three_equal, 0, 2).lo == -1


def test_euler_characteristic_spheres(s2):
    assert cohomology(s2, 0, 8).euler_characteristic()[0] == 2
    ctx = GeneratorContext([("u", 3)])
    s3 = SullivanPresentation(ctx, {"u": AlgElement.zero(ctx)})
    chi, exact = cohomology(s3, 0, 8).euler_characteristic()
    assert chi == 0 and exact


def test_cocycle_images_are_cocycles(s2, uvw):
    # H(phi) well-defined: images of cocycles are cocycles.
    H = cohomology_algebra(s2, 2)
    phi = CdgaMorphism(s2, H, {"a": {"h2_0": 1}, "b": {}})
    rep = cohomology(s2, 0, 6)
    tgt = cohomology(H, 0, 6)
    for k in range(0, 7):
        for v in rep.representatives(k):
            img = phi.apply_coords(k, v)
            assert tgt.is_cocycle(k, img)


def test_truncation_agrees_with_presentation(s2):
    # FiniteCDGA window truncation has the same cohomology on the interior.
    A = finite_truncation(s2, 9)
    full = cohomology(s2, 0, 8)
    trunc = cohomology(A, 0, 8)
    for k in range(0, 9):
        assert full.dim(k) == trunc.dim(k)


def test_quotient_with_empty_ideal_matches_ambient(s2):
    q = QuotientCDGA(s2, [])
    assert validate(q).ok
    qh = cohomology(q, 0, 6)
    ph = cohomology(s2, 0, 6)
    assert qh.dims() == ph.dims()


def test_tensor_finite_is_valid_cdga(s2):
    H = cohomology_algebra(s2, 2)
    T = tensor_finite(H, H)
    assert validate(T).ok
    assert T.dim(0) == 1 and T.dim(2) == 2 and T.dim(4) == 1


def dense_tensor_table(A, B):
    """The product table of A (x) B from the loop over all pairs of basis pairs."""
    pairs, count = {}, {}
    for p in sorted(A.basis):
        for q in sorted(B.basis):
            for i in range(A.dim(p)):
                for j in range(B.dim(q)):
                    pairs[(p, i, q, j)] = (p + q, count.get(p + q, 0))
                    count[p + q] = count.get(p + q, 0) + 1
    mul = {}
    for t1, k1 in pairs.items():
        for t2, k2 in pairs.items():
            out = tensor_mul(A, B, {t1: ONE}, {t2: ONE})
            out = {pairs[t][1]: c for t, c in out.items() if c != 0}
            if out:
                mul[(k1, k2)] = out
    return mul


@settings(max_examples=30, deadline=None)
@given(random_monomial_algebras(max_dim=8), st.data())
def test_tensor_finite_table_matches_dense_loop(A, data):
    B = data.draw(st.one_of(random_monomial_algebras(max_dim=6),
                            st.integers(2, 4).map(lambda n: finite_truncation(nonformal_uvw(), n))))
    assert list(tensor_finite(A, B).mul.items()) == list(dense_tensor_table(A, B).items())


def test_cohomology_dims_bounded_by_cochain_dims(uvw, s2):
    H = cohomology_algebra(s2, 2)
    for p in (uvw, H):
        rep = cohomology(p, 0, 4)
        cx = p
        for k in range(0, 5):
            assert rep.dim(k) <= cx.dim(k)


def test_finite_morphism_matrix_chain_map(s2):
    from rht.cdga import FiniteMorphism
    H = cohomology_algebra(s2, 2)
    ident = FiniteMorphism(H, H, {0: [{0: 1}], 2: [{0: 1}]})
    assert ident.validate().ok
    ok, _ = is_quasi_iso(ident, 4)
    assert ok
    scale = FiniteMorphism(H, H, {0: [{0: 1}], 2: [{0: 2}]})
    assert scale.validate().ok            # multiplicative since a^2 = 0
    broken = FiniteMorphism(H, H, {0: [{0: 2}], 2: [{0: 1}]})
    rep = broken.validate()
    assert not rep.ok and any("unit" in v for v in rep.violations)


def test_cohomology_monomial_budget(monkeypatch):
    from rht.errors import BudgetExceededError
    # Degree 20 of Q[a_1..a_12], |a_i| = 2, has C(21, 11) = 352716 monomials.
    ctx = GeneratorContext([("a%d" % i, 2) for i in range(12)])
    p = SullivanPresentation(ctx, {g: AlgElement.zero(ctx) for g in ctx.names})
    with pytest.raises(BudgetExceededError):
        cohomology(p, 20, 20)
    # A quotient's standard monomials obey the same budget: degree 10 of
    # Q[x0..x3], |x_i| = 2, has C(8, 3) = 56 monomials, 36 of them outside (x0 x1).
    monkeypatch.setattr(rht.algebra, "MONOMIAL_BUDGET", 50)
    ctx = GeneratorContext([("x%d" % i, 2) for i in range(4)])
    ambient = SullivanPresentation(ctx, {g: AlgElement.zero(ctx) for g in ctx.names})
    free = QuotientCDGA(ambient, [])
    with pytest.raises(BudgetExceededError, match="^degree 10 basis exceeds 50 monomials$"):
        cohomology(free, 10, 10)
    monkeypatch.setattr(rht.algebra, "MONOMIAL_BUDGET", 56)
    assert free.dim(10) == 56       # the refused degree is built again, whole
    quot = QuotientCDGA(ambient, [ctx.generator("x0") * ctx.generator("x1")])
    assert cohomology(quot, 10, 10).dims() == {10: 36}


@pytest.mark.parametrize("make, lo, hi", [
    (lambda: cp(3), 0, 9),
    (lambda: cp(2), 3, 8),
    (nonformal_uvw, 1, 4),
    (lambda: arrangement_complex(SubspaceArrangement(
        3, [[[1, -1, 0]], [[0, 1, -1]], [[1, 0, -1]]], name="braid")), -6, 2),
])
def test_cohomology_reads_each_degree_once(make, lo, hi):
    """A report over [lo, hi] reads the columns of degrees lo - 1 ... hi once each."""
    p = make()
    lo = min(lo, p.min_degree()) if isinstance(p, FiniteCDGA) else lo
    calls = []
    column = p.differential_column
    p.differential_column = lambda k, i: calls.append((k, i)) or column(k, i)
    cohomology(p, lo, hi)
    assert sorted(calls) == [(k, i) for k in range(lo - 1, hi + 1) for i in range(p.dim(k))]


def dense_validate_finite(A):
    """The full N^2 / N^3 loops of FiniteCDGA validation, kept as the oracle."""
    violations = []
    items = [(k, i) for k in sorted(A.basis) for i in range(A.dim(k))]
    for (k, i) in items:
        col = A.differential_column(k, i)
        dd = {}
        for j, c in col.items():
            for l, c2 in A.differential_column(k + 1, j).items():
                dd[l] = dd.get(l, ZERO) + c * c2
        if any(v != 0 for v in dd.values()):
            violations.append("d^2(%s) != 0" % A.label(k, i))
    if A.differential_column(0, 0):
        violations.append("d(1) != 0")
    for (k, i) in items:
        if A.multiply_coords(0, {0: ONE}, k, {i: ONE}) != {i: ONE}:
            violations.append("1 * %s != %s" % (A.label(k, i), A.label(k, i)))
    for (p_, i) in items:
        for (q_, j) in items:
            ab = A.product(p_, i, q_, j)
            ba = A.product(q_, j, p_, i)
            sign = -1 if (p_ % 2) and (q_ % 2) else 1
            if {k: sign * v for k, v in ba.items()} != ab:
                violations.append("commutativity fails on (%s, %s)"
                                  % (A.label(p_, i), A.label(q_, j)))
            left = {}
            for k_, c in ab.items():
                for l, c2 in A.differential_column(p_ + q_, k_).items():
                    left[l] = left.get(l, ZERO) + c * c2
            right = {}
            for j2, c in A.differential_column(p_, i).items():
                for l, c2 in A.product(p_ + 1, j2, q_, j).items():
                    right[l] = right.get(l, ZERO) + c * c2
            sgn = -1 if p_ % 2 else 1
            for j2, c in A.differential_column(q_, j).items():
                for l, c2 in A.product(p_, i, q_ + 1, j2).items():
                    right[l] = right.get(l, ZERO) + sgn * c * c2
            if {k: v for k, v in left.items() if v != 0} != \
               {k: v for k, v in right.items() if v != 0}:
                violations.append("Leibniz fails on (%s, %s)"
                                  % (A.label(p_, i), A.label(q_, j)))
    for (p_, i) in items:
        for (q_, j) in items:
            for (r_, l) in items:
                lhs = A.multiply_coords(p_ + q_, A.product(p_, i, q_, j), r_, {l: ONE})
                rhs = A.multiply_coords(p_, {i: ONE}, q_ + r_, A.product(q_, j, r_, l))
                if lhs != rhs:
                    violations.append("associativity fails on (%s, %s, %s)"
                                      % (A.label(p_, i), A.label(q_, j), A.label(r_, l)))
    return violations


@st.composite
def small_arrangements(draw):
    """One to three subspaces of Q^2 or Q^3, each cut out by one or two nonzero rows."""
    n = draw(st.integers(2, 3))
    row = st.lists(st.integers(-1, 1), min_size=n, max_size=n).filter(any)
    return SubspaceArrangement(n, draw(st.lists(st.lists(row, min_size=1, max_size=2),
                                                min_size=1, max_size=3)))


def unit_products(basis):
    """The `mul` rows 1 * x = x * 1 = x of every basis element x."""
    return {pair: {i: ONE} for k in basis for i in range(len(basis[k]))
            for pair in (((0, 0), (k, i)), ((k, i), (0, 0)))}


@st.composite
def finite_tables(draw):
    """(basis, diff, mul) of a valid small FiniteCDGA, the rows fresh dicts.
    Arrangement complexes bring a nonempty `diff` and dim A^0 above 1."""
    base = draw(st.sampled_from(["monomial", "s2", "uvw", "arrangement"]))
    if base == "monomial":
        A = draw(random_monomial_algebras(max_dim=8))
    elif base == "arrangement":
        A = arrangement_complex(draw(small_arrangements()))
    else:
        A = finite_truncation(sphere2_model() if base == "s2" else nonformal_uvw(),
                              draw(st.integers(2, 5)))
    return (A.basis, {k: dict(v) for k, v in A.diff.items()},
            {k: dict(v) for k, v in A.mul.items()})


# p/q with q <= 3, 0 among them.
COEFFICIENTS = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def perturbed_finite_cdgas(draw):
    """A valid small FiniteCDGA, then a few random in-range edits of `mul` and
    `diff`; an explicit 0 among the coefficients is dropped by the constructor."""
    basis, diff, mul = draw(finite_tables())
    dim = {k: len(v) for k, v in basis.items()}
    items = [(k, i) for k in sorted(basis) for i in range(dim[k])]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["mul", "extend", "diff", "drop"]))
        (p, i), (q, j) = draw(st.sampled_from(items)), draw(st.sampled_from(items))
        if kind in ("mul", "extend") and dim.get(p + q):
            # "extend" widens a product's support instead of replacing it.
            old = mul.get(((p, i), (q, j)), {}) if kind == "extend" else {}
            mul[((p, i), (q, j))] = {**old, draw(st.integers(0, dim[p + q] - 1)):
                                     draw(COEFFICIENTS)}
        elif kind == "diff" and dim.get(p + 1):
            diff[(p, i)] = {draw(st.integers(0, dim[p + 1] - 1)): draw(COEFFICIENTS)}
        elif kind == "drop" and mul:
            del mul[draw(st.sampled_from(sorted(mul)))]
    return FiniteCDGA(basis, diff, mul, name="P")


@st.composite
def out_of_range_edits(draw):
    """Valid tables and one edit of a `mul` or `diff` row that names a missing
    basis element: a key's first or second source one past its degree's
    basis, or a row index one past its target degree's basis or negative,
    with any coefficient, 0 included.  Returns (basis, diff, mul, edited key)."""
    basis, diff, mul = draw(finite_tables())
    dim = {k: len(v) for k, v in basis.items()}
    items = [(k, i) for k in sorted(basis) for i in range(dim[k])]
    (p, i), (q, j) = draw(st.sampled_from(items)), draw(st.sampled_from(items))
    table = draw(st.sampled_from(["mul", "diff"]))
    bad = draw(st.sampled_from(["first", "second", "past", "negative"] if table == "mul"
                               else ["first", "past", "negative"]))
    i, j = dim[p] if bad == "first" else i, dim[q] if bad == "second" else j
    key, target = (((p, i), (q, j)), p + q) if table == "mul" else ((p, i), p + 1)
    index = (dim.get(target, 0) if bad == "past" else -1 if bad == "negative"
             else draw(st.integers(0, dim.get(target, 0))))
    rows = mul if table == "mul" else diff
    rows[key] = {**rows.get(key, {}), index: draw(COEFFICIENTS)}
    return basis, diff, mul, key


@settings(max_examples=80, deadline=None)
@given(out_of_range_edits())
def test_finite_cdga_refuses_a_missing_basis_element(tables):
    basis, diff, mul, key = tables
    with pytest.raises(DegreeError, match=r"key %s names a missing basis element$"
                       % re.escape(repr(key))):
        FiniteCDGA(basis, diff, mul)


def test_finite_cdga_refuses_what_cohomology_dropped():
    # A d(x) row with index -1 was built, and cohomology dropped that entry
    # without saying so: Betti numbers 1, 1, 1, where d(x) = y gives 1, 0, 0.
    # An index past the basis is refused even with coefficient 0.
    basis = {0: ["1"], 1: ["x"], 2: ["y"]}
    unit = unit_products(basis)
    for row in ({-1: 1}, {0: 1, 1: 0}):
        with pytest.raises(DegreeError, match=r"^FiniteCDGA diff key \(1, 0\) names"):
            FiniteCDGA(basis, {(1, 0): row}, unit)
    A = FiniteCDGA(basis, {(1, 0): {0: 1}}, unit)
    assert cohomology(A, 0, 2).dims() == {0: 1, 1: 0, 2: 0}


def test_finite_cdga_drops_explicit_zeros():
    # ab = 0 given as {0: 0}: validation read it as ab != -ba = 0 and
    # reported "commutativity fails on (a, b)".
    basis = {0: ["1"], 2: ["a", "b"], 4: ["c"]}
    mul = unit_products(basis)
    mul[((2, 0), (2, 1))] = {0: 0}
    A = FiniteCDGA(basis, {}, mul)
    assert ((2, 0), (2, 1)) not in A.mul
    assert validate(A).ok


def test_disconnected_tables_validate_and_the_connected_consumers_refuse_them():
    # Q x Q: 1 = (1, 1) and the idempotent e = (1, 0) span degree 0.  It is a
    # cdga; PD algebras, TC cup length and wedge sums need H^0 = Q.
    basis = {0: ["1", "e"]}
    A = FiniteCDGA(basis, {}, {((0, 0), (0, 0)): {0: 1}, ((0, 0), (0, 1)): {1: 1},
                               ((0, 1), (0, 0)): {1: 1}, ((0, 1), (0, 1)): {1: 1}}, name="QxQ")
    assert validate(A).ok
    with pytest.raises(UnsupportedInputError, match="connected"):
        PDAlgebra(A, 0)
    with pytest.raises(UnsupportedInputError, match="connected"):
        tc_cup_length(A)
    H = cohomology_algebra(sphere(2), 2)
    for pair in ((A, H), (H, A)):
        with pytest.raises(UnsupportedInputError, match="connected"):
            wedge_cohomology(*pair)


def one_sided_leibniz(side):
    """1, a, b, t, s in degrees 0, 1, 1, 2, 3 with unit products, ab = ba = 0,
    and one nonzero Leibniz term on (a, b): (da)b with da = t and tb = s the
    one other key ("da.b"), or a(db) with db = t and at = s ("a.db")."""
    basis = {0: ["1"], 1: ["a", "b"], 2: ["t"], 3: ["s"]}
    mul = unit_products(basis)
    mul[((2, 0), (1, 1)) if side == "da.b" else ((1, 0), (2, 0))] = {0: ONE}
    d = (1, 0) if side == "da.b" else (1, 1)
    return FiniteCDGA(basis, {d: {0: ONE}}, mul, name=side)


@settings(max_examples=80, deadline=None)
@given(perturbed_finite_cdgas())
@example(one_sided_leibniz("da.b"))
@example(one_sided_leibniz("a.db"))
def test_validate_finite_matches_dense_loops(A):
    assert validate(A).violations == dense_validate_finite(A)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(1, 4), min_size=1, max_size=4), st.data())
def test_multiply_coords_matches_element_product(degrees, data):
    ctx = GeneratorContext([("g%d" % i, d) for i, d in enumerate(degrees)])
    cx = SullivanPresentation(ctx, {g: AlgElement.zero(ctx) for g in ctx.names})

    def vector(k):
        if not cx.dim(k):
            return {}
        return data.draw(st.dictionaries(st.integers(0, cx.dim(k) - 1),
                                         st.integers(-3, 3).map(Fraction), max_size=4))
    p, q = data.draw(st.integers(0, 6)), data.draw(st.integers(0, 6))
    u, v = vector(p), vector(q)
    x = cx.from_coords(p, u) * cx.from_coords(q, v)
    want = cx.to_coords(x, p + q) if not x.is_zero() else {}
    assert list(cx.multiply_coords(p, u, q, v).items()) == list(want.items())


# -- quotients: the Groebner normal forms against every product m * g ---------

def full_product_span(quot, k):
    """The ideal span at degree k from every product m * g of an ambient
    monomial and an ideal generator, as a criterion-free loop forms it."""
    amb, ech = quot.ambient, Echelon()
    for g in quot.ideal:
        dg = g.degree()
        if dg > k:
            continue
        gc = amb.to_coords(g, dg)
        for i in range(amb.dim(k - dg)):
            prod = amb.multiply_coords(k - dg, {i: ONE}, dg, gc)
            if prod:
                ech.add(prod)
    return ech


def assert_span_matches_full_products(quot, top, vectors):
    """The standard monomials, `project`, `differential_column` and
    `multiply_coords` agree with the full product loop at every degree up to
    `top`: the labels are the ambient labels of the loop's non-pivot columns,
    and each vector is the loop's residue on them, in values and `Fraction`
    types (an integral entry of a differential column is an int), keys
    ascending.  `vectors(k)` gives the ambient vectors to project at degree
    k; the first projection of each degree multiplies the others, and the
    sums of the bases of two degrees, with int coefficients, multiply to
    Fractions."""
    amb, spans, free, projected = quot.ambient, {}, {}, {}

    def reference(k, vec):
        if k not in spans:
            spans[k] = full_product_span(quot, k)
            free[k] = [i for i in range(amb.dim(k)) if i not in spans[k].position]
        return sorted((free[k].index(c), Fraction, v) for c, v in spans[k].residue(vec).items())

    def typed(vec):
        return [(i, type(v), v) for i, v in vec.items()]

    for k in range(top + 1):
        reference(k, {})
        labels = amb.labels(k)
        assert quot.labels(k) == [labels[i] for i in free[k]] and quot.dim(k) == len(free[k])
        for i, m in enumerate(free[k]):
            want = reference(k + 1, amb.differential_column(k, m))
            assert typed(quot.differential_column(k, i)) == [
                (j, int if v.denominator == 1 else Fraction, v) for j, _, v in want]
        projected[k] = []
        for vec in vectors(k):
            projected[k].append(quot.project(k, vec))
            assert typed(projected[k][-1]) == reference(k, vec)
    for p in range(top + 1):
        for q in range(top + 1 - p):
            ones = dict.fromkeys(range(len(free[p])), 1), dict.fromkeys(range(len(free[q])), 1)
            for u, v in list(iproduct(projected[p][:1], projected[q])) + [ones]:
                lift = {free[p][i]: c for i, c in u.items()}, {free[q][j]: c for j, c in v.items()}
                want = reference(p + q, amb.multiply_coords(p, lift[0], q, lift[1]))
                assert typed(quot.multiply_coords(p, u, q, v)) == want


@st.composite
def random_quotients(draw):
    """A free ambient with odd and even generators and zero differential,
    modulo 2-4 random homogeneous elements of degree 1-4 (not
    differential-stable) and 0-2 squares c * x^2 of even generators, each at
    the front of the list or at a random place.  An even generator comes
    first, so a leading monomial often holds only odd ones, as y0 * y1 in
    y0 * y1 - x does."""
    degrees = [2, 1, 1] + draw(st.lists(st.sampled_from([1, 1, 2, 3, 4]), min_size=1, max_size=3))
    ctx = GeneratorContext([("g%d" % i, d) for i, d in enumerate(degrees)])
    amb = SullivanPresentation(ctx, {g: AlgElement.zero(ctx) for g in ctx.names})
    ideal = []
    for _ in range(draw(st.integers(2, 4))):
        basis = amb.basis(draw(st.integers(1, 4)))
        if basis:
            picks = draw(st.lists(st.sampled_from(basis), min_size=1, max_size=4, unique=True))
            coeffs = draw(st.lists(st.sampled_from([1, -1, 2, -3]), min_size=len(picks),
                                   max_size=len(picks)))
            ideal.append(AlgElement(ctx, dict(zip(picks, coeffs))))
    evens = [i for i, d in enumerate(degrees) if d % 2 == 0]
    for x in draw(st.lists(st.sampled_from(evens), max_size=2, unique=True)):
        square = AlgElement(ctx, {((x, 2),): draw(st.sampled_from([1, -1, 2, -3]))})
        ideal.insert(draw(st.one_of(st.just(0), st.integers(0, len(ideal)))), square)
    return QuotientCDGA(amb, ideal)


@settings(max_examples=60, deadline=None)
@given(random_quotients(), st.data())
def test_ideal_span_criterion_matches_full_products(quot, data):
    # The guard of the Buchberger steps: a basis grown without its S-pairs, or
    # without the products x * f of odd x, fails here on random ideals, while
    # the configuration-space ideals below need neither.
    def vectors(k):
        n = quot.ambient.dim(k)
        if not n:
            return []
        keys = st.lists(st.integers(0, n - 1), max_size=6, unique=True)
        return [dict(zip(ks, data.draw(st.lists(st.integers(-3, 3).map(Fraction),
                                                 min_size=len(ks), max_size=len(ks)))))
                for ks in [data.draw(keys) for _ in range(2)]]
    assert_span_matches_full_products(quot, 8, vectors)


def _config_space(space, m, k):
    return config_space_model(PDAlgebra(cohomology_algebra(space, m), m), k).quotient


# name -> (builder, truncation degree n): the catalog constructors, products,
# free loop models and a biquotient of catalog inputs, configuration spaces
# F(S^2, 3), F(S^3, 3) and F(CP^2, 3), and a minimal model.
AXIOM_CASES = {
    "point": (point, 4),
    "S2": (lambda: sphere(2), 10),
    "S3": (lambda: sphere(3), 7),
    "CP2": (lambda: cp(2), 12),
    "K(Z,3)": (lambda: k_z(3), 7),
    "T3": (lambda: torus(3), 3),
    "Q[x]/x^3": (lambda: truncated_poly(2, 3), 6),
    "H(S2) v H(CP2)": (lambda: wedge_cohomology(cohomology_algebra(sphere(2), 2),
                                                 cohomology_algebra(cp(2), 4)), 6),
    "S2 x S3": (lambda: tensor_presentations(sphere(2), sphere(3)), 7),
    "CP2 x S2": (lambda: tensor_presentations(cp(2), sphere(2)), 6),
    "LS2": (lambda: free_loop_model(sphere(2)), 8),
    "LCP2": (lambda: free_loop_model(cp(2)), 8),
    "biquotient": (lambda: biquotient_model([3, 5], [1], [1], lambda t: [t[0] ** 2, t[0] ** 3],
                                            lambda s: [s[0] ** 2, s[0] ** 3]), 9),
    "F(S2,3)": (lambda: _config_space(sphere(2), 2, 3), 8),
    "F(S3,3)": (lambda: _config_space(sphere(3), 3, 3), 6),
    "F(CP2,3)": (lambda: _config_space(cp(2), 4, 3), 8),
    "M(H(S2vS2))": (lambda: minimal_model(wedge_two_s2_cohomology(), 5).model, 6),
}


@pytest.mark.parametrize("case", sorted(AXIOM_CASES))
def test_cdga_axioms_hold_through_the_coordinate_protocol(case):
    # `finite_truncation` reads only dim, labels, differential_column and
    # multiply_coords, and `validate` then checks d^2 = 0, the unit, graded
    # commutativity, the Leibniz rule and associativity on basis elements
    # (products above n are dropped, which keeps every axiom).  The check
    # knows nothing of how a presentation stores its monomials.
    build, n = AXIOM_CASES[case]
    p = build()
    assert validate(p).violations == []
    assert validate(finite_truncation(p, n)).violations == []


@settings(max_examples=40, deadline=None)
@given(random_quotients())
def test_cdga_axioms_hold_on_random_quotients(quot):
    assert validate(quot).violations == []      # d preserves the ideal
    assert validate(finite_truncation(quot, 6)).violations == []


def fixed_quotients():
    """(quotient, top) pairs: an exterior quotient where y1 * (y0 + y2) =
    -y0*y1 + y1*y2 mixes signs, an ideal that holds a constant, whose quotient
    is 0, x = y0 * y1 with x first: its leading monomial y0 * y1 gives x * y0
    and x * y1 by the odd products and then x^2 by an S-pair, a square after
    the other generators, and the configuration spaces of the
    quotient-certificate test, F(S^3, 3) and F(CP^2, 3), which has no square
    relations."""
    ctx = GeneratorContext([("y0", 1), ("y1", 1), ("y2", 1), ("x", 2)])
    y0, y1, y2, x = (ctx.generator(g) for g in ctx.names)
    amb = SullivanPresentation(ctx, {g: AlgElement.zero(ctx) for g in ctx.names})
    quotients = [(QuotientCDGA(amb, [y0 + y2, x * y1 - y0 * y1 * y2]), 15)]
    unit_ideal = QuotientCDGA(amb, [y0 * y1 - x, AlgElement.unit(ctx, Fraction(3, 2))])
    quotients.append((unit_ideal, 6))
    ctx = GeneratorContext([("x", 2), ("y0", 1), ("y1", 1)])
    x, y0, y1 = (ctx.generator(g) for g in ctx.names)
    amb = SullivanPresentation(ctx, {g: AlgElement.zero(ctx) for g in ctx.names})
    quotients.append((QuotientCDGA(amb, [y0 * y1 - x]), 8))
    ctx = GeneratorContext([("a", 1), ("x", 2), ("b", 1), ("y", 2), ("z", 2)])
    a, x, b, y, z = (ctx.generator(g) for g in ctx.names)
    amb = SullivanPresentation(ctx, {g: AlgElement.zero(ctx) for g in ctx.names})
    quotients.append((QuotientCDGA(amb, [b * z, a * b + x + y + z, z * z]), 15))
    for m, k, top in [(2, 2, 15), (3, 2, 15), (2, 3, 15), (4, 2, 15), (3, 3, 13)]:
        pd = PDAlgebra(cohomology_algebra(sphere(m), m), m)
        quotients.append((config_space_model(pd, k).quotient, top))
    quotients.append((config_space_model(PDAlgebra(cohomology_algebra(cp(2), 4), 4), 3).quotient, 13))
    return quotients


def test_ideal_span_criterion_matches_full_products_on_fixed_quotients():
    quotients = fixed_quotients()
    unit_ideal = quotients[1][0]
    rng = random.Random(7)
    for quot, top in quotients:
        def vectors(k):
            n = quot.ambient.dim(k)
            return [{i: Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                     for i in rng.sample(range(n), min(n, 8))} for _ in range(3)] if n else []
        assert_span_matches_full_products(quot, top, vectors)
    assert all(unit_ideal.dim(k) == 0 for k in range(7))
    with pytest.raises(RhtError, match="unit of the ambient algebra lies in the ideal"):
        unit_ideal.unit_coords()


def coprime_pair_certificate(quot, top):
    """Grow the basis through degree top, then form here, with `AlgElement`
    products, the S-polynomial of every two basis elements whose leading
    monomials share no generator and whose lcm has degree <= top, and assert
    that each reduces to 0: the pairs the growth skips certify nothing.
    Returns the number of pairs checked."""
    quot.dim(top)
    ctx = quot.ambient.ctx
    basis = [(lead, AlgElement(ctx, f)) for lead, f in quot._lead.items()]
    checked = 0
    for (a, f), (b, g) in combinations(basis, 2):
        if {j for j, _ in a} & {j for j, _ in b}:
            continue
        lcm = tuple(sorted(a + b))
        if monomial_degree(ctx, lcm) > top:
            continue
        bf, ag = AlgElement(ctx, {b: 1}) * f, AlgElement(ctx, {a: 1}) * g
        s = bf * ag.terms[lcm] - ag * bf.terms[lcm]
        assert lcm not in s.terms and quot._reduce(s.terms) == {}, (a, b)
        checked += 1
    return checked


@settings(max_examples=60, deadline=None)
@given(random_quotients())
def test_skipped_pairs_reduce_to_zero_on_random_quotients(quot):
    coprime_pair_certificate(quot, 8)


def test_skipped_pairs_reduce_to_zero_on_fixed_quotients():
    # The quotients of the full-product comparison above: 74 coprime pairs,
    # 70 of them in the configuration spaces (the leading monomials, and so
    # these counts, do not depend on the order in which the basis grows).
    checked = [coprime_pair_certificate(quot, top) for quot, top in fixed_quotients()]
    assert checked == [1, 0, 1, 2, 2, 0, 15, 1, 13, 39]


def assert_sweep_matches_brute_force(quot, top):
    """Grow the basis through degree top and check the standard-monomial sweep
    against every leading monomial: each degree's standard monomials are the
    ambient basis monomials that no leading monomial divides, in basis order;
    each memoized reducer of a monomial m is (m / L, f), L the first leading
    monomial in `_lead` order that divides m and f its basis element; and each
    basis element, read in Fractions, lies in the ideal span (the full product
    loop's residue is 0) and is 1 at its leading monomial, its first, with
    each value an int exactly when it is integral."""
    quot.dim(top)
    amb, leads = quot.ambient, list(quot._lead)
    for k in range(top + 1):
        want = [m for m in amb.basis(k) if all(monomial_divide(m, a) is None for a in leads)]
        assert quot._standard_monomials(k) == want, k
    for m, hit in quot._reducers.items():
        if hit is not None:
            first = next(a for a in leads if monomial_divide(m, a) is not None)
            assert hit[0] == monomial_divide(m, first) and hit[1] is quot._lead[first], m
    spans = {}
    for lead, f in quot._lead.items():
        k = monomial_degree(amb.ctx, lead)
        spans.setdefault(k, full_product_span(quot, k))
        assert min(f, key=monomial_order) == lead and f[lead] == 1, lead
        assert [type(c) for c in f.values()] == [
            int if Fraction(c).denominator == 1 else Fraction for c in f.values()], lead
        assert spans[k].residue(amb.to_coords(AlgElement(amb.ctx, f), k)) == {}, lead


@settings(max_examples=60, deadline=None)
@given(random_quotients())
def test_sweep_matches_brute_force_on_random_quotients(quot):
    assert_sweep_matches_brute_force(quot, 8)


def test_sweep_matches_brute_force_on_fixed_quotients():
    for quot, _ in fixed_quotients():
        assert_sweep_matches_brute_force(quot, 8)


def test_ideal_generators_over_another_context_are_refused():
    # b^2 over another context would be read as y^2 = 0 in the ambient's, and
    # the quotient would be the ambient itself: dims 1, 0, 1, 1, 1, ...
    ctx = GeneratorContext([("x", 2), ("y", 3)])
    amb = SullivanPresentation(ctx, {g: AlgElement.zero(ctx) for g in ctx.names})
    for other, name in ((GeneratorContext([("b", 2)]), "b"),
                        (GeneratorContext([("y", 3), ("x", 2)]), "x")):     # reordered
        b = other.generator(name)
        with pytest.raises(ContextMismatchError):
            QuotientCDGA(amb, [ctx.generator("x") ** 2, b * b])
    # over the ambient's context or an initial segment of it, the same quotient
    segment = GeneratorContext([("x", 2)])
    for x in (ctx.generator("x"), segment.generator("x")):
        dims = cohomology(QuotientCDGA(amb, [x * x]), 0, 8).dims()
        assert [dims[k] for k in range(9)] == [1, 0, 1, 1, 0, 1, 0, 0, 0]


def test_ideal_span_skips_redundant_products(monkeypatch):
    # Every product m * g over degrees 0..top is 8,062 and 13,674 vectors.
    # The Groebner basis (16 and 14 elements) and the standard monomials
    # through degree top take 368 and 336 products of two monomials: its
    # S-pairs, products x * f and their reductions.  The product criterion
    # skips 91 of the 120 pairs and 70 of the 91, so 51 and 49 candidates are
    # reduced, where forming every S-pair reduced 142 and 119.
    products = []
    mul = rht.algebra.monomial_mul
    monkeypatch.setattr(rht.algebra, "monomial_mul", lambda *args: products.append(1) or mul(*args))
    for m, top, bound in [(3, 13, 368), (2, 11, 336)]:
        quot = config_space_model(PDAlgebra(cohomology_algebra(sphere(m), m), m), 4,
                                  max_k=4).quotient
        del products[:]
        quot.dim(top)
        assert len(products) <= bound, (m, len(products))


def test_configuration_space_cohomology_enumerates_no_ambient_basis(monkeypatch):
    # Quotient coordinates are standard monomials, built from those of lower
    # degrees, and columns are normal forms of Leibniz columns: no ambient
    # monomial basis is listed, also in the degrees where the quotient is 0.
    for m, top in [(2, 10), (3, 12)]:
        quot = config_space_model(PDAlgebra(cohomology_algebra(sphere(m), m), m), 4,
                                  max_k=4).quotient
        listed = []
        basis = MonomialBases.basis
        monkeypatch.setattr(MonomialBases, "basis",
                            lambda self, k: listed.append(k) or basis(self, k))
        cohomology(quot, 0, top)
        monkeypatch.undo()
        assert listed == [], (m, listed)


def test_ideal_span_fills_lower_degrees_without_recursion():
    # The first query at degree 300 fills degrees 0..299 first; a recursive
    # fill would need a frame per degree.
    quot = config_space_model(PDAlgebra(cohomology_algebra(sphere(2), 2), 2), 2).quotient
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        assert quot.dim(300) == 0
    finally:
        sys.setrecursionlimit(limit)


# -- differential columns by the Leibniz rule, pinned against leibniz_loop

def reference_column(pres, mono):
    """d(mono) in coordinates through the element path of the test-local
    Leibniz loop: values, value types (int for an integral value, else
    Fraction) and key order as `differential_column` must give them."""
    k = sum(pres.ctx.degrees[i] * e for i, e in mono)
    img = leibniz_loop(pres.d, AlgElement(pres.ctx, {mono: ONE}))
    return [(i, int if c.denominator == 1 else Fraction, c)
            for i, c in pres.to_coords(img, k + 1).items()]


def assert_columns_match_reference(pres, monos):
    for mono in monos:
        k = sum(pres.ctx.degrees[i] * e for i, e in mono)
        col = pres.differential_column(k, pres.index(k)[mono])
        assert [(i, type(c), c) for i, c in col.items()] == reference_column(pres, mono)


def random_image(draw, ctx, degree):
    """A random element of degree `degree`, rational coefficients from a few
    values, so that Leibniz terms often cancel (d^2 = 0 is not required)."""
    basis = degree_basis(ctx, degree)
    coeff = st.builds(Fraction, st.sampled_from([-2, -1, 1, 2]), st.sampled_from([1, 3]))
    picks = draw(st.lists(st.sampled_from(basis), max_size=4)) if basis else []
    return AlgElement(ctx, {m: draw(coeff) for m in picks})


def random_monomials(draw, ctx, count):
    """Monomials, exponents up to 4 on the even generators, in a random query order."""
    exps = st.tuples(*(st.integers(0, 1) if odd else st.integers(0, 4) for odd in ctx.odd))
    return [tuple((i, e) for i, e in enumerate(v) if e)
            for v in draw(st.lists(exps, min_size=1, max_size=count))]


@settings(max_examples=120, deadline=None)
@given(st.lists(st.integers(1, 4), min_size=1, max_size=4), st.data())
def test_leibniz_columns_match_apply_derivation(degrees, data):
    ctx = GeneratorContext([("g%d" % i, d) for i, d in enumerate(degrees)])
    pres = SullivanPresentation(ctx, {g: random_image(data.draw, ctx, d + 1)
                                      for g, d in ctx.gens})
    assert_columns_match_reference(pres, random_monomials(data.draw, ctx, 8))


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(1, 4), min_size=1, max_size=3), st.integers(1, 4), st.data())
def test_sibling_extensions_keep_their_own_columns(degrees, z_degree, data):
    # Two extensions of one parent give the new generator z different images;
    # each is queried after the other, and neither sees the other's columns.
    ctx = GeneratorContext([("g%d" % i, d) for i, d in enumerate(degrees)])
    parent = SullivanPresentation(ctx, {g: random_image(data.draw, ctx, d + 1)
                                        for g, d in ctx.gens})
    assert_columns_match_reference(parent, random_monomials(data.draw, ctx, 4))
    new_ctx = ctx.extend([("z", z_degree)])
    first, second = (parent.extend([("z", z_degree)],
                                   {"z": random_image(data.draw, new_ctx, z_degree + 1)})
                     for _ in range(2))
    monos = random_monomials(data.draw, new_ctx, 6)
    for pres in (first, second, first):
        assert_columns_match_reference(pres, monos)
        assert_columns_match_reference(pres, random_monomials(data.draw, new_ctx, 3))


# Minimal presentations to rescale, each with the top degree of its checks.
RESCALED_BASES = {
    "S2": (lambda: sphere(2), 8),
    "CP2": (lambda: cp(2), 9),
    "uvw": (nonformal_uvw, 3),
    "S2 x S3": (lambda: tensor_presentations(sphere(2), sphere(3)), 7),
    "LS2": (lambda: free_loop_model(sphere(2)), 5),
    "M(H(S2vS2))": (lambda: minimal_model(wedge_two_s2_cohomology(), 4).model, 5),
}


def rescaled(base, scales):
    """The presentation phi^-1 d phi for phi(g) = scales[g] * g: minimal with
    d^2 = 0 as the base is, with rational image coefficients."""
    ctx = base.ctx
    phi = {g: ctx.generator(g).scale(c) for g, c in scales.items()}
    return SullivanPresentation(ctx, {g: substitute(base.d.image_of(g), phi, ctx).scale(1 / c)
                                      for g, c in scales.items()}, name=base.name)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(RESCALED_BASES)), st.data())
def test_integer_columns_inside_and_fractions_outside(case, data):
    # Inside the engine an integral value is an int: every differential
    # column, free or of a quotient, has the values and key order of the
    # Fraction reference, an entry an int exactly when it is integral.  What
    # leaves the package stays a Fraction: images, AlgElement terms,
    # solve_linear's kernel and solutions, Echelon residues and rows,
    # representatives and class coordinates, FiniteCDGA tables, Lie brackets,
    # and the quotient's project and multiply_coords.
    build, top = RESCALED_BASES[case]
    base = build()
    scale = st.sampled_from([Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2),
                             Fraction(-2, 3), Fraction(3, 2)])
    pres = rescaled(base, {g: data.draw(scale) for g in base.ctx.names})
    assume(any(c.denominator > 1 for g in pres.ctx.names for c in pres.d.image_terms(g).values()))

    def fractions(*vectors):
        return all(type(c) is Fraction for vec in vectors for c in vec.values())

    queries = [(k, i) for k in range(top + 1) for i in range(pres.dim(k))]
    for k, i in data.draw(st.permutations(queries)):
        col = pres.differential_column(k, i)
        assert [(j, type(c), c) for j, c in col.items()] == reference_column(pres, pres.basis(k)[i])
    assert fractions(*(pres.d.image_terms(g) for g in pres.ctx.names),
                     *(x.terms for x in pres.d.images.values()))
    gens = [pres.generator(g) for g in pres.ctx.names]
    assert fractions(*((x * y).terms for x in gens for y in gens),
                     *(pres.differential(x * y).terms for x in gens for y in gens))

    report = cohomology(pres, 0, top - 1)
    cols = {k: [pres.differential_column(k, i) for i in range(pres.dim(k))] for k in range(-1, top)}
    for k in range(top):
        ones = dict.fromkeys(range(pres.dim(k + 1)), 1)
        res = solve_linear(RationalMatrix(pres.dim(k + 1), cols[k]), targets=cols[k] + [ones])
        assert fractions(*res.kernel, *filter(None, res.solutions))
        ech = Echelon()
        for col in cols[k]:
            ech.add(col)
        assert fractions(*(row for _, row in ech.rows), *map(ech.residue, cols[k] + [ones]))
        reps = report.representatives(k)
        bounded = [lincomb([(1, rep)] + [(1, c) for c in cols[k - 1]]) for rep in reps]
        assert fractions(*reps, *(report.class_coordinates(k, z) for z in reps + bounded))

    truncation = finite_truncation(pres, min(top, 5))
    assert fractions(*truncation.diff.values(), *truncation.mul.values())
    assert fractions(*lie_table(pres, top - 1).brackets.values())

    ideal = [next(x for x in pres.d.images.values() if not x.is_zero())]   # d-stable

    def vectors(k):     # int coefficients, projected to Fractions
        n = pres.dim(k)
        return [dict.fromkeys(range(n), 1), {i: i - 1 for i in range(n)}] if n else []
    assert_span_matches_full_products(QuotientCDGA(pres, ideal), min(top, 6), vectors)


# ---------------------------------------------------------------------------
# Generator images: over the derivation's context or an initial segment of it
# ---------------------------------------------------------------------------

def test_images_over_a_context_that_is_not_an_initial_segment_are_refused():
    ctx = GeneratorContext([("a", 2), ("b", 3)])
    a = ctx.generator("a")
    parent = SullivanPresentation(ctx, {"a": AlgElement.zero(ctx), "b": a * a})
    full = ctx.extend([("c", 5)])
    # a^3 has the degree d(c) needs; only its context is wrong
    for other in (GeneratorContext([("b", 3), ("a", 2)]),       # reordered
                  GeneratorContext([("a", 2), ("b", 5)])):      # b of another degree
        img = other.generator("a") ** 3
        with pytest.raises(ContextMismatchError):
            SullivanPresentation(full, {"a": AlgElement.zero(ctx), "b": a * a, "c": img})
        with pytest.raises(ContextMismatchError):
            parent.extend([("c", 5)], {"c": img})
    # biquotient_model([3], [1], [], ...) lives over t1:2, x1:3; d(x1) has degree 4
    zero = AlgElement.zero(GeneratorContext([]))
    for other, poly in ((GeneratorContext([("x1", 3), ("t1", 2)]), lambda t: t ** 2),
                        (GeneratorContext([("t1", 4), ("x1", 3)]), lambda t: t)):
        img = poly(other.generator("t1"))
        for bf, bg in (([img], [zero]), ([zero], [img])):
            with pytest.raises(ContextMismatchError):
                biquotient_model([3], [1], [], bf, bg)


def test_images_over_an_initial_segment_read_back_over_the_full_context():
    ctx = GeneratorContext([("a", 2), ("b", 3)])
    a = ctx.generator("a")
    given = {"a": AlgElement.zero(GeneratorContext([])), "b": a * a, "c": (a ** 3).scale(-2)}
    full = ctx.extend([("c", 5)])
    parent = SullivanPresentation(ctx, {g: given[g] for g in ("a", "b")})
    for p in (SullivanPresentation(full, given), parent.extend([("c", 5)], {"c": given["c"]})):
        assert validate(p).ok and list(p.d.images) == ["a", "b", "c"]
        for g, img in given.items():
            want = AlgElement(p.ctx, img.terms)         # the old `rebase(img, p.ctx)`
            got = p.d.image_of(g)
            assert got == want and got.ctx is p.ctx
            assert list(got.terms.items()) == list(want.terms.items())
            assert repr(p.d.images[g]) == repr(img)


def test_extend_shares_the_parent_images(monkeypatch):
    H = wedge_two_s2_cohomology()
    small, big = (minimal_model(H, n).model for n in (4, 10))
    assert (len(small.ctx), len(big.ctx)) == (7, 131)
    counts = Counter()
    init, degree = AlgElement.__init__, rht.algebra.monomial_degree

    def counting_init(self, *args):
        counts["AlgElement"] += 1
        init(self, *args)

    def counting_degree(ctx, mono):
        counts["monomial_degree"] += 1
        return degree(ctx, mono)

    seen, outs = [], []
    for parent in (small, big):
        a, b = (parent.generator(g) for g in parent.ctx.names[:2])
        img = a ** 6 - a ** 5 * b * 3
        with monkeypatch.context() as m:
            m.setattr(AlgElement, "__init__", counting_init)
            m.setattr(rht.algebra, "monomial_degree", counting_degree)
            counts.clear()
            outs.append((parent, img, parent.extend([("z", 11)], {"z": img})))
            seen.append(dict(counts))
    # one degree count per term of the one new image, whatever the parent's size
    assert seen[0] == seen[1] == {"monomial_degree": 2}
    for parent, img, out in outs:
        for g in parent.ctx.names:
            assert out.d.image_of(g) == AlgElement(out.ctx, parent.d.image_of(g).terms)
            assert out.d.image_terms(g) is parent.d.image_terms(g)
        assert out.d.image_of("z") == AlgElement(out.ctx, img.terms)

def test_leibniz_columns_of_a_long_word_without_recursion():
    # H^3000(S2) = 0 is read off words of length 1500; the product of 300
    # degree-1 generators, d(g_i) = g_(i+1) g_(i+2), has 300 blocks to split.
    ctx = GeneratorContext([("g%d" % i, 1) for i in range(300)])
    g = [ctx.generator(name) for name in ctx.names] + [AlgElement.zero(ctx)] * 2
    pres = SullivanPresentation(ctx, {name: g[i + 1] * g[i + 2]
                                      for i, name in enumerate(ctx.names)})
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        assert cohomology(sphere2_model(), 3000, 3000).dims() == {3000: 0}
        assert pres.differential_column(300, 0) == {}
    finally:
        sys.setrecursionlimit(limit)


# -- morphisms: apply_coords, apply_element, is_chain_map against the old apply --

def old_apply_monomial(phi, mono):
    """CdgaMorphism.apply_monomial as it was, with its degree, uncached."""
    ctx = phi.source.ctx
    deg, coords = 0, phi.target.unit_coords()
    for i, e in mono:
        for _ in range(e):
            coords = phi.target.multiply_coords(deg, coords, ctx.degrees[i],
                                                phi.images[ctx.names[i]])
            deg += ctx.degrees[i]
            if not coords:
                break
        if not coords:
            break
    return monomial_degree(ctx, mono), coords if coords else {}


def old_apply(phi, x):
    """CdgaMorphism.apply as it was: (degree, coords) of a homogeneous element."""
    if x.is_zero():
        return None, {}
    deg = x.degree()
    if deg is None:
        raise DegreeError("morphisms apply to homogeneous elements degree-wise")
    return deg, lincomb((c, old_apply_monomial(phi, mono)[1]) for mono, c in x.terms.items())


def old_apply_element(phi, x):
    deg, coords = old_apply(phi, x)
    if not coords:
        return AlgElement.zero(phi.target.ctx)
    return phi.target.from_coords(deg, coords)


def old_is_chain_map(phi):
    for gname in phi.source.ctx.names:
        deg = phi.source.ctx.degree_of(gname)
        _, lhs = old_apply(phi, phi.source.d.image_of(gname))
        rhs = lincomb((c, phi.target.differential_column(deg, i))
                      for i, c in phi.images[gname].items())
        if lhs != rhs:
            return False, gname
    return True, None


@st.composite
def random_morphisms(draw):
    """A morphism out of a random free presentation: to a random free
    presentation, to itself by the identity (a chain map), or to a random
    monomial algebra, generator images random (0 among them)."""
    ctx = GeneratorContext([("g%d" % i, d) for i, d in
                            enumerate(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))])
    source = SullivanPresentation(ctx, {g: random_image(draw, ctx, d + 1) for g, d in ctx.gens})
    kind = draw(st.sampled_from(["free", "identity", "finite"]))
    if kind == "identity":
        return CdgaMorphism(source, source, {g: ctx.generator(g) for g in ctx.names})
    if kind == "finite":
        A = draw(random_monomial_algebras(max_dim=8))
        coeff = st.integers(-2, 2).map(Fraction)
        return CdgaMorphism(source, A, {g: draw(st.dictionaries(
            st.integers(0, A.dim(d) - 1), coeff, max_size=3)) if A.dim(d) else {}
            for g, d in ctx.gens})
    tctx = GeneratorContext([("h%d" % i, d) for i, d in
                             enumerate(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))])
    target = SullivanPresentation(tctx, {h: random_image(draw, tctx, d + 1) for h, d in tctx.gens})
    return CdgaMorphism(source, target, {g: random_image(draw, tctx, d) for g, d in ctx.gens})


@settings(max_examples=150, deadline=None)
@given(random_morphisms(), st.data())
def test_morphism_application_matches_the_old_apply(phi, data):
    src, free = phi.source, isinstance(phi.target, SullivanPresentation)
    assert phi.is_chain_map() == old_is_chain_map(phi)
    for k in range(0, 7):
        x = random_image(data.draw, src.ctx, k)
        want = old_apply(phi, x)[1]
        assert list(phi.apply_coords(k, src.to_coords(x, k)).items()) == list(want.items())
        if free:
            assert list(phi.apply_element(x).terms.items()) == \
                list(old_apply_element(phi, x).terms.items())
    if free:
        assert phi.apply_element(AlgElement.zero(src.ctx)) == AlgElement.zero(phi.target.ctx)
    # Non-homogeneous input: the same DegreeError, on either kind of target.
    x = random_image(data.draw, src.ctx, 2) + random_image(data.draw, src.ctx, 3)
    if x.degree() is None and not x.is_zero():
        for apply in (phi.apply_element, lambda y: old_apply(phi, y)):
            with pytest.raises(DegreeError, match="morphisms apply to homogeneous elements"):
                apply(x)


@st.composite
def pure_sullivan_algebras(draw):
    """(presentation, Betti numbers on [0, formal dimension + 1]) for a pure
    Sullivan algebra with even x_i of degree 2..6, dx_i = 0, and odd y_i with
    dy_i = x_i^n_i + f_i, n_i <= 4, f_i a random integer combination of the
    monomials in x_1..x_i of degree n_i |x_i| with x_i-exponent below n_i.
    Each dy_i is monic in x_i over Q[x_1..x_(i-1)], so the dy_i form a regular
    sequence and H = Q[x]/(dy), with Poincare series
    prod (1 - t^(n_i |x_i|)) / (1 - t^|x_i|) (Halperin 1977)."""
    xdeg = draw(st.lists(st.sampled_from([2, 4, 6]), min_size=2, max_size=3))
    powers = draw(st.lists(st.integers(1, 4), min_size=len(xdeg), max_size=len(xdeg)))
    gens = [("x%d" % i, d) for i, d in enumerate(xdeg)]
    gens += [("y%d" % i, n * d - 1) for i, (d, n) in enumerate(zip(xdeg, powers))]
    ctx = GeneratorContext(draw(st.permutations(gens)))
    x = [ctx.generator("x%d" % i) for i in range(len(xdeg))]
    images = {"x%d" % i: AlgElement.zero(ctx) for i in range(len(xdeg))}
    for i, (d, n) in enumerate(zip(xdeg, powers)):
        dy = x[i] ** n
        for exps in iproduct(*(range(n * d // xdeg[j] + 1) for j in range(i + 1))):
            if exps[i] < n and sum(e * xdeg[j] for j, e in enumerate(exps)) == n * d:
                term = AlgElement.unit(ctx, draw(st.integers(-3, 3)))
                for j, e in enumerate(exps):
                    term = term * x[j] ** e
                dy = dy + term
        images["y%d" % i] = dy
    top = sum((n - 1) * d for d, n in zip(xdeg, powers))
    betti = [1] + [0] * (top + 1)
    for d, n in zip(xdeg, powers):
        betti = [sum(betti[k - a * d] for a in range(n) if k >= a * d) for k in range(top + 2)]
    return SullivanPresentation(ctx, images, name="pure"), dict(enumerate(betti))


@settings(max_examples=50, deadline=None)
@given(pure_sullivan_algebras())
def test_pure_sullivan_betti_numbers_match_the_poincare_series(case):
    pres, betti = case
    assert validate(pres).ok
    assert cohomology(pres, 0, len(betti) - 1).dims() == betti


@st.composite
def closed_product_presentations(draw):
    """A free presentation on generators of degree 1..4 in which d of each
    generator is a random integer combination of products of two earlier
    generators with d = 0, so d^2 = 0 and odd classes multiply."""
    degrees = draw(st.lists(st.integers(1, 4), min_size=2, max_size=5))
    ctx = GeneratorContext([("g%d" % i, d) for i, d in enumerate(degrees)])
    gens = [ctx.generator("g%d" % i) for i in range(len(degrees))]
    images = []
    for i, d in enumerate(degrees):
        image = AlgElement.zero(ctx)
        closed = [j for j in range(i) if images[j].is_zero()]
        for a in closed:
            for b in closed:
                if a <= b and degrees[a] + degrees[b] == d + 1:
                    image = image + AlgElement.unit(ctx, draw(st.integers(-2, 2))) * gens[a] * gens[b]
        images.append(image)
    return SullivanPresentation(ctx, {"g%d" % i: x for i, x in enumerate(images)}, name="P")


def double_loop_products(report):
    """The products of `CohomologyReport.algebra` as it formed them: every
    ordered pair of representatives multiplied and read as a class."""
    p, n = report.pres, report.hi
    basis = {k: report.dim(k) for k in range(report.lo, n + 1) if report.dim(k)}
    basis.setdefault(0, 1)
    mul = {}
    degs = sorted(basis)
    for p_ in degs:
        for q_ in degs:
            if p_ + q_ > n or (p_ + q_) not in basis:
                continue
            for i, u in enumerate(report.representatives(p_)):
                for j, v in enumerate(report.representatives(q_)):
                    prod = p.multiply_coords(p_, u, q_, v)
                    if prod:
                        cls = report.class_coordinates(p_ + q_, prod)
                        if cls:
                            mul[((p_, i), (q_, j))] = cls
    if basis[0] == 1:
        for k in degs:
            for i in range(basis[k]):
                mul[((0, 0), (k, i))] = {i: ONE}
                mul[((k, i), (0, 0))] = {i: ONE}
    return mul


@settings(max_examples=60, deadline=None)
@given(st.one_of(pure_sullivan_algebras().map(lambda case: case[0]),
                 closed_product_presentations()), st.integers(2, 8))
def test_algebra_matches_the_double_loop(pres, hi):
    # A free presentation reads each pair (b, a) that follows (a, b) off the
    # stored (a, b), with the sign (-1)^pq: the same keys, key order, values
    # and value types, and every entry a dict of its own.
    report = cohomology(pres, 0, hi)
    captured = []

    class Capturing(FiniteCDGA):
        def __init__(self, basis, diff, mul, *args, **kwargs):
            captured.append(mul)
            super().__init__(basis, diff, mul, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("rht.cdga.FiniteCDGA", Capturing)
        report.algebra()
    [mul] = captured

    def typed(table):
        return [(key, [(c, type(x), x) for c, x in v.items()]) for key, v in table.items()]
    assert typed(mul) == typed(double_loop_products(report))
    assert len({id(v) for v in mul.values()}) == len(mul)


def test_algebra_refuses_a_window_above_degree_0(monkeypatch):
    # The unit class lives in degree 0, outside the window [1, 2]: the error
    # names the window and comes before any product is formed.
    report = cohomology(torus(2), 1, 2)
    monkeypatch.setattr(report.pres, "multiply_coords", None)
    with pytest.raises(DegreeError, match=r"\[1, 2\]"):
        report.algebra()


def test_algebra_refuses_h0_zero():
    # d(e) = 1 kills the unit: H = 0 in both degrees, so there is no unit
    # class, and the table must not invent one (it would be Q, not 0).
    unit = {((0, 0), (0, 0)): {0: 1}, ((0, 0), (-1, 0)): {0: 1}, ((-1, 0), (0, 0)): {0: 1}}
    A = FiniteCDGA({-1: ["e"], 0: ["1"]}, {(-1, 0): {0: 1}}, unit)
    assert validate(A).ok
    report = cohomology(A, -1, 0)
    assert report.dims() == {-1: 0, 0: 0}
    with pytest.raises(UnsupportedInputError, match="H\\^0 = 0"):
        report.algebra()


def test_reads_outside_the_window_raise_the_degree_error_of_dim(monkeypatch):
    # Degree 5 lies outside [0, 3], and so does -1: class coordinates,
    # representatives and the cocycle test refuse them as `dim` does, and
    # the cocycle test reads no differential column on the way.
    report = cohomology(sphere(2), 0, 3)
    reads = [report.dim, report.representatives,
             lambda k: report.class_coordinates(k, {0: 1}), lambda k: report.is_cocycle(k, {0: 1})]
    monkeypatch.setattr(report.pres, "differential_column", None)
    for read in reads:
        for k in (5, -1):
            with pytest.raises(DegreeError, match=r"degree %d outside computed window \[0, 3\]"
                               % k):
                read(k)


# -- sparse sums through lincomb, pinned against the loops they replaced ------

def reference_lincomb(terms):
    """lincomb as it was: dst -= (-c) * v, an absent key starting at int 0."""
    out = {}
    for c, v in terms:
        for k, x in (v or {}).items():
            y = out.get(k, 0) - (-c) * x
            if y:
                out[k] = y
            else:
                out.pop(k, None)
    return out


def reference_finite_multiply(mul, p, u, q, v):
    out = ZeroTouchDict()
    for i, ci in u.items():
        if ci == 0:
            continue
        for j, cj in v.items():
            if cj == 0:
                continue
            for k, c in mul.get(((p, i), (q, j)), {}).items():
                out[k] = out.get(k, ZERO) + ci * cj * c
    return out, out.retouched


def reference_tensor_mul(amul, bmul, v, w):
    out = ZeroTouchDict()
    for (p1, i1, q1, j1), c1 in v.items():
        for (p2, i2, q2, j2), c2 in w.items():
            aa = amul.get(((p1, i1), (p2, i2)))
            bb = aa and bmul.get(((q1, j1), (q2, j2)))
            if bb:
                c = -c1 * c2 if (q1 % 2) and (p2 % 2) else c1 * c2
                for ka, ca in aa.items():
                    for kb, cb in bb.items():
                        key = (p1 + p2, ka, q1 + q2, kb)
                        out[key] = out.get(key, ZERO) + c * ca * cb
    return out, out.retouched


def reference_tensor_tables(A, B, a_raw, b_raw):
    """diff and mul of tensor_finite(A, B) from the per-side embedding loop,
    read off the raw tables A and B were built from."""
    (_, adiff, amul), (_, bdiff, bmul) = a_raw, b_raw
    pairs = tensor_positions(A, B)

    def emb(p, u, q, v, sign=1):
        out = {}
        for i, ci in u.items():
            for j, cj in v.items():
                k, idx = pairs[(p, i, q, j)]
                out[idx] = out.get(idx, ZERO) + sign * ci * cj
        return {i: c for i, c in out.items() if c != 0}

    diff, mul = {}, {}
    for (p, i, q, j), (k, idx) in pairs.items():
        col = emb(p + 1, adiff.get((p, i), {}), q, {j: ONE})
        col2 = emb(p, {i: ONE}, q + 1, bdiff.get((q, j), {}), -1 if p % 2 else 1)
        tot = reference_lincomb([(1, col), (1, col2)])
        if tot:
            diff[(k, idx)] = tot
    order = {t: r for r, t in enumerate(pairs)}
    nonzero = sorted((order[a1 + b1], order[a2 + b2], a1 + b1, a2 + b2)
                     for a1, a2 in amul for b1, b2 in bmul
                     if a1 + b1 in order and a2 + b2 in order)
    for _, _, t1, t2 in nonzero:
        out, _ = reference_tensor_mul(amul, bmul, {t1: ONE}, {t2: ONE})
        out = {pairs[t][1]: c for t, c in out.items() if c != 0}
        if out:
            mul[(pairs[t1], pairs[t2])] = out
    return diff, mul


def coefficients(ints):
    """Small coefficients, 0 included: ints, or Fractions with small denominators."""
    if ints:
        return st.integers(-2, 2)
    return st.fractions(min_value=-2, max_value=2, max_denominator=2)


@st.composite
def raw_tables(draw, ints):
    """(basis, diff, mul) of a small cdga as a caller passes them to FiniteCDGA,
    Fraction-valued or, with `ints`, with every integral entry an int; then a
    few in-range edits, which may store 0 or break the axioms."""
    base = draw(st.sampled_from(["monomial", "s2", "uvw"]))
    if base == "monomial":
        A = draw(random_monomial_algebras(max_dim=6))
    else:
        A = finite_truncation(sphere2_model() if base == "s2" else nonformal_uvw(),
                              draw(st.integers(2, 4)))

    def raw(c):
        return int(c) if ints and c.denominator == 1 else c
    diff = {key: {j: raw(c) for j, c in col.items()} for key, col in A.diff.items()}
    mul = {key: {k: raw(c) for k, c in prod.items()} for key, prod in A.mul.items()}
    items = [(k, i) for k in sorted(A.basis) for i in range(A.dim(k))]
    for _ in range(draw(st.integers(0, 3))):
        (p, i), (q, j) = draw(st.sampled_from(items)), draw(st.sampled_from(items))
        if draw(st.booleans()) and A.dim(p + q):
            key = ((p, i), (q, j))
            mul[key] = {**mul.get(key, {}),
                        draw(st.integers(0, A.dim(p + q) - 1)): draw(coefficients(ints))}
        elif A.dim(p + 1):
            diff[(p, i)] = {**diff.get((p, i), {}),
                            draw(st.integers(0, A.dim(p + 1) - 1)): draw(coefficients(ints))}
    return A.basis, diff, mul


def vector_with(draw, key, keys, ints):
    """{key: 1} plus up to 3 more entries over `keys`, 0 among the coefficients."""
    more = draw(st.dictionaries(st.sampled_from(keys), coefficients(ints), max_size=3))
    return {key: 1 if ints else ONE, **more}


@settings(max_examples=100, deadline=None)
@given(st.booleans(), st.data())
def test_finite_multiply_coords_matches_reference_loop(ints, data):
    basis, diff, mul = data.draw(raw_tables(ints))
    A = FiniteCDGA(basis, diff, mul)
    (p, i), (q, j) = data.draw(st.sampled_from(sorted(mul)))
    u = vector_with(data.draw, i, list(range(A.dim(p))), ints)
    v = vector_with(data.draw, j, list(range(A.dim(q))), ints)
    ref, retouched = reference_finite_multiply(mul, p, u, q, v)
    assert_matches_reference_sum(A.multiply_coords(p, u, q, v), ref, retouched)


@settings(max_examples=100, deadline=None)
@given(st.booleans(), st.data())
def test_tensor_mul_matches_reference_loop(ints, data):
    a_raw, b_raw = data.draw(raw_tables(ints)), data.draw(raw_tables(ints))
    A, B = FiniteCDGA(*a_raw), FiniteCDGA(*b_raw)
    keys = list(tensor_positions(A, B))
    (a1, a2), (b1, b2) = data.draw(st.sampled_from(sorted(a_raw[2]))), \
        data.draw(st.sampled_from(sorted(b_raw[2])))
    v = vector_with(data.draw, a1 + b1, keys, ints)
    w = vector_with(data.draw, a2 + b2, keys, ints)
    ref, retouched = reference_tensor_mul(a_raw[2], b_raw[2], v, w)
    # The reference keeps the entries that cancel to 0; tensor_mul drops them.
    assert_matches_reference_sum(tensor_mul(A, B, v, w), ref, retouched)


def test_tensor_mul_drops_the_entries_that_cancel():
    # Not a cdga (1 * b = a), but tensor_mul only reads the tables: the two
    # products of 1 (x) 1 land on one key.
    A = FiniteCDGA({0: ["1"], 2: ["a", "b"]}, {},
                   {((0, 0), (0, 0)): {0: 1}, ((0, 0), (2, 0)): {0: 1},
                    ((0, 0), (2, 1)): {0: 1}})
    v, w = {(0, 0, 0, 0): ONE}, {(2, 0, 0, 0): ONE, (2, 1, 0, 0): -ONE}
    ref, _ = reference_tensor_mul(A.mul, A.mul, v, w)
    assert ref == {(2, 0, 0, 0): 0}
    assert tensor_mul(A, A, v, w) == {}


@settings(max_examples=60, deadline=None)
@given(st.booleans(), st.data())
def test_tensor_finite_tables_match_reference_loops(ints, data):
    a_raw, b_raw = data.draw(raw_tables(ints)), data.draw(raw_tables(ints))
    A, B = FiniteCDGA(*a_raw), FiniteCDGA(*b_raw)
    T = tensor_finite(A, B)
    diff, mul = reference_tensor_tables(A, B, a_raw, b_raw)
    for got, want in ((T.diff, diff), (T.mul, mul)):
        assert list(got.items()) == list(want.items())
        assert [type(c) for vec in got.values() for c in vec.values()] == \
            [type(c) for vec in want.values() for c in vec.values()]


# -- exact coefficients at every public constructor ----------------------------

def test_as_q_keeps_fractions_and_rejects_floats():
    x = Fraction(2, 3)
    assert as_q(x) is x
    assert as_q(3) == 3 and type(as_q(3)) is Fraction
    assert as_q("2/3") == x
    with pytest.raises(TypeError):
        as_q(0.5)


def test_finite_cdga_coefficients_are_exact():
    basis = {0: ["1"], 1: ["x"]}
    with pytest.raises(TypeError):
        FiniteCDGA(basis, {}, {((0, 0), (0, 0)): {0: 1.0}})
    with pytest.raises(TypeError):
        FiniteCDGA(basis, {(0, 0): {0: 0.0}}, {((0, 0), (0, 0)): {0: 1}})
    A = FiniteCDGA(basis, {}, {((0, 0), (0, 0)): {0: 1}})
    assert type(A.mul[((0, 0), (0, 0))][0]) is Fraction
    assert type(A.multiply_coords(0, {0: 1}, 0, {0: 1})[0]) is Fraction
    # A zero entry at an out-of-range index is refused, not dropped.
    with pytest.raises(DegreeError):
        FiniteCDGA(basis, {(1, 0): {3: 0}}, {((0, 0), (0, 0)): {0: 1}})


def test_morphism_coefficients_are_exact(s2):
    H = cohomology_algebra(s2, 2)
    with pytest.raises(TypeError):
        CdgaMorphism(s2, H, {"a": {0: 0.1}, "b": {}})
    phi = CdgaMorphism(s2, H, {"a": {0: 1}, "b": {}})
    assert type(phi.images["a"][0]) is Fraction
    with pytest.raises(TypeError):
        FiniteMorphism(H, H, {0: [{0: 1.0}], 2: [{0: 1}]})
    ident = FiniteMorphism(H, H, {0: [{0: 1}], 2: [{0: 1}]})
    assert type(ident.matrices[2][0][0]) is Fraction


def test_pd_orientation_is_exact():
    H = cohomology_algebra(sphere(2), 2)
    with pytest.raises(TypeError):
        PDAlgebra(H, 2, eps={0: 0.25})
    pd = PDAlgebra(H, 2, eps={0: 2})
    assert pd.eps == {0: 2} and type(pd.eps[0]) is Fraction


# ---------------------------------------------------------------------------
# The window record: each window once per presentation object
# ---------------------------------------------------------------------------

def with_degree_minus_one(A):
    """A with one more basis element e of degree -1: d e = 0, and e times
    anything but the unit is 0."""
    mul = {**A.mul, ((0, 0), (-1, 0)): {0: 1}, ((-1, 0), (0, 0)): {0: 1}}
    return FiniteCDGA({**A.basis, -1: ["e"]}, A.diff, mul, name=A.name + "+e")


RECORDED_WINDOWS = {
    "free uvw": (nonformal_uvw, 0, 6),
    "finite, lowest degree -1": (
        lambda: with_degree_minus_one(finite_truncation(nonformal_uvw(), 5)), 0, 4),
    "quotient F(S2, 3)": (lambda: config_space_model(
        PDAlgebra(cohomology_algebra(sphere(2), 2), 2), 3).quotient, 0, 8),
}


def typed(vec):
    return [(i, type(c), c) for i, c in vec.items()]


def counted_work(monkeypatch, p, run):
    """run() and the solve_linear, Echelon.add and differential_column calls it makes."""
    counts = Counter()

    def counted(name, f):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return f(*args, **kwargs)
        return wrapper
    with monkeypatch.context() as patch:
        patch.setattr(rht.cdga, "solve_linear", counted("solve_linear", rht.cdga.solve_linear))
        patch.setattr(Echelon, "add", counted("Echelon.add", Echelon.add))
        patch.setattr(type(p), "differential_column",
                      counted("differential_column", type(p).differential_column))
        return run(), counts


def report_answers(p, report):
    """Every answer of a report, with the types and key order of its values:
    dims, representatives, the cocycle test and class coordinates of basis
    vectors, representatives and a sum of representatives and boundaries, and
    the table of `algebra()` when the window holds degree 0."""
    out = [list(report.dims().items())]
    for k in range(report.lo, report.hi + 1):
        reps = report.representatives(k)
        bounds = [p.differential_column(k - 1, i) for i in range(p.dim(k - 1))]
        mixed = lincomb((Fraction(j + 1, 2), v) for j, v in enumerate(reps + bounds))
        out.append([typed(v) for v in reps])
        for z in [{i: 1} for i in range(p.dim(k))] + reps + [mixed]:
            cocycle = report.is_cocycle(k, z)
            out.append((cocycle, typed(report.class_coordinates(k, z)) if cocycle else None))
    if report.lo > 0:
        return out
    A = report.algebra()
    out.append((A.name, list(A.basis.items()), A.window_certified,
                [(key, typed(row)) for key, row in A.mul.items()], A._windows))
    return out


@pytest.mark.parametrize("case", sorted(RECORDED_WINDOWS))
def test_a_recorded_window_is_answered_without_work(case, monkeypatch):
    make, lo, hi = RECORDED_WINDOWS[case]
    p = make()
    first, counts = counted_work(monkeypatch, p, lambda: cohomology(p, lo, hi))
    assert counts["solve_linear"] and counts["differential_column"]
    second, counts = counted_work(monkeypatch, p, lambda: cohomology(p, lo, hi))
    assert counts == Counter()
    assert second is not first and (second.lo, second.hi) == (first.lo, first.hi)
    assert len(p._windows) == 1
    fresh = make()
    assert report_answers(p, second) == report_answers(fresh, cohomology(fresh, lo, hi))


def test_windows_with_another_lo_are_their_own_entries():
    p, fresh = nonformal_uvw(), nonformal_uvw()
    for lo in (2, 0, 2, 0):
        report = cohomology(p, lo, 5)
        assert report.lo == lo
        assert report_answers(p, report) == report_answers(fresh, cohomology(fresh, lo, 5))
    assert list(p._windows) == [(2, 5), (0, 5)]


def test_a_finite_window_is_keyed_after_its_lo_is_lowered(monkeypatch):
    A = with_degree_minus_one(finite_truncation(nonformal_uvw(), 5))
    assert A.min_degree() == -1 and validate(A).ok
    first = cohomology(A, 0, 4)
    second, counts = counted_work(monkeypatch, A, lambda: cohomology(A, -1, 4))
    assert counts == Counter() and (first.lo, second.lo) == (-1, -1)
    assert list(A._windows) == [(-1, 4)]


def test_an_extension_answers_as_a_freshly_built_one():
    # The parent's record is of another complex: K(Q, 2) has a class in every
    # even degree, its extension by d b = a^2 is S^2.
    ctx = GeneratorContext([("a", 2)])
    parent = SullivanPresentation(ctx, {"a": AlgElement.zero(ctx)})
    assert cohomology(parent, 0, 6).dims() == {0: 1, 1: 0, 2: 1, 3: 0, 4: 1, 5: 0, 6: 1}
    a = ctx.generator("a")
    child = parent.extend([("b", 3)], {"b": a * a})
    full = ctx.extend([("b", 3)])
    fresh = SullivanPresentation(full, {"a": AlgElement.zero(full), "b": full.generator("a") ** 2})
    assert child._windows == {}
    report = cohomology(child, 0, 6)
    assert report.dims() == {0: 1, 1: 0, 2: 1, 3: 0, 4: 0, 5: 0, 6: 0}
    assert report_answers(child, report) == report_answers(fresh, cohomology(fresh, 0, 6))
    assert list(parent._windows) == [(0, 6)]


def test_a_model_with_recorded_windows_is_freed_by_reference_counting():
    # The record holds a report's state, never the report: a report keeps its
    # presentation, so storing it there would make a cycle that only the
    # cyclic collector frees.
    H = wedge_two_s2_cohomology()
    enabled = gc.isenabled()
    gc.disable()
    try:
        mm = minimal_model(H, 6)
        assert is_quasi_iso(mm.phi, 6)[0] and is_quasi_iso(mm.phi, 6)[0]
        assert list(mm.model._windows) == [(0, 6)]
        model, target = weakref.ref(mm.model), weakref.ref(mm.phi.target)
        del mm
        assert model() is None and target() is H
        del H
        assert target() is None
    finally:
        if enabled:
            gc.enable()
