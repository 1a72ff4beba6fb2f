import json
import os
import random
import time
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from rht.algebra import AlgElement, GeneratorContext
from rht.cdga import (CdgaMorphism, CohomologyReport, SullivanPresentation, cohomology,
                      cohomology_algebra, is_quasi_iso)
from rht.constructions import (PDAlgebra, SubspaceArrangement, arrangement_complex,
                               config_space_model, free_loop_model, sphere, torus)
from rht.errors import RhtError
from rht.linalg import Echelon, RationalMatrix, lincomb, solve_linear
from rht.minimal_model import minimal_model
import rht.algebra
import rht.cdga
import rht.constructions
import rht.homotopy_lie
import rht.linalg
import rht.minimal_model

from conftest import wedge_two_s2_cohomology


def matrix(rows, cols, entries):
    """The matrix with the given {(row, col): value} entries, built from its columns."""
    return RationalMatrix(rows, [{r: v for (r, c), v in entries.items() if c == j}
                                 for j in range(cols)])


def solvable(res):
    return [s is not None for s in res.solutions]


def test_identity_matrix():
    m = matrix(3, 3, {(i, i): 1 for i in range(3)})
    res = solve_linear(m, targets=[{0: Fraction(5)}, {1: 2, 2: 3}])
    assert res.rank == 3
    assert res.kernel == []
    assert solvable(res) == [True, True]
    assert res.solutions[0] == {0: Fraction(5)}


def test_zero_matrix_kernel():
    m = matrix(2, 2, {})
    res = solve_linear(m)
    assert res.rank == 0
    assert len(res.kernel) == 2


def test_unsolvable_flagged_not_raised():
    m = matrix(2, 1, {(0, 0): 1})
    res = solve_linear(m, targets=[{1: Fraction(1)}, {0: Fraction(2)}])
    assert solvable(res) == [False, True]
    assert res.solutions[0] is None
    assert res.solutions[1] == {0: Fraction(2)}


def apply(m, vec):
    """M vec on a sparse column vector {col: Fraction}."""
    return lincomb((x, {r: v}) for (r, c), v in m.entries.items() if (x := vec.get(c)))


def column(m, j):
    return {r: v for (r, c), v in m.entries.items() if c == j}


def random_matrix(rng, rows, cols, density=0.5):
    entries = {}
    for r in range(rows):
        for c in range(cols):
            if rng.random() < density:
                entries[(r, c)] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
    return matrix(rows, cols, entries)


def test_targets_outside_the_matrix_are_refused():
    # A target row is range-checked as a matrix entry is, an entry (row, j) of
    # the matrix T of the targets: -1 must not wrap to the last row, and 2 must
    # not surface as a bare IndexError.  A zero entry, which the elimination
    # never reads, is not checked.
    m = RationalMatrix(2, [{0: 1}, {1: 1}])
    for row in (-1, 2):
        with pytest.raises(RhtError, match=r"^entry \(%d,1\) outside 2x2 matrix$" % row):
            solve_linear(m, [{0: 1}, {row: 5}])
    assert solve_linear(m, [{5: 0}, {-1: Fraction(0)}]).solutions == [{}, {}]


def test_rank_nullity_and_kernel_on_random_matrices():
    rng = random.Random(42)
    for trial in range(30):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 8)
        m = random_matrix(rng, rows, cols)
        res = solve_linear(m)
        assert res.rank + len(res.kernel) == cols
        for k in res.kernel:
            assert apply(m, k) == {}


def test_5x7_rank_nullity():
    rng = random.Random(7)
    m = random_matrix(rng, 5, 7, density=0.8)
    res = solve_linear(m)
    assert res.rank + len(res.kernel) == 7


def test_particular_solutions_are_exact():
    rng = random.Random(3)
    for _ in range(15):
        m = random_matrix(rng, 4, 6)
        x = {c: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for c in range(6)}
        t = apply(m, x)
        res = solve_linear(m, targets=[t])
        assert solvable(res)[0]
        assert apply(m, res.solutions[0]) == t


def test_row_permutation_invariance():
    rng = random.Random(11)
    for _ in range(15):
        m = random_matrix(rng, 5, 5)
        x = {c: Fraction(rng.randint(-4, 4)) for c in range(5)}
        targets = [apply(m, x), {rng.randrange(5): Fraction(1)}]
        perm = list(range(5))
        rng.shuffle(perm)
        pm = matrix(5, 5, {(perm[r], c): v for (r, c), v in m.entries.items()})
        ptargets = [{perm[r]: v for r, v in t.items()} for t in targets]
        a = solve_linear(m, targets)
        b = solve_linear(pm, ptargets)
        assert a.rank == b.rank
        assert a.kernel == b.kernel
        assert a.solutions == b.solutions
        assert solvable(a) == solvable(b)


def test_lincomb_key_order_after_cancellation():
    v1 = {0: Fraction(1), 1: Fraction(2)}
    v2 = {1: Fraction(1), 2: Fraction(1)}
    # Key 0 cancels and is touched again, so it moves to the end; a zero
    # coefficient, or a zero entry, on an absent key adds nothing.
    vec = lincomb([(1, v1), (-1, {0: Fraction(1)}), (0, {3: Fraction(1)}),
                   (3, v2), (1, {4: Fraction(0)}), (1, {0: Fraction(1)})])
    assert list(vec.items()) == [(1, Fraction(5)), (2, Fraction(3)), (0, Fraction(1))]
    # An absent key takes x * v with its own type: int * int stays int, which
    # `Echelon`'s integer rows need, and a Fraction on either side gives one.
    vec = lincomb([(2, {0: 3}), (Fraction(1, 2), {1: 4}), (3, {2: Fraction(1, 3)})])
    assert list(vec.items()) == [(0, 6), (1, 2), (2, 1)]
    assert [type(x) for x in vec.values()] == [int, Fraction, Fraction]
    # A zero coefficient, or a zero entry, on an existing key leaves it in place.
    vec = lincomb([(1, v1), (0, {0: Fraction(7)}), (1, {0: Fraction(0), 5: Fraction(1)})])
    assert list(vec.items()) == [(0, Fraction(1)), (1, Fraction(2)), (5, Fraction(1))]


def _multiplying_lincomb(terms):
    """lincomb with every entry multiplied by its coefficient, kept as the
    reference for the int +-1 path that adds or subtracts the entry."""
    out = {}
    for c, v in terms:
        for k, x in (v or {}).items():
            y = out.get(k)
            y = x * c if y is None else y + x * c
            if y:
                out[k] = y
            else:
                out.pop(k, None)
    return out


UNIT_KEYS = st.integers(0, 5)
UNIT_INTS = st.integers(-2, 2)
UNIT_FRACTIONS = st.fractions(min_value=-2, max_value=2, max_denominator=2)
UNIT_ROWS = st.one_of(st.none(), st.dictionaries(UNIT_KEYS, UNIT_INTS, max_size=4),
                      st.dictionaries(UNIT_KEYS, UNIT_FRACTIONS, max_size=4),
                      st.dictionaries(UNIT_KEYS, st.one_of(UNIT_INTS, UNIT_FRACTIONS), max_size=4))


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([1, -1, 1, -1, 2, -3, Fraction(1), Fraction(-1),
                                           Fraction(1, 2)]), UNIT_ROWS), max_size=6))
def test_lincomb_with_unit_coefficients_matches_the_multiplying_loop(terms):
    # Small entries on six keys cancel often, and a key that cancels and is
    # touched again moves to the end: values, types and key order all count.
    got, want = lincomb(terms), _multiplying_lincomb(terms)
    assert [(k, type(v), v) for k, v in got.items()] == [(k, type(v), v) for k, v in want.items()]


# -- properties of the single elimination engine ----------------------------

ENTRY = st.one_of(st.just(Fraction(0)),
                  st.fractions(min_value=-4, max_value=4, max_denominator=3))


@st.composite
def systems(draw):
    """A small rational matrix with solvable and arbitrary targets."""
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 6))
    m = matrix(rows, cols, {(r, c): draw(ENTRY) for r in range(rows) for c in range(cols)})
    targets = [apply(m, {c: draw(ENTRY) for c in range(cols)})
               for _ in range(draw(st.integers(0, 2)))]
    targets += draw(st.lists(st.dictionaries(st.integers(0, rows - 1), ENTRY,
                                             max_size=rows), max_size=2))
    return m, targets


def entries_matrix(rows, cols, entries):
    """The `RationalMatrix(rows, cols, entries)` constructor as it was: each
    entry converted to a Fraction, zeros dropped, and one outside the shape
    refused."""
    m = SimpleNamespace(rows=rows, cols=cols, entries={})
    for (r, c), v in entries.items():
        v = Fraction(v)
        if v != 0:
            if not (0 <= r < rows and 0 <= c < cols):
                raise RhtError("entry (%d,%d) outside %dx%d matrix" % (r, c, rows, cols))
            m.entries[(r, c)] = v
    return m


def converting_from_columns(rows, columns):
    """`RationalMatrix.from_columns` as it was: each entry converted here and
    again by the entries constructor."""
    entries = {}
    for j, col in enumerate(columns):
        for r, v in col.items():
            if v != 0:
                entries[(r, j)] = Fraction(v)
    return entries_matrix(rows, len(columns), entries)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.dictionaries(st.integers(0, 6), st.one_of(ENTRY, st.integers(-3, 3)),
                                max_size=5), max_size=5))
def test_from_columns_matches_the_converting_copy(columns):
    # The same entries, values and order as the converting copy, each of the
    # type it was given in: RationalMatrix keeps an int an int.
    def build(from_columns, typed):
        try:    # 5 rows, so some entries fall outside
            m = from_columns(5, columns)
        except RhtError as exc:
            return str(exc)
        return m.rows, m.cols, [(key, typed(key, v), v) for key, v in m.entries.items()]
    assert build(RationalMatrix, lambda key, v: type(v)) == \
        build(converting_from_columns, lambda key, v: type(columns[key[1]][key[0]]))


def column_rank(columns):
    ech = Echelon()
    return sum(1 for col in columns if ech.add(col))


def free_columns(m):
    """Columns in the span of the columns before them."""
    ech = Echelon()
    return [c for c in range(m.cols) if not ech.add(column(m, c))]


@settings(max_examples=80, deadline=None)
@given(systems())
def test_kernel_is_the_rref_basis(system):
    m, targets = system
    res = solve_linear(m, targets)
    free = free_columns(m)
    assert res.rank == m.cols - len(free)
    assert len(res.kernel) == len(free)
    for j, k in zip(free, res.kernel):
        assert apply(m, k) == {}
        assert {c: v for c, v in k.items() if c in free} == {j: 1}


@settings(max_examples=80, deadline=None)
@given(systems())
def test_solutions_vanish_on_free_columns(system):
    m, targets = system
    res = solve_linear(m, targets)
    free = set(free_columns(m))
    rank = column_rank(column(m, c) for c in range(m.cols))
    for t, x, ok in zip(targets, res.solutions, solvable(res)):
        t = {r: v for r, v in t.items() if v != 0}
        augmented = column_rank([column(m, c) for c in range(m.cols)] + [t])
        assert ok == (augmented == rank)
        if ok:
            assert apply(m, x) == t
            assert not free.intersection(x)
        else:
            assert x is None


@settings(max_examples=50, deadline=None)
@given(systems())
def test_rank_matches_sympy(system):
    sympy = pytest.importorskip("sympy")
    m, _ = system
    dense = [[m.entries.get((r, c), 0) for c in range(m.cols)] for r in range(m.rows)]
    assert solve_linear(m).rank == sympy.Matrix(dense).rank()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.dictionaries(st.integers(0, 5), ENTRY, max_size=4), min_size=1, max_size=5),
       st.dictionaries(st.integers(0, 5), ENTRY, max_size=6), st.randoms())
def test_residue_ignores_insertion_order(vectors, probe, rnd):
    shuffled = list(vectors)
    rnd.shuffle(shuffled)
    a, b = Echelon(), Echelon()
    for v in vectors:
        a.add(v)
    for v in shuffled:
        b.add(v)
    assert a.residue(probe) == b.residue(probe)
    assert sorted(a.position) == sorted(b.position)


def boundary_before_class():
    """H^4 = <z>, with the boundary x^2 = dy ahead of z in the degree-4 basis."""
    ctx = GeneratorContext([("z", 4), ("x", 2), ("y", 3)])
    x, zero = ctx.generator("x"), AlgElement.zero(ctx)
    return SullivanPresentation(ctx, {"z": zero, "x": zero, "y": x * x})


def config_s2_2():
    """The quotient model of F(S^2, 2): H^2 = Q, and d x12 lands in C^2."""
    return config_space_model(PDAlgebra(cohomology_algebra(sphere(2), 2), 2), 2).quotient


def three_equal_hyperplanes():
    """Arrangement complex with a degree -1 cell whose boundary lands in C^0, H^0 = Q."""
    return arrangement_complex(SubspaceArrangement(3, [[[1, -1, 0]]] * 3))


@pytest.mark.parametrize("make, k", [(lambda: torus(3), 1), (lambda: torus(3), 2),
                                     (wedge_two_s2_cohomology, 2),
                                     (boundary_before_class, 4),
                                     (config_s2_2, 2), (three_equal_hyperplanes, 0)],
                         ids=["T3-H1", "T3-H2", "S2vS2-H2", "boundary_first-H4",
                              "F(S2,2)-H2", "three_equal-H0"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_class_coordinates_recover_coefficients(make, k, data):
    rep = cohomology(make(), 0, k + 1)
    reps = rep.representatives(k)
    coeffs = {i: data.draw(ENTRY) for i in range(len(reps))}
    vec = lincomb([(c, reps[i]) for i, c in coeffs.items()]
                  + [(data.draw(ENTRY), rep.pres.differential_column(k - 1, i))
                     for i in range(rep.pres.dim(k - 1))])
    assert rep.class_coordinates(k, vec) == {i: c for i, c in coeffs.items() if c != 0}


def test_class_coordinates_rejects_a_non_cocycle(s2):
    rep = cohomology(s2, 0, 4)
    b = s2.to_coords(s2.ctx.generator("b"), 3)
    with pytest.raises(RhtError):
        rep.class_coordinates(3, b)


# -- the integer-row eliminator against the Fraction one it replaced ---------

class FractionEchelon:
    """The Fraction RREF that `Echelon` replaced, kept as the oracle: every row
    is 1 at its pivot and 0 at every other pivot."""

    def __init__(self):
        self.rows = []
        self.position = {}

    def _reduce(self, vec):
        vec = {c: Fraction(v) for c, v in vec.items() if v != 0}
        for i in [self.position[c] for c in vec if c in self.position]:
            pc, row = self.rows[i]
            fraction_subtract(vec, vec[pc], row)
        return vec

    def add(self, vec):
        vec = self._reduce(vec)
        if not vec:
            return False
        pc = min(vec)
        inv = Fraction(1) / vec[pc]
        vec = {c: v * inv for c, v in vec.items()}
        for _, orow in self.rows:
            x = orow.get(pc)
            if x:
                fraction_subtract(orow, x, vec)
        self.position[pc] = len(self.rows)
        self.rows.append((pc, vec))
        return True

    def contains(self, vec):
        return not self._reduce(vec)

    def residue(self, vec):
        return self._reduce(vec)


def fraction_subtract(dst, x, src):
    for c, v in src.items():
        y = dst.get(c, Fraction(0)) - x * v
        if y:
            dst[c] = y
        else:
            dst.pop(c, None)


def fraction_solve_linear(matrix, targets):
    """`solve_linear` on `FractionEchelon`, kept as the oracle:
    (rank, kernel, solutions, solvable)."""
    ncols = matrix.cols
    rows = [{} for _ in range(matrix.rows)]
    for (r, c), v in matrix.entries.items():
        rows[r][c] = v
    for j, t in enumerate(targets):
        for r, v in t.items():
            if v != 0:
                rows[r][ncols + j] = -Fraction(v)
    ech = FractionEchelon()
    for row in rows:
        ech.add(row)
    unsolvable = {c - ncols for pc, row in ech.rows if pc >= ncols for c in row}
    pivots = sorted(pc for pc in ech.position if pc < ncols)
    kernel = {c: {c: Fraction(1)} for c in range(ncols) if c not in ech.position}
    solutions = [None if j in unsolvable else {} for j in range(len(targets))]
    for pc in reversed(pivots):
        for c, v in ech.rows[ech.position[pc]][1].items():
            if c < ncols:
                if c != pc:
                    kernel[c][pc] = -v
            elif solutions[c - ncols] is not None:
                solutions[c - ncols][pc] = -v
    return len(pivots), list(kernel.values()), solutions, [s is not None for s in solutions]


def typed(vec):
    """Items with value types, so that key order and Fraction-ness are compared."""
    return None if vec is None else [(c, type(v), v) for c, v in vec.items()]


BIG_ENTRY = st.one_of(st.just(0), st.just(Fraction(0)),
                      st.builds(Fraction, st.integers(-2 ** 70, 2 ** 70), st.integers(1, 12)),
                      st.builds(Fraction, st.integers(-3, 3), st.integers(1, 12)))


@st.composite
def echelon_scripts(draw):
    """add / residue / contains steps on sparse vectors over 7 columns; some
    vectors are combinations of earlier ones, so that entries cancel."""
    steps, seen = [], []
    for _ in range(draw(st.integers(1, 14))):
        if seen and draw(st.booleans()):
            a, b = draw(st.sampled_from(seen)), draw(st.sampled_from(seen))
            x, y = draw(BIG_ENTRY), draw(BIG_ENTRY)
            vec = {c: x * a.get(c, 0) + y * b.get(c, 0) for c in list(a) + list(b)}
            vec.update(draw(st.dictionaries(st.integers(0, 6), BIG_ENTRY, max_size=1)))
        else:
            vec = draw(st.dictionaries(st.integers(0, 6), BIG_ENTRY, max_size=5))
        seen.append(vec)
        steps.append((draw(st.sampled_from(["add", "add", "residue", "contains"])), vec))
    return steps


@settings(max_examples=300, deadline=None)
@given(echelon_scripts())
def test_echelon_matches_fraction_echelon(steps):
    ech, ref = Echelon(), FractionEchelon()
    for op, vec in steps:
        if op == "residue":
            assert typed(ech.residue(vec)) == typed(ref.residue(vec))
        else:
            assert getattr(ech, op)(vec) == getattr(ref, op)(vec)
        assert [(pc, typed(row)) for pc, row in ech.rows] == \
            [(pc, typed(row)) for pc, row in ref.rows]
        assert ech.dim == len(ref.rows)
        assert sorted(ech.position) == sorted(ref.position)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_solve_linear_matches_fraction_solve(data):
    rows, cols = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 6))
    m = matrix(rows, cols, {(r, c): data.draw(BIG_ENTRY)
                            for r in range(rows) for c in range(cols)})
    targets = [apply(m, {c: data.draw(BIG_ENTRY) for c in range(cols)})
               for _ in range(data.draw(st.integers(0, 2)))]
    targets += data.draw(st.lists(st.dictionaries(st.integers(0, rows - 1), BIG_ENTRY,
                                                  max_size=rows), max_size=2))
    res = solve_linear(m, targets)
    rank, kernel, solutions, ok = fraction_solve_linear(m, targets)
    assert res.rank == rank
    assert [typed(k) for k in res.kernel] == [typed(k) for k in kernel]
    assert [typed(s) for s in res.solutions] == [typed(s) for s in solutions]
    assert solvable(res) == ok


def test_cohomology_of_many_free_generators_is_fast():
    # 200 degree-10 generators with d = 0: H^20 is the whole degree-20 space,
    # 200 * 201 / 2 = 20,100 classes, each added to the classes Echelon with a
    # pivot no earlier row has, so back-reduction must not scan the rows.
    ctx = GeneratorContext([("g%d" % i, 10) for i in range(200)])
    p = SullivanPresentation(ctx, {g: AlgElement.zero(ctx) for g in ctx.names})
    start = time.perf_counter()
    rep = cohomology(p, 0, 20)
    assert {k: d for k, d in rep.dims().items() if d} == {0: 1, 10: 200, 20: 20100}
    assert time.perf_counter() - start < 5.0


# -- elimination sized to the answer, pinned against the code it replaced ------

def insertion_order_solve_linear(matrix, targets=None):
    """`solve_linear` as it was: the rows of [M | -T] enter the Echelon in
    row order."""
    targets = targets or []
    ncols = matrix.cols
    rows = [{} for _ in range(matrix.rows)]
    for (r, c), v in matrix.entries.items():
        rows[r][c] = v
    for j, t in enumerate(targets):
        for r, v in t.items():
            if v != 0:
                rows[r][ncols + j] = -Fraction(v)
    ech = Echelon()
    for row in rows:
        ech.add(row)
    unsolvable = {c - ncols for pc, row in ech._rows if pc >= ncols for c in row}
    pivots = sorted(pc for pc in ech.position if pc < ncols)
    kernel = {c: {c: Fraction(1)} for c in range(ncols) if c not in ech.position}
    solutions = [None if j in unsolvable else {} for j in range(len(targets))]
    for pc in reversed(pivots):
        row = ech._rows[ech.position[pc]][1]
        p = row[pc]
        for c, v in row.items():
            if c < ncols:
                if c != pc:
                    kernel[c][pc] = Fraction(-v, p)
            elif solutions[c - ncols] is not None:
                solutions[c - ncols][pc] = Fraction(-v, p)
    return len(pivots), list(kernel.values()), solutions, [s is not None for s in solutions]


SPARSE_ENTRY = st.one_of(st.just(0), st.just(0), st.integers(-3, 3),
                         st.fractions(min_value=-4, max_value=4, max_denominator=3))


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_solve_linear_matches_insertion_order(data):
    # Rows enter sorted by their smallest column, largest first; the answers
    # are read off the RREF, so they cannot see the order.
    rows, cols = data.draw(st.integers(1, 7)), data.draw(st.integers(1, 7))
    m = matrix(rows, cols, {(r, c): data.draw(SPARSE_ENTRY)
                            for r in range(rows) for c in range(cols)})
    targets = [apply(m, {c: data.draw(SPARSE_ENTRY) for c in range(cols)})
               for _ in range(data.draw(st.integers(0, 2)))]
    targets += data.draw(st.lists(st.dictionaries(st.integers(0, rows - 1), SPARSE_ENTRY,
                                                  max_size=rows), max_size=2))
    res = solve_linear(m, targets)
    rank, kernel, solutions, ok = insertion_order_solve_linear(m, targets)
    assert res.rank == rank
    assert [typed(k) for k in res.kernel] == [typed(k) for k in kernel]
    assert [typed(s) for s in res.solutions] == [typed(s) for s in solutions]
    assert solvable(res) == ok


def full_space_slice_homology(d_out, out_dim, d_in):
    """`slice_homology` as it was: boundaries and tagged representatives
    eliminated in C^k itself."""
    n = len(d_out)
    kernel = solve_linear(RationalMatrix(out_dim, d_out)).kernel
    classes = Echelon()
    for col in d_in:
        classes.add(col)
    reps = []
    for vec in kernel:
        res = classes.residue(vec)
        if min(res, default=n) < n:
            res[n + len(reps)] = Fraction(1)
            classes.add(res)
            reps.append(vec)
    return reps, classes


def full_space_class_coordinates(n, classes, cocycle):
    """`CohomologyReport.class_coordinates` as it was, on the Echelon above."""
    res = classes.residue(cocycle)
    if min(res, default=n) < n:
        raise RhtError("vector is not a cocycle modulo the computed boundaries")
    return {i - n: -c for i, c in res.items()}


class ColumnComplex:
    """A cochain complex given by the columns of its differentials: d[k][i]
    is d of basis vector i of C^k; C^k is 0 outside the keys of d."""

    def __init__(self, d, dims):
        self.d, self.dims = d, dims

    def dim(self, k):
        return self.dims.get(k, 0)

    def differential_column(self, k, i):
        return dict(self.d[k][i])


@st.composite
def random_complexes(draw):
    """A complex C^0 -> ... -> C^top with d^2 = 0, built from the top down:
    d out of C^top is random, and each column of d into C^k is a random
    sparse combination of a kernel basis of d out of C^k (the Fraction
    oracle's), so every boundary is a cocycle."""
    top = draw(st.integers(1, 3))
    dims = {k: draw(st.integers(0, 6)) for k in range(top + 1)}
    d = {top: [draw(st.dictionaries(st.integers(0, 2), SPARSE_ENTRY, max_size=2))
               for _ in range(dims[top])]}
    dims[top + 1] = 3
    for k in range(top - 1, -1, -1):
        m = RationalMatrix(dims[k + 2], d[k + 1])
        _, kernel, _, _ = fraction_solve_linear(m, [])
        d[k] = [lincomb((draw(SPARSE_ENTRY), vec) for vec in kernel
                        if draw(st.booleans())) for _ in range(dims[k])]
    return ColumnComplex(d, dims), top


@settings(max_examples=100, deadline=None)
@given(random_complexes(), st.data())
def test_class_coordinates_match_the_full_space_echelon(case, data):
    cx, top = case
    report = CohomologyReport(cx, 0, top)
    for k in range(top + 1):
        n = cx.dim(k)
        d_out = [cx.differential_column(k, i) for i in range(n)]
        d_in = [cx.differential_column(k - 1, i) for i in range(cx.dim(k - 1))]
        reps, classes = full_space_slice_homology(d_out, cx.dim(k + 1), d_in)
        assert [typed(v) for v in report.representatives(k)] == [typed(v) for v in reps]
        kernel = solve_linear(RationalMatrix(cx.dim(k + 1), d_out)).kernel
        probes = [lincomb((data.draw(SPARSE_ENTRY), vec) for vec in kernel + d_in)
                  for _ in range(3)]
        probes += [data.draw(st.dictionaries(st.integers(0, max(n - 1, 0)), SPARSE_ENTRY,
                                             max_size=n)) for _ in range(2)]
        for z in probes:
            try:
                want = typed(dict(sorted(full_space_class_coordinates(n, classes, z).items())))
            except RhtError as exc:
                want = str(exc)
            try:
                got = typed(report.class_coordinates(k, z))
            except RhtError as exc:
                got = str(exc)
            assert got == want


@settings(max_examples=100, deadline=None)
@given(random_complexes(), st.data())
def test_is_cocycle_is_d_z_equals_0(case, data):
    # The report's one cocycle test reads the kernel tails; on cocycles,
    # boundaries, and random vectors (mostly not cocycles) it says d z = 0.
    cx, top = case
    report = CohomologyReport(cx, 0, top)
    for k in range(top + 1):
        n = cx.dim(k)
        d_out = [cx.differential_column(k, i) for i in range(n)]
        d_in = [cx.differential_column(k - 1, i) for i in range(cx.dim(k - 1))]
        kernel = solve_linear(RationalMatrix(cx.dim(k + 1), d_out)).kernel
        probes = [lincomb((data.draw(SPARSE_ENTRY), vec) for vec in vecs)
                  for vecs in (kernel, d_in, kernel + d_in) for _ in range(2)]
        probes += [data.draw(st.dictionaries(st.integers(0, max(n - 1, 0)), SPARSE_ENTRY,
                                             max_size=n)) for _ in range(3)]
        for z in probes:
            assert report.is_cocycle(k, z) == (not lincomb((c, d_out[i]) for i, c in z.items()))


def window_probes(cx, k, coef):
    """Vectors of C^k to ask a report about: a cocycle, a boundary, their sum
    (combinations with coefficients coef()) and up to three basis vectors."""
    n = cx.dim(k)
    kernel = solve_linear(RationalMatrix(cx.dim(k + 1), [cx.differential_column(k, i)
                                                         for i in range(n)])).kernel
    d_in = [cx.differential_column(k - 1, i) for i in range(cx.dim(k - 1))]
    return ([lincomb((coef(), vec) for vec in vecs) for vecs in (kernel, d_in, kernel + d_in)]
            + [{i: coef()} for i in range(min(n, 3))])


def assert_window_matches_one_degree_reports(cx, lo, hi, probes):
    """The report over [lo, hi] answers as the one-degree report [k, k] at
    every k: representatives, class coordinates (or their error) and the
    cocycle test, with value types and key order.  A one-degree report
    restricts neither the rows of its solve nor the boundaries it adds."""
    def answers(report, k, vecs):
        out = [typed(v) for v in report.representatives(k)]
        for z in vecs:
            try:
                cls = typed(report.class_coordinates(k, z))
            except RhtError as exc:
                cls = str(exc)
            out.append((cls, report.is_cocycle(k, z)))
        return out

    window = CohomologyReport(cx, lo, hi)
    for k in range(lo, hi + 1):
        vecs = probes(k)
        assert answers(window, k, vecs) == answers(CohomologyReport(cx, k, k), k, vecs), k


@settings(max_examples=150, deadline=None)
@given(random_complexes(), st.data())
def test_a_window_matches_its_one_degree_reports(case, data):
    # Below hi the window solves d^k on the free columns of d^(k+1) only, and
    # above lo it adds only the pivot columns of d^(k-1) as boundaries.
    cx, top = case
    lo = data.draw(st.integers(0, top))
    hi = data.draw(st.integers(lo, top))
    assert_window_matches_one_degree_reports(
        cx, lo, hi, lambda k: window_probes(cx, k, lambda: data.draw(SPARSE_ENTRY)))


@pytest.mark.parametrize("build, hi", [
    (lambda: minimal_model(wedge_two_s2_cohomology(), 6).model, 6),
    (lambda: free_loop_model(sphere(2)), 30)], ids=["M(H(S2vS2)) to 6", "free loop S2 to 30"])
def test_deep_windows_match_their_one_degree_reports(build, hi):
    rng = random.Random(hi)
    p = build()
    assert_window_matches_one_degree_reports(
        p, 0, hi, lambda k: window_probes(p, k, lambda: Fraction(rng.randint(-3, 3),
                                                                 rng.randint(1, 3))))


# -- deterministic work counts ----------------------------------------------

WORK_COUNTS = os.path.join(os.path.dirname(__file__), "data", "work_counts.json")


def wedge_model_and_quasi_iso():
    mm = minimal_model(wedge_two_s2_cohomology(), 12)
    assert is_quasi_iso(mm.phi, 12)[0]


def wedge_model_and_two_quasi_isos():
    # The model pipeline's re-verification: phi, then phi after a change of
    # basis of H^2 (an automorphism of H, all of whose products on H^+ vanish),
    # on the same model and H.  Their windows are built once.
    H = wedge_two_s2_cohomology()
    mm = minimal_model(H, 10)
    assert is_quasi_iso(mm.phi, 10)[0]
    change = [[2, 1], [1, 1]]
    images = {g: {i: sum(change[i][j] * coords.get(j, 0) for j in range(2)) for i in range(2)}
              if mm.model.ctx.degree_of(g) == 2 else coords for g, coords in mm.phi.images.items()}
    assert is_quasi_iso(CdgaMorphism(mm.model, H, images, name="phi_U"), 10)[0]


def config_s3_4():
    pd = PDAlgebra(cohomology_algebra(sphere(3), 3), 3)
    dims = cohomology(config_space_model(pd, 4, max_k=4).quotient, 0, 12).dims()
    # F(S^3, 4) ~ S^3 x F(R^3, 3): (1 + t^3)(1 + t^2)(1 + 2t^2)
    assert [dims[k] for k in range(13)] == [1, 0, 3, 1, 2, 3, 0, 2, 0, 0, 0, 0, 0]


def loop_s2_100():
    # H(LS^2; Q) has Betti number 1 in every degree.
    assert set(cohomology(free_loop_model(sphere(2)), 0, 100).dims().values()) == {1}


WORKLOADS = {
    "minimal_model(H(S2vS2), 12) + is_quasi_iso": wedge_model_and_quasi_iso,
    "minimal_model(H(S2vS2), 10) + is_quasi_iso twice": wedge_model_and_two_quasi_isos,
    "cohomology_algebra(T7, 7)": lambda: cohomology_algebra(torus(7), 7),
    "cohomology(F(S3, 4), 0, 12)": config_s3_4,
    "cohomology(free_loop_model(S2), 0, 100)": loop_s2_100,
}


def work_counts(run, monkeypatch):
    """Entries passed through `_addmul` (by `linalg` and by the quotient normal
    forms of `cdga`), `Echelon.add` calls, `solve_linear` calls, products of
    two monomials (`algebra.monomial_mul`) and monomial divisions in `cdga`
    (the quotient's divisor tests) while `run()` runs; counts that do not
    depend on the machine."""
    counts = {"addmul_entries": 0, "echelon_add_calls": 0, "solve_linear_calls": 0,
              "monomial_products": 0, "monomial_divides": 0}
    addmul, add, monomial_mul = rht.linalg._addmul, Echelon.add, rht.algebra.monomial_mul
    monomial_divide = rht.cdga.monomial_divide

    def counted_addmul(dst, x, src):
        counts["addmul_entries"] += len(src)
        return addmul(dst, x, src)

    def counted_add(self, vec):
        counts["echelon_add_calls"] += 1
        return add(self, vec)

    def counted_solve(*args, **kwargs):
        counts["solve_linear_calls"] += 1
        return solve_linear(*args, **kwargs)

    def counted_monomial_mul(*args):
        counts["monomial_products"] += 1
        return monomial_mul(*args)

    def counted_monomial_divide(*args):
        counts["monomial_divides"] += 1
        return monomial_divide(*args)

    with monkeypatch.context() as patch:
        for module in (rht.linalg, rht.cdga):
            patch.setattr(module, "_addmul", counted_addmul)
        patch.setattr(Echelon, "add", counted_add)
        patch.setattr(rht.algebra, "monomial_mul", counted_monomial_mul)
        patch.setattr(rht.cdga, "monomial_divide", counted_monomial_divide)
        for module in (rht.cdga, rht.constructions, rht.homotopy_lie, rht.minimal_model):
            patch.setattr(module, "solve_linear", counted_solve)
        run()
    return counts


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_work_counts_stay_within_their_records(name, monkeypatch):
    # tests/data/work_counts.json records each count; a change that lowers one
    # records the new value, and one that raises it must give its reason.
    with open(WORK_COUNTS, encoding="utf-8") as fh:
        record = json.load(fh)[name]
    counts = work_counts(WORKLOADS[name], monkeypatch)
    assert {key: (counts[key], n) for key, n in record.items() if counts[key] > n} == {}
