"""Exact sparse linear algebra over Q.

Everything the package computes (cohomology, quasi-isomorphism checks,
surjectivity/cokernel bookkeeping) reduces to one elimination engine with one
mode, `Echelon`: an incremental reduced row echelon form over `Fraction`.  Its
basis is the unique RREF of the span of what was fed in, so every answer read
off it is canonical.  `solve_linear` reads kernel, rank and solutions off the
RREF of [M | -T]; `slice_homology` tags each cocycle representative with a
unit column, so class coordinates are read off a residue the same way.
Sparse vectors are {index: Fraction} dicts; `lincomb` sums them in place, on
the same loop `Echelon` reduces with.
"""

from fractions import Fraction

from .errors import RhtError

ZERO = Fraction(0)
ONE = Fraction(1)


class RationalMatrix:
    """Sparse matrix over Q acting on column vectors: entries {(row, col): Fraction}."""

    def __init__(self, rows, cols, entries=None):
        self.rows = rows
        self.cols = cols
        self.entries = {}
        if entries:
            for (r, c), v in entries.items():
                v = Fraction(v)
                if v != 0:
                    if not (0 <= r < rows and 0 <= c < cols):
                        raise RhtError("entry (%d,%d) outside %dx%d matrix" % (r, c, rows, cols))
                    self.entries[(r, c)] = v

    @staticmethod
    def from_columns(rows, columns):
        """Matrix whose j-th column is the sparse vector columns[j]."""
        entries = {}
        for j, col in enumerate(columns):
            for r, v in col.items():
                if v != 0:
                    entries[(r, j)] = Fraction(v)
        return RationalMatrix(rows, len(columns), entries)

    def column(self, j):
        return {r: v for (r, c), v in self.entries.items() if c == j}

    def row_list(self):
        out = [dict() for _ in range(self.rows)]
        for (r, c), v in self.entries.items():
            out[r][c] = v
        return out

    def apply(self, vec):
        """Matrix-vector product on a sparse column vector {col: Fraction}."""
        out = {}
        for (r, c), v in self.entries.items():
            x = vec.get(c)
            if x:
                out[r] = out.get(r, ZERO) + v * x
        return {r: v for r, v in out.items() if v != 0}

    def __repr__(self):
        return "RationalMatrix(%dx%d, %d nonzero)" % (self.rows, self.cols, len(self.entries))


class LinearSolveResult:
    """Kernel basis, rank, and per-target particular solutions."""

    def __init__(self, rank, kernel, solutions, solvable):
        self.rank = rank
        self.kernel = kernel          # list of sparse {col: Fraction}, M k = 0
        self.solutions = solutions    # list of sparse {col: Fraction} or None
        self.solvable = solvable      # list of bool, parallel to targets


def solve_linear(matrix, targets=None):
    """Exact kernel / rank / solve for M x = t over Q.

    `targets` is an optional list of sparse {row: Fraction} vectors.  Targets
    that are not in the column space are flagged unsolvable, never an error.
    The answers are canonical: kernel vector j is 1 at the j-th free column
    and 0 at the others, and each solution is 0 on every free column.
    Postcondition: rank + len(kernel) == cols (rank-nullity).
    """
    targets = targets or []
    ncols = matrix.cols
    # RREF of [M | -T]: target j sits in column ncols + j.
    rows = matrix.row_list()
    for j, t in enumerate(targets):
        for r, v in t.items():
            if v != 0:
                rows[r][ncols + j] = -Fraction(v)
    ech = Echelon()
    for row in rows:
        ech.add(row)

    # A row pivoting on a target column proves every target in its support
    # unsolvable; a reduced row is 0 at every other pivot, so no solvable
    # target appears in one.
    unsolvable = {c - ncols for pc, row in ech.rows if pc >= ncols for c in row}
    pivots = sorted(pc for pc in ech.position if pc < ncols)
    kernel = {c: {c: ONE} for c in range(ncols) if c not in ech.position}
    solutions = [None if j in unsolvable else {} for j in range(len(targets))]
    for pc in reversed(pivots):
        for c, v in ech.rows[ech.position[pc]][1].items():
            if c < ncols:
                if c != pc:
                    kernel[c][pc] = -v
            elif solutions[c - ncols] is not None:
                solutions[c - ncols][pc] = -v
    return LinearSolveResult(len(pivots), list(kernel.values()), solutions,
                             [s is not None for s in solutions])


class Echelon:
    """Incremental reduced row space over Q.

    Used as the workhorse for span membership, quotient bases and residues.
    Invariant: every row is 1 at its pivot (its smallest column) and every
    other row is 0 there, so the rows are the RREF of the span.  Subtracting
    a multiple of a row therefore never creates an entry in another pivot
    column, which lets `_reduce` visit only the pivots the incoming vector
    already has.
    """

    def __init__(self):
        self.rows = []        # list of (pivot_col, sparse row dict)
        self.position = {}    # pivot_col -> index into rows

    def _reduce(self, vec):
        vec = {c: Fraction(v) for c, v in vec.items() if v != 0}
        for i in [self.position[c] for c in vec if c in self.position]:
            pc, row = self.rows[i]
            _subtract(vec, vec[pc], row)
        return vec

    def add(self, vec):
        """Insert a vector; returns True if it enlarged the span."""
        vec = self._reduce(vec)
        if not vec:
            return False
        pc = min(vec)
        inv = ONE / vec[pc]
        vec = {c: v * inv for c, v in vec.items()}
        # Back-reduce existing rows to keep the basis reduced.
        for _, orow in self.rows:
            x = orow.get(pc)
            if x:
                _subtract(orow, x, vec)
        self.position[pc] = len(self.rows)
        self.rows.append((pc, vec))
        return True

    def contains(self, vec):
        return not self._reduce(vec)

    def residue(self, vec):
        """vec reduced modulo the span (supported on non-pivot coordinates)."""
        return self._reduce(vec)

    @property
    def dim(self):
        return len(self.rows)

    def pivot_columns(self):
        return sorted(self.position)


def _subtract(dst, x, src):
    """dst -= x * src in place, dropping entries that become 0."""
    for c, v in src.items():
        y = dst.get(c, ZERO) - x * v
        if y:
            dst[c] = y
        else:
            dst.pop(c, None)


def lincomb(terms):
    """Sum of c * v over the (c, v) pairs, as one fresh sparse vector.

    Entries that become 0 are dropped at once, so a key that cancels and is
    touched again moves to the end, exactly as repeated `out + c * v` would.
    """
    out = {}
    for c, v in terms:
        if v:
            _subtract(out, -c, v)
    return out


def slice_homology(d_out, out_dim, d_in):
    """Cocycles modulo boundaries at one degree k of a cochain complex.

    `d_out` holds the columns of d: C^k -> C^{k+1}, vectors in a space of
    dimension `out_dim`; `d_in` holds the columns of d: C^{k-1} -> C^k.
    Returns (reps, classes): the kernel vectors of `solve_linear` whose
    classes form a basis of H^k, in kernel order; and an Echelon of every
    boundary b as b + 0 and each reps[i] as reps[i] + e_i, e_i at column
    len(d_out) + i, from which class coordinates are read as residues.
    """
    n = len(d_out)
    kernel = solve_linear(RationalMatrix.from_columns(out_dim, d_out)).kernel
    classes = Echelon()
    for col in d_in:
        classes.add(col)
    reps = []
    for vec in kernel:
        res = classes.residue(vec)
        if min(res, default=n) < n:
            res[n + len(reps)] = ONE
            classes.add(res)
            reps.append(vec)
    return reps, classes

