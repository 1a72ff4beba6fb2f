"""Exact sparse linear algebra over Q.

Everything the package computes (cohomology, quasi-isomorphism checks,
surjectivity/cokernel bookkeeping) reduces to one elimination engine,
`Echelon`: an incremental reduced row echelon form over `Fraction`.  The
basis it holds is the unique RREF of the span of what was fed in, so every
answer read off it is canonical.  `solve_linear` reads the kernel, rank and
particular solutions off the RREF of the augmented matrix [M | -T], and
`slice_homology` computes cocycles modulo boundaries at one degree.
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
    """Incremental reduced row space over Q with optional coordinate tracking.

    Used as the workhorse for span membership, quotient bases, and expressing
    vectors in terms of the vectors fed in.  Invariant: every row is 1 at its
    pivot (its smallest column) and every other row is 0 there, so the rows
    are the RREF of the span.  Subtracting a multiple of a row therefore never
    creates an entry in another pivot column, which lets `_reduce` visit only
    the pivots the incoming vector already has.
    """

    def __init__(self, track=False):
        self.rows = []        # list of (pivot_col, sparse row dict)
        self.position = {}    # pivot_col -> index into rows
        self.track = track
        self.combos = []      # parallel: row as combination of inserted vectors
        self.count = 0        # number of inserted vectors so far

    def _reduce(self, vec, combo=None):
        vec = {c: Fraction(v) for c, v in vec.items() if v != 0}
        for i in [self.position[c] for c in vec if c in self.position]:
            pc, row = self.rows[i]
            x = vec[pc]
            _subtract(vec, x, row)
            if combo is not None:
                _subtract(combo, x, self.combos[i])
        return vec, combo

    def add(self, vec):
        """Insert a vector; returns True if it enlarged the span."""
        combo = {self.count: ONE} if self.track else None
        self.count += 1
        vec, combo = self._reduce(vec, combo)
        if not vec:
            return False
        pc = min(vec)
        inv = ONE / vec[pc]
        vec = {c: v * inv for c, v in vec.items()}
        if self.track:
            combo = {k: v * inv for k, v in combo.items()}
        # Back-reduce existing rows to keep the basis reduced.
        for i, (_, orow) in enumerate(self.rows):
            x = orow.get(pc)
            if x:
                _subtract(orow, x, vec)
                if self.track:
                    _subtract(self.combos[i], x, combo)
        self.position[pc] = len(self.rows)
        self.rows.append((pc, vec))
        if self.track:
            self.combos.append(combo)
        return True

    def contains(self, vec):
        vec, _ = self._reduce(vec)
        return not vec

    def residue(self, vec):
        """vec reduced modulo the span (supported on non-pivot coordinates)."""
        vec, _ = self._reduce(vec)
        return vec

    def coordinates(self, vec):
        """Express vec as a combination of the *inserted* vectors, or None.

        Requires track=True.  Returns {inserted_index: Fraction}.
        """
        if not self.track:
            raise RhtError("Echelon built without coordinate tracking")
        vec, combo = self._reduce(vec, {})
        if vec:
            return None
        return {k: -v for k, v in combo.items()}

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
    Returns (kernel, reps, classes): the kernel basis of `solve_linear`; the
    kernel vectors that enlarge the span of the boundaries, in kernel order,
    whose classes form a basis of H^k; and a tracked Echelon holding the
    boundaries (inserted indices 0 .. len(d_in) - 1) followed by the
    representatives, reps[i] at inserted index len(d_in) + i.
    """
    kernel = solve_linear(RationalMatrix.from_columns(out_dim, d_out)).kernel
    classes = Echelon(track=True)
    for col in d_in:
        classes.add(col)
    reps = []
    for vec in kernel:
        if classes.add(vec):
            reps.append(vec)
        else:
            classes.count -= 1    # forget it, so the next representative keeps its index
    return kernel, reps, classes
