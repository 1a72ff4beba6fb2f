"""Exact sparse linear algebra over Q: the elimination engine.

Everything the package computes (cohomology, quasi-isomorphism checks,
surjectivity/cokernel bookkeeping) reduces to one elimination engine,
`Echelon`: the unique RREF of the span of what was fed in, so every answer
read off it is canonical, whatever order the vectors came in; the order only
changes the work, and `solve_linear` feeds the rows of [M | -T] in a
fill-reducing one.  Inside, rows are primitive integer vectors, eliminated by
cross-multiplication, with a column -> rows occupancy index.  An integral
value is an int inside; what leaves the package is a Fraction: `residue`,
`rows`, and the kernel and solutions read off the RREF.  `RationalMatrix`
holds the shape and entries that `solve_linear` reads.  Sparse vectors are
{index: value} dicts; `lincomb`, the one sparse sum, adds them in place, on
the same loop `Echelon` reduces with.
"""

from fractions import Fraction
from math import gcd, lcm

from .errors import RhtError

ONE = Fraction(1)


class RationalMatrix:
    """Shape and nonzero entries {(row, col): value} of a sparse matrix over Q,
    the input of `solve_linear`: column j is the sparse vector columns[j],
    its values taken as they are."""

    def __init__(self, rows, columns):
        self.rows = rows
        self.cols = len(columns)
        self.entries = {}
        for j, col in enumerate(columns):
            for r, v in col.items():
                if v:
                    if not 0 <= r < rows:
                        raise RhtError("entry (%d,%d) outside %dx%d matrix" % (r, j, rows, self.cols))
                    self.entries[(r, j)] = v

    def __repr__(self):
        return "RationalMatrix(%dx%d, %d nonzero)" % (self.rows, self.cols, len(self.entries))


class LinearSolveResult:
    """Kernel basis, rank, and per-target particular solutions."""

    def __init__(self, rank, kernel, solutions):
        self.rank = rank
        self.kernel = kernel          # list of sparse {col: Fraction}, M k = 0
        self.solutions = solutions    # per target: sparse {col: Fraction}, or None if unsolvable


def solve_linear(matrix, targets=None):
    """Exact kernel / rank / solve for M x = t over Q.

    `targets` is an optional list of sparse {row: Fraction} vectors.  Targets
    that are not in the column space get the solution None, never an error.
    The answers are canonical: kernel vector j is 1 at the j-th free column
    and 0 at the others, and each solution is 0 on every free column.
    Postcondition: rank + len(kernel) == cols (rank-nullity).
    """
    targets = targets or []
    ncols = matrix.cols
    # RREF of [M | -T]: target j sits in column ncols + j, T range-checked as M is.
    rows = [{} for _ in range(matrix.rows)]
    for (r, c), v in matrix.entries.items():
        rows[r][c] = v
    for (r, j), v in RationalMatrix(matrix.rows, targets).entries.items():
        rows[r][ncols + j] = -Fraction(v)
    # Nonzero rows in a fill-reducing order (Markowitz 1957): largest smallest
    # column first, so a row mostly pivots left of the rows before it, and
    # they, 0 left of their own pivots, need no back-reduction.
    ech = Echelon()
    for row in sorted(filter(None, rows), key=min, reverse=True):
        ech.add(row)

    # A row pivoting on a target column proves every target in its support
    # unsolvable; a reduced row is 0 at every other pivot, so no solvable
    # target appears in one.
    unsolvable = {c - ncols for pc, row in ech._rows if pc >= ncols for c in row}
    pivots = sorted(pc for pc in ech.position if pc < ncols)
    kernel = {c: {c: ONE} for c in range(ncols) if c not in ech.position}
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
    return LinearSolveResult(len(pivots), list(kernel.values()), solutions)


class Echelon:
    """Incremental reduced row space over Q, eliminated on integers.

    A row is a primitive integer vector r (content 1, r[pc] > 0 at its pivot
    pc, its smallest column) standing for the RREF row r / r[pc]; every other
    row is 0 at pc.  So subtracting a multiple of a row never creates an
    entry in another pivot column: `_reduce` visits only the pivots the
    vector has, and `add` back-reduces only the rows that the occupancy
    index lists under the new pivot and that are still nonzero there.
    """

    def __init__(self):
        self._rows = []       # list of (pivot_col, primitive integer row dict)
        self.position = {}    # pivot_col -> index into _rows
        self._occupied = {}   # non-pivot col -> indices of the rows nonzero there, or once were

    def _reduce(self, vec):
        """(out, den), out integral, an all-int vec as it is (den 1): out / den is
        the vector a Fraction elimination holds at each step (same zeros, key order)."""
        for v in vec.values():
            if type(v) is not int:
                ratios = [(c, v.as_integer_ratio()) for c, v in vec.items()]
                den = lcm(*[d for _, (n, d) in ratios if n])
                out = {c: n * (den // d) for c, (n, d) in ratios if n}
                break
        else:
            den, out = 1, {c: v for c, v in vec.items() if v}
        for i in [self.position[c] for c in out if c in self.position]:
            pc, row = self._rows[i]
            den *= _eliminate(out, row, pc)
        return out, den

    def add(self, vec):
        """Insert a vector; returns True if it enlarged the span."""
        vec, _ = self._reduce(vec)
        if not vec:
            return False
        pc = min(vec)
        vec = _primitive(vec, vec[pc] < 0)
        occupied = self._occupied
        for i in occupied.pop(pc, ()):    # back-reduce to keep the basis reduced
            orow = self._rows[i][1]
            if pc in orow:
                for c in vec:
                    if c not in orow:
                        occupied.setdefault(c, []).append(i)
                _eliminate(orow, vec, pc)
                self._rows[i] = (self._rows[i][0], _primitive(orow, False))
        for c in vec:
            if c != pc:
                occupied.setdefault(c, []).append(len(self._rows))
        self.position[pc] = len(self._rows)
        self._rows.append((pc, vec))
        return True

    def contains(self, vec):
        return not self._reduce(vec)[0]

    def residue(self, vec):
        """vec reduced modulo the span (supported on non-pivot coordinates)."""
        vec, den = self._reduce(vec)
        return {c: Fraction(v, den) for c, v in vec.items()}

    @property
    def rows(self):
        """The RREF rows as (pivot_col, {col: Fraction}) pairs, in insertion order."""
        return [(pc, {c: Fraction(v, row[pc]) for c, v in row.items()})
                for pc, row in self._rows]

    @property
    def dim(self):
        return len(self._rows)


def _eliminate(dst, src, pc):
    """dst = b * dst - a * src in place, with a / b = dst[pc] / src[pc] in
    lowest terms and b > 0, so that dst is 0 at pc; returns b."""
    g = gcd(dst[pc], src[pc])
    a, b = dst[pc] // g, src[pc] // g
    if b != 1:
        for c in dst:
            dst[c] *= b
    _addmul(dst, -a, src)
    return b


def _primitive(vec, negate):
    """vec divided by its content, and by -1 as well if `negate`."""
    g = -gcd(*vec.values()) if negate else gcd(*vec.values())
    return vec if g == 1 else {c: v // g for c, v in vec.items()}


def _addmul(dst, x, src):
    """dst += x * src in place, dropping 0 entries; an absent key takes x * v,
    of its own type (int * int stays int, which `Echelon` needs).  An int
    x = +-1 adds or subtracts v itself: v * +-1 is +-v, of v's type."""
    if type(x) is int and (x == 1 or x == -1):
        for c, v in src.items():
            y = dst.get(c)
            y = (v if x == 1 else -v) if y is None else (y + v if x == 1 else y - v)
            if y:
                dst[c] = y
            else:
                dst.pop(c, None)
        return
    for c, v in src.items():
        y = dst.get(c)
        y = v * x if y is None else y + v * x
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
            _addmul(out, c, v)
    return out

