"""Free graded-commutative algebras over Q with exact rational coefficients.

Generators live in a fixed ordered `GeneratorContext`; monomials are kept in
normal order (context order), odd generators square to zero, and every sign
is computed by counting transpositions of odd factors.  Elements are sparse
maps monomial -> Fraction in canonical form, so equality is literal equality.

Coefficients are exact, canonical and never floats: `fractions.Fraction` in
the API, an `int` for an integral value inside the engine (Leibniz columns).
"""

from bisect import bisect_left, bisect_right
from collections import Counter
from fractions import Fraction

from .errors import ContextMismatchError, DegreeError, DerivationError, BudgetExceededError
from .linalg import lincomb

ZERO = Fraction(0)
ONE = Fraction(1)

# Largest monomial basis `MonomialBases.basis`, or standard monomial basis of a
# `QuotientCDGA`, built in one degree (read at call time).
MONOMIAL_BUDGET = 200_000


def as_q(value):
    """Coerce ints / strings like '2/3' to Fraction, return a Fraction unchanged; reject floats."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError("floating-point coefficients are not allowed: %r" % value)
    return Fraction(value)


class GeneratorContext:
    """Ordered list of (name, degree) generators of a free algebra Lambda(V).

    The order is fixed forever: it determines monomial normal order and hence
    every Koszul sign.  Degrees must be >= 1 (degree-0 generators belong to
    the finite-dimensional cdga layer, not to free presentations).
    """

    def __init__(self, generators):
        gens = []
        for name, degree in generators:
            if not isinstance(degree, int) or degree < 1:
                raise DegreeError("generator %r must have positive integer degree, got %r" % (name, degree))
            gens.append((str(name), degree))
        names = [n for n, _ in gens]
        if len(set(names)) != len(names):
            raise ContextMismatchError("duplicate generator names: %r" % (names,))
        self.gens = tuple(gens)
        self.names = tuple(names)
        self.degrees = tuple(d for _, d in gens)
        self.odd = tuple(d % 2 == 1 for d in self.degrees)
        self.index = {n: i for i, (n, _) in enumerate(gens)}

    def __len__(self):
        return len(self.gens)

    def __eq__(self, other):
        return self is other or (isinstance(other, GeneratorContext) and self.gens == other.gens)

    def __hash__(self):
        return hash(self.gens)

    def __repr__(self):
        return "GeneratorContext(%s)" % ", ".join("%s:%d" % g for g in self.gens)

    def degree_of(self, name):
        return self.degrees[self.index[name]]

    def ranks(self, degrees=None):
        """{k: dim V^k} for k in `degrees` (by default those that occur, ascending)."""
        counts = Counter(self.degrees)
        return {k: counts[k] for k in (sorted(counts) if degrees is None else degrees)}

    def extend(self, more):
        """New context with extra generators appended (order preserved)."""
        return GeneratorContext(list(self.gens) + list(more))

    def generator(self, name):
        """The generator as an AlgElement."""
        return AlgElement(self, {generator_monomial(self.index[name]): ONE})


# A monomial is a tuple of (generator_index, exponent) pairs, sorted by index,
# exponents >= 1, odd generators with exponent exactly 1, and () is the unit.
# Only this module reads that layout; other modules use the names below.
UNIT_MONOMIAL = ()


def generator_monomial(i):
    return ((i, 1),)


def monomial_factors(mono):
    """The generator indices of mono, ascending, each repeated by its exponent."""
    return [i for i, e in mono for _ in range(e)]


def monomial_times(ctx, mono, i):
    """mono * x_i (no sign) if x_i is at or after mono's last generator and nonzero, else None."""
    if not mono or mono[-1][0] < i:
        return mono + ((i, 1),)
    if mono[-1][0] == i and not ctx.odd[i]:
        return mono[:-1] + ((i, mono[-1][1] + 1),)
    return None


def monomial_order(mono):
    """Sort key of the basis order within a degree (lexicographic in exponent vectors)."""
    return [(-j, e) for j, e in mono]


def monomial_divide(mono, divisor):
    """mono / divisor as a monomial, or None when divisor does not divide mono:
    one walk of mono's blocks, which are sorted by index as the divisor's are."""
    out, pos, n = [], 0, len(mono)
    for j, e in divisor:
        while pos < n and mono[pos][0] < j:
            out.append(mono[pos])
            pos += 1
        if pos == n or mono[pos][0] != j or mono[pos][1] < e:
            return None
        if mono[pos][1] > e:
            out.append((j, mono[pos][1] - e))
        pos += 1
    return tuple(out) + mono[pos:]


def monomial_lcm(m1, m2):
    exps = dict(m1)
    for j, e in m2:
        exps[j] = max(exps.get(j, 0), e)
    return tuple(sorted(exps.items()))


def monomial_shift(mono, offset):
    return tuple((i + offset, e) for i, e in mono)


def monomial_blocks(mono):
    """(i, e, left, right) per block x_i^e of mono = left * x_i * right (left keeps x_i^(e-1))."""
    for pos, (i, e) in enumerate(mono):
        yield i, e, mono[:pos] + (((i, e - 1),) if e > 1 else ()), mono[pos + 1:]


def monomial_degree(ctx, mono):
    return sum(ctx.degrees[i] * e for i, e in mono)


def monomial_word_length(mono):
    return sum(e for _, e in mono)


def monomial_mul(ctx, m1, m2):
    """Normal-ordered product of two monomials: (sign, monomial) or (0, None)."""
    if not m1:
        return 1, m2
    if not m2:
        return 1, m1
    odd = ctx.odd
    if len(m1) == 1:    # x^e m2: x^e goes in at its position in m2
        i, e = m1[0]
        pos = bisect_left(m2, (i, 0))
        if pos < len(m2) and m2[pos][0] == i:
            return (0, None) if odd[i] else (1, m2[:pos] + ((i, e + m2[pos][1]),) + m2[pos + 1:])
        # an odd x hops over the odd factors of m2 before it
        sign = -1 if odd[i] and sum(odd[j] for j, _ in m2[:pos]) & 1 else 1
        return sign, m2[:pos] + m1 + m2[pos:]
    # Sign: each odd factor of m2 hops over the odd factors of m1 with larger index.
    odd1 = [i for i, _ in m1 if odd[i]]
    merged = dict(m1)
    swaps = 0
    for j, e in m2:
        if odd[j]:
            if j in merged:
                return 0, None
            swaps += len(odd1) - bisect_right(odd1, j)
        merged[j] = merged.get(j, 0) + e
    return -1 if swaps & 1 else 1, tuple(sorted(merged.items()))


def monomial_products(ctx, x, y):
    """Sum of the products of two {monomial: coeff} maps, unsorted: one `lincomb`
    row per monomial of x (a fixed factor is injective, so a row repeats no key);
    a lone row that its coefficient 1 leaves as it is (no 0, no int made a Fraction) is returned."""
    rows = []
    for m1, c1 in x.items():
        row = {}
        for m2, c2 in y.items():
            sign, mono = monomial_mul(ctx, m1, m2)
            if sign:
                row[mono] = c2 if sign > 0 else -c2
        rows.append((c1, row))
    if len(rows) == 1 and c1 == 1 and all(row.values()) and (
            type(c1) is int or all(type(v) is Fraction for v in row.values())):
        return row
    return lincomb(rows)


def monomial_str(ctx, mono):
    if not mono:
        return "1"
    parts = []
    for i, e in mono:
        parts.append(ctx.names[i] if e == 1 else "%s^%d" % (ctx.names[i], e))
    return "*".join(parts)


class AlgElement:
    """Finite Q-linear combination of normal-ordered monomials."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx, terms=None):
        self.ctx = ctx
        terms = {m: as_q(c) for m, c in terms.items()} if terms else {}
        self.terms = dict(sorted((m, c) for m, c in terms.items() if c))

    # -- constructors ------------------------------------------------------
    @staticmethod
    def zero(ctx):
        return AlgElement(ctx, {})

    @staticmethod
    def unit(ctx, coeff=ONE):
        return AlgElement(ctx, {UNIT_MONOMIAL: as_q(coeff)})

    # -- structure ---------------------------------------------------------
    def is_zero(self):
        return not self.terms

    def degree(self):
        """Degree if homogeneous, else None.  Zero has degree None."""
        degs = {monomial_degree(self.ctx, m) for m in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    def word_part(self, length):
        return AlgElement(self.ctx, {m: c for m, c in self.terms.items()
                                     if monomial_word_length(m) == length})

    def linear_part(self):
        return self.word_part(1)

    def _check(self, other):
        if self.ctx != other.ctx:
            raise ContextMismatchError("elements live in different generator contexts")

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other):
        self._check(other)
        return AlgElement(self.ctx, lincomb([(ONE, self.terms), (ONE, other.terms)]))

    def __sub__(self, other):
        self._check(other)
        return AlgElement(self.ctx, lincomb([(ONE, self.terms), (-ONE, other.terms)]))

    def __neg__(self):
        return AlgElement(self.ctx, {m: -c for m, c in self.terms.items()})

    def scale(self, coeff):
        coeff = as_q(coeff)
        return AlgElement(self.ctx, {m: c * coeff for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        return AlgElement(self.ctx, monomial_products(self.ctx, self.terms, other.terms))

    def __rmul__(self, coeff):
        return self.scale(coeff)

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative powers are not defined in Lambda(V)")
        result, square = AlgElement.unit(self.ctx), self
        while n:
            if n & 1:
                result = result * square
            n >>= 1
            if n:
                square = square * square
        return result

    def __eq__(self, other):
        return isinstance(other, AlgElement) and self.ctx == other.ctx and self.terms == other.terms

    def __hash__(self):
        return hash((self.ctx, tuple(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.terms.items():
            ms = monomial_str(self.ctx, m)
            if ms == "1":
                parts.append(str(c))
            elif c == 1:
                parts.append(ms)
            elif c == -1:
                parts.append("-" + ms)
            else:
                parts.append("%s*%s" % (c, ms))
        s = " + ".join(parts)
        return s.replace("+ -", "- ")


class Derivation:
    """Degree-r derivation of Lambda(V), given by its values on generators.

    Extension to monomials follows the graded Leibniz rule
    theta(xy) = theta(x) y + (-1)^(r deg x) x theta(y).  The image of g, of
    degree |g| + r, may live over an initial segment of the context (each
    distinct one compared once): appending generators keeps every index, so
    it is stored as its term dict and `SullivanPresentation.extend` takes
    over the parent's images unchecked.  One column store {monomial:
    theta(monomial)} is kept, integral values int, on one integer view of
    each image made here; images never change, so neither do columns.
    """

    def __init__(self, ctx, degree, images):
        self.ctx = ctx
        self.degree = degree
        self._images = {}           # generator name -> image as {monomial: Fraction}
        self._views = {}            # generator index -> image, integral values int
        accepted = {id(ctx)}        # the contexts seen to begin ctx
        for name, img in images.items():
            if name not in ctx.index:
                raise DerivationError("image given for unknown generator %r" % name)
            if id(img.ctx) not in accepted:
                if ctx.gens[:len(img.ctx)] != img.ctx.gens:
                    raise ContextMismatchError(
                        "image of %r lives in a context that does not begin this one" % name)
                accepted.add(id(img.ctx))
            if not img.is_zero():
                d = img.degree()
                if d is None or d != ctx.degree_of(name) + degree:
                    raise DegreeError(
                        "image of %r must be homogeneous of degree %d"
                        % (name, ctx.degree_of(name) + degree))
            self._images[name] = img.terms
            self._views[ctx.index[name]] = {
                m: c.numerator if c.denominator == 1 else c for m, c in img.terms.items()}
        self._columns = {(): {}}    # monomial -> theta(monomial), sorted, integral values int
        self._monos = {}            # monomial -> the one tuple the columns use for it

    def image_terms(self, name):
        if name not in self._images:
            raise DerivationError("derivation has no image for generator %r" % name)
        return self._images[name]

    def image_of(self, name):
        x = AlgElement.__new__(AlgElement)      # on the stored terms: canonical, not copied
        x.ctx, x.terms = self.ctx, self.image_terms(name)
        return x

    @property
    def images(self):
        return {name: self.image_of(name) for name in self._images}

    def column(self, mono):
        """theta(mono) by the Leibniz rule, stored for each suffix of mono, from
        the longest suffix already stored down (a loop: a word may be long)."""
        store, monos = self._columns, self._monos
        j, col = 0, store.get(mono)
        while col is None:
            j += 1
            col = store.get(mono[j:])
        for i, _ in mono[:j]:       # a missing image is named leftmost first
            self.image_terms(self.ctx.names[i])
        for j in range(j - 1, -1, -1):
            suffix = monos.setdefault(mono[j:], mono[j:])
            col = store[suffix] = self._leibniz(mono[j], mono[j + 1:], col)
        return col

    def _leibniz(self, block, rest, theta_rest):
        """theta(x^e m') = e theta(x) x^(e-1) m' + (-1)^(r e |x|) x^e theta(m') for
        block = (x, e), x before every generator of m' (theta(x) commutes with
        the even x^(e-1))."""
        ctx = self.ctx
        i, e = block
        tail = (((i, e - 1),) if e > 1 else ()) + rest
        first, second = {}, {}
        for m, c in self._views[i].items():
            sign, prod = monomial_mul(ctx, m, tail)
            if sign:
                first[prod] = c if sign * e == 1 else sign * e * c
        sign_x = -1 if self.degree % 2 and ctx.odd[i] else 1
        for m, c in theta_rest.items():
            sign, prod = monomial_mul(ctx, (block,), m)
            if sign:
                second[prod] = c if sign == sign_x else -c
        col = lincomb([(1, first), (1, second)]) if first and second else first or second
        return {self._monos.setdefault(m, m): c.numerator if c.denominator == 1 else c
                for m, c in sorted(col.items())}

    def __repr__(self):
        body = ", ".join("%s -> %s" % (n, v) for n, v in self.images.items())
        return "Derivation(deg %+d; %s)" % (self.degree, body)


def apply_derivation(theta, x):
    """theta(x): one `lincomb` of the stored columns as they are, each scaled by
    its coefficient in x (an int if integral), made Fractions by `AlgElement`."""
    if x.ctx != theta.ctx:
        raise ContextMismatchError("derivation and element contexts differ")
    return AlgElement(x.ctx, lincomb((c.numerator if c.denominator == 1 else c, theta.column(m))
                                     for m, c in x.terms.items()))


class MonomialBases:
    """Ordered monomial bases of Lambda(V) (lexicographic in exponent vectors
    over the context order, exponents ascending) read off one table.  Row r
    counts the monomials of degree r over generators i.., i = 0..N, and is
    computed once, by c_i(r) = c_{i+1}(r) + c_i(r - |x_i|) for an even x_i and
    c_{i+1}(r) + c_{i+1}(r - |x_i|) for an odd one.  The suffix lists (i, r)
    follow the same rule, built on demand with an explicit stack and kept; a
    list generator i cannot extend is list (i + 1, r).  So a window costs time
    linear in its width.  `basis(k)` raises BudgetExceededError, before any
    monomial is built, when degree k has more than MONOMIAL_BUDGET."""

    def __init__(self, ctx):
        self.ctx = ctx
        self._rows = []         # degree r -> [c_0(r), ..., c_N(r)]
        # (i, r) -> the monomials over generators i.. of degree r; degree 0 is the unit
        self._lists = dict.fromkeys(((i, 0) for i in range(len(ctx) + 1)), [()])
        self._bases = {}        # requested degree -> basis
        self._index = {}        # requested degree -> {monomial: position}

    def extended(self, ctx):
        """The bases of `ctx`, this context with generators appended, keeping every
        degree below the lowest new generator's (none of its monomials holds one)."""
        low = min(ctx.degrees[len(self.ctx):], default=None)
        out = MonomialBases(ctx)
        for k, b in self._bases.items():
            if low is None or k < low:
                out._bases[k], out._index[k] = b, self._index[k]
        return out

    def _row(self, r):
        rows, degrees, odd = self._rows, self.ctx.degrees, self.ctx.odd
        while len(rows) <= r:
            s = len(rows)
            row = [0] * len(degrees) + [1 if s == 0 else 0]
            for i in range(len(degrees) - 1, -1, -1):
                d = degrees[i]
                row[i] = row[i + 1] + (rows[s - d][i + 1 if odd[i] else i] if d <= s else 0)
            rows.append(row)
        return rows[r]

    def _suffixes(self, i, r):
        lists, rows, degrees, odd = self._lists, self._rows, self.ctx.degrees, self.ctx.odd
        todo = [(i, r)]
        while todo:
            i, r = key = todo[-1]
            if key in lists:
                todo.pop()
                continue
            row, j = rows[r], i
            while row[j] == row[j + 1]:
                j += 1          # generators i..j-1 take exponent 0 (some x_j fits: r > 0)
            # Exponent 0 of x_j first, then x_j times the list (j + 1, r - |x_j|)
            # (odd x_j) or (j, r - |x_j|) (even x_j, its exponent raised by one).
            rest, times = (j + 1, r), (j + 1 if odd[j] else j, r - degrees[j])
            missing = [p for p in (rest, times) if p not in lists and rows[p[1]][p[0]]]
            if missing:
                todo.extend(missing)
                continue
            out, x = list(lists[rest]) if row[j + 1] else [], ((j, 1),)
            out += [((j, m[0][1] + 1),) + m[1:] if m and m[0][0] == j else x + m
                    for m in lists[times]]
            lists[key] = lists[j, r] = out
        return lists[i, r]

    def basis(self, k):
        b = self._bases.get(k)
        if b is None:
            size = self._row(k)[0] if k >= 0 else 0
            if size > MONOMIAL_BUDGET:
                raise BudgetExceededError("degree %d basis exceeds %d monomials" % (k, MONOMIAL_BUDGET))
            b = self._bases[k] = self._suffixes(0, k) if size else []
            self._index[k] = {m: i for i, m in enumerate(b)}
        return b

    def index(self, k):
        """{monomial: its position in basis(k)}."""
        self.basis(k)
        return self._index[k]


def degree_basis(ctx, n):
    """The ordered degree-n monomial basis of Lambda(V), from a fresh `MonomialBases`."""
    return MonomialBases(ctx).basis(n)


def substitute(x, images, new_ctx):
    """Algebra-map extension of a generator assignment name -> AlgElement.

    Every generator of x's context must appear in `images` with a value in
    `new_ctx`; the map is extended multiplicatively (Koszul signs included
    via ordinary products in the target).
    """
    terms = []
    for mono, coeff in x.terms.items():
        term = AlgElement.unit(new_ctx, coeff)
        for i in monomial_factors(mono):
            term = term * images[x.ctx.names[i]]
            if term.is_zero():
                break
        terms.append((1, term.terms))
    return AlgElement(new_ctx, lincomb(terms))

