"""Free graded-commutative algebras over Q with exact rational coefficients.

Generators live in a fixed ordered `GeneratorContext`; monomials are kept in
normal order (context order), odd generators square to zero, and every sign
is computed by counting transpositions of odd factors.  Elements are sparse
maps monomial -> Fraction in canonical form, so equality is literal equality.

Coefficients are `fractions.Fraction` throughout the API (`linalg` eliminates
on integer rows inside): exact and canonical.  There is no floating-point mode.
"""

from bisect import bisect_right
from fractions import Fraction

from .errors import ContextMismatchError, DegreeError, DerivationError, BudgetExceededError
from .linalg import lincomb

ZERO = Fraction(0)
ONE = Fraction(1)

# Largest monomial basis `degree_basis` builds in one degree.
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

    def extend(self, more):
        """New context with extra generators appended (order preserved)."""
        return GeneratorContext(list(self.gens) + list(more))

    def generator(self, name):
        """The generator as an AlgElement."""
        i = self.index[name]
        return AlgElement(self, {((i, 1),): ONE})


# A monomial is a tuple of (generator_index, exponent) pairs, sorted by index,
# exponents >= 1, odd generators with exponent exactly 1.  () is the unit.

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
    # Sign: each odd factor of m2 hops over the odd factors of m1 with larger index.
    odd = ctx.odd
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
    row per monomial of x (a fixed factor is injective, so a row repeats no key)."""
    rows = []
    for m1, c1 in x.items():
        row = {}
        for m2, c2 in y.items():
            sign, mono = monomial_mul(ctx, m1, m2)
            if sign:
                row[mono] = c2 if sign > 0 else -c2
        rows.append((c1, row))
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
        return AlgElement(ctx, {(): as_q(coeff)})

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
    theta(xy) = theta(x) y + (-1)^(r deg x) x theta(y).  A derivation keeps
    one column store {monomial: theta(monomial)}: images are fixed at
    construction, so a stored column never changes.
    """

    def __init__(self, ctx, degree, images):
        self.ctx = ctx
        self.degree = degree
        self.images = {}
        for name, img in images.items():
            if name not in ctx.index:
                raise DerivationError("image given for unknown generator %r" % name)
            if img.ctx != ctx:
                raise ContextMismatchError("image of %r lives in a different context" % name)
            if not img.is_zero():
                d = img.degree()
                if d is None or d != ctx.degree_of(name) + degree:
                    raise DegreeError(
                        "image of %r must be homogeneous of degree %d"
                        % (name, ctx.degree_of(name) + degree))
            self.images[name] = img
        self._columns = {(): {}}    # monomial -> theta(monomial) as {monomial: Fraction}, sorted
        self._monos = {}            # monomial -> the one tuple the columns use for it

    def image_of(self, name):
        if name not in self.images:
            raise DerivationError("derivation has no image for generator %r" % name)
        return self.images[name]

    def column(self, mono):
        """theta(mono) by the Leibniz rule, stored for each suffix of mono, from
        the longest suffix already stored down (a loop: a word may be long)."""
        store, monos = self._columns, self._monos
        j, col = 0, store.get(mono)
        while col is None:
            j += 1
            col = store.get(mono[j:])
        for i, _ in mono[:j]:       # a missing image is named leftmost first
            self.image_of(self.ctx.names[i])
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
        for m, c in self.image_of(ctx.names[i]).terms.items():
            sign, prod = monomial_mul(ctx, m, tail)
            if sign:
                first[prod] = c if sign * e == 1 else sign * e * c
        sign_x = -1 if self.degree % 2 and ctx.odd[i] else 1
        for m, c in theta_rest.items():
            sign, prod = monomial_mul(ctx, (block,), m)
            if sign:
                second[prod] = c if sign == sign_x else -c
        col = lincomb([(1, first), (1, second)]) if first and second else first or second
        return {self._monos.setdefault(m, m): c for m, c in sorted(col.items())}

    def __call__(self, x):
        return apply_derivation(self, x)

    def __repr__(self):
        body = ", ".join("%s -> %s" % (n, v) for n, v in self.images.items())
        return "Derivation(deg %+d; %s)" % (self.degree, body)


def apply_derivation(theta, x):
    """Leibniz extension of a derivation to an arbitrary element."""
    if x.ctx != theta.ctx:
        raise ContextMismatchError("derivation and element contexts differ")
    return AlgElement(x.ctx, lincomb((c, theta.column(m)) for m, c in x.terms.items()))


def degree_basis(ctx, n):
    """Complete ordered monomial basis of Lambda(V) in total degree n.

    Deterministic order: lexicographic in exponent vectors over the context
    order, exponents ascending (unit first in degree 0).  Raises
    BudgetExceededError, before building any monomial, when the basis would
    exceed MONOMIAL_BUDGET monomials.

    The monomials over generators idx.. of remaining degree r form one
    shared suffix list per (idx, r).  A forward pass finds the (idx, r) that
    degree n reaches, a backward pass counts them, and a second backward
    pass builds the nonempty ones, reusing a list that generator idx cannot
    extend.  The passes visit only the generators of degree <= n, the ones
    that fit: any other takes exponent 0 and would leave every reach set,
    count and suffix list as it was.  Monomials keep the context indices.
    Nothing recurses, so any number of generators is fine.
    """
    if n < 0:
        return []
    degrees = ctx.degrees

    def exponents(idx, r):
        top = r // degrees[idx]
        return range(min(top, 1) + 1 if degrees[idx] % 2 else top + 1)

    fits = [idx for idx, deg in enumerate(degrees) if deg <= n]
    reach = [{n}]
    for idx in fits:
        reach.append({r - e * degrees[idx] for r in reach[-1] for e in exponents(idx, r)})
    layers = list(zip(fits, reach))[::-1]     # (idx, its reach), last generator first
    counts = {0: 1}
    for idx, rs in layers:
        counts = {r: sum(counts.get(r - e * degrees[idx], 0) for e in exponents(idx, r))
                  for r in rs}
    if counts.get(n, 0) > MONOMIAL_BUDGET:
        raise BudgetExceededError("degree %d basis exceeds %d monomials" % (n, MONOMIAL_BUDGET))
    suffixes = {0: [()]}
    for idx, rs in layers:
        deg, tails, suffixes = degrees[idx], suffixes, {}
        for r in rs:
            parts = [(e, tails[r - e * deg]) for e in exponents(idx, r) if r - e * deg in tails]
            if len(parts) == 1 and not parts[0][0]:
                suffixes[r] = parts[0][1]
            elif parts:
                out = suffixes[r] = []
                for e, ms in parts:
                    out.extend([((idx, e),) + m for m in ms] if e else ms)
    return suffixes.get(n, [])


def substitute(x, images, new_ctx):
    """Algebra-map extension of a generator assignment name -> AlgElement.

    Every generator of x's context must appear in `images` with a value in
    `new_ctx`; the map is extended multiplicatively (Koszul signs included
    via ordinary products in the target).
    """
    terms = []
    for mono, coeff in x.terms.items():
        term = AlgElement.unit(new_ctx, coeff)
        for i, e in mono:
            img = images[x.ctx.names[i]]
            for _ in range(e):
                term = term * img
                if term.is_zero():
                    break
            if term.is_zero():
                break
        terms.append((1, term.terms))
    return AlgElement(new_ctx, lincomb(terms))


def rebase(x, new_ctx):
    """Reinterpret x in an extended context sharing the same initial segment."""
    if new_ctx.gens[:len(x.ctx.gens)] != x.ctx.gens:
        raise ContextMismatchError("rebase target does not extend the source context")
    return AlgElement(new_ctx, x.terms)
