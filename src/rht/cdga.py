"""Cdga presentations, morphisms, and exact cohomology over a degree window.

Three kinds of presentation are supported:

* `SullivanPresentation` -- free graded-commutative algebra Lambda(V) with a
  degree +1 differential given on generators;
* `FiniteCDGA` -- explicit per-degree basis with product structure constants
  and differential matrices (cohomology algebras, PD models, arrangement
  complexes live here);
* `QuotientCDGA` -- a free ambient modulo a differential-stable ideal, on
  the standard monomials of a Groebner basis grown one degree at a time.

Each kind is its own cochain complex: cohomology, morphisms and every
consumer module read it degree by degree through the same methods.

All cohomology statements are windowed.  A report certifies `H^{>N} = 0`
only when the underlying cochain spaces provably vanish above N (finite
total dimension, an all-odd generator argument, or a full gap window in a
quotient); otherwise results are labelled as verified up to N.
"""

from collections import defaultdict
from heapq import heappop, heappush

from . import algebra
from .algebra import (AlgElement, Derivation, MonomialBases, ONE, UNIT_MONOMIAL,
                      apply_derivation, as_q, generator_monomial, monomial_degree,
                      monomial_divide, monomial_factors, monomial_lcm, monomial_order,
                      monomial_products, monomial_str, monomial_times)
from .errors import (BudgetExceededError, DegreeError, RhtError, UnsupportedInputError,
                     ValidationError)
from .linalg import Echelon, RationalMatrix, _addmul, lincomb, solve_linear


class ValidationReport:
    """Outcome of `validate`: ok flag plus a structured violation list."""

    def __init__(self, subject, violations):
        self.subject = subject
        self.violations = list(violations)

    @property
    def ok(self):
        return not self.violations

    def raise_if_invalid(self):
        if not self.ok:
            raise ValidationError(self.violations)
        return self

    def __repr__(self):
        if self.ok:
            return "ValidationReport(%s: valid)" % (self.subject,)
        return "ValidationReport(%s: %s)" % (self.subject, "; ".join(self.violations))


# ---------------------------------------------------------------------------
# Presentations.  Each kind is its own cochain complex: cohomology, morphisms
# and every consumer module read it degree by degree through dim(k),
# labels(k), differential_column(k, i), multiply_coords(p, u, q, v),
# unit_coords() and vanishes_above(n).
# ---------------------------------------------------------------------------

class SullivanPresentation:
    """Free cdga (Lambda(V), d) given by generators and their differentials.

    `d` maps generator names to AlgElements of degree deg+1 over an initial
    segment of ctx; a missing image is an error at validation time only.
    """

    def __init__(self, ctx, d_images, name="cdga"):
        self.ctx = ctx
        self.name = name
        self.d = Derivation(ctx, +1, d_images)
        self._bases = MonomialBases(ctx)
        self.validation = None      # the d^2 = 0 record `validate` leaves

    def extend(self, generators, images, name=None):
        """The presentation on ctx.extend(generators), d(g) = images[g] on the new
        generators.  d of an old monomial is unchanged, so only the new images
        are checked: this d's term dicts and integer views are taken over as they
        are, its column store is copied (two extensions never see each other's
        columns), and its bases are kept in the degrees below the new generators."""
        ctx = self.ctx.extend(generators)
        out = SullivanPresentation(ctx, images, name=self.name if name is None else name)
        out.d._images = {**self.d._images, **out.d._images}
        out.d._views = {**self.d._views, **out.d._views}
        out.d._columns, out.d._monos = dict(self.d._columns), self.d._monos
        out._bases = self._bases.extended(ctx)
        return out

    def generator(self, name):
        return self.ctx.generator(name)

    def differential(self, x):
        return apply_derivation(self.d, x)

    def is_finite_dimensional(self):
        """Lambda(V) has finite total dimension iff every generator is odd."""
        return all(d % 2 == 1 for d in self.ctx.degrees)

    def top_degree(self):
        return sum(self.ctx.degrees) if self.is_finite_dimensional() else None

    # -- cochain complex: degree k is spanned by the monomial basis of degree k
    def basis(self, k):
        return self._bases.basis(k)

    def index(self, k):
        return self._bases.index(k)

    def dim(self, k):
        return len(self.basis(k))

    def labels(self, k):
        return [monomial_str(self.ctx, m) for m in self.basis(k)]

    def to_coords(self, x, k=None):
        if x.is_zero():
            return {}
        idx = self.index(x.degree() if k is None else k)
        return {idx[m]: c for m, c in x.terms.items()}

    def from_coords(self, k, coords):
        b = self.basis(k)
        return AlgElement(self.ctx, {b[i]: c for i, c in coords.items() if c != 0})

    def differential_column(self, k, i):
        col = self.d.column(self.basis(k)[i])
        idx = self.index(k + 1) if col else None
        return {idx[m]: c for m, c in col.items()}

    def multiply_coords(self, p, u, q, v):
        """Product of coordinate vectors in Fractions, keys in monomial order (as `to_coords`)."""
        bp, bq = self.basis(p), self.basis(q)
        out = monomial_products(self.ctx, {bp[i]: c for i, c in u.items()},
                                {bq[j]: c for j, c in v.items()})
        if not out:
            return {}
        idx = self.index(p + q)
        return {idx[m]: as_q(out[m]) for m in sorted(out)}

    def unit_coords(self):
        return {0: ONE}

    def vanishes_above(self, n):
        top = self.top_degree()
        return top is not None and top <= n

    def __repr__(self):
        return "SullivanPresentation(%s; %s)" % (
            self.name, ", ".join("%s:%d" % g for g in self.ctx.gens))


class FiniteCDGA:
    """Cdga with an explicit finite basis in each degree, well formed by construction.

    basis: {degree: [labels]}; diff: {(deg, i): {j: coeff}} into degree+1, checked as
    the pair ((deg, i), 1); mul: {((p, i), (q, j)): {k: coeff}} into degree p+q.  Unit
    is basis element 0 of degree 0.  A key naming a missing basis element, or a row
    index outside its target degree's basis (negative, or of coefficient 0, too),
    raises `DegreeError` naming the key; coefficients go through `as_q`, zeros dropped.
    """

    def __init__(self, basis, diff, mul, name="A"):
        self.basis = {k: list(v) for k, v in basis.items() if v}
        self.name = name
        if 0 not in self.basis:
            raise DegreeError("FiniteCDGA must contain a unit in degree 0")
        dims, self.diff, self.mul = {k: len(v) for k, v in self.basis.items()}, {}, {}
        for table, out, shift in ((diff, self.diff, 1), (mul, self.mul, 0)):
            for key, row in table.items():
                (p, i), (q, j) = (key, (0, 0)) if shift else key
                if not (0 <= i < dims.get(p, 0) and 0 <= j < dims.get(q, 0)) or row and not (
                        0 <= min(row) and max(row) < dims.get(p + q + shift, 0)):
                    raise DegreeError("FiniteCDGA %s key %r names a missing basis element"
                                      % ("diff" if shift else "mul", key))
                vec = {}
                for t, c in row.items():
                    c = as_q(c)
                    if c:
                        vec[t] = c
                if vec:
                    out[key] = vec

    def degrees(self):
        return sorted(self.basis)

    def dim(self, k):
        return len(self.basis.get(k, ()))

    def max_degree(self):
        return max(self.basis)

    def min_degree(self):
        return min(self.basis)

    def differential_column(self, k, i):
        return dict(self.diff.get((k, i), {}))

    def labels(self, k):
        return list(self.basis.get(k, []))

    def product(self, p, i, q, j):
        return dict(self.mul.get(((p, i), (q, j)), {}))

    def multiply_coords(self, p, u, q, v):
        return lincomb((ci * cj, self.mul.get(((p, i), (q, j)), {}))
                       for i, ci in u.items() for j, cj in v.items())

    def label(self, k, i):
        return self.basis[k][i]

    def unit_coords(self):
        return {0: ONE}

    def vanishes_above(self, n):
        return self.max_degree() <= n

    def __repr__(self):
        dims = ", ".join("%d:%d" % (k, len(v)) for k, v in sorted(self.basis.items()))
        return "FiniteCDGA(%s; dims %s)" % (self.name, dims)


class QuotientCDGA:
    """Free ambient Lambda(V) modulo a differential-stable homogeneous ideal,
    read off a Groebner basis grown one degree at a time.

    Multiplication keeps the ambient basis order within a degree
    (lexicographic in exponent vectors), so an element's first monomial is a
    leading monomial for a monomial order.  At degree e the ideal generators,
    S-pairs (Buchberger 1965) and x * f, x odd in the leading monomial of f
    (Stokes 1990, for exterior algebras), of degree e are reduced; a nonzero
    normal form joins the basis, scaled to 1 at its leading monomial, and
    queues its pairs.  A pair whose leading monomials share no generator is
    skipped, as it reduces to 0 (Buchberger 1979): g * f = +-f * g gives
    S(f, g) = +-(tail(g) * f -+ tail(f) * g), and a term t * f with
    t * lead(f) = 0 is t' * (x * f), x odd in both, which is reduced.
    The normal form is then the one vector congruent to the
    input on the standard monomials, which no leading monomial divides: the
    residue of the RREF of the ideal span, whose pivots are its first columns.
    Quotient coordinates at degree k are the standard monomials in ambient
    order, keys ascending.  A query at degree k builds [0, k].
    """

    def __init__(self, ambient, ideal_generators, name="quotient"):
        self.ambient = ambient
        self.ideal = [g for g in ideal_generators if not g.is_zero()]
        if any(g.degree() is None for g in self.ideal):
            raise DegreeError("ideal generators must be homogeneous")
        self.name = name
        self._lead = {}       # leading monomial -> basis element {monomial: coeff}, 1 there
        self._reducers = {}   # monomial -> (u, f), lead of f times u; None once standard
        self._pairs = defaultdict(list)   # degree -> S-pairs and x * f, not yet reduced
        self._standard = []   # degree -> standard monomials in ambient order
        self._position = []   # degree -> {standard monomial: its position}

    def _divisor(self, mono):
        if mono not in self._reducers:
            for lead, f in self._lead.items():
                u = monomial_divide(mono, lead)
                if u is not None:
                    self._reducers[mono] = u, f
                    break
        return self._reducers.get(mono)

    def _reduce(self, vec):
        """Normal form of {monomial: coeff}, summed in place: each monomial a leading
        monomial divides is cancelled, first to last, by a multiple adding later ones."""
        ctx, out = self.ambient.ctx, {m: c for m, c in vec.items() if c}
        todo = sorted((monomial_order(m), m) for m in out)     # a sorted list is a heap
        while todo:
            mono = heappop(todo)[1]
            hit = mono in out and self._divisor(mono)
            if hit:
                prod = monomial_products(ctx, {hit[0]: 1}, hit[1])
                _addmul(out, -out[mono] * prod[mono], prod)
                for m in prod.keys() & out.keys():
                    heappush(todo, (monomial_order(m), m))
        return out

    def _standard_monomials(self, k):
        """The standard monomials of degree k, the basis grown through degree k;
        BudgetExceededError when a degree has more than MONOMIAL_BUDGET."""
        ctx, pairs = self.ambient.ctx, self._pairs
        for e in range(len(self._standard), k + 1):
            todo = [g.terms for g in self.ideal if g.degree() == e] + pairs.pop(e, [])
            for h in filter(None, map(self._reduce, todo)):
                lead = min(h, key=monomial_order)
                h, gens = {m: c / h[lead] for m, c in h.items()}, set(monomial_factors(lead))
                for other, g in self._lead.items():
                    if gens.isdisjoint(monomial_factors(other)):
                        continue    # coprime leading monomials (Buchberger 1979)
                    lcm = monomial_lcm(other, lead)
                    s, w = (monomial_products(ctx, {monomial_divide(lcm, a): 1}, b)
                            for a, b in ((lead, h), (other, g)))
                    _addmul(s, -s[lcm] * w[lcm], w)
                    pairs[monomial_degree(ctx, lcm)].append(s)
                for x in (generator_monomial(j) for j in monomial_factors(lead) if ctx.odd[j]):
                    pairs[e + monomial_degree(ctx, x)].append(monomial_products(ctx, {x: 1}, h))
                self._lead[lead] = h
            # m * x, m standard of degree e - |x| and x its last generator or after it
            cands = [UNIT_MONOMIAL] if e == 0 else filter(None, (
                monomial_times(ctx, m, x)
                for x, d in enumerate(ctx.degrees) if d <= e for m in self._standard[e - d]))
            std = sorted((m for m in cands if self._divisor(m) is None), key=monomial_order)
            if len(std) > algebra.MONOMIAL_BUDGET:
                raise BudgetExceededError("degree %d basis exceeds %d monomials"
                                          % (e, algebra.MONOMIAL_BUDGET))
            self._reducers.update(dict.fromkeys(std))
            self._standard.append(std)
            self._position.append({m: i for i, m in enumerate(std)})
        return self._standard[k] if k >= 0 else []

    def dim(self, k):
        return len(self._standard_monomials(k))

    def labels(self, k):
        return [monomial_str(self.ambient.ctx, m) for m in self._standard_monomials(k)]

    def _coords(self, k, vec):
        """Quotient coordinates at degree k of an ambient {monomial: coeff}, sorted pairs."""
        nf = self._reduce(vec) if self._standard_monomials(k) else {}
        return sorted((self._position[k][m], c) for m, c in nf.items())

    def project(self, k, amb_coords):
        """Ambient coordinates -> quotient coordinates at degree k, in Fractions."""
        return {j: as_q(c) for j, c in self._coords(
            k, {self.ambient.basis(k)[i]: c for i, c in amb_coords.items()})}

    def differential_column(self, k, i):
        return {j: c.numerator if c.denominator == 1 else c for j, c in self._coords(
            k + 1, self.ambient.d.column(self._standard_monomials(k)[i]))}

    def multiply_coords(self, p, u, q, v):
        sp, sq = self._standard_monomials(p), self._standard_monomials(q)
        return {j: as_q(c) for j, c in self._coords(p + q, monomial_products(
            self.ambient.ctx, {sp[i]: c for i, c in u.items()}, {sq[j]: c for j, c in v.items()}))}

    def unit_coords(self):
        if not self._standard_monomials(0):
            raise RhtError("unit of the ambient algebra lies in the ideal")
        return {0: ONE}

    def vanishes_above(self, n):
        """Sound vanishing certificate for Q^{>n}.

        Either the ambient is finite dimensional with top <= n, or the
        quotient dims vanish on a full window [t, 2t-1] below n with t
        larger than every generator degree (then every longer monomial
        factors through the gap).
        """
        maxgen = max(self.ambient.ctx.degrees, default=0)
        return self.ambient.vanishes_above(n) or any(
            all(self.dim(j) == 0 for j in range(t, 2 * t)) for t in range(maxgen + 1, (n + 3) // 2))

    def __repr__(self):
        return "QuotientCDGA(%s; %d ideal generators)" % (self.name, len(self.ideal))


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def validate(p):
    """Check the cdga axioms appropriate to the presentation kind (not connectedness).

    Returns a ValidationReport; never raises on mathematical violations.  A
    SullivanPresentation, never changed once built (`extend` builds a new one),
    keeps it as `p.validation`: `CdgaDocument.violations` and `lie_table` read it.
    """
    violations = []
    if isinstance(p, SullivanPresentation):
        # `Derivation` already refuses a constant or inhomogeneous image.
        images = p.d.images
        violations = ["generator %s has no differential" % name
                      for name in p.ctx.names if name not in images]
        if not violations:
            for name in p.ctx.names:
                dd = apply_derivation(p.d, images[name])
                if not dd.is_zero():
                    violations.append("d^2(%s) = %s != 0" % (name, dd))
        p.validation = ValidationReport(p.name, violations)
        return p.validation

    if isinstance(p, FiniteCDGA):
        return _validate_finite(p)

    if isinstance(p, QuotientCDGA):
        violations.extend(validate(p.ambient).violations)
        for g in p.ideal:
            if p._coords(g.degree() + 1, apply_derivation(p.ambient.d, g).terms):
                violations.append("ideal is not differential-stable: d(%s) escapes" % g)
        return ValidationReport(p.name, violations)

    raise RhtError("validate: unsupported object %r" % (p,))


def _validate_finite(A):
    """Axioms of a FiniteCDGA on basis elements, pairs and triples.

    Every cdga is checked, including ones the library built itself.  Each
    pass visits only what the keys of `A.mul` and `A.diff` can make nonzero:
    commutativity and Leibniz the pairs (a, b), in either order, with ab or
    ba a key of `A.mul`, or with a t in supp(da) for which tb or bt is a key
    (the terms (da)b of (a, b) and b(da) of (b, a)); associativity the c for
    which (ab)c or a(bc) can be nonzero.  Every pair and triple skipped is
    0 = 0, so the violations and their order are those of the full N^2 and
    N^3 loops.  The constructor checked every key and index, so only the axioms
    are left.  The per-element and pair checks sum rows of integer copies of
    the tables (an entry with denominator 1 becomes its numerator); an absent
    row is read as None, which `lincomb` skips.
    """
    violations = []
    items = [(k, i) for k in sorted(A.basis) for i in range(A.dim(k))]
    mul, diff = ({key: {j: c.numerator if c.denominator == 1 else c for j, c in row.items()}
                  for key, row in table.items()} for table in (A.mul, A.diff))
    for (k, i) in items:
        if lincomb((c, diff.get((k + 1, j))) for j, c in diff.get((k, i), {}).items()):
            violations.append("d^2(%s) != 0" % A.label(k, i))
    # Unit is a two-sided identity and a cocycle.
    if diff.get((0, 0)):
        violations.append("d(1) != 0")
    for (k, i) in items:
        if lincomb([(1, mul.get(((0, 0), (k, i))))]) != {i: 1}:
            violations.append("1 * %s != %s" % (A.label(k, i), A.label(k, i)))
    # Graded commutativity and Leibniz on the basis pairs of a key of `mul`,
    # and of a and b with a key tb or bt for some t in supp(da), in either
    # order.  right[x] = {y : xy a key}, left[y] = {x : xy a key}.
    right, left = {}, {}
    for x, y in mul:
        right.setdefault(x, set()).add(y)
        left.setdefault(y, set()).add(x)
    pairs = {pair for key in mul for pair in (key, key[::-1])}
    pairs.update(pair for (p_, i), row in diff.items() for j in row
                 for b in right.get((p_ + 1, j), set()) | left.get((p_ + 1, j), set())
                 for pair in (((p_, i), b), (b, (p_, i))))
    for a, b in sorted(pairs):
        (p_, i), (q_, j) = a, b
        ab, ba = mul.get((a, b), {}), mul.get((b, a), {})
        sign = -1 if (p_ % 2) and (q_ % 2) else 1
        if {k: sign * v for k, v in ba.items()} != ab:
            violations.append("commutativity fails on (%s, %s)"
                              % (A.label(p_, i), A.label(q_, j)))
        # d(ab) - (da)b - (-1)^p a(db) = 0
        if lincomb([(c, diff.get((p_ + q_, k))) for k, c in ab.items()]
                   + [(-c, mul.get(((p_ + 1, k), b))) for k, c in diff.get(a, {}).items()]
                   + [(c if p_ % 2 else -c, mul.get((a, (q_ + 1, k))))
                      for k, c in diff.get(b, {}).items()]):
            violations.append("Leibniz fails on (%s, %s)"
                              % (A.label(p_, i), A.label(q_, j)))
    # Associativity on basis triples.  (ab)c can be nonzero only for c in
    # right[k], k in supp(ab), and a(bc) only for c in right[b] with some k in
    # supp(bc) in right[a]; every other triple is 0 = 0, and so is every
    # triple whose a has no right partners.
    for a in items:
        if a not in right:
            continue
        (p_, i), pa = a, right[a]
        for (q_, j) in items:
            ab = A.mul.get((a, (q_, j)), {})
            cs = {c for c in right.get((q_, j), ())
                  if any((q_ + c[0], k) in pa for k in A.mul[((q_, j), c)])}
            for k in ab:
                cs.update(right.get((p_ + q_, k), ()))
            for (r_, l) in sorted(cs):
                lhs = A.multiply_coords(p_ + q_, ab, r_, {l: ONE})
                rhs = A.multiply_coords(p_, {i: ONE}, q_ + r_, A.mul.get(((q_, j), (r_, l)), {}))
                if lhs != rhs:
                    violations.append("associativity fails on (%s, %s, %s)"
                                      % (A.label(p_, i), A.label(q_, j), A.label(r_, l)))
    return ValidationReport(A.name, violations)


# ---------------------------------------------------------------------------
# Cohomology
# ---------------------------------------------------------------------------

class CohomologyReport:
    """Per-degree Betti numbers with representative cocycles, reusable.

    Degree k is computed on a reduced complex (Kaczynski-Mischaikow-Mrozek
    2004).  Kernel vector j of d^k (`solve_linear`) is 1 at its free column
    f_j, 0 at the other free columns F_k, and elsewhere nonzero only at pivots
    left of f_j, so z -> z|F_k maps the cocycles onto Q^(F_k); the boundaries
    (d^2 = 0 makes them cocycles) are eliminated there, in dimension nullity,
    not dim C^k.  The representatives are the kernel vectors j with e_j
    outside the span of the b|F_k and e_0 .. e_(j-1), in kernel order.

    The degrees are solved from hi down to lo, and d^2 = 0 cuts both sides of
    each solve.  Below hi, d^k is solved on the rows F_(k+1) alone: its
    columns are cocycles, fixed by their entries there.  Above lo, the
    boundaries of degree k are the pivot columns of d^(k-1) restricted to F_k,
    a basis of B^k; degree lo takes every column of d^(lo-1).  The RREF of a
    span is unique, so every answer is that of the unrestricted solves.
    """

    def __init__(self, pres, lo, hi):
        self.pres = pres
        self.lo = lo
        self.hi = hi
        self._reps = {}        # k -> list of coordinate vectors
        # k -> (free, tails, echelon, index): free maps f_j to column n - 1 - j
        # (n the nullity), tails maps that column to kernel vector j less its
        # unit entry, the Echelon holds every b|F on those columns (a row's
        # pivot is its largest j: the j that are not reps), and index maps a
        # rep's column to i for reps[i].
        self._classes = {}
        upper = None           # degree k + 1's (kernel, free): its free columns are d^k's rows
        for k in range(hi, lo - 2, -1):
            cols = [pres.differential_column(k, i) for i in range(pres.dim(k))]
            if upper:
                rows = upper[1]
                cols = [{rows[c]: v for c, v in col.items() if c in rows} for col in cols]
            solved = None
            if k >= lo:
                kernel = solve_linear(RationalMatrix(len(rows) if upper else pres.dim(k + 1),
                                                     cols)).kernel
                solved = kernel, {max(vec): len(kernel) - 1 - j for j, vec in enumerate(kernel)}
                # Its pivot columns are a basis of degree k + 1's boundaries.
                cols = [col for c, col in enumerate(cols) if c not in solved[1]]
            if upper:
                kernel, free = upper
                n, tails, echelon, index = len(kernel), {}, Echelon(), {}
                for f, col in free.items():
                    tails[col] = tail = dict(kernel[n - 1 - col])
                    del tail[f]
                for vec in filter(None, cols):
                    echelon.add(vec)
                for col in range(n - 1, -1, -1):
                    if col not in echelon.position:
                        index[col] = len(index)
                self._reps[k + 1] = [kernel[n - 1 - col] for col in index]
                self._classes[k + 1] = free, tails, echelon, index
            upper = solved

    def _window(self, k):
        if k < self.lo or k > self.hi:
            raise DegreeError("degree %d outside computed window [%d, %d]" % (k, self.lo, self.hi))
        return self._classes[k]

    def dim(self, k):
        self._window(k)
        return len(self._reps[k])

    def dims(self):
        return {k: len(self._reps[k]) for k in range(self.lo, self.hi + 1)}

    def representatives(self, k):
        self._window(k)
        return [dict(v) for v in self._reps[k]]

    def class_coordinates(self, k, cocycle_coords):
        """Coordinates of a cocycle's class in the representative basis.

        Solves cocycle = sum c_i rep_i + boundary; returns {i: c_i}, keys in
        ascending order, or raises if the input is not a cocycle.  The residue
        of z|F modulo the restricted boundaries lies on the reps' columns and
        holds the c_i.
        """
        if not self.is_cocycle(k, cocycle_coords):
            raise RhtError("vector is not a cocycle modulo the computed boundaries")
        free, _, echelon, index = self._classes[k]
        restricted = {free[c]: v for c, v in cocycle_coords.items() if v and c in free}
        return dict(sorted((index[col], c) for col, c in echelon.residue(restricted).items()))

    def is_cocycle(self, k, coords):
        """d z = 0, read off the kernel: z is a cocycle exactly when its
        entries off the free columns F are those of sum z[f] (k_f less its
        unit entry)."""
        free, tails, _, _ = self._window(k)
        return lincomb((v, tails[free[c]]) for c, v in coords.items() if v and c in free) == \
            {c: v for c, v in coords.items() if v and c not in free}

    def certified_above(self):
        """True when H^{>hi} = 0 is certified, not merely unobserved."""
        return self.pres.vanishes_above(self.hi)

    def euler_characteristic(self):
        """(chi, exact): alternating sum of the window's Betti numbers, exact when certified."""
        chi = sum((-1) ** (k % 2) * d for k, d in self.dims().items())
        return chi, self.certified_above()

    def algebra(self, name=None):
        """(H, 0) as a FiniteCDGA on the window, with products.

        Products landing above the window are dropped; the result is the honest
        cohomology algebra exactly when the report certifies H^{>hi} = 0.  A
        free presentation is graded-commutative, so there each pair (b, a)
        that the loop reaches after (a, b) is read off it: ba = (-1)^pq ab.
        When degree 0 is one class, it is the unit: its products are pinned to
        the identity, so the result is independent of representative scaling.
        H^0 = 0 is refused: there is no unit class to build the table on.
        """
        p, n = self.pres, self.hi
        if self.lo > 0:
            raise DegreeError("algebra needs degree 0 in the window, not [%d, %d]" % (self.lo, n))
        basis = {}
        for k in range(self.lo, n + 1):
            d = self.dim(k)
            if d:
                basis[k] = ["h%d_%d" % (k, i) for i in range(d)]
        if 0 not in basis:
            raise UnsupportedInputError("algebra needs a unit class, but H^0 = 0")
        mul = {}
        degs = sorted(basis)
        commutes, unit = isinstance(p, SullivanPresentation), len(basis[0]) == 1
        for p_ in degs:
            for q_ in degs:
                if p_ + q_ > n or (p_ + q_) not in basis:
                    continue
                if unit and not (p_ and q_):
                    mul.update((((p_, i), (q_, j)), {i or j: ONE})
                               for i in range(len(basis[p_])) for j in range(len(basis[q_])))
                    continue
                odd = p_ * q_ % 2
                for i, u in enumerate(self._reps[p_]):
                    for j, v in enumerate(self._reps[q_]):
                        if commutes and (q_, j) < (p_, i):
                            cls = {c: -x if odd else x
                                   for c, x in mul.get(((q_, j), (p_, i)), {}).items()}
                        else:
                            prod = p.multiply_coords(p_, u, q_, v)
                            cls = prod and self.class_coordinates(p_ + q_, prod)
                        if cls:
                            mul[((p_, i), (q_, j))] = cls
        A = FiniteCDGA(basis, {}, mul, name=name or ("H(%s)" % getattr(p, "name", "A")))
        A.window_certified = self.certified_above()
        return A


def cohomology(p, lo, hi):
    """Exact Betti numbers and representatives in the window [lo, hi]."""
    if not isinstance(p, (SullivanPresentation, FiniteCDGA, QuotientCDGA)):
        raise RhtError("not a presentation: %r" % (p,))
    if isinstance(p, FiniteCDGA):
        lo = min(lo, p.min_degree())
    return CohomologyReport(p, lo, hi)


# ---------------------------------------------------------------------------
# Morphisms
# ---------------------------------------------------------------------------

class CdgaMorphism:
    """Degree-0 multiplicative chain map out of a free presentation.

    Images of generators are AlgElements when the target is free, otherwise
    coordinate dicts {basis_index: coeff} at the generator's degree (labels
    may be used instead of indices for FiniteCDGA targets).
    """

    def __init__(self, source, target, images, name="phi"):
        self.source = source
        self.target = target
        self.name = name
        self.images = {}
        for gname in source.ctx.names:
            if gname not in images:
                raise DegreeError("morphism lacks an image for generator %s" % gname)
            raw = images[gname]
            deg = source.ctx.degree_of(gname)
            if isinstance(raw, AlgElement):
                if raw.is_zero():
                    coords = {}
                else:
                    if raw.degree() != deg:
                        raise DegreeError("image of %s must have degree %d" % (gname, deg))
                    coords = self.target.to_coords(raw, deg)
            else:
                coords = {}
                for key, c in dict(raw).items():
                    c = as_q(c)
                    if c == 0:
                        continue
                    if isinstance(key, str):
                        labels = self.target.labels(deg)
                        if key not in labels:
                            raise DegreeError("no basis element %r in degree %d" % (key, deg))
                        key = labels.index(key)
                    coords[key] = c
            self.images[gname] = coords
        self._mono_cache = {}

    def apply_monomial(self, mono):
        """Image coordinates of a source monomial."""
        if mono in self._mono_cache:
            return self._mono_cache[mono]
        ctx, deg, coords = self.source.ctx, 0, self.target.unit_coords()
        for i in monomial_factors(mono):
            gdeg = ctx.degrees[i]
            coords = self.target.multiply_coords(deg, coords, gdeg, self.images[ctx.names[i]])
            deg += gdeg
            if not coords:
                break
        self._mono_cache[mono] = coords
        return coords

    def apply_coords(self, k, coords):
        basis = self.source.basis(k)
        return lincomb((c, self.apply_monomial(basis[i])) for i, c in coords.items())

    def apply_element(self, x):
        """Image as an AlgElement (free targets only)."""
        if x.is_zero():
            return AlgElement.zero(self.target.ctx)
        deg = x.degree()
        if deg is None:
            raise DegreeError("morphisms apply to homogeneous elements degree-wise")
        return self.target.from_coords(deg, self.apply_coords(deg, self.source.to_coords(x, deg)))

    def is_chain_map(self):
        """phi(dv) = d(phi(v)) on every generator."""
        for gname in self.source.ctx.names:
            deg = self.source.ctx.degree_of(gname)
            lhs = lincomb((c, self.apply_monomial(m))
                          for m, c in self.source.d.image_terms(gname).items())
            rhs = lincomb((c, self.target.differential_column(deg, i))
                          for i, c in self.images[gname].items())
            if lhs != rhs:
                return False, gname
        return True, None

    def validate(self):
        violations = []
        ok, gname = self.is_chain_map()
        if not ok:
            violations.append("not a chain map on generator %s" % gname)
        return ValidationReport(self.name, violations)


class FiniteMorphism:
    """Chain map between FiniteCDGAs given by per-degree matrices.

    matrices: {degree: [column vectors]} with one column per source basis
    element.  Validation checks the chain-map identity and multiplicativity
    on basis pairs.
    """

    def __init__(self, source, target, matrices, name="phi"):
        self.source = source
        self.target = target
        self.matrices = {k: [{r: as_q(c) for r, c in col.items()} for col in cols]
                         for k, cols in matrices.items()}
        self.name = name

    def apply_coords(self, k, coords):
        cols = self.matrices.get(k, [])
        return lincomb((c, cols[i]) for i, c in coords.items() if i < len(cols))

    def validate(self):
        violations = []
        if self.apply_coords(0, {0: ONE}) != {0: ONE}:
            violations.append("unit is not preserved")
        for k in sorted(self.source.basis):
            for i in range(self.source.dim(k)):
                lhs = self.apply_coords(k + 1, self.source.differential_column(k, i))
                rhs = lincomb((c, self.target.differential_column(k, j))
                              for j, c in self.apply_coords(k, {i: ONE}).items())
                if lhs != rhs:
                    violations.append("not a chain map on %s" % self.source.label(k, i))
        items = [(k, i) for k in sorted(self.source.basis) for i in range(self.source.dim(k))]
        for (p, i) in items:
            for (q, j) in items:
                lhs = self.apply_coords(p + q, self.source.product(p, i, q, j))
                rhs = self.target.multiply_coords(
                    p, self.apply_coords(p, {i: ONE}), q, self.apply_coords(q, {j: ONE}))
                if lhs != rhs:
                    violations.append("not multiplicative on (%s, %s)"
                                      % (self.source.label(p, i), self.source.label(q, j)))
        return ValidationReport(self.name, violations)


def induced_classes(phi, src, tgt, k):
    """H^k(phi) on the representatives of the report `src`, as class
    coordinates in the report `tgt`."""
    return [tgt.class_coordinates(k, phi.apply_coords(k, rep)) for rep in src.representatives(k)]


def is_quasi_iso(phi, n):
    """True iff H^k(phi) is bijective for all k <= n; with per-degree witness.

    Returns (bool, {k: (dim source H, dim target H, rank of H(phi))}).
    """
    src = cohomology(phi.source, 0, n)
    tgt = cohomology(phi.target, 0, n)
    witness = {}
    ok = True
    lo = min(src.lo, tgt.lo)
    for k in range(lo, n + 1):
        ds = src.dim(k) if k >= src.lo else 0
        dt = tgt.dim(k) if k >= tgt.lo else 0
        if k >= max(src.lo, tgt.lo):
            ech = Echelon()
            rank = sum(1 for col in induced_classes(phi, src, tgt, k) if ech.add(col))
        else:       # no classes on one side: H^k(phi) has rank 0
            rank = 0
        witness[k] = (ds, dt, rank)
        if not (ds == dt == rank):
            ok = False
    return ok, witness


# ---------------------------------------------------------------------------
# Derived finite cdgas
# ---------------------------------------------------------------------------

def cohomology_algebra(p, n, name=None):
    """(H(p), 0) as a FiniteCDGA on the window [0, n]; see `CohomologyReport.algebra`."""
    return cohomology(p, 0, n).algebra(name)


def finite_truncation(p, n, name=None):
    """FiniteCDGA copy of the cochain algebra of p in degrees <= n.

    Products landing above n are dropped, so cohomology agrees with p only
    in degrees <= n-1 in general; the caller owns the window bookkeeping.
    """
    basis = {}
    for k in range(0, n + 1):
        if p.dim(k):
            basis[k] = list(p.labels(k))
    diff = {(k, i): p.differential_column(k, i) for k in range(n) for i in range(p.dim(k))}
    mul = {}
    for p_ in range(0, n + 1):
        for q_ in range(0, n + 1 - p_):
            for i in range(p.dim(p_)):
                for j in range(p.dim(q_)):
                    mul[((p_, i), (q_, j))] = p.multiply_coords(p_, {i: ONE}, q_, {j: ONE})
    return FiniteCDGA(basis, diff, mul, name=name or ("%s|<=%d" % (getattr(p, "name", "A"), n)))


def tensor_mul(A, B, v, w):
    """Product in A (x) B of vectors keyed (p, i, q, j) for e_{p,i} (x) e_{q,j}.

    (a (x) b)(a' (x) b') = (-1)^{|b||a'|} aa' (x) bb', read off the tables of
    A and B, one `lincomb` row per pair of terms: entries that cancel are dropped.
    """
    rows = []
    for (p1, i1, q1, j1), c1 in v.items():
        for (p2, i2, q2, j2), c2 in w.items():
            aa = A.mul.get(((p1, i1), (p2, i2)))
            bb = aa and B.mul.get(((q1, j1), (q2, j2)))
            if bb:
                rows.append((-c1 * c2 if (q1 % 2) and (p2 % 2) else c1 * c2,
                             {(p1 + p2, ka, q1 + q2, kb): ca * cb
                              for ka, ca in aa.items() for kb, cb in bb.items()}))
    return lincomb(rows)


def tensor_positions(A, B):
    """(p, i, q, j) -> (degree, index) of e_{p,i} (x) e_{q,j} in the basis of
    A (x) B, in the order `tensor_finite` lists that basis."""
    pairs = {}
    counts = {}
    for p in sorted(A.basis):
        for q in sorted(B.basis):
            k = p + q
            for i in range(A.dim(p)):
                for j in range(B.dim(q)):
                    pairs[(p, i, q, j)] = (k, counts.get(k, 0))
                    counts[k] = counts.get(k, 0) + 1
    return pairs


def tensor_finite(A, B, name=None):
    """Graded tensor product of two FiniteCDGAs (Koszul signs)."""
    pairs = tensor_positions(A, B)
    basis = {}
    for (p, i, q, j), (k, _) in pairs.items():
        basis.setdefault(k, []).append("%s(x)%s" % (A.label(p, i), B.label(q, j)))
    # Ensure the unit pair sits at index 0 of degree 0.
    if pairs[(0, 0, 0, 0)] != (0, 0):
        raise RhtError("tensor basis ordering broke the unit convention")

    diff = {}
    mul = {}
    for (p, i, q, j), (k, idx) in pairs.items():
        # d(a (x) b) = da (x) b + (-1)^|a| a (x) db, each side a relabelled column.
        da, db = A.differential_column(p, i), B.differential_column(q, j)
        tot = lincomb([(1, {pairs[(p + 1, l, q, j)][1]: c for l, c in da.items()}),
                       (-1 if p % 2 else 1, {pairs[(p, i, q + 1, l)][1]: c for l, c in db.items()})])
        if tot:
            diff[(k, idx)] = tot
    # Only pairs with aa' != 0 and bb' != 0 multiply to nonzero; emit them in
    # the order of the full loop over (t1, t2) in `pairs`.
    order = {t: r for r, t in enumerate(pairs)}
    nonzero = []
    for a1, a2 in A.mul:
        for b1, b2 in B.mul:
            t1, t2 = a1 + b1, a2 + b2
            if t1 in order and t2 in order:
                nonzero.append((order[t1], order[t2], t1, t2))
    for _, _, t1, t2 in sorted(nonzero):
        out = {pairs[t][1]: c for t, c in tensor_mul(A, B, {t1: ONE}, {t2: ONE}).items()}
        if out:
            mul[(pairs[t1], pairs[t2])] = out
    return FiniteCDGA(basis, diff, mul, name=name or ("%s(x)%s" % (A.name, B.name)))
