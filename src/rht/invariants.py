"""Numerical homotopy invariants: Toomer / LS-category bounds, Massey triple
products, the elliptic degree-sequence test, trichotomy evidence, TC cup
length, and loop-space homology via PBW counting.

Window honesty: every bound derived from cohomology carries a flag telling
whether H^{>N} = 0 was certified or merely observed in the window.
"""

import heapq
import math

from .algebra import AlgElement, ONE, monomial_word_length
from .cdga import FiniteCDGA, cohomology, tensor_mul
from .constructions import PDAlgebra
from .errors import DegreeError, UnsupportedInputError
from .homotopy_lie import homotopy_ranks
from .linalg import Echelon, lincomb
from .minimal_model import MinimalModelResult, is_minimal, primitives


# ---------------------------------------------------------------------------
# Toomer invariant and LS category bounds
# ---------------------------------------------------------------------------

class ToomerReport:
    def __init__(self, value, word_bound, window, exact, failures, cohomology):
        self.value = value            # least m with H(rho_m) injective, or None
        self.word_bound = word_bound
        self.window = window
        self.exact = exact            # True when H^{>window} = 0 was certified
        self.failures = failures      # m -> first degree where injectivity fails
        self.cohomology = cohomology  # the CohomologyReport of the window [0, window]

    def __repr__(self):
        v = "e=%s" % self.value if self.value is not None else "e>%d" % self.word_bound
        return "ToomerReport(%s, window %d, %s)" % (
            v, self.window, "exact" if self.exact else "window-verified")


def toomer_invariant(p, n=12, h_vanishes_above=None):
    """Least m such that H(Lambda V -> Lambda V/Lambda^{>m}V) is injective.

    Checked for every degree <= n; `h_vanishes_above` lets a caller certify
    H^{>bound} = 0 (e.g. from a finite quasi-isomorphic cdga), which makes
    the verdict exact once n covers that bound.
    """
    if not is_minimal(p):
        raise UnsupportedInputError("the Toomer invariant is computed on minimal models")
    rep = cohomology(p, 0, n)
    certified = rep.certified_above() or (h_vanishes_above is not None
                                          and h_vanishes_above <= n)
    if certified:
        top = max((k for k in range(0, n + 1) if rep.dim(k)), default=0)
        word_bound = max(top, 1)
    else:
        word_bound = 12
    failures = {}
    value = None
    for m in range(0, word_bound + 1):
        bad = _toomer_fails_at(p, rep, m, n)
        if bad is None:
            value = m
            break
        failures[m] = bad
    return ToomerReport(value, word_bound, n, certified, failures, rep)


def _toomer_fails_at(p, rep, m, n):
    """First degree <= n where H(rho_m) is not injective, else None.

    Lambda V / Lambda^{>m} V is the ambient complex with the coordinates of
    word length > m dropped.  On a minimal model d raises word length, so
    the columns of the dropped monomials project to 0 and may stay.
    """
    for k in range(0, n + 1):
        h = rep.dim(k)
        if h == 0:
            continue
        short = {i for i, mono in enumerate(p.basis(k)) if monomial_word_length(mono) <= m}

        def rho(v):
            return {i: c for i, c in v.items() if i in short}
        # injective <=> no nonzero combination of projected reps is a boundary
        bound = Echelon()
        for i in range(p.dim(k - 1)):
            bound.add(rho(p.differential_column(k - 1, i)))
        rank = sum(1 for v in rep.representatives(k) if bound.add(rho(v)))
        if rank < h:
            return k
    return None


class CatReport:
    """Interval [e, upper] with a PD equality certificate when available."""

    def __init__(self, toomer, upper, pd, cat_exact, window, algebra):
        self.toomer = toomer            # the ToomerReport the bounds were read from
        self.algebra = algebra          # its cohomology algebra, which the PD check read
        self.e = toomer.value
        self.upper = upper
        self.certified = toomer.exact
        self.pd = pd
        self.cat_exact = cat_exact
        self.window = window

    def __repr__(self):
        s = "CatReport(e=%s, upper=%s%s" % (self.e, self.upper,
                                            "" if self.certified else " (window)")
        if self.cat_exact is not None:
            s += ", cat=%d by Poincare duality" % self.cat_exact
        return s + ")"


def is_poincare_duality(H):
    """Nondegenerate pairing into the top degree, on a finite cdga with zero
    differential: whether `PDAlgebra` verifies H in [0, max degree]."""
    if H.diff:
        return False
    try:
        PDAlgebra(H, H.max_degree())
    except UnsupportedInputError:
        return False
    return True


def cat_bounds(m, n=12, h_vanishes_above=None):
    """Toomer lower bound, H^{>top}=0 upper bound, PD-exact value when it applies,
    all read off the one window [0, n] that `toomer_invariant` computes.

    Accepts a MinimalModelResult (certification inherited from a finite
    target) or a bare minimal SullivanPresentation.
    """
    if isinstance(m, MinimalModelResult):
        model = m.model
        if isinstance(m.target, FiniteCDGA) and h_vanishes_above is None:
            h_vanishes_above = m.target.max_degree()
    else:
        model = m
    toomer = toomer_invariant(model, n=n, h_vanishes_above=h_vanishes_above)
    rep = toomer.cohomology
    top = max((k for k in range(0, n + 1) if rep.dim(k)), default=0)
    H = rep.algebra()
    pd = is_poincare_duality(H)
    cat_exact = None
    if pd and toomer.exact and toomer.value is not None:
        cat_exact = toomer.value
    return CatReport(toomer, top, pd, cat_exact, n, H)


# ---------------------------------------------------------------------------
# Massey triple products
# ---------------------------------------------------------------------------

class MasseyResult:
    def __init__(self, defined, representative, rep_class, indeterminacy,
                 nontrivial, reason=None):
        self.defined = defined
        self.representative = representative    # AlgElement of degree |a| + |b| + |c| - 1
        self.rep_class = rep_class              # class coordinates in H
        self.indeterminacy = indeterminacy      # list of class coordinate vectors
        self.nontrivial = nontrivial
        self.reason = reason

    def __repr__(self):
        if not self.defined:
            return "MasseyResult(undefined: %s)" % self.reason
        return "MasseyResult(%s, indeterminacy dim %d)" % (
            "nontrivial" if self.nontrivial else "trivial", len(self.indeterminacy))


def massey_triple(p, a, b, c):
    """<a, b, c> with the convention  x c + (-1)^(deg a + 1) a y,  dx = ab, dy = bc.

    Inputs are cocycle AlgElements of a free presentation.  Returns a
    representative plus a basis of the indeterminacy [a] H + H [c]; the
    product is `nontrivial` iff the representative class falls outside the
    indeterminacy span.  Undefined (not an error) when [a][b] or [b][c] is
    nonzero in H.
    """
    for name, z in (("a", a), ("b", b), ("c", c)):
        if not z.is_zero() and not p.differential(z).is_zero():
            raise DegreeError("Massey input %s is not a cocycle" % name)
    da, db, dc = a.degree(), b.degree(), c.degree()
    if None in (da, db, dc):
        if a.is_zero() or b.is_zero() or c.is_zero():
            # A zero slot: the product is defined and trivially zero.
            return MasseyResult(True, AlgElement.zero(p.ctx), {}, [], False)
        raise DegreeError("Massey inputs must be homogeneous")
    a_coords, b_coords, c_coords = p.to_coords(a), p.to_coords(b), p.to_coords(c)
    x = primitives(p, da + db - 1, [p.multiply_coords(da, a_coords, db, b_coords)],
                   range(p.dim(da + db - 1)))[0]
    if x is None:
        return MasseyResult(False, None, None, None, None,
                            reason="[a][b] != 0 in cohomology")
    y = primitives(p, db + dc - 1, [p.multiply_coords(db, b_coords, dc, c_coords)],
                   range(p.dim(db + dc - 1)))[0]
    if y is None:
        return MasseyResult(False, None, None, None, None,
                            reason="[b][c] != 0 in cohomology")
    top = da + db + dc - 1
    rep = lincomb([(1, p.multiply_coords(da + db - 1, x, dc, c_coords)),
                   ((-1) ** (da + 1), p.multiply_coords(da, a_coords, db + dc - 1, y))])
    # One report per degree read: a one-degree report equals a window's there.
    hrep = {k: cohomology(p, k, k) for k in {top, da + db - 1, db + dc - 1}}
    rep_class = hrep[top].class_coordinates(top, rep) if rep else {}
    ind, ind_classes = Echelon(), []
    reps = {k: hrep[k].representatives(k) for k in (da + db - 1, db + dc - 1)}
    for z in ([p.multiply_coords(da, a_coords, db + dc - 1, h) for h in reps[db + dc - 1]]
              + [p.multiply_coords(da + db - 1, h, dc, c_coords) for h in reps[da + db - 1]]):
        if z:
            cls = hrep[top].class_coordinates(top, z)
            if cls and ind.add(dict(cls)):
                ind_classes.append(cls)
    nontrivial = bool(rep_class) and not ind.contains(rep_class)
    return MasseyResult(True, p.from_coords(top, rep), rep_class, ind_classes, nontrivial)


# ---------------------------------------------------------------------------
# Elliptic degree sequences
# ---------------------------------------------------------------------------

class DegreeSequence:
    """Even degrees 2a_i and odd degrees 2b_j - 1, stored by their halves."""

    def __init__(self, evens, odds):
        self.evens = sorted(int(a) for a in evens)
        self.odds = sorted(int(b) for b in odds)
        if any(a < 1 for a in self.evens) or any(b < 1 for b in self.odds):
            raise DegreeError("degree sequence entries must be >= 1")

    def degrees(self):
        return sorted([2 * a for a in self.evens] + [2 * b - 1 for b in self.odds])

    def __repr__(self):
        return "DegreeSequence(evens=%s, odds=%s)" % (self.evens, self.odds)


def _representable(b, values, memo):
    """b = sum k_l v_l with k_l >= 0 integers and sum k_l >= 2?

    `memo` may be shared only by calls with the same `values`.  With g their
    gcd and a, c the least and largest of w = values/g, every integer >=
    (a-1)(c-1) is a sum of w (Schur's Frobenius bound), so b/g >= c +
    max(that, 1) is one c plus a nonempty such sum.  Below it, dist[r] is the
    least sum of w that is r mod a (Dijkstra over the classes, kept in `memo`):
    x is a nonempty sum iff x > 0 and x >= dist[x % a], and b/g is a sum of
    >= 2 terms iff b/g - v is a nonempty one for some v in w.
    """
    values = tuple(sorted(set(values)))
    g = math.gcd(*values)
    w = [v // g for v in values]
    a, c = w[0], w[-1]
    if b % g:
        return False
    b //= g
    if b >= c + max((a - 1) * (c - 1), 1):
        return True
    dist = memo.get("dist")
    if dist is None:
        dist = memo["dist"] = [0] + [math.inf] * (a - 1)
        heap = [(0, 0)]
        while heap:
            d, r = heapq.heappop(heap)
            if d > dist[r]:
                continue
            for v in w[1:]:
                s = (r + v) % a
                if d + v < dist[s]:
                    dist[s] = d + v
                    heapq.heappush(heap, (d + v, s))
    return any(b - v > 0 and b - v >= dist[(b - v) % a] for v in w)


def elliptic_degrees_check(seq):
    """The degree-sequence realization condition for rationally elliptic spaces.

    For every nonempty subsequence S of the even halves, at least |S| of the
    odd halves b_i must be integral combinations b_i = sum k_l a_l over S
    with all k_l >= 0 and sum k_l >= 2.  Counting is per subsequence, each
    b_i counted once.  Returns (bool, failing subsequence or None).
    """
    evens = seq.evens
    odds = seq.odds
    n = len(evens)
    # Distinct sub-multisets only: realized as sorted tuples.
    seen = set()
    for mask in range(1, 1 << n):
        sub = tuple(sorted(evens[i] for i in range(n) if mask & (1 << i)))
        if sub in seen:
            continue
        seen.add(sub)
        memo = {}
        count = sum(1 for b in odds if _representable(b, sub, memo))
        if count < len(sub):
            return False, list(sub)
    return True, None


# ---------------------------------------------------------------------------
# Trichotomy evidence
# ---------------------------------------------------------------------------

ELLIPTIC = "elliptic-evidence"
HYPERBOLIC = "hyperbolic-evidence"
INCONCLUSIVE = "inconclusive"


class TrichotomyReport:
    def __init__(self, ranks, chi_pi, alpha_estimate, refined_alpha, tag,
                 window, notes):
        self.ranks = ranks
        self.chi_pi = chi_pi
        self.alpha_estimate = alpha_estimate
        self.refined_alpha = refined_alpha    # (r, estimate): max over [n, n+r]
        self.tag = tag
        self.window = window
        self.notes = notes

    def __repr__(self):
        return ("TrichotomyReport(%s, chi_pi=%s, alpha~%.4f, window %d)"
                % (self.tag, self.chi_pi, self.alpha_estimate, self.window))


def trichotomy_report(result, n=None):
    """Rank table, homotopy Euler characteristic, growth estimate, evidence tag.

    Tags never claim a proof: elliptic-evidence needs a certified finite
    cohomology and no new generators in the last third of the window;
    hyperbolic-evidence needs the rank table to majorize a geometric
    sequence with ratio > 1 anchored at the start of the last half-window.
    """
    if n is None:
        n = result.certified_degree
    ranks = homotopy_ranks(result, n)
    chi_pi = sum(ranks[k] for k in ranks if k % 2 == 0) - \
        sum(ranks[k] for k in ranks if k % 2 == 1)
    alpha = 0.0
    for k, r in ranks.items():
        if r >= 1:
            alpha = max(alpha, math.log(r) / k)
    # Refined growth estimate: max over the sliding window [n0, n0 + r] with
    # r = window - 2.  The only full window in range is [2, n], the degrees
    # alpha ranges over, so the estimate is alpha; never a certified limit.
    r_len = max(n - 2, 0)
    notes = ["growth/dichotomy theorems are cited as context, not certified "
             "from a finite window"]
    h_finite = isinstance(result.target, FiniteCDGA)
    if h_finite:
        notes.append("H certified finite dimensional (target is a finite cdga)")
    tail = max(1, -(-n // 3))        # ceil(n/3)
    quiet_tail = all(ranks.get(k, 0) == 0 for k in range(n - tail + 1, n + 1))
    tag = INCONCLUSIVE
    if quiet_tail and h_finite:
        tag = ELLIPTIC
    else:
        half = [k for k in range(n - n // 2 + 1, n + 1) if k >= 2]
        if half and all(ranks.get(k, 0) >= 1 for k in half):
            k0 = half[0]
            if all(ranks[k] > ranks[k0] for k in half[1:]):
                tag = HYPERBOLIC
                notes.append("ranks majorize a geometric sequence on [%d, %d]"
                             % (half[0], half[-1]))
    if tag == ELLIPTIC:
        notes.append("chi_pi computed over the full window; exact because no "
                     "generators appear in the last %d degrees" % tail)
    return TrichotomyReport(ranks, chi_pi, alpha, (r_len, alpha), tag, n, notes)


# ---------------------------------------------------------------------------
# Topological complexity cup length
# ---------------------------------------------------------------------------

def tc_cup_length(H):
    """Cup length of the zero-divisor ideal I = ker(H (x) H -> H) (Farber).

    H is a connected finite cdga with zero differential.  The basis elements
    x of H^+ outside the span of H^+ . H^+ span the indecomposables, so they
    generate H.  Since z(ab) = z(a)(1 (x) b) + (a (x) 1)z(b) for
    z(a) = 1 (x) a - a (x) 1, and sum a_i (x) b_i = sum (a_i (x) 1) z(b_i)
    on I, the z(x) generate I as an ideal; by graded commutativity
    I^k = (H (x) H) . S_k with S_1 = span z(x) and S_k = span(S_{k-1} . S_1),
    so I^k != 0 exactly when S_k != 0.  Products are read lazily off H's
    table with the Koszul sign (a (x) b)(a' (x) b') = (-1)^{|b||a'|} aa' (x) bb',
    on vectors keyed (p, i, q, j) for the basis pair (e_{p,i}, e_{q,j}).
    """
    if H.diff:
        raise UnsupportedInputError("TC cup length expects zero differential")
    if H.dim(0) != 1 or H.min_degree() < 0:
        raise UnsupportedInputError("TC cup length expects a connected algebra")
    decomposables = Echelon()
    for ((p, i), (q, j)), prod in H.mul.items():
        if p and q:
            decomposables.add({(p + q, k): c for k, c in prod.items()})
    gens = []           # z(x) for the chosen algebra generators x
    for p in sorted(H.basis):
        for i in range(H.dim(p)):
            if p and decomposables.add({(p, i): ONE}):
                gens.append({(0, 0, p, i): ONE, (p, i, 0, 0): -ONE})
    length, current = 0, gens
    while current:
        length += 1
        span = Echelon()
        for v in current:
            for z in gens:
                span.add(tensor_mul(H, H, v, z))
        current = [row for _, row in span.rows]
    return length


# ---------------------------------------------------------------------------
# Loop-space homology via PBW
# ---------------------------------------------------------------------------

def loop_homology_dims(lie_dims, n):
    """dim H_k(Omega X; Q) for k <= n from dim L_k (simply connected case).

    PBW: U L has the generating series
    prod_{odd k} (1 + t^k)^{dim L_k} * prod_{even k} (1 - t^k)^{-dim L_k}.
    Input: {k: dim L_k} for k >= 1, a LieTable, or a MinimalModelResult
    (then dim L_k = rk_{k+1}).
    """
    if isinstance(lie_dims, MinimalModelResult):
        ranks = lie_dims.ranks()
        dims = {k: ranks.get(k + 1, 0) for k in range(1, n + 1)}
    elif hasattr(lie_dims, "dims"):
        dims = {k: d for k, d in lie_dims.dims().items() if k >= 1}
    else:
        dims = {int(k): int(v) for k, v in lie_dims.items() if int(k) >= 1}
    series = [0] * (n + 1)
    series[0] = 1
    for k in sorted(dims):
        if k > n or dims[k] == 0:
            continue
        e = dims[k]
        factor = [0] * (n + 1)
        if k % 2 == 1:
            for m_ in range(0, n // k + 1):
                if m_ <= e:
                    factor[k * m_] = math.comb(e, m_)
        else:
            for m_ in range(0, n // k + 1):
                factor[k * m_] = math.comb(e + m_ - 1, m_)
        series = _poly_mul(series, factor, n)
    return {k: series[k] for k in range(0, n + 1)}


def _poly_mul(a, b, n):
    out = [0] * (n + 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj and i + j <= n:
                    out[i + j] += ai * bj
    return out
