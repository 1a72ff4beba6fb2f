"""Homotopy Lie algebra of a minimal Sullivan presentation.

The table of L_V is read off the quadratic part d_1 of the differential via
the pairing  <v, s[x,y]> = (-1)^(deg y + 1) <d_1 v, sx, sy>  with
<z ^ w, f, g> = <z,g><w,f> + (-1)^(deg z deg w) <z,f><w,g>.
L_k is the desuspended dual of V^{k+1}; pi_k elements are suspensions.
Whitehead products carry the transport sign (-1)^(deg x), and pi_1 of a
finite nilpotent table is the vector space L_0 under the exact
Baker-Campbell-Hausdorff product log(exp a . exp b).
"""

from bisect import bisect_right
from fractions import Fraction
from math import factorial, lcm

from .algebra import ONE, generator_monomial, monomial_factors, monomial_word_length
from .cdga import SullivanPresentation, cohomology, validate
from .errors import DegreeError, RhtError, UnsupportedInputError
from .linalg import Echelon, RationalMatrix, lincomb, solve_linear
from .minimal_model import is_minimal


def quadratic_part(p):
    """(Lambda V, d_1) of a minimal presentation: only the word-length-2
    component of d, verified d_1^2 = 0."""
    if not is_minimal(p):
        raise UnsupportedInputError("quadratic part requires a minimal presentation")
    ctx = p.ctx
    images = {g: p.d.image_of(g).word_part(2) for g in ctx.names}
    q = SullivanPresentation(ctx, images, name="%s.d1" % p.name)
    # d^2 = 0 forces d_1^2 = 0 on the nose (the word-3 component of d^2 is
    # exactly d_1 d_1), so a failure here means the input was invalid.
    if not validate(q).ok:
        raise RhtError("d_1^2 != 0; input was not a valid minimal presentation")
    return q


class LieTable:
    """Basis and exact structure constants of a graded Lie algebra.

    basis: {lie_degree: [labels]}; brackets stored for every ordered pair of
    basis elements with degree sum <= bound as {(deg, idx): coeff} maps.
    """

    def __init__(self, basis, brackets, bound, name="L"):
        self.basis = {k: list(v) for k, v in basis.items() if v}
        self.brackets = brackets
        self.bound = bound
        self.name = name

    def dim(self, k):
        return len(self.basis.get(k, ()))

    def dims(self):
        return {k: self.dim(k) for k in sorted(self.basis)}

    def bracket_of(self, k, i, l, j):
        """[e_{k,i}, e_{l,j}] as a sparse vector over the degree-(k+l) basis."""
        if k + l > self.bound:
            raise DegreeError("bracket lands beyond the table bound %d" % self.bound)
        return dict(self.brackets.get(((k, i), (l, j)), {}))

    def bracket(self, x, y):
        """Bilinear bracket of homogeneous elements (deg, vector)."""
        (k, u), (l, v) = x, y
        if k + l > self.bound:
            raise DegreeError("bracket lands beyond the table bound %d" % self.bound)
        return (k + l, lincomb((ci * cj, self.brackets.get(((k, i), (l, j)), {}))
                               for i, ci in u.items() for j, cj in v.items()))

    def validate(self):
        """Antisymmetry and graded Jacobi on all basis pairs/triples in bound.

        Checked on the integer table L*T, L the lcm of the denominators: both
        are homogeneous in the structure constants, so each holds on L*T
        exactly when on T.  Each orbit is visited once, in bound: pairs
        x <= y and triples x <= y <= z in item order.  The failing pairs are
        closed under swapping, and once antisymmetry holds the Jacobi defect
        J(x,y,z) = [x,[y,z]] - [[x,y],z] - (-1)^{|x||y|}[y,[x,z]] changes only
        by a sign under swapping x,y or y,z.  So the first failure of the
        full loops over all ordered pairs and triples is sorted, and it is
        the one reported here.
        """
        den = lcm(*[c.denominator for vec in self.brackets.values() for c in vec.values()])
        t = LieTable(self.basis, {key: {m: c.numerator * (den // c.denominator)
                                        for m, c in vec.items()}
                                  for key, vec in self.brackets.items()}, self.bound)
        items = [(k, i) for k in sorted(t.basis) for i in range(t.dim(k))]
        degs = [k for k, _ in items]

        def upto(p, d):    # (position, item) from p on, of degree <= d: a slice, items sorted
            return enumerate(items[p:bisect_right(degs, d)], p)

        for p, (k, i) in enumerate(items):
            for _, (l, j) in upto(p, t.bound - k):
                ab = t.bracket_of(k, i, l, j)
                ba = t.bracket_of(l, j, k, i)
                sign = -1 if (k % 2) and (l % 2) else 1
                # [x,y] + (-1)^{|x||y|}[y,x] = 0
                if lincomb([(1, ab), (sign, ba)]):
                    return False, "antisymmetry fails on (%d,%d),(%d,%d)" % (k, i, l, j)
        for p, (k, i) in enumerate(items):
            x = (k, {i: 1})
            for q, (l, j) in upto(p, (t.bound - k) // 2):
                y, xy = (l, {j: 1}), (k + l, t.bracket_of(k, i, l, j))
                sign = -1 if (k % 2) and (l % 2) else 1
                for _, (m, h) in upto(q, t.bound - k - l):
                    z = (m, {h: 1})
                    lhs = t.bracket(x, (l + m, t.bracket_of(l, j, m, h)))[1]
                    r1 = t.bracket(xy, z)[1]
                    r2 = t.bracket(y, (k + m, t.bracket_of(k, i, m, h)))[1]
                    if lhs != lincomb([(1, r1), (sign, r2)]):
                        return False, "Jacobi fails on degrees (%d,%d,%d)" % (k, l, m)
        return True, None

    def __repr__(self):
        return "LieTable(%s; dims %s; bound %d)" % (
            self.name, ", ".join("%d:%d" % kv for kv in sorted(self.dims().items())), self.bound)


def lie_table(pres, bound, name=None):
    """Structure constants of L_V up to Lie degree `bound` from the d_1 of a
    minimal presentation, read off the word-length-2 part of each image.

    One pass over d_1: a term c*a*b (a < b) of d_1 v gives <v, s[x_b, x_a]>
    = c (-1)^|a| and <v, s[x_a, x_b]> = c (-1)^(|a||b| + |b|); a term c*a^2
    gives <v, s[x_a, x_a]> = 2c (-1)^|a|, with |.| the degree in V.  The
    table's Jacobi check is, on its degrees, the dual of d_1^2 = 0.
    """
    if not is_minimal(pres):
        raise UnsupportedInputError("quadratic part requires a minimal presentation")
    ctx = pres.ctx
    gens_by_degree = {}
    slot = {}            # generator index -> (Lie degree, position in that degree)
    for idx, (g, deg) in enumerate(ctx.gens):
        slot[idx] = (deg - 1, len(gens_by_degree.setdefault(deg - 1, [])))
        gens_by_degree[deg - 1].append(idx)
    basis = {}
    for k, idxs in gens_by_degree.items():
        if 0 <= k <= bound:
            basis[k] = ["x_%s" % ctx.names[i] for i in idxs]
    entries = {}
    for v, g in enumerate(ctx.names):
        if ctx.degrees[v] - 1 > bound:
            continue
        m = slot[v][1]
        for mono, c in pres.d.image_terms(g).items():
            if monomial_word_length(mono) != 2:
                continue
            a, b = monomial_factors(mono)
            da, db = ctx.degrees[a], ctx.degrees[b]
            contributions = ([(a, a, 2 * c * (-1) ** da)] if a == b else
                             [(b, a, c * (-1) ** da), (a, b, c * (-1) ** (da * db + db))])
            # Distinct terms of d_1 v give distinct (p, q): one value per m, in m order.
            for p, q, x in contributions:
                entries.setdefault((slot[p], slot[q]), {})[m] = x
    # in the order (k, l, i, j) of the key ((k, i), (l, j))
    brackets = {key: entries[key] for key in sorted(
        entries, key=lambda kl: (kl[0][0], kl[1][0], kl[0][1], kl[1][1]))}
    t = LieTable(basis, brackets, bound, name=name or ("L(%s)" % pres.name))
    ok, why = t.validate()
    if not ok:
        raise RhtError("homotopy Lie table is inconsistent (%s); d_1^2 != 0?" % why)
    return t


def homotopy_ranks(result, n):
    """rk_k = dim V^k for 2 <= k <= n from a certified minimal model."""
    if n > result.certified_degree:
        raise DegreeError("ranks requested beyond the certified degree %d"
                          % result.certified_degree)
    return result.model.ctx.ranks(range(2, n + 1))


def whitehead_product(t, alpha, beta):
    """Whitehead product on pi_* = s L: [sx, sy]_W = (-1)^(deg x) s[x,y].

    Elements of pi_k are (k, vector) over the dual basis of V^k.  For
    k = l = 1 the product is the group commutator a b a^{-1} b^{-1} in the
    exponential group, computed by BCH (requires a nilpotent L_0).
    """
    (k, u), (l, v) = alpha, beta
    if k < 1 or l < 1:
        raise DegreeError("Whitehead products need pi_k, pi_l with k, l >= 1")
    if k == 1 and l == 1:
        inv_u = {i: -c for i, c in u.items()}
        inv_v = {i: -c for i, c in v.items()}
        w = bch_product(t, u, v)
        w = bch_product(t, w, inv_u)
        w = bch_product(t, w, inv_v)
        return (1, w)
    deg_x = k - 1
    _, vec = t.bracket((k - 1, u), (l - 1, v))
    sign = (-1) ** deg_x
    return (k + l - 1, {i: sign * c for i, c in vec.items()})


# ---------------------------------------------------------------------------
# Lower-central-series / nilpotency filtrations (Theorem: nil pi_k = nil
# L_{k-1} = nil V^k)
# ---------------------------------------------------------------------------

class FiltrationReport:
    """Dimensions of the V^k filtration and the LCS of L_{k-1}, with nil values.

    nil values are positive integers, 0 (zero space), the string ">=depth"
    when unresolved within the probe depth, or the string "inf" when the
    filtration provably stabilizes short of exhausting / above zero.
    """

    def __init__(self, k, v_dims, l_dims, nil_v, nil_l):
        self.k = k
        self.v_dims = v_dims
        self.l_dims = l_dims
        self.nil_v = nil_v
        self.nil_l = nil_l

    def __repr__(self):
        return ("FiltrationReport(k=%d, V-filtration dims %s, LCS dims %s, "
                "nil V = %s, nil L = %s)" % (self.k, self.v_dims, self.l_dims,
                                             self.nil_v, self.nil_l))


def lcs_filtrations(p, k, depth=32):
    """Filtration of V^k dual to the lower central series of L_{k-1}.

    For k = 1 the filtration is F_0 = ker d_1, F_{r+1} = d_1^{-1}(Lambda^2 F_r);
    for k >= 2 it is F_0 = ker delta, F_{r+1} = delta^{-1}(V^1 ^ F_r), delta
    the V^1 ^ V-component of d.  Both sides are computed independently, from
    the minimal presentation p itself (its columns and products; the L-side
    is lie_table(p, k - 1)), and the Theorem equality nil V^k = nil L_{k-1}
    is asserted whenever both stabilize.
    """
    if not is_minimal(p):
        raise UnsupportedInputError("quadratic part requires a minimal presentation")
    ctx = p.ctx
    vk_idx = [i for i, d in enumerate(ctx.degrees) if d == k]
    if not vk_idx:
        return FiltrationReport(k, [0], [0], 0, 0)

    # --- V-side, in the coordinates of p.basis(k + 1) ------------------------
    v1 = [p.index(1)[generator_monomial(i)] for i, d in enumerate(ctx.degrees) if d == 1]
    vk = [p.index(k)[generator_monomial(i)] for i in vk_idx]
    basis_k1 = p.basis(k + 1)
    # delta keeps the monomials x y of d (word length 2, so of d_1) with |x| = 1, |y| = k
    relevant = {j for j, mono in enumerate(basis_k1)
                if sorted(ctx.degrees[i] for i in monomial_factors(mono)) == [1, k]}
    delta_cols = [{j: c for j, c in p.differential_column(k, g).items() if j in relevant}
                  for g in vk]

    def preimage(span_ech):
        """{v in V^k : delta v in span} as vectors over vk_idx coordinates."""
        mat = RationalMatrix(len(basis_k1), [span_ech.residue(c) for c in delta_cols])
        return solve_linear(mat).kernel

    def span_of_level(f_basis):
        """Echelon of Lambda^2 F (k=1) or V^1 ^ F (k>=2) inside degree k+1 monomials."""
        f = [{vk[c]: x for c, x in vec.items()} for vec in f_basis]
        left = f if k == 1 else [{u: ONE} for u in v1]
        ech = Echelon()
        for a, x in enumerate(left):
            for y in f[a:] if k == 1 else f:
                prod = p.multiply_coords(1, x, k, y)
                if prod:
                    ech.add(prod)
        return ech

    v_dims = []
    level = preimage(Echelon())          # F_0 = ker delta
    v_dims.append(len(level))
    nil_v = None
    for _ in range(depth):
        if len(level) == len(vk_idx):
            nil_v = len(v_dims)          # 1-based step at which F = V^k
            break
        nxt = preimage(span_of_level(level))
        if len(nxt) == len(level):
            nil_v = "inf"                # stabilized strictly below V^k
            break
        level = nxt
        v_dims.append(len(level))
    if nil_v is None:
        nil_v = ">=%d" % depth

    # --- L-side -----------------------------------------------------------
    t = lie_table(p, k - 1)
    l_dims, nil_l = _lower_central_series(t, k - 1, depth)
    if t.dim(k - 1) == 0:
        nil_l = 0

    report = FiltrationReport(k, v_dims, l_dims, nil_v, nil_l)
    if isinstance(nil_v, int) and isinstance(nil_l, int) and nil_v != nil_l:
        raise RhtError("nil V^%d = %s but nil L_%d = %s; theorem violated "
                       "(implementation bug)" % (k, nil_v, k - 1, nil_l))
    return report


# ---------------------------------------------------------------------------
# Hurewicz
# ---------------------------------------------------------------------------

class HurewiczReport:
    def __init__(self, k, matrix, h_dim, v_dim, rank):
        self.k = k
        self.matrix = matrix      # sparse columns: image of each H^k class in V^k coords
        self.h_dim = h_dim
        self.v_dim = v_dim
        self.rank = rank

    def __repr__(self):
        return "HurewiczReport(k=%d, H-dim %d -> V-dim %d, rank %d)" % (
            self.k, self.h_dim, self.v_dim, self.rank)


def hurewicz_matrix(result, k):
    """Matrix of H(zeta): H^k(Lambda V, d) -> V^k on representatives.

    zeta is the projection onto word length 1; it vanishes on boundaries of
    a minimal presentation, so the class map is well defined.
    """
    model = result.model if hasattr(result, "model") else result
    rep = cohomology(model, k, k)
    # basis(k) positions of the generators of degree k, in V^k order
    vk = [model.index(k)[generator_monomial(g)] for g, d in enumerate(model.ctx.degrees) if d == k]
    cols = [{pos: v[i] for pos, i in enumerate(vk) if i in v} for v in rep.representatives(k)]
    span = Echelon()
    for col in cols:
        span.add(col)
    return HurewiczReport(k, cols, len(cols), len(vk), span.dim)


# ---------------------------------------------------------------------------
# Baker-Campbell-Hausdorff
# ---------------------------------------------------------------------------

NILPOTENCY_STEPS = 64


def _lower_central_series(t, k, depth):
    """Dims of L_k, [L_0, L_k], [L_0, [L_0, L_k]], ... and the step at which
    the series vanishes: "inf" if it stabilizes above 0, ">=depth" if
    `depth` steps do not decide."""
    cur = Echelon()
    for i in range(t.dim(k)):
        cur.add({i: ONE})
    dims = [cur.dim]
    for step in range(1, depth + 1):
        if cur.dim == 0:
            return dims, step - 1
        nxt = Echelon()
        rows = [row for _, row in cur.rows]
        for i0 in range(t.dim(0)):
            for row in rows:
                _, br = t.bracket((0, {i0: ONE}), (k, row))
                if br:
                    nxt.add(br)
        if nxt.dim == cur.dim:
            return dims, "inf"
        cur = nxt
        dims.append(cur.dim)
    return dims, ">=%d" % depth


def nilpotency_class(t):
    """Nilpotency class of L_0 from the table, or raise if non-nilpotent."""
    _, nil = _lower_central_series(t, 0, NILPOTENCY_STEPS + 1)
    if nil == "inf":
        raise UnsupportedInputError("L_0 is not nilpotent; BCH does not terminate")
    if not isinstance(nil, int):
        raise UnsupportedInputError("nilpotency not resolved in %d steps" % NILPOTENCY_STEPS)
    return nil


def _free_mul(x, y, cap):
    # One row per left word: concatenating a fixed word is injective.
    return lincomb((c1, {w1 + w2: c2 for w2, c2 in y.items() if len(w1) + len(w2) <= cap})
                   for w1, c1 in x.items())


def _free_exp(x, cap):
    terms = [(ONE, {(): ONE})]
    term = {(): ONE}
    for m in range(1, cap + 1):
        term = _free_mul(term, x, cap)
        if not term:
            break
        terms.append((Fraction(1, factorial(m)), term))
    return lincomb(terms)


def _free_log(x, cap):
    u = {w: c for w, c in x.items() if w}
    terms = []
    term = {(): ONE}
    for m in range(1, cap + 1):
        term = _free_mul(term, u, cap)
        if not term:
            break
        terms.append((Fraction((-1) ** (m + 1), m), term))
    return lincomb(terms)


def bch_product(t, a, b, nil_class=None):
    """log(exp a . exp b) in a nilpotent L_0, exactly.

    Computed as the universal BCH element in the free associative algebra on
    two symbols truncated at the nilpotency class, then evaluated in L_0 via
    the Dynkin left-normed bracketing (Dynkin-Specht-Wever: a homogeneous Lie
    element z of word length n satisfies [z]_left = n z).
    """
    c = nil_class if nil_class is not None else nilpotency_class(t)
    if c == 0:
        return {}
    z = _free_log(_free_mul(_free_exp({(0,): ONE}, c), _free_exp({(1,): ONE}, c), c), c)
    inputs = (dict(a), dict(b))
    terms = []
    for word, coeff in z.items():
        vec = inputs[word[0]]
        for s in word[1:]:
            _, vec = t.bracket((0, vec), (0, inputs[s]))
            if not vec:
                break
        terms.append((coeff / len(word), vec))
    return lincomb(terms)
