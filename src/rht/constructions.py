"""Named model builders: catalog spaces, homogeneous spaces and biquotients,
free loop spaces, holonomy representations, mapping-space derivation
complexes, Poincare-duality diagonals, configuration-space models F(A,k),
and the subset complex (D, d) of a subspace arrangement.

Every builder returns a presentation that passes `cdga.validate`; the
sign-sensitive constructions (loop-space suspension derivation, diagonal
class, arrangement differential) are pinned by regression tests computed by
hand or by independent brute force.
"""

from fractions import Fraction
from itertools import combinations

from . import algebra
from .algebra import (AlgElement, Derivation, GeneratorContext, ONE, ZERO, apply_derivation,
                      as_q, generator_monomial, monomial_blocks, monomial_degree,
                      monomial_divide, monomial_factors, monomial_shift)
from .cdga import (FiniteCDGA, QuotientCDGA, SullivanPresentation, cohomology, tensor_finite,
                   tensor_positions, validate)
from .errors import BudgetExceededError, DegreeError, RhtError, UnsupportedInputError
from .linalg import Echelon, RationalMatrix, lincomb, solve_linear
from .minimal_model import LambdaExtension


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------

def point():
    return SullivanPresentation(GeneratorContext([]), {}, name="point")


def sphere(n):
    """Minimal model of S^n: (Lambda u, 0) for odd n, (Lambda(a,b), db=a^2) for even."""
    if n < 1:
        raise DegreeError("sphere dimension must be >= 1")
    if n % 2 == 1:
        ctx = GeneratorContext([("u", n)])
        return SullivanPresentation(ctx, {"u": AlgElement.zero(ctx)}, name="S%d" % n)
    ctx = GeneratorContext([("a", n), ("b", 2 * n - 1)])
    a = ctx.generator("a")
    return SullivanPresentation(ctx, {"a": AlgElement.zero(ctx), "b": a * a},
                                name="S%d" % n)


def cp(n):
    """Minimal model of CP^n: Lambda(x_2, y_{2n+1}), dy = x^{n+1}."""
    if n < 1:
        raise DegreeError("cp(n) needs n >= 1")
    ctx = GeneratorContext([("x", 2), ("y", 2 * n + 1)])
    x = ctx.generator("x")
    return SullivanPresentation(ctx, {"x": AlgElement.zero(ctx), "y": x ** (n + 1)},
                                name="CP%d" % n)


def k_z(n):
    """Minimal model of K(Z, n): a single cocycle generator."""
    if n < 1:
        raise DegreeError("k_z(n) needs n >= 1")
    ctx = GeneratorContext([("a", n)])
    return SullivanPresentation(ctx, {"a": AlgElement.zero(ctx)}, name="KZ%d" % n)


def torus(n):
    """(Lambda(t_1..t_n), 0); its degree-1 basis, the n generators, must fit MONOMIAL_BUDGET."""
    if n > algebra.MONOMIAL_BUDGET:
        raise BudgetExceededError("torus(%d) has a degree 1 basis of %d monomials, more than %d"
                                  % (n, n, algebra.MONOMIAL_BUDGET))
    ctx = GeneratorContext([("t%d" % (i + 1), 1) for i in range(n)])
    return SullivanPresentation(ctx, {g: AlgElement.zero(ctx) for g in ctx.names},
                                name="T%d" % n)


def truncated_poly(degree, power, name=None):
    """Q[x]/(x^power) with deg x = `degree` (even), as a FiniteCDGA."""
    if degree % 2 or degree < 2:
        raise DegreeError("truncated polynomial generator degree must be even >= 2")
    if power < 2:
        raise DegreeError("truncation power must be >= 2")
    products = power * (power + 1) // 2
    if products > algebra.MONOMIAL_BUDGET:
        raise BudgetExceededError("truncated_poly(%d, %d) has %d nonzero products, more than %d"
                                  % (degree, power, products, algebra.MONOMIAL_BUDGET))
    basis = {k * degree: ["x^%d" % k if k > 1 else ("x" if k == 1 else "1")]
             for k in range(power)}
    mul = {((i * degree, 0), (j * degree, 0)): {0: ONE}
           for i in range(power) for j in range(power - i)}
    return FiniteCDGA(basis, {}, mul, name=name or "Q[x]/x^%d" % power)


def tensor_presentations(p1, p2, name=None):
    """Model of a product: the tensor cdga, generators suffixed _1 / _2.  p2's
    generators follow p1's in their own order, so a shifted image takes no sign."""
    sides = ((1, p1, 0), (2, p2, len(p1.ctx)))
    ctx = GeneratorContext([("%s_%d" % (g, s), d) for s, p, _ in sides for g, d in p.ctx.gens])
    images = {"%s_%d" % (g, s): AlgElement(ctx, {monomial_shift(m, offset): c for m, c
                                                 in p.d.image_terms(g).items()})
              for s, p, offset in sides for g in p.ctx.names}
    return SullivanPresentation(ctx, images,
                                name=name or "%sx%s" % (p1.name, p2.name))


def wedge_cohomology(H1, H2, name=None):
    """H1 (+)_Q H2: unit glued, positive parts orthogonal (wedge of spaces)."""
    for X in (H1, H2):
        if X.diff:
            raise UnsupportedInputError("wedge sum expects zero differentials")
    basis = {0: ["1"]}
    maps = ({}, {})      # (k, i) of H1, resp. H2 -> index in degree k of the sum
    for X, xmap, side in ((H1, maps[0], "L"), (H2, maps[1], "R")):
        for k in sorted(X.basis):
            for i in range(X.dim(k) if k else 0):
                xmap[(k, i)] = len(basis.setdefault(k, []))
                basis[k].append("%s.%s" % (side, X.label(k, i)))
    mul = {}
    for xmap in maps:
        for (k, i), idx in xmap.items():
            mul[((0, 0), (k, idx))] = {idx: ONE}
            mul[((k, idx), (0, 0))] = {idx: ONE}
    mul[((0, 0), (0, 0))] = {0: ONE}
    for X, xmap in zip((H1, H2), maps):
        for (p, i), idx1 in xmap.items():
            for (q, j), idx2 in xmap.items():
                out = {xmap[(p + q, l)]: c for l, c in X.product(p, i, q, j).items() if p + q}
                if out:
                    mul[((p, idx1), (q, idx2))] = out
    return FiniteCDGA(basis, {}, mul, name=name or ("%s v %s" % (H1.name, H2.name)))


# name -> (builder, the type of each parameter)
CATALOG = {
    "point": (point, ()),
    "sphere": (sphere, (int,)),
    "cp": (cp, (int,)),
    "k_z": (k_z, (int,)),
    "torus": (torus, (int,)),
    "truncated_poly": (truncated_poly, (int, int)),
    "product": (tensor_presentations, (SullivanPresentation, SullivanPresentation)),
    "wedge_cohomology": (wedge_cohomology, (FiniteCDGA, FiniteCDGA)),
}


def catalog(name, *params):
    """Catalog dispatch: sphere(n), cp(n), k_z(n), torus(n), point(),
    product(m1, m2), wedge_cohomology(H1, H2), truncated_poly(deg, power)."""
    if name not in CATALOG:
        raise UnsupportedInputError("unknown catalog entry %r" % name)
    fn, types = CATALOG[name]
    if len(params) != len(types) or not all(map(isinstance, params, types)):
        raise DegreeError("catalog %s takes (%s)" % (name, ", ".join(t.__name__ for t in types)))
    return fn(*params)


# ---------------------------------------------------------------------------
# Homogeneous spaces and biquotients
# ---------------------------------------------------------------------------

def homogeneous_space_model(g_degrees, h_degrees, images, name="G/H"):
    """Model (Lambda s^{-1}V_H (x) Lambda V_G, d) of a homogeneous space G/H:
    the biquotient K\\G/H with K trivial.

    g_degrees: odd degrees of V_G; h_degrees: odd degrees of V_H.  `images`
    receives the list of s^{-1}V_H generators (degrees h+1) and must return
    one polynomial per G-generator: the Sullivan representative of BH -> BG
    evaluated on s^{-1}V_G.  Then d vanishes on s^{-1}V_H and d(x_i) is the
    supplied polynomial.
    """
    zero = AlgElement.zero(GeneratorContext([]))
    return biquotient_model(g_degrees, h_degrees, [], images, [zero] * len(g_degrees),
                            name=name)


def biquotient_model(g_degrees, h_degrees, k_degrees, bf_images, bg_images,
                     name="K\\G/H"):
    """Model (Lambda s^{-1}V_K (x) Lambda s^{-1}V_H (x) Lambda V_G, d) with
    dx = H(Bf)(x) - H(Bg)(x) for x in V_G.

    bf_images(h_gens) and bg_images(k_gens) each return one polynomial per
    G-generator x, of degree |x| + 1, in the s^{-1}V_H and s^{-1}V_K variables
    respectively (over an initial segment of the model's context).
    """
    for ds in (g_degrees, h_degrees, k_degrees):
        if any(d % 2 == 0 for d in ds):
            raise DegreeError("generator degree lists must be odd degrees")
    gens = [("s%d" % (i + 1), d + 1) for i, d in enumerate(k_degrees)]
    gens += [("t%d" % (i + 1), d + 1) for i, d in enumerate(h_degrees)]
    gens += [("x%d" % (i + 1), d) for i, d in enumerate(g_degrees)]
    ctx = GeneratorContext(gens)
    s_gens = [ctx.generator("s%d" % (i + 1)) for i in range(len(k_degrees))]
    t_gens = [ctx.generator("t%d" % (i + 1)) for i in range(len(h_degrees))]
    x_names = ctx.names[len(k_degrees) + len(h_degrees):]
    d_imgs = {g: AlgElement.zero(ctx) for g in ctx.names if g not in x_names}
    f_polys = bf_images(t_gens) if callable(bf_images) else list(bf_images)
    g_polys = bg_images(s_gens) if callable(bg_images) else list(bg_images)
    if len(f_polys) != len(g_degrees) or len(g_polys) != len(g_degrees):
        raise DegreeError("one Bf and one Bg image per V_G generator is required")
    # x -> H(Bf)(x) and x -> H(Bg)(x): Derivation checks each polynomial's context and degree
    bf, bg = (Derivation(ctx, +1, dict(zip(x_names, polys))) for polys in (f_polys, g_polys))
    d_imgs.update((x, bf.image_of(x) - bg.image_of(x)) for x in x_names)
    return SullivanPresentation(ctx, d_imgs, name=name)


# ---------------------------------------------------------------------------
# Free loop spaces
# ---------------------------------------------------------------------------

def free_loop_model(p, name=None):
    """(Lambda V (x) Lambda sV, D) with D(sv) = -s(dv), deg sv = deg v - 1.

    s is extended to the degree -1 derivation with s(v) = sv, s(sv) = 0, via
    s(xy) = (sx)y + (-1)^(deg x) x (sy).  Requires V = V^{>=2}.
    """
    if any(d < 2 for d in p.ctx.degrees):
        raise UnsupportedInputError("free loop model requires a simply connected model")
    gens = list(p.ctx.gens) + [("s_%s" % g, d - 1) for g, d in p.ctx.gens]
    ctx = GeneratorContext(gens)
    s_der = Derivation(ctx, -1, {g: ctx.generator("s_%s" % g) if g in p.ctx.index
                                 else AlgElement.zero(ctx) for g in ctx.names})
    images = {}
    for g in p.ctx.names:
        images[g] = dv = AlgElement(ctx, p.d.image_terms(g))
        images["s_%s" % g] = -apply_derivation(s_der, dv)
    total = SullivanPresentation(ctx, images, name=name or ("L%s" % p.name))
    if not validate(total).ok:
        raise RhtError("free loop differential does not square to zero")
    return total


def free_loop_extension(p, name=None):
    """The loop model as a Lambda-extension over the original presentation."""
    total = free_loop_model(p, name=name)
    return LambdaExtension(total, list(p.ctx.names), name=total.name)


# ---------------------------------------------------------------------------
# Holonomy representations
# ---------------------------------------------------------------------------

class HolonomyReport:
    """Matrices theta_i of the base-W action on fiber cohomology.

    entry(i, k) is the list of columns of theta_i : H^k -> H^{k+1-deg(w_i)},
    one per H^k class (class coordinates of the fiber report).  For degree-1
    base generators these are degree-preserving and nilpotent.
    """

    def __init__(self, base_labels, base_degrees, fiber_report, matrices, window):
        self.base_labels = base_labels
        self.base_degrees = base_degrees
        self.fiber_report = fiber_report
        self.matrices = matrices
        self.window = window

    def matrix(self, i, k):
        return self.matrices.get((i, k), [])

    def is_nilpotent(self, i):
        """theta_i nilpotent on the computed window: theta_i^dim = 0 on each H^k."""
        if self.base_degrees[i] > 1:
            return True        # strictly degree-lowering, bounded below on the window
        for k in range(0, self.window + 1):
            dim = self.fiber_report.dim(k)
            cols = self.matrix(i, k) + [{}] * dim      # a missing column is 0
            powers = [{j: ONE} for j in range(dim)]      # theta_i^r applied to e_j
            for _ in range(dim):
                powers = [lincomb((c, cols[j]) for j, c in v.items()) for v in powers]
            if any(powers):
                return False
        return True

    def __repr__(self):
        return "HolonomyReport(base %s, window %d)" % (",".join(self.base_labels),
                                                       self.window)


def holonomy_representation(ext, n):
    """theta_i read off the W-linear component of d on fiber representatives.

    d(1 (x) Phi) = sum_i w_i (x) theta_i(Phi) + higher W-length terms; the
    w_i-coefficients are fiber cocycles and their classes define theta_i on
    H(Lambda Z, d-bar).  The total context lists the nb base generators first
    and the fiber in its own order, so fiber generator j is total generator
    nb + j, and a W-linear monomial is (w, 1) followed by fiber factors only.
    """
    total = ext.total
    ctx, nb = total.ctx, len(ext.base_names)
    base_idx = [ctx.index[g] for g in ext.base_names]
    fiber = ext.fiber_presentation()
    frep = cohomology(fiber, 0, n + 1)
    matrices = {(w_pos, k): [] for k in range(0, n + 1) for w_pos in range(nb)}
    for k in range(0, n + 1):
        basis = fiber.basis(k)
        for rep_vec in frep.representatives(k):
            image = lincomb((c, total.d.column(monomial_shift(basis[i], nb)))
                            for i, c in rep_vec.items())
            parts = {}      # w -> fiber coordinates of its coefficient, monomials ascending
            for mono, c in sorted(image.items()):
                w, *rest = monomial_factors(mono)
                if w < nb and (not rest or rest[0] >= nb):
                    fib_mono = monomial_shift(monomial_divide(mono, generator_monomial(w)), -nb)
                    parts.setdefault(w, {})[fiber.index(k + 1 - ctx.degrees[w])[fib_mono]] = c
            for w_pos, w_idx in enumerate(base_idx):
                coords, pdeg = parts.get(w_idx), k + 1 - ctx.degrees[w_idx]
                matrices[(w_pos, k)].append(frep.class_coordinates(pdeg, coords) if coords else {})
    report = HolonomyReport([ctx.names[i] for i in base_idx],
                            [ctx.degrees[i] for i in base_idx], frep, matrices, n)
    for i in range(len(base_idx)):
        if not report.is_nilpotent(i):
            raise RhtError("holonomy action of %s is not nilpotent; extension invalid"
                           % ctx.names[base_idx[i]])
    return report


# ---------------------------------------------------------------------------
# Mapping spaces: homology of the phi-derivation complex
# ---------------------------------------------------------------------------

class MappingSpaceReport:
    def __init__(self, n, dim, contributing):
        self.n = n
        self.dim = dim
        self.contributing = contributing      # [(generator degree, word degree)]

    def __repr__(self):
        return "MappingSpaceReport(n=%d, dim=%d)" % (self.n, self.dim)


def mapping_space_pi(phi, n):
    """dim H_n(Der_phi(Lambda V, Lambda W), D) with D t = d t - (-1)^n t d.

    A phi-derivation of degree m is determined by the generator images
    theta(v) in (Lambda W)^{deg v - m}; the extension to products follows
    theta(xy) = theta(x) phi(y) + (-1)^(deg x * m) phi(x) theta(y).  The
    basis derivation theta with theta(g) = e_i in W^{deg g - m} and 0 on the
    other generators has the D-column

        d_W(e_i) at g  -  (-1)^m sum over v, over the monomials c * left g right of dv,
            of (-1)^(m * deg left) * e * c * phi(left) e_i phi(right) at v,

    where e is the exponent of g in the monomial and left holds its other
    e - 1 copies (an even g commutes, so its e copies give e equal terms).
    """
    if n < 1:
        raise DegreeError("mapping-space homotopy is computed for n >= 1")
    V = phi.source
    W = phi.target
    if not isinstance(W, SullivanPresentation):
        raise UnsupportedInputError("derivation complexes need a free target")

    def der_basis(m):
        out = []
        for g in V.ctx.names:
            dv = V.ctx.degree_of(g)
            wdeg = dv - m
            if wdeg < 0:
                continue
            for i in range(W.dim(wdeg)):
                out.append((g, wdeg, i))
        return out

    # For each generator g: (v, e * c, phi(left), phi(right)) per block g^e
    # of a monomial c * left g right of dv, with left holding the other e - 1
    # copies of g (g is even when e > 1, so they move without a sign).
    slots = {g: [] for g in V.ctx.names}
    for v in V.ctx.names:
        for mono, c in V.d.image_terms(v).items():
            for j, e, left, right in monomial_blocks(mono):
                halves = [(monomial_degree(V.ctx, w), phi.apply_monomial(w)) for w in (left, right)]
                slots[V.ctx.names[j]].append((v, e * c, *halves))

    def d_matrix(m):
        """D: Der_m -> Der_{m-1} in the bases der_basis(m) -> der_basis(m-1)."""
        src = der_basis(m)
        tgt = der_basis(m - 1)
        tgt_pos = {(g, i): pos for pos, (g, _, i) in enumerate(tgt)}
        cols = []
        for (g, wdeg, i) in src:
            rows = [(1, {tgt_pos[(g, k)]: c for k, c in W.differential_column(wdeg, i).items()})]
            for v, c, (ldeg, lc), (rdeg, rc) in slots[g]:
                val = W.multiply_coords(ldeg + wdeg, W.multiply_coords(ldeg, lc, wdeg, {i: ONE}),
                                        rdeg, rc)
                sign = -1 if m % 2 == 0 or ldeg % 2 else 1
                rows.append((sign * c, {tgt_pos[(v, k)]: x for k, x in val.items()}))
            cols.append(lincomb(rows))
        return src, tgt, cols

    # dim H_n = nullity D_n - rank D_(n+1), as D^2 = 0 puts im D_(n+1) in ker D_n.
    src_n, tgt_n, cols_n = d_matrix(n)
    nullity = len(solve_linear(RationalMatrix(len(tgt_n), cols_n)).kernel)
    boundaries = Echelon()
    rank = sum(1 for col in d_matrix(n + 1)[2] if col and boundaries.add(col))
    contributing = sorted({(V.ctx.degree_of(g), wdeg) for (g, wdeg, _) in src_n})
    return MappingSpaceReport(n, nullity - rank, contributing)


# ---------------------------------------------------------------------------
# Poincare duality algebras and configuration spaces
# ---------------------------------------------------------------------------

class PDAlgebra:
    """FiniteCDGA with a verified nondegenerate top pairing.

    eps is the orientation functional on A^m given by coordinates and omega
    the class with eps(omega) = 1; dual bases a_i' with a_i a_j' =
    delta_ij omega are computed blockwise.
    """

    def __init__(self, cdga, m, eps=None, name=None):
        self.cdga = cdga
        self.m = m
        self.name = name or ("PD(%s)" % cdga.name)
        if cdga.dim(0) != 1:
            raise UnsupportedInputError("PD algebras must be connected (A^0 = Q)")
        if cdga.dim(m) != 1:
            raise UnsupportedInputError("A^%d must be one dimensional" % m)
        if eps is None:
            eps = {0: ONE}
        eps = {i: as_q(c) for i, c in eps.items()}
        self.eps = {i: c for i, c in eps.items() if c}
        if list(self.eps) != [0]:
            raise UnsupportedInputError("orientation must be supported on A^m")
        self._duals = {}
        self._verify()

    def eps_of(self, coords):
        return sum(self.eps.get(i, ZERO) * c for i, c in coords.items())

    def _verify(self):
        A = self.cdga
        for p in A.degrees():
            q = self.m - p
            if A.dim(q) != A.dim(p):
                raise UnsupportedInputError(
                    "pairing cannot be nondegenerate: dim A^%d != dim A^%d" % (p, q))
            # Column j of P is {i: eps(a_i c_j)}; the dual basis solves P X = I.
            npairs = A.dim(p)
            cols = [{i: e for i in range(npairs) if (e := self.eps_of(A.product(p, i, q, j)))}
                    for j in range(A.dim(q))]
            # Solve for each k the vector x with eps(a_i . sum_j x_j c_j) = delta_ik,
            # all k in one solve: each solution is canonical per target.
            mat = RationalMatrix(npairs, cols)
            sol = solve_linear(mat, targets=[{k: ONE} for k in range(npairs)])
            if None in sol.solutions:
                raise UnsupportedInputError("top pairing is degenerate in degree %d" % p)
            self._duals[p] = sol.solutions

    def dual_basis(self, p):
        """a_i' in A^{m-p} with a_i a_j' = delta_ij omega."""
        return [dict(v) for v in self._duals.get(p, [])]


def diagonal_class(A):
    """D_A = sum_i (-1)^(deg a_i) a_i (x) a_i' in (A (x) A)^m, a cycle.

    The sign makes (x (x) 1) D_A = (1 (x) x) D_A hold, which is what ideal
    stability of the configuration model needs.  Returns (tensor cdga,
    coordinates of D_A in degree m, structured terms).
    """
    T = tensor_finite(A.cdga, A.cdga)
    pos = tensor_positions(A.cdga, A.cdga)
    coords = {}
    terms = []
    for p in sorted(A.cdga.basis):
        q = A.m - p
        duals = A.dual_basis(p)
        for i in range(A.cdga.dim(p)):
            sign = -1 if p % 2 else 1
            for j, c in duals[i].items():
                coords[pos[(p, i, q, j)][1]] = sign * c
                terms.append((sign * c, (p, i), (q, j)))
    # Cycle check in (A (x) A, d).
    if lincomb((c, T.differential_column(A.m, i)) for i, c in coords.items()):
        raise RhtError("diagonal class is not a cycle")  # pragma: no cover
    return T, coords, terms


class ConfigSpaceModel:
    """F(A, k) for k >= 2, held as the QuotientCDGA `quotient` (k = 1 gives A.cdga itself)."""

    def __init__(self, quotient):
        self.quotient = quotient


def config_space_model(A, k, name=None, max_k=3):
    """Lambrechts-Stanley model F(A,k) = (A^{(x)k} (x) Lambda(x_ij)/I, d).

    deg x_ij = m - 1, d x_ij = p_ij(D_A); I is generated by the slotwise
    multiplication relations of A, the symmetry x_ij = (-1)^m x_ji (used to
    eliminate x_ji), the squares x_ij^2, the gluing relations
    (p_i(a) - p_j(a)) x_ij, and the Arnold relations for each triple.  The
    basis grows like k! dim(A)^k, so k > max_k (default 3) is refused.
    """
    if k < 1:
        raise DegreeError("k must be >= 1")
    if k == 1:
        return A.cdga
    if k > max_k:
        raise BudgetExceededError("k = %d exceeds the configured bound %d" % (k, max_k))
    if A.m < 2:
        raise UnsupportedInputError("configuration models need formal dimension >= 2")
    Acd = A.cdga
    m = A.m
    pos_basis = [(p, i) for p in sorted(Acd.basis) if p > 0
                 for i in range(Acd.dim(p))]
    gens = []
    slot_gen = {}
    for slot in range(1, k + 1):
        for (p, i) in pos_basis:
            gname = "g%d_%s" % (slot, _safe(Acd.label(p, i)))
            slot_gen[(slot, p, i)] = gname
            gens.append((gname, p))
    x_name = {}
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            gname = "x%d%d" % (i, j)
            x_name[(i, j)] = gname
            gens.append((gname, m - 1))
    ctx = GeneratorContext(gens)

    def slot_vec(slot, p, coords):
        """A-coordinates at degree p > 0 -> ambient element in slot `slot`."""
        return AlgElement(ctx, {generator_monomial(ctx.index[slot_gen[(slot, p, i)]]): c
                                for i, c in coords.items()})

    # Differential: slot copies follow d_A; x_ij maps to p_ij(D_A).
    d_imgs = {}
    for slot in range(1, k + 1):
        for (p, i) in pos_basis:
            col = Acd.differential_column(p, i)
            d_imgs[slot_gen[(slot, p, i)]] = slot_vec(slot, p + 1, col) if col \
                else AlgElement.zero(ctx)
    _, _, terms = diagonal_class(A)
    for (i, j), gname in x_name.items():
        parts = []
        for c, (p, ai), (q, aj) in terms:
            left = AlgElement.unit(ctx, ONE) if p == 0 else slot_vec(i, p, {ai: ONE})
            right = AlgElement.unit(ctx, ONE) if q == 0 else slot_vec(j, q, {aj: ONE})
            parts.append((c, (left * right).terms))
        d_imgs[gname] = AlgElement(ctx, lincomb(parts))
    ambient = SullivanPresentation(ctx, d_imgs, name="%s-ambient" % (name or "F"))

    ideal = []
    # Slotwise multiplication relations of A.
    for slot in range(1, k + 1):
        for (p, i) in pos_basis:
            for (q, j) in pos_basis:
                prod = Acd.product(p, i, q, j)
                rel = slot_vec(slot, p, {i: ONE}) * slot_vec(slot, q, {j: ONE})
                if p + q <= A.m:
                    rel = rel - slot_vec(slot, p + q, prod) if prod else rel
                if not rel.is_zero():
                    ideal.append(rel)
    # x_ij^2 (only needed when deg x is even).
    if (m - 1) % 2 == 0:
        for gname in x_name.values():
            x = ctx.generator(gname)
            ideal.append(x * x)
    # (p_i(a) - p_j(a)) x_ij.
    for (i, j), gname in x_name.items():
        x = ctx.generator(gname)
        for (p, s) in pos_basis:
            rel = (slot_vec(i, p, {s: ONE}) - slot_vec(j, p, {s: ONE})) * x
            if not rel.is_zero():
                ideal.append(rel)
    # Arnold relations x_ij x_jk + x_jk x_ki + x_ki x_ij, with x_ki rewritten
    # as (-1)^m x_ik.  (The consecutive-index cyclic form is the one the
    # differential stabilizes; stability is re-validated on every build.)
    sign = (-1) ** m
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            for l in range(j + 1, k + 1):
                xij = ctx.generator(x_name[(i, j)])
                xik = ctx.generator(x_name[(i, l)])
                xjk = ctx.generator(x_name[(j, l)])
                rel = xij * xjk + (xjk * xik).scale(sign) + (xik * xij).scale(sign)
                if not rel.is_zero():
                    ideal.append(rel)
    quot = QuotientCDGA(ambient, ideal, name=name or ("F(%s,%d)" % (A.name, k)))
    return ConfigSpaceModel(quot)


def _safe(label):
    out = []
    for ch in label:
        out.append(ch if ch.isalnum() else "_")
    return "".join(out)


# ---------------------------------------------------------------------------
# Subspace arrangements and the subset complex (D, d)
# ---------------------------------------------------------------------------

class SubspaceArrangement:
    """Finite list of rational linear subspaces of Q^n (complexified grading).

    Subspaces are given by equation matrices (rows of linear forms); the
    intersection lattice caches codim(cap sigma) = rank of the stacked
    equations for every subset sigma.
    """

    def __init__(self, ambient_dim, subspaces, name="arrangement"):
        self.n = ambient_dim
        self.name = name
        self.subspaces = []
        for rows in subspaces:
            mat = [tuple(Fraction(x) for x in row) for row in rows]
            for row in mat:
                if len(row) != ambient_dim:
                    raise DegreeError("equation rows must have %d entries" % ambient_dim)
            self.subspaces.append(mat)
        self._codim = {}
        for idx, mat in enumerate(self.subspaces):
            c = self.codim(frozenset([idx]))
            if c == 0:
                raise DegreeError("subspace %d is the whole space" % idx)

    def __len__(self):
        return len(self.subspaces)

    def _span(self, sigma):
        """Echelon of the stacked equations of the subspaces in sigma."""
        ech = Echelon()
        for i in sorted(sigma):
            for row in self.subspaces[i]:
                ech.add({c: v for c, v in enumerate(row) if v != 0})
        return ech

    def codim(self, sigma):
        sigma = frozenset(sigma)
        if sigma not in self._codim:
            self._codim[sigma] = self._span(sigma).dim
        return self._codim[sigma]

    def intersection_lattice(self):
        """Distinct intersections: list of (codim, minimal subsets mapping there)."""
        spaces = {}
        for r in range(len(self.subspaces) + 1):
            for sigma in combinations(range(len(self.subspaces)), r):
                ech = self._span(sigma)
                key = tuple(sorted((pc, tuple(sorted(r_.items()))) for pc, r_ in ech.rows))
                spaces.setdefault(key, {"codim": ech.dim, "subsets": []})
                spaces[key]["subsets"].append(sigma)
        return sorted(((v["codim"], v["subsets"]) for v in spaces.values()),
                      key=lambda t: (t[0], t[1]))


def arrangement_complex(arr, name=None):
    """Feichtner-Yuzvinsky complex (D, d) of a subspace arrangement.

    Basis: subsets sigma, graded by 2 codim(cap sigma) - |sigma|.  The
    differential removes the i-th element (position counted from 1) with
    sign (-1)^i whenever the intersection is unchanged; the product merges
    disjoint subsets with the shuffle sign when codimensions add, else 0.
    A subset is read as the bitmask sum 2^i over its elements, so one lookup
    `bits[mask]` gives its codimension and basis key: disjointness is
    m1 & m2 == 0, the union m1 | m2 and the shuffle sign the parity of the
    elements of s2 below each element of s1.
    """
    n = len(arr)
    subsets = [s for r in range(n + 1) for s in combinations(range(n), r)]
    basis, bits = {}, {}
    for sigma in subsets:
        c = arr.codim(sigma)
        k = 2 * c - len(sigma)
        labels = basis.setdefault(k, [])
        bits[sum(1 << i for i in sigma)] = c, (k, len(labels))
        labels.append("{%s}" % ",".join(str(i + 1) for i in sigma))
    if bits[0][1] != (0, 0):
        # force the empty subset to be the unit at position (0, 0)
        raise RhtError("unit ordering failed")  # pragma: no cover
    rows = list(zip(subsets, bits.items()))     # subset order, which is the dict's order

    diff = {}
    for sigma, (mask, (c, (k, idx))) in rows:
        col = {}
        for pos, i in enumerate(sigma, start=1):
            ct, (kt, it) = bits[mask ^ (1 << i)]
            if ct == c:
                if kt != k + 1:
                    raise RhtError("differential is not of degree +1")  # pragma: no cover
                col[it] = Fraction((-1) ** pos)
        if col:
            diff[(k, idx)] = col

    mul = {}
    for s1, (m1, (c1, key1)) in rows:
        below = [(1 << a) - 1 for a in s1]
        for m2, (c2, key2) in bits.items():
            if m1 & m2:
                continue
            cu, (_, iu) = bits[m1 | m2]
            if c1 + c2 == cu:
                inv = sum(bin(m2 & low).count("1") for low in below)
                mul[(key1, key2)] = {iu: Fraction((-1) ** inv)}
    return FiniteCDGA(basis, diff, mul, name=name or arr.name,
                      h0_is_unit_span=False)
