"""Minimal Sullivan models, Lambda-extensions, and acyclic closures.

The model of a cdga A with H^0(A) = Q and H^1(A) = 0 is built degree by
degree.  At stage n the partial morphism phi: (Lambda V^{<=n-1}, d) -> A has
H^{<=n-1}(phi) iso and H^n(phi) injective; the stage adjoins, in one
extension, cocycle generators spanning coker H^n(phi) and degree-n generators
whose differentials kill ker H^{n+1}(phi).  Representatives are the canonical
answers of the exact solver (RREF kernel vectors, solutions that vanish on
free columns) under the fixed monomial order, so the output is determined by
the input alone.
"""

from .algebra import (AlgElement, GeneratorContext, ONE, monomial_factors, monomial_word_length,
                      substitute)
from .cdga import (CdgaMorphism, SullivanPresentation, ValidationReport, cohomology,
                   induced_classes, validate)
from .errors import DegreeError, RhtError, UnsupportedInputError
from .linalg import Echelon, RationalMatrix, lincomb, solve_linear


def is_minimal(p):
    """True iff d(V) lies in Lambda^{>=2} V (no image has a term of word length 0 or 1)."""
    return all(monomial_word_length(m) >= 2 for g in p.ctx.names for m in p.d.image_terms(g))


def require_minimal(p, what):
    """Refuse p unless it is minimal: `what` names the computation that needs it."""
    if not is_minimal(p):
        raise UnsupportedInputError("%s requires a minimal presentation" % what)


class SullivanCertificate:
    """Greedy filtration V(0) subset V(1) subset ... exhibiting the Sullivan condition."""

    def __init__(self, stages, stuck):
        self.stages = stages    # list of lists of generator names
        self.stuck = stuck      # generator names that could not be filtered

    @property
    def ok(self):
        return not self.stuck

    def __repr__(self):
        if self.ok:
            return "SullivanCertificate(%s)" % "; ".join(
                "V(%d)=%s" % (r, ",".join(s)) for r, s in enumerate(self.stages))
        return "SullivanCertificate(stuck on %s)" % ",".join(sorted(self.stuck))


def _generation_stages(p, known, remaining):
    """Greedy stages of generator indices whose differentials involve only
    generators of earlier stages (or `known`); returns (stages, stuck)."""
    known, remaining = set(known), set(remaining)
    stages = []
    while remaining:
        stage = [i for i in sorted(remaining) if known.issuperset(
            j for mono in p.d.image_terms(p.ctx.names[i]) for j in monomial_factors(mono))]
        if not stage:
            break
        known.update(stage)
        remaining.difference_update(stage)
        stages.append(stage)
    return stages, remaining


def is_sullivan(p):
    """Greedy construction of the generation filtration; exact on failure."""
    stages, stuck = _generation_stages(p, (), range(len(p.ctx)))
    names = p.ctx.names
    return SullivanCertificate([[names[i] for i in stage] for stage in stages],
                               [names[i] for i in sorted(stuck)])


class MinimalModelResult:
    """Minimal model with its quasi-isomorphism and provenance bookkeeping."""

    def __init__(self, model, phi, certified_degree, provenance, target):
        self.model = model
        self.phi = phi
        self.certified_degree = certified_degree
        self.provenance = provenance    # name -> ("cocycle" | "kernel", stage)
        self.target = target

    def ranks(self):
        """dim V^k for 2 <= k <= certified_degree (Theorem: = rk_k of the space)."""
        return self.model.ctx.ranks(range(2, self.certified_degree + 1))

    def __repr__(self):
        return "MinimalModelResult(%s, certified to %d)" % (self.model, self.certified_degree)


def minimal_model(A, n=16, name=None):
    """Minimal Sullivan model of A with H(phi) iso up to n, injective at n+1.

    Stage s adjoins all of V^s in one `extend` (Felix-Halperin-Thomas, Rational
    Homotopy Theory, section 14): cocycles v spanning coker H^s(phi), and
    generators w with dw = z for z spanning ker H^(s+1)(phi).  Both steps read
    the model as it was before the stage.  As V^1 = 0, a degree-s generator
    occurs in no monomial of degree s + 1, so the v's change neither H^(s+1)
    of the partial model, nor its representatives, nor the classes they
    induce in H(A), nor the `primitives` targets phi(z); and the w's change no
    degree-(s+1) cocycle, while their boundaries z map to 0 in H(A).  So the
    classes that the kernel step induces span im H^(s+1)(phi) for the next
    stage's cocycle step (at stage 2 it is H^2(Q) = 0), one `primitives` solve
    (canonical per target) finds every phi(w), and the stages are one `extend`
    chain with one `CdgaMorphism` per link, each column computed once.
    """
    validate(A).raise_if_invalid()
    tgt_rep = cohomology(A, 0, max(n + 1, 1))
    if tgt_rep.dim(0) != 1:
        raise UnsupportedInputError("minimal models require H^0 = Q, got dim %d" % tgt_rep.dim(0))
    if tgt_rep.dim(1) != 0:
        raise UnsupportedInputError(
            "minimal models of presentations with H^1 != 0 are not supported "
            "(supply a finite V^1 model directly for pi_1 features)")

    model = SullivanPresentation(GeneratorContext([]), {},
                                 name=name or ("M(%s)" % getattr(A, "name", "A")))
    phi_imgs = {}        # name -> target coordinate dict
    provenance = {}
    phi = CdgaMorphism(model, A, {}, name="phi")
    cols = []            # classes spanning im H^stage(phi), from the last kernel step

    for stage in range(2, n + 1):
        # --- cocycle generators: span coker H^stage(phi) -------------------
        image = Echelon()
        for cls in cols:
            image.add(cls)
        new = {}
        for i, t_rep in enumerate(tgt_rep.representatives(stage)):
            if not image.add({i: ONE}):
                continue
            gname = "v%d_%d" % (stage, len(new))
            new[gname] = AlgElement.zero(model.ctx)
            phi_imgs[gname] = t_rep
            provenance[gname] = ("cocycle", stage)

        # --- kernel-killing generators: ker H^{stage+1}(phi) ---------------
        src_rep = cohomology(model, stage + 1, stage + 1)
        reps = src_rep.representatives(stage + 1)
        cols = induced_classes(phi, src_rep, tgt_rep, stage + 1)
        ker = solve_linear(RationalMatrix(tgt_rep.dim(stage + 1), cols)).kernel
        cycles = [lincomb((c, reps[i]) for i, c in kvec.items()) for kvec in ker]
        sols = cycles and primitives(A, stage, [phi.apply_coords(stage + 1, z) for z in cycles],
                                     range(A.dim(stage)))
        if None in sols:
            raise RhtError("kernel class is not exact in the target")  # pragma: no cover
        for j, (z_coords, s) in enumerate(zip(cycles, sols)):
            gname = "w%d_%d" % (stage, j)
            new[gname] = model.from_coords(stage + 1, z_coords)
            phi_imgs[gname] = s
            provenance[gname] = ("kernel", stage)

        if new:
            model = model.extend([(g, stage) for g in new], new)
            phi = CdgaMorphism(model, A, dict(phi_imgs), name="phi")

    return MinimalModelResult(model, phi, n, provenance, A)


# ---------------------------------------------------------------------------
# Lambda-extensions
# ---------------------------------------------------------------------------

class LambdaExtension:
    """Relative Sullivan algebra (Lambda W (x) Lambda Z, d) with filtered Z.

    `total` is a presentation whose context starts with the base generators
    (names in `base_names`) followed by the fiber generators.  Validation
    checks that the base is a sub-cdga and constructs the nilpotence
    filtration Z(0) subset Z(1) subset ... greedily; failure to exhaust Z is
    a violation.
    """

    def __init__(self, total, base_names, name="extension"):
        self.total = total
        self.base_names = list(base_names)
        self.name = name
        base_set = set(self.base_names)
        unknown = [g for g in self.base_names if g not in total.ctx.index]
        if unknown:
            raise DegreeError("base generator %s is not in %s" % (unknown[0], total.name))
        for i, gname in enumerate(total.ctx.names):
            if gname in base_set and i >= len(self.base_names):
                raise DegreeError("base generators must come first in the total context")
        self.fiber_names = [g for g in total.ctx.names if g not in base_set]
        self.filtration = self._filter()

    def _filter(self):
        ctx = self.total.ctx
        stages, stuck = _generation_stages(self.total, [ctx.index[g] for g in self.base_names],
                                           [ctx.index[g] for g in self.fiber_names])
        if stuck:
            return None
        return {ctx.names[i]: level for level, stage in enumerate(stages, 1) for i in stage}

    def _escapes(self):
        """The base generators whose differential leaves the base algebra."""
        base_idx = {self.total.ctx.index[g] for g in self.base_names}
        return [g for g in self.base_names
                if any(j not in base_idx for mono in self.total.d.image_terms(g)
                       for j in monomial_factors(mono))]

    def validate(self):
        violations = list(validate(self.total).violations)
        violations += ["d(%s) leaves the base algebra" % g for g in self._escapes()]
        if self.filtration is None:
            violations.append("fiber generators admit no nilpotence filtration")
        return ValidationReport(self.name, violations)

    def _restriction(self, names, part):
        """The generators `names` and d, with every other generator sent to 0."""
        ctx = self.total.ctx
        sub = GeneratorContext([(g, ctx.degree_of(g)) for g in names])
        kill = {g: sub.generator(g) if g in sub.index else AlgElement.zero(sub)
                for g in ctx.names}
        images = {g: substitute(self.total.d.image_of(g), kill, sub) for g in names}
        return SullivanPresentation(sub, images, name="%s|%s" % (self.name, part))

    def base_presentation(self):
        escapes = self._escapes()
        if escapes:
            raise DegreeError("d(%s) leaves the base algebra" % escapes[0])
        return self._restriction(self.base_names, "base")

    def fiber_presentation(self):
        """(Lambda Z, d-bar): the total differential with base terms deleted."""
        return self._restriction(self.fiber_names, "fiber")

    def __repr__(self):
        return "LambdaExtension(%s; base %s; fiber %s)" % (
            self.name, ",".join(self.base_names), ",".join(self.fiber_names))


def pushout_extension(phi, ext, name=None):
    """Pull a Lambda-extension back along a Sullivan representative.

    phi: base(ext) -> (Lambda V, d) a morphism of free presentations; the new
    total is (Lambda V (x) Lambda Z, d') with d'(z) = (phi (x) id)(dz) and the
    fiber unchanged.
    """
    escapes = ext._escapes()
    if escapes:
        raise DegreeError("d(%s) leaves the base algebra" % escapes[0])
    if set(phi.source.ctx.names) != set(ext.base_names):
        raise DegreeError("morphism source must be the extension base")
    new_base = phi.target
    fiber_gens = [(g, ext.total.ctx.degree_of(g)) for g in ext.fiber_names]
    for g, _ in fiber_gens:
        if g in new_base.ctx.index:
            raise DegreeError("fiber generator %s collides with the new base" % g)
    ctx = new_base.ctx.extend(fiber_gens)
    assign = {g: AlgElement(ctx, phi.apply_element(phi.source.ctx.generator(g)).terms)
              if g in ext.base_names else ctx.generator(g) for g in ext.total.ctx.names}
    total = new_base.extend(fiber_gens, {g: substitute(ext.total.d.image_of(g), assign, ctx)
                                         for g in ext.fiber_names},
                            name=name or ("%s^*%s" % (phi.name, ext.name)))
    out = LambdaExtension(total, list(new_base.ctx.names), name=total.name)
    if out.filtration is None:
        raise RhtError("pullback destroyed the nilpotence filtration")  # pragma: no cover
    return out


# ---------------------------------------------------------------------------
# Acyclic closures
# ---------------------------------------------------------------------------

class AcyclicClosure:
    """(Lambda V (x) Lambda U, d) with H^+ = 0 and pairing alpha: U -> V."""

    def __init__(self, extension, pairing, verified_degree):
        self.extension = extension
        self.total = extension.total
        self.pairing = pairing            # u name -> v name, deg v = deg u + 1
        self.verified_degree = verified_degree

    def __repr__(self):
        return "AcyclicClosure(%s; verified to %d)" % (self.total.name, self.verified_degree)


def acyclic_closure(p, n):
    """Acyclic closure of a minimal Sullivan presentation with V = V^{>=2}.

    For each generator v a fiber generator u with deg u = deg v - 1 is
    adjoined, d(u) = v - s where s solves d(s) = d(v) inside the ideal
    generated by V (word length >= 2, at least one V factor).  The quotient
    differential on Lambda U vanishes by construction; H^{1..n} of the total
    algebra is verified to be zero.

    The u of one degree come from one presentation and one `primitives` solve,
    as one at a time would give them: a degree-k candidate has a V factor of
    degree >= 2, so no factor of degree k - 1, where the batch's u live;
    contexts only append generators, so candidates, columns and targets are
    the same vectors; and each solution is canonical per target.  The
    presentations are one chain of `extend` calls from a copy of p, so the
    final check of H^{1..n} reads the columns the solves computed.
    """
    require_minimal(p, "acyclic closure")
    if any(d < 2 for d in p.ctx.degrees):
        raise UnsupportedInputError("acyclic closure requires V = V^{>=2} "
                                    "(V^1 would force U^0 != 0)")
    v_names = sorted(p.ctx.names, key=lambda g: (p.ctx.degree_of(g), p.ctx.index[g]))
    clash = [v + "_bar" for v in v_names if v + "_bar" in p.ctx.index]
    if clash:
        raise DegreeError("generator name %s collides with the closure naming" % clash[0])
    total = p.extend([], {}, name="%s-closure" % p.name)
    pairing = {}
    for vdeg in sorted(set(p.ctx.degrees)):
        batch = [v for v in v_names if p.ctx.degree_of(v) == vdeg]
        # s in V ^ Lambda^+(V + U): word length >= 2, and V comes first in normal order
        sols = primitives(total, vdeg,
                          [total.to_coords(total.d.image_of(v), vdeg + 1) for v in batch],
                          [pos for pos, mono in enumerate(total.basis(vdeg))
                           if monomial_word_length(mono) >= 2
                           and monomial_factors(mono)[0] < len(p.ctx)])
        if None in sols:
            raise RhtError("no primitive in the V-ideal; closure construction failed")
        total = total.extend([(v + "_bar", vdeg - 1) for v in batch],
                             {v + "_bar": total.generator(v) - total.from_coords(vdeg, s)
                              for v, s in zip(batch, sols)})
        pairing.update((v + "_bar", v) for v in batch)
    ext = LambdaExtension(total, list(p.ctx.names), name=total.name)
    rep = cohomology(total, 0, n)
    for k in range(1, n + 1):
        if rep.dim(k) != 0:
            raise RhtError("acyclic closure failed: H^%d != 0" % k)  # pragma: no cover
    fib = ext.fiber_presentation()
    for g in fib.ctx.names:
        if not fib.d.image_of(g).is_zero():
            raise RhtError("quotient differential on Lambda U is nonzero")  # pragma: no cover
    return AcyclicClosure(ext, pairing, n)


def primitives(pres, deg, targets, candidates):
    """One `solve_linear` for d(s) = t, s in the span of the degree-`deg` basis
    vectors indexed by the sequence `candidates`, per coordinate target t at
    degree deg + 1: the canonical s as {basis index: Fraction} (0 on every
    free column, whatever the other targets), or None when there is none."""
    cols = [pres.differential_column(deg, i) for i in candidates]
    sol = solve_linear(RationalMatrix(pres.dim(deg + 1), cols), targets=targets)
    return [None if s is None else {candidates[i]: c for i, c in s.items()}
            for s in sol.solutions]
