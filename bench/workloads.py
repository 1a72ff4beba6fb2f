"""The four benchmark workloads and their independent oracles.

A workload object is built from a seed; building it is the benchmark's
set-up (input construction).  The seed only changes the generated inputs,
never the answer an oracle expects, and never the amount of work.
`tasks(pass_no)` returns the commands of one pass.  Each `Task` has a
`compute` (the timed call into `rht`), a `check` that compares the result
with an oracle computed here without `rht`, and `ops`, the number of
checked operations it yields.  `check` returns the failures (one message
per failed operation) and a canonical text of the outputs, which lets the
runner compare passes and traced with untraced runs.
"""

import contextlib
import io
import json
import math
import os
import random
from fractions import Fraction
from itertools import combinations

# Calls go through the module attributes (rht.cdga.validate, not a local
# name), so the tracer's rebinding of those attributes sees them.
import rht.cdga
import rht.cli
import rht.constructions
import rht.homotopy_lie
import rht.invariants
import rht.minimal_model
from rht.algebra import AlgElement, GeneratorContext
from rht.cdga import CdgaMorphism, FiniteCDGA, SullivanPresentation
from rht.constructions import PDAlgebra, SubspaceArrangement

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


class Task:
    def __init__(self, name, compute, check, ops=1):
        self.name = name
        self.compute = compute
        self.check = check
        self.ops = ops


def _expect(failures, ok, message):
    if not ok:
        failures.append(message)


# ---------------------------------------------------------------------------
# Oracles: plain integer and Fraction arithmetic, no rht code.
# ---------------------------------------------------------------------------

def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_coefficients(factors, top):
    """Coefficients 0..top of a product of polynomials given as coefficient lists."""
    out = [1]
    for f in factors:
        out = poly_mul(out, f)
    return [out[k] if k < len(out) else 0 for k in range(top + 1)]


def wedge_s2_ranks(top):
    """dim V^k, 2 <= k <= top, of the minimal model of S^2 v S^2.

    H_*(Omega(S^2 v S^2)) is the tensor algebra on two degree-1 classes, of
    dimension 2^k in degree k.  By PBW it is generated, as a coalgebra, by
    the homotopy Lie algebra with dim L_k = rank V^{k+1}; peel off one degree
    at a time: odd L_k contributes (1 + t^k)^dim, even L_k (1 - t^k)^-dim.
    """
    series = [1] + [0] * (top - 1)          # degrees 0 .. top-1
    ranks = {}
    for k in range(1, top):
        need = 2 ** k - series[k]
        ranks[k + 1] = need
        factor = [0] * top
        for m in range(0, (top - 1) // k + 1):
            factor[k * m] = math.comb(need, m) if k % 2 else math.comb(need + m - 1, m)
        series = poly_mul(series, factor)[:top]
    return ranks


def rank_of(vectors):
    """Rank over Q of sparse {index: Fraction} vectors (plain Gaussian elimination)."""
    rows = []                                # (pivot, row) with row[pivot] == 1
    for vec in vectors:
        v = {i: Fraction(c) for i, c in vec.items() if c}
        for pivot, row in rows:
            c = v.get(pivot)
            if c:
                for i, x in row.items():
                    v[i] = v.get(i, 0) - c * x
                    if not v[i]:
                        del v[i]
        if v:
            pivot = min(v)
            inv = 1 / v[pivot]
            rows.append((pivot, {i: x * inv for i, x in v.items()}))
    return len(rows)


def exterior_algebra(labels, name):
    """H(T^n) = Lambda(t_1..t_n), degree-1 generators listed in the given order."""
    n = len(labels)
    basis, index = {}, {}
    for k in range(n + 1):
        basis[k] = []
        for subset in combinations(range(n), k):
            index[subset] = (k, len(basis[k]))
            basis[k].append("*".join(labels[i] for i in subset) or "1")
    mul = {}
    for s in index:
        for t in index:
            if set(s) & set(t):
                continue
            inversions = sum(1 for a in s for b in t if a > b)
            k, i = index[tuple(sorted(s + t))]
            mul[(index[s], index[t])] = {i: Fraction((-1) ** inversions)}
    return FiniteCDGA(basis, {}, mul, name=name)


def sphere_cohomology(m):
    """H(S^m) with m >= 2: unit and one top class."""
    mul = {((0, 0), (0, 0)): {0: 1}, ((0, 0), (m, 0)): {0: 1}, ((m, 0), (0, 0)): {0: 1}}
    return FiniteCDGA({0: ["1"], m: ["s%d" % m]}, {}, mul, name="H(S%d)" % m)


# ---------------------------------------------------------------------------
# model_pipeline
# ---------------------------------------------------------------------------

class ModelPipeline:
    """minimal_model(H(S^2 v S^2), 10), quasi-iso checks, Lie table, trichotomy."""

    N = 10

    def __init__(self, seed):
        rng = random.Random(seed)
        # All products on H^+ vanish, so any invertible change of basis of H^2
        # is an automorphism of H; composing phi with it gives a second
        # quasi-isomorphism to re-verify.  The seed picks it.
        while True:
            u = [[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)]
            if abs(u[0][0] * u[1][1] - u[0][1] * u[1][0]) == 1 and u[0][1] and u[1][0]:
                break
        self.change = u
        mul = {((0, 0), (0, 0)): {0: 1}}
        for i in range(2):
            mul[((0, 0), (2, i))] = {i: 1}
            mul[((2, i), (0, 0))] = {i: 1}
        self.H = FiniteCDGA({0: ["1"], 2: ["a", "b"]}, {}, mul, name="H(S2vS2)")
        self.ranks = wedge_s2_ranks(self.N)
        self.h_dims = {k: {0: 1, 2: 2}.get(k, 0) for k in range(self.N + 1)}

    def tasks(self, pass_no):
        return [
            Task("minimal_model", self.run_model, self.check_model),
            Task("is_quasi_iso", self.run_quasi_iso, self.check_quasi_iso),
            Task("is_quasi_iso_changed_basis", self.run_changed, self.check_quasi_iso),
            Task("lie_table", self.run_lie, self.check_lie),
            Task("trichotomy_report", self.run_trichotomy, self.check_trichotomy),
        ]

    def run_model(self):
        self.mm = rht.minimal_model.minimal_model(self.H, self.N)
        return self.mm

    def check_model(self, mm):
        failures = []
        got = mm.ranks()
        for k in range(2, self.N + 1):
            _expect(failures, got.get(k) == self.ranks[k],
                    "rank V^%d = %s, PBW oracle says %d" % (k, got.get(k), self.ranks[k]))
        text = repr((mm.model.ctx.gens, sorted((g, repr(v)) for g, v in mm.model.d.images.items()),
                     sorted((g, sorted(c.items())) for g, c in mm.phi.images.items())))
        return failures[:1], text

    def run_quasi_iso(self):
        return rht.cdga.is_quasi_iso(self.mm.phi, self.N)

    def run_changed(self):
        images = {}
        for g, coords in self.mm.phi.images.items():
            if self.mm.model.ctx.degree_of(g) == 2:
                images[g] = {i: sum(self.change[i][j] * coords.get(j, 0) for j in range(2))
                             for i in range(2)}
            else:
                images[g] = coords
        phi = CdgaMorphism(self.mm.model, self.H, images, name="phi_U")
        return rht.cdga.is_quasi_iso(phi, self.N)

    def check_quasi_iso(self, result):
        ok, witness = result
        want = {k: (d, d, d) for k, d in self.h_dims.items()}
        good = ok and witness == want
        return ([] if good else ["quasi-iso witness %r, expected %r" % (witness, want)]), repr(result)

    def run_lie(self):
        return rht.homotopy_lie.lie_table(rht.homotopy_lie.quadratic_part(self.mm.model), self.N - 1)

    def check_lie(self, table):
        dims = table.dims()
        want = {k - 1: r for k, r in self.ranks.items() if r}
        good = dims == want
        text = repr((dims, sorted((k, sorted(v.items())) for k, v in table.brackets.items())))
        return ([] if good else ["Lie dims %r, expected %r" % (dims, want)]), text

    def run_trichotomy(self):
        return rht.invariants.trichotomy_report(self.mm)

    def check_trichotomy(self, report):
        good = report.tag == "hyperbolic-evidence"
        return ([] if good else ["tag %r" % report.tag]), repr((report.tag, report.chi_pi, report.ranks))


# ---------------------------------------------------------------------------
# finite_ring
# ---------------------------------------------------------------------------

class FiniteRing:
    """cohomology_algebra(T^7, 7), validate(H(T^6)), tc_cup_length(H(T^4))."""

    def __init__(self, seed):
        rng = random.Random(seed)
        names = ["t%d" % (i + 1) for i in range(7)]
        rng.shuffle(names)
        ctx = GeneratorContext([(g, 1) for g in names])
        self.torus = SullivanPresentation(ctx, {g: AlgElement.zero(ctx) for g in names}, name="T7")
        self.h6 = exterior_algebra(rng.sample(["t%d" % (i + 1) for i in range(6)], 6), "H(T6)")
        self.h4 = exterior_algebra(rng.sample(["t%d" % (i + 1) for i in range(4)], 4), "H(T4)")

    def tasks(self, pass_no):
        return [
            Task("cohomology_algebra", lambda: rht.cdga.cohomology_algebra(self.torus, 7), self.check_ring),
            Task("validate", lambda: rht.cdga.validate(self.h6), self.check_valid),
            Task("tc_cup_length", lambda: rht.invariants.tc_cup_length(self.h4), self.check_tc),
        ]

    def check_ring(self, A):
        failures = []
        dims = {k: A.dim(k) for k in range(8)}
        _expect(failures, all(dims[k] == math.comb(7, k) for k in range(8)),
                "Betti numbers %r are not binom(7, k)" % dims)
        _expect(failures, A.window_certified, "H^{>7} = 0 is not certified")
        # Exterior structure: H^1 x H^1 -> H^2 is onto (49 products span 21 dims).
        products = [A.mul.get(((1, i), (1, j)), {}) for i in range(7) for j in range(7)]
        _expect(failures, rank_of(products) == 21, "H^1 . H^1 does not span H^2")
        text = repr((dims, sorted((k, sorted(v.items())) for k, v in A.mul.items())))
        return failures[:1], text

    def check_valid(self, report):
        return ([] if report.ok else ["H(T6) invalid: %s" % report.violations[:3]]), repr(report.ok)

    def check_tc(self, value):
        return ([] if value == 4 else ["TC cup length %r, expected 4" % value]), repr(value)


# ---------------------------------------------------------------------------
# quotient_config
# ---------------------------------------------------------------------------

# Arrangement sizes cycle through this pattern, so every seed does the same
# amount of work (validation is cubic in the 2^n subsets).
ARRANGEMENT_SIZES = (1, 2, 3, 3)
ARRANGEMENTS = 200


def random_arrangement(rng, n_sub):
    dim = rng.choice([2, 3, 4])
    subspaces = []
    while len(subspaces) < n_sub:
        rows = [[rng.randint(-2, 2) for _ in range(dim)] for _ in range(rng.randint(1, 2))]
        rows = [r for r in rows if any(r)]
        if rows:
            subspaces.append(rows)
    return SubspaceArrangement(dim, subspaces)


class QuotientConfig:
    """Cohomology of F(H(S^3),4) and F(H(S^2),4); a batch of arrangement complexes."""

    def __init__(self, seed):
        rng = random.Random(seed)
        # The orientation of the PD algebra is any nonzero multiple of the top
        # class; the seed picks it, which rescales the diagonal class.
        self.pd3 = PDAlgebra(sphere_cohomology(3), 3, eps={0: rng.choice([1, 2, 3, -1, -2])})
        self.pd2 = PDAlgebra(sphere_cohomology(2), 2, eps={0: rng.choice([1, 2, 3, -1, -2])})
        self.arrangements = [random_arrangement(rng, ARRANGEMENT_SIZES[i % len(ARRANGEMENT_SIZES)])
                             for i in range(ARRANGEMENTS)]
        # F(S^3,4) ~ S^3 x F(R^3,3);  F(S^2,4) ~ PSL_2(C) x (S^2 minus 3 points).
        self.f3 = poly_coefficients([[1, 0, 0, 1], [1, 0, 1], [1, 0, 2]], 12)
        self.f2 = poly_coefficients([[1, 0, 0, 1], [1, 2]], 10)

    def tasks(self, pass_no):
        return [
            Task("config_S3_4", lambda: self.config(self.pd3, 12), lambda d: self.check_config(d, self.f3)),
            Task("config_S2_4", lambda: self.config(self.pd2, 10), lambda d: self.check_config(d, self.f2)),
            Task("arrangements", self.run_arrangements, self.check_arrangements, ops=ARRANGEMENTS),
        ]

    @staticmethod
    def config(pd, top):
        model = rht.constructions.config_space_model(pd, 4, max_k=4)
        return rht.cdga.cohomology(model.quotient, 0, top).dims()

    @staticmethod
    def check_config(dims, want):
        got = [dims.get(k) for k in range(len(want))]
        return ([] if got == want else ["Betti numbers %r, expected %r" % (got, want)]), repr(sorted(dims.items()))

    def run_arrangements(self):
        out = []
        for arr in self.arrangements:
            try:
                D = rht.constructions.arrangement_complex(arr)
                out.append((D, rht.cdga.validate(D).ok))
            except Exception as exc:       # one bad arrangement must not hide the rest
                out.append((None, "%s: %s" % (type(exc).__name__, exc)))
        return out

    @staticmethod
    def check_arrangements(results):
        failures, text = [], []
        for n, (D, ok) in enumerate(results):
            if D is None:
                failures.append("arrangement %d raised %s" % (n, ok))
                continue
            dd_zero = True
            for (k, i), col in D.diff.items():
                dd = {}
                for j, c in col.items():
                    for l, c2 in D.diff.get((k + 1, j), {}).items():
                        dd[l] = dd.get(l, 0) + c * c2
                dd_zero = dd_zero and not any(dd.values())
            if not dd_zero:
                failures.append("arrangement %d: d^2 != 0" % n)
            elif ok is not True:
                failures.append("arrangement %d: validation failed" % n)
            text.append(repr((sorted((k, len(v)) for k, v in D.basis.items()), ok)))
        return failures, "\n".join(text)


# ---------------------------------------------------------------------------
# cli_battery
# ---------------------------------------------------------------------------

class CliBattery:
    """The 20-command CLI battery, in-process, against golden outputs."""

    def __init__(self, seed):
        self.seed = seed
        catalog = os.path.join(DATA, "catalog.rht")
        with open(os.path.join(DATA, "cli_golden.json"), encoding="utf-8") as fh:
            golden = json.load(fh)
        self.commands = []
        for entry in golden["commands"]:
            argv = [catalog if a == "{catalog}" else a for a in entry["argv"]]
            self.commands.append((argv, entry))

    def tasks(self, pass_no):
        order = list(range(len(self.commands)))
        random.Random(self.seed * 1000003 + pass_no).shuffle(order)
        return [Task("cmd%02d_%s" % (i, self.commands[i][1]["argv"][0]),
                     lambda i=i: self.run(i), lambda r, i=i: self.check(r, i)) for i in order]

    def run(self, i):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = rht.cli.main(list(self.commands[i][0]))
            except SystemExit as exc:       # argparse exits on bad arguments
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    def check(self, result, i):
        code, out, err = result
        entry = self.commands[i][1]
        good = (code, out, err) == (entry["exit"], entry["stdout"], entry["stderr"])
        return ([] if good else ["%s: output differs from the golden" % " ".join(entry["argv"])]), out


WORKLOADS = {
    "model_pipeline": ModelPipeline,
    "finite_ring": FiniteRing,
    "quotient_config": QuotientConfig,
    "cli_battery": CliBattery,
}
