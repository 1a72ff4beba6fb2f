"""Shared model builders used across the suite."""

from fractions import Fraction
from itertools import product as iproduct

import pytest
from hypothesis import strategies as st

from rht.algebra import AlgElement, GeneratorContext
from rht.cdga import CohomologyReport, FiniteCDGA, SullivanPresentation, cohomology_algebra


def sphere2_model():
    ctx = GeneratorContext([("a", 2), ("b", 3)])
    a = ctx.generator("a")
    return SullivanPresentation(ctx, {"a": AlgElement.zero(ctx), "b": a * a},
                                name="S2")


def nonformal_uvw():
    """The degree-1 example with du = dv = 0, dw = uv."""
    ctx = GeneratorContext([("u", 1), ("v", 1), ("w", 1)])
    u, v = ctx.generator("u"), ctx.generator("v")
    zero = AlgElement.zero(ctx)
    return SullivanPresentation(ctx, {"u": zero, "v": zero, "w": u * v},
                                name="uvw")


def wedge_two_s2_cohomology():
    """H of a wedge of two 2-spheres: two degree-2 classes, all products zero."""
    from rht.constructions import sphere, wedge_cohomology
    h = cohomology_algebra(sphere(2), 2, name="H(S2)")
    return wedge_cohomology(h, cohomology_algebra(sphere(2), 2), name="H(S2vS2)")


class ZeroTouchDict(dict):
    """Accumulator for reference copies of the hand-written sparse sums
    (`out[k] = out.get(k, ZERO) + x`, zeros filtered at the end).  It notes
    when a key that holds 0 is assigned again: from then on `lincomb`, which
    drops a 0 at once, may list that key later than the reference does."""

    retouched = False

    def __setitem__(self, key, value):
        if self.get(key, 1) == 0:
            self.retouched = True
        super().__setitem__(key, value)


def assert_matches_reference_sum(got, ref, retouched):
    """`got` holds exactly the nonzero entries of `ref`, with the same values
    and value types, in the same key order unless `retouched`."""
    nonzero = {k: v for k, v in ref.items() if v != 0}
    assert got == nonzero
    assert {k: type(v) for k, v in got.items()} == {k: type(v) for k, v in nonzero.items()}
    if not retouched:
        assert list(got) == list(nonzero)


def monomial_algebra(factors, name="A"):
    """FiniteCDGA of a tensor product of exterior and truncated-polynomial algebras.

    `factors` is a list of (degree, height): generator x_i of that degree with
    x_i^height = 0 (odd degrees need height 2).  The basis is the exponent
    vectors; products carry the Koszul sign of moving odd factors past each
    other, computed here without any rht arithmetic.
    """
    vectors = sorted(iproduct(*[range(h) for _, h in factors]),
                     key=lambda e: (sum(x * d for x, (d, _) in zip(e, factors)), e))
    basis, index = {}, {}
    for e in vectors:
        k = sum(x * d for x, (d, _) in zip(e, factors))
        index[e] = (k, len(basis.setdefault(k, [])))
        basis[k].append("*".join("x%d^%d" % (i, x) for i, x in enumerate(e) if x) or "1")
    mul = {}
    for e in vectors:
        for f in vectors:
            if any(x + y >= h for x, y, (_, h) in zip(e, f, factors)):
                continue
            # f's odd factors hop over e's odd factors of larger index.
            swaps = sum(e[i] * f[j] for i in range(len(e)) for j in range(i)
                        if factors[i][0] % 2 and factors[j][0] % 2)
            k, pos = index[tuple(x + y for x, y in zip(e, f))]
            mul[(index[e], index[f])] = {pos: Fraction((-1) ** swaps)}
    return FiniteCDGA(basis, {}, mul, name=name)


def _inverse(m):
    """Inverse of an invertible square Fraction matrix (Gauss-Jordan)."""
    n = len(m)
    rows = [list(r) + [Fraction(int(i == j)) for j in range(n)] for i, r in enumerate(m)]
    for c in range(n):
        piv = next(r for r in range(c, n) if rows[r][c] != 0)
        rows[c], rows[piv] = rows[piv], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c] != 0:
                rows[r] = [x - rows[r][c] * y for x, y in zip(rows[r], rows[c])]
    return [r[n:] for r in rows]


def change_basis(A, mats):
    """A in the basis e'_i = sum_j mats[k][j][i] e_j of each degree k in `mats`."""
    def new_to_old(k, i):
        return {j: row[i] for j, row in enumerate(mats[k]) if row[i]} if k in mats else {i: 1}

    inv = {k: _inverse(m) for k, m in mats.items()}
    items = [(k, i) for k in sorted(A.basis) for i in range(A.dim(k))]
    mul = {}
    for p, i in items:
        for q, j in items:
            old = A.multiply_coords(p, new_to_old(p, i), q, new_to_old(q, j))
            k = p + q
            new = {r: sum(inv[k][r][s] * c for s, c in old.items()) for r in range(A.dim(k))} \
                if k in inv else old
            new = {r: c for r, c in new.items() if c != 0}
            if new:
                mul[((p, i), (q, j))] = new
    return FiniteCDGA(A.basis, {}, mul, name=A.name)


@st.composite
def random_monomial_algebras(draw, max_dim=12):
    """A random monomial_algebra with a random invertible change of basis of A^+."""
    factors, dim = [], 1
    for _ in range(draw(st.integers(1, 3))):
        d = draw(st.sampled_from([1, 2, 3, 4]))
        h = 2 if d % 2 else draw(st.integers(2, 3))
        if dim * h <= max_dim:
            factors.append((d, h))
            dim *= h
    A = monomial_algebra(factors)
    mats = {}
    for k in sorted(A.basis):
        n = A.dim(k)
        if k == 0 or n == 1 and draw(st.booleans()):
            continue
        # L U with L unit lower and U upper triangular, diagonal +-1 or +-2.
        low = [[Fraction(int(r == c) if r <= c else draw(st.integers(-2, 2)))
                for c in range(n)] for r in range(n)]
        up = [[Fraction(draw(st.sampled_from([1, -1, 2, -2])) if r == c else
                        draw(st.integers(-2, 2)) if r < c else 0)
               for c in range(n)] for r in range(n)]
        mats[k] = [[sum(low[r][t] * up[t][c] for t in range(n)) for c in range(n)]
                   for r in range(n)]
    return change_basis(A, mats)


@pytest.fixture
def s2():
    return sphere2_model()


@pytest.fixture
def uvw():
    return nonformal_uvw()


@pytest.fixture
def report_windows(monkeypatch):
    """Records (presentation name, lo, hi) for every CohomologyReport built."""
    windows = []
    init = CohomologyReport.__init__

    def recording_init(self, pres, lo, hi):
        windows.append((getattr(pres, "name", "?"), lo, hi))
        init(self, pres, lo, hi)
    monkeypatch.setattr(CohomologyReport, "__init__", recording_init)
    return windows
