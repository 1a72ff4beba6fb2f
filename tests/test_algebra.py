import gc
import inspect
import sys
import weakref
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from itertools import product as iproduct

import pytest
from hypothesis import assume, given, settings, strategies as st

import rht.algebra
from rht.algebra import (ZERO, AlgElement, Derivation, GeneratorContext, MonomialBases,
                         apply_derivation, degree_basis, generator_monomial, monomial_blocks,
                         monomial_degree, monomial_divide, monomial_factors, monomial_lcm,
                         monomial_mul, monomial_order, monomial_shift, monomial_str,
                         monomial_times, monomial_word_length, substitute)
from rht.cdga import SullivanPresentation, cohomology, validate
from rht.constructions import sphere
from rht.errors import (BudgetExceededError, ContextMismatchError, DegreeError,
                        DerivationError)

from conftest import ZeroTouchDict, assert_matches_reference_sum, leibniz_loop


def ctx_ab():
    return GeneratorContext([("a", 2), ("b", 3)])


def test_odd_square_is_zero():
    ctx = ctx_ab()
    a, b = ctx.generator("a"), ctx.generator("b")
    assert ((a * b) * b).is_zero()


def test_koszul_sign_on_odd_generators():
    ctx = GeneratorContext([("u", 1), ("v", 1)])
    u, v = ctx.generator("u"), ctx.generator("v")
    assert u * v == -(v * u)


def test_even_powers_accumulate():
    ctx = ctx_ab()
    a = ctx.generator("a")
    cube = (a * a) * a
    assert cube == a ** 3
    assert cube.degree() == 6


def test_context_mismatch_raises():
    x = ctx_ab().generator("a")
    y = GeneratorContext([("a", 2)]).generator("a")
    with pytest.raises(ContextMismatchError):
        x * y


def test_degree_zero_generator_rejected():
    with pytest.raises(DegreeError):
        GeneratorContext([("t", 0)])


def test_derivation_catalog_example():
    # d a = 0, d b = a^2 applied to a*b gives a^3 (a is even: sign +1).
    ctx = ctx_ab()
    a, b = ctx.generator("a"), ctx.generator("b")
    d = Derivation(ctx, +1, {"a": AlgElement.zero(ctx), "b": a * a})
    assert apply_derivation(d, a * b) == a ** 3


def test_zero_derivation_annihilates():
    ctx = ctx_ab()
    a, b = ctx.generator("a"), ctx.generator("b")
    d = Derivation(ctx, 0, {"a": AlgElement.zero(ctx), "b": AlgElement.zero(ctx)})
    assert apply_derivation(d, a * b + b.scale(3)).is_zero()


def test_derivation_of_odd_square_is_zero():
    ctx = ctx_ab()
    b = ctx.generator("b")
    d = Derivation(ctx, +1, {"a": AlgElement.zero(ctx),
                             "b": ctx.generator("a") ** 2})
    assert apply_derivation(d, b * b).is_zero()


def test_derivation_missing_image():
    ctx = ctx_ab()
    d = Derivation(ctx, +1, {"a": AlgElement.zero(ctx)})
    with pytest.raises(DerivationError):
        apply_derivation(d, ctx.generator("b"))
    # With no image at all, a * b names a, its leftmost generator.
    a, b = ctx.generator("a"), ctx.generator("b")
    with pytest.raises(DerivationError, match="no image for generator 'a'"):
        apply_derivation(Derivation(ctx, +1, {}), a * b)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(1, 9), max_size=10), st.integers(0, 12))
def test_ranks_count_the_generators_of_each_degree(degrees, n):
    ctx = GeneratorContext([("g%d" % i, d) for i, d in enumerate(degrees)])
    assert ctx.ranks(range(2, n + 1)) == {k: degrees.count(k) for k in range(2, n + 1)}
    assert list(ctx.ranks().items()) == [(k, degrees.count(k)) for k in sorted(set(degrees))]


def brute_force_basis(ctx, n):
    """Independent oracle: enumerate all exponent vectors directly."""
    ranges = []
    for i, (_, deg) in enumerate(ctx.gens):
        cap = 1 if deg % 2 else n // deg
        ranges.append(range(cap + 1))
    out = []
    for exps in iproduct(*ranges):
        if sum(e * ctx.degrees[i] for i, e in enumerate(exps)) == n:
            out.append(tuple((i, e) for i, e in enumerate(exps) if e))
    return sorted(out)


def test_degree_basis_examples():
    ctx = ctx_ab()
    assert degree_basis(ctx, 6) == [((0, 3),)]
    assert degree_basis(ctx, 5) == [((0, 1), (1, 1))]
    u = GeneratorContext([("u", 1)])
    assert degree_basis(u, 2) == []
    x = GeneratorContext([("x", 2)])
    for k in range(5):
        assert degree_basis(x, 2 * k) == [((0, k),)] if k else [()]


def test_degree_basis_matches_brute_force():
    ctx = GeneratorContext([("u", 1), ("a", 2), ("v", 3), ("x", 4)])
    for n in range(0, 12):
        assert sorted(degree_basis(ctx, n)) == brute_force_basis(ctx, n)
        assert len(degree_basis(ctx, n)) == len(set(degree_basis(ctx, n)))


def recursive_degree_basis(ctx, n):
    """The original one-frame-per-generator enumerator, kept as the order oracle."""
    if n < 0:
        return []
    out = []

    def rec(idx, remaining, acc):
        if remaining == 0:
            out.append(tuple(acc))
            return
        if idx >= len(ctx.gens):
            return
        deg = ctx.degrees[idx]
        max_e = remaining // deg
        if ctx.odd[idx]:
            max_e = min(max_e, 1)
        for e in range(0, max_e + 1):
            if e:
                acc.append((idx, e))
            rec(idx + 1, remaining - e * deg, acc)
            if e:
                acc.pop()

    rec(0, n, [])
    return out


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(1, 14), max_size=8), st.integers(-1, 14))
def test_degree_basis_order_matches_recursive_enumerator(degrees, n):
    # Unsorted degrees up to 14: generators above n sit between ones that fit.
    ctx = GeneratorContext([("g%d" % i, d) for i, d in enumerate(degrees)])
    assert degree_basis(ctx, n) == recursive_degree_basis(ctx, n)


def test_degree_basis_does_not_recurse_per_generator():
    # Shaped like a deep minimal model: a few low generators, then many high
    # ones that every enumeration still has to walk past.
    gens = [("a", 2), ("b", 2), ("c", 3), ("e", 4), ("f", 4)]
    gens += [("z%d" % i, 5 + i % 7) for i in range(1495)]
    ctx = GeneratorContext(gens)
    assert degree_basis(ctx, 2) == [((1, 1),), ((0, 1),)]
    assert degree_basis(ctx, 4) == [((4, 1),), ((3, 1),), ((1, 2),), ((0, 1), (1, 1)),
                                    ((0, 2),)]


def test_degree_basis_budget_is_exact(monkeypatch):
    ctx = GeneratorContext([("u", 1), ("a", 2), ("v", 3), ("x", 4), ("y", 2)])
    basis = degree_basis(ctx, 10)
    monkeypatch.setattr(rht.algebra, "MONOMIAL_BUDGET", len(basis))
    assert len(degree_basis(ctx, 10)) == len(basis)
    monkeypatch.setattr(rht.algebra, "MONOMIAL_BUDGET", len(basis) - 1)
    with pytest.raises(BudgetExceededError):
        degree_basis(ctx, 10)


def _expected_basis(ctx, k):
    """(basis, None) as the recursive oracle gives it, or (None, message) when
    degree_basis raises under the budget in force."""
    try:
        degree_basis(ctx, k)
    except BudgetExceededError as exc:
        return None, str(exc)
    return recursive_degree_basis(ctx, k), None


@settings(max_examples=150, deadline=None)
@given(st.lists(st.lists(st.integers(1, 14), max_size=4), min_size=1, max_size=4)
       .filter(lambda chunks: sum(map(len, chunks)) <= 8),
       st.one_of(st.just(None), st.integers(0, 30)), st.data())
def test_presentation_bases_along_extend_chains_match_recursive_enumerator(chunks, budget, data):
    # A chain of extensions, each link with unsorted degrees 1..14; degrees
    # -1..20 requested in random order on every link, so a link reads the
    # bases it inherited as well as the ones it builds, under one budget.
    with pytest.MonkeyPatch.context() as mp:
        if budget is not None:
            mp.setattr(rht.algebra, "MONOMIAL_BUDGET", budget)
        names = iter("g%d" % i for i in range(8))
        gens = [(next(names), d) for d in chunks[0]]
        ctx = GeneratorContext(gens)
        p = SullivanPresentation(ctx, {g: AlgElement.zero(ctx) for g, _ in gens})
        for i, chunk in enumerate(chunks):
            if i:
                new = [(next(names), d) for d in chunk]
                p = p.extend(new, {g: AlgElement.zero(p.ctx) for g, _ in new})
            for k in data.draw(st.lists(st.integers(-1, 20), unique=True, max_size=10)):
                basis, message = _expected_basis(p.ctx, k)
                if message is not None:
                    with pytest.raises(BudgetExceededError, match="^%s$" % message):
                        p.basis(k)
                    with pytest.raises(BudgetExceededError, match="^%s$" % message):
                        p.index(k)
                    continue
                assert p.basis(k) == basis
                assert p.index(k) == {m: pos for pos, m in enumerate(basis)}


def fitting_recursive_basis(ctx, n):
    """The recursive oracle on the generators of degree <= n only (one frame
    each), in the context's indices."""
    fit = [i for i, d in enumerate(ctx.degrees) if d <= n]
    small = GeneratorContext([ctx.gens[i] for i in fit])
    return [tuple((fit[i], e) for i, e in m) for m in recursive_degree_basis(small, n)]


def test_presentation_bases_of_a_deep_context_without_recursion():
    # 1,500 generators, most of them above the degrees asked for, through a
    # presentation and an extension, at stack depth + 100.
    gens = [("a", 2), ("b", 2), ("c", 3), ("e", 4), ("f", 4)]
    gens += [("z%d" % i, 5 + i % 7) for i in range(1495)]
    ctx = GeneratorContext(gens)
    p = SullivanPresentation(ctx, {g: AlgElement.zero(ctx) for g, _ in gens})
    expected = {k: fitting_recursive_basis(ctx, k) for k in (2, 4, 7)}
    expected_q = fitting_recursive_basis(ctx.extend([("w", 3)]), 7)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        assert [p.basis(k) for k in (4, 2, 7)] == [expected[k] for k in (4, 2, 7)]
        q = p.extend([("w", 3)], {"w": AlgElement.zero(ctx)})
        assert q.basis(2) is p.basis(2)
        assert q.basis(7) == expected_q
    finally:
        sys.setrecursionlimit(limit)


def test_extend_passes_on_the_bases_below_its_new_generators():
    ctx = GeneratorContext([("a", 2), ("b", 3)])
    s2 = SullivanPresentation(ctx, {g: AlgElement.zero(ctx) for g in ctx.names})
    for k in range(-1, 8):
        s2.basis(k)
    child = s2.extend([("c", 4), ("u", 5)], {})
    for k in range(-1, 4):
        assert child.basis(k) is s2.basis(k) and child.index(k) is s2.index(k)
    assert child.basis(4) == [((2, 1),), ((0, 2),)]
    same = s2.extend([], {})
    assert all(same.basis(k) is s2.basis(k) for k in range(-1, 8))
    # A chain's tables are not kept alive by its last link.
    table = weakref.ref(s2._bases)
    del s2, same
    gc.collect()
    assert table() is None and child.basis(2) == [((0, 1),)]


def test_each_count_row_is_computed_once():
    # One presentation computes each degree's count row at most once, and the
    # bases [0, K + 1] that the cohomology window [0, K] of S^2 reads cost at
    # most (N + 1)(K + 2) count cells, N = 2 generators.  Recorded values
    # (cells for K = 1000) may only go down.
    computed, cells = Counter(), []

    class CountingRows(list):
        def append(self, row):
            computed[len(self)] += 1
            cells.append(len(row))
            super().append(row)

    s2 = sphere(2)
    s2._bases._rows = CountingRows()
    cohomology(s2, 0, 1000)
    cohomology(s2, 0, 1000)
    s2.basis(500)
    assert set(computed.values()) == {1} and sorted(computed) == list(range(1002))
    assert sum(cells) <= 3 * 1002 == 3006


def test_power_by_squaring_matches_repeated_products():
    ctx = GeneratorContext([("u", 1), ("a", 2), ("v", 3)])
    x = ctx.generator("a") + ctx.generator("u") * ctx.generator("v") + \
        AlgElement.unit(ctx, Fraction(1, 2))
    y = AlgElement.unit(ctx)
    for n in range(9):
        assert x ** n == y
        y = y * x


# -- property tests ---------------------------------------------------------

ELEM_CTX = GeneratorContext([("u", 1), ("a", 2), ("v", 3), ("b", 4)])


@st.composite
def elements(draw, max_terms=4, max_degree=9):
    terms = {}
    n_terms = draw(st.integers(0, max_terms))
    for _ in range(n_terms):
        deg = draw(st.integers(0, max_degree))
        basis = degree_basis(ELEM_CTX, deg)
        if not basis:
            continue
        mono = basis[draw(st.integers(0, len(basis) - 1))]
        coeff = Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 4)))
        terms[mono] = coeff
    return AlgElement(ELEM_CTX, terms)


@st.composite
def homogeneous_elements(draw, degree):
    basis = degree_basis(ELEM_CTX, degree)
    terms = {}
    for mono in basis:
        if draw(st.booleans()):
            terms[mono] = Fraction(draw(st.integers(-5, 5)))
    return AlgElement(ELEM_CTX, terms)


@settings(max_examples=80, deadline=None)
@given(elements(), elements())
def test_graded_commutativity(x, y):
    # For homogeneous pieces x_p y_q = (-1)^{pq} y_q x_p; check componentwise.
    xy = x * y
    lhs = AlgElement.zero(ELEM_CTX)
    for p in range(0, 10):
        for q in range(0, 10):
            xp = AlgElement(ELEM_CTX, {m: c for m, c in x.terms.items()
                                       if monomial_degree(ELEM_CTX, m) == p})
            yq = AlgElement(ELEM_CTX, {m: c for m, c in y.terms.items()
                                       if monomial_degree(ELEM_CTX, m) == q})
            if xp.is_zero() or yq.is_zero():
                continue
            lhs = lhs + (yq * xp).scale((-1) ** (p * q))
    assert lhs == xy


@settings(max_examples=60, deadline=None)
@given(elements(max_terms=3, max_degree=7), elements(max_terms=3, max_degree=7))
def test_leibniz_on_random_products(x, y):
    a2 = ELEM_CTX.generator("a")
    d = Derivation(ELEM_CTX, +1, {
        "u": a2, "a": AlgElement.zero(ELEM_CTX),
        "v": a2 * a2, "b": ELEM_CTX.generator("u") * a2 * a2,
    })
    # Leibniz needs homogeneous left factors for the sign; split x by degree.
    lhs = apply_derivation(d, x * y)
    rhs = AlgElement.zero(ELEM_CTX)
    for p in range(0, 10):
        xp = AlgElement(ELEM_CTX, {m: c for m, c in x.terms.items()
                                   if monomial_degree(ELEM_CTX, m) == p})
        if xp.is_zero():
            continue
        rhs = rhs + apply_derivation(d, xp) * y + xp.scale((-1) ** p) * apply_derivation(d, y)
    assert lhs == rhs


@st.composite
def derivations_and_elements(draw):
    """A degree-r derivation on a random context, r in {-2, ..., 2}, and two
    elements whose even generators carry exponents up to 4, drawn from one
    pool of monomials so that the second often shares monomials and suffixes
    with the first."""
    degrees = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    ctx = GeneratorContext([("g%d" % i, d) for i, d in enumerate(degrees)])
    r = draw(st.integers(-2, 2))
    coeff = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    images = {}
    for name, d in ctx.gens:
        basis = degree_basis(ctx, d + r)
        picks = draw(st.lists(st.sampled_from(basis), max_size=3)) if basis else []
        images[name] = AlgElement(ctx, {m: draw(coeff) for m in picks})
    pool = [tuple((i, e) for i, e in enumerate(exps) if e)
            for exps in draw(st.lists(st.tuples(*(st.integers(0, 1 if d % 2 else 4)
                                                   for d in degrees)),
                                      min_size=1, max_size=6))]
    elements = [AlgElement(ctx, {m: draw(coeff)
                                 for m in draw(st.lists(st.sampled_from(pool), max_size=4))})
                for _ in range(2)]
    return Derivation(ctx, r, images), elements


@settings(max_examples=300, deadline=None)
@given(derivations_and_elements())
def test_apply_derivation_matches_product_loop(case):
    # One derivation, two elements in turn: the second query reads the
    # columns the first one stored.
    theta, elements = case
    for x in elements:
        assert list(apply_derivation(theta, x).terms.items()) == \
            list(leibniz_loop(theta, x).terms.items())


@st.composite
def presentations_with_halves_and_thirds(draw):
    """A free presentation whose images have coefficients with denominators
    1, 2 and 3, usually with d^2 != 0, and an element of degree 0..6."""
    degrees = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    ctx = GeneratorContext([("g%d" % i, d) for i, d in enumerate(degrees)])
    coeff = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2, 3]))
    images = {}
    for name, d in ctx.gens:
        basis = degree_basis(ctx, d + 1)
        picks = draw(st.lists(st.sampled_from(basis), max_size=3)) if basis else []
        images[name] = AlgElement(ctx, {m: draw(coeff) for m in picks})
    pool = [m for k in range(7) for m in degree_basis(ctx, k)]
    x = AlgElement(ctx, {m: draw(coeff) for m in draw(st.lists(st.sampled_from(pool), max_size=4))})
    return SullivanPresentation(ctx, images, name="P"), x


@settings(max_examples=300, deadline=None)
@given(presentations_with_halves_and_thirds())
def test_integer_view_derivation_and_validate_match_the_product_loop(case):
    # apply_derivation sums integer views of Fraction entries: the values,
    # the Fraction type and the order of its terms, and validate's d^2
    # violations, are those of the product loop.
    p, x = case
    for y in [x] + [p.d.image_of(g) for g in p.ctx.names]:
        got, want = apply_derivation(p.d, y), leibniz_loop(p.d, y)
        assert [(m, type(c), c) for m, c in got.terms.items()] == \
            [(m, type(c), c) for m, c in want.terms.items()]
    violations = []
    for g in p.ctx.names:
        dd = leibniz_loop(p.d, p.d.image_of(g))
        if not dd.is_zero():
            violations.append("d^2(%s) = %s != 0" % (g, dd))
    assert validate(p).violations == violations


def _monomial_mul_loop(ctx, m1, m2):
    """Merge-then-check monomial product with a (-1)**swaps sign, kept as the oracle."""
    if not m1:
        return 1, m2
    if not m2:
        return 1, m1
    odd1 = [i for i, _ in m1 if ctx.degrees[i] % 2]
    swaps = 0
    for j, _ in m2:
        if ctx.degrees[j] % 2:
            for i in odd1:
                if i > j:
                    swaps += 1
    merged = {}
    for i, e in m1:
        merged[i] = merged.get(i, 0) + e
    for i, e in m2:
        merged[i] = merged.get(i, 0) + e
    for i, e in merged.items():
        if ctx.degrees[i] % 2 and e > 1:
            return 0, None
    return (-1) ** swaps, tuple(sorted(merged.items()))


@st.composite
def monomial_pairs(draw):
    """A random context with odd and even generators and two normal-ordered
    monomials, even exponents up to 3."""
    degrees = draw(st.lists(st.integers(1, 4), min_size=1, max_size=6))
    ctx = GeneratorContext([("g%d" % i, d) for i, d in enumerate(degrees)])

    def mono():
        exps = [draw(st.integers(0, 1 if d % 2 else 3)) for d in degrees]
        return tuple((i, e) for i, e in enumerate(exps) if e)

    return ctx, mono(), mono()


@settings(max_examples=400, deadline=None)
@given(monomial_pairs())
def test_monomial_mul_matches_merge_loop(case):
    ctx, m1, m2 = case
    sign, mono = monomial_mul(ctx, m1, m2)
    assert (sign, mono) == _monomial_mul_loop(ctx, m1, m2)
    assert type(sign) is int


def _general_monomial_merge(ctx, m1, m2):
    """monomial_mul's general merge (a dict, a sort, a bisect per odd factor
    of m2), kept as the slow path that a one-block left factor skips."""
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


@st.composite
def one_block_products(draw):
    """A left factor x^e and a nonempty monomial m2 in a random context, even
    exponents up to 4; m2 holds x about half the time, so an odd x often
    meets itself and the product is 0."""
    degrees = draw(st.lists(st.integers(1, 4), min_size=1, max_size=6))
    ctx = GeneratorContext([("g%d" % i, d) for i, d in enumerate(degrees)])
    i = draw(st.integers(0, len(degrees) - 1))
    e = 1 if degrees[i] % 2 else draw(st.integers(1, 4))
    exps = [draw(st.integers(0, 1 if d % 2 else 4)) for d in degrees]
    assume(any(exps))
    return ctx, ((i, e),), tuple((j, f) for j, f in enumerate(exps) if f)


@settings(max_examples=400, deadline=None)
@given(one_block_products())
def test_one_block_monomial_mul_matches_the_general_merge(case):
    ctx, m1, m2 = case
    sign, mono = monomial_mul(ctx, m1, m2)
    assert (sign, mono) == _general_monomial_merge(ctx, m1, m2)
    assert type(sign) is int


def test_one_block_monomial_mul_examples():
    ctx = GeneratorContext([("u", 1), ("a", 2), ("v", 3), ("b", 4), ("w", 5)])
    u, a, v, b, w = range(5)
    cases = [(((v, 1),), ((u, 1), (a, 2), (b, 1)), (-1, ((u, 1), (a, 2), (v, 1), (b, 1)))),
             (((w, 1),), ((u, 1), (v, 1)), (1, ((u, 1), (v, 1), (w, 1)))),
             (((v, 1),), ((u, 1), (v, 1)), (0, None)),
             (((a, 3),), ((u, 1), (a, 1), (v, 1)), (1, ((u, 1), (a, 4), (v, 1)))),
             (((u, 1),), ((a, 1), (v, 1)), (1, ((u, 1), (a, 1), (v, 1))))]
    for m1, m2, want in cases:
        assert monomial_mul(ctx, m1, m2) == want == _general_monomial_merge(ctx, m1, m2)


# The monomial vocabulary, pinned through monomial_mul and the bases alone:
# no test below writes a monomial out, so the pins hold for any representation.

@st.composite
def monomials_in_a_context(draw, count):
    """A random context with odd and even generators and `count` monomials of
    degree 0..8 drawn from its bases."""
    degrees = draw(st.lists(st.integers(1, 4), min_size=1, max_size=6))
    ctx = GeneratorContext([("g%d" % i, d) for i, d in enumerate(degrees)])
    bases = MonomialBases(ctx)
    monos = [m for k in range(9) for m in bases.basis(k)]
    return ctx, [draw(st.sampled_from(monos)) for _ in range(count)]


@settings(max_examples=200, deadline=None)
@given(monomials_in_a_context(1), st.data())
def test_monomial_times_is_the_product_by_a_generator_at_or_after_the_last(case, data):
    ctx, (m,) = case
    i = data.draw(st.integers(0, len(ctx) - 1))
    sign, prod = monomial_mul(ctx, m, generator_monomial(i))
    got = monomial_times(ctx, m, i)
    if sign == 0 or monomial_factors(m)[-1:] > [i]:
        assert got is None
    else:
        assert (sign, got) == (1, prod)


@settings(max_examples=200, deadline=None)
@given(monomials_in_a_context(2))
def test_monomial_divide_and_lcm(case):
    ctx, (a, b) = case
    sign, ab = monomial_mul(ctx, a, b)
    if sign:
        assert monomial_divide(ab, b) == a and monomial_divide(ab, a) == b
    divides = not Counter(monomial_factors(b)) - Counter(monomial_factors(a))
    assert (monomial_divide(a, b) is not None) == divides
    if divides:
        assert monomial_mul(ctx, monomial_divide(a, b), b)[1] == a
    lcm = monomial_lcm(a, b)
    over_a, over_b = monomial_divide(lcm, a), monomial_divide(lcm, b)
    assert over_a is not None and over_b is not None
    assert set(monomial_factors(over_a)).isdisjoint(monomial_factors(over_b))
    assert monomial_lcm(b, a) == lcm


@settings(max_examples=200, deadline=None)
@given(monomials_in_a_context(1), st.integers(0, 5))
def test_monomial_factors_shift_and_blocks(case, k):
    ctx, (m,) = case
    factors = monomial_factors(m)
    assert factors == sorted(factors) and len(factors) == monomial_word_length(m)
    assert sum(ctx.degrees[i] for i in factors) == monomial_degree(ctx, m)
    assert all(monomial_factors(generator_monomial(i)) == [i] for i in factors)
    shifted = monomial_shift(m, k)
    assert monomial_factors(shifted) == [i + k for i in factors]
    assert monomial_shift(shifted, -k) == m
    blocks = list(monomial_blocks(m))
    assert [(i, e) for i, e, _, _ in blocks] == sorted(Counter(factors).items())
    for i, _, left, right in blocks:
        sign_left, left_x = monomial_mul(ctx, left, generator_monomial(i))
        sign_right, whole = monomial_mul(ctx, left_x, right)
        assert (sign_left, sign_right, whole) == (1, 1, m)


@given(st.lists(st.integers(1, 4), min_size=1, max_size=6), st.integers(0, 10))
def test_monomial_order_is_the_basis_order(degrees, k):
    basis = MonomialBases(GeneratorContext([("g%d" % i, d) for i, d in enumerate(degrees)])).basis(k)
    assert sorted(basis, key=monomial_order) == basis


def _format_element_loop(x):
    """The element text loop the DSL serializer used to carry, kept as an oracle."""
    if x.is_zero():
        return "0"
    parts = []
    for mono, coeff in x.terms.items():
        ms = monomial_str(x.ctx, mono)
        q = "%d" % coeff if coeff.denominator == 1 else "%d/%d" % (coeff.numerator,
                                                                   coeff.denominator)
        if ms == "1":
            body = q
        elif coeff == 1:
            body = ms
        elif coeff == -1:
            body = "-" + ms
        else:
            body = "%s*%s" % (q, ms)
        parts.append(body)
    out = parts[0]
    for p in parts[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out


@settings(max_examples=300, deadline=None)
@given(elements(max_terms=6))
def test_element_text_matches_format_loop(x):
    assert str(x) == _format_element_loop(x)


def test_substitute_is_multiplicative():
    ctx = ctx_ab()
    tgt = GeneratorContext([("x", 2), ("y", 3)])
    images = {"a": tgt.generator("x"), "b": tgt.generator("y") +
              tgt.generator("x") * AlgElement.unit(tgt, 0)}
    a, b = ctx.generator("a"), ctx.generator("b")
    assert substitute(a * b + a ** 2, images, tgt) == \
        tgt.generator("x") * tgt.generator("y") + tgt.generator("x") ** 2


# -- products and sums through lincomb, pinned against the loops they replaced -

def reference_product(ctx, x, y):
    """{monomial: coeff} product of two term maps, accumulated pair by pair."""
    out = ZeroTouchDict()
    for m1, c1 in x.items():
        for m2, c2 in y.items():
            sign, mono = monomial_mul(ctx, m1, m2)
            if sign == 0:
                continue
            out[mono] = out.get(mono, ZERO) + sign * c1 * c2
    return out


def reference_element(out):
    """Terms of AlgElement(ctx, out): Fractions, zeros dropped, sorted."""
    return dict(sorted((m, Fraction(c)) for m, c in out.items() if c != 0))


def test_monomial_products_of_one_monomial_match_the_lincomb_path(monkeypatch):
    # A lone row with the int coefficient 1, or with Fraction(1) over Fraction
    # entries, and no 0 is returned without `lincomb`; every case keeps the
    # values, types and key order of the `lincomb` row, where Fraction(1)
    # turns int entries into Fractions and a 0 entry is dropped.
    ctx = GeneratorContext([("x", 2), ("y", 1), ("z", 1), ("w", 3)])
    y_mono = ((1, 1),)
    right = [((3, 1),), ((0, 2),), ((1, 1),), ((2, 1), (3, 1)), ((0, 1), (2, 1))]
    rows = [dict(zip(right, values)) for values in
            ([3, -1, 2, 5, -4], [Fraction(3, 2), -1, 2, Fraction(-5, 3), 4],
             [Fraction(v) for v in (3, -1, 2, 5, -4)], [3, 0, 2, 0, -4],
             [Fraction(3), Fraction(0), 2, Fraction(1, 2), -4])]
    calls = []
    lincomb = rht.algebra.lincomb
    monkeypatch.setattr(rht.algebra, "lincomb", lambda terms: calls.append(1) or lincomb(terms))
    fast = [(int, 0), (int, 1), (int, 2), (Fraction, 2)]   # (type of the 1, row)
    for c in (1, Fraction(1), 2):
        for r, y in enumerate(rows):
            row = {}
            for m2, c2 in y.items():
                sign, mono = monomial_mul(ctx, y_mono, m2)
                if sign:
                    row[mono] = c2 if sign > 0 else -c2
            want = lincomb([(c, row)])
            del calls[:]
            got = rht.algebra.monomial_products(ctx, {y_mono: c}, y)
            assert [(m, type(v), v) for m, v in got.items()] == \
                [(m, type(v), v) for m, v in want.items()], (c, y)
            assert calls == ([] if c == 1 and (type(c), r) in fast else [1]), (c, y)


@settings(max_examples=100, deadline=None)
@given(elements(), elements())
def test_element_arithmetic_matches_reference_loops(x, y):
    added = dict(x.terms)
    for m, c in y.terms.items():
        added[m] = added.get(m, ZERO) + c
    subtracted = dict(x.terms)
    for m, c in y.terms.items():
        subtracted[m] = subtracted.get(m, ZERO) - c
    for got, want in ((x + y, added), (x - y, subtracted),
                      (x * y, reference_product(ELEM_CTX, x.terms, y.terms))):
        want = reference_element(want)
        assert list(got.terms.items()) == list(want.items())
        assert all(type(c) is Fraction for c in got.terms.values())


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(1, 4), min_size=1, max_size=4), st.booleans(), st.data())
def test_presentation_multiply_coords_matches_reference_loop(degrees, ints, data):
    ctx = GeneratorContext([("g%d" % i, d) for i, d in enumerate(degrees)])
    cx = SullivanPresentation(ctx, {g: AlgElement.zero(ctx) for g in ctx.names})
    coeff = st.integers(-2, 2) if ints else \
        st.fractions(min_value=-2, max_value=2, max_denominator=2)

    def vector(k):
        if not cx.dim(k):
            return {}
        return data.draw(st.dictionaries(st.integers(0, cx.dim(k) - 1), coeff, max_size=4))
    p, q = data.draw(st.integers(0, 6)), data.draw(st.integers(0, 6))
    u, v = vector(p), vector(q)
    bp, bq = cx.basis(p), cx.basis(q)
    out = reference_product(ctx, {bp[i]: c for i, c in u.items() if c},
                            {bq[j]: c for j, c in v.items() if c})
    # Keys in monomial order, so the order never depends on cancellations.
    want = {cx.index(p + q)[m]: c for m, c in sorted(out.items()) if c}
    assert_matches_reference_sum(cx.multiply_coords(p, u, q, v), want, False)
