from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from rht import dsl
from rht.algebra import AlgElement, GeneratorContext, degree_basis
from rht.cdga import SullivanPresentation, validate
from rht.constructions import catalog
from rht.errors import ParseError, RhtError

S2_TEXT = "cdga S2 { gen a:2; gen b:3; d a = 0; d b = a^2; }"
UVW_TEXT = "cdga X { gen u:1; gen v:1; gen w:1; d u = 0; d v = 0; d w = u*v; }"


def test_parse_s2():
    doc = dsl.parse(S2_TEXT)
    p = doc.presentation("S2")
    assert p.ctx.gens == (("a", 2), ("b", 3))
    assert p.d.image_of("b") == p.ctx.generator("a") ** 2
    assert validate(p).ok


def test_parse_nonformal_example():
    doc = dsl.parse(UVW_TEXT)
    p = doc.presentation("X")
    assert p.d.image_of("w") == p.ctx.generator("u") * p.ctx.generator("v")


def test_presentation_checks_each_presentation_object_once(monkeypatch):
    calls = []
    monkeypatch.setattr(dsl, "validate", lambda p: calls.append(p.name) or validate(p))
    doc = dsl.parse(S2_TEXT + UVW_TEXT)
    for name in ("S2", "X", "S2", "X", "S2"):
        doc.presentation(name)
    assert calls == ["S2", "X"]
    # A replaced presentation is checked afresh, and refused when d^2 != 0.
    bad = dsl.parse("cdga S2 { gen t:1; gen a:2; d t = a; d a = t*a; }").presentations["S2"]
    doc.presentations["S2"] = bad
    for _ in range(2):
        with pytest.raises(RhtError, match="cdga S2 is invalid: d\\^2\\(t\\) = t\\*a != 0"):
            doc.presentation("S2")
    assert calls == ["S2", "X", "S2"]


def test_parse_degree_mismatch_reports_location():
    with pytest.raises(ParseError) as err:
        dsl.parse("cdga Bad { gen a:2; d a = a; }")
    assert "degree mismatch at `d a`" in str(err.value)
    assert err.value.line == 1


def test_parse_unknown_generator():
    with pytest.raises(ParseError) as err:
        dsl.parse("cdga Bad { gen a:2; d a = q; }")
    assert "unknown generator" in str(err.value)


@pytest.mark.parametrize("text, col", [
    ("arrangement A ambient 2 {\n  subspace [[1, -3/0]]; }", 20),
    ("cdga C { gen x:2; gen y:3;\n  d y = 2/0*x^2; }", 11),
])
def test_zero_denominator_is_reported_at_the_denominator(text, col):
    # Arrangement rows and expressions share one literal rule.
    with pytest.raises(ParseError) as err:
        dsl.parse(text)
    assert str(err.value) == "line 2, col %d: zero denominator" % col


def test_parse_syntax_error_location():
    with pytest.raises(ParseError) as err:
        dsl.parse("cdga Bad { gen a:! }")
    assert err.value.line == 1 and err.value.col is not None


@pytest.mark.parametrize("text, message", [
    ("cdga X { gen a:2", "line 1, col 17: expected ;, found end of input"),
    ("cdga", "line 1, col 5: expected a cdga name, found end of input"),
    ("morphism f : X", "line 1, col 15: expected ->, found end of input"),
])
def test_document_cut_short_names_the_end_of_input(text, message):
    with pytest.raises(ParseError) as err:
        dsl.parse(text)
    assert str(err.value) == message


def loop_tokenize(text):
    """The per-character tokenizer that the compiled pattern replaced, kept as its oracle."""
    punct = ("|->", "->", "{", "}", "(", ")", "[", "]", ";", ":", ",", "=",
             "+", "-", "*", "^", "/")
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        matched = next((p for p in punct if text.startswith(p, i)), None)
        if matched:
            tokens.append(dsl.Token(matched, matched, line, col))
            i += len(matched)
            col += len(matched)
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(dsl.Token("int", int(text[i:j]), line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(dsl.Token("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError("unexpected character %r" % ch, line, col)
    tokens.append(dsl.Token("eof", None, line, col))
    return tokens


def tokenize_outcome(tokenize, text):
    try:
        return [(t.kind, t.value, t.line, t.col) for t in tokenize(text)]
    except ParseError as exc:
        return ("ParseError", str(exc), exc.line, exc.col)


# Characters the grammar uses, plus the ones that test each token class's edge:
# non-decimal digits, a numeric that is neither, letters outside ASCII, the
# whitespace the tokenizer does not skip, and a lone '|'.
GRAMMAR_CHARS = "ab_z019 \t\r\n#{}()[];:,=+-*^/|>²½٣éΩ\x0b\x0c"


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.text(), st.text(GRAMMAR_CHARS, max_size=40)))
def test_tokenize_matches_the_character_loop(text):
    try:
        expected = tokenize_outcome(loop_tokenize, text)
    except Exception:       # the loop's own crash, e.g. int('²'): now a ParseError
        with pytest.raises(ParseError):
            dsl.tokenize(text)
        return
    assert tokenize_outcome(dsl.tokenize, text) == expected


@pytest.mark.parametrize("text, message, col", [
    ("cdga X { gen a:²; d a = 0; }", "unexpected character '²'", 16),
    ("cdga X { gen a:2; d a = 0 # c", "unterminated cdga block", 27),
    ("cdga X { gen a:2;\x0b d a = 0; }", "unexpected character '\\x0b'", 18),
    ("cdga X { gen a:%s; }" % ("9" * 5000), "integer literal too long", 16),
], ids=["superscript-two", "trailing-comment", "vertical-tab", "long-integer"])
def test_malformed_characters_are_parse_errors(text, message, col):
    with pytest.raises(ParseError) as err:
        dsl.parse(text)
    assert (str(err.value), err.value.line, err.value.col) == (
        "line 1, col %d: %s" % (col, message), 1, col)


def split_eval_catalog(text):
    """The string-splitting evaluator that `dsl.parse_catalog` replaced, kept as its oracle."""
    text = text.strip()
    if "(" not in text:
        if text == "point":
            return catalog("point")
        raise RhtError("catalog expression must look like name(args)")
    name, rest = text.split("(", 1)
    if not rest.endswith(")"):
        raise RhtError("unbalanced parentheses in catalog expression")
    body = rest[:-1]
    parts = []
    depth = 0
    cur = ""
    for ch in body:
        if ch == "," and depth == 0:
            parts.append(cur)
            cur = ""
            continue
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        cur += ch
    if cur.strip():
        parts.append(cur)
    params = []
    for part in parts:
        part = part.strip()
        if part.lstrip("-").isdigit():
            params.append(int(part))
        else:
            params.append(split_eval_catalog(part))
    name = name.strip()
    if name == "wedge_cohomology":
        params = [dsl._as_cohomology(p) if isinstance(p, SullivanPresentation) else p
                  for p in params]
    return catalog(name, *params)


def catalog_outcome(evaluate, text):
    obj = evaluate(text)
    if isinstance(obj, SullivanPresentation):
        return "cdga", dsl.serialize_presentation(obj)
    return "finite", dsl.to_json_text(dsl.finite_cdga_json(obj))


_CATALOG_NAMES = ["point", "sphere", "cp", "k_z", "torus", "truncated_poly", "product",
                  "wedge_cohomology", "nope"]
# Integer leaves: ASCII, negative, zero-padded, a non-ASCII decimal digit
# (int() reads it), and a digit that is not decimal (int() rejects it).
_CATALOG_INTS = st.one_of(st.integers(-2, 4).map(str), st.sampled_from(["-0", "003", "٣", "²"]))
_CATALOG_TREES = st.recursive(
    st.one_of(_CATALOG_INTS, st.sampled_from(_CATALOG_NAMES).map(lambda n: (n, None))),
    lambda inner: st.tuples(st.sampled_from(_CATALOG_NAMES), st.lists(inner, max_size=3)),
    max_leaves=5)
# Well-typed trees, so that about a third of the specs build.
_PRESENTATION_TREES = st.recursive(
    st.one_of(st.sampled_from([("point", None), ("point", [])]),
              st.tuples(st.sampled_from(["sphere", "cp", "k_z", "torus"]),
                        st.lists(st.sampled_from(["1", "2", "3", "-0", "٣"]), min_size=1,
                                 max_size=1))),
    lambda inner: st.tuples(st.just("product"), st.lists(inner, min_size=2, max_size=2)),
    max_leaves=3)
_FINITE_TREES = st.tuples(st.just("truncated_poly"),
                          st.lists(st.sampled_from(["2", "4"]), min_size=2, max_size=2))
_TYPED_TREES = st.one_of(_PRESENTATION_TREES, _FINITE_TREES, st.tuples(
    st.just("wedge_cohomology"),
    st.lists(st.one_of(_PRESENTATION_TREES, _FINITE_TREES), min_size=2, max_size=2)))


@st.composite
def catalog_spec_texts(draw):
    """Grammar-shaped specs: random whitespace between tokens, trailing commas,
    negative ints, up to 100 levels of nesting, and now and then one character
    inserted, doubled, deleted or replaced."""
    space = st.sampled_from(["", "", "", " ", "  ", "\t", "\n", "\r"])

    def render(tree):
        if isinstance(tree, str):
            return tree
        name, args = tree
        if args is None:
            return name
        inner = (draw(space) + "," + draw(space)).join(map(render, args))
        if args and draw(st.booleans()):
            inner += draw(space) + ","
        return name + draw(space) + "(" + draw(space) + inner + draw(space) + ")"

    text = render(draw(st.one_of(_CATALOG_TREES, _TYPED_TREES)))
    for _ in range(draw(st.sampled_from([0, 0, 0, 10, 40, 94]))):
        text = "product(point," + draw(space) + text + ")"
    text = draw(space) + text + draw(space)
    if draw(st.integers(0, 2)) == 0:
        i = draw(st.one_of(st.integers(0, len(text)), st.just(len(text))))
        text = text[:i] + draw(st.sampled_from(["", text[i:i + 1], *"(),-x2 "])) + text[i:]
        text = text[:i] + text[i + 1:] if draw(st.booleans()) else text
    return text


@settings(max_examples=300, deadline=None)
@given(catalog_spec_texts())
@example(" point ")
@example("point ( )")
@example("sphere(2,)")
@example(" product( sphere(2) ,\tcp(2), ) ")
@example("torus(-0)")
@example("torus(- 2)")
@example("torus(-\n2)")
@example("sphere(--2)")
@example("sphere(٣)")
@example("sphere(2 3)")
@example("point(,)")
@example("sphere(2,,)")
@example("product(point,point")
@example("sphere(2))")
@example("point x")
@example("product(sphere(2)),(sphere(3))")
@example("wedge_cohomology(sphere(2), truncated_poly(2, 3))")
@example("wedge_cohomology(k_z(2), sphere(3))")
@example("wedge_cohomology(product(product(cp(3),cp(3)),cp(3)), point())")
@example("product(point," * 99 + "sphere(3)" + ")" * 99)
def test_parse_catalog_matches_the_string_splitting_evaluator(text):
    try:
        expected = catalog_outcome(split_eval_catalog, text)
    except Exception:       # a refusal, or the old crash on '²' or '--2': now an RhtError
        with pytest.raises(RhtError):
            dsl.parse_catalog(text)
        return
    assert catalog_outcome(dsl.parse_catalog, text) == expected


def test_duplicate_block_name_is_a_parse_error():
    with pytest.raises(ParseError) as err:
        dsl.parse(S2_TEXT + "\ncdga S2 { gen x:4; d x = 0; }")
    assert "duplicate cdga 'S2'" in str(err.value)
    assert err.value.line == 2


def test_deep_nesting_is_a_parse_error():
    text = "cdga N { gen a:2; gen b:3; d a = 0; d b = %sa^2%s; }" % ("(" * 3000, ")" * 3000)
    with pytest.raises(ParseError) as err:
        dsl.parse(text)
    assert "nested deeper than" in str(err.value)
    # Nesting within the limit still parses.
    doc = dsl.parse("cdga N { gen a:2; gen b:3; d a = 0; d b = %sa^2%s; }" % ("(" * 50, ")" * 50))
    assert doc.presentation("N").d.image_of("b") == dsl.parse(S2_TEXT).presentation("S2").d.image_of("b")


def test_constant_power_is_bounded():
    doc = "cdga P { gen x:2; gen y:3; d x = 0; d y = %s*x^2; }"
    # The bound is checked before the power is built, so 3^20000000 fails at once.
    for big in ("2^4096", "13^1107", "(1/3)^2585", "-3^2585", "((2^64)^64)^64", "3^20000000"):
        with pytest.raises(ParseError) as err:
            dsl.parse(doc % big)
        assert "power of a constant exceeds 4096 bits" in str(err.value)
    for ok, value in (("2^4095", 2 ** 4095), ("13^1106", 13 ** 1106), ("(2^64)^63", 2 ** 4032),
                      ("(-1/3)^2584", Fraction(1, 3 ** 2584)), ("0^1000000000", 0),
                      ("1^1000000000", 1), ("(-1)^1000000001", -1)):
        pres = dsl.parse(doc % ok).presentation("P")
        x = pres.ctx.generator("x")
        assert pres.d.image_of("y") == (x * x).scale(value)


def test_parse_rational_coefficients():
    doc = dsl.parse("cdga R { gen a:2; gen b:3; d a = 0; d b = 1/2*a^2 - 3*a*a; }")
    p = doc.presentation("R")
    a = p.ctx.generator("a")
    assert p.d.image_of("b") == (a * a).scale(Fraction(-5, 2))


def test_parse_morphism_and_chain_check():
    text = S2_TEXT + "\ncdga T { gen x:2; gen y:3; d x = 0; d y = x^2; }\n" + \
        "morphism f : S2 -> T { a |-> x; b |-> y; }"
    doc = dsl.parse(text)
    assert "f" in doc.morphisms
    bad = S2_TEXT + "\ncdga T { gen x:2; gen y:3; d x = 0; d y = x^2; }\n" + \
        "morphism f : S2 -> T { a |-> x; b |-> 0; }"
    with pytest.raises(ParseError) as err:
        dsl.parse(bad)
    assert "chain map" in str(err.value)


def test_parse_arrangement():
    text = ("arrangement braid ambient 3 {\n"
            "  subspace [ [1, -1, 0] ];\n"
            "  subspace [ [1, 0, -1] ];\n"
            "  subspace [ [0, 1, -1] ];\n"
            "}\n")
    doc = dsl.parse(text)
    arr = doc.arrangements["braid"]
    assert arr.n == 3 and len(arr) == 3


def test_parse_pd_declaration():
    text = S2_TEXT + "\npd S2 dim 2 orientation a;"
    doc = dsl.parse(text)
    pd = doc.pd_algebras["S2"]
    assert pd.m == 2
    assert doc.pd_decls["S2"] == (2, "a")


def test_pd_windows_form_no_products(monkeypatch):
    # S2 on [0, 2] and S3 on [0, 3] hold the unit and one class each, so every
    # product of their algebras has the unit as a factor: each is pinned to
    # the identity without a multiplication or a class lookup.
    from rht.cdga import CohomologyReport
    windows, work = [], []
    algebra = CohomologyReport.algebra

    def tracked(self, *args, **kwargs):
        windows.append((self.pres.name, self.lo, self.hi))
        multiply, classes = self.pres.multiply_coords, self.class_coordinates
        with pytest.MonkeyPatch.context() as inside:
            inside.setattr(self.pres, "multiply_coords",
                           lambda *a: work.append("product") or multiply(*a))
            inside.setattr(self, "class_coordinates",
                           lambda *a: work.append("class") or classes(*a))
            return algebra(self, *args, **kwargs)
    monkeypatch.setattr(CohomologyReport, "algebra", tracked)
    dsl.parse(S2_TEXT + "cdga S3 { gen u:3; d u = 0; }"
              "pd S2 dim 2 orientation a; pd S3 dim 3 orientation u;")
    assert windows == [("S2", 0, 2), ("S3", 0, 3)]
    assert work == []


def test_pd_rejects_wrong_degree():
    text = S2_TEXT + "\npd S2 dim 3 orientation b;"
    with pytest.raises(ParseError):
        dsl.parse(text)


def test_round_trip_examples():
    for text in (S2_TEXT, UVW_TEXT):
        doc = dsl.parse(text)
        out = dsl.serialize(doc)
        doc2 = dsl.parse(out)
        assert doc == doc2
        assert dsl.serialize(doc2) == out


NAMES = ["a", "b", "c", "u", "v", "w", "x", "y", "z"]


@st.composite
def random_documents(draw):
    # Round-tripping needs degree-correct differentials, not d^2 = 0: the
    # parser checks degrees only, so arbitrary images exercise it harder.
    n_gens = draw(st.integers(1, 4))
    gens = []
    for i in range(n_gens):
        gens.append((NAMES[i], draw(st.integers(1, 5))))
    ctx = GeneratorContext(gens)
    images = {}
    for g, deg in gens:
        basis = degree_basis(ctx, deg + 1)
        terms = {}
        for mono in basis:
            if draw(st.booleans()):
                terms[mono] = Fraction(draw(st.integers(-4, 4)),
                                       draw(st.integers(1, 3)))
        images[g] = AlgElement(ctx, terms)
    p = SullivanPresentation(ctx, images, name="Rnd")
    doc = dsl.CdgaDocument()
    doc.presentations["Rnd"] = p
    doc.order.append(("cdga", "Rnd"))
    return doc


@settings(max_examples=60, deadline=None)
@given(random_documents())
def test_round_trip_property(doc):
    text = dsl.serialize(doc)
    doc2 = dsl.parse(text)
    assert doc == doc2
    assert dsl.serialize(doc2) == text


def test_round_trip_full_corpus_document():
    import os
    path = os.path.join(os.path.dirname(__file__), "data", "catalog.rht")
    with open(path, "r", encoding="utf-8") as fh:
        doc = dsl.parse(fh.read())
    text = dsl.serialize(doc)
    doc2 = dsl.parse(text)
    assert doc == doc2
    assert dsl.serialize(doc2) == text


def test_serialize_golden_s2():
    doc = dsl.parse(S2_TEXT)
    assert dsl.serialize(doc) == (
        "cdga S2 {\n"
        "  gen a:2;\n"
        "  gen b:3;\n"
        "  d a = 0;\n"
        "  d b = a^2;\n"
        "}\n")


def test_lie_table_json_has_bracket_entry(s2):
    from rht.homotopy_lie import lie_table, quadratic_part
    t = lie_table(quadratic_part(s2), 4)
    payload = dsl.lie_table_json(t)
    assert payload["brackets"]["[x_a,x_a]"] == {"x_b": "2"}


def test_cohomology_json_certified_degree(s2):
    from rht.cdga import cohomology
    rep = cohomology(s2, 0, 6)
    payload = dsl.cohomology_json(rep)
    assert payload["certified_degree"] == 6
    assert payload["dims"]["2"] == 1
