from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rht import dsl
from rht.algebra import AlgElement, GeneratorContext, degree_basis
from rht.cdga import SullivanPresentation, validate
from rht.errors import ParseError

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


def test_parse_degree_mismatch_reports_location():
    with pytest.raises(ParseError) as err:
        dsl.parse("cdga Bad { gen a:2; d a = a; }")
    assert "degree mismatch at `d a`" in str(err.value)
    assert err.value.line == 1


def test_parse_unknown_generator():
    with pytest.raises(ParseError) as err:
        dsl.parse("cdga Bad { gen a:2; d a = q; }")
    assert "unknown generator" in str(err.value)


def test_parse_syntax_error_location():
    with pytest.raises(ParseError) as err:
        dsl.parse("cdga Bad { gen a:! }")
    assert err.value.line == 1 and err.value.col is not None


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
