"""The cdga description language: parser, canonical printer, JSON encoding.

Grammar (line oriented, semicolon terminated):

    cdga NAME { gen a:2; gen b:3; d a = 0; d b = a^2; }
    morphism NAME : SRC -> DST { a |-> EXPR; ... }
    arrangement NAME ambient N { subspace [ [1,0,0], [0,1,-1] ]; ... }
    pd NAME dim M orientation EXPR;

Expressions use + - * ^ and rational literals p/q.  Parsing is total: every
syntax or semantic problem raises ParseError with a line/column; canonical
documents round-trip through `serialize` exactly.  The same tokenizer and
parser read the command line's catalog specs (`parse_catalog`) and single
elements (`parse_element`).
"""

import json
import re
from fractions import Fraction

from .algebra import AlgElement, GeneratorContext, ONE, UNIT_MONOMIAL, ZERO, monomial_degree
from .cdga import CdgaMorphism, SullivanPresentation, cohomology, cohomology_algebra, validate
from .constructions import PDAlgebra, SubspaceArrangement, catalog
from .errors import ParseError, RhtError, UnsupportedInputError

SCHEMA = "rht/1"
MAX_NESTING = 100
MAX_CONSTANT_BITS = 4096    # largest numerator or denominator of a constant power


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

# One alternative per token kind, tried in this order at each position.  An
# identifier is any \w run here; tokenize accepts it only if it starts with a
# letter or "_", so a leading digit such as '²' is an unexpected character.
_TOKEN = re.compile(r"""(?P<newline>\n)|(?P<space>[ \t\r]+)|(?P<comment>\#[^\n]*)
    |(?P<punct>\|->|->|[{}()\[\];:,=+\-*^/])|(?P<int>\d+)|(?P<ident>\w+)|(?P<other>.)""",
                    re.VERBOSE | re.DOTALL)


class Token:
    def __init__(self, kind, value, line, col):
        self.kind = kind      # "ident" | "int" | punctuation literal | "eof"
        self.value = value
        self.line = line
        self.col = col

    def __repr__(self):
        return "Token(%s, %r, %d:%d)" % (self.kind, self.value, self.line, self.col)


def tokenize(text):
    tokens = []
    line, col = 1, 1
    for m in _TOKEN.finditer(text):
        kind, s = m.lastgroup, m.group()
        if kind == "newline":
            line, col = line + 1, 1
            continue
        if kind == "comment":       # the column stays at the '#'
            continue
        if kind == "punct":
            tokens.append(Token(s, s, line, col))
        elif kind == "int":
            try:
                tokens.append(Token("int", int(s), line, col))
            except ValueError:      # more digits than sys.get_int_max_str_digits()
                raise ParseError("integer literal too long", line, col) from None
        elif kind == "ident" and (s[0].isalpha() or s[0] == "_"):
            tokens.append(Token("ident", s, line, col))
        elif kind != "space":
            raise ParseError("unexpected character %r" % s[0], line, col)
        col += len(s)
    tokens.append(Token("eof", None, line, col))
    return tokens


# ---------------------------------------------------------------------------
# Document
# ---------------------------------------------------------------------------

class CdgaDocument:
    """Named presentations, morphisms, arrangements, and PD declarations.  A
    cdga is checked once: `violations` and `lie_table` read its `validation`."""

    def __init__(self):
        self.order = []              # (kind, name) in declaration order
        self.presentations = {}
        self.morphisms = {}
        self.arrangements = {}
        self.pd_decls = {}           # name -> (dim, orientation source text)
        self.pd_algebras = {}        # name -> PDAlgebra over H(presentation)

    def violations(self, name):
        """The named cdga's violations: its d^2 = 0 record, made if it has none."""
        if name not in self.presentations:
            raise RhtError("no cdga named %r in the document" % name)
        p = self.presentations[name]
        return (p.validation or validate(p)).violations

    def presentation(self, name):
        """The named cdga, refused with its first violation: every computation assumes d^2 = 0."""
        violations = self.violations(name)
        if violations:
            raise RhtError("cdga %s is invalid: %s" % (name, violations[0]))
        return self.presentations[name]

    def morphism(self, name):
        """The named morphism, refused as `presentation` refuses its source or target."""
        if name not in self.morphisms:
            raise RhtError("no morphism named %r" % name)
        phi = self.morphisms[name]
        for cdga in dict.fromkeys((phi.source.name, phi.target.name)):
            self.presentation(cdga)
        return phi

    def __eq__(self, other):
        if not isinstance(other, CdgaDocument):
            return NotImplemented
        if self.order != other.order:
            return False
        for name, p in self.presentations.items():
            q = other.presentations.get(name)
            if q is None or p.ctx != q.ctx:
                return False
            if any(p.d.image_of(g) != q.d.image_of(g) for g in p.ctx.names):
                return False
        for name, f in self.morphisms.items():
            g = other.morphisms.get(name)
            if g is None or f.images != g.images:
                return False
        for name, a in self.arrangements.items():
            b = other.arrangements.get(name)
            if b is None or a.n != b.n or a.subspaces != b.subspaces:
                return False
        return self.pd_decls == other.pd_decls


class _Parser:
    def __init__(self, text):
        self.tokens = tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def expect(self, kind, what=None):
        t = self.next()
        if t.kind != kind:
            found = "end of input" if t.kind == "eof" else repr(t.value)
            raise ParseError("expected %s, found %s" % (what or kind, found), t.line, t.col)
        return t

    def error(self, message, token=None):
        t = token or self.peek()
        raise ParseError(message, t.line, t.col)

    def keyword(self, word):
        """The identifier `word` itself."""
        t = self.expect("ident", "`%s`" % word)
        if t.value != word:
            self.error("expected `%s`" % word, t)

    def bracketed(self, item):
        """'[' item {',' item} ']' as a list."""
        self.expect("[")
        items = [item()]
        while self.peek().kind == ",":
            self.next()
            items.append(item())
        self.expect("]")
        return items

    # -- document ----------------------------------------------------------
    def document(self):
        doc = CdgaDocument()
        while self.peek().kind != "eof":
            t = self.expect("ident", "a block keyword")
            if t.value == "cdga":
                name, pres = self.cdga_block()
                doc.presentations[name] = pres
            elif t.value == "morphism":
                name, mor = self.morphism_block(doc)
                doc.morphisms[name] = mor
            elif t.value == "arrangement":
                name, arr = self.arrangement_block()
                doc.arrangements[name] = arr
            elif t.value == "pd":
                name, dim, text_expr, pd = self.pd_statement(doc)
                doc.pd_decls[name] = (dim, text_expr)
                doc.pd_algebras[name] = pd
            else:
                self.error("unknown block %r" % t.value, t)
            if (t.value, name) in doc.order:
                self.error("duplicate %s %r" % (t.value, name), t)
            doc.order.append((t.value, name))
        return doc

    # -- cdga --------------------------------------------------------------
    def cdga_block(self):
        name = self.expect("ident", "a cdga name").value
        self.expect("{")
        # First pass: collect generator declarations to build the context.
        start = self.pos
        gens = []
        depth = 1
        while True:
            t = self.next()
            if t.kind == "eof":
                self.error("unterminated cdga block", t)
            if t.kind == "{":
                depth += 1
            elif t.kind == "}":
                depth -= 1
                if depth == 0:
                    break
            elif t.kind == "ident" and t.value == "gen" and depth == 1:
                gname = self.expect("ident", "a generator name")
                self.expect(":")
                deg = self.expect("int", "a degree")
                if deg.value < 1:
                    self.error("generator degree must be >= 1", deg)
                if any(g == gname.value for g, _ in gens):
                    self.error("duplicate generator %r" % gname.value, gname)
                gens.append((gname.value, deg.value))
                self.expect(";")
        end = self.pos
        ctx = GeneratorContext(gens)
        # Second pass: differentials.
        self.pos = start
        images = {g: AlgElement.zero(ctx) for g, _ in gens}
        seen_d = set()
        while True:
            t = self.next()
            if t.kind == "}":
                break
            if t.kind == "ident" and t.value == "gen":
                self.expect("ident")
                self.expect(":")
                self.expect("int")
                self.expect(";")
                continue
            if t.kind == "ident" and t.value == "d":
                gtok = self.expect("ident", "a generator name")
                if gtok.value not in ctx.index:
                    self.error("unknown generator %r" % gtok.value, gtok)
                if gtok.value in seen_d:
                    self.error("duplicate differential for %r" % gtok.value, gtok)
                seen_d.add(gtok.value)
                self.expect("=")
                want = ctx.degree_of(gtok.value) + 1
                expr = self.expression(ctx, want)
                self.expect(";")
                if not expr.is_zero():
                    if expr.degree() != want:
                        self.error("degree mismatch at `d %s`: expected degree %d"
                                   % (gtok.value, want), gtok)
                images[gtok.value] = expr
                continue
            self.error("expected `gen` or `d` statement", t)
        self.pos = end
        return name, SullivanPresentation(ctx, images, name=name)

    # -- morphism ----------------------------------------------------------
    def morphism_block(self, doc):
        name = self.expect("ident", "a morphism name").value
        self.expect(":")
        src = self.expect("ident", "a source cdga name")
        self.expect("->")
        dst = self.expect("ident", "a target cdga name")
        if src.value not in doc.presentations:
            self.error("unknown source cdga %r" % src.value, src)
        if dst.value not in doc.presentations:
            self.error("unknown target cdga %r" % dst.value, dst)
        source = doc.presentations[src.value]
        target = doc.presentations[dst.value]
        self.expect("{")
        images = {}
        while self.peek().kind != "}":
            gtok = self.expect("ident", "a generator name")
            if gtok.value not in source.ctx.index:
                self.error("unknown generator %r in %s" % (gtok.value, src.value), gtok)
            self.expect("|->")
            expr = self.expression(target.ctx, source.ctx.degree_of(gtok.value))
            self.expect(";")
            if not expr.is_zero() and expr.degree() != source.ctx.degree_of(gtok.value):
                self.error("degree mismatch in image of %r" % gtok.value, gtok)
            images[gtok.value] = expr
        self.expect("}")
        for g in source.ctx.names:
            if g not in images:
                self.error("morphism %s lacks an image for generator %s" % (name, g))
        mor = CdgaMorphism(source, target, images, name=name)
        ok, bad = mor.is_chain_map()
        if not ok:
            self.error("morphism %s is not a chain map (fails on %s)" % (name, bad))
        return name, mor

    # -- arrangement -------------------------------------------------------
    def arrangement_block(self):
        name = self.expect("ident", "an arrangement name").value
        self.keyword("ambient")
        n = self.expect("int", "the ambient dimension").value

        def row():
            entries = self.bracketed(self.rational)
            if len(entries) != n:
                self.error("subspace rows must have %d entries" % n)
            return entries
        self.expect("{")
        subs = []
        while self.peek().kind != "}":
            self.keyword("subspace")
            subs.append(self.bracketed(row))
            self.expect(";")
        self.expect("}")
        return name, SubspaceArrangement(n, subs, name=name)

    # -- pd ----------------------------------------------------------------
    def pd_statement(self, doc):
        ntok = self.expect("ident", "a cdga name")
        if ntok.value not in doc.presentations:
            self.error("unknown cdga %r in pd declaration" % ntok.value, ntok)
        self.keyword("dim")
        m = self.expect("int", "the formal dimension").value
        self.keyword("orientation")
        pres = doc.presentations[ntok.value]
        start_tok = self.peek()
        expr = self.expression(pres.ctx, m)
        self.expect(";")
        if expr.is_zero() or expr.degree() != m:
            self.error("orientation element must be homogeneous of degree %d" % m,
                       start_tok)
        try:
            pd = pd_algebra_from_presentation(doc.presentation(ntok.value), m, expr)
        except RhtError as exc:
            self.error("pd declaration failed: %s" % exc, start_tok)
        return ntok.value, m, str(expr), pd

    # -- expressions -------------------------------------------------------
    def literal(self):
        """int ['/' int] as a Fraction; a zero denominator is reported at its token."""
        num = self.expect("int", "a number").value
        if self.peek().kind != "/":
            return Fraction(num)
        self.next()
        den = self.expect("int", "a denominator")
        if den.value == 0:
            self.error("zero denominator", den)
        return Fraction(num, den.value)

    def rational(self):
        neg = False
        while self.peek().kind in ("+", "-"):
            if self.next().kind == "-":
                neg = not neg
        q = self.literal()
        return -q if neg else q

    # An expression is parsed for a statement of known degree: a power whose
    # top degree exceeds it is rejected before it is built, and nesting is
    # bounded, so no input hangs the parser or overflows its stack.
    def expression(self, ctx, degree):
        x = self.term(ctx, degree)
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            y = self.term(ctx, degree)
            x = x + y if op == "+" else x - y
        return x

    def term(self, ctx, degree):
        x = self.factor(ctx, degree)
        while self.peek().kind == "*":
            self.next()
            x = x * self.factor(ctx, degree)
        return x

    def factor(self, ctx, degree):
        t = self.peek()
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.error("expression nested deeper than %d levels" % MAX_NESTING, t)
        if t.kind in ("-", "+"):
            self.next()
            x = self.factor(ctx, degree)
            x = -x if t.kind == "-" else x
        else:
            x = self.atom(ctx, degree)
        while self.peek().kind == "^":
            self.next()
            e = self.expect("int", "an exponent")
            top = max((monomial_degree(ctx, m) for m in x.terms), default=0)
            if top * e.value > degree:
                self.error("power of degree %d exceeds the expected degree %d"
                           % (top * e.value, degree), e)
            c = x.terms.get(UNIT_MONOMIAL, ZERO) if top == 0 else ZERO
            m = max(abs(c.numerator), c.denominator)     # the first test bounds m ** e
            if (m.bit_length() - 1) * e.value >= MAX_CONSTANT_BITS or \
                    (m ** e.value).bit_length() > MAX_CONSTANT_BITS:
                self.error("power of a constant exceeds %d bits" % MAX_CONSTANT_BITS, e)
            x = x ** e.value
        self.depth -= 1
        return x

    def atom(self, ctx, degree):
        if self.peek().kind == "int":
            return AlgElement.unit(ctx, self.literal())
        t = self.next()
        if t.kind == "ident":
            if t.value not in ctx.index:
                self.error("unknown generator %r" % t.value, t)
            return ctx.generator(t.value)
        if t.kind == "(":
            x = self.expression(ctx, degree)
            self.expect(")")
            return x
        self.error("expected a generator, number, or parenthesized expression", t)

    # -- catalog spec ------------------------------------------------------
    def catalog_spec(self):
        """NAME [ "(" [ARG {"," ARG} [","]] ")" ] as (name, args)."""
        t = self.expect("ident", "a catalog name")
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.error("catalog spec nested deeper than %d levels" % MAX_NESTING, t)
        args = []
        if self.peek().kind == "(":
            self.next()
            while self.peek().kind != ")":
                args.append(self.catalog_arg())
                if self.peek().kind != ",":
                    break
                self.next()
            self.expect(")")
        self.depth -= 1
        return t.value, args

    def catalog_arg(self):
        """A nested spec, or an int whose '-' stands right before its digits."""
        if self.peek().kind == "ident":
            return self.catalog_spec()
        minus = self.next() if self.peek().kind == "-" else None
        n = self.expect("int", "an integer or a catalog spec")
        if minus and (n.line, n.col) != (minus.line, minus.col + 1):
            self.error("expected the digits right after '-'", n)
        return -n.value if minus else n.value


def pd_algebra_from_presentation(pres, m, orientation):
    """PDAlgebra on H(pres) in [0, m], oriented by the class of `orientation`."""
    rep = cohomology(pres, 0, m)
    H = rep.algebra()
    cls = rep.class_coordinates(m, pres.to_coords(orientation, m))
    if len(cls) != 1 or H.dim(m) != 1:
        raise RhtError("orientation class must span the one-dimensional H^%d" % m)
    (idx, coeff), = cls.items()
    eps = {idx: ONE / coeff}
    return PDAlgebra(H, m, eps, name="PD(H(%s))" % pres.name)


def _parse_all(text, rule, *args):
    """rule(parser, *args) on `text`, which must leave nothing unparsed."""
    parser = _Parser(text)
    value = rule(parser, *args)
    parser.expect("eof", "end of input")
    return value


def parse(text):
    """Parse a document; ParseError carries line/column on any failure."""
    return _parse_all(text, _Parser.document)


def parse_element(text, ctx, degree):
    """One expression over `ctx`, its powers bounded by `degree`."""
    return _parse_all(text, _Parser.expression, ctx, degree)


def parse_catalog(text):
    """The catalog object of a spec such as product(sphere(2), cp(3)).  The
    whole spec is parsed before anything is built, so malformed text is a
    ParseError and only a well-formed spec reaches `constructions.catalog`."""
    return _build_catalog(*_parse_all(text, _Parser.catalog_spec))


def _build_catalog(name, args):
    params = [a if isinstance(a, int) else _build_catalog(*a) for a in args]
    if name == "wedge_cohomology":
        params = [_as_cohomology(p) if isinstance(p, SullivanPresentation) else p
                  for p in params]
    return catalog(name, *params)


def _as_cohomology(p):
    """H(p) of a pure catalog model on [0, its formal dimension], where H ends
    when it is finite; it is finite exactly when a power of each even
    generator past that degree is exact (FHT 32), and refused otherwise."""
    top = sum(d if d % 2 else 1 - d for d in p.ctx.degrees)
    for g, d in p.ctx.gens:
        e = max(top // d + 1, 1)        # the least power of g past the top
        if d % 2 == 0 and cohomology(p, e * d, e * d).class_coordinates(
                e * d, p.to_coords(p.generator(g) ** e, e * d)):
            raise UnsupportedInputError("wedge_cohomology needs finite cohomology: %s^%d is "
                                        "not exact in %s" % (g, e, p.name))
    return cohomology_algebra(p, top)


# ---------------------------------------------------------------------------
# Canonical serialization
# ---------------------------------------------------------------------------

def format_coefficient(q):
    q = Fraction(q)
    return "%d" % q if q.denominator == 1 else "%d/%d" % (q.numerator, q.denominator)


def serialize_presentation(p):
    lines = ["cdga %s {" % p.name]
    for g, deg in p.ctx.gens:
        lines.append("  gen %s:%d;" % (g, deg))
    for g in p.ctx.names:
        lines.append("  d %s = %s;" % (g, p.d.image_of(g)))
    lines.append("}")
    return "\n".join(lines)


def serialize_morphism(name, mor):
    lines = ["morphism %s : %s -> %s {" % (name, mor.source.name,
                                           getattr(mor.target, "name", "?"))]
    for g in mor.source.ctx.names:
        el = mor.target.from_coords(mor.source.ctx.degree_of(g), mor.images[g])
        lines.append("  %s |-> %s;" % (g, el))
    lines.append("}")
    return "\n".join(lines)


def serialize_arrangement(name, arr):
    lines = ["arrangement %s ambient %d {" % (name, arr.n)]
    for rows in arr.subspaces:
        row_txt = ", ".join("[%s]" % ", ".join(format_coefficient(x) for x in row)
                            for row in rows)
        lines.append("  subspace [ %s ];" % row_txt)
    lines.append("}")
    return "\n".join(lines)


def serialize(doc):
    """Canonical text of a document: parse(serialize(doc)) == doc."""
    chunks = []
    for kind, name in doc.order:
        if kind == "cdga":
            chunks.append(serialize_presentation(doc.presentations[name]))
        elif kind == "morphism":
            chunks.append(serialize_morphism(name, doc.morphisms[name]))
        elif kind == "arrangement":
            chunks.append(serialize_arrangement(name, doc.arrangements[name]))
        elif kind == "pd":
            dim, text_expr = doc.pd_decls[name]
            chunks.append("pd %s dim %d orientation %s;" % (name, dim, text_expr))
    return "\n\n".join(chunks) + "\n"


# ---------------------------------------------------------------------------
# JSON encoding
# ---------------------------------------------------------------------------

def presentation_json(p):
    return {
        "schema": SCHEMA,
        "kind": "cdga",
        "name": p.name,
        "generators": [{"name": g, "degree": d} for g, d in p.ctx.gens],
        "differential": {g: str(p.d.image_of(g)) for g in p.ctx.names},
    }


def finite_cdga_json(A):
    return {
        "schema": SCHEMA,
        "kind": "finite_cdga",
        "name": A.name,
        "basis": {str(k): list(v) for k, v in sorted(A.basis.items())},
        "differential": {"%d:%d" % k: _coords_json(col) for k, col in sorted(A.diff.items())},
        "products": {"%d:%d|%d:%d" % (k1 + k2): _coords_json(col)
                     for (k1, k2), col in sorted(A.mul.items())},
    }


def cohomology_json(report):
    return {
        "schema": SCHEMA,
        "kind": "cohomology",
        "name": getattr(report.pres, "name", "?"),
        "certified_degree": report.hi,
        "certified_above": report.certified_above(),
        "dims": {str(k): report.dim(k) for k in range(report.lo, report.hi + 1)},
    }


def minimal_model_json(result):
    p = result.model
    return {
        "schema": SCHEMA,
        "kind": "minimal_model",
        "certified_degree": result.certified_degree,
        "model": presentation_json(p),
        "phi": {g: _coords_json(result.phi.images[g]) for g in p.ctx.names},
        "provenance": {g: {"kind": result.provenance[g][0],
                           "stage": result.provenance[g][1]}
                       for g in sorted(result.provenance)},
        "ranks": {str(k): v for k, v in sorted(result.ranks().items())},
    }


def _coords_json(coords):
    return {str(i): format_coefficient(c) for i, c in sorted(coords.items())}


def lie_table_json(t):
    out = {
        "schema": SCHEMA,
        "kind": "lie_table",
        "name": t.name,
        "degree_bound": t.bound,
        "basis": {str(k): list(v) for k, v in sorted(t.basis.items())},
        "brackets": {},
    }
    for ((k, i), (l, j)), vec in sorted(t.brackets.items()):
        key = "[%s,%s]" % (t.basis[k][i], t.basis[l][j])
        out["brackets"][key] = {t.basis[k + l][m]: format_coefficient(c)
                                for m, c in sorted(vec.items())}
    return out


def to_json_text(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"
