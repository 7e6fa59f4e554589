import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import strategies as sts
from modgrob import (
    QQ,
    ZZ,
    Block,
    DegRevLex,
    Lex,
    ModularDomain,
    ParseError,
    parse_polynomial,
    parse_problem,
)
from modgrob.polyring import _MAX_EXPONENT, poly_to_string, ring
from reference import reference_parse_problem, reference_PolyParser

R2 = ring(("y", "x"), Lex(), ZZ)


def test_parse_singular_style_script():
    pf = parse_problem("ring r = ZZ, (z, y, x), dp; ideal I = 3z-y, 3y-x, 3x;")
    assert pf.ring.variables == ("z", "y", "x")
    assert pf.ring.order == DegRevLex()
    assert pf.ring.domain is ZZ or pf.ring.domain == ZZ
    assert [str(g) for g in pf.ideal()] == ["3z-y", "3y-x", "3x"]


def test_parse_juxtaposed_exponents():
    assert str(parse_polynomial("3y2-yx", R2)) == "3y^2-yx"
    assert str(parse_polynomial("-7y3x+5y2x2", R2)) == "-7y^3x+5y^2x^2"
    assert parse_polynomial("y2", R2) == parse_polynomial("y^2", R2)


def test_parse_empty_file_rejected():
    with pytest.raises(ParseError):
        parse_problem("")
    with pytest.raises(ParseError):
        parse_problem("   // just a comment\n")


def test_parse_modular_ring():
    pf = parse_problem("ring r = ZZ/9, (y, x), lp; ideal I = 3y2-yx;")
    assert pf.ring.domain == ModularDomain(9)
    assert pf.ring.order == Lex()


def test_parse_rational_ring_and_constants():
    pf = parse_problem("ring r = QQ, (x), lp; ideal I = x + 1/2;")
    assert str(pf.ideal()[0]) == "x+1/2"


def test_rational_constant_needs_qq():
    with pytest.raises(ParseError) as err:
        parse_problem("ring r = ZZ, (x), lp; ideal I = x/2;")
    assert err.value.line == 1


def test_parse_block_order():
    pf = parse_problem(
        "ring r = ZZ, (t, y, x), block((t): lp, (y, x): dp); ideal I = ty-x;")
    assert pf.ring.order == Block((0,), Lex(), DegRevLex())


def test_block_groups_must_partition():
    with pytest.raises(ParseError):
        parse_problem("ring r = ZZ, (t, y, x), block((t): lp, (x, y): dp); ideal I = t;")


def test_unknown_identifier_has_position():
    with pytest.raises(ParseError) as err:
        parse_problem("ring r = ZZ, (x), lp;\nideal I = x + w;")
    assert err.value.line == 2
    assert "w" in str(err.value)


def test_stream_and_oracle_sections():
    pf = parse_problem("""
        ring r = ZZ, (x), lp;
        stream = 2x, 3x;
        oracle = 2x, 3x;
    """)
    assert [str(g) for g in pf.stream] == ["2x", "3x"]
    assert [str(g) for g in pf.oracle_polys] == ["2x", "3x"]


def test_oracle_path_form():
    """An oracle file is named on the command line (--oracle FILE) only."""
    with pytest.raises(ParseError) as err:
        parse_problem('ring r = ZZ, (x), lp; oracle = "full_set.mg";')
    assert str(err.value) == "line 1, column 32: unexpected character '\"'"


@pytest.mark.parametrize("section", ["ideal I = x", "stream = x", "oracle = x"])
def test_section_before_ring_is_parse_error(section):
    with pytest.raises(ParseError) as err:
        parse_problem(f"{section}; ring r = ZZ, (x), lp;")
    keyword = section.split()[0]
    assert str(err.value) == f"line 1, column 1: {keyword} section before the ring declaration"


@pytest.mark.parametrize("text, message", [
    ("foo I = x; ring r = ZZ, (x), lp;", "unknown section keyword 'foo'"),
    ("3; ring r = ZZ, (x), lp;", "expected 'IDENT', found '3'"),
    ("; ring r = ZZ, (x), lp;", "expected 'IDENT', found ';'"),
], ids=["unknown-keyword", "integer", "punctuation"])
def test_first_statement_that_is_no_ring_is_parse_error(text, message):
    """A nonempty file's first statement declares the ring or raises, so no
    file gets past the parser without a ring."""
    with pytest.raises(ParseError) as err:
        parse_problem(text)
    assert str(err.value) == f"line 1, column 1: {message}"


def test_ideal_lookup_rules():
    pf = parse_problem("ring r = ZZ, (x), lp; ideal A = x; ideal I = 2x; ideal B = 3x;")
    assert [str(g) for g in pf.ideal()] == ["2x"]       # named I wins
    assert [str(g) for g in pf.ideal("B")] == ["3x"]
    with pytest.raises(KeyError):
        pf.ideal("missing")


def test_duplicate_sections_rejected():
    with pytest.raises(ParseError):
        parse_problem("ring r = ZZ, (x), lp; ideal I = x; ideal I = 2x;")
    with pytest.raises(ParseError):
        parse_problem("ring r = ZZ, (x), lp; ring s = QQ, (y), lp;")


def test_multichar_variables_longest_match():
    rw = ring(("x1", "x12"), Lex(), ZZ)
    f = parse_polynomial("x12", rw)          # longest name wins
    assert f == parse_polynomial("x12^1", rw)
    g = parse_polynomial("x1^2", rw)
    assert g != f


def test_implicit_and_explicit_multiplication_agree():
    assert parse_polynomial("2x*x", ring(("x",), Lex(), ZZ)) == \
        parse_polynomial("2x2", ring(("x",), Lex(), ZZ))
    assert parse_polynomial("2(x+1)(x-1)", ring(("x",), Lex(), QQ)) == \
        parse_polynomial("2x^2-2", ring(("x",), Lex(), QQ))


@given(sts.ring_and_polys(count=1, domains=(ZZ, QQ)))
@settings(max_examples=100)
def test_format_parse_round_trip(data):
    _, (f,) = data
    if f.is_zero:
        return
    assert parse_polynomial(poly_to_string(f), f.ring) == f


@pytest.mark.parametrize("text, message", [
    ("x\u00b2", "line 1, column 2: unknown identifier '\u00b2'"),
    ("3\u00b2", "line 1, column 2: unexpected character '\u00b2'"),
    ("x^\u00b2", "line 1, column 3: unexpected character '\u00b2'"),
    ("x\u0663", "line 1, column 2: unknown identifier '\u0663'"),
    ("\u06633x", "line 1, column 1: unexpected character '\u0663'"),
    ("y+x2\u00b9", "line 1, column 5: unknown identifier '\u00b9'"),
], ids=["superscript-exponent", "superscript-after-literal", "superscript-after-caret",
        "arabic-indic-exponent", "arabic-indic-literal", "after-ascii-exponent"])
def test_digits_are_ascii(text, message):
    """Literals and exponents take only the digits 0-9."""
    with pytest.raises(ParseError) as err:
        parse_polynomial(text, R2)
    assert str(err.value) == message


def test_variable_names_keep_unicode_letters():
    pf = parse_problem("ring r = QQ, (\u03b1, \u03b2\u00b2), lp; ideal I = \u03b12\u03b2\u00b2^3;")
    assert pf.ring.variables == ("\u03b1", "\u03b2\u00b2")
    assert pf.ideal()[0].terms == ((1, (2, 3)),)


def test_an_empty_variable_name_is_refused():
    """No identifier spells '', and a polynomial in it would print as text
    no parser reads back (3*^2*x+), so no ring may name a variable ''."""
    with pytest.raises(ValueError, match="^variable names must be distinct and nonempty$"):
        ring(("", "x"), Lex(), ZZ)
    with pytest.raises(ValueError, match="^variable names must be distinct and nonempty$"):
        ring(("x", "x"), Lex(), ZZ)


@pytest.mark.parametrize("name", ["x y", "2x", "x^2", "\u00b2x", "x-1"])
def test_a_variable_name_the_parser_cannot_read_is_refused(name):
    """A ring variable must be an identifier of the parser, \\w+ led by a
    letter or '_': in ring(("x y", "z"), ...) the product of both variables
    would print as x y*z, text no parser reads back."""
    with pytest.raises(ValueError, match="^variable name .* is not an identifier$"):
        ring((name, "z"), Lex(), ZZ)


@pytest.mark.parametrize("text, column", [
    ("x^2147483647*x^2", 13), ("x^2147483647 x^2", 14), ("x2147483647(x+1)x", 17),
])
def test_product_past_the_exponent_bound_is_parse_error(text, column):
    with pytest.raises(ParseError) as err:
        parse_problem(f"ring r = ZZ, (x), lp; ideal I = {text};")
    assert str(err.value).startswith(f"line 1, column {32 + column}: exponent out of range")


def test_product_reaching_the_exponent_bound_is_accepted():
    pf = parse_problem("ring r = ZZ, (x), lp; ideal I = (x^2147483647)^1*x;")
    assert pf.ideal()[0].terms == ((1, (_MAX_EXPONENT,)),)


# ---------------------------------------------------------------------------
# the parser against its frozen predecessor

class _BoundedReference(reference_PolyParser):
    """The frozen expression parser with the one change made on purpose for
    ASCII input: a product with a term past the exponent bound is an
    error at the multiplication's token."""

    def _capped_mul(self, a, b, tok, message="product too large to expand"):
        product = super()._capped_mul(a, b, tok, message)
        top = max((e for _, mono in product.terms for e in mono), default=0)
        if top > _MAX_EXPONENT:
            raise ParseError(f"exponent out of range: {top}", tok.line, tok.column)
        return product


def _outcome(parse, text):
    """A problem file's ring and exact terms (types included), or its ParseError text."""
    try:
        pf = parse(text)
    except ParseError as exc:
        return str(exc)
    sections = [*pf.ideals.items(), ("stream", pf.stream), ("oracle", pf.oracle_polys)]
    return pf.ring, [(name, polys and [[(type(c), c, mono) for c, mono in g.terms]
                                       for g in polys]) for name, polys in sections]


_VARIABLE_SETS = [("x",), ("y", "x"), ("z", "y", "x"), ("x1", "x12", "y")]
_LITERALS = ["0", "1", "2", "3", "6", "7", "12", "123456789012345678901234567890"]
# Items in the first (a) and last (b) variable, with exponents on either
# side of the expansion caps (term products, coefficient bits) over the
# five domains, and on either side of the exponent bound.
_NEAR_CAPS = [
    ("(a+b+1)^", [27, 28, 33, 34, 35, 50, 51, 57, 58, 116, 117]),
    ("(a+b+a b+1)^", [23, 24, 29, 30, 36, 37]),
    ("(a+b+1)(a+b+1)^", [33, 34, 110, 111]),
    ("(3a+5)^", [283, 284, 853, 854]),
    ("12345678901^", [596, 597]),
    ("a^", [2**31, 2**31 + 1]),
    ("a", [2**31, 2**31 + 1]),
    ("(b2)^", [2**30, 2**30 + 1]),
    ("(a b)^", [2**31, 2**31 + 1]),
    ("2^", [2**31, 2**31 + 1]),
]


_JOINS = ["+", "-", " - ", "", "*", " ", " * "]  # a sum or a product
_SUFFIXES = ["", "", "", "", "^0", "^1", "^2", "^3", "^5"]


@st.composite
def _expressions(draw, names, qq, depth=0):
    """Sums and products of literals, identifiers with juxtaposed exponents
    and parenthesized expressions, each perhaps divided by a literal and
    raised to a power."""
    spelt = [name + digits for name in names for digits in ["", "", "2", "3", "10"]]
    atoms = _LITERALS + spelt + [a + b for a in spelt for b in spelt] + ["("] * 8
    suffixes = _SUFFIXES + ["/2", "/3", "/0", "/21", "/6^2"] * qq
    text = draw(st.sampled_from(["", "", "-", "+"]))
    for i in range(draw(st.integers(min_value=1, max_value=5))):
        text += draw(st.sampled_from(_JOINS)) if i else ""
        atom = draw(st.sampled_from(atoms))
        if atom == "(":
            atom = f"({draw(_expressions(names, qq, depth + 1))})" if depth < 3 else "1"
        text += atom + draw(st.sampled_from(suffixes))
    return text


@st.composite
def _problem_texts(draw):
    """ASCII problem files, well formed or perhaps not, with comments."""
    names = draw(st.sampled_from(_VARIABLE_SETS))
    domain = draw(st.sampled_from(["ZZ", "QQ", "ZZ/2", "ZZ/6", "ZZ/7"]))
    lines = [f"ring r = {domain}, ({', '.join(names)}), {draw(st.sampled_from(['lp', 'dp']))};"]
    for head in draw(st.lists(st.sampled_from(["ideal I", "ideal J", "stream", "oracle"]),
                              max_size=3, unique=True)):
        items = []
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            if draw(st.integers(min_value=0, max_value=4)):
                items.append(draw(_expressions(names, domain == "QQ")))
            else:
                base, exponents = draw(st.sampled_from(_NEAR_CAPS))
                base = base.replace("a", names[0]).replace("b", names[-1])
                items.append(f"{base}{draw(st.sampled_from(exponents))}")
        lines.append(f"{head} = {', '.join(items)}" + draw(st.sampled_from([";"] * 4 + [""]))
                     + draw(st.sampled_from(["", "", " // c", " \t"])))
    text = "\n".join(lines) + draw(st.sampled_from(["\n", "", " // tail", "\n// tail", "\n  "]))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        cut = draw(st.integers(min_value=0, max_value=len(text)))
        junk = draw(st.sampled_from(["", ";", ",", "(", ")", "^", "/", "*", "-", "x",
                                     "0", "#", "//", "\n", " ", "\t"]))
        text = text[:cut] + junk + text[cut + draw(st.integers(min_value=0, max_value=2)):]
    return text


@settings(max_examples=300)
@given(_problem_texts())
@example("ring r = ZZ, (x), lp; ideal I = x // no newline")
@example("ring r = ZZ/2, (z, y, x), dp; ideal I = (x+y+z+1)^16, (x+y+z+1)^16;")
@example("ring r = ZZ/6, (y, x), lp; ideal I = (2y+3x)(3y+2x)^2 - 6y, 4x*3;")
@example("ring r = QQ, (y, x), dp; ideal I = y2^3 - 1/2x(y+x/3)^2, -4/6;")
def test_parser_matches_its_frozen_predecessor(text):
    """Every ASCII problem file parses to the same ring and terms, or fails
    with the same ParseError text, as with the frozen parser."""
    expected = _outcome(lambda t: reference_parse_problem(t, _BoundedReference), text)
    assert _outcome(parse_problem, text) == expected
