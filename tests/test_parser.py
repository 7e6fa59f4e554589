import pytest
from hypothesis import given, settings

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
from modgrob.polyring import poly_to_string, ring

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
