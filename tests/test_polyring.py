from fractions import Fraction

import pytest
from hypothesis import given, settings

import strategies as sts
from modgrob import (
    QQ,
    ZZ,
    Block,
    DegRevLex,
    DomainError,
    Lex,
    ModularDomain,
    Polynomial,
    RingMismatch,
    ZeroPolynomial,
    change_domain,
    homogenize,
    is_homogeneous,
    leading_coefficient,
    leading_monomial,
    leading_term,
    monomial_divides,
    monomial_lcm,
    parse_polynomial,
)
from modgrob.polyring import (
    fresh_variable_name,
    monomial_key,
    monomial_mul,
    poly_to_string,
    ring,
    total_degree,
)

R2 = ring(("y", "x"), Lex(), ZZ)
R2Q = ring(("y", "x"), Lex(), QQ)


def P(text, ring_=R2):
    return parse_polynomial(text, ring_)


def cmp(a, b, order):
    """Three-way comparison of two monomials by their order keys."""
    key = monomial_key(order)
    return (key(a) > key(b)) - (key(a) < key(b))


def homogenizing_ring(ring_, position):
    """ring_ with a fresh variable at ``position``; its order has no blocks."""
    name = fresh_variable_name(ring_.variables)
    variables = ring_.variables[:position] + (name,) + ring_.variables[position:]
    return ring(variables, ring_.order, ring_.domain)


def dehomogenize(h, position, ring_):
    """h with 1 substituted for the variable at ``position``, in ring_."""
    return Polynomial.from_terms(ring_, [(c, m[:position] + m[position + 1:])
                                         for c, m in h.terms])


# ---------------------------------------------------------------------------
# term orders

def test_cmp_reflexive():
    assert cmp((1, 0), (1, 0), Lex()) == 0
    assert cmp((1, 0), (1, 0), DegRevLex()) == 0


def test_lex_first_variable_decides():
    # y > x**2 in lex with y listed first
    assert cmp((1, 0), (0, 2), Lex()) == 1


def test_degrevlex_tie_break():
    # x**2 > x*y when x is listed first: equal degree, revlex tie-break
    assert cmp((2, 0), (1, 1), DegRevLex()) == 1


@given(sts.monomials(3), sts.monomials(3), sts.monomials(3))
def test_order_axioms(a, b, c):
    for order in (Lex(), DegRevLex(), Block((0,), Lex(), DegRevLex())):
        cab = cmp(a, b, order)
        assert cab == -cmp(b, a, order)
        if a != b:
            assert cab != 0
        # multiplicative
        assert cmp(monomial_mul(a, c), monomial_mul(b, c), order) == cab
        # 1 is the minimum
        assert cmp(a, (0, 0, 0), order) >= 0


@given(sts.monomials(3, max_degree=4))
@settings(max_examples=50)
def test_block_elimination_property(mono):
    # any polynomial whose lead monomial avoids the front variable avoids it
    order = Block((0,), Lex(), Lex())
    ring_ = ring(("t", "y", "x"), order, QQ)
    f = Polynomial.from_terms(ring_, [(1, mono), (1, (0, 1, 0)), (2, (0, 0, 2))])
    if not f.is_zero and leading_monomial(f)[0] == 0:
        assert all(m[0] == 0 for _, m in f.terms)


@given(sts.monomials(4), sts.monomials(4))
def test_block_compares_front_then_back(a, b):
    for front in ((0,), (0, 1)):
        back = [i for i in range(4) if i not in front]
        for inner in ((DegRevLex(), Lex()), (Lex(), DegRevLex())):
            fa, fb = (tuple(e[i] for i in front) for e in (a, b))
            ba, bb = (tuple(e[i] for i in back) for e in (a, b))
            expected = cmp(fa, fb, inner[0]) or cmp(ba, bb, inner[1])
            assert cmp(a, b, Block(front, *inner)) == expected
    for front in ((1,), (2, 0), (1, 3)):
        with pytest.raises(ValueError):
            Block(front, DegRevLex(), Lex())


def test_monomial_lcm_div():
    assert monomial_lcm((2, 1), (1, 3)) == (2, 3)
    assert monomial_divides((1, 1), (2, 1))
    assert not monomial_divides((2, 1), (1, 1))


# ---------------------------------------------------------------------------
# arithmetic

def test_add_identity():
    f = P("3y2-yx")
    assert f + Polynomial.zero(R2) == f


def test_difference_of_squares():
    assert P("(x+1)(x-1)") == P("x2-1")


def test_modular_scaling():
    ring6 = ring(("x",), Lex(), ModularDomain(6))
    f = parse_polynomial("x+2", ring6)
    assert 3 * f == parse_polynomial("3x", ring6)


@pytest.mark.parametrize("c, over_zz, mod_6", [
    (8, 8, 2), (-7, -7, 5), (True, 1, 1), (Fraction(-9, 1), -9, 3),
], ids=["int", "negative", "bool", "integral-fraction"])
def test_integer_normalize_returns_exact_ints(c, over_zz, mod_6):
    """Plain ints take a fast path; every other integral value gives the same."""
    for domain, expected in ((ZZ, over_zz), (ModularDomain(6), mod_6)):
        value = domain.normalize(c)
        assert (type(value), value) == (int, expected)
    for domain in (ZZ, ModularDomain(6)):
        with pytest.raises(DomainError):
            domain.normalize(Fraction(1, 2))


@pytest.mark.parametrize("call, error, message", [
    (lambda: 0.5 * P("x"), DomainError, "0.5 is not an integer"),
    (lambda: P("x") * 2.5, DomainError, "2.5 is not an integer"),
    (lambda: ZZ.normalize("7"), DomainError, "7 is not an integer"),
    (lambda: ModularDomain(7).normalize(3.9), DomainError, "3.9 is not an integer"),
    (lambda: ZZ.normalize(2.0), DomainError, "2.0 is not an integer"),
    (lambda: Polynomial.from_terms(R2, [(1, (1.5, 0))]), ValueError,
     "exponent not an integer in (1.5, 0)"),
    (lambda: P("3x", R2Q) * 0.1, DomainError, "0.1 is not an int or a Fraction"),
    (lambda: QQ.normalize("2/6"), DomainError, "2/6 is not an int or a Fraction"),
    (lambda: QQ.normalize(2.0), DomainError, "2.0 is not an int or a Fraction"),
], ids=["float-times-f", "f-times-float", "string", "float-mod-7", "integral-float",
        "float-exponent", "qq-float-times-f", "qq-string", "qq-integral-float"])
def test_non_integers_are_refused(call, error, message):
    """Coefficients over ZZ and ZZ/m and exponents are exact integers, and
    over QQ ints or Fractions, never truncated or rounded: x^1.5 would print
    as text no parser reads back, and x * 0.1 would carry the float's binary
    expansion, 3602879701896397/36028797018963968, into the coefficient."""
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message


def test_ring_mismatch_rejected():
    with pytest.raises(RingMismatch):
        P("x") + parse_polynomial("x", R2Q)


@given(sts.ring_and_polys(count=3))
@settings(max_examples=60)
def test_ring_axioms(data):
    _, (f, g, h) = data
    assert (f + g) + h == f + (g + h)
    assert f + g == g + f
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f - f == Polynomial.zero(f.ring)


# ---------------------------------------------------------------------------
# leading data

def test_leading_term_visible_order():
    f = P("3x2-x", ring(("x",), Lex(), ZZ))
    assert leading_term(f) == (3, (2,))


def test_leading_coefficient_corpus_poly():
    assert leading_coefficient(P("-7y3x+5y2x2")) == -7


def test_leading_monomial_of_constant():
    assert leading_monomial(P("5")) == (0, 0)


def test_leading_term_of_zero_raises():
    with pytest.raises(ZeroPolynomial):
        leading_term(Polynomial.zero(R2))


# ---------------------------------------------------------------------------
# homogenization and domain changes

def test_homogenize_linear():
    ring1 = ring(("x",), Lex(), ZZ)
    f = parse_polynomial("2x+1", ring1)
    h = homogenize(f, 1, homogenizing_ring(ring1, 1))
    assert is_homogeneous(h)
    assert str(h) == "2x+h"
    assert dehomogenize(h, 1, ring1) == f


def test_homogenize_no_op_when_homogeneous():
    f = P("x2+xy")
    h = homogenize(f, 2, homogenizing_ring(R2, 2))
    assert [m[:2] for _, m in h.terms] == [m for _, m in f.terms]
    assert all(m[2] == 0 for _, m in h.terms)


@given(sts.ring_and_polys(count=2, domains=(ZZ,)))
@settings(max_examples=60)
def test_homogenize_round_trip_and_products(data):
    _, (f, g) = data
    n = f.ring.arity
    ring_h = homogenizing_ring(f.ring, n)
    hf, hg = homogenize(f, n, ring_h), homogenize(g, n, ring_h)
    assert dehomogenize(hf, n, f.ring) == f
    assert is_homogeneous(hf) and is_homogeneous(hg)
    # products of homogenized factors dehomogenize to the plain product
    assert dehomogenize(hf * hg, n, f.ring) == f * g


def test_change_domain_round_trips():
    f = P("3y2-yx")
    q = change_domain(f, QQ)
    assert all(isinstance(c, Fraction) for c, _ in q.terms)
    assert change_domain(q, ZZ) == f
    with pytest.raises(DomainError):
        change_domain(parse_polynomial("x+1/2", R2Q), ZZ)


def test_change_domain_mod():
    f = P("3y2-yx")
    m = change_domain(f, ModularDomain(3))
    assert str(m) == "2yx"


def test_total_degree_and_homogeneity():
    assert total_degree(Polynomial.zero(R2)) == -1
    assert is_homogeneous(Polynomial.zero(R2))
    assert total_degree(P("3y2-yx")) == 2
    assert is_homogeneous(P("3y2-yx"))
    assert not is_homogeneous(P("y2-x"))


# ---------------------------------------------------------------------------
# text form

def test_poly_to_string_compact():
    assert poly_to_string(P("3y2-yx")) == "3y^2-yx"
    assert poly_to_string(P("-y+1")) == "-y+1"
    assert poly_to_string(Polynomial.zero(R2)) == "0"
    assert poly_to_string(parse_polynomial("x+1/2", R2Q)) == "x+1/2"


def test_poly_to_string_multichar_names():
    rw = ring(("alpha", "beta"), Lex(), ZZ)
    f = parse_polynomial("2alpha^2beta-beta", rw)
    assert poly_to_string(f) == "2*alpha^2*beta-beta"
    assert parse_polynomial(poly_to_string(f), rw) == f
