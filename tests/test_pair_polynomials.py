"""Differential test of sums, differences and pair polynomials.

``poly_add`` and ``poly_sub`` gather every term in one monomial ->
coefficient map and sort it once.  ``s_polynomial_field``, ``s_pair_z`` and
``g_pair_z`` pack both polynomials with one ``_Packed``, gather the shifted,
scaled terms in one map keyed by the packed monomial, the dividend that
completion hands ``_reduce``, and return it reduced by no reducer.  Their
specifications are the frozen copies in ``reference.py``, which merged two
sorted term lists and built each multiple with ``term_mul`` first.  Both
must give equal polynomials over ZZ, QQ, ZZ/p and composite ZZ/m, in Lex,
DegRevLex and Block orders, full cancellation to zero included, and raise
the same exception with the same message; for polynomials of two rings,
both raise ``RingMismatch``.

Completion builds every S-pair with ``s_pair_z``, over a prime field too:
on monic elements there it is ``s_polynomial_field``.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import strategies as sts
from modgrob import QQ, ZZ, Block, DegRevLex, Lex, ModularDomain, Polynomial, RingMismatch
from modgrob.groebner import g_pair_z, s_pair_z, s_polynomial_field
from modgrob.polyring import leading_term, monic, poly_add, poly_sub, ring
from reference import (
    merge_g_pair_z,
    merge_poly_add,
    merge_poly_sub,
    merge_s_pair_z,
    merge_s_polynomial_field,
)

FIELDS = (QQ, ModularDomain(2), ModularDomain(7), ModularDomain(32003))
INTEGERS = (ZZ, ModularDomain(4), ModularDomain(12), ModularDomain(36))
ORDERS = (Lex(), DegRevLex(), Block((0,), Lex(), DegRevLex()),
          Block((0, 1), DegRevLex(), Lex()))

# (new, frozen, domains to draw from; ZZ checks the field S-polynomial's refusal)
PAIRS = (
    (poly_add, merge_poly_add, FIELDS + INTEGERS),
    (poly_sub, merge_poly_sub, FIELDS + INTEGERS),
    (s_polynomial_field, merge_s_polynomial_field, FIELDS + (ZZ,)),
    (s_pair_z, merge_s_pair_z, INTEGERS),
    (g_pair_z, merge_g_pair_z, INTEGERS),
)


def _outcome(fn, f, g):
    """fn(f, g), or the type and message of what it raised."""
    try:
        return fn(f, g)
    except Exception as exc:  # noqa: BLE001 - compared with the reference's
        return type(exc), str(exc)


@st.composite
def cases(draw, pairs=PAIRS):
    """A function, its frozen copy, and two polynomials of one ring, with
    g often a multiple or a near copy of f so that terms cancel."""
    new, frozen, domains = draw(st.sampled_from(pairs))
    order = draw(st.sampled_from(ORDERS))
    ring_ = ring(sts.VARIABLES[3], order, draw(st.sampled_from(domains)))
    f = draw(sts.polynomials(ring_, max_terms=5, max_degree=4))
    g = draw(st.one_of(
        sts.polynomials(ring_, max_terms=5, max_degree=4),
        st.integers(min_value=-3, max_value=3).map(lambda c: f * c),
        sts.polynomials(ring_, max_terms=2, max_degree=4).map(lambda h: f + h)))
    return new, frozen, f, g


@settings(max_examples=600)
@given(cases())
def test_matches_merge_reference(case):
    new, frozen, f, g = case
    assert _outcome(new, f, g) == _outcome(frozen, f, g)


@settings(max_examples=300)
@given(cases(((s_pair_z, s_polynomial_field, FIELDS[1:]),)))
def test_s_pair_z_is_the_field_s_polynomial_on_monic_elements(case):
    """Over ZZ/p, for monic f and g, s_pair_z(f, g) == s_polynomial_field(f, g)."""
    new, field, f, g = case
    assume(f and g)
    f, g = monic(f), monic(g)
    assert new(f, g) == field(f, g)


def _poly(domain, order, *terms, variables=("z", "y", "x")):
    return Polynomial.from_terms(ring(variables, order, domain), terms)


@pytest.mark.parametrize("domain", FIELDS + INTEGERS)
@pytest.mark.parametrize("order", ORDERS)
def test_full_cancellation_gives_zero(domain, order):
    f = _poly(domain, order, (3, (2, 0, 1)), (5, (0, 1, 1)), (1, (0, 0, 0)))
    assert poly_sub(f, f).is_zero and merge_poly_sub(f, f).is_zero
    assert poly_add(f, f * -1) == Polynomial.zero(f.ring)
    same = s_polynomial_field if domain.is_field else s_pair_z
    assert same(f, f).is_zero


@pytest.mark.parametrize("domain", (ZZ, ModularDomain(36)))
@pytest.mark.parametrize("order", ORDERS)
def test_g_pair_keeps_a_lead_term(domain, order):
    """Lead coefficients 4 and 6: the G-pair's lead term is 2 on the lcm."""
    f = _poly(domain, order, (4, (1, 1, 0)), (1, (0, 0, 1)))
    g = _poly(domain, order, (6, (0, 2, 0)), (5, (0, 0, 0)))
    pair = g_pair_z(f, g)
    assert pair == merge_g_pair_z(f, g)
    assert leading_term(pair) == (2, (1, 2, 0))


@pytest.mark.parametrize("new, frozen, domain", [
    (new, frozen, domain) for new, frozen, domains in PAIRS[2:]
    for domain in (FIELDS + INTEGERS if new is s_polynomial_field else domains)])
def test_same_errors_as_reference(new, frozen, domain):
    """Zero inputs, and a field S-polynomial outside a field, raise as before."""
    zero = Polynomial.zero(ring(("y", "x"), Lex(), domain))
    three = Polynomial.constant(zero.ring, 3)
    for f, g in ((zero, three), (three, zero), (zero, zero), (three, three)):
        assert _outcome(new, f, g) == _outcome(frozen, f, g)
    assert isinstance(_outcome(new, zero, three), tuple)


@pytest.mark.parametrize("new, frozen, domain, other", [
    (s_pair_z, merge_s_pair_z, ZZ, ModularDomain(7)),
    (g_pair_z, merge_g_pair_z, ZZ, ModularDomain(7)),
    (s_polynomial_field, merge_s_polynomial_field, QQ, ModularDomain(7)),
], ids=["s_pair_z", "g_pair_z", "s_polynomial_field"])
@pytest.mark.parametrize("other_order", [False, True], ids=["other-domain", "other-order"])
def test_two_rings_raise_ring_mismatch(new, frozen, domain, other, other_order):
    """x^2+y and xy+3 of rings that differ in the domain or in the order:
    the builders refuse them as their frozen copies do, rather than answer
    in the first argument's ring (y^2-3x over ZZ, once)."""
    f = _poly(domain, Lex(), (1, (2, 0)), (1, (0, 1)), variables=("x", "y"))
    second = (domain, DegRevLex()) if other_order else (other, Lex())
    g = _poly(*second, (1, (1, 1)), (3, (0, 0)), variables=("x", "y"))
    for fn in (new, frozen):
        with pytest.raises(RingMismatch):
            fn(f, g)
