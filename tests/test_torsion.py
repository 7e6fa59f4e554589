import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle as O
import strategies as sts
from modgrob import (
    QQ,
    ZZ,
    Block,
    DegRevLex,
    DomainError,
    Lex,
    NonMember,
    Polynomial,
    ResourceLimitExceeded,
    RingDescriptor,
    RingMismatch,
    RunStats,
    buchberger_z,
    change_domain,
    gb_equal,
    ideal_member,
    minimal_multiplier,
    normal_form,
    parse_polynomial,
    torsion_exponent,
)
from modgrob.groebner import buchberger_field
from modgrob.intarith import factorize
from modgrob.polyring import poly_scale, ring, with_domain
from reference import reference_reduce

R1 = ring(("x",), Lex(), ZZ)
R3 = ring(("z", "y", "x"), DegRevLex(), ZZ)
CHAIN = [parse_polynomial(s, R3) for s in ("3z-y", "3y-x", "3x")]


def P(text, ring_=R1):
    return parse_polynomial(text, ring_)


# ---------------------------------------------------------------------------
# saturation / contraction

@given(sts.rings(domains=(ZZ,), allow_block=True).flatmap(
    lambda r: st.tuples(st.just(r), st.lists(st.tuples(
        st.integers(-9, 9), sts.bounded_monomials(r.arity, 4)), max_size=5))))
def test_zero_y_exponent_keeps_the_order(ring_and_terms):
    """The saturation moves polynomials into the ring with Y in front, under
    Block((0,), Lex(), order), by prepending Y's exponent 0 to each
    monomial, and back by dropping it, without re-sorting.  Both agree
    with ``Polynomial.from_terms``, over Lex, DegRevLex and Block orders."""
    ring_, terms = ring_and_terms
    ext = RingDescriptor(("Y",) + ring_.variables, Block((0,), Lex(), ring_.order), ZZ)
    f = Polynomial.from_terms(ring_, terms)
    lifted = Polynomial(ext, tuple((c, (0,) + m) for c, m in f.terms))
    assert lifted == Polynomial.from_terms(ext, [(c, (0,) + m) for c, m in terms])
    assert Polynomial(ring_, tuple((c, m[1:]) for c, m in lifted.terms)) == f


def test_zero_ideal_contracts_to_nothing():
    assert torsion_exponent([Polynomial.zero(R1)]).saturation_basis == ()


def test_contraction_of_scaled_variable():
    assert torsion_exponent([P("3x")]).saturation_basis == (P("x"),)


def test_chain_contraction_is_full_linear_ideal():
    contracted = torsion_exponent(CHAIN).saturation_basis
    assert [str(g) for g in contracted] == ["z", "y", "x"]
    # same QQ-ideal as the generators themselves
    ring_q = with_domain(R3, QQ)
    basis_q = buchberger_field([change_domain(g, QQ) for g in CHAIN], ring=ring_q)
    sat_q = buchberger_field([change_domain(g, QQ) for g in contracted], ring=ring_q)
    assert gb_equal(basis_q, sat_q)


@given(sts.ring_and_polys(count=2, domains=(ZZ,), max_degree=2, max_coeff=5,
                          order_pool=(DegRevLex(),)))
@settings(max_examples=25)
def test_contraction_generates_same_rational_ideal(data):
    ring_, polys = data
    if all(p.is_zero for p in polys):
        return
    contracted = torsion_exponent(polys).saturation_basis
    ring_q = with_domain(ring_, QQ)
    basis_q = buchberger_field([change_domain(g, QQ) for g in polys], ring=ring_q)
    for g in contracted:
        assert normal_form(change_domain(g, QQ), basis_q).is_zero
    sat_q = buchberger_field([change_domain(g, QQ) for g in contracted], ring=ring_q) \
        if contracted else None
    if sat_q is not None:
        assert gb_equal(basis_q, sat_q)
    else:
        assert len(basis_q) == 0


# ---------------------------------------------------------------------------
# minimal multipliers

def reference_multiplier(g, basis_z):
    """The multiplier by cofactor division: divide g over QQ by the strong
    basis viewed over QQ, take the lcm of the cofactor denominators as k0
    and strip its primes while membership holds."""
    view = [change_domain(b, QQ) for b in basis_z]
    quotients, remainder = reference_reduce(change_domain(g, QQ), view,
                                            want_quotients=True)
    assert remainder.is_zero
    k = math.lcm(*(c.denominator for q in quotients for c, _ in q.terms))
    for p, _ in factorize(k):
        while k % p == 0 and ideal_member(poly_scale(g, k // p), basis_z):
            k //= p
    return k


def test_multiplier_of_member_is_one():
    basis_z = buchberger_z([P("3x")])
    assert minimal_multiplier(P("3x"), basis_z) == 1


def test_multiplier_of_saturated_variable():
    basis_z = buchberger_z([P("3x")])
    assert minimal_multiplier(P("x"), basis_z) == 3


def test_multiplier_in_chain():
    basis_z = buchberger_z(CHAIN)
    z = parse_polynomial("z", R3)
    assert minimal_multiplier(z, basis_z) == 27


def test_multiplier_steps_draw_on_the_run_budget():
    """The pseudo-division and the membership tests are charged as steps
    outside completion: 6 for z against the chain's strong basis."""
    basis_z = buchberger_z(CHAIN)
    z = parse_polynomial("z", R3)
    stats = RunStats()
    assert minimal_multiplier(z, basis_z, stats) == 27
    assert (stats.pairs, stats.reductions, stats.steps) == (0, 0, 6)
    assert minimal_multiplier(z, basis_z, RunStats(max_reductions=6)) == 27
    with pytest.raises(ResourceLimitExceeded, match=r"^reduction budget exhausted \(5\)"):
        minimal_multiplier(z, basis_z, RunStats(max_reductions=5))


def test_multiplier_rejects_non_members():
    basis_z = buchberger_z([P("x2")])
    with pytest.raises(NonMember):
        minimal_multiplier(P("x+1"), basis_z)


def test_multiplier_rejects_other_ring():
    basis_z = buchberger_z([P("3x")])
    with pytest.raises(RingMismatch):
        minimal_multiplier(parse_polynomial("x", R3), basis_z)


def test_multiplier_needs_zz():
    ring_q = with_domain(R1, QQ)
    basis_q = buchberger_field([P("3x", ring_q)])
    with pytest.raises(DomainError):
        minimal_multiplier(P("x", ring_q), basis_q)


@given(sts.ring_and_polys(count=3, domains=(ZZ,), max_degree=2, max_coeff=5,
                          order_pool=(DegRevLex(), Lex())))
@example((R3, CHAIN))
@settings(max_examples=60)
def test_multipliers_match_cofactor_division(data):
    _, polys = data
    if all(p.is_zero for p in polys):
        return
    basis_z = buchberger_z(polys)
    report = torsion_exponent(polys)
    assert [m for _, m in report.multipliers] == \
        [reference_multiplier(g, basis_z) for g, _ in report.multipliers]


# ---------------------------------------------------------------------------
# torsion exponent

def test_torsion_free_quotient():
    assert torsion_exponent([P("x")]).exponent == 1


def test_scaled_variable():
    report = torsion_exponent([P("3x")])
    assert report.exponent == 3
    assert [(str(g), m) for g, m in report.multipliers] == [("x", 3)]


def test_chain_exponent_and_multipliers():
    report = torsion_exponent(CHAIN)
    assert report.exponent == 27
    assert [(str(g), m) for g, m in report.multipliers] == \
        [("z", 27), ("y", 9), ("x", 3)]


def test_constant_in_ideal_no_special_casing():
    report = torsion_exponent([P("x"), P("4")])
    assert report.exponent == 4
    assert [(str(g), m) for g, m in report.multipliers] == [("1", 4)]


def test_exponent_cross_checked_by_lattice_oracle():
    og = [O.from_pkg(g) for g in CHAIN]
    z_mono, y_mono, x_mono = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    assert O.z_member_bounded(og, {x_mono: 3}, 2)
    assert not O.z_member_bounded(og, {x_mono: 1}, 2)
    assert O.z_member_bounded(og, {y_mono: 9}, 2)
    assert not O.z_member_bounded(og, {y_mono: 3}, 2)
    assert O.z_member_bounded(og, {z_mono: 27}, 2)
    assert not O.z_member_bounded(og, {z_mono: 9}, 2)


def test_minimality_witnesses():
    report = torsion_exponent(CHAIN)
    basis_z = buchberger_z(CHAIN)
    m = report.exponent
    for g, _ in report.multipliers:
        assert ideal_member(poly_scale(g, m), basis_z)
    for p, _ in factorize(m):
        assert any(not ideal_member(poly_scale(g, m // p), basis_z)
                   for g, _ in report.multipliers)


def test_generator_order_does_not_matter():
    forward = torsion_exponent(CHAIN).exponent
    backward = torsion_exponent(list(reversed(CHAIN))).exponent
    assert forward == backward == 27


@given(sts.ring_and_polys(count=2, domains=(ZZ,), max_degree=2, max_coeff=4,
                          order_pool=(DegRevLex(),)))
@settings(max_examples=20)
def test_exponent_invariants_random(data):
    _, polys = data
    if all(p.is_zero for p in polys):
        return
    report = torsion_exponent(polys)
    basis_z = buchberger_z(polys)
    assert report.exponent >= 1
    for g, m_g in report.multipliers:
        assert ideal_member(poly_scale(g, m_g), basis_z)
        for p, _ in factorize(m_g):
            assert not ideal_member(poly_scale(g, m_g // p), basis_z)
    assert report.exponent == 1 or report.multipliers
