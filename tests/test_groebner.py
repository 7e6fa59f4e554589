import pytest
from hypothesis import given, settings

import oracle as O
import strategies as sts
from modgrob import (
    QQ,
    ZZ,
    DegRevLex,
    DomainError,
    GroebnerBasis,
    InvalidLimit,
    Lex,
    ModularDomain,
    Polynomial,
    ResourceLimitExceeded,
    RunStats,
    buchberger_field,
    buchberger_z,
    change_domain,
    g_pair_z,
    gb_equal,
    gb_mod_m,
    ideal_member,
    is_groebner_basis,
    monic,
    normal_form,
    parse_polynomial,
    s_pair_z,
    s_polynomial_field,
)
from modgrob.formatting import format_basis
from modgrob.polyring import ring

R1 = ring(("x",), Lex(), ZZ)
R1Q = ring(("x",), Lex(), QQ)
R2 = ring(("y", "x"), Lex(), ZZ)
R2Q = ring(("y", "x"), Lex(), QQ)
R3 = ring(("z", "y", "x"), DegRevLex(), ZZ)

CHAIN = [parse_polynomial(s, R3) for s in ("3z-y", "3y-x", "3x")]


def P(text, ring_=R2):
    return parse_polynomial(text, ring_)


# ---------------------------------------------------------------------------
# normal forms

def test_normal_form_self():
    f = P("3y2-yx")
    assert normal_form(f, [f]).is_zero


def test_normal_form_euclidean_step():
    assert normal_form(P("5x", R1), [P("3x", R1)]) == P("2x", R1)


def test_normal_form_field_case():
    assert normal_form(P("5x", R1Q), [P("3x", R1Q)]).is_zero


def test_normal_form_negative_coefficient_canonicalizes():
    # residues are canonical in [0, lc): -x == -1*3x + 2x
    assert normal_form(P("-x", R1), [P("3x", R1)]) == P("2x", R1)


def test_normal_form_idempotent_examples():
    basis = buchberger_z(CHAIN)
    for text in ("z2", "9z", "yx2-3z", "27z+y"):
        f = parse_polynomial(text, R3)
        r = normal_form(f, basis)
        assert normal_form(r, basis) == r


# ---------------------------------------------------------------------------
# pair polynomials

def test_s_polynomial_of_equal_inputs_vanishes():
    f = P("y2+x")
    fq = change_domain(f, QQ)
    assert s_polynomial_field(fq, fq).is_zero


def test_s_polynomial_single_terms_cancel():
    assert s_polynomial_field(P("x2", R2Q), P("xy", R2Q)).is_zero


def test_s_polynomial_expansion():
    # lex x > y here, so use a ring listing x first
    rxy = ring(("x", "y"), Lex(), QQ)
    f = parse_polynomial("x2+y", rxy)
    g = parse_polynomial("xy+1", rxy)
    assert s_polynomial_field(f, g) == parse_polynomial("y2-x", rxy)


def test_s_pair_z_single_terms():
    assert s_pair_z(P("2x"), P("3y")).is_zero


def test_g_pair_z_examples():
    assert g_pair_z(P("2x", R1), P("3x", R1)) == P("x", R1)
    assert g_pair_z(P("4", R1), P("6", R1)) == P("2", R1)


# ---------------------------------------------------------------------------
# completion over fields

def test_zero_ideal_over_q():
    basis = buchberger_field([Polynomial.zero(R1Q)])
    assert basis.elements == ()
    assert format_basis(basis) == "0"


def test_monic_rescale():
    basis = buchberger_field([P("2x+2", R1Q)])
    assert [str(g) for g in basis.elements] == ["x+1"]


def test_corpus_ideal_over_q_matches_oracle():
    gens = [P(s, R2Q) for s in ("3y2x-5yx2+2x3", "-7y3x+5y2x2", "7y6-2y3x3+yx5")]
    mine = buchberger_field(gens)
    theirs = O.field_buchberger([O.from_pkg(g) for g in gens], O.key_lex, O.q_inv)
    assert [O.from_pkg(g) for g in mine.elements] == theirs


# ---------------------------------------------------------------------------
# completion over ZZ

def test_gcd_of_scalar_multiples():
    assert [str(g) for g in buchberger_z([P("2x", R1), P("3x", R1)])] == ["x"]


def test_constant_gcd():
    basis = buchberger_z([P("4", R1), P("6", R1)])
    assert [str(g) for g in basis] == ["2"]


def test_chain_ideal_matches_oracle():
    mine = buchberger_z(CHAIN)
    theirs = O.z_strong_buchberger([O.from_pkg(g) for g in CHAIN], O.key_degrevlex)
    assert [O.from_pkg(g) for g in mine.elements] == theirs


def test_content_is_kept():
    # <2x> != <x> over ZZ
    basis = buchberger_z([P("2x", R1)])
    assert [str(g) for g in basis] == ["2x"]
    assert not ideal_member(P("x", R1), basis)


def test_product_criterion_needs_coprime_lead_coefficients():
    # coprime lead monomials with equal non-unit lead coefficients: the
    # S-pair gives y - x and must not be skipped
    gens = [P("2x+1"), P("2y+1")]
    basis = buchberger_z(gens)
    assert ideal_member(P("y-x"), basis)
    assert is_groebner_basis(list(basis.elements))


# ---------------------------------------------------------------------------
# membership

def test_membership_literal():
    basis = buchberger_z(CHAIN)
    for g in CHAIN:
        assert ideal_member(g, basis)


def test_membership_torsion_split():
    basis = buchberger_z(CHAIN)
    z = parse_polynomial("z", R3)
    assert not ideal_member(9 * z, basis)
    assert ideal_member(27 * z, basis)
    # cross-check with the degree-bounded lattice oracle
    og = [O.from_pkg(g) for g in CHAIN]
    assert not O.z_member_bounded(og, {(1, 0, 0): 9}, 2)
    assert O.z_member_bounded(og, {(1, 0, 0): 27}, 2)


# ---------------------------------------------------------------------------
# gb_mod_m

def test_gb_mod_m_examples():
    x, two, four = P("x", R1), P("2", R1), P("4", R1)
    assert [str(g) for g in gb_mod_m([x], 4)] == ["x"]
    assert [str(g) for g in gb_mod_m([x, two], 4)] == ["x", "2"]
    assert [str(g) for g in gb_mod_m([x, four], 4)] == ["x"]
    with pytest.raises(ValueError):
        gb_mod_m([x], 1)


def test_gb_mod_m_matches_oracle_route():
    og = [O.from_pkg(g) for g in CHAIN]
    for m in (4, 9, 27):
        mine = gb_mod_m(CHAIN, m)
        theirs = O.zm_basis(og, m, O.key_degrevlex)
        assert [O.from_pkg(g) for g in mine.elements] == theirs


def test_gb_mod_m_one_variable_membership_sweep():
    gens = [P("6x2+3x", R1), P("4x3", R1)]
    og = [O.from_pkg(g) for g in gens]
    for m in (4, 9, 12):
        basis = gb_mod_m(gens, m)
        member = O.zm_lattice(og, m, 1, 10)
        for e in range(7):
            mono = (e,)
            image = Polynomial.from_terms(basis.ring, [(1, mono)])
            assert normal_form(image, basis).is_zero == member({mono: 1})


def test_mod_m_s_pairs_reduce_to_zero():
    # consistency inside (ZZ/m)[X]: lifted S-combinations reduce to zero
    basis = gb_mod_m(CHAIN, 9)
    elems = list(basis.elements)
    for i in range(len(elems)):
        for j in range(i + 1, len(elems)):
            f, g = elems[i], elems[j]
            lifted_s = s_pair_z(change_domain(f, ZZ), change_domain(g, ZZ))
            image = change_domain(lifted_s, ModularDomain(9))
            assert normal_form(image, basis).is_zero


# ---------------------------------------------------------------------------
# equality and canonical form

def test_gb_equal_identity_and_mismatch():
    b1 = gb_mod_m([P("x", R1)], 4)
    b2 = gb_mod_m([P("x", R1), P("2", R1)], 4)
    assert gb_equal(b1, b1)
    assert not gb_equal(b1, b2)


def test_gb_equal_requires_reduced():
    basis = buchberger_z([P("x", R1)])
    loose = GroebnerBasis(basis.ring, basis.elements, reduced=False)
    with pytest.raises(ValueError):
        gb_equal(basis, loose)


@given(sts.ring_and_polys(count=3, domains=(ZZ, QQ), max_degree=2, max_coeff=5))
@settings(max_examples=40)
def test_reduced_basis_unique_under_permutation(data):
    ring_, polys = data
    if all(p.is_zero for p in polys):
        return
    compute = buchberger_z if ring_.domain is ZZ else buchberger_field
    b1 = compute(polys)
    b2 = compute(list(reversed(polys)) + [polys[0]])
    assert gb_equal(b1, b2)


@given(sts.ring_and_polys(count=2, domains=(ZZ,), max_degree=2, max_coeff=5))
@settings(max_examples=40)
def test_completion_soundness_and_containment(data):
    _, polys = data
    if all(p.is_zero for p in polys):
        return
    basis = buchberger_z(polys)
    elems = list(basis.elements)
    assert is_groebner_basis(elems)
    for p in polys:
        assert normal_form(p, basis).is_zero


@given(sts.ring_and_polys(count=2, domains=(ZZ,), max_degree=2, max_coeff=5))
@settings(max_examples=30)
def test_agreement_over_q(data):
    _, polys = data
    if all(p.is_zero for p in polys):
        return
    ring_q = ring(polys[0].ring.variables, polys[0].ring.order, QQ)
    basis_z = buchberger_z(polys)
    basis_q = buchberger_field([change_domain(p, QQ) for p in polys], ring=ring_q)
    z_over_q = [monic(change_domain(g, QQ)) for g in basis_z.elements]
    for g in z_over_q:
        assert normal_form(g, basis_q).is_zero
    for g in basis_q.elements:
        assert normal_form(g, z_over_q).is_zero if z_over_q else g.is_zero


# ---------------------------------------------------------------------------
# resource guard

def test_resource_limit_triggers():
    gens = [P(s, ring(("z", "y", "x"), Lex(), ZZ))
            for s in ("3z2-y2+zx", "7yx2-z-1", "5x3+2zy-4")]
    with pytest.raises(ResourceLimitExceeded):
        buchberger_z(gens, RunStats(max_pairs=2))


def test_negative_reduction_budget_is_refused():
    with pytest.raises(InvalidLimit, match="^reduction budget must be >= 0, got -1$"):
        RunStats(max_reductions=-1)
    assert RunStats(max_reductions=0).max_reductions == 0


def test_domain_checks():
    with pytest.raises(DomainError):
        buchberger_field([P("x")])
    with pytest.raises(DomainError):
        buchberger_z([P("x", R1Q)])
    composite = ring(("x",), Lex(), ModularDomain(6))
    with pytest.raises(DomainError):
        buchberger_field([parse_polynomial("x", composite)])
