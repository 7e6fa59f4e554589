"""Arnold's conditions: examples, and a differential test against the
all-pairs form of the verifier."""

import math
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from modgrob import (
    QQ,
    ResourceLimitExceeded,
    RunStats,
    ZeroPolynomial,
    arnold_conditions,
    buchberger_field,
    change_domain,
    gb_equal,
    homogenize_ideal,
    is_homogeneous,
    monic,
    normal_form,
    parse_polynomial,
)
from modgrob.arnold import (
    CONDITION_FAILED,
    INAPPLICABLE,
    VERIFIED,
    ArnoldReport,
    _nonzero_images_mod_p,
)
from modgrob.intarith import is_prime
from modgrob.polyring import (
    DegRevLex,
    IntegerDomain,
    Lex,
    ModularDomain,
    Polynomial,
    ZZ,
    leading_monomial,
    poly_scale,
    ring,
    with_domain,
)
from reference import canonicalize_list, reference_is_groebner_basis

R1 = ring(("x",), Lex(), ZZ)
R2 = ring(("x", "h"), Lex(), ZZ)


def P(text, ring_=R1):
    return parse_polynomial(text, ring_)


def canonical_basis(polys):
    """The reduced basis of polys, a Groebner basis of a nonzero ideal."""
    ring_ = polys[0].ring
    return canonicalize_list(polys, ring_, RunStats())


def test_nonhomogeneous_counterexample_all_conditions_hold():
    # I = (2x+1), G = {1}, p = 2: every condition is true, yet G is not a
    # basis of QQ I; only the homogeneity guard blocks the wrong verdict
    report = arnold_conditions([P("2x+1")], [Polynomial.constant(R1, 1)], 2)
    assert report.conditions == (True, True, True, True)
    assert not report.homogeneous_input
    assert report.verdict == INAPPLICABLE
    assert report.failed_conditions == ()
    # and the conclusion would indeed be wrong:
    q_basis = buchberger_field([change_domain(P("2x+1"), QQ)])
    assert [str(g) for g in q_basis] != ["1"]


def test_homogenized_counterexample_fails_condition_three():
    report = arnold_conditions([P("2x+h", R2)], [P("h", R2)], 2)
    assert report.condition1 and report.condition2 and report.condition4
    assert not report.condition3
    assert report.homogeneous_input
    assert report.verdict == CONDITION_FAILED
    assert report.failed_conditions == (3,)


def test_identity_case_verified():
    for p in (2, 5, 97):
        report = arnold_conditions([P("x")], [P("x")], p)
        assert report.conditions == (True, True, True, True)
        assert report.verdict == VERIFIED


def test_prime_is_validated():
    with pytest.raises(ValueError):
        arnold_conditions([P("x")], [P("x")], 6)


def test_zero_candidate_rejected():
    with pytest.raises(ZeroPolynomial):
        arnold_conditions([P("x")], [Polynomial.zero(R1)], 2)


def test_verified_soundness_on_homogeneous_instances():
    # whenever the verdict is Verified, G (monic, canonicalized) is the
    # reduced basis of QQ I
    r2 = ring(("y", "x"), DegRevLex(), ZZ)
    cases = [
        (["y2-yx", "x2"], ["y2-yx", "x2"], 5),
        (["3y", "x"], ["3y", "x"], 7),
        (["y2", "yx", "x3"], ["y2", "yx", "x3"], 3),
    ]
    for i_texts, g_texts, p in cases:
        i_gens = [parse_polynomial(t, r2) for t in i_texts]
        g_set = [parse_polynomial(t, r2) for t in g_texts]
        report = arnold_conditions(i_gens, g_set, p)
        if report.verdict == VERIFIED:
            expected = buchberger_field([change_domain(f, QQ) for f in i_gens],
                                        ring=with_domain(r2, QQ))
            got = canonical_basis([monic(change_domain(g, QQ)) for g in g_set])
            assert gb_equal(expected, got)


def test_unlucky_prime_detected_via_condition_four():
    # G = the ZZ-basis of I = (3y - x) maps mod 3 to x with a different
    # lead monomial set
    r2 = ring(("y", "x"), Lex(), ZZ)
    i_gens = [parse_polynomial("3y-x", r2)]
    report = arnold_conditions(i_gens, i_gens, 3)
    assert not report.condition4
    assert report.verdict == CONDITION_FAILED


def test_homogenize_ideal_examples():
    out = homogenize_ideal([P("2x+1")])
    assert [str(g) for g in out] == ["2x+h"]
    assert out[0].ring.variables == ("x", "h")
    assert isinstance(out[0].ring.order, DegRevLex)

    r2 = ring(("x", "y"), DegRevLex(), ZZ)
    f = parse_polynomial("x2+xy", r2)
    out = homogenize_ideal([f])
    assert is_homogeneous(out[0])
    assert [m[:2] for _, m in out[0].terms] == [m for _, m in f.terms]

    assert homogenize_ideal([]) == []


def test_homogenize_ideal_avoids_name_clash():
    rh = ring(("h", "x"), Lex(), ZZ)
    f = parse_polynomial("2h+x2", rh)
    out = homogenize_ideal([f])
    assert out[0].ring.variables[-1] not in ("h", "x")
    assert is_homogeneous(out[0])


def reference_arnold_conditions(i_gens, g_set, p, limits=None):
    """``arnold_conditions`` as it stood before it reused the I mod p basis
    and monic(G): it checks every pair and completes G over QQ again.  Kept
    verbatim but for the all-pairs completeness check."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    i_gens = list(i_gens)
    g_set = list(g_set)
    if not i_gens:
        raise ValueError("need at least one generator for the ideal")
    ring_ = i_gens[0].ring
    if not isinstance(ring_.domain, IntegerDomain):
        raise ValueError("Arnold verification runs on input over ZZ")
    for g in g_set:
        if g.is_zero:
            raise ZeroPolynomial("zero polynomial in the candidate set")

    # (1) G mod p is a Groebner basis of I mod p: it completes to itself
    # and its canonical form equals the reduced basis of the image ideal.
    g_p = _nonzero_images_mod_p(g_set, p)
    i_p_basis = buchberger_field([change_domain(f, ModularDomain(p)) for f in i_gens],
                                 limits, ring=with_domain(ring_, ModularDomain(p)))
    if g_p:
        cond1 = (reference_is_groebner_basis(g_p)
                 and gb_equal(canonical_basis(g_p), i_p_basis))
    else:
        cond1 = len(i_p_basis) == 0

    # (2) G, made monic over QQ, completes to itself (G itself need not be
    # reduced; only completeness is demanded).
    g_q_monic = [monic(change_domain(g, QQ)) for g in g_set]
    cond2 = reference_is_groebner_basis(g_q_monic)

    # (3) QQ I lies inside the QQ-ideal generated by G.
    if g_set:
        g_q_basis = buchberger_field([change_domain(g, QQ) for g in g_set],
                                     limits, ring=with_domain(ring_, QQ))
        cond3 = all(normal_form(change_domain(f, QQ), g_q_basis).is_zero
                    for f in i_gens)
    else:
        cond3 = all(f.is_zero for f in i_gens)

    # (4) Lead monomials agree as sets, coefficients ignored.
    lm_g = {leading_monomial(g) for g in g_set}
    lm_gp = {leading_monomial(g) for g in g_p}
    cond4 = lm_g == lm_gp

    homogeneous = all(is_homogeneous(f) for f in i_gens + g_set)
    conditions = (cond1, cond2, cond3, cond4)
    failed = tuple(i + 1 for i, ok in enumerate(conditions) if not ok)
    if not homogeneous:
        verdict = INAPPLICABLE
    elif failed:
        verdict = CONDITION_FAILED
    else:
        verdict = VERIFIED
    return ArnoldReport(prime=p,
                        condition1=cond1,
                        condition2=cond2,
                        condition3=cond3,
                        condition4=cond4,
                        homogeneous_input=homogeneous,
                        verdict=verdict,
                        failed_conditions=failed)


BUDGET = partial(RunStats, max_pairs=300)  # fresh per call
PRIMES = (2, 3, 5, 32003)
CANDIDATES = ("scaled basis", "minus one", "lead divisible by p", "vanishing mod p",
              "empty", "generators")


@st.composite
def homogeneous_polynomials(draw, ring_):
    n = ring_.arity
    degree = draw(st.integers(min_value=1, max_value=3))
    terms = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        head = []
        for _ in range(n - 1):
            head.append(draw(st.integers(min_value=0, max_value=degree - sum(head))))
        coeff = draw(st.integers(min_value=-9, max_value=9).filter(bool))
        terms.append((coeff, tuple(head) + (degree - sum(head),)))
    f = Polynomial.from_terms(ring_, terms)
    assume(not f.is_zero)
    return f


def integer_scaled_basis(gens, limits=None):
    """The reduced QQ basis of the ideal, each element scaled into ZZ[X]."""
    ring_ = gens[0].ring
    basis = buchberger_field([change_domain(f, QQ) for f in gens], limits,
                             ring=with_domain(ring_, QQ))
    out = []
    for g in basis:
        scale = math.lcm(*(Fraction(c).denominator for c, _ in g.terms))
        out.append(Polynomial.from_terms(ring_, [(int(c * scale), m) for c, m in g.terms]))
    return out


@st.composite
def arnold_inputs(draw):
    variables = draw(st.sampled_from([("y", "x"), ("z", "y", "x")]))
    ring_ = ring(variables, draw(st.sampled_from([Lex(), DegRevLex()])), ZZ)
    i_gens = draw(st.lists(homogeneous_polynomials(ring_), min_size=1, max_size=3))
    p = draw(st.sampled_from(PRIMES))
    shape = draw(st.sampled_from(CANDIDATES))
    if shape == "generators":
        return i_gens, i_gens, p
    if shape == "empty":
        return i_gens, [], p
    try:
        g_set = integer_scaled_basis(i_gens, BUDGET())
    except ResourceLimitExceeded:
        assume(False)
    k = draw(st.integers(min_value=0, max_value=len(g_set) - 1))
    if shape == "minus one":
        g_set = g_set[:k] + g_set[k + 1:]
    elif shape == "lead divisible by p":
        g_set[k] = poly_scale(g_set[k], p)
    elif shape == "vanishing mod p":
        g_set = [poly_scale(g, p) for g in g_set]
    return i_gens, g_set, p


# G generates I but is not a Groebner basis: y^3 lies in QQ I and reduces
# to zero only against the completion of G, so condition 3 holds only if
# the verifier completes G when condition 2 fails.
R_XY = ring(("x", "y"), DegRevLex(), ZZ)
INCOMPLETE = ([P("x2+y2", R_XY), P("xy", R_XY), P("y3", R_XY)],
              [P("x2+y2", R_XY), P("xy", R_XY)], 5)


@given(arnold_inputs())
@example(INCOMPLETE)
@settings(max_examples=150)
def test_conditions_match_all_pairs_reference(case):
    i_gens, g_set, p = case
    try:
        expected = reference_arnold_conditions(i_gens, g_set, p, BUDGET())
    except ResourceLimitExceeded:
        assume(False)
    assert arnold_conditions(i_gens, g_set, p, BUDGET()) == expected
