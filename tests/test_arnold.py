import pytest

from modgrob import (
    QQ,
    ZeroPolynomial,
    arnold_conditions,
    buchberger_field,
    change_domain,
    gb_equal,
    homogenize_ideal,
    is_homogeneous,
    monic,
    parse_polynomial,
)
from modgrob.arnold import CONDITION_FAILED, INAPPLICABLE, VERIFIED
from modgrob.groebner import canonical_basis
from modgrob.polyring import DegRevLex, Lex, Polynomial, ZZ, ring, with_domain

R1 = ring(("x",), Lex(), ZZ)
R2 = ring(("x", "h"), Lex(), ZZ)


def P(text, ring_=R1):
    return parse_polynomial(text, ring_)


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

