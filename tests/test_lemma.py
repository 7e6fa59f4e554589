import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modgrob import (
    QQ,
    Certificate,
    IdealOracle,
    OracleFailure,
    StreamExhausted,
    buchberger_field,
    buchberger_z,
    crt_coefficients,
    gb_equal,
    gb_mod_m,
    ideal_member,
    main_lemma_check,
    normal_form,
    parse_polynomial,
    solve_problem_p,
)
from modgrob.polyring import Lex, ZZ, change_domain, ring, with_domain
from test_pair_criteria import zz_ideals

R1 = ring(("x",), Lex(), ZZ)
R2 = ring(("y", "x"), Lex(), ZZ)


def P(text, ring_=R1):
    return parse_polynomial(text, ring_)


def test_full_generating_set_is_accepted():
    gens = [P("2x"), P("3x")]
    cert = main_lemma_check(IdealOracle(gens), gens)
    assert cert.accepted
    assert cert.q_match
    assert all(ok for _, ok in cert.modulus_verdicts)
    assert gb_equal(cert.basis, buchberger_z(gens))


def test_sub_ideal_with_equal_rational_span_is_rejected():
    # I = <x, 2>, J = <x, 4>: same over QQ, m = 4, mod-4 bases differ
    oracle = IdealOracle([P("x"), P("2")])
    cert = main_lemma_check(oracle, [P("x"), P("4")])
    assert not cert.accepted
    assert cert.q_match
    assert cert.exponent == 4
    assert cert.modulus_verdicts == ((4, False),)
    witness = cert.mismatches[0]
    assert witness.modulus == 4
    assert [str(g) for g in witness.oracle_basis] == ["x", "2"]
    assert [str(g) for g in witness.candidate_basis] == ["x"]
    # the witness is independently re-checkable
    assert gb_equal(gb_mod_m([P("x"), P("2")], 4), witness.oracle_basis)
    assert gb_equal(gb_mod_m([P("x"), P("4")], 4), witness.candidate_basis)
    # and indeed 2 is not in J
    assert not ideal_member(P("2"), buchberger_z([P("x"), P("4")]))


def test_torsion_free_prefix_accepted_from_rational_verdict_alone():
    oracle = IdealOracle([P("x")])
    cert = main_lemma_check(oracle, [P("x")])
    assert cert.accepted
    assert cert.exponent == 1
    assert cert.factorization == ()
    assert cert.modulus_verdicts == ()


def test_rational_mismatch_rejects_without_torsion_work():
    oracle = IdealOracle([P("x")])
    cert = main_lemma_check(oracle, [P("x2")])
    assert not cert.accepted
    assert not cert.q_match
    assert cert.exponent is None
    assert cert.mismatches[0].stage == "rationals"


def test_solve_problem_p_two_step():
    oracle = IdealOracle([P("2x"), P("3x")])
    history = []
    basis, cert = solve_problem_p([P("2x"), P("3x")], oracle, history=history)
    assert cert.accepted and cert.prefix_length == 2
    assert [str(g) for g in basis] == ["x"]
    assert len(history) == 1
    rejected = history[0]
    assert rejected.prefix_length == 1
    assert rejected.q_match
    assert rejected.exponent == 2
    assert rejected.modulus_verdicts == ((2, False),)
    assert rejected.mismatches[0].stage == "mod 2"


def test_solve_problem_p_accepts_immediately():
    basis, cert = solve_problem_p([P("x")], IdealOracle([P("x")]))
    assert cert.prefix_length == 1
    assert [str(g) for g in basis] == ["x"]


def test_stream_exhaustion_reports_rejections():
    history = []
    with pytest.raises(StreamExhausted):
        solve_problem_p([P("2x")], IdealOracle([P("x")]), history=history)
    assert len(history) == 1
    assert history[-1].prefix_length == 1


def test_generators_are_pulled_lazily():
    """Nothing after the accepted prefix is read, and the answer is the
    one a list gives."""
    def generators():
        yield P("2x")
        yield P("3x")
        raise AssertionError("pulled past the accepted prefix")

    oracle = IdealOracle([P("2x"), P("3x")])
    history = []
    basis, cert = solve_problem_p(generators(), oracle, history=history)
    list_history = []
    assert (basis, cert) == solve_problem_p([P("2x"), P("3x"), P("5x")], oracle,
                                            history=list_history)
    assert history == list_history


def test_prefix_monotonicity():
    gens = [P("3y2-yx", R2), P("3yx-x3", R2), P("x3", R2)]
    oracle = IdealOracle(gens)
    accepted_at = None
    for k in range(1, len(gens) + 1):
        cert = main_lemma_check(oracle, gens[:k])
        if accepted_at is not None:
            assert cert.accepted
        elif cert.accepted:
            accepted_at = k
    assert accepted_at is not None


def test_two_variable_stream_accepted_at_full_prefix():
    gens = [P("3y2-yx", R2), P("3yx-x3", R2), P("3x3", R2)]
    oracle = IdealOracle(gens)
    history = []
    basis, cert = solve_problem_p(gens, oracle, history=history)
    assert cert.prefix_length == 3
    assert [c.prefix_length for c in history] == [1, 2]
    assert gb_equal(basis, buchberger_z(gens))


def test_acceptance_implies_containment_of_oracle_generators():
    gens = [P("3y2-yx", R2), P("3yx-x3", R2), P("3x3", R2)]
    oracle = IdealOracle(gens)
    basis, cert = solve_problem_p(gens, oracle)
    assert cert.accepted
    for g in gens:
        assert normal_form(g, basis).is_zero


def test_crt_identity_for_accepted_factorizations():
    oracle = IdealOracle([P("6x"), P("10x"), P("15x")])
    cert = main_lemma_check(oracle, [P("6x"), P("10x"), P("15x")])
    assert cert.accepted
    if cert.factorization:
        moduli = [p**a for p, a in cert.factorization]
        b = crt_coefficients(moduli)
        m = math.prod(moduli)
        assert sum(bi * (m // mi) for bi, mi in zip(b, moduli)) == 1


def test_oracle_failures_are_wrapped():
    class Broken:
        def basis_over_q(self):
            raise RuntimeError("boom")

        def basis_mod(self, m):
            raise RuntimeError("boom")

    with pytest.raises(OracleFailure):
        main_lemma_check(Broken(), [P("x")])


def test_oracle_wrong_ring_rejected():
    other = IdealOracle([P("y", R2)])
    with pytest.raises(OracleFailure):
        main_lemma_check(other, [P("x")])


def test_certificate_accepted_property_consistency():
    cert = Certificate(prefix_length=1, q_match=True, exponent=1)
    assert cert.accepted
    cert = Certificate(prefix_length=1, q_match=False)
    assert not cert.accepted
    cert = Certificate(prefix_length=1, q_match=True, exponent=4,
                       modulus_verdicts=((4, False),))
    assert not cert.accepted


@st.composite
def streamed_prefixes(draw):
    """(generators of I, length of the prefix J) over ZZ."""
    gens = draw(zz_ideals())
    return gens, draw(st.integers(min_value=1, max_value=len(gens)))


@settings(max_examples=100)
@given(streamed_prefixes())
@example(([P("x2"), P("x")], 1))   # rejected over QQ
@example(([P("2x"), P("3x")], 1))  # passes over QQ, rejected mod 3
def test_qq_candidate_is_the_rational_basis(instance):
    """The certificate reads its QQ candidate off the strong ZZ basis of J.
    It is the basis completion over QQ gives: the rejection's witness when
    the prefix fails over QQ, and the oracle's basis when it passes."""
    gens, k = instance
    oracle = IdealOracle(gens)
    cert = main_lemma_check(oracle, gens[:k])
    q_ring = with_domain(gens[0].ring, QQ)
    expected = buchberger_field([change_domain(g, QQ) for g in gens[:k]], ring=q_ring)
    if cert.q_match:
        assert gb_equal(oracle.basis_over_q(), expected)
    else:
        (witness,) = cert.mismatches
        assert witness.stage == "rationals"
        assert gb_equal(witness.candidate_basis, expected)
