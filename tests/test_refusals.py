"""Each entry point refuses malformed arguments with its own
exception and message, rather than computing with them."""

import pytest

from modgrob import (
    QQ,
    ZZ,
    DegRevLex,
    DomainError,
    GroebnerBasis,
    IdealOracle,
    Lex,
    ModularDomain,
    OracleFailure,
    Polynomial,
    RingMismatch,
    ZeroPolynomial,
    arnold_conditions,
    buchberger_z,
    crt_coefficients,
    gb_equal,
    gb_mod_m,
    homogenize,
    is_groebner_basis,
    main_lemma_check,
    minimal_multiplier,
    monic,
    normal_form,
    parse_polynomial,
    torsion_exponent,
)
from modgrob.polyring import monomial_key, ring

RX = ring(("x",), Lex(), ZZ)
RXQ = ring(("x",), Lex(), QQ)
RYX = ring(("y", "x"), Lex(), ZZ)


def P(text, ring_=RX):
    return parse_polynomial(text, ring_)


class _UnreducedOracle:
    """An oracle whose QQ basis is not marked reduced."""

    def basis_over_q(self):
        return GroebnerBasis(RXQ, (P("x", RXQ),), reduced=False)


@pytest.mark.parametrize("call, error, message", [
    # groebner
    (lambda: normal_form(P("x"), [Polynomial.zero(RX)]), ZeroPolynomial,
     "zero polynomial in reducer list"),
    (lambda: is_groebner_basis([P("x", ring(("x",), Lex(), ModularDomain(6)))]), DomainError,
     "ZZ/6: only fields and ZZ are supported"),
    (lambda: buchberger_z([]), ValueError,
     "cannot infer the ring from an empty generator list"),
    (lambda: buchberger_z([P("x"), 3]), TypeError, "expected Polynomial, got int"),
    (lambda: buchberger_z(["a"]), TypeError, "expected Polynomial, got str"),
    (lambda: is_groebner_basis([P("x"), 3]), TypeError, "expected Polynomial, got int"),
    (lambda: is_groebner_basis([P("x"), Polynomial.zero(RXQ)]), RingMismatch,
     "polynomials live in different rings"),
    (lambda: gb_mod_m([P("x", RXQ)], 5), DomainError, "gb_mod_m expects generators over ZZ"),
    (lambda: gb_equal(buchberger_z([P("x")]), [P("x")]), TypeError,
     "gb_equal compares GroebnerBasis values"),
    (lambda: gb_equal(buchberger_z([P("x")]), buchberger_z([P("x", RYX)])), RingMismatch,
     "bases live in different rings"),
    # lemma
    (lambda: IdealOracle([]), ValueError, "oracle needs at least one generator"),
    (lambda: IdealOracle([P("x", RXQ)]), ValueError, "oracle generators must live over ZZ"),
    (lambda: IdealOracle(["a"]), TypeError, "expected Polynomial, got str"),
    (lambda: main_lemma_check(_UnreducedOracle(), [P("x")]), OracleFailure,
     "oracle must return reduced GroebnerBasis values"),
    (lambda: main_lemma_check(IdealOracle([P("x")]), []), ValueError,
     "the prefix must contain at least one generator"),
    # arnold
    (lambda: arnold_conditions([], [], 2), ValueError,
     "need at least one generator for the ideal"),
    (lambda: arnold_conditions([P("x", RXQ)], [P("x", RXQ)], 2), ValueError,
     "Arnold verification runs on input over ZZ"),
    (lambda: arnold_conditions([P("x")], [P("x", ring(("x",), DegRevLex(), ZZ))], 2),
     RingMismatch, "candidate x is not over the ring of I"),
    (lambda: arnold_conditions([P("x")], [P("x", ring(("x",), Lex(), ModularDomain(7)))], 2),
     RingMismatch, "candidate x is not over the ring of I"),
    (lambda: arnold_conditions([P("x")], [P("2x", RXQ)], 2), RingMismatch,
     "candidate 2x is not over the ring of I"),
    # torsion
    (lambda: torsion_exponent([]), ValueError, "need at least one polynomial to fix the ring"),
    (lambda: torsion_exponent([P("x", RXQ)]), DomainError, "torsion exponent works over ZZ"),
    (lambda: torsion_exponent(["a"]), TypeError, "expected Polynomial, got str"),
    (lambda: minimal_multiplier("x", buchberger_z([P("x")])), TypeError,
     "expected Polynomial, got str"),
    # intarith
    (lambda: crt_coefficients([]), ValueError, "need at least one modulus"),
    # polyring
    (lambda: ModularDomain(1), DomainError, "modulus must be >= 2, got 1"),
    (lambda: monomial_key("lp"), TypeError, "unknown term order 'lp'"),
    (lambda: Polynomial.from_terms(RX, [(1, (1, 2))]), ValueError,
     "monomial (1, 2) has wrong arity for ('x',)"),
    (lambda: monic(P("2x")), DomainError, "monic rescaling needs a field domain"),
    (lambda: homogenize(P("x"), 0, RX), ValueError,
     "homogenization ring must have exactly one extra variable"),
], ids=["zero-reducer", "basis-check-over-zz6", "no-generators", "not-a-polynomial",
        "first-not-a-polynomial", "basis-check-not-a-polynomial", "basis-check-zero-other-ring",
        "gb-mod-m-over-qq", "gb-equal-non-basis", "gb-equal-other-ring",
        "oracle-no-generators", "oracle-over-qq", "oracle-not-a-polynomial",
        "oracle-unreduced-answer", "empty-prefix",
        "arnold-no-generators", "arnold-over-qq", "arnold-candidate-other-order",
        "arnold-candidate-mod-7", "arnold-candidate-over-qq", "torsion-no-generators",
        "torsion-over-qq", "torsion-not-a-polynomial", "multiplier-not-a-polynomial",
        "crt-no-moduli", "modulus-one", "unknown-order", "wrong-arity",
        "monic-over-zz", "homogenize-wrong-ring"])
def test_malformed_arguments_are_refused(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error and str(err.value) == message
