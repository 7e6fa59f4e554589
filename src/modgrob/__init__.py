"""Groebner bases over ZZ, QQ and ZZ/m, torsion exponents of polynomial
quotients, prefix-equality certificates for streamed ideals, and E. Arnold's
modular verification conditions."""

from .arnold import (
    ArnoldReport,
    arnold_conditions,
    homogenize_ideal,
)
from .errors import (
    DomainError,
    ExponentOverflow,
    InvalidLimit,
    ModGrobError,
    NonMember,
    NotCoprime,
    OracleFailure,
    ParseError,
    ResourceLimitExceeded,
    RingMismatch,
    StreamExhausted,
    ZeroPolynomial,
)
from .formatting import format_basis
from .groebner import (
    GroebnerBasis,
    RunStats,
    buchberger_field,
    buchberger_z,
    g_pair_z,
    gb_equal,
    gb_mod_m,
    ideal_member,
    is_groebner_basis,
    normal_form,
    s_pair_z,
    s_polynomial_field,
)
from .intarith import crt_coefficients, ext_gcd, factorize, is_prime
from .lemma import (
    Certificate,
    IdealOracle,
    main_lemma_check,
    solve_problem_p,
)
from .parser import ProblemFile, parse_polynomial, parse_problem
from .polyring import (
    QQ,
    ZZ,
    Block,
    DegRevLex,
    IntegerDomain,
    Lex,
    ModularDomain,
    Polynomial,
    RationalDomain,
    RingDescriptor,
    change_domain,
    homogenize,
    is_homogeneous,
    leading_coefficient,
    leading_monomial,
    leading_term,
    monic,
    monomial_divides,
    monomial_lcm,
    ring,
)
from .torsion import (
    TorsionReport,
    minimal_multiplier,
    torsion_exponent,
)

__all__ = [
    "ArnoldReport", "arnold_conditions", "homogenize_ideal", "DomainError",
    "InvalidLimit", "ModGrobError", "NonMember", "NotCoprime", "OracleFailure",
    "ParseError", "ResourceLimitExceeded", "RingMismatch", "StreamExhausted",
    "ZeroPolynomial", "format_basis", "GroebnerBasis", "RunStats",
    "buchberger_field", "buchberger_z", "g_pair_z", "gb_equal", "gb_mod_m",
    "ideal_member", "is_groebner_basis", "normal_form", "s_pair_z",
    "s_polynomial_field", "crt_coefficients", "ext_gcd", "factorize",
    "is_prime", "Certificate", "IdealOracle",
    "main_lemma_check", "solve_problem_p", "ProblemFile", "parse_polynomial",
    "parse_problem", "QQ", "ZZ", "Block", "DegRevLex", "IntegerDomain", "Lex",
    "ModularDomain", "Polynomial", "RationalDomain", "RingDescriptor",
    "change_domain", "homogenize", "is_homogeneous", "leading_coefficient",
    "leading_monomial", "leading_term", "monic", "monomial_divides",
    "monomial_lcm", "ring", "TorsionReport", "minimal_multiplier",
    "torsion_exponent", "ExponentOverflow",
]
