"""Prefix-equality certification for streamed ideals over ZZ.

Given generators f_1, f_2, ... of an unknown ideal I plus an oracle for
the reduced basis of QQ I and of I mod any m >= 2, a prefix ideal
J = (f_1 .. f_k) already equals I as soon as (a) J and I agree over QQ and
(b) they agree modulo every prime-power factor of the torsion exponent of
ZZ[X]/J.  The functions here run that check and drive it over a stream.
"""

from dataclasses import dataclass

from .errors import OracleFailure, ResourceLimitExceeded, StreamExhausted
from .groebner import (
    GroebnerBasis,
    _basis_over_q,
    _common_ring,
    _extend_mod_m,
    buchberger_field,
    buchberger_z,
    gb_equal,
    gb_mod_m,
)
from .intarith import factorize
from .polyring import QQ, IntegerDomain, ModularDomain, change_domain, with_domain
from .torsion import torsion_report


class IdealOracle:
    """Oracle built from a complete generating set, answering on demand."""

    def __init__(self, gens, limits=None):
        gens = list(gens)
        if not gens:
            raise ValueError("oracle needs at least one generator")
        if not isinstance(_common_ring(gens, None).domain, IntegerDomain):
            raise ValueError("oracle generators must live over ZZ")
        self._gens = gens
        self._limits = limits
        self._q_basis = None
        self._mod_bases = {}

    @property
    def ring(self):
        return self._gens[0].ring

    def basis_over_q(self):
        if self._q_basis is None:
            rational = [change_domain(g, QQ) for g in self._gens]
            self._q_basis = buchberger_field(rational, self._limits,
                                             ring=with_domain(self.ring, QQ))
        return self._q_basis

    def basis_mod(self, m):
        if m not in self._mod_bases:
            self._mod_bases[m] = gb_mod_m(self._gens, m, self._limits)
        return self._mod_bases[m]


@dataclass(frozen=True)
class BasisMismatch:
    """Re-checkable witness for a rejected prefix."""

    stage: str           # "rationals" or "mod <m>"
    modulus: int | None
    oracle_basis: GroebnerBasis
    candidate_basis: GroebnerBasis


@dataclass(frozen=True)
class Certificate:
    prefix_length: int
    q_match: bool
    exponent: int | None = None
    factorization: tuple = ()
    modulus_verdicts: tuple = ()   # ((m_i, matched), ...)
    mismatches: tuple = ()
    basis: GroebnerBasis | None = None

    @property
    def accepted(self):
        return (self.q_match
                and self.exponent is not None
                and all(ok for _, ok in self.modulus_verdicts))


def _oracle_answer(oracle, expected_ring, modulus=None):
    try:
        answer = oracle.basis_over_q() if modulus is None else oracle.basis_mod(modulus)
    except ResourceLimitExceeded:  # the command's budget, not an oracle fault
        raise
    except Exception as exc:  # noqa: BLE001 - oracle is caller-supplied
        raise OracleFailure(f"oracle raised: {exc}") from exc
    if not isinstance(answer, GroebnerBasis) or not answer.reduced:
        raise OracleFailure("oracle must return reduced GroebnerBasis values")
    if answer.ring != expected_ring:
        raise OracleFailure(
            f"oracle basis ring {answer.ring} differs from expected {expected_ring}")
    return answer


def main_lemma_check(oracle, j_gens, limits=None):
    """Certify (or reject) that the prefix ideal J equals the oracle's I.

    Requires J contained in I, which holds by construction when the
    generators come from the stream.  The returned certificate records the
    QQ verdict, the torsion exponent with its prime-power split, and one
    verdict per modulus; when everything matches the final strong basis
    over ZZ is attached and I = J is proved.
    """
    j_gens = list(j_gens)
    if not j_gens:
        raise ValueError("the prefix must contain at least one generator")
    k = len(j_gens)

    # One strong basis serves the QQ candidate, the torsion report, each p^a
    # basis and the certificate.  The saturation (from it and the candidate)
    # and each p^a basis extend it without treating its pairs again; reduced
    # strong bases are canonical, so each is the one gb_mod_m would give.
    basis = buchberger_z(j_gens, limits)
    q_candidate = _basis_over_q(basis, limits)
    q_oracle = _oracle_answer(oracle, q_candidate.ring)
    if not gb_equal(q_oracle, q_candidate):
        witness = BasisMismatch("rationals", None, q_oracle, q_candidate)
        return Certificate(prefix_length=k, q_match=False, mismatches=(witness,))

    report = torsion_report(basis, q_candidate, limits)
    factors = tuple(factorize(report.exponent, limits))
    verdicts = []
    mismatches = []
    for p, a in factors:
        m_i = p ** a
        candidate = _extend_mod_m(basis, m_i, limits)
        expected = _oracle_answer(oracle, with_domain(basis.ring, ModularDomain(m_i)),
                                  modulus=m_i)
        ok = gb_equal(expected, candidate)
        verdicts.append((m_i, ok))
        if not ok:
            mismatches.append(BasisMismatch(f"mod {m_i}", m_i, expected, candidate))
    accepted = not mismatches
    return Certificate(prefix_length=k,
                       q_match=True,
                       exponent=report.exponent,
                       factorization=factors,
                       modulus_verdicts=tuple(verdicts),
                       mismatches=tuple(mismatches),
                       basis=basis if accepted else None)


def solve_problem_p(generators, oracle, limits=None, history=None):
    """Walk prefixes of the generators until one is certified equal to I.

    ``generators`` is any iterable, read lazily: nothing after the accepted
    prefix is pulled.  Returns (strong ZZ basis of I, accepting
    certificate).  If ``history`` is a list, every rejection certificate is
    appended to it.  Raises StreamExhausted when the iterable ends without
    acceptance.
    """
    j_gens = []
    for g in generators:
        j_gens.append(g)
        certificate = main_lemma_check(oracle, j_gens, limits)
        if certificate.accepted:
            return certificate.basis, certificate
        if history is not None:
            history.append(certificate)
    raise StreamExhausted(
        f"stream ended after {len(j_gens)} generators without an accepted prefix")
