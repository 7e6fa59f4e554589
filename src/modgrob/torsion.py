"""Exponent of the torsion part of ZZ[X]/J.

The exponent m is the least positive integer with m * (QQ J intersect A)
contained in J, A = ZZ[X].  It is computed by saturating J at the lcm s
of the basis lead coefficients: complete J with the primitive forms of the
basis of QQ J, then eliminate Y from <K, p*Y - 1> under a block order for
each prime p | s that still divides a lead coefficient.  The minimal
integer multiplier pushing each contracted generator back into J follows.
"""

import math
from dataclasses import dataclass

from . import groebner
from .errors import DomainError, NonMember
from .groebner import RunStats, _common_ring, _Packed, _packed_for, _reduce, buchberger_z
from .intarith import factorize
from .polyring import (
    Block,
    IntegerDomain,
    Lex,
    Polynomial,
    RingDescriptor,
    fresh_variable_name,
    leading_coefficient,
    leading_monomial,
    poly_scale,
)


@dataclass(frozen=True)
class TorsionReport:
    exponent: int
    saturation_basis: tuple  # strong basis of QQ J intersect ZZ[X]
    multipliers: tuple       # ((g, m_g), ...) aligned with saturation_basis


def _contract(basis_z, q_basis, limits=None):
    """Reduced strong basis of J : s^oo = QQ J intersect ZZ[X], as a list.

    ``basis_z`` is the reduced strong basis of J, s the lcm of its lead
    coefficients, and ``q_basis`` the reduced basis Q of QQ J.  Pseudo-
    division of f in QQ J intersect ZZ[X] by ``basis_z``, a Groebner basis
    of QQ J, scales f only by lead coefficients, so some s^e f lies in J.

    - If s = 1, J is that intersection: no completion runs.
    - Otherwise K = <J, prim(Q)> is completed over ZZ, seeded with J.  By
      Gauss's lemma each primitive prim(q) lies in QQ J intersect ZZ[X],
      so J <= K <= J : s^oo and K : s^oo = J : s^oo.
    - For each prime p | s, ascending, the current basis is saturated at p:
      (K : p^oo) : p'^oo = K : (p p')^oo, so the last basis is K : s^oo.  A
      reduced strong basis none of whose lead coefficients p divides is
      p-saturated already, and p is skipped.  Were p f in the ideal with f
      reduced and nonzero, some lead c m would strongly divide p lt(f);
      as p does not divide c, c m strongly divides lt(f), whose
      coefficient is a canonical residue in [1, c): a contradiction.
    - Saturating at p is the Y-free part of the strong basis of <basis,
      p Y - 1> under Block(Y; order).  Under the block order a Y-free
      polynomial keeps its lead term, so the injected basis is still a
      reduced strong basis and seeds the completion, and the Y-free part
      of the result is the reduced strong basis of the saturation.

    ``groebner._complete`` is looked up at call time, so that rebinding it
    reaches the saturation as it reaches ``buchberger_z``.
    """
    ring_ = basis_z.ring
    basis = list(basis_z.elements)
    s = math.lcm(*(leading_coefficient(g) for g in basis))
    if s == 1:
        return basis
    gens = basis + [Polynomial(ring_, tuple(groebner._primitive(q.terms))) for q in q_basis]
    basis = list(groebner._complete(gens, ring_, limits, seeded=len(basis)).elements)
    ext_ring = RingDescriptor((fresh_variable_name(ring_.variables, "Y"),) + ring_.variables,
                              Block((0,), Lex(), ring_.order), ring_.domain)
    y_mono, one = (1,) + ring_.one_monomial(), (0,) + ring_.one_monomial()
    for p, _ in factorize(s, limits):
        if all(leading_coefficient(g) % p for g in basis):
            continue
        ext_gens = [Polynomial(ext_ring, tuple([(c, (0,) + m) for c, m in g.terms]))
                    for g in basis]
        ext_gens.append(Polynomial.from_terms(ext_ring, [(p, y_mono), (-1, one)]))
        eliminated = groebner._complete(ext_gens, ext_ring, limits, seeded=len(basis))
        # A Y-free lead monomial forces a Y-free polynomial.  Monomials of
        # Y-exponent 0 compare under the block order as under ``order``, so
        # both ring changes keep term lists sorted; lists size tuples exactly.
        basis = [Polynomial(ring_, tuple([(c, m[1:]) for c, m in h.terms]))
                 for h in eliminated.elements if leading_monomial(h)[0] == 0]
    return basis


def minimal_multiplier(g, j_basis_z, limits=None):
    """Least m_g >= 1 with m_g * g in J, for g in QQ J intersect ZZ[X].

    ``j_basis_z`` is the reduced strong basis of J (or its ``_Packed``), so
    also a Groebner basis of QQ J: pseudo-division of g by it ends in
    remainder 0 with a multiplier k0 for which k0 * g is an integer
    combination of the basis, hence in J.  The valid multipliers form an
    ideal of ZZ, so stripping primes of k0 while membership holds reaches
    the minimum.  Steps go to ``limits`` or a fresh ``RunStats``, outside completion.
    """
    reducers = _packed_for(g, j_basis_z)
    if not isinstance(g.ring.domain, IntegerDomain):
        raise DomainError("minimal multipliers work over ZZ")
    step = (limits or RunStats()).step
    k, remainder = _reduce(g, reducers, step, pseudo=True)
    if remainder:
        raise NonMember(f"{g} is not in the rational span of the basis")
    for p, _ in factorize(k, limits):
        while k % p == 0 and not _reduce(poly_scale(g, k // p), reducers, step)[1]:
            k //= p
    return k


def torsion_report(basis_z, q_basis, limits=None):
    """Torsion report of ZZ[X]/J computed from the reduced strong basis of J.

    ``basis_z`` must be that basis, as ``buchberger_z`` returns it: the
    saturation is seeded with it and the multipliers divide by it.
    ``q_basis`` must be the reduced basis of QQ J, as ``_basis_over_q``
    reads it off ``basis_z``.
    """
    contracted = _contract(basis_z, q_basis, limits)
    reducers = _Packed(basis_z.ring, basis_z.elements)
    multipliers = [(g, minimal_multiplier(g, reducers, limits)) for g in contracted]
    exponent = math.lcm(*(m for _, m in multipliers))
    return TorsionReport(exponent=exponent,
                         saturation_basis=tuple(contracted),
                         multipliers=tuple(multipliers))


def torsion_exponent(j_gens, limits=None):
    """Torsion exponent of ZZ[X]/J with the contracted basis and multipliers.

    The contracted basis generates QQ J intersect ZZ[X] as a strong basis
    over ZZ, lead monomials descending; the zero ideal contracts to none.
    The exponent is 1 exactly when the quotient is torsion-free.
    """
    j_gens = list(j_gens)
    if not j_gens:
        raise ValueError("need at least one polynomial to fix the ring")
    if not isinstance(_common_ring(j_gens, None).domain, IntegerDomain):
        raise DomainError("torsion exponent works over ZZ")
    basis = buchberger_z(j_gens, limits)
    return torsion_report(basis, groebner._basis_over_q(basis, limits), limits)
