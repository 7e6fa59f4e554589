"""Exponent of the torsion part of ZZ[X]/J.

The exponent m is the least positive integer with m * (QQ J intersect A)
contained in J, A = ZZ[X].  It is computed by saturating J at rad(s), the
product of the distinct primes of the lcm s of the basis lead coefficients
(adjoin rad(s)*Y - 1, eliminate Y with a block order), then finding the
minimal integer multiplier pushing each contracted generator back into J.
"""

import math
from dataclasses import dataclass

from . import groebner
from .errors import DomainError, NonMember
from .groebner import RunStats, _Packed, _packed_for, _reduce, buchberger_z
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


def _contract(basis_z, limits=None):
    """Y-free part of the strong basis of <J, r*Y - 1> under Block(Y; order).

    ``basis_z`` is the reduced strong basis of J, s the lcm of its lead
    coefficients and r = rad(s).  The Y-free part is J : r^oo, and J : r^oo
    = J : s^oo because r divides s and s divides r^e, e the largest
    exponent in s; so the reduced strong basis is the one at s.  Under the
    block order a Y-free polynomial keeps its lead term, so the injected
    basis is still a reduced strong basis and seeds the completion.
    ``groebner._complete`` is looked up at call time, so that rebinding it
    reaches the saturation as it reaches ``buchberger_z``.
    """
    ring_ = basis_z.ring
    if not basis_z.elements:
        return []
    s = math.lcm(*(leading_coefficient(g) for g in basis_z.elements))
    r = math.prod(p for p, _ in factorize(s, limits))
    yname = fresh_variable_name(ring_.variables, "Y")
    ext_ring = RingDescriptor((yname,) + ring_.variables,
                              Block((0,), Lex(), ring_.order),
                              ring_.domain)
    y_mono = (1,) + ring_.one_monomial()
    inverter = Polynomial.from_terms(ext_ring, [(r, y_mono), (-1, (0,) + ring_.one_monomial())])
    ext_gens = [Polynomial(ext_ring, tuple([(c, (0,) + m) for c, m in g.terms]))
                for g in basis_z.elements]
    ext_gens.append(inverter)
    eliminated = groebner._complete(ext_gens, ext_ring, limits, seeded=len(basis_z))
    # Elimination property of the block order: a Y-free lead monomial forces
    # the whole polynomial to be Y-free.  Monomials of Y-exponent 0 compare
    # under the block order as under ``order``, so both ring changes keep
    # every term list sorted; lists, not generators, size each tuple exactly.
    return [Polynomial(ring_, tuple([(c, m[1:]) for c, m in h.terms]))
            for h in eliminated.elements if leading_monomial(h)[0] == 0]


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
    if not remainder.is_zero:
        raise NonMember(f"{g} is not in the rational span of the basis")
    for p, _ in factorize(k, limits):
        while k % p == 0 and _reduce(poly_scale(g, k // p), reducers, step)[1].is_zero:
            k //= p
    return k


def torsion_report(basis_z, limits=None):
    """Torsion report of ZZ[X]/J computed from the reduced strong basis of J.

    ``basis_z`` must be that basis, as ``buchberger_z`` returns it: the
    saturation is seeded with it and the multipliers divide by it.
    """
    contracted = _contract(basis_z, limits)
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
    if not isinstance(j_gens[0].ring.domain, IntegerDomain):
        raise DomainError("torsion exponent works over ZZ")
    return torsion_report(buchberger_z(j_gens, limits), limits)
