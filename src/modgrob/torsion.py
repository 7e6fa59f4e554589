"""Exponent of the torsion part of ZZ[X]/J.

The exponent m is the least positive integer with m * (QQ J intersect A)
contained in J, A = ZZ[X].  It is computed by saturating J at the lcm s of
the basis lead coefficients (adjoin s*Y - 1, eliminate Y with a block
order), then finding the minimal integer multiplier pushing each
contracted generator back into J.
"""

from dataclasses import dataclass

from .errors import DomainError, NonMember
from .groebner import (
    GroebnerBasis,
    buchberger_z,
    divide_with_cofactors,
    ideal_member,
)
from .intarith import factorize, lcm_many
from .polyring import (
    QQ,
    Block,
    IntegerDomain,
    Lex,
    Polynomial,
    RingDescriptor,
    change_domain,
    drop_variable,
    fresh_variable_name,
    inject_variable,
    leading_coefficient,
    leading_monomial,
    poly_scale,
    with_domain,
)


@dataclass(frozen=True)
class TorsionReport:
    exponent: int
    saturation_basis: tuple  # Y-free contracted generators, a strong basis
    multipliers: tuple       # ((g, m_g), ...) aligned with saturation_basis


def _contract(basis_z, limits=None):
    """Y-free part of the strong basis of <J, s*Y - 1> under Block(Y; order)."""
    ring_ = basis_z.ring
    if not basis_z.elements:
        return []
    s = lcm_many([leading_coefficient(g) for g in basis_z.elements])
    yname = fresh_variable_name(ring_.variables, "Y")
    ext_ring = RingDescriptor((yname,) + ring_.variables,
                              Block((0,), Lex(), ring_.order),
                              ring_.domain)
    y_mono = (1,) + ring_.one_monomial()
    inverter = Polynomial.from_terms(ext_ring, [(s, y_mono), (-1, (0,) + ring_.one_monomial())])
    ext_gens = [inject_variable(g, ext_ring, 0) for g in basis_z.elements]
    ext_gens.append(inverter)
    eliminated = buchberger_z(ext_gens, limits)
    picked = []
    for h in eliminated.elements:
        if leading_monomial(h)[0] == 0:
            # Elimination property of the block order: a Y-free lead
            # monomial forces the whole polynomial to be Y-free.
            picked.append(drop_variable(h, 0, ring_))
    return picked


def saturation_contraction(j_gens, limits=None):
    """Generators of QQ J intersect ZZ[X], as a strong basis over ZZ.

    Returned in the canonical basis order (lead monomials descending);
    the zero ideal contracts to the empty list.
    """
    j_gens = list(j_gens)
    ring_ = j_gens[0].ring if j_gens else None
    if ring_ is not None and not isinstance(ring_.domain, IntegerDomain):
        raise DomainError("saturation works over ZZ")
    basis = buchberger_z(j_gens, limits)
    return _contract(basis, limits)


def _rational_view(basis_z):
    """The Z-basis viewed over QQ: a (non-monic) Groebner basis of QQ J
    whose elements still lie in J, so cofactor denominators bound the
    multiplier of anything they divide."""
    elements = tuple(change_domain(g, QQ) for g in basis_z.elements)
    return GroebnerBasis(with_domain(basis_z.ring, QQ), elements, reduced=False)


def minimal_multiplier(g, j_basis_z, j_basis_q, limits=None):
    """Least m_g >= 1 with m_g * g in J, for g in QQ J intersect ZZ[X].

    ``j_basis_q`` must consist of integer polynomials lying in J (the
    QQ-view of the strong ZZ-basis, see torsion_exponent); dividing g by it
    gives an integer k0 with k0 * g in J, and since the valid multipliers
    form an ideal of ZZ, stripping primes of k0 while membership holds
    reaches the minimum.
    """
    for b in j_basis_q.elements:
        if any(c.denominator != 1 for c, _ in b.terms):
            raise ValueError("j_basis_q must consist of integer polynomials inside J")
        if not ideal_member(change_domain(b, j_basis_z.ring.domain), j_basis_z):
            raise ValueError("j_basis_q element lies outside J; pass the "
                             "QQ-view of the strong ZZ-basis")
    return _minimal_multiplier(g, j_basis_z, j_basis_q)


def _minimal_multiplier(g, j_basis_z, j_basis_q):
    """minimal_multiplier for a ``j_basis_q`` known to be the QQ-view of
    ``j_basis_z``, which needs no membership check."""
    quotients, remainder = divide_with_cofactors(change_domain(g, QQ), j_basis_q)
    if not remainder.is_zero:
        raise NonMember(f"{g} is not in the rational span of the basis")
    denominators = [c.denominator for q in quotients for c, _ in q.terms]
    k = lcm_many(denominators)
    for p, _ in factorize(k):
        while k % p == 0 and ideal_member(poly_scale(g, k // p), j_basis_z):
            k //= p
    return k


def torsion_report(basis_z, limits=None):
    """Torsion report of ZZ[X]/J computed from the reduced strong basis of J."""
    contracted = _contract(basis_z, limits)
    basis_q = _rational_view(basis_z)
    multipliers = []
    for g in contracted:
        multipliers.append((g, _minimal_multiplier(g, basis_z, basis_q)))
    exponent = lcm_many([m for _, m in multipliers])
    return TorsionReport(exponent=exponent,
                         saturation_basis=tuple(contracted),
                         multipliers=tuple(multipliers))


def torsion_exponent(j_gens, limits=None):
    """Torsion exponent of ZZ[X]/J with the contracted basis and multipliers.

    The exponent is 1 exactly when the quotient is torsion-free.
    """
    j_gens = list(j_gens)
    if not j_gens:
        raise ValueError("need at least one polynomial to fix the ring")
    if not isinstance(j_gens[0].ring.domain, IntegerDomain):
        raise DomainError("torsion exponent works over ZZ")
    return torsion_report(buchberger_z(j_gens, limits), limits)
