"""Verifier for E. Arnold's modular Groebner-basis conditions.

For a homogeneous ideal I over ZZ, a candidate set G over ZZ and a prime
p, the four hypotheses below certify that G is a Groebner basis of QQ I:

  1. the image G mod p is a Groebner basis of the image ideal I mod p,
  2. G over QQ is a Groebner basis of the ideal it generates,
  3. QQ I is contained in that ideal,
  4. the lead-monomial sets of G mod p and of G coincide.

Each condition is decided with the least work its verdict needs; only
I mod p is always completed:

  1. every element of G mod p reduces to 0 against the reduced basis of
     I mod p, and each lead monomial of that basis is divisible by a lead
     monomial of G mod p (so G mod p lies in I mod p and its lead
     monomials generate the lead ideal);
  2. is_groebner_basis on G over QQ, which skips the pairs Buchberger's
     product and chain criteria make redundant;
  3. every generator of I reduces to 0 against G over QQ when (2) holds,
     and against the completion of G over QQ otherwise;
  4. a comparison of the two lead-monomial sets.

Homogeneity is essential: for non-homogeneous input all four conditions
can hold while the conclusion fails (I = (px+1), G = {1} with p the chosen
prime), so this verifier never answers Verified for non-homogeneous input.
Non-homogeneous ideals can be homogenized first (homogenize_ideal); the
extra variable then breaks spurious agreements through condition 3.
"""

from dataclasses import dataclass

from .errors import ZeroPolynomial
from .groebner import buchberger_field, is_groebner_basis, normal_form
from .intarith import is_prime
from .polyring import (
    QQ,
    DegRevLex,
    IntegerDomain,
    ModularDomain,
    RingDescriptor,
    change_domain,
    fresh_variable_name,
    homogenize,
    is_homogeneous,
    leading_monomial,
    monomial_divides,
    with_domain,
)

VERIFIED = "Verified"
CONDITION_FAILED = "ConditionFailed"
INAPPLICABLE = "InapplicableNonHomogeneous"


@dataclass(frozen=True)
class ArnoldReport:
    prime: int
    condition1: bool
    condition2: bool
    condition3: bool
    condition4: bool
    homogeneous_input: bool
    verdict: str
    failed_conditions: tuple

    @property
    def conditions(self):
        return (self.condition1, self.condition2, self.condition3, self.condition4)


def _nonzero_images_mod_p(gens, p):
    images = [change_domain(g, ModularDomain(p)) for g in gens]
    return [g for g in images if not g.is_zero]


def arnold_conditions(i_gens, g_set, p, limits=None):
    """Evaluate the four conditions for generators I, candidate G, prime p.

    The verdict is Verified only when all four hold AND every input
    polynomial is homogeneous; otherwise ConditionFailed with the list of
    failing conditions, or InapplicableNonHomogeneous.  A ``RunStats`` as
    ``limits`` bounds all the verifier's work; ``None`` gives each call a fresh one.
    """
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

    # (1) G mod p is a Groebner basis of I mod p: it lies in I mod p, and
    # its lead monomials generate the lead ideal of I mod p, which those of
    # the reduced basis of I mod p generate.
    g_p = _nonzero_images_mod_p(g_set, p)
    i_p_basis = buchberger_field([change_domain(f, ModularDomain(p)) for f in i_gens],
                                 limits, ring=with_domain(ring_, ModularDomain(p)))
    cond1 = (all(normal_form(g, i_p_basis, limits).is_zero for g in g_p)
             and all(any(monomial_divides(leading_monomial(g), leading_monomial(h))
                         for g in g_p)
                     for h in i_p_basis))

    # (2) G over QQ is a Groebner basis of the ideal it generates (G itself
    # need not be reduced; only completeness is demanded).
    g_q = [change_domain(g, QQ) for g in g_set]
    cond2 = is_groebner_basis(g_q, limits)

    # (3) QQ I lies inside the QQ-ideal generated by G.  When (2) holds,
    # G over QQ already is a Groebner basis of that ideal.
    g_q_basis = g_q
    if not cond2:
        g_q_basis = buchberger_field(g_q, limits, ring=with_domain(ring_, QQ))
    cond3 = all(normal_form(change_domain(f, QQ), g_q_basis, limits).is_zero for f in i_gens)

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


def homogenize_ideal(gens):
    """Homogenize every generator with one fresh variable, placed last.

    The fresh variable is smallest in the order; if the ring's order is
    not already degree-compatible it is upgraded to DegRevLex so the
    degree filtration is respected (visible on the returned ring).
    """
    gens = list(gens)
    if not gens:
        return []
    old = gens[0].ring
    name = fresh_variable_name(old.variables)
    order = old.order if isinstance(old.order, DegRevLex) else DegRevLex()
    new_ring = RingDescriptor(old.variables + (name,), order, old.domain)
    return [homogenize(g, old.arity, new_ring) for g in gens]

