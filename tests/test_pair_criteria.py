"""Differential test of the pair criteria against the completion without them.

``reference.criteria_free_complete`` is the completion loop as it stood
before the chain and G-pair criteria, with the product criterion and
parent subsumption only.  It is the specification: reduced strong bases
are canonical, so ``buchberger_z``, ``gb_mod_m`` and the saturation basis
of ``torsion_exponent`` must return the same elements whether the engine
skips pairs by a criterion or builds every one, in Lex, DegRevLex and
Block orders, and each result must pass ``is_groebner_basis``.
"""

from unittest import mock

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import strategies as sts
from modgrob import (
    ZZ,
    Block,
    DegRevLex,
    Lex,
    Limits,
    Polynomial,
    ResourceLimitExceeded,
    buchberger_z,
    gb_mod_m,
    groebner,
    is_groebner_basis,
    torsion_exponent,
)
from modgrob.parser import parse_polynomial
from modgrob.polyring import ring
from reference import criteria_free_complete

# The reference builds every pair, so the budget keeps a rare blow-up short.
BUDGET = Limits(max_pairs=1500)


@st.composite
def zz_ideals(draw):
    """A few small generators over ZZ in a Lex, DegRevLex or Block order."""
    arity = draw(st.integers(min_value=1, max_value=3))
    orders = [Lex(), DegRevLex()]
    if arity > 1:
        orders += [Block((0,), Lex(), DegRevLex()), Block((0,), DegRevLex(), Lex())]
    ring_ = ring(sts.VARIABLES[arity], draw(st.sampled_from(orders)), ZZ)
    gens = draw(st.lists(sts.polynomials(ring_, max_terms=3, max_degree=3,
                                         allow_zero=False),
                         min_size=1, max_size=3))
    return gens


def _ideal(order, *texts):
    ring_ = ring(sts.VARIABLES[3], order, ZZ)
    return [parse_polynomial(text, ring_) for text in texts]


# Each of these loses basis elements when the chain criterion ignores
# whether the S-pairs it relies on are still queued.
CHAIN_TRAPS = [
    _ideal(Lex(), "6z+6x", "3zx+5"),
    _ideal(Lex(), "3zx+8", "7x", "3"),
    _ideal(DegRevLex(), "yx", "8zy+5", "3zx+3y"),
]


def _both(compute):
    """compute() with the reference engine, then with the package's own."""
    try:
        with mock.patch.object(groebner, "_complete", criteria_free_complete):
            expected = compute()
    except ResourceLimitExceeded:
        assume(False)
    return expected, compute()


@given(zz_ideals())
@example(CHAIN_TRAPS[0])
@example(CHAIN_TRAPS[1])
@example(CHAIN_TRAPS[2])
@settings(max_examples=300, deadline=None)
def test_strong_basis_matches_reference(gens):
    expected, basis = _both(lambda: buchberger_z(gens, BUDGET))
    assert basis.elements == expected.elements
    assert is_groebner_basis(basis.elements)


@given(zz_ideals(), st.sampled_from([4, 6, 12, 27]))
@example(CHAIN_TRAPS[0], 4)
@settings(max_examples=200, deadline=None)
def test_basis_mod_m_matches_reference(gens, m):
    expected, basis = _both(lambda: gb_mod_m(gens, m, BUDGET))
    assert basis.elements == expected.elements
    adjoined = gens + [Polynomial.constant(gens[0].ring, m)]
    assert is_groebner_basis(buchberger_z(adjoined, BUDGET).elements)


@given(zz_ideals())
@example(CHAIN_TRAPS[0])
@settings(max_examples=100, deadline=None)
def test_saturation_matches_reference(gens):
    expected, picked = _both(lambda: torsion_exponent(gens, BUDGET).saturation_basis)
    assert picked == expected
    assert is_groebner_basis(picked)
