"""Differential test of the pair criteria against the completion without them.

``reference.criteria_free_complete`` is the completion loop as it stood
before the chain and G-pair criteria, with the product criterion and
parent subsumption only.  It is the specification: reduced strong bases
are canonical, so ``buchberger_z``, ``gb_mod_m``, ``buchberger_field``
over ZZ/p and the saturation basis of ``torsion_exponent`` must return
the same elements whether the engine skips pairs by a criterion or builds
every one, in Lex, DegRevLex and Block orders, and each result must pass
``is_groebner_basis``.  The engine also pairs no element whose lead term a
later one strongly divides; the last tests run only where that happens.
"""

from contextlib import contextmanager
from functools import partial
from unittest import mock

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import strategies as sts
from modgrob import (
    ZZ,
    Block,
    DegRevLex,
    Lex,
    ModularDomain,
    Polynomial,
    ResourceLimitExceeded,
    RunStats,
    buchberger_field,
    buchberger_z,
    gb_mod_m,
    groebner,
    is_groebner_basis,
    torsion_exponent,
)
from modgrob.parser import parse_polynomial
from modgrob.polyring import change_domain, ring, with_domain
from reference import criteria_free_complete
from test_pair_counts import katsura

# The reference builds every pair, so the budget keeps a rare blow-up short.
BUDGET = partial(RunStats, max_pairs=1500)  # fresh per call


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


def _ideal(order, *texts, arity=3):
    ring_ = ring(sts.VARIABLES[arity], order, ZZ)
    return [parse_polynomial(text, ring_) for text in texts]


# Each of these loses basis elements when the chain criterion ignores
# whether the S-pairs it relies on are still queued.  The last does so
# over ZZ and every ZZ/p: its three pairs share the lcm zyx, and each
# would skip the next.
CHAIN_TRAPS = [
    _ideal(Lex(), "6z+6x", "3zx+5"),
    _ideal(Lex(), "3zx+8", "7x", "3"),
    _ideal(DegRevLex(), "yx", "8zy+5", "3zx+3y"),
    _ideal(DegRevLex(), "zy+x", "zx", "yx"),
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
@example(CHAIN_TRAPS[3])
@settings(max_examples=300)
def test_strong_basis_matches_reference(gens):
    expected, basis = _both(lambda: buchberger_z(gens, BUDGET()))
    assert basis.elements == expected.elements
    assert is_groebner_basis(basis.elements)


@given(zz_ideals(), st.sampled_from([4, 6, 12, 27]))
@example(CHAIN_TRAPS[0], 4)
@settings(max_examples=200)
def test_basis_mod_m_matches_reference(gens, m):
    expected, basis = _both(lambda: gb_mod_m(gens, m, BUDGET()))
    assert basis.elements == expected.elements
    adjoined = gens + [Polynomial.constant(gens[0].ring, m)]
    assert is_groebner_basis(buchberger_z(adjoined, BUDGET()).elements)


@given(zz_ideals())
@example(CHAIN_TRAPS[0])
@settings(max_examples=100)
def test_saturation_matches_reference(gens):
    expected, picked = _both(lambda: torsion_exponent(gens, BUDGET()).saturation_basis)
    assert picked == expected
    assert is_groebner_basis(picked)


@given(zz_ideals(), st.sampled_from([2, 3, 5, 32003]))
@example(CHAIN_TRAPS[0], 5)
@example(CHAIN_TRAPS[1], 32003)
@example(CHAIN_TRAPS[2], 2)
@example(CHAIN_TRAPS[3], 32003)
@settings(max_examples=200)
def test_prime_field_basis_matches_reference(gens, p):
    """Completion over ZZ/p runs the chain criterion on monic elements."""
    ring_ = with_domain(gens[0].ring, ModularDomain(p))
    images = [change_domain(g, ring_.domain) for g in gens]
    expected, basis = _both(lambda: buchberger_field(images, BUDGET(), ring=ring_))
    assert basis.elements == expected.elements
    assert is_groebner_basis(basis.elements)


@contextmanager
def _redundancy():
    """Yields a list that gets one entry per element added inside: whether
    some element was redundant by then, so that the pairs it would make
    with later elements went unmade.  The reference engine makes every pair."""
    seen = []
    add = groebner._Pairs.add

    def spying_add(pairs, g):
        add(pairs, g)
        seen.append(bool(pairs.witness))

    with mock.patch.object(groebner._Pairs, "add", spying_add):
        yield seen


def test_katsura2_mod_8_keeps_u1():
    """A pair never made waits on the pairs of its witness, and the popped
    pair waits on its own chain test.  Treating either as done skips a
    needed pair here, and the basis gets 2*u1 in place of u1."""
    with _redundancy() as seen:
        expected, basis = _both(lambda: gb_mod_m(katsura(2, ZZ), 8))
    assert any(seen)
    assert basis.elements == expected.elements
    assert parse_polynomial("u1", basis.ring) in basis.elements


# Minimal ideals Hypothesis found, over ZZ and mod 4, on which either wrong
# pending rule loses a basis element: counting a pair never made as done,
# or no longer counting the popped pair as pending in its own chain test.
REDUNDANCY_TRAPS = [
    _ideal(Lex(), "2x^2+1", "x^2+x", arity=1),
    _ideal(Lex(), "4x+1", "x", arity=1),
]


@given(zz_ideals(), st.sampled_from([0, 2, 3, 4, 8, 12, 32003]))
@example(REDUNDANCY_TRAPS[0], 0)
@example(REDUNDANCY_TRAPS[1], 4)
@settings(max_examples=300)
def test_redundant_elements_match_reference(gens, m):
    """Over ZZ (m = 0), ZZ/p and ZZ/m, where some element became redundant."""
    prime = m in (2, 3, 32003)
    if prime:
        ring_ = with_domain(gens[0].ring, ModularDomain(m))
        images = [change_domain(g, ring_.domain) for g in gens]

        def compute():
            return buchberger_field(images, BUDGET(), ring=ring_)
    elif m:
        def compute():
            return gb_mod_m(gens, m, BUDGET())
    else:
        def compute():
            return buchberger_z(gens, BUDGET())
    with _redundancy() as seen:
        expected, basis = _both(compute)
    assume(any(seen))
    assert basis.elements == expected.elements
    if prime or not m:
        assert is_groebner_basis(basis.elements)
