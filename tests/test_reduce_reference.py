"""Differential tests of the division kernel.

``reference.reference_reduce`` is the division loop as it stood before
the kernel inlined its monomial arithmetic, memoised order keys, dropped
the coefficient normalisation over ZZ and QQ and packed its monomials into
ints.  It is the specification: ``normal_form`` must return the same
remainders, coefficient types included, over ZZ, QQ, F_p and ZZ/m, in Lex,
DegRevLex and the Block order that the saturation in ``torsion``
eliminates with.  Pseudo-division over ZZ is checked against the same
reduction over QQ, and the packed fields' exponent bound on both sides,
in pair polynomials too.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strategies as sts
from modgrob import (
    QQ,
    ZZ,
    Block,
    DegRevLex,
    ExponentOverflow,
    Lex,
    ModularDomain,
    Polynomial,
    RunStats,
    buchberger_z,
    is_groebner_basis,
    normal_form,
    s_pair_z,
)
from modgrob.groebner import _Packed, _reduce
from modgrob.polyring import (
    _MAX_EXPONENT,
    _unpacked,
    change_domain,
    poly_add,
    poly_mul,
    poly_scale,
    ring,
)
from reference import reference_reduce

F7 = ModularDomain(7)
Z12 = ModularDomain(12)


def _exact(f):
    """Terms with coefficient types, so an int and a Fraction 1 differ."""
    return tuple((type(c), c, m) for c, m in f.terms)


@st.composite
def division_problems(draw, domains):
    """(dividend, reducers): the dividend mixes random terms with multiples
    of the reducers, so that reductions run several steps deep."""
    arity = draw(st.integers(min_value=1, max_value=3))
    orders = [Lex(), DegRevLex()]
    if arity > 1:
        # the saturation's order: Y first in Lex, then the ring's own order
        orders += [Block((0,), Lex(), Lex()), Block((0,), Lex(), DegRevLex())]
    ring_ = ring(sts.VARIABLES[arity], draw(st.sampled_from(orders)),
                 draw(st.sampled_from(domains)))
    reducers = draw(st.lists(sts.polynomials(ring_, max_terms=3, max_degree=2,
                                             allow_zero=False),
                             min_size=1, max_size=4))
    f = draw(sts.polynomials(ring_, max_terms=5, max_degree=4))
    for g in reducers:
        f = poly_add(f, poly_mul(draw(sts.polynomials(ring_, max_terms=2, max_degree=2)), g))
    return f, reducers


@given(division_problems((ZZ, QQ, F7, Z12)))
@settings(max_examples=300)
def test_normal_form_matches_reference(problem):
    f, reducers = problem
    _, expected = reference_reduce(f, reducers)
    assert _exact(normal_form(f, reducers)) == _exact(expected)


@given(division_problems((ZZ,)))
@settings(max_examples=300)
def test_pseudo_division_is_the_qq_reduction_scaled(problem):
    """_reduce(f, R, step, pseudo=True) returns (k, r) with r = k times the
    normal form over QQ, in as many steps: each pseudo step is the QQ step
    scaled by a nonzero integer.  Both remainders come packed."""
    f, reducers = problem
    over_z, over_q = RunStats(), RunStats()
    k, r = _reduce(f, _Packed(f.ring, reducers), over_z.step, pseudo=True)
    f_q, reducers_q = change_domain(f, QQ), [change_domain(g, QQ) for g in reducers]
    _, r_q = _reduce(f_q, _Packed(f_q.ring, reducers_q), over_q.step)
    assert k != 0
    assert change_domain(_unpacked(f.ring, r), QQ) == poly_scale(_unpacked(f_q.ring, r_q), k)
    assert over_z.steps == over_q.steps


def test_lex_reduction_past_the_input_exponent_bound_is_exact():
    """x y^N by x - y^N leaves y^2N, N = 2^31: above what a polynomial may
    be built with, inside the packed fields."""
    n = _MAX_EXPONENT
    ring_ = ring(("x", "y"), Lex(), ZZ)
    f = Polynomial.from_terms(ring_, [(1, (1, n))])
    g = Polynomial.from_terms(ring_, [(1, (1, 0)), (-1, (0, n))])
    _, expected = reference_reduce(f, [g])
    assert normal_form(f, [g]) == expected == Polynomial(ring_, ((1, (0, 2 * n)),))


@pytest.mark.parametrize("order", [Lex(), DegRevLex(), Block((0,), Lex(), DegRevLex())])
def test_monomials_past_the_packed_fields_raise(order):
    """A total degree of 2^63 or a negative exponent leaves the fields, in
    a dividend or in a reducer built directly."""
    ring_ = ring(("x", "y"), order, ZZ)
    x = Polynomial.from_terms(ring_, [(1, (1, 0))])
    for e in [(2**63, 0), (2**62, 2**62), (-1, 1)]:
        huge = Polynomial(ring_, ((1, e),))
        with pytest.raises(ExponentOverflow):
            normal_form(huge, [x])
        with pytest.raises(ExponentOverflow):
            normal_form(x, [huge])


def test_a_step_past_the_packed_fields_raises():
    """x y^(2^62) by x - y^(2^62) in Lex would make y^(2^63)."""
    ring_ = ring(("x", "y"), Lex(), ZZ)
    f = Polynomial(ring_, ((1, (1, 2**62)),))
    g = Polynomial(ring_, ((1, (1, 0)), (-1, (0, 2**62))))
    with pytest.raises(ExponentOverflow):
        normal_form(f, [g])


@pytest.mark.parametrize("order", [Lex(), DegRevLex()])
def test_pairs_past_the_packed_fields_raise(order):
    """x^(2^62) y + 1 and x y^(2^62) + 3 have the lcm x^(2^62) y^(2^62), of
    total degree 2^63: building their S-pair raises, in completion, in the
    completeness check and in ``s_pair_z``.  When pairs were tuple
    polynomials, DegRevLex completion never packed that cancelled lead and
    returned a basis; ``from_terms`` and the parser cap exponents at 2^31.
    Completion packs each lcm when it queues the pair, so with a pair
    budget of 0, which no pair gets past, the queued pair raises first."""
    ring_ = ring(("x", "y"), order, ZZ)
    n = 2**62
    f = Polynomial(ring_, ((1, (n, 1)), (1, (0, 0))))
    g = Polynomial(ring_, ((1, (1, n)), (3, (0, 0))))
    for build in (buchberger_z, is_groebner_basis, lambda pair: s_pair_z(*pair)):
        with pytest.raises(ExponentOverflow):
            build([f, g])
    for queue in (buchberger_z, is_groebner_basis):
        with pytest.raises(ExponentOverflow):
            queue([f, g], RunStats(max_pairs=0))
