"""Differential test of the division kernel against the earlier one.

``reference.reference_reduce`` is the division loop as it stood before
the kernel inlined its monomial arithmetic, memoised order keys and
dropped the coefficient normalisation over ZZ and QQ.  It is the
specification: ``normal_form`` must return the same remainders,
coefficient types included, over ZZ, QQ, F_p and ZZ/m, in Lex, DegRevLex
and the Block order that the saturation in ``torsion`` eliminates with.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import strategies as sts
from modgrob import (
    QQ,
    ZZ,
    Block,
    DegRevLex,
    Lex,
    ModularDomain,
    normal_form,
)
from modgrob.polyring import poly_add, poly_mul, ring
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
