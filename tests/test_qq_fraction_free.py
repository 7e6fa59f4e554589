"""Differential test of fraction-free completion over QQ.

``reference.fraction_complete`` is completion as it stood when it still
computed over QQ with ``Fraction`` coefficients and monic elements.  It is
the specification: the fraction-free engine keeps each working polynomial
a nonzero rational multiple of the one the ``Fraction`` path holds, so
``buchberger_field`` over QQ must return the same elements, with
``Fraction`` coefficients in the QQ ring, after the same number of pairs and
reduction steps, in Lex, DegRevLex and Block orders.
"""

from fractions import Fraction
from functools import partial
from unittest import mock

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import strategies as sts
from modgrob import (
    QQ,
    Block,
    DegRevLex,
    Lex,
    Polynomial,
    ResourceLimitExceeded,
    RunStats,
    buchberger_field,
    groebner,
)
from modgrob.parser import parse_polynomial
from modgrob.polyring import ring
from reference import fraction_complete

ORDERS = [Lex(), DegRevLex(), Block((0,), DegRevLex(), Lex())]
# Both engines build the same pairs, so one budget bounds a rare blow-up.
BUDGET = partial(RunStats, max_pairs=400)  # fresh per call


@st.composite
def qq_ideals(draw):
    """1-3 generators over QQ with denominators, integer content and lead
    coefficients of either sign, in Lex, DegRevLex or a Block order."""
    arity = draw(st.integers(min_value=1, max_value=3))
    order = draw(st.sampled_from(ORDERS if arity > 1 else ORDERS[:2]))
    ring_ = ring(sts.VARIABLES[arity], order, QQ)
    terms = st.tuples(st.integers(min_value=-9, max_value=9),
                      st.integers(min_value=1, max_value=6),
                      sts.monomials(arity, max_degree=3))
    contents = st.sampled_from([1, -1, 6, -10, Fraction(1, 12), Fraction(-7, 4)])
    gens = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        content = draw(contents)
        gens.append(Polynomial.from_terms(ring_, [
            (content * Fraction(n, d), m)
            for n, d, m in draw(st.lists(terms, min_size=1, max_size=4)) if sum(m) <= 3]))
    return gens


def _ideal(order, *texts):
    ring_ = ring(sts.VARIABLES[3], order, QQ)
    return [parse_polynomial(text, ring_) for text in texts]


def _run(gens):
    """buchberger_field(gens) with the pairs it built and its completion steps."""
    stats = BUDGET()
    basis = buchberger_field(gens, stats)
    return basis, {"pairs": stats.pairs, "reductions": stats.reductions}


@given(qq_ideals())
@example(_ideal(Lex(), "2y+1", "z+y"))  # a pseudo step scales the remainder so far
@example(_ideal(DegRevLex(), "-3/2y2+1/3x", "6zx-4/5y", "-10z2+15"))
@example(_ideal(Lex(), "-7/4zy+7/2x2", "1/12yx-1/6", "-6z2x+9y"))
@example(_ideal(Block((0,), DegRevLex(), Lex()), "2/3zx-1/2y", "-4y2+6x", "z2-1/5"))
@settings(max_examples=300)
def test_fraction_free_completion_matches_fraction_path(gens):
    try:
        with mock.patch.object(groebner, "_complete", fraction_complete):
            expected, expected_counts = _run(gens)
    except ResourceLimitExceeded:
        assume(False)
    basis, counts = _run(gens)
    assert basis.elements == expected.elements
    assert counts == expected_counts
    # equality alone would not notice int coefficients or the ZZ ring
    assert basis.ring == gens[0].ring
    assert all(g.ring == basis.ring for g in basis)
    assert all(type(c) is Fraction for g in basis for c, _ in g.terms)
