"""Differential test of the one-pass basis reduction.

``reference.fixed_point_canonicalize`` is ``_canonicalize`` as it stood
when it repeated minimization and tail reduction until a pass changed
nothing.  It is the specification: a complete basis needs one pass (the
proof is in the ``_canonicalize`` docstring), so every completion must
return the same basis, after the same tail-reduction steps, with either,
over ZZ, QQ and F_p, in Lex, DegRevLex and Block orders.
"""

from functools import partial
from unittest import mock

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import strategies as sts
from modgrob import (
    QQ,
    ZZ,
    Block,
    DegRevLex,
    Lex,
    ModularDomain,
    ResourceLimitExceeded,
    RunStats,
    buchberger_field,
    buchberger_z,
    groebner,
)
from modgrob.parser import parse_polynomial
from modgrob.polyring import ring
from reference import fixed_point_canonicalize
from test_pair_counts import CERTIFY_PREFIXES

ORDERS = [Lex(), DegRevLex(), Block((0,), Lex(), DegRevLex()),
          Block((0,), DegRevLex(), Lex())]
BUDGET = partial(RunStats, max_pairs=1500)  # fresh per call


@st.composite
def ideals(draw):
    """A few small generators over ZZ, QQ or F_7 in a Lex, DegRevLex or
    Block order."""
    arity = draw(st.integers(min_value=1, max_value=3))
    order = draw(st.sampled_from(ORDERS if arity > 1 else ORDERS[:2]))
    domain = draw(st.sampled_from([ZZ, QQ, ModularDomain(7)]))
    ring_ = ring(sts.VARIABLES[arity], order, domain)
    return draw(st.lists(sts.polynomials(ring_, max_terms=3, max_degree=3,
                                         allow_zero=False),
                         min_size=1, max_size=3))


def _saturation_053():
    """<J, r*Y - 1> under Block((0,), Lex(), DegRevLex()), the ideal that
    the saturation of a certificate completes, for the criterion-1 prefix
    J = 053: its strong basis has s = 1512 = 2^3 3^3 7, so r = rad(s) = 42."""
    variables, texts = CERTIFY_PREFIXES["053"]
    ring_ = ring(("Y",) + tuple(variables), Block((0,), Lex(), DegRevLex()), ZZ)
    return [parse_polynomial(text, ring_) for text in texts + ("42Y-1",)]


def _run(gens):
    """The reduced basis of gens and the steps spent reducing it."""
    stats = BUDGET()
    complete = buchberger_z if gens[0].ring.domain == ZZ else buchberger_field
    basis = complete(gens, stats)
    return basis, stats.steps - stats.reductions


@given(ideals())
@example(_saturation_053())
@settings(max_examples=300)
def test_one_pass_matches_fixed_point(gens):
    try:
        with mock.patch.object(groebner, "_canonicalize", fixed_point_canonicalize):
            expected = _run(gens)
    except ResourceLimitExceeded:
        assume(False)
    assert _run(gens) == expected
