"""Differential test of the one-pass basis reduction.

``reference.fixed_point_canonicalize`` is ``_canonicalize`` as it stood
when it repeated minimization and tail reduction until a pass changed
nothing.  It is the specification: a complete basis needs one pass (the
proof is in the ``_canonicalize`` docstring), so every completion must
return the same basis, after the same tail-reduction steps, with either,
over ZZ, QQ and F_p, in Lex, DegRevLex and Block orders.  It and
``reference.fraction_canonicalize``, the ``Fraction`` arithmetic of its
time, also specify ``_basis_over_q``, which reduces the primitive forms of
a strong basis by pseudo-division.
"""

from functools import partial
from unittest import mock

import pytest
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
from modgrob.groebner import _basis_over_q, _Packed
from modgrob.parser import parse_polynomial
from modgrob.polyring import change_domain, monomial_key, ring, with_domain
from reference import (
    canonicalize_list,
    dividend_polynomial,
    fixed_point_canonicalize,
    fraction_canonicalize,
)
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
    the saturation of a certificate completed when it ran at r = rad(s),
    for the criterion-1 prefix J = 053: its strong basis has s = 1512 =
    2^3 3^3 7, so r = 42."""
    variables, texts = CERTIFY_PREFIXES["053"]
    ring_ = ring(("Y",) + tuple(variables), Block((0,), Lex(), DegRevLex()), ZZ)
    return [parse_polynomial(text, ring_) for text in texts + ("42Y-1",)]


# y + x, 2x: the lead monomial x divides the tail term x, whose
# coefficient 1 is already the canonical residue mod 2, so y + x is kept
# as it is.  y + 3x, 2x: 3 is not, so y + 3x is reduced to y + x.
RYX = ring(("y", "x"), Lex(), ZZ)
RESIDUE_TAIL = [parse_polynomial(t, RYX) for t in ("y+x", "2x")]
REDUCIBLE_TAIL = [parse_polynomial(t, RYX) for t in ("y+3x", "2x")]


def _run(gens):
    """The reduced basis of gens and the steps spent reducing it."""
    stats = BUDGET()
    complete = buchberger_z if gens[0].ring.domain == ZZ else buchberger_field
    basis = complete(gens, stats)
    return basis, stats.steps - stats.reductions


@given(ideals())
@example(_saturation_053())
@example(RESIDUE_TAIL)
@example(REDUCIBLE_TAIL)
@settings(max_examples=300)
def test_one_pass_matches_fixed_point(gens):
    try:
        with mock.patch.object(groebner, "_canonicalize", fixed_point_canonicalize):
            expected = _run(gens)
    except ResourceLimitExceeded:
        assume(False)
    assert _run(gens) == expected


@pytest.mark.parametrize("gens, reduced", [(RESIDUE_TAIL, []), (REDUCIBLE_TAIL, ["y+3x"])],
                         ids=["canonical-residue", "reducible"])
def test_only_a_reducible_tail_is_reduced(monkeypatch, gens, reduced):
    """``_canonicalize`` calls ``_reduce`` on an element only when another
    lead reduces a tail term of it; both bases are <y + x, 2x>.  It hands
    ``_reduce`` the element's packed terms, unpacked here."""
    reduce = groebner._reduce
    calls = []

    def spying_reduce(f, reducers, step, pseudo=False):
        calls.append(str(dividend_polynomial(f)))
        return reduce(f, reducers, step, pseudo)

    monkeypatch.setattr(groebner, "_reduce", spying_reduce)
    basis = canonicalize_list(gens, RYX, BUDGET())
    assert calls == reduced
    assert [str(g) for g in basis] == ["y+x", "2x"]


@given(ideals())
@example(_saturation_053())
@example(RESIDUE_TAIL)  # over QQ, x reduces the tail of y + x
@settings(max_examples=200)
def test_completion_and_basis_over_q_match_references(gens):
    """Element by element, and with the same ``RunStats.steps``: completion
    over ZZ, QQ and F_7 against ``fixed_point_canonicalize``, and over ZZ
    ``_basis_over_q`` of the strong basis against it and against
    ``fraction_canonicalize``."""
    ring_ = gens[0].ring
    complete = buchberger_z if ring_.domain == ZZ else buchberger_field
    expected_stats, stats = BUDGET(), BUDGET()
    try:
        with mock.patch.object(groebner, "_canonicalize", fixed_point_canonicalize):
            expected = complete(gens, expected_stats)
    except ResourceLimitExceeded:
        assume(False)
    basis = complete(gens, stats)
    assert basis.elements == expected.elements
    assert stats.steps == expected_stats.steps
    if ring_.domain != ZZ:
        return
    q_ring = with_domain(ring_, QQ)
    images = [change_domain(g, QQ) for g in basis]
    expected_stats, stats = BUDGET(), BUDGET()
    expected = fixed_point_canonicalize(_Packed(q_ring, images), q_ring, expected_stats)
    q_basis = _basis_over_q(basis, stats)
    assert q_basis.ring == q_ring
    assert q_basis.elements == expected.elements
    assert q_basis.elements == fraction_canonicalize(images, q_ring,
                                                     monomial_key(ring_.order)).elements
    assert stats.steps == expected_stats.steps
