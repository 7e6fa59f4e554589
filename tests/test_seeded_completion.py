"""Differential test of the seeded completions a certificate runs.

``main_lemma_check`` extends its reduced strong basis without treating
the basis's own pairs again: the saturation completes K = <J, prim(Q)>,
Q the basis over QQ, seeded with the basis, then eliminates one prime of
s at a time, seeded with the basis so far, and each p^a basis is seeded
with the strong basis.  ``reference_contract`` is ``torsion._contract``
as it stood before, saturating at s with an unseeded completion; it
lives in ``reference.py`` as the specification.  Reduced strong bases are
canonical, so the torsion report and every p^a basis must come out
identical, also when the base order is a block order with two front
variables and the saturation's order nests it.
"""

import math
from functools import partial

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import strategies as sts
from modgrob import (
    ZZ,
    Block,
    DegRevLex,
    Lex,
    ResourceLimitExceeded,
    RunStats,
    buchberger_z,
    gb_mod_m,
    minimal_multiplier,
    parse_polynomial,
)
from modgrob.groebner import _basis_over_q, _extend_mod_m
from modgrob.intarith import factorize
from modgrob.polyring import leading_coefficient, ring
from modgrob.torsion import TorsionReport, torsion_report
from reference import reference_contract
from test_groebner_check import _instance
from test_pair_criteria import zz_ideals
from test_torsion import CHAIN, R3

BUDGET = partial(RunStats, max_pairs=1500)  # fresh per call


# block((z, y): lp, (x): dp): the saturation's ring nests a two-variable
# front block inside Block((0,), Lex(), ...).
NESTED = ring(("z", "y", "x"), Block((0, 1), Lex(), DegRevLex()), ZZ)


def _reference_report(basis):
    """The torsion report built from ``reference_contract``'s basis."""
    contracted = reference_contract(basis, BUDGET())
    multipliers = tuple((g, minimal_multiplier(g, basis)) for g in contracted)
    return TorsionReport(exponent=math.lcm(*(m for _, m in multipliers)),
                         saturation_basis=tuple(contracted),
                         multipliers=multipliers)


@given(zz_ideals(), st.sampled_from([2, 4, 8, 3, 9, 27, 25]))
# multipliers 27, 9 and 3: the report asks for ZZ/27; K = <z, y, x> has
# lead coefficients 1, so it passes the lead-coefficient test at s = 3
@example(CHAIN, 4)
# K is the saturation, yet its lead coefficients share 2, 3 and 7 with
# s = 1512: three eliminations run and change nothing
@example(_instance("053"), 8)
# 2 divides no lead coefficient of K and is skipped; the eliminations at 3
# and 7 change K
@example(_instance("024"), 9)
# s = 1: J is saturated already, and no completion runs
@example([parse_polynomial(t, R3) for t in ("z^2-y", "y^2-x", "x^3-1")], 2)
# s = 6, and K = <z + y, x> passes the lead-coefficient test
@example([parse_polynomial(t, R3) for t in ("2z+2y", "3z+3y", "6x")], 3)
@settings(max_examples=150)
def test_seeded_certificate_stages_match_unseeded(gens, prime_power):
    try:
        basis = buchberger_z(gens, BUDGET())
        expected = _reference_report(basis)
    except ResourceLimitExceeded:
        assume(False)
    stats = BUDGET()
    report = torsion_report(basis, _basis_over_q(basis, None), stats)
    assert report == expected
    s = math.lcm(*(leading_coefficient(g) for g in basis))
    # K, then at most one elimination per prime of s; none at s = 1
    assert (stats.completions == 0) == (s == 1)
    assert stats.completions <= 1 + len(factorize(s))
    moduli = {p ** a for p, a in factorize(report.exponent)} | {prime_power}
    for m in sorted(moduli):
        seeded = _extend_mod_m(basis, m, BUDGET())
        unseeded = gb_mod_m(basis.elements, m, BUDGET())
        assert seeded.ring == unseeded.ring
        assert seeded.elements == unseeded.elements


@given(st.lists(sts.polynomials(NESTED, max_terms=3, max_degree=3, allow_zero=False),
                min_size=1, max_size=3))
@example([parse_polynomial(t, NESTED) for t in ("3z-y", "3y-x", "3x")])
@example([parse_polynomial(t, NESTED) for t in ("2zy-x^2", "6yx", "4x^3")])
@settings(max_examples=60)
def test_saturation_under_a_nested_block_order_matches_reference(gens):
    try:
        basis = buchberger_z(gens, BUDGET())
        expected = _reference_report(basis)
    except ResourceLimitExceeded:
        assume(False)
    assert torsion_report(basis, _basis_over_q(basis, None), BUDGET()) == expected
