"""Differential test of the seeded completions a certificate runs.

``main_lemma_check`` extends its reduced strong basis twice without
treating the basis's own pairs again: the saturation, at rad(s), seeded
with the basis, and each p^a basis, seeded with it.  ``reference_contract``
is ``torsion._contract`` as it stood before, saturating at s with an
unseeded completion; it lives in ``reference.py`` as the specification.  Reduced strong
bases are canonical, so the torsion report and every p^a basis must come
out identical, also when the base order is a block order with two front
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
from modgrob.groebner import _extend_mod_m
from modgrob.intarith import factorize
from modgrob.polyring import ring
from modgrob.torsion import TorsionReport, torsion_report
from reference import reference_contract
from test_pair_criteria import zz_ideals
from test_torsion import CHAIN

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
@example(CHAIN, 4)  # multipliers 27, 9 and 3: the report asks for ZZ/27
@settings(max_examples=150)
def test_seeded_certificate_stages_match_unseeded(gens, prime_power):
    try:
        basis = buchberger_z(gens, BUDGET())
        expected = _reference_report(basis)
    except ResourceLimitExceeded:
        assume(False)
    report = torsion_report(basis, BUDGET())
    assert report == expected
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
    assert torsion_report(basis, BUDGET()) == expected
