"""Differential test of the seeded completions a certificate runs.

``main_lemma_check`` extends its reduced strong basis twice without
treating the basis's own pairs again: the saturation, at rad(s), seeded
with the basis, and each p^a basis, seeded with it.  ``reference_contract``
is ``torsion._contract`` as it stood before, saturating at s with an
unseeded completion; it lives in ``reference.py`` as the specification.  Reduced strong
bases are canonical, so the torsion report and every p^a basis must come
out identical.
"""

import math
from functools import partial

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from modgrob import (
    ResourceLimitExceeded,
    RunStats,
    buchberger_z,
    gb_mod_m,
    minimal_multiplier,
)
from modgrob.groebner import _extend_mod_m
from modgrob.intarith import factorize
from modgrob.torsion import TorsionReport, torsion_report
from reference import reference_contract
from test_pair_criteria import zz_ideals
from test_torsion import CHAIN

BUDGET = partial(RunStats, max_pairs=1500)  # fresh per call


@given(zz_ideals(), st.sampled_from([2, 4, 8, 3, 9, 27, 25]))
@example(CHAIN, 4)  # multipliers 27, 9 and 3: the report asks for ZZ/27
@settings(max_examples=150)
def test_seeded_certificate_stages_match_unseeded(gens, prime_power):
    try:
        basis = buchberger_z(gens, BUDGET())
        contracted = reference_contract(basis, BUDGET())
    except ResourceLimitExceeded:
        assume(False)
    multipliers = tuple((g, minimal_multiplier(g, basis)) for g in contracted)
    expected = TorsionReport(exponent=math.lcm(*(m for _, m in multipliers)),
                             saturation_basis=tuple(contracted),
                             multipliers=multipliers)
    report = torsion_report(basis, BUDGET())
    assert report == expected
    moduli = {p ** a for p, a in factorize(report.exponent)} | {prime_power}
    for m in sorted(moduli):
        seeded = _extend_mod_m(basis, m, BUDGET())
        unseeded = gb_mod_m(basis.elements, m, BUDGET())
        assert seeded.ring == unseeded.ring
        assert seeded.elements == unseeded.elements
