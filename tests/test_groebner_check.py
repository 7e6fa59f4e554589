"""Differential test of the completeness check against the all-pairs check.

``reference_is_groebner_basis`` is ``is_groebner_basis`` as it stood
before it skipped pairs: it builds and reduces every S-pair (and G-pair
over ZZ).  It lives in ``reference.py``, outside the package, as the
specification.  The package's check visits fewer pairs, so both must give the same answer on
sets that are and are not Groebner bases, over ZZ, QQ, F_2 and F_7, in
Lex, DegRevLex and Block orders.
"""

from fractions import Fraction
from functools import partial

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
    is_groebner_basis,
)
from modgrob.parser import parse_polynomial
from modgrob.polyring import poly_scale, ring
from reference import reference_is_groebner_basis

DOMAINS = (ZZ, QQ, ModularDomain(2), ModularDomain(7))
BUDGET = partial(RunStats, max_pairs=500)  # fresh per call


@st.composite
def candidates(draw):
    """Raw generators, their basis, the basis less one element, plus one
    generator, or with one element doubled (over ZZ) or times -2/3 (over QQ)."""
    arity = draw(st.integers(min_value=1, max_value=3))
    orders = [Lex(), DegRevLex()]
    if arity > 1:
        orders.append(Block((0,), DegRevLex(), Lex()))
    domain = draw(st.sampled_from(DOMAINS))
    ring_ = ring(sts.VARIABLES[arity], draw(st.sampled_from(orders)), domain)
    gens = draw(st.lists(sts.polynomials(ring_, max_terms=3, max_degree=3,
                                         allow_zero=False),
                         min_size=1, max_size=3))
    shapes = ["raw", "basis", "minus one", "plus generator"]
    if domain == ZZ:
        shapes.append("doubled")
    if domain == QQ:
        shapes.append("scaled")
    shape = draw(st.sampled_from(shapes))
    if shape == "raw":
        return gens
    complete = buchberger_z if domain == ZZ else buchberger_field
    try:
        basis = list(complete(gens, BUDGET()).elements)
    except ResourceLimitExceeded:
        assume(False)
    if shape == "basis":
        return basis
    if shape == "plus generator":
        return basis + [draw(st.sampled_from(gens))]
    i = draw(st.integers(min_value=0, max_value=len(basis) - 1))
    if shape == "minus one":
        return basis[:i] + basis[i + 1:]
    factor = 2 if shape == "doubled" else Fraction(-2, 3)
    return basis[:i] + [poly_scale(basis[i], factor)] + basis[i + 1:]


def _polys(domain, order, *texts):
    ring_ = ring(sts.VARIABLES[3], order, domain)
    return [parse_polynomial(text, ring_) for text in texts]


# Not Groebner bases.  In the first four every pair has the same lcm and a
# third element whose lead term divides it: a chain criterion that ignored
# whether the pairs it relies on were visited would skip all three pairs.
# In the last the lead monomials are coprime but the lead coefficients are
# not, so the product criterion must not skip S = y.
NOT_BASES = [
    _polys(QQ, Lex(), "z+y", "z+x", "z+2x"),
    _polys(ZZ, Lex(), "z+y", "z+x", "z+2x"),
    _polys(ModularDomain(2), DegRevLex(), "zy+y2", "zy+x2", "zy+y2+x2"),
    _polys(ModularDomain(7), Block((0,), DegRevLex(), Lex()), "z+y", "z+x", "z+3x"),
    _polys(ZZ, Lex(), "2y+1", "2x"),
]


@pytest.mark.parametrize("polys", NOT_BASES)
def test_not_a_basis(polys):
    assert not reference_is_groebner_basis(polys)
    assert not is_groebner_basis(polys)


@given(candidates())
@example(NOT_BASES[0])
@example(NOT_BASES[1])
@example(NOT_BASES[2])
@example(NOT_BASES[3])
@example(NOT_BASES[4])
# A QQ basis with denominators and a negative lead coefficient.  Made
# primitive, its S-pairs reduce to zero by pseudo-division only: integer
# division leaves 3yx2, which the lead term 4y of 4y+5x2 cannot cancel.
@example(_polys(QQ, Lex(), "-4/3y2x2+3/4yx2", "2/5y+1/2x2", "x4"))
@settings(max_examples=400)
def test_check_matches_all_pairs_reference(polys):
    assert is_groebner_basis(polys) == reference_is_groebner_basis(polys)


def test_check_budget_counts_only_checked_pairs(monkeypatch):
    """The pair budget is charged once per pair the check builds."""
    ring_ = ring(("a", "b", "c", "d"), DegRevLex(), QQ)
    gens = [parse_polynomial(text, ring_)  # cyclic4
            for text in ("a+b+c+d", "ab+bc+cd+da", "abc+bcd+cda+dab", "abcd-1")]
    basis = buchberger_field(gens).elements
    built = [0]
    for name in ("s_polynomial_field", "s_pair_z"):
        original = getattr(groebner, name)

        def counting(f, g, original=original):
            built[0] += 1
            return original(f, g)

        monkeypatch.setattr(groebner, name, counting)
    assert is_groebner_basis(basis)
    checked = built[0]
    pairs = len(basis) * (len(basis) - 1) // 2
    assert (checked, pairs) == (8, 21)
    assert is_groebner_basis(basis, RunStats(max_pairs=checked))
    with pytest.raises(ResourceLimitExceeded):
        is_groebner_basis(basis, RunStats(max_pairs=checked - 1))
