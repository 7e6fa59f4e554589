"""Differential test of the completeness check against the all-pairs check.

``reference_is_groebner_basis`` is ``is_groebner_basis`` as it stood
before it skipped pairs: it builds and reduces every S-pair (and G-pair
over ZZ).  It lives in ``reference.py``, outside the package, as the
specification.  The package's check visits fewer pairs, so both must give the same answer on
sets that are and are not Groebner bases, over ZZ, QQ, F_2 and F_7, in
Lex, DegRevLex and Block orders.

The one test that rebinds the pair builders is here too: it pins that
every pair ``RunStats`` is charged is built by ``s_pair_z`` or
``g_pair_z``, looked up by name, so that the pair-count tests can read
``RunStats`` alone.
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
    IdealOracle,
    Lex,
    ModularDomain,
    ResourceLimitExceeded,
    RunStats,
    buchberger_field,
    buchberger_z,
    gb_mod_m,
    groebner,
    is_groebner_basis,
    main_lemma_check,
    torsion_exponent,
)
from modgrob.parser import parse_polynomial
from modgrob.polyring import poly_scale, ring
from reference import reference_is_groebner_basis
from test_pair_counts import CERTIFY_PREFIXES, cyclic, katsura

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


def _instance(name):
    variables, texts = CERTIFY_PREFIXES[name]
    ring_ = ring(tuple(variables), DegRevLex(), ZZ)
    return [parse_polynomial(text, ring_) for text in texts]


CYCLIC4_QQ_BASIS = buchberger_field(cyclic(4, QQ)).elements  # 7 elements, 21 pairs


@pytest.mark.parametrize("run, s_pairs, g_pairs", [
    (lambda stats: buchberger_z(katsura(2, ZZ), stats), 13, 1),
    (lambda stats: buchberger_field(cyclic(4, QQ), stats), 13, 0),
    (lambda stats: buchberger_field(cyclic(4, ModularDomain(32003)), stats), 8, 0),
    (lambda stats: gb_mod_m(katsura(2, ZZ), 12, stats), 24, 3),
    # the strong basis, then K seeded with it and the eliminations at 2
    # and 3, each seeded with the basis so far (106 / 13 at rad(s))
    (lambda stats: torsion_exponent(_instance("166"), stats), 82, 10),
    # the oracle's bases, then the strong basis, its saturation as above
    # and its seeded bases mod 4 and 27 (the torsion exponent is 108;
    # 199 / 24 at rad(s))
    (lambda stats: main_lemma_check(IdealOracle(_instance("166"), stats),
                                    _instance("166"), stats), 175, 21),
    # the check builds 8 of the 21 pairs of a Groebner basis
    (lambda stats: is_groebner_basis(CYCLIC4_QQ_BASIS, stats), 8, 0),
    # generators that are not a basis: the check stops at the first pair
    (lambda stats: is_groebner_basis(katsura(3, QQ), stats), 1, 0),
], ids=["buchberger_z", "buchberger_field-QQ", "buchberger_field-F32003", "gb_mod_m",
        "torsion_exponent", "main_lemma_check", "is_groebner_basis",
        "is_groebner_basis-not-a-basis"])
def test_pair_builders_run_once_per_charged_pair(monkeypatch, run, s_pairs, g_pairs):
    """``_Pairs`` builds each pair it charges with ``s_pair_z`` or
    ``g_pair_z``, looked up in ``groebner`` by name at the call: rebinding
    them counts what ``RunStats`` counts, in every completion, seeded or
    not, and in the completeness check, each with the pair's packed lcm.
    ``perfbench/spans.py`` counts pairs that way.  The pair budget is
    exactly enough."""
    built = dict.fromkeys(("s_pair_z", "g_pair_z"), 0)
    for name in built:
        original = getattr(groebner, name)

        def counting(f, g, lcm, name=name, original=original):
            built[name] += 1
            return original(f, g, lcm)

        monkeypatch.setattr(groebner, name, counting)
    stats = RunStats()
    run(stats)
    assert built == {"s_pair_z": stats.pairs - stats.g_pairs, "g_pair_z": stats.g_pairs}
    assert (stats.pairs - stats.g_pairs, stats.g_pairs) == (s_pairs, g_pairs)
    run(RunStats(max_pairs=stats.pairs))
    with pytest.raises(ResourceLimitExceeded):
        run(RunStats(max_pairs=stats.pairs - 1))
