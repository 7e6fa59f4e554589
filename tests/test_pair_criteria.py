"""Differential test of the pair criteria against the completion without them.

``reference_complete`` is the completion loop as it stood before the chain
and G-pair criteria, with the product criterion and parent subsumption
only.  It stays here, outside the package, as the specification: reduced
strong bases are canonical, so ``buchberger_z``, ``gb_mod_m`` and
``saturation_contraction`` must return the same elements whether the
engine skips pairs by a criterion or builds every one, in Lex, DegRevLex
and Block orders, and each result must pass ``is_groebner_basis``.
``_ReducerView`` is the package's sorted reducer list of that time, copied
verbatim.
"""

import bisect
import heapq
import math
from unittest import mock

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import strategies as sts
from modgrob import (
    ZZ,
    Block,
    DegRevLex,
    Lex,
    Limits,
    Polynomial,
    ResourceLimitExceeded,
    buchberger_z,
    gb_mod_m,
    groebner,
    is_groebner_basis,
    saturation_contraction,
)
from modgrob.parser import parse_polynomial
from modgrob.groebner import (
    G_PAIR,
    S_PAIR,
    _Budget,
    _canonicalize,
    _domain_rules,
    _poly_sort_key,
    _reduce,
)
from modgrob.polyring import (
    leading_term,
    monomial_key,
    monomial_lcm,
    monomial_mul,
    ring,
)

VARIABLES = {1: ("x",), 2: ("y", "x"), 3: ("z", "y", "x")}
# The reference builds every pair, so the budget keeps a rare blow-up short.
BUDGET = Limits(max_pairs=1500)


class _ReducerView:
    """Working basis kept sorted ascending by lead monomial, so smaller
    reducers apply first; insertion keeps pair indices stable elsewhere."""

    def __init__(self, key):
        self._sort_key = _poly_sort_key(key)
        self._entries = []  # (sort key, insertion counter, poly)
        self._counter = 0
        self.polys = []

    def insert(self, poly):
        entry = (self._sort_key(poly), self._counter, poly)
        self._counter += 1
        pos = bisect.bisect(self._entries, entry)
        self._entries.insert(pos, entry)
        self.polys.insert(pos, poly)


def reference_complete(gens, ring_, limits, seeded=0):
    """Close the generators under their pair polynomials, then canonicalize.

    Pairs pop by the order key of their lcm, S-pairs before G-pairs on the
    same lcm, then in creation order.  ``seeded`` is ignored: the reference
    builds the pairs of a seed too.
    """
    normalize, pair_functions = _domain_rules(ring_)
    budget = _Budget(limits)
    key = monomial_key(ring_.order)
    G = []
    view = _ReducerView(key)
    queue = []
    counter = 0

    def add_reduced(f):
        """Reduce f; a nonzero remainder joins G along with its pairs."""
        nonlocal counter
        _, r = _reduce(f, view.polys, budget=budget)
        if r.is_zero:
            return
        new_index = len(G)
        G.append(normalize(r))
        view.insert(G[-1])
        b, mg = leading_term(G[-1])
        for i in range(new_index):
            a, mf = leading_term(G[i])
            lcm = monomial_lcm(mf, mg)
            # Product criterion: over ZZ it is only sound when the lead
            # coefficients are coprime as well; monic elements always are.
            if not (lcm == monomial_mul(mf, mg) and (a == 1 or math.gcd(a, b) == 1)):
                heapq.heappush(queue, (key(lcm), S_PAIR, counter, i, new_index))
                counter += 1
            # A G-pair is subsumed by one of its parents when one lead
            # coefficient divides the other, as 1 always divides 1.
            if not (b % a == 0 or a % b == 0):
                heapq.heappush(queue, (key(lcm), G_PAIR, counter, i, new_index))
                counter += 1

    for g in gens:
        if not g.is_zero:
            add_reduced(g)
    while queue:
        _, kind, _, i, j = heapq.heappop(queue)
        budget.pair()
        add_reduced(pair_functions[kind](G[i], G[j]))
    return _canonicalize(G, ring_, key)


@st.composite
def zz_ideals(draw):
    """A few small generators over ZZ in a Lex, DegRevLex or Block order."""
    arity = draw(st.integers(min_value=1, max_value=3))
    orders = [Lex(), DegRevLex()]
    if arity > 1:
        orders += [Block((0,), Lex(), DegRevLex()), Block((0,), DegRevLex(), Lex())]
    ring_ = ring(VARIABLES[arity], draw(st.sampled_from(orders)), ZZ)
    gens = draw(st.lists(sts.polynomials(ring_, max_terms=3, max_degree=3,
                                         allow_zero=False),
                         min_size=1, max_size=3))
    return gens


def _ideal(order, *texts):
    ring_ = ring(VARIABLES[3], order, ZZ)
    return [parse_polynomial(text, ring_) for text in texts]


# Each of these loses basis elements when the chain criterion ignores
# whether the S-pairs it relies on are still queued.
CHAIN_TRAPS = [
    _ideal(Lex(), "6z+6x", "3zx+5"),
    _ideal(Lex(), "3zx+8", "7x", "3"),
    _ideal(DegRevLex(), "yx", "8zy+5", "3zx+3y"),
]


def _both(compute):
    """compute() with the reference engine, then with the package's own."""
    try:
        with mock.patch.object(groebner, "_complete", reference_complete):
            expected = compute()
    except ResourceLimitExceeded:
        assume(False)
    return expected, compute()


@given(zz_ideals())
@example(CHAIN_TRAPS[0])
@example(CHAIN_TRAPS[1])
@example(CHAIN_TRAPS[2])
@settings(max_examples=300, deadline=None)
def test_strong_basis_matches_reference(gens):
    expected, basis = _both(lambda: buchberger_z(gens, BUDGET))
    assert basis.elements == expected.elements
    assert is_groebner_basis(basis.elements)


@given(zz_ideals(), st.sampled_from([4, 6, 12, 27]))
@example(CHAIN_TRAPS[0], 4)
@settings(max_examples=200, deadline=None)
def test_basis_mod_m_matches_reference(gens, m):
    expected, basis = _both(lambda: gb_mod_m(gens, m, BUDGET))
    assert basis.elements == expected.elements
    adjoined = gens + [Polynomial.constant(gens[0].ring, m)]
    assert is_groebner_basis(buchberger_z(adjoined, BUDGET).elements)


@given(zz_ideals())
@example(CHAIN_TRAPS[0])
@settings(max_examples=100, deadline=None)
def test_saturation_matches_reference(gens):
    expected, picked = _both(lambda: saturation_contraction(gens, BUDGET))
    assert picked == expected
    assert is_groebner_basis(picked)
