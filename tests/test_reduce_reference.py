"""Differential test of the division kernel against the earlier one.

``reference_reduce`` is the division loop as it stood before the kernel
inlined its monomial arithmetic, memoised order keys and dropped the
coefficient normalisation over ZZ and QQ.  It stays here, outside the
package, as the specification: ``normal_form`` must return the same
remainders, coefficient types included, over ZZ, QQ, F_p and ZZ/m, in Lex,
DegRevLex and the Block order that the saturation in ``torsion``
eliminates with.  Its quotient mode rebuilds, in ``test_torsion``, the
multipliers that cofactor division over QQ gave.
"""

import heapq

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
from modgrob.polyring import (
    Polynomial,
    leading_coefficient,
    leading_monomial,
    monomial_div,
    monomial_divides,
    monomial_key,
    monomial_mul,
    poly_add,
    poly_mul,
    ring,
)

F7 = ModularDomain(7)
Z12 = ModularDomain(12)
VARIABLES = {1: ("x",), 2: ("y", "x"), 3: ("z", "y", "x")}


def reference_reduce(f, reducers, want_quotients=False, budget=None):
    """Shared division loop; deterministic: first eligible reducer wins.

    Returns (quotients, remainder).  A term is moved to the remainder only
    once no reducer changes it, which over ZZ / ZZ/m means its coefficient
    is the canonical residue for every applicable lead coefficient.

    The current largest monomial comes from a lazy max-heap (entries whose
    monomial dropped out of the working dict are skipped on pop), so keys
    are computed once per introduced monomial instead of once per sweep.
    """
    dom = f.ring.domain
    key = monomial_key(f.ring.order)
    leads = [(leading_monomial(g), leading_coefficient(g)) for g in reducers]
    work = {mono: c for c, mono in f.terms}
    heap = [(tuple(-v for v in key(mono)), mono) for mono in work]
    heapq.heapify(heap)
    rem = []
    quotients = [{} for _ in reducers] if want_quotients else None
    while heap:
        negkey, mono = heapq.heappop(heap)
        c = work.get(mono)
        if c is None:
            continue
        progressed = False
        for idx, (gm, gc) in enumerate(leads):
            if not monomial_divides(gm, mono):
                continue
            q, _ = dom.coeff_divmod(c, gc)
            if q == 0:
                continue
            if budget is not None:
                budget.reduction()
            shift = monomial_div(mono, gm)
            for tc, tm in reducers[idx].terms:
                target = monomial_mul(tm, shift)
                old = work.get(target)
                v = dom.normalize((old or 0) - q * tc)
                if v == 0:
                    if old is not None:
                        del work[target]
                elif old is None:
                    work[target] = v
                    heapq.heappush(heap, (tuple(-u for u in key(target)), target))
                else:
                    work[target] = v
            if want_quotients:
                quotients[idx][shift] = quotients[idx].get(shift, 0) + q
            progressed = True
            break
        if not progressed:
            rem.append((c, mono))
            del work[mono]
        elif mono in work:
            # partially reduced lead coefficient: revisit the same monomial
            heapq.heappush(heap, (negkey, mono))
    remainder = Polynomial(f.ring, tuple(rem))
    if want_quotients:
        qpolys = [Polynomial.from_terms(f.ring, [(c, m) for m, c in qd.items()])
                  for qd in quotients]
        return qpolys, remainder
    return None, remainder



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
    ring_ = ring(VARIABLES[arity], draw(st.sampled_from(orders)),
                 draw(st.sampled_from(domains)))
    reducers = draw(st.lists(sts.polynomials(ring_, max_terms=3, max_degree=2,
                                             allow_zero=False),
                             min_size=1, max_size=4))
    f = draw(sts.polynomials(ring_, max_terms=5, max_degree=4))
    for g in reducers:
        f = poly_add(f, poly_mul(draw(sts.polynomials(ring_, max_terms=2, max_degree=2)), g))
    return f, reducers


@given(division_problems((ZZ, QQ, F7, Z12)))
@settings(max_examples=300, deadline=None)
def test_normal_form_matches_reference(problem):
    f, reducers = problem
    _, expected = reference_reduce(f, reducers)
    assert _exact(normal_form(f, reducers)) == _exact(expected)
