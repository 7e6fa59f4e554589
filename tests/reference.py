"""Frozen copies of package code: the specifications of differential tests.

Each function or class is package code as it stood before a change, its
body verbatim.  Two frozen versions of ``_reduce`` exist, so the copies
are renamed by what they specify:

- ``reference_reduce``: the division loop before the kernel inlined its
  monomial arithmetic, memoised order keys and dropped the coefficient
  normalisation over ZZ and QQ (``test_reduce_reference``; its quotient
  mode rebuilds cofactor multipliers in ``test_torsion``);
- ``fraction_complete``, ``fraction_reduce`` and ``fraction_canonicalize``:
  ``_complete``, ``_reduce`` and ``_canonicalize`` when completion over QQ
  still computed with ``Fraction`` coefficients and monic elements, with
  ``_chain_skips`` and ``_g_pair_skips``, the helpers of that time
  (``test_qq_fraction_free``);
- ``criteria_free_complete``: the completion loop before the chain and
  G-pair criteria, with the product criterion and parent subsumption only
  (``test_pair_criteria``);
- ``fixed_point_canonicalize``: ``_canonicalize`` when it repeated
  minimization and tail reduction until a pass changed nothing
  (``test_canonicalize``), taking ``_canonicalize``'s later signature and
  unpacking what ``_reduce`` later returned packed;
- ``canonicalize_list``, not a frozen copy: ``_canonicalize`` of a list
  in any order, ordered and packed as completion hands its reducers over;
- ``dividend_polynomial``, not a frozen copy: the Polynomial of what
  ``_reduce`` is handed, for tests that watch it;
- ``_ReducerView``: the sorted reducer list of those completion loops;
- ``_domain_rules``, ``_poly_sort_key`` and ``_strongly_divides``, the
  helpers of that time for every frozen completion, canonicalization and
  check here: each domain's normaliser and pair functions, a sort key over
  every term, and whether one lead term strongly divides another, with
  ``_primitive`` and ``_sign_normalized``, the normalisers of QQ and ZZ
  when completion normalized ``Polynomial``s;
- ``reference_is_groebner_basis``: ``is_groebner_basis`` before it
  skipped pairs, reducing every S-pair and G-pair (``test_groebner_check``);
- ``reference_contract``: ``torsion._contract`` when it saturated at s
  with an unseeded completion (``test_seeded_completion``), with
  ``inject_variable`` and ``drop_variable``, the ``polyring`` helpers
  that moved a polynomial into the ring with Y and back through
  ``Polynomial.from_terms``, refusing a target ring of the wrong arity
  and a Y that occurs;
- ``merge_poly_add``, ``merge_poly_sub``, ``merge_term_mul``,
  ``merge_s_polynomial_field``, ``merge_s_pair_z`` and ``merge_g_pair_z``:
  sums, differences and pair polynomials when ``poly_add`` merged two
  sorted term lists with two pointers, ``poly_sub`` negated with
  ``poly_scale`` first and each pair polynomial built both multiples with
  ``term_mul`` (``test_pair_polynomials``); the G-pair's ``left + right``
  reads ``merge_poly_add(left, right)``; ``monomial_div``, the exported
  ``polyring`` quotient of monomials of that time, divides the lcm by
  each lead monomial there;
- ``reference_tokenize``, ``reference_split_variable_factors``,
  ``reference_PolyParser`` and ``reference_parse_problem``: the parser
  when it scanned characters one by one and built every constant,
  monomial, sum and product as a ``Polynomial`` (``test_parser``), with
  ``_coeff_bits`` and ``_PUNCT``, the helpers of that time.
"""

import bisect
import heapq
import math
from fractions import Fraction
from operator import add, le, neg, sub

from modgrob import (
    ZZ,
    Block,
    DomainError,
    Lex,
    ModularDomain,
    ParseError,
    Polynomial,
    ResourceLimitExceeded,
    RingDescriptor,
    RunStats,
    ZeroPolynomial,
    buchberger_z,
    normal_form,
)
from modgrob.groebner import (
    G_PAIR,
    S_PAIR,
    GroebnerBasis,
    _canonicalize,
    _Packed,
    _reduce,
    _unpacked,
    g_pair_z,
    s_pair_z,
    s_polynomial_field,
)
from modgrob.intarith import ext_gcd
from modgrob.parser import (
    _MAX_NESTING,
    _MAX_POWER_BITS,
    _MAX_POWER_TERMS,
    ProblemFile,
    Token,
    _Cursor,
    _int,
    _parse_ring,
)
from modgrob.polyring import (
    _MAX_EXPONENT,
    IntegerDomain,
    RationalDomain,
    _same_ring,
    change_domain,
    fresh_variable_name,
    leading_coefficient,
    leading_monomial,
    leading_term,
    monomial_divides,
    monomial_key,
    monomial_lcm,
    monomial_mul,
    monic,
    poly_scale,
    with_domain,
)


def _domain_rules(ring_, pseudo=False):
    """(normaliser, pair polynomials by kind): all that completion does per domain.

    A field is the Euclidean case in which every lead coefficient is a
    unit, so every G-pair is subsumed by a parent and S-polynomials remain.
    ``pseudo`` asks for the fraction-free rules of QQ: primitive integer
    polynomials, whose integer S-pairs are unit multiples of the field's.
    The pair functions are looked up here, at call time, so rebinding the
    module names reaches every completion and completeness check.
    """
    dom = ring_.domain
    if pseudo:
        return _primitive, {S_PAIR: s_pair_z}
    if dom.is_field:
        return monic, {S_PAIR: s_polynomial_field}
    if isinstance(dom, IntegerDomain):
        return _sign_normalized, {S_PAIR: s_pair_z, G_PAIR: g_pair_z}
    raise DomainError(f"{dom.name}: only fields and ZZ are supported")


def _primitive(f):
    """Nonzero f as a polynomial over ZZ with denominators cleared, content
    removed and a positive lead coefficient: the form completion keeps over QQ."""
    den = math.lcm(*(c.denominator for c, _ in f.terms))
    nums = [c.numerator * (den // c.denominator) for c, _ in f.terms]
    g = math.gcd(*nums) if nums[0] > 0 else -math.gcd(*nums)
    return Polynomial(with_domain(f.ring, ZZ),
                      tuple((n // g, m) for n, (_, m) in zip(nums, f.terms)))


def _sign_normalized(f):
    return poly_scale(f, -1) if leading_coefficient(f) < 0 else f


def _poly_sort_key(key):
    def inner(f):
        return tuple((key(m), c) for c, m in f.terms)
    return inner


def _strongly_divides(lt_small, lt_big):
    (c1, m1), (c2, m2) = lt_small, lt_big
    return monomial_divides(m1, m2) and c2 % c1 == 0


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


def fraction_reduce(f, reducers, want_quotients=False, budget=None):
    """Shared division loop; deterministic: first eligible reducer wins.

    Returns (quotients, remainder).  A term is moved to the remainder only
    once no reducer changes it, which over ZZ / ZZ/m means its coefficient
    is the canonical residue for every applicable lead coefficient.

    The current largest monomial comes from a lazy max-heap (entries whose
    monomial dropped out of the working dict are skipped on pop).  Each
    monomial's negated order key is computed once per call and kept in a
    dict that dies with the call.  Monomial arithmetic is inlined as
    ``map`` over ``operator`` functions, and new coefficients are only
    reduced mod m over ZZ/m: int and Fraction arithmetic is already
    canonical over ZZ and QQ.
    """
    dom = f.ring.domain
    coeff_divmod = dom.coeff_divmod
    modulus = dom.modulus if isinstance(dom, ModularDomain) else None
    key = monomial_key(f.ring.order)
    leads = []
    for g in reducers:
        lc, lm = leading_term(g)
        leads.append((lm, lc, g.terms[1:]))
    work = {mono: c for c, mono in f.terms}
    negkeys = {mono: tuple(map(neg, key(mono))) for mono in work}
    heap = [(nk, mono) for mono, nk in negkeys.items()]
    heapq.heapify(heap)
    heappush, heappop = heapq.heappush, heapq.heappop
    rem = []
    quotients = [{} for _ in reducers] if want_quotients else None
    while heap:
        negkey, mono = heappop(heap)
        c = work.get(mono)
        if c is None:
            continue
        for idx, (gm, gc, gtail) in enumerate(leads):
            if not all(map(le, gm, mono)):
                continue
            q, _ = coeff_divmod(c, gc)
            if q == 0:
                continue
            if budget is not None:
                budget.reduction()
            # The lead term lands on mono itself, every other term below it.
            c -= q * gc
            shift = tuple(map(sub, mono, gm))
            for tc, tm in gtail:
                target = tuple(map(add, tm, shift))
                old = work.get(target)
                if old is None:
                    v = -q * tc
                    if modulus is not None:
                        v %= modulus
                    if v != 0:
                        work[target] = v
                        nk = negkeys.get(target)
                        if nk is None:
                            nk = negkeys[target] = tuple(map(neg, key(target)))
                        heappush(heap, (nk, target))
                else:
                    v = old - q * tc
                    if modulus is not None:
                        v %= modulus
                    if v == 0:
                        del work[target]
                    else:
                        work[target] = v
            if want_quotients:
                quotients[idx][shift] = quotients[idx].get(shift, 0) + q
            break
        else:
            rem.append((c, mono))
            del work[mono]
            continue
        if modulus is not None:
            c %= modulus
        if c == 0:
            del work[mono]
        else:
            # partially reduced lead coefficient: revisit the same monomial
            work[mono] = c
            heappush(heap, (negkey, mono))
    remainder = Polynomial(f.ring, tuple(rem))
    if want_quotients:
        qpolys = [Polynomial.from_terms(f.ring, [(c, m) for m, c in qd.items()])
                  for qd in quotients]
        return qpolys, remainder
    return None, remainder


def _chain_skips(leads, i, j, pending):
    """Chain criterion for S-pair (i, j) over lead terms (c, m): some k other
    than i and j has lt_k dividing lcm(c_i, c_j) lcm(m_i, m_j), and neither
    S-pair (i, k) nor (j, k) is pending."""
    (a, mf), (b, mg) = leads[i], leads[j]
    c, lcm = math.lcm(a, b), monomial_lcm(mf, mg)
    return any(c % ck == 0 and all(map(le, mk, lcm)) and k != i and k != j
               and (min(i, k), max(i, k)) not in pending
               and (min(j, k), max(j, k)) not in pending
               for k, (ck, mk) in enumerate(leads))


def _g_pair_skips(leads, i, j):
    """G-pair criterion: some lead term strongly divides gcd(c_i, c_j) lcm(m_i, m_j)."""
    (a, mf), (b, mg) = leads[i], leads[j]
    c, lcm = math.gcd(a, b), monomial_lcm(mf, mg)
    return any(c % ck == 0 and all(map(le, mk, lcm)) for ck, mk in leads)


def fraction_complete(gens, ring_, limits):
    """Close the generators under their pair polynomials, then canonicalize.

    Pairs pop by the order key of their lcm, S-pairs before G-pairs on the
    same lcm, then in creation order.  A pair skipped by a criterion builds
    no polynomial and costs nothing against ``Limits.max_pairs``.

    Over ZZ two criteria skip pairs when they are popped; write lt_i =
    c_i m_i and T_ij = lcm(c_i, c_j) lcm(m_i, m_j).

    - Chain criterion: S-pair (i, j) is skipped when some k other than i
      and j has lt_k dividing T_ij (c_k | lcm(c_i, c_j), m_k | lcm(m_i,
      m_j)) and neither S-pair (i, k) nor (j, k) is still queued.  Over a
      PID the S-syzygies of the lead terms generate their syzygy module,
      and then S_ij = (T_ij / T_ik) S_ik + (T_ij / T_kj) S_kj, so S_ij
      lifts once S_ik and S_kj do.  Those two left the queue earlier,
      reduced, dropped by the product criterion or skipped in turn, so
      induction on the time a pair left the queue gives a lift for every
      S-pair: the basis is a (weak) Groebner basis.
    - G-pair criterion: G-pair (i, j) is skipped when a current lead term
      strongly divides gcd(c_i, c_j) lcm(m_i, m_j).  Elements never leave
      the working basis, so it still does at the end.  Were the basis
      then not strong, some monomial m would have lead coefficients
      c_i, c_k over it (m_i, m_k | m), c_k the least, with c_k not
      dividing c_i.  Their G-pair was not subsumed by a parent, and not
      skipped, since that needs a lead coefficient dividing gcd(c_i, c_k)
      < c_k over m.  So it was reduced; every lead coefficient over m is
      >= c_k > gcd(c_i, c_k) > 0, so its lead term stayed and joined the
      basis, contradicting the choice of c_k.

    Over a field neither criterion runs, so the field path makes exactly
    the pairs it made before; enabling them there is left to a change
    that may move the pinned field pair counts.
    """
    normalize, pair_functions = _domain_rules(ring_)
    criteria = not ring_.domain.is_field
    budget = limits or RunStats()
    key = monomial_key(ring_.order)
    G = []
    leads = []  # (lead coefficient, lead monomial) of each element of G
    view = _ReducerView(key)
    queue = []
    pending = set()  # queued S-pairs (i, j), i < j
    counter = 0

    def add_reduced(f):
        """Reduce f; a nonzero remainder joins G along with its pairs."""
        nonlocal counter
        _, r = fraction_reduce(f, view.polys, budget=budget)
        if r.is_zero:
            return
        new_index = len(G)
        G.append(normalize(r))
        view.insert(G[-1])
        b, mg = leading_term(G[-1])
        leads.append((b, mg))
        for i in range(new_index):
            a, mf = leads[i]
            lcm = monomial_lcm(mf, mg)
            # Product criterion: over ZZ it is only sound when the lead
            # coefficients are coprime as well; monic elements always are.
            if not (lcm == monomial_mul(mf, mg) and (a == 1 or math.gcd(a, b) == 1)):
                heapq.heappush(queue, (key(lcm), S_PAIR, counter, i, new_index))
                pending.add((i, new_index))
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
        if kind == S_PAIR:
            pending.discard((i, j))
            if criteria and _chain_skips(leads, i, j, pending):
                continue
        elif _g_pair_skips(leads, i, j):
            continue
        budget.pair()
        add_reduced(pair_functions[kind](G[i], G[j]))
    return fraction_canonicalize(G, ring_, key)


def fraction_canonicalize(G, ring_, key):
    """Minimize and (strongly) tail-reduce a complete basis to a fixed point.

    Over a field the first pass already gives the reduced basis and the
    second only confirms it; over ZZ a tail reduction can lower a lead
    coefficient and so change which elements are minimal.
    """
    normalize, _ = _domain_rules(ring_)
    G = [normalize(g) for g in G if not g.is_zero]
    for _ in range(1000):
        G.sort(key=_poly_sort_key(key))
        kept = []
        for g in G:
            lt = leading_term(g)
            if not any(_strongly_divides(leading_term(h), lt) for h in kept):
                kept.append(g)
        stable = True
        for i in range(len(kept)):
            others = kept[:i] + kept[i + 1:]
            _, r = fraction_reduce(kept[i], others)
            r = normalize(r)
            if r != kept[i]:
                stable = False
            kept[i] = r
        G = [g for g in kept if not g.is_zero]
        if stable:
            G.sort(key=lambda g: key(leading_monomial(g)), reverse=True)
            return GroebnerBasis(ring_, tuple(G), reduced=True)
    raise ResourceLimitExceeded("basis reduction did not stabilize")


def canonicalize_list(G, ring_, stats):
    """``_canonicalize`` of a Groebner basis given as a list in any order:
    its nonzero elements normalized as completion keeps them (``_primitive``
    over QQ), ascending by lead term and packed, as completion hands over
    its reducer list."""
    if isinstance(ring_.domain, RationalDomain):
        polys = [_primitive(g) for g in G if not g.is_zero]
    else:
        normalize, _ = _domain_rules(ring_)
        polys = [normalize(g) for g in G if not g.is_zero]
    key = monomial_key(ring_.order)
    polys.sort(key=lambda f: (key(leading_monomial(f)), leading_coefficient(f)))
    return _canonicalize(_Packed(polys[0].ring if polys else ring_, polys), ring_, stats)


def dividend_polynomial(f):
    """The Polynomial of f, a Polynomial or a dividend (ring, work, exps) of
    ``_reduce``: its terms by K descending, unpacked."""
    if isinstance(f, Polynomial):
        return f
    ring_, work, exps = f
    return _unpacked(ring_, [(work[K], K, exps[K]) for K in sorted(work, reverse=True)])


def criteria_free_complete(gens, ring_, limits, seeded=0):
    """Close the generators under their pair polynomials, then canonicalize.

    Pairs pop by the order key of their lcm, S-pairs before G-pairs on the
    same lcm, then in creation order.  ``seeded`` is ignored: the reference
    builds the pairs of a seed too.
    """
    normalize, pair_functions = _domain_rules(ring_)
    budget = limits or RunStats()
    key = monomial_key(ring_.order)
    G = []
    view = _ReducerView(key)
    queue = []
    counter = 0

    def add_reduced(f):
        """Reduce f; a nonzero remainder joins G along with its pairs."""
        nonlocal counter
        r = _unpacked(ring_, _reduce(f, _Packed(ring_, view.polys), budget.reduction)[1])
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
    return canonicalize_list(G, ring_, budget)


def fixed_point_canonicalize(packed, ring_, stats):
    """Minimize and (strongly) tail-reduce a complete basis to a fixed point.

    Over a field the first pass already gives the reduced basis and the
    second only confirms it; over ZZ a tail reduction can lower a lead
    coefficient and so change which elements are minimal.  A pass that is
    not the last takes a reduction step, and every step is charged to
    ``stats``, the completion's ``RunStats``, so the loop ends.  Its
    signature is ``_canonicalize``'s, so that a test can patch one for the
    other: the entries of ``packed`` are unpacked, may come in any order
    and, over QQ, as integer polynomials, and the order key is read off the
    ring.
    """
    polys = [_unpacked(ring, [(c, K, E), *tail]) for E, K, c, _, tail, ring in packed]
    key = monomial_key(ring_.order)
    normalize, _ = _domain_rules(ring_)
    G = [normalize(change_domain(g, ring_.domain)) for g in polys if not g.is_zero]
    while True:
        G.sort(key=_poly_sort_key(key))
        kept = []
        for g in G:
            lt = leading_term(g)
            if not any(_strongly_divides(leading_term(h), lt) for h in kept):
                kept.append(g)
        stable = True
        for i in range(len(kept)):
            others = kept[:i] + kept[i + 1:]
            r = _unpacked(ring_, _reduce(kept[i], _Packed(ring_, others), stats.step)[1])
            r = normalize(r)
            if r != kept[i]:
                stable = False
            kept[i] = r
        G = [g for g in kept if not g.is_zero]
        if stable:
            G.sort(key=lambda g: key(leading_monomial(g)), reverse=True)
            return GroebnerBasis(ring_, tuple(G), reduced=True)


def reference_is_groebner_basis(polys):
    """Check completeness directly: every S-pair (and G-pair over ZZ) drops to 0."""
    polys = [p for p in polys if not p.is_zero]
    if not polys:
        return True
    _, pair_functions = _domain_rules(polys[0].ring)
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            for pair_polynomial in pair_functions.values():
                if not normal_form(pair_polynomial(polys[i], polys[j]), polys).is_zero:
                    return False
    return True


def inject_variable(f, new_ring, position):
    """View f inside a ring with one extra variable (exponent 0 everywhere)."""
    if new_ring.arity != f.ring.arity + 1:
        raise ValueError("target ring must have exactly one extra variable")
    pairs = []
    for c, mono in f.terms:
        pairs.append((c, mono[:position] + (0,) + mono[position:]))
    return Polynomial.from_terms(new_ring, pairs)


def drop_variable(f, position, new_ring):
    """Inverse of inject_variable; every exponent at ``position`` must be 0."""
    if new_ring.arity != f.ring.arity - 1:
        raise ValueError("target ring must have exactly one variable fewer")
    pairs = []
    for c, mono in f.terms:
        if mono[position] != 0:
            raise ValueError(f"variable at position {position} occurs in {f}")
        pairs.append((c, mono[:position] + mono[position + 1:]))
    return Polynomial.from_terms(new_ring, pairs)


def reference_contract(basis_z, limits=None):
    """Y-free part of the strong basis of <J, s*Y - 1> under Block(Y; order)."""
    ring_ = basis_z.ring
    if not basis_z.elements:
        return []
    s = math.lcm(*(leading_coefficient(g) for g in basis_z.elements))
    yname = fresh_variable_name(ring_.variables, "Y")
    ext_ring = RingDescriptor((yname,) + ring_.variables,
                              Block((0,), Lex(), ring_.order),
                              ring_.domain)
    y_mono = (1,) + ring_.one_monomial()
    inverter = Polynomial.from_terms(ext_ring, [(s, y_mono), (-1, (0,) + ring_.one_monomial())])
    ext_gens = [inject_variable(g, ext_ring, 0) for g in basis_z.elements]
    ext_gens.append(inverter)
    eliminated = buchberger_z(ext_gens, limits)
    picked = []
    for h in eliminated.elements:
        if leading_monomial(h)[0] == 0:
            # Elimination property of the block order: a Y-free lead
            # monomial forces the whole polynomial to be Y-free.
            picked.append(drop_variable(h, 0, ring_))
    return picked


_PUNCT = set("=,;()^+-*/:")


def _coeff_bits(f):
    return max((max(abs(c.numerator).bit_length(), c.denominator.bit_length())
                for c, _ in f.terms), default=0)


def reference_tokenize(text):
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "/" and i + 1 < n and text[i + 1] == "/":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_col = col
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(Token("INT", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("IDENT", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch in _PUNCT:
            tokens.append(Token("PUNCT", ch, line, start_col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, start_col)
    tokens.append(Token("END", "", line, col))
    return tokens


def reference_split_variable_factors(token, variables):
    """Split an IDENT like 'y2x' into [(var_index, exponent), ...].

    Longest declared variable name wins at each position; a trailing digit
    run is the exponent of the variable just matched.
    """
    by_length = sorted(variables, key=len, reverse=True)
    text = token.text
    pos = 0
    factors = []
    while pos < len(text):
        for name in by_length:
            if text.startswith(name, pos):
                pos += len(name)
                start = pos
                while pos < len(text) and text[pos].isdigit():
                    pos += 1
                digits = Token("INT", text[start:pos], token.line, token.column + start)
                factors.append((variables.index(name), _int(digits) if digits.text else 1))
                break
        else:
            raise ParseError(f"unknown identifier {text[pos:]!r}",
                             token.line, token.column + pos)
    return factors


class reference_PolyParser:  # noqa: N801  the frozen _PolyParser
    """Recursive-descent expression parser over the shared token cursor.

    One instance reads every polynomial of a problem file, so that they
    all draw on one expansion budget.
    """

    def __init__(self, cursor, ring):
        self.cur = cursor
        self.ring = ring
        self.depth = 0
        self.spent = 0  # term products formed so far

    def expression(self):
        tok = self.cur.peek()
        negate = False
        if tok.kind == "PUNCT" and tok.text in "+-":
            self.cur.advance()
            negate = tok.text == "-"
        result = self.term()
        if negate:
            result = -result
        while True:
            tok = self.cur.peek()
            if tok.kind == "PUNCT" and tok.text in "+-":
                self.cur.advance()
                nxt = self.term()
                result = result - nxt if tok.text == "-" else result + nxt
            else:
                return result

    def term(self):
        result = self.factor()
        while True:
            tok = self.cur.peek()
            if tok.kind == "PUNCT" and tok.text == "/":
                self.cur.advance()
                result = self._divide(result, tok)
            elif tok.kind in ("INT", "IDENT") or (tok.kind == "PUNCT" and tok.text in "*("):
                self.cur.match("PUNCT", "*")
                factor = self.factor()
                result = self._capped_mul(result, factor, tok)
            else:
                return result

    def _divide(self, numerator, slash_tok):
        tok = self.cur.expect("INT")
        value = _int(tok)
        if value == 0:
            raise ParseError("division by zero", tok.line, tok.column)
        if not isinstance(self.ring.domain, RationalDomain):
            raise ParseError("rational constants only make sense over QQ",
                             slash_tok.line, slash_tok.column)
        return numerator * Fraction(1, value)

    def factor(self):
        tok = self.cur.peek()
        if tok.kind == "INT":
            self.cur.advance()
            base = Polynomial.constant(self.ring, _int(tok))
            return self._power(base)
        if tok.kind == "IDENT":
            self.cur.advance()
            factors = reference_split_variable_factors(tok, self.ring.variables)
            # an explicit ^ binds to the last variable of the group, so
            # that yx^2 reads as y*(x^2)
            if self.cur.match("PUNCT", "^"):
                exp_tok = self.cur.expect("INT")
                idx, exp = factors[-1]
                factors[-1] = (idx, exp * _int(exp_tok))
            mono = [0] * self.ring.arity
            for idx, exp in factors:
                mono[idx] += exp
            try:
                return Polynomial.from_terms(self.ring, [(1, tuple(mono))])
            except ValueError as exc:  # an exponent beyond the supported range
                raise ParseError(str(exc), tok.line, tok.column) from None
        if tok.kind == "PUNCT" and tok.text == "(":
            if self.depth == _MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {_MAX_NESTING}",
                                 tok.line, tok.column)
            self.cur.advance()
            self.depth += 1
            inner = self.expression()
            self.depth -= 1
            self.cur.expect("PUNCT", ")")
            return self._power(inner)
        raise ParseError(f"expected a polynomial factor, found {tok.text or 'end of input'!r}",
                         tok.line, tok.column)

    def _power(self, base):
        if not self.cur.match("PUNCT", "^"):
            return base
        tok = self.cur.expect("INT")
        exp = _int(tok)
        top = max((e for _, mono in base.terms for e in mono), default=0)
        if exp > _MAX_EXPONENT or exp * top > _MAX_EXPONENT:
            raise ParseError(f"exponent out of range: {tok.text}", tok.line, tok.column)
        message = f"power too large to expand: ^{tok.text}"
        result = Polynomial.constant(self.ring, 1)
        while exp:  # square and multiply
            if exp & 1:
                result = self._capped_mul(result, base, tok, message)
            exp >>= 1
            if exp:
                base = self._capped_mul(base, base, tok, message)
        return result

    def _capped_mul(self, a, b, tok, message="product too large to expand"):
        """a * b, charged to the term products spent so far, unless it
        would pass the expansion caps."""
        self.spent += len(a.terms) * len(b.terms)
        if (self.spent > _MAX_POWER_TERMS
                or _coeff_bits(a) + _coeff_bits(b) > _MAX_POWER_BITS):
            raise ParseError(message, tok.line, tok.column)
        return a * b


def reference_parse_poly_list(reader):
    polys = [reader.expression()]
    while reader.cur.match("PUNCT", ","):
        polys.append(reader.expression())
    return tuple(polys)


def reference_parse_problem(text, reader_class=reference_PolyParser):
    """parse_problem with the frozen tokenizer and expression parser; the
    reader class is a parameter, the body otherwise verbatim."""
    tokens = reference_tokenize(text)
    cursor = _Cursor(tokens)
    if cursor.peek().kind == "END":
        raise ParseError("empty problem file", 1, 1)
    reader = None  # the one _PolyParser of the file, made at its ring
    ideals = {}
    stream = None
    oracle_polys = None
    while cursor.peek().kind != "END":
        tok = cursor.expect("IDENT")
        if reader is None and tok.text in ("ideal", "stream", "oracle"):
            raise ParseError(f"{tok.text} section before the ring declaration",
                             tok.line, tok.column)
        if tok.text == "ring":
            if reader is not None:
                raise ParseError("duplicate ring declaration", tok.line, tok.column)
            reader = reader_class(cursor, _parse_ring(cursor))
        elif tok.text == "ideal":
            name_tok = cursor.expect("IDENT")
            if name_tok.text in ideals:
                raise ParseError(f"duplicate ideal section {name_tok.text!r}",
                                 name_tok.line, name_tok.column)
            cursor.expect("PUNCT", "=")
            ideals[name_tok.text] = reference_parse_poly_list(reader)
        elif tok.text == "stream":
            if stream is not None:
                raise ParseError("duplicate stream section", tok.line, tok.column)
            cursor.expect("PUNCT", "=")
            stream = reference_parse_poly_list(reader)
        elif tok.text == "oracle":
            if oracle_polys is not None:
                raise ParseError("duplicate oracle section", tok.line, tok.column)
            cursor.expect("PUNCT", "=")
            oracle_polys = reference_parse_poly_list(reader)
        else:
            raise ParseError(f"unknown section keyword {tok.text!r}",
                             tok.line, tok.column)
        cursor.expect("PUNCT", ";")
    if reader is None:
        raise ParseError("the file declares no ring", 1, 1)
    return ProblemFile(ring=reader.ring, ideals=ideals, stream=stream,
                       oracle_polys=oracle_polys)


def monomial_div(a, b):
    """The monomial a / b; b must divide a."""
    if not monomial_divides(b, a):
        raise ValueError(f"{b} does not divide {a}")
    return tuple(x - y for x, y in zip(a, b, strict=True))


def merge_poly_add(f, g):
    _same_ring(f, g)
    key = monomial_key(f.ring.order)
    normalize = f.ring.domain.normalize
    out = []
    ft, gt = f.terms, g.terms
    nf, ng = len(ft), len(gt)
    i = j = 0
    # Order keys are injective, so equal keys mean equal monomials.
    if nf and ng:
        kf, kg = key(ft[0][1]), key(gt[0][1])
        while True:
            if kf > kg:
                out.append(ft[i])
                i += 1
                if i == nf:
                    break
                kf = key(ft[i][1])
            elif kf < kg:
                out.append(gt[j])
                j += 1
                if j == ng:
                    break
                kg = key(gt[j][1])
            else:
                c = normalize(ft[i][0] + gt[j][0])
                if c != 0:
                    out.append((c, ft[i][1]))
                i += 1
                j += 1
                if i == nf or j == ng:
                    break
                kf, kg = key(ft[i][1]), key(gt[j][1])
    out.extend(ft[i:])
    out.extend(gt[j:])
    return Polynomial(f.ring, tuple(out))


def merge_poly_sub(f, g):
    return merge_poly_add(f, poly_scale(g, -1))


def merge_term_mul(f, c, mono):
    """f * (c * x^mono); term order is multiplicative so no re-sort needed."""
    dom = f.ring.domain
    c = dom.normalize(c)
    if c == 0:
        return Polynomial.zero(f.ring)
    out = []
    for cf, m in f.terms:
        v = dom.normalize(cf * c)
        if v != 0:
            out.append((v, monomial_mul(m, mono)))
    return Polynomial(f.ring, tuple(out))


def merge_s_polynomial_field(f, g):
    """(lcm / lt(f)) * f - (lcm / lt(g)) * g; the leading terms cancel."""
    if f.is_zero or g.is_zero:
        raise ZeroPolynomial("s-polynomial of a zero polynomial")
    dom = f.ring.domain
    if not dom.is_field:
        raise DomainError("s_polynomial_field needs a field domain")
    cf, mf = leading_term(f)
    cg, mg = leading_term(g)
    lcm = monomial_lcm(mf, mg)
    # over a field, 1 divided by a lead coefficient is its inverse
    return merge_poly_sub(merge_term_mul(f, dom.coeff_divmod(1, cf)[0], monomial_div(lcm, mf)),
                          merge_term_mul(g, dom.coeff_divmod(1, cg)[0], monomial_div(lcm, mg)))


def merge_s_pair_z(f, g):
    """Integer S-combination: scale both sides to lcm of the lead coefficients."""
    if f.is_zero or g.is_zero:
        raise ZeroPolynomial("s-pair of a zero polynomial")
    a, mf = leading_term(f)
    b, mg = leading_term(g)
    lcm = monomial_lcm(mf, mg)
    c = math.lcm(a, b)
    return merge_poly_sub(merge_term_mul(f, c // a, monomial_div(lcm, mf)),
                          merge_term_mul(g, c // b, monomial_div(lcm, mg)))


def merge_g_pair_z(f, g):
    """Bezout combination whose leading term is gcd(lc f, lc g) on the lcm."""
    if f.is_zero or g.is_zero:
        raise ZeroPolynomial("g-pair of a zero polynomial")
    a, mf = leading_term(f)
    b, mg = leading_term(g)
    lcm = monomial_lcm(mf, mg)
    _, u, v = ext_gcd(a, b)
    left = merge_term_mul(f, u, monomial_div(lcm, mf))
    right = merge_term_mul(g, v, monomial_div(lcm, mg))
    return merge_poly_add(left, right)
