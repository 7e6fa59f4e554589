"""Normal forms and Buchberger completion over QQ, ZZ/p and (strongly) ZZ.

Over a field the engine is the classical one: S-polynomials, full
reduction, monic reduced bases.  Over QQ it runs fraction-free, on
primitive integer polynomials reduced by pseudo-division, and makes the
elements monic only at the end.  Over ZZ it computes strong bases: besides
S-pairs it closes under G-pairs (Bezout combinations of the leading
coefficients on the lcm monomial) and reduction is coefficient-aware, with
remainders canonical in [0, lead coefficient).  Bases over ZZ/m for
composite m are obtained by adjoining the constant m over ZZ and mapping
down, so one completion engine covers every domain.
"""

import bisect
import heapq
import itertools
import math
from dataclasses import dataclass
from operator import add, le, neg, sub

from .errors import (
    DomainError,
    InvalidLimit,
    ResourceLimitExceeded,
    RingMismatch,
    ZeroPolynomial,
)
from .intarith import ext_gcd
from .polyring import (
    ZZ,
    IntegerDomain,
    ModularDomain,
    Polynomial,
    RationalDomain,
    RingDescriptor,
    change_domain,
    leading_coefficient,
    leading_monomial,
    leading_term,
    monic,
    monomial_div,
    monomial_divides,
    monomial_key,
    monomial_lcm,
    monomial_mul,
    poly_scale,
    poly_sub,
    term_mul,
    with_domain,
)

S_PAIR = 0
G_PAIR = 1


@dataclass(frozen=True)
class Limits:
    """Budget of a run; exceeding it raises instead of spinning.

    The pair budget is the primary guard; the reduction budget is a wide
    backstop (elimination orders legitimately burn millions of steps).
    Only built pairs count: one a criterion skips is free.  A ``Limits``
    bounds each completion afresh, a ``RunStats`` all the calls given it.
    """

    max_pairs: int = 50_000
    max_reductions: int = 50_000_000

    def __post_init__(self):
        if self.max_pairs < 0:
            raise InvalidLimit(f"pair budget must be >= 0, got {self.max_pairs}")
        if self.max_reductions < 0:
            raise InvalidLimit(f"reduction budget must be >= 0, got {self.max_reductions}")


class RunStats:
    """The work of a run against the ``Limits`` it holds: pair polynomials
    built, completion ``reductions`` (steps reducing a generator or a pair)
    and all reduction ``steps``, which ``max_reductions`` bounds.  Every
    call given one ``RunStats`` as ``limits`` draws on it."""

    __slots__ = ("limits", "pairs", "reductions", "steps")

    def __init__(self, limits=None):
        self.limits = limits or Limits()
        self.pairs = self.reductions = self.steps = 0

    def pair(self):
        self.pairs += 1
        if self.pairs > self.limits.max_pairs:
            raise ResourceLimitExceeded(
                f"pair budget exhausted ({self.limits.max_pairs}); "
                "raise --max-pairs if this is intended")

    def reduction(self):
        self.reductions += 1
        self.steps += 1
        if self.steps > self.limits.max_reductions:
            raise ResourceLimitExceeded(
                f"reduction budget exhausted ({self.limits.max_reductions})")

    def step(self):
        """A step outside completion: the basis reduction's, a multiplier's."""
        self.steps += 1
        if self.steps > self.limits.max_reductions:
            raise ResourceLimitExceeded(
                f"reduction budget exhausted ({self.limits.max_reductions}) "
                "while reducing the basis")


def _run_stats(limits):
    """``limits`` if it is a ``RunStats``, else a fresh one bounded by it."""
    return limits if isinstance(limits, RunStats) else RunStats(limits)


@dataclass(frozen=True)
class GroebnerBasis:
    ring: RingDescriptor
    elements: tuple  # Polynomials, sorted by leading monomial descending
    reduced: bool = True

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)


# ---------------------------------------------------------------------------
# reduction

def _check_reducers(f, reducers):
    for g in reducers:
        if not isinstance(g, Polynomial):
            raise TypeError(f"expected Polynomial, got {type(g).__name__}")
        if g.ring != f.ring:
            raise RingMismatch("reducer ring differs from the dividend's")
        if g.is_zero:
            raise ZeroPolynomial("zero polynomial in reducer list")


def _reduce(f, reducers, step=None, pseudo=False):
    """Shared division loop; deterministic: first eligible reducer wins.

    Returns (multiplier, remainder): multiplier * f - remainder is a
    combination of the reducers with polynomial cofactors over f's domain,
    an integer combination over ZZ.  A term is moved to the remainder only
    once no reducer changes it, which over ZZ / ZZ/m means its coefficient
    is the canonical residue for every applicable lead coefficient.

    ``pseudo`` divides integer polynomials as QQ would, by the first
    reducer whose lead monomial divides: the working polynomial and the
    remainder so far are scaled by gc/gcd(c, gc), so the lead term cancels
    over ZZ.  Each step is the QQ step up to a nonzero rational factor.
    The multiplier is the product of these scales, 1 without ``pseudo``;
    ``step``, if given, is called once per step.

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
    multiplier = 1
    while heap:
        negkey, mono = heappop(heap)
        c = work.get(mono)
        if c is None:
            continue
        for gm, gc, gtail in leads:
            if not all(map(le, gm, mono)):
                continue
            if pseudo:
                g = math.gcd(c, gc)
                q, scale = c // g, gc // g
                if scale != 1:
                    multiplier *= scale
                    c *= scale
                    work = {m: v * scale for m, v in work.items()}
                    rem = [(v * scale, m) for v, m in rem]
            else:
                q, _ = coeff_divmod(c, gc)
                if q == 0:
                    continue
            if step is not None:
                step()
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
    return multiplier, Polynomial(f.ring, tuple(rem))


def normal_form(f, basis, limits=None):
    """Fully reduce f against a list of polynomials (or a GroebnerBasis),
    charging each step to ``limits``, if given, as a step outside completion."""
    reducers = list(basis)
    _check_reducers(f, reducers)
    return _reduce(f, reducers, None if limits is None else _run_stats(limits).step)[1]


def ideal_member(f, basis):
    """Membership via reduction to zero against a (strong) Groebner basis."""
    return normal_form(f, basis).is_zero


# ---------------------------------------------------------------------------
# pair polynomials

def s_polynomial_field(f, g):
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
    return poly_sub(term_mul(f, dom.coeff_divmod(1, cf)[0], monomial_div(lcm, mf)),
                    term_mul(g, dom.coeff_divmod(1, cg)[0], monomial_div(lcm, mg)))


def s_pair_z(f, g):
    """Integer S-combination: scale both sides to lcm of the lead coefficients."""
    if f.is_zero or g.is_zero:
        raise ZeroPolynomial("s-pair of a zero polynomial")
    a, mf = leading_term(f)
    b, mg = leading_term(g)
    lcm = monomial_lcm(mf, mg)
    c = math.lcm(a, b)
    return poly_sub(term_mul(f, c // a, monomial_div(lcm, mf)),
                    term_mul(g, c // b, monomial_div(lcm, mg)))


def g_pair_z(f, g):
    """Bezout combination whose leading term is gcd(lc f, lc g) on the lcm."""
    if f.is_zero or g.is_zero:
        raise ZeroPolynomial("g-pair of a zero polynomial")
    a, mf = leading_term(f)
    b, mg = leading_term(g)
    lcm = monomial_lcm(mf, mg)
    _, u, v = ext_gcd(a, b)
    left = term_mul(f, u, monomial_div(lcm, mf))
    right = term_mul(g, v, monomial_div(lcm, mg))
    return left + right


# ---------------------------------------------------------------------------
# completion

def _sign_normalized(f):
    if f.is_zero:
        return f
    return poly_scale(f, -1) if leading_coefficient(f) < 0 else f


def _primitive(f):
    """Nonzero f as a polynomial over ZZ with denominators cleared, content
    removed and a positive lead coefficient: the form completion keeps over QQ."""
    den = math.lcm(*(c.denominator for c, _ in f.terms))
    nums = [c.numerator * (den // c.denominator) for c, _ in f.terms]
    g = math.gcd(*nums) if nums[0] > 0 else -math.gcd(*nums)
    return Polynomial(with_domain(f.ring, ZZ),
                      tuple((n // g, m) for n, (_, m) in zip(nums, f.terms)))


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


def _strongly_divides(lt_small, lt_big):
    (c1, m1), (c2, m2) = lt_small, lt_big
    return monomial_divides(m1, m2) and c2 % c1 == 0


def _poly_sort_key(key):
    def inner(f):
        return tuple((key(m), c) for c, m in f.terms)
    return inner


def _common_ring(gens, ring_):
    if ring_ is None:
        if not gens:
            raise ValueError("cannot infer the ring from an empty generator list")
        ring_ = gens[0].ring
    for g in gens:
        if not isinstance(g, Polynomial):
            raise TypeError(f"expected Polynomial, got {type(g).__name__}")
        if g.ring != ring_:
            raise RingMismatch("generators live in different rings")
    return ring_


class _Pairs:
    """The pairs of a growing basis that Buchberger's criteria leave, in the
    order both completion and the completeness check visit them.

    ``add(g)`` appends g to ``elements`` and queues its pairs.  Iterating
    pops pairs by the order key of their lcm, S-pairs before G-pairs, then
    in creation order, sees pairs queued meanwhile, and yields (kind, f, g)
    for each pair no criterion skips.  Only those are charged to ``stats``,
    the run's ``RunStats``, which the caller's reductions share.

    Write lt_i = c_i m_i, every c_i taken as 1 over a field, and T_ij =
    lcm(c_i, c_j) lcm(m_i, m_j).  The criteria are Gebauer and Moeller's
    (JSC 6, 1988), with lead coefficients over ZZ.  A pair is skipped by:

    - the product criterion, when queued: m_i and m_j coprime, and c_i and
      c_j coprime.  Then S_ij is, up to a unit, t_i f_j - t_j f_i with t
      the tails, a representation below T_ij.  Such a pair is never
      pending.  A G-pair whose lead coefficients divide one another is a
      multiple of a parent and is not queued either;
    - the chain criterion, with ``chain`` set: some k other than i and j
      has lt_k dividing T_ij, and neither S-pair (i, k) nor (j, k) is
      pending, so each was treated before (i, j), which stays pending
      through its own test.  The S-syzygies of the lead terms generate
      their syzygy module over a field or a PID, and S_ij = (T_ij / T_ik)
      S_ik - (T_ij / T_jk) S_jk.  By induction on the time a pair was
      treated, every S-pair has a representation below its T: it reduced
      to zero, the product criterion gives one, or two pairs treated
      earlier do.  Without the pending rule, pairs on one lcm could skip
      each other in a cycle.  The completeness check and completion over
      ZZ and ZZ/p set ``chain``.  Only the fraction-free completion over
      QQ does not yet: the benchmark's self-test pins its pair counts;
    - the G-pair criterion (ZZ only): some lt_k strongly divides gcd(c_i,
      c_j) lcm(m_i, m_j).  Elements never leave the basis, so one still
      does at the end.  Given the S-pairs, were the basis then not strong,
      some monomial m would have lead coefficients c_i, c_k over it, |c_k|
      the least, with c_k not dividing c_i.  Their G-pair was queued and not
      skipped, as that needs a lead coefficient over m dividing gcd(c_i,
      c_k), below |c_k|.  So it was yielded, and its remainder kept its lead
      term, a canonical residue modulo every lead coefficient over m:
      completion added a lead coefficient below |c_k| over m, and the check
      failed.

    With ``chain`` set, an element i whose lead term that of a later w
    strongly divides (over a field: whose lead monomial divides) is
    redundant, w its first witness, and makes no pair with an element l
    added after w: Gebauer and Moeller's update, with strong divisibility
    over ZZ (Lichtblau, Illinois J. Math. 56, 2012).  T_iw = lt_i and T_wl
    divide T_il, and S_il = (T_il / T_iw) S_iw - (T_il / T_wl) S_wl, so the
    unmade (i, l) is treated once (i, w) and (w, l) are: it is pending
    while either is, (w, l) perhaps unmade too.  The lead of G(w, l)
    strongly divides that of G(i, l); in the G-pair argument, i and k can
    be taken not redundant, as a witness has its lead over m with a lead
    coefficient dividing that of the element it replaces, so their G-pair
    was queued.

    The first ``seeded`` elements added must be a Groebner basis (strong
    over ZZ), the seed, and no pair between two of them is queued: the
    incremental form of Gebauer and Moeller's update (Becker and
    Weispfenning, Groebner Bases, 5.5).  Both arguments still hold:

    - a seed S-pair reduces to zero by the seed alone, so it has a
      representation below its T from the start.  It counts as treated,
      never pending, for the chain criterion, and the induction above
      starts from the seed pairs;
    - if i and k in the G-pair argument are both seed elements, their
      G-pair polynomial lies in the seed's ideal with lead term gcd(c_i,
      c_k) lcm(m_i, m_k), which some seed lead term strongly divides, as
      the seed is strong.  That is a lead coefficient over m dividing
      gcd(c_i, c_k), below |c_k|: the same contradiction.

    So once every yielded pair reduces to zero, the elements form a
    Groebner basis (strong over ZZ); a skipped pair is never needed.
    """

    def __init__(self, ring_, limits, chain, seeded=0):
        self.field = ring_.domain.is_field
        self.key = monomial_key(ring_.order)
        self.stats = _run_stats(limits)
        self.chain = chain
        self.seeded = seeded
        self.elements = []
        self.leads = []  # (lead coefficient, lead monomial) of each element
        self.queue = []
        self.pending = set()  # queued S-pairs (i, j), i < j
        self.witness = {}  # redundant element -> the element that made it so
        self.counter = itertools.count()

    def add(self, g):
        j = len(self.elements)
        self.elements.append(g)
        b, mg = leading_term(g)
        b = 1 if self.field else b
        # two seed elements make no pair: the seed treated them already
        for i, (a, mf) in enumerate(self.leads if j >= self.seeded else ()):
            if i in self.witness:
                continue
            lcm = monomial_lcm(mf, mg)
            lcm_key = self.key(lcm)
            if not (lcm == monomial_mul(mf, mg) and math.gcd(a, b) == 1):
                heapq.heappush(self.queue, (lcm_key, S_PAIR, next(self.counter), i, j, lcm))
                self.pending.add((i, j))
            if b % a and a % b:
                heapq.heappush(self.queue, (lcm_key, G_PAIR, next(self.counter), i, j, lcm))
            if self.chain and _strongly_divides((b, mg), (a, mf)):
                self.witness[i] = j
        self.leads.append((b, mg))

    def _pending(self, i, j):
        """Whether S-pair (i, j), i < j, is queued, or unmade and waits on a queued one."""
        pending, witness = self.pending, self.witness
        while witness.get(i, j) < j:  # (i, j) was never made: it waits on (i, w), (w, j)
            if (i, witness[i]) in pending:
                return True
            i = witness[i]
        return (i, j) in pending

    def __iter__(self):
        leads, pending = self.leads, self.pending
        while self.queue:
            _, kind, _, i, j, lcm = heapq.heappop(self.queue)
            if kind == S_PAIR:
                c = math.lcm(leads[i][0], leads[j][0])
                skip = self.chain and any(
                    c % ck == 0 and all(map(le, mk, lcm)) and k != i and k != j
                    and not self._pending(min(i, k), max(i, k))
                    and not self._pending(min(j, k), max(j, k))
                    for k, (ck, mk) in enumerate(leads))
                pending.discard((i, j))
                if skip:
                    continue
            else:
                c = math.gcd(leads[i][0], leads[j][0])
                if any(c % ck == 0 and all(map(le, mk, lcm)) for ck, mk in leads):
                    continue
            self.stats.pair()
            yield kind, self.elements[i], self.elements[j]


def _complete(gens, ring_, limits, seeded=0):
    """Close the generators under the pairs ``_Pairs`` yields, then canonicalize.

    The first ``seeded`` generators must be a reduced Groebner basis
    (strong over ZZ).  Each is its own remainder, so it joins the basis
    unchanged, and ``_Pairs`` treats no pair between two of them.  Only
    callers that built that basis themselves pass it.

    Over QQ the elements are primitive integer polynomials (content
    removed, lead coefficient positive), S-pairs come from ``s_pair_z`` and
    reduce by pseudo-division, and the elements become monic ``Fraction``
    polynomials only for ``_canonicalize``.  Every working polynomial is a
    nonzero rational multiple of the one ``Fraction`` arithmetic would
    hold, so zero tests, lead monomials, reducer choices, pairs, counts and
    the reduced basis are those of the ``Fraction`` path.
    """
    pseudo = isinstance(ring_.domain, RationalDomain)
    normalize, pair_functions = _domain_rules(ring_, pseudo)
    key = monomial_key(ring_.order)
    sort_key = _poly_sort_key(key)
    # The chain criterion runs in every completion but the fraction-free
    # one over QQ, whose pair counts perfbench/selftest.py still pins.
    pairs = _Pairs(ring_, limits, chain=not pseudo, seeded=seeded)
    reducers = []  # the elements ascending, so that smaller reducers apply first

    def add_reduced(f):
        """Reduce f; a nonzero remainder joins the basis along with its pairs."""
        _, r = _reduce(f, reducers, pairs.stats.reduction, pseudo)
        if not r.is_zero:
            r = normalize(r)
            bisect.insort(reducers, r, key=sort_key)
            pairs.add(r)

    for g in gens:
        if not g.is_zero:
            add_reduced(_primitive(g) if pseudo else g)
    for kind, f, g in pairs:
        add_reduced(pair_functions[kind](f, g))
    G = pairs.elements
    if pseudo:
        G = [change_domain(g, ring_.domain) for g in G]
    return _canonicalize(G, ring_, key, pairs.stats)


def _canonicalize(G, ring_, key, stats):
    """Minimize and (strongly) tail-reduce a complete basis in one pass.

    G is complete (strong over ZZ).  For kept g, h with leads c*m, d*m'
    and m' | m, some kept lead strongly divides the lead gcd(c, d)*m of a
    combination of g and h; by minimality it is g's, so c | d, and c != d
    or h would strongly divide g.  So d > c, c divided by d is 0, and no
    step touches a lead term; over a field no other lead monomial divides
    m.  One pass leaves every tail irreducible by unchanged, normalized
    leads: the reduced basis.  Steps are charged to ``stats``, the
    completion's ``RunStats``, as steps outside completion.
    """
    normalize, _ = _domain_rules(ring_)
    G = sorted((normalize(g) for g in G if not g.is_zero), key=_poly_sort_key(key))
    kept = []
    for g in G:
        lt = leading_term(g)
        if not any(_strongly_divides(leading_term(h), lt) for h in kept):
            kept.append(g)
    for i in range(len(kept)):
        kept[i] = _reduce(kept[i], kept[:i] + kept[i + 1:], stats.step)[1]
    kept.sort(key=lambda g: key(leading_monomial(g)), reverse=True)
    return GroebnerBasis(ring_, tuple(kept), reduced=True)


def buchberger_field(gens, limits=None, *, ring=None):
    """Reduced Groebner basis over QQ or a prime field ZZ/p.

    Empty or all-zero input yields the empty basis (of the zero ideal);
    pass ``ring`` explicitly when the generator list is empty.
    """
    gens = list(gens)
    ring_ = _common_ring(gens, ring)
    if not ring_.domain.is_field:
        raise DomainError(f"{ring_.domain.name} is not a field")
    return _complete(gens, ring_, limits)


def buchberger_z(gens, limits=None, *, ring=None):
    """Reduced strong Groebner basis over ZZ.

    Completion closes the working set under both S-pairs and G-pairs until
    every pair reduces to zero, then minimizes, tail-reduces and normalizes
    signs (positive leading coefficients).  The integer content of the
    elements is kept: <2x> and <x> are different ideals over ZZ.
    """
    gens = list(gens)
    ring_ = _common_ring(gens, ring)
    if not isinstance(ring_.domain, IntegerDomain):
        raise DomainError("buchberger_z needs the integer domain")
    return _complete(gens, ring_, limits)


# ---------------------------------------------------------------------------
# bases modulo m, equality, completeness checks

def gb_mod_m(gens, m, limits=None, *, ring=None):
    """Reduced Groebner basis of the image ideal in (ZZ/m)[X].

    Computed over ZZ with the constant m adjoined, then mapped down; the
    image of <gens, m> is exactly the image ideal, and the strong reduced
    basis maps onto the canonical reduced basis modulo m.
    """
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    gens = list(gens)
    ring_ = _common_ring(gens, ring)
    if not isinstance(ring_.domain, IntegerDomain):
        raise DomainError("gb_mod_m expects generators over ZZ")
    return _image_mod(buchberger_z(gens + [Polynomial.constant(ring_, m)], limits), m)


def _extend_mod_m(basis, m, limits):
    """``gb_mod_m(basis.elements, m)`` for the reduced strong basis of an
    ideal over ZZ, seeded with it, so that its own pairs are not treated
    again.  Only for a basis that completion built."""
    gens = list(basis.elements) + [Polynomial.constant(basis.ring, m)]
    return _image_mod(_complete(gens, basis.ring, limits, seeded=len(basis)), m)


def _image_mod(base, m):
    """The reduced basis mod m from the strong basis of <J, m> over ZZ."""
    target = ModularDomain(m)
    elements = []
    for g in base.elements:
        image = change_domain(g, target)
        if not image.is_zero:
            elements.append(image)
    return GroebnerBasis(with_domain(base.ring, target), tuple(elements), reduced=True)


def gb_equal(g1, g2):
    """Equality of two reduced bases: identical canonical element lists."""
    if not (isinstance(g1, GroebnerBasis) and isinstance(g2, GroebnerBasis)):
        raise TypeError("gb_equal compares GroebnerBasis values")
    if not (g1.reduced and g2.reduced):
        raise ValueError("gb_equal needs reduced bases")
    if g1.ring != g2.ring:
        raise RingMismatch("bases live in different rings")
    return g1.elements == g2.elements


def is_groebner_basis(polys, limits=None):
    """Decide whether polys is a Groebner basis (strong over ZZ) of its ideal.

    The polys, normalized as completion keeps its elements, seed ``_Pairs``
    with the chain criterion on.  Each pair it yields is charged to
    ``limits`` and reduced against the polys in input order, fraction-free
    over QQ; a Groebner basis reduces every pair to zero, and no skipped
    pair is needed, so the verdict is that of reducing every pair.
    """
    polys = [p for p in polys if not p.is_zero]
    if not polys:
        return True
    ring_ = polys[0].ring
    _check_reducers(polys[0], polys)
    pseudo = isinstance(ring_.domain, RationalDomain)
    normalize, pair_functions = _domain_rules(ring_, pseudo)
    pairs = _Pairs(ring_, limits, chain=True)
    polys = [normalize(p) for p in polys]
    for p in polys:
        pairs.add(p)
    for kind, f, g in pairs:
        _, r = _reduce(pair_functions[kind](f, g), polys, pairs.stats.reduction, pseudo)
        if not r.is_zero:
            return False
    return True
