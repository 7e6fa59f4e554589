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
import math
import struct
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter, le, mul, sub

from .errors import (
    DomainError,
    ExponentOverflow,
    InvalidLimit,
    ResourceLimitExceeded,
    RingMismatch,
    ZeroPolynomial,
)
from .intarith import ext_gcd
from .polyring import (
    QQ,
    ZZ,
    IntegerDomain,
    ModularDomain,
    Polynomial,
    RationalDomain,
    RingDescriptor,
    _combine,
    change_domain,
    leading_coefficient,
    leading_monomial,
    leading_term,
    monic,
    monomial_divides,
    monomial_key,
    monomial_lcm,
    monomial_mul,
    poly_scale,
    with_domain,
)

S_PAIR = 0
G_PAIR = 1


class RunStats:
    """The one budget of a run, and the work drawn on it: ``pairs`` built,
    ``g_pairs`` of them G-pairs, the rest S-pairs; ``completions``, seeded
    and saturation ones too, not checks; ``reductions`` (steps reducing a
    generator or a pair); all reduction ``steps``.  ``max_pairs`` is the
    primary guard, ``max_reductions`` a wide backstop on ``steps``
    (elimination orders burn millions).  A pair a criterion skips is free.
    Calls given one as ``limits`` share it; ``None`` gives each a fresh one."""

    __slots__ = ("max_pairs", "max_reductions", "pairs", "g_pairs", "completions",
                 "reductions", "steps")

    def __init__(self, max_pairs=50_000, max_reductions=50_000_000):
        if max_pairs < 0:
            raise InvalidLimit(f"pair budget must be >= 0, got {max_pairs}")
        if max_reductions < 0:
            raise InvalidLimit(f"reduction budget must be >= 0, got {max_reductions}")
        self.max_pairs = max_pairs
        self.max_reductions = max_reductions
        self.pairs = self.g_pairs = self.completions = self.reductions = self.steps = 0

    def pair(self, kind=S_PAIR):
        self.pairs += 1
        self.g_pairs += kind == G_PAIR
        if self.pairs > self.max_pairs:
            raise ResourceLimitExceeded(
                f"pair budget exhausted ({self.max_pairs}); "
                "raise --max-pairs if this is intended")

    def reduction(self):
        """A step reducing a generator or a pair, completing or checking."""
        self.reductions += 1
        self.step()

    def step(self):
        """A reduction step, in completion or outside it."""
        self.steps += 1
        if self.steps > self.max_reductions:
            raise ResourceLimitExceeded(
                f"reduction budget exhausted ({self.max_reductions}); "
                "raise --max-steps if this is intended")


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

_FIELD = 64  # bits per packed digit; total degrees stay below 2^(_FIELD - 1)


@lru_cache(maxsize=None)
def _packing(order, arity):
    """(weights, fields, guard) that pack monomials for ``_reduce``: K(e) is
    sum(map(mul, e, weights)), E(e) ``fields`` packing (*e, sum(e))."""
    key = monomial_key(order)
    weights = tuple(sum(d << _FIELD * k for k, d in enumerate(reversed(
        key(tuple(int(i == j) for j in range(arity)))))) for i in range(arity))
    guard = sum(1 << (_FIELD * k + _FIELD - 1) for k in range(arity + 1))
    return weights, struct.Struct(f"<{arity}Qq"), guard


def _packed_terms(f):
    """(c, K, E) of each term of f; the fields refuse a negative exponent
    and a total degree of 2^63 or more."""
    weights, fields, _ = _packing(f.ring.order, f.ring.arity)
    pack, from_bytes = fields.pack, int.from_bytes
    try:
        return [(c, sum(map(mul, e, weights)), from_bytes(pack(*e, sum(e)), "little"))
                for c, e in f.terms]
    except struct.error:
        raise ExponentOverflow("a monomial leaves the packed exponent fields") from None


class _Packed(list):
    """Nonzero polynomials of ``ring``, each packed once as ``_reduce`` reads
    it: (E, K, lead coefficient, limit, tail (c, K, E) terms), limit the
    least shift E that would carry the largest tail E's total degree to 2^63."""

    def __init__(self, ring_, polys=()):
        self.ring = _common_ring(polys, ring_)
        if any(g.is_zero for g in polys):
            raise ZeroPolynomial("zero polynomial in reducer list")
        super().__init__(map(self.pack, polys))

    def pack(self, g):
        (c, K, E), *tail = _packed_terms(g)
        top = _FIELD * self.ring.arity
        room = (1 << _FIELD - 1) - (max((tE for *_, tE in tail), default=0) >> top)
        return E, K, c, room << top, tuple(tail)


def _packed_for(f, basis):
    """``basis`` as f's reducers: a ``_Packed`` of f's ring as it is, else packed now."""
    same = isinstance(basis, _Packed) and basis.ring == f.ring
    return basis if same else _Packed(f.ring, list(basis))


def _reduce(f, reducers, step, pseudo=False):
    """Shared division loop; deterministic: first eligible reducer wins.

    ``reducers`` is a ``_Packed`` list, or a slice of one.  Returns
    (multiplier, remainder): multiplier * f - remainder is a combination of
    the reducers with polynomial cofactors over f's domain, an integer
    combination over ZZ.  A term is moved to the remainder only once no
    reducer changes it, which over ZZ / ZZ/m means its coefficient is the
    canonical residue for every applicable lead coefficient.

    ``pseudo`` divides integer polynomials as QQ would, by the first
    reducer whose lead monomial divides: the working polynomial and the
    remainder so far are scaled by gc/gcd(c, gc), so the lead term cancels
    over ZZ.  Each step is the QQ step up to a nonzero rational factor.
    The multiplier is the product of these scales, 1 without ``pseudo``;
    ``step`` is called once per step.

    Monomials are packed ints (Bachmann and Schoenemann, ISSAC 1998).  An
    order key is linear in the exponents e (Lex is e, DegRevLex (sum(e),
    -e_n, ..., -e_1), a Block two keys concatenated), and K(e) packs its
    digits in balanced base 2^64: K(a b) = K(a) + K(b).  Each digit is an
    exponent, its negative or a sum of exponents, so while total degrees
    stay below 2^63, |digit| < 2^63: K is injective, and the first
    differing digit outweighs all lower ones, so integer order on K is the
    term order.  E packs e_1 .. e_n and sum(e) in 64-bit fields below 2^63:
    a divides b iff no field of E(b) - E(a) has its top bit set, as the
    lowest field with a_i > b_i borrows and holds 2^64 + b_i - a_i >= 2^63.
    Exponents enter at most at ``_MAX_EXPONENT`` = 2^31 but grow in Lex and
    Block reductions (x y^N by x - y^N leaves y^2N): a monomial past the
    bound, given or about to be made by a step, raises ``ExponentOverflow``
    and never gives an inexact remainder.  The working polynomial is keyed
    by K, a lazy max-heap holds -K, and a step with shift s moves a tail
    term to tK + sK, recording tE + sE for each new monomial, the only ones
    popped.  New coefficients are only reduced mod m over ZZ/m: int and
    Fraction arithmetic is already canonical over ZZ and QQ.  Only
    remainder terms are unpacked.
    """
    dom = f.ring.domain
    coeff_divmod = dom.coeff_divmod
    modulus = dom.modulus if isinstance(dom, ModularDomain) else None
    _, fields, guard = _packing(f.ring.order, f.ring.arity)
    work, exps = {}, {}
    for c, K, E in _packed_terms(f):
        work[K] = c
        exps[K] = E
    heap = [-K for K in work]
    heapq.heapify(heap)
    heappush, heappop = heapq.heappush, heapq.heappop
    rem = []
    multiplier = 1
    while heap:
        K = -heappop(heap)
        c = work.get(K)
        if c is None:
            continue
        E = exps[K]
        for gE, gK, gc, limit, gtail in reducers:
            sE = E - gE
            if sE & guard:
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
            if sE >= limit:
                raise ExponentOverflow("a reduction step leaves the packed exponent fields")
            step()
            # The lead term lands on K itself, every other term below it.
            c -= q * gc
            sK = K - gK
            for tc, tK, tE in gtail:
                target = tK + sK
                old = work.get(target)
                if old is None:
                    v = -q * tc
                    if modulus is not None:
                        v %= modulus
                    if v != 0:
                        work[target] = v
                        exps[target] = tE + sE
                        heappush(heap, -target)
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
            rem.append((c, E))
            del work[K]
            continue
        if modulus is not None:
            c %= modulus
        if c == 0:
            del work[K]
        else:
            # partially reduced lead coefficient: revisit the same monomial
            work[K] = c
            heappush(heap, -K)
    n, width = f.ring.arity, fields.size
    return multiplier, Polynomial(f.ring, tuple(
        (c, fields.unpack(E.to_bytes(width, "little"))[:n]) for c, E in rem))


def normal_form(f, basis, limits=None):
    """Fully reduce f against a list of polynomials, a GroebnerBasis or a ``_Packed``,
    charging each step to ``limits`` or a fresh ``RunStats`` as a step outside completion."""
    return _reduce(f, _packed_for(f, basis), (limits or RunStats()).step)[1]


def ideal_member(f, basis):
    """Membership via reduction to zero against a (strong) Groebner basis."""
    return normal_form(f, basis).is_zero


# ---------------------------------------------------------------------------
# pair polynomials

def _pair_polynomial(f, u, g, v):
    """u * (lcm / lm(f)) * f + v * (lcm / lm(g)) * g, lcm that of the lead monomials."""
    mf, mg = leading_monomial(f), leading_monomial(g)
    lcm = monomial_lcm(mf, mg)
    parts = ((f, u, tuple(map(sub, lcm, mf))), (g, v, tuple(map(sub, lcm, mg))))
    return _combine(f.ring, parts)


def s_polynomial_field(f, g):
    """(lcm / lt(f)) * f - (lcm / lt(g)) * g; the leading terms cancel."""
    if f.is_zero or g.is_zero:
        raise ZeroPolynomial("s-polynomial of a zero polynomial")
    if not f.ring.domain.is_field:
        raise DomainError("s_polynomial_field needs a field domain")
    return _pair_polynomial(monic(f), 1, monic(g), -1)


def s_pair_z(f, g):
    """Integer S-combination: scale both sides to lcm of the lead coefficients;
    the field S-polynomial on monic elements, a unit multiple on primitive QQ ones."""
    if f.is_zero or g.is_zero:
        raise ZeroPolynomial("s-pair of a zero polynomial")
    a, b = leading_coefficient(f), leading_coefficient(g)
    c = math.lcm(a, b)
    return _pair_polynomial(f, c // a, g, -(c // b))


def g_pair_z(f, g):
    """Bezout combination whose leading term is gcd(lc f, lc g) on the lcm."""
    if f.is_zero or g.is_zero:
        raise ZeroPolynomial("g-pair of a zero polynomial")
    _, u, v = ext_gcd(leading_coefficient(f), leading_coefficient(g))
    return _pair_polynomial(f, u, g, v)


# ---------------------------------------------------------------------------
# completion

def _sign_normalized(f):
    return poly_scale(f, -1) if leading_coefficient(f) < 0 else f


def _primitive(f):
    """Nonzero f as a polynomial over ZZ with denominators cleared, content
    removed and a positive lead coefficient: the form completion keeps over QQ."""
    den = math.lcm(*(c.denominator for c, _ in f.terms))
    nums = [c.numerator * (den // c.denominator) for c, _ in f.terms]
    g = math.gcd(*nums) if nums[0] > 0 else -math.gcd(*nums)
    return Polynomial(with_domain(f.ring, ZZ),
                      tuple((n // g, m) for n, (_, m) in zip(nums, f.terms)))


def _normalizer(ring_):
    """The form completion keeps elements in: monic over a field (over QQ,
    ``_primitive`` until the end), a positive lead coefficient over ZZ."""
    dom = ring_.domain
    if dom.is_field:
        return monic
    if isinstance(dom, IntegerDomain):
        return _sign_normalized
    raise DomainError(f"{dom.name}: only fields and ZZ are supported")


def _strongly_divides(lt_small, lt_big):
    (c1, m1), (c2, m2) = lt_small, lt_big
    return monomial_divides(m1, m2) and c2 % c1 == 0


def _poly_sort_key(key):
    """Rank by lead term, which decides: each new working element is fully
    reduced by all earlier ones, so over a field no earlier lead monomial
    divides its own, and over ZZ its lead coefficient is a canonical residue
    in [1, |a|) for every applicable lead coefficient a: no two share one."""
    return lambda f: (key(leading_monomial(f)), leading_coefficient(f))


def _common_ring(gens, ring_):
    for g in gens:
        if not isinstance(g, Polynomial):
            raise TypeError(f"expected Polynomial, got {type(g).__name__}")
    if ring_ is None:
        if not gens:
            raise ValueError("cannot infer the ring from an empty generator list")
        ring_ = gens[0].ring
    if any(g.ring != ring_ for g in gens):
        raise RingMismatch("polynomials live in different rings")
    return ring_


class _Pairs:
    """The pairs of a growing basis that Buchberger's criteria leave, in the
    order ``_complete`` visits them, completing or checking.

    ``add(g)`` appends g to ``elements`` and queues its pairs.  Iterating
    pops pairs (i, j), i < j, by the order key of their lcm, S-pairs before
    G-pairs, then by (j, i), the order they were queued in, sees pairs
    queued meanwhile, and yields the pair polynomial, ``s_pair_z`` or
    ``g_pair_z`` (looked up by name at each call), of each pair no criterion
    skips.  Only those are charged to ``stats``, the run's ``RunStats``,
    which the caller's reductions share.

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
      each other in a cycle.  ``_complete`` sets ``chain`` in check mode
      and over ZZ and ZZ/p.  Only the fraction-free completion over QQ
      does not yet: the benchmark's self-test pins its pair counts;
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
        self.stats = limits or RunStats()
        self.chain = chain
        self.seeded = seeded
        self.elements = []
        self.leads = []  # (lead coefficient, lead monomial) of each element
        self.queue = []
        self.pending = set()  # queued S-pairs (i, j), i < j
        self.witness = {}  # redundant element -> the element that made it so

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
                heapq.heappush(self.queue, (lcm_key, S_PAIR, j, i, lcm))
                self.pending.add((i, j))
            if b % a and a % b:
                heapq.heappush(self.queue, (lcm_key, G_PAIR, j, i, lcm))
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
            _, kind, j, i, lcm = heapq.heappop(self.queue)
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
            self.stats.pair(kind)
            build = s_pair_z if kind == S_PAIR else g_pair_z
            yield build(self.elements[i], self.elements[j])


def _complete(gens, ring_, limits, seeded=0, check=False):
    """Close the generators under the pairs ``_Pairs`` yields, then canonicalize.

    The first ``seeded`` generators must be a reduced Groebner basis
    (strong over ZZ).  Each is its own remainder, so it joins the basis
    unchanged, and ``_Pairs`` treats no pair between two of them.  Only
    callers that built that basis themselves pass it.

    ``check`` makes it ``is_groebner_basis``, counted as no completion: the
    generators join unreduced, and the result is False at the first pair
    with a nonzero remainder, else True.

    Over QQ the elements are ``_primitive`` integer polynomials that reduce
    by pseudo-division and become monic ``Fraction`` polynomials only for
    ``_canonicalize``.
    Every working polynomial is a nonzero rational multiple of the one
    ``Fraction`` arithmetic would hold, so zero tests, lead monomials,
    reducer choices, pairs, counts and the reduced basis are those of the
    ``Fraction`` path.
    """
    pseudo = isinstance(ring_.domain, RationalDomain)
    normalize = _primitive if pseudo else _normalizer(ring_)
    pairs = _Pairs(ring_, limits, chain=check or not pseudo, seeded=seeded)
    pairs.stats.completions += not check
    # the elements packed as they join, ascending by lead term: smaller reducers apply first
    reducers = _Packed(ring_)

    def remainder(f):
        return _reduce(f, reducers, pairs.stats.reduction, pseudo)[1]

    def join(r):
        """r, unless zero, joins the basis, normalized, along with its pairs."""
        if not r.is_zero:
            r = normalize(r)
            bisect.insort(reducers, reducers.pack(r), key=itemgetter(1, 2))
            pairs.add(r)

    for g in gens:
        join(g if check or g.is_zero else remainder(_primitive(g) if pseudo else g))
    for pair in pairs:
        r = remainder(pair)
        if check and not r.is_zero:
            return False
        join(r)
    if check:
        return True
    G = pairs.elements
    if pseudo:
        G = [change_domain(g, ring_.domain) for g in G]
    return _canonicalize(G, ring_, pairs.stats)


def _canonicalize(G, ring_, stats):
    """Minimize and (strongly) tail-reduce a complete basis in one pass.

    G is complete (strong over ZZ).  For kept g, h with leads c*m, d*m'
    and m' | m, some kept lead strongly divides the lead gcd(c, d)*m of a
    combination of g and h; by minimality it is g's, so c | d, and c != d
    or h would strongly divide g.  So d > c, c divided by d is 0, and no
    step touches a lead term; over a field no other lead monomial divides
    m.  One pass leaves every tail irreducible by unchanged, normalized
    leads: the reduced basis, on distinct lead monomials, so sorted once by
    ``_poly_sort_key`` and reversed.  Steps are charged to ``stats``, the
    completion's ``RunStats``, as steps outside completion.
    """
    normalize = _normalizer(ring_)
    G = sorted((normalize(g) for g in G if not g.is_zero),
               key=_poly_sort_key(monomial_key(ring_.order)))
    kept = []
    for g in G:
        lt = leading_term(g)
        if not any(_strongly_divides(leading_term(h), lt) for h in kept):
            kept.append(g)
    packed = _Packed(ring_, kept)
    for i in range(len(kept)):
        kept[i] = _reduce(kept[i], packed[:i] + packed[i + 1:], stats.step)[1]
        packed[i] = packed.pack(kept[i])  # later elements reduce by its new tail
    return GroebnerBasis(ring_, tuple(reversed(kept)), reduced=True)


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


def _basis_over_q(basis, limits):
    """The reduced basis of QQ J from the strong basis of J, a Groebner basis of QQ J."""
    ring_ = with_domain(basis.ring, QQ)
    return _canonicalize([change_domain(g, QQ) for g in basis], ring_, limits or RunStats())


def _image_mod(base, m):
    """The reduced basis mod m from the strong basis of <J, m> over ZZ."""
    images = (change_domain(g, ModularDomain(m)) for g in base.elements)
    return GroebnerBasis(with_domain(base.ring, ModularDomain(m)),
                         tuple(g for g in images if not g.is_zero), reduced=True)


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

    ``_complete``'s check mode: the nonzero polys, normalized as completion
    keeps its elements, seed ``_Pairs`` with the chain criterion on.  Each
    pair it yields is charged to ``limits`` and reduced, fraction-free over
    QQ, by the polys in ascending lead-term order, as completion orders its
    reducers.  In any order a Groebner basis reduces every pair to zero and
    a non-basis leaves one nonzero; no pair a criterion skips is needed.
    """
    polys = list(polys)
    return not polys or _complete(polys, _common_ring(polys, None), limits, check=True)
