"""Normal forms and Buchberger completion over QQ, ZZ/p and (strongly) ZZ.

Over a field the engine is the classical one: S-polynomials, full
reduction, monic reduced bases.  Over QQ it runs fraction-free, on
primitive integer polynomials reduced by pseudo-division, tail reduction
included, and makes the elements monic only at the end.  Over ZZ it
computes strong bases: besides S-pairs it closes under G-pairs (Bezout
combinations of the leading coefficients on the lcm monomial) and
reduction is coefficient-aware, with remainders canonical in [0, lead
coefficient).  Bases over ZZ/m for composite m are obtained by adjoining
the constant m over ZZ and mapping down, so one completion engine covers
every domain.
"""

import bisect
import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter

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
    IntegerDomain,
    ModularDomain,
    Polynomial,
    RationalDomain,
    RingDescriptor,
    _common_ring,
    _dividend,
    _entry,
    _Packed,
    _packed_for,
    _packed_terms,
    _packing,
    _primitive,
    _unpacked,
    change_domain,
    with_domain,
)
from .polyring import monomial_divides, monomial_mul  # noqa: F401  perfbench/spans.py wraps them

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
        """A step reducing a generator or a pair, completing or checking; ``steps`` too."""
        self.reductions += 1
        if self.steps < self.max_reductions:
            self.steps += 1
        else:
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

def _reduce(f, reducers, step, pseudo=False):
    """Shared division loop; deterministic: first eligible reducer wins.

    ``f`` is a Polynomial or a ``_dividend``, ``reducers`` ``_Packed`` entries.
    Returns (multiplier, remainder), (c, K, E) terms descending: multiplier *
    f - remainder is a combination of the reducers with polynomial cofactors
    over f's domain, an integer combination over ZZ.  A term is moved to the
    remainder only once no reducer changes it, which over ZZ / ZZ/m means its
    coefficient is the canonical residue for every applicable lead coefficient.

    ``pseudo`` divides integer polynomials as QQ would, by the first
    reducer whose lead monomial divides: the working polynomial and the
    remainder so far are scaled by gc/gcd(c, gc), so the lead term cancels
    over ZZ.  Each step is the QQ step up to a nonzero rational factor.
    The multiplier is the product of these scales, 1 without ``pseudo``;
    ``step`` is called once per step.

    The working polynomial (ring, work, exps) keys its coefficients and E's
    by K (see ``_packing``); a lazy max-heap holds -K.  A step with shift s
    moves a tail term to tK + sK, recording tE + sE for each new monomial, the
    only ones popped.  New coefficients are reduced only over ZZ/m (int and
    Fraction arithmetic is canonical), and no monomial is unpacked.
    """
    if isinstance(f, Polynomial):
        f = _dividend(f.ring, _packed_terms(f.ring, f.terms))
    ring_, work, exps = f
    dom = ring_.domain
    coeff_divmod = dom.coeff_divmod
    modulus = dom.modulus if isinstance(dom, ModularDomain) else None
    guard = _packing(ring_.order, ring_.arity)[2]
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
        for gE, gK, gc, limit, gtail, _ in reducers:
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
                    rem = [(v * scale, vK, vE) for v, vK, vE in rem]
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
            rem.append((c, K, E))
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
    return multiplier, rem


def normal_form(f, basis, limits=None):
    """Fully reduce f against a list of polynomials, a GroebnerBasis or a ``_Packed``,
    charging each step to ``limits`` or a fresh ``RunStats`` as a step outside completion."""
    reducers = _packed_for(f, basis)
    return _unpacked(f.ring, _reduce(f, reducers, (limits or RunStats()).step)[1])


def ideal_member(f, basis):
    """Membership via reduction to zero against a (strong) Groebner basis."""
    return normal_form(f, basis).is_zero


# ---------------------------------------------------------------------------
# pair polynomials

def _pair(f, g, name, cofactors, lcm=None):
    """u (lcm / lm f) f + v (lcm / lm g) g, (u, v) = cofactors(lc f, lc g).  Of
    two ``_Packed`` entries and their lcm's (K, E), the ``_dividend`` of their
    terms shifted by K(lcm) - K and E(lcm) - E, scaled (mod m over ZZ/m) and
    gathered by K.  Of two Polynomials of one ring: that sum, packed and sorted."""
    if isinstance(f, Polynomial):
        if f.is_zero or g.is_zero:
            raise ZeroPolynomial(f"{name} of a zero polynomial")
        lcm = _packed_terms(f.ring, [(0, tuple(map(max, f.terms[0][1], g.terms[0][1])))])
        dividend = _pair(*_Packed(f.ring, [f, g]), name, cofactors, lcm[0][1:])
        return _unpacked(f.ring, _reduce(dividend, (), None)[1])
    (_, _, a, _, _, ring_), (_, _, b, _, _, _), (K, E) = f, g, lcm
    u, v = cofactors(a, b)
    modulus = ring_.domain.modulus if isinstance(ring_.domain, ModularDomain) else None
    work, exps = {}, {}
    for w, (hE, hK, hc, limit, tail, _) in ((u, f), (v, g)):
        sE, sK = E - hE, K - hK
        if sE >= limit:
            raise ExponentOverflow("a pair's term leaves the packed exponent fields")
        for tc, tK, tE in ((hc, hK, hE), *tail):
            target = tK + sK
            c = work.pop(target, 0) + w * tc
            if modulus is not None:
                c %= modulus
            if c:
                work[target] = c
                exps[target] = tE + sE
    return ring_, work, exps


def s_polynomial_field(f, g):
    """(lcm / lt(f)) * f - (lcm / lt(g)) * g; the leading terms cancel."""
    divide = f.ring.domain.coeff_divmod
    if not (f.is_zero or g.is_zero or f.ring.domain.is_field):
        raise DomainError("s_polynomial_field needs a field domain")
    return _pair(f, g, "s-polynomial", lambda a, b: (divide(1, a)[0], -divide(1, b)[0]))


def s_pair_z(f, g, lcm=None):
    """Integer S-combination of two entries or Polynomials (see ``_pair``):
    the field S-polynomial on monic elements, a unit multiple on primitive QQ ones."""
    return _pair(f, g, "s-pair", lambda a, b: (math.lcm(a, b) // a, -math.lcm(a, b) // b), lcm)


def g_pair_z(f, g, lcm=None):
    """Bezout combination of two entries or Polynomials (see ``_pair``) whose
    leading term is gcd(lc f, lc g) on the lcm."""
    return _pair(f, g, "g-pair", lambda a, b: ext_gcd(a, b)[1:], lcm)


# ---------------------------------------------------------------------------
# completion

def _normalizer(ring_):
    """The form completion keeps elements in, on (c, K, E) terms: monic over
    ZZ/p, ``_primitive`` over QQ until the end, a positive lead over ZZ."""
    dom = ring_.domain
    if isinstance(dom, RationalDomain):
        return _primitive
    if dom.is_field:
        def monic(terms, p=dom.modulus):
            u = pow(terms[0][0], -1, p)
            return [(c * u % p, K, E) for c, K, E in terms]
        return monic
    if isinstance(dom, IntegerDomain):
        return lambda terms: terms if terms[0][0] > 0 else [(-c, K, E) for c, K, E in terms]
    raise DomainError(f"{dom.name}: only fields and ZZ are supported")


class _Pairs:
    """The pairs of a growing basis that Buchberger's criteria leave, in the
    order ``_complete`` visits them, completing or checking.

    ``add(g)`` appends g, an element's ``_Packed`` entry, to ``elements`` and
    queues its pairs, each with its lcm packed (K, E), or ``ExponentOverflow``.
    Iterating pops pairs (i, j), i < j, by the lcm's K, S-pairs before
    G-pairs, then by (j, i), the order they were queued in, sees pairs queued
    meanwhile, and yields the dividend that ``s_pair_z`` or ``g_pair_z``
    (looked up by name at each call) builds from the entries and lcm of each
    pair no criterion skips, charged to ``stats``, the run's ``RunStats``.

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
        _, self.fields, self.guard = _packing(ring_.order, ring_.arity)
        self.stats = limits or RunStats()
        self.chain = chain
        self.seeded = seeded
        self.elements = []
        self.leads = []  # (lead coefficient, E, lead monomial) of each element
        self.queue = []
        self.pending = set()  # queued S-pairs (i, j), i < j
        self.witness = {}  # redundant element -> the element that made it so

    def add(self, g):
        j = len(self.elements)
        self.elements.append(g)
        gE, b, leads, fields = g[0], 1 if self.field else g[2], self.leads, self.fields
        mg = fields.unpack(gE.to_bytes(fields.size, "little"))[:-1]  # drop the total degree
        # two seed elements make no pair: the seed treated them already.
        # Each lcm is packed with i in the place of its coefficient.
        for i, K, E in _packed_terms(g[5], [
                (i, tuple(map(max, mf, mg))) for i, (_, _, mf)
                in enumerate(leads if j >= self.seeded else ()) if i not in self.witness]):
            a, fE, _ = leads[i]
            if not (E == fE + gE and math.gcd(a, b) == 1):
                heapq.heappush(self.queue, (K, S_PAIR, j, i, E))
                self.pending.add((i, j))
            if b % a and a % b:
                heapq.heappush(self.queue, (K, G_PAIR, j, i, E))
            if self.chain and a % b == 0 and not (fE - gE) & self.guard:
                self.witness[i] = j
        leads.append((b, gE, mg))

    def _pending(self, i, j):
        """Whether S-pair (i, j), i < j, is queued, or unmade and waits on a queued one."""
        pending, witness = self.pending, self.witness
        while witness.get(i, j) < j:  # (i, j) was never made: it waits on (i, w), (w, j)
            if (i, witness[i]) in pending:
                return True
            i = witness[i]
        return (i, j) in pending

    def __iter__(self):
        leads, pending, guard = self.leads, self.pending, self.guard
        while self.queue:
            K, kind, j, i, E = heapq.heappop(self.queue)
            if kind == S_PAIR:
                c = math.lcm(leads[i][0], leads[j][0])
                skip = self.chain and any(
                    c % ck == 0 and not (E - Ek) & guard and k != i and k != j
                    and not self._pending(min(i, k), max(i, k))
                    and not self._pending(min(j, k), max(j, k))
                    for k, (ck, Ek, _) in enumerate(leads))
                pending.discard((i, j))
                if skip:
                    continue
            else:
                c = math.gcd(leads[i][0], leads[j][0])
                if any(c % ck == 0 and not (E - Ek) & guard for ck, Ek, _ in leads):
                    continue
            self.stats.pair(kind)
            build = s_pair_z if kind == S_PAIR else g_pair_z
            yield build(self.elements[i], self.elements[j], (K, E))


def _complete(gens, ring_, limits, seeded=0, check=False):
    """Close the generators under the pairs ``_Pairs`` yields, then canonicalize.
    Elements stay packed: remainders join as entries of normalized (c, K, E)
    terms, and only ``_canonicalize`` unpacks, the basis it returns.

    The first ``seeded`` generators must be a reduced Groebner basis
    (strong over ZZ), which only callers that built it pass.  Each is its
    own remainder, so it joins as given, unreduced, and ``_Pairs`` treats
    no pair between two of them.

    ``check`` makes it ``is_groebner_basis``, counted as no completion: the
    generators join unreduced, and the result is False at the first pair
    with a nonzero remainder, else True.

    Over QQ the elements are ``_primitive`` integer polynomials that reduce
    by pseudo-division.  Every working polynomial is a nonzero rational
    multiple of the one ``Fraction`` arithmetic would hold, so zero tests,
    lead monomials, reducer choices, pairs, counts and the reduced basis
    are those of the ``Fraction`` path.
    """
    pseudo = isinstance(ring_.domain, RationalDomain)
    normalize = _normalizer(ring_)
    pairs = _Pairs(ring_, limits, chain=check or not pseudo, seeded=seeded)
    pairs.stats.completions += not check
    reducers = []  # the elements' entries, ascending by lead term: smaller reducers first

    def remainder(f):
        return _reduce(f, reducers, pairs.stats.reduction, pseudo)[1]

    def join(terms):
        if terms:
            entry = _entry(ring_, normalize(terms))
            reducers.insert(bisect.bisect(reducers, entry[1:3], key=itemgetter(1, 2)), entry)
            pairs.add(entry)

    for k, g in enumerate(gens):
        join(_packed_terms(ring_, g.terms) if check or k < seeded or g.is_zero else remainder(
            Polynomial(ring_, tuple(_primitive(g.terms))) if pseudo else g))
    for pair in pairs:
        r = remainder(pair)
        if check and r:
            return False
        join(r)
    return True if check else _canonicalize(reducers, ring_, pairs.stats)


def _canonicalize(packed, ring_, stats):
    """Minimize and (strongly) tail-reduce a complete basis in one pass.

    ``packed``, the ``_Packed`` entries of a complete basis (strong over ZZ)
    normalized as completion keeps it (over QQ ``_primitive``), is
    completion's reducer list, ascending by lead term (K, c): the order
    here.  Only an element a tail reduction changes is packed again, and
    only the elements kept are unpacked, once each.

    For kept g, h with leads c*m, d*m' and m' | m, some kept lead strongly
    divides the lead gcd(c, d)*m of a combination of g and h; by minimality
    it is g's, so c | d, and c != d or h would strongly divide g.  So d > c,
    c divided by d is 0, and no step touches a lead term; over a field no
    other lead monomial divides m.  One pass leaves every tail irreducible
    by unchanged, normalized leads: the reduced basis, on distinct lead
    monomials, descending once reversed.  An element is reduced only when
    some other lead reduces a tail term by ``_reduce``'s rule (its monomial
    divides, and ``coeff_divmod``'s quotient is nonzero): otherwise no step
    applies, as the leads are unchanged, and its tail is reduced already.

    Over QQ a tail reduces by pseudo-division: each step is the QQ step up
    to a nonzero rational factor, by the same reducer, the first whose lead
    monomial divides, so the steps and the monic remainder are those of the
    ``Fraction`` path.  Each kept element becomes monic once, at the end.
    Steps go to ``stats``, the completion's, as steps outside completion.
    """
    field = ring_.domain.is_field
    pseudo = isinstance(ring_.domain, RationalDomain)
    guard, coeff_divmod = _packing(ring_.order, ring_.arity)[2], ring_.domain.coeff_divmod
    kept = []
    for entry in packed:  # kept unless an earlier kept lead strongly divides
        if not any(not (entry[0] - hE) & guard and (field or entry[2] % hc == 0)
                   for hE, _, hc, *_ in kept):
            kept.append(entry)
    for i, (E, K, c, _, tail, ring) in enumerate(kept):
        others = kept[:i] + kept[i + 1:]
        if any(not (tE - gE) & guard and (field or coeff_divmod(tc, gc)[0])
               for tc, _, tE in tail for gE, _, gc, *_ in others):
            r = _reduce(_dividend(ring, [(c, K, E), *tail]), others, stats.step, pseudo)[1]
            kept[i] = _entry(ring, _primitive(r) if pseudo else r)  # later ones reduce by it
    return GroebnerBasis(ring_, tuple(_unpacked(ring_, [
        (Fraction(t, c) if pseudo else t, tK, tE) for t, tK, tE in ((c, K, E), *tail)])
        for E, K, c, _, tail, _ in reversed(kept)), reduced=True)


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
    """The reduced basis of QQ J from the strong basis of J, a Groebner basis
    of QQ J: its primitive forms, ascending by lead monomial (distinct in a
    reduced strong basis, so no tie), canonicalized as completion's are."""
    packed = [_entry(basis.ring, _primitive(_packed_terms(basis.ring, g.terms)))
              for g in reversed(basis.elements)]
    return _canonicalize(packed, with_domain(basis.ring, QQ), limits or RunStats())


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
