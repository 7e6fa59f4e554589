"""Sparse multivariate polynomials over ZZ, QQ or ZZ/m with term orders.

Monomials are plain exponent tuples (length = number of variables, the
first-listed variable is the largest).  Polynomials keep their terms as a
tuple of (coefficient, monomial) pairs, strictly descending in the ring's
term order, with no zero coefficients.  Everything is immutable.
"""

import math
import re
import struct
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from operator import add, le, mul, neg

from .errors import DomainError, ExponentOverflow, RingMismatch, ZeroPolynomial
from .intarith import is_prime

_MAX_EXPONENT = 2**31


# ---------------------------------------------------------------------------
# coefficient domains

@dataclass(frozen=True)
class IntegerDomain:
    name: str = field(default="ZZ", init=False)

    @property
    def is_field(self):
        return False

    def normalize(self, c):
        if type(c) is int:
            return c
        if getattr(c, "denominator", None) == 1:
            return c.numerator
        raise DomainError(f"{c} is not an integer")

    def coeff_divmod(self, c, a):
        # c = q*a + r with the canonical residue 0 <= r < |a|.
        r = c % abs(a)
        return (c - r) // a, r


@dataclass(frozen=True)
class RationalDomain:
    name: str = field(default="QQ", init=False)

    @property
    def is_field(self):
        return True

    def normalize(self, c):
        if type(c) is Fraction:
            return c
        if isinstance(c, int):
            return Fraction(c)
        raise DomainError(f"{c} is not an int or a Fraction")

    def coeff_divmod(self, c, a):
        return Fraction(c) / a, Fraction(0)


@lru_cache(maxsize=None)
def _modulus_is_prime(m):
    return is_prime(m)


@dataclass(frozen=True)
class ModularDomain:
    modulus: int

    def __post_init__(self):
        if self.modulus < 2:
            raise DomainError(f"modulus must be >= 2, got {self.modulus}")

    @property
    def name(self):
        return f"ZZ/{self.modulus}"

    @property
    def is_field(self):
        return _modulus_is_prime(self.modulus)

    def normalize(self, c):
        return (c if type(c) is int else ZZ.normalize(c)) % self.modulus

    def coeff_divmod(self, c, a):
        # Residues are canonical in [0, m); a term with coefficient c is
        # reducible by lead coefficient a exactly when c >= gcd(a, m).
        m = self.modulus
        g = math.gcd(a, m)
        r = c % g
        if r == c:
            return 0, r
        q = ((c - r) // g * pow(a // g, -1, m // g)) % (m // g)
        return q, r


ZZ = IntegerDomain()
QQ = RationalDomain()


# ---------------------------------------------------------------------------
# term orders

@dataclass(frozen=True)
class Lex:
    pass


@dataclass(frozen=True)
class DegRevLex:
    pass


@dataclass(frozen=True)
class Block:
    """Elimination order: compare the front sub-vector first, then the rest.

    ``front`` holds the positions 0 .. k-1 of the first k variables, which
    are compared with ``front_order``, the remaining ones with
    ``back_order``.  Positions inside the nested orders refer to the
    respective sub-vectors.
    """

    front: tuple
    front_order: "TermOrder"
    back_order: "TermOrder"

    def __post_init__(self):
        if self.front != tuple(range(len(self.front))):
            raise ValueError(f"block front must be a prefix 0 .. k-1, got {self.front}")


TermOrder = Lex | DegRevLex | Block


def monomial_key(order):
    """Sort key for monomials: bigger key means bigger monomial.

    Keys are flat int tuples of fixed length per arity, each entry linear
    in the exponents, so ``_packing`` packs a key into one int.
    """
    if isinstance(order, Lex):
        return lambda e: e
    if isinstance(order, DegRevLex):
        def key(e):
            return (sum(e), *map(neg, reversed(e)))
        return key
    if isinstance(order, Block):
        fkey = monomial_key(order.front_order)
        bkey = monomial_key(order.back_order)
        cut = len(order.front)

        def key(e):
            return fkey(e[:cut]) + bkey(e[cut:])
        return key
    raise TypeError(f"unknown term order {order!r}")


def monomial_mul(a, b):
    return tuple(map(add, a, b))


def monomial_lcm(a, b):
    return tuple(map(max, a, b))


def monomial_divides(a, b):
    """True when a divides b (componentwise <=); a and b of one arity."""
    return all(map(le, a, b))


_FIELD = 64  # bits per packed digit; total degrees stay below 2^(_FIELD - 1)


@lru_cache(maxsize=None)
def _packing(order, arity):
    """(weights, fields, guard) packing a monomial e in two ints (Bachmann and
    Schoenemann, ISSAC 1998).  K(e) = sum(map(mul, e, weights)) packs e's
    order key, linear in e, in balanced base 2^64 digits, each an exponent,
    its negative or a sum: K(a b) = K(a) + K(b), and below total degree 2^63
    K is injective and orders as the term order.  E(e) packs (*e, sum(e)) by
    ``fields`` in 64-bit fields below 2^63: a divides b iff E(b) - E(a) sets
    no ``guard`` bit (a field's top bit), as the lowest field with a_i > b_i
    borrows, holding 2^64 + b_i - a_i >= 2^63.  Exponents enter at most at
    2^31 but grow in Lex and Block steps (x y^N by x - y^N leaves y^2N): a
    monomial past the fields, given or about to be made, raises ``ExponentOverflow``."""
    key = monomial_key(order)
    weights = tuple(sum(d << _FIELD * k for k, d in enumerate(reversed(
        key(tuple(int(i == j) for j in range(arity)))))) for i in range(arity))
    guard = sum(1 << (_FIELD * k + _FIELD - 1) for k in range(arity + 1))
    return weights, struct.Struct(f"<{arity}Qq"), guard


def _packed_terms(ring_, terms):
    """(c, K, E) of each (c, e) of ``terms`` in ``ring_``; the fields refuse
    a negative exponent and a total degree of 2^63 or more."""
    weights, fields, _ = _packing(ring_.order, ring_.arity)
    pack, from_bytes = fields.pack, int.from_bytes
    try:
        return [(c, sum(map(mul, e, weights)), from_bytes(pack(*e, sum(e)), "little"))
                for c, e in terms]
    except struct.error:
        raise ExponentOverflow("a monomial leaves the packed exponent fields") from None


def _unpacked(ring_, terms):
    """The Polynomial of (c, K, E) terms of ``ring_``, descending: ``_packed_terms`` undone."""
    fields = _packing(ring_.order, ring_.arity)[1]
    return Polynomial(ring_, tuple((c, fields.unpack(E.to_bytes(fields.size, "little"))[:-1])
                                   for c, _, E in terms))


def _entry(ring_, terms):
    """The ``_Packed`` entry of nonzero (c, K, E) terms of ``ring_``, descending."""
    (c, K, E), *tail = terms
    top = _FIELD * ring_.arity
    room = (1 << _FIELD - 1) - (max((tE for *_, tE in tail), default=0) >> top)
    return E, K, c, room << top, tuple(tail), ring_


# ---------------------------------------------------------------------------
# rings and polynomials

@lru_cache(maxsize=None)
def _check_variables(variables):
    """Refuse names the parser cannot read back (\\w+ led by a letter or '_')."""
    if "" in variables or len(set(variables)) != len(variables):
        raise ValueError("variable names must be distinct and nonempty")
    for name in variables:
        if not (re.fullmatch(r"\w+", name) and (name[0].isalpha() or name[0] == "_")):
            raise ValueError(f"variable name {name!r} is not an identifier")


@dataclass(frozen=True)
class RingDescriptor:
    variables: tuple
    order: TermOrder
    domain: IntegerDomain | RationalDomain | ModularDomain

    def __post_init__(self):
        _check_variables(self.variables)

    @property
    def arity(self):
        return len(self.variables)

    def one_monomial(self):
        return (0,) * self.arity


def ring(variables, order, domain):
    return RingDescriptor(tuple(variables), order, domain)


@dataclass(frozen=True)
class Polynomial:
    ring: RingDescriptor
    terms: tuple  # ((coefficient, monomial), ...) strictly descending

    @staticmethod
    def from_terms(ring_, pairs):
        """Normalize arbitrary (coefficient, monomial) pairs into a Polynomial."""
        acc = {}
        for c, mono in pairs:
            mono = tuple(mono)
            if len(mono) != ring_.arity:
                raise ValueError(f"monomial {mono} has wrong arity for {ring_.variables}")
            if any(type(e) is not int for e in mono):
                raise ValueError(f"exponent not an integer in {mono}")
            if any(e < 0 or e > _MAX_EXPONENT for e in mono):
                raise ValueError(f"exponent out of range in {mono}")
            acc[mono] = acc.get(mono, 0) + c
        return _from_sums(ring_, acc)

    @staticmethod
    def zero(ring_):
        return Polynomial(ring_, ())

    @staticmethod
    def constant(ring_, c):
        return Polynomial.from_terms(ring_, [(c, ring_.one_monomial())])

    @property
    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        return poly_add(self, _coerce(self.ring, other))

    __radd__ = __add__

    def __sub__(self, other):
        return poly_sub(self, _coerce(self.ring, other))

    def __rsub__(self, other):
        return poly_sub(_coerce(self.ring, other), self)

    def __neg__(self):
        return poly_scale(self, -1)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            return poly_mul(self, other)
        return poly_scale(self, other)

    __rmul__ = __mul__

    def __str__(self):
        return poly_to_string(self)

    def __repr__(self):
        return f"<{poly_to_string(self)}>"


def _coerce(ring_, value):
    return value if isinstance(value, Polynomial) else Polynomial.constant(ring_, value)


def _same_ring(f, g):
    if f.ring != g.ring:
        raise RingMismatch(f"rings differ: {f.ring} vs {g.ring}")


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


class _Packed(list):
    """Nonzero polynomials of ``ring``, each packed once as a reducer and pair
    parent: (E, K, lead coefficient, limit, tail (c, K, E) terms, ring), limit
    the least shift E carrying the top tail degree to 2^63."""

    def __init__(self, ring_, polys=()):
        self.ring = _common_ring(polys, ring_)
        if any(g.is_zero for g in polys):
            raise ZeroPolynomial("zero polynomial in reducer list")
        super().__init__(_entry(g.ring, _packed_terms(g.ring, g.terms)) for g in polys)


def _packed_for(f, basis):
    """``basis`` as f's reducers: a ``_Packed`` of f's ring as it is, else packed now."""
    ring_ = _common_ring([f], None)
    same = isinstance(basis, _Packed) and basis.ring == ring_
    return basis if same else _Packed(ring_, list(basis))


def _dividend(ring_, terms):
    """The working polynomial ``_reduce`` reads, of (c, K, E) terms of ``ring_``."""
    return ring_, {K: c for c, K, _ in terms}, {K: E for _, K, E in terms}


def _primitive(terms):
    """Nonzero (c, ...) terms over ZZ with denominators cleared, content removed
    and a positive lead coefficient: the form completion keeps over QQ."""
    den = math.lcm(*(c.denominator for c, *_ in terms))
    nums = [c.numerator * (den // c.denominator) for c, *_ in terms]
    g = math.gcd(*nums) if nums[0] > 0 else -math.gcd(*nums)
    return [(n // g, *rest) for n, (_, *rest) in zip(nums, terms)]


def poly_add(f, g):
    return _combine(f, 1, g)


def poly_sub(f, g):
    return _combine(f, -1, g)


def poly_scale(f, c):
    dom = f.ring.domain
    c = dom.normalize(c)  # refuses what the domain does not hold
    return change_domain(Polynomial(f.ring, tuple((cf * c, m) for cf, m in f.terms)), dom)


def _from_sums(ring_, sums):
    """The Polynomial of a dict monomial -> coefficient: normalized, sorted once."""
    normalize = ring_.domain.normalize
    terms = []
    for mono in sorted(sums, key=monomial_key(ring_.order), reverse=True):
        c = normalize(sums[mono])
        if c != 0:
            terms.append((c, mono))
    return Polynomial(ring_, tuple(terms))


def _combine(f, c, g):
    """f + c * g, gathered in one monomial -> coefficient dict and sorted once."""
    _same_ring(f, g)
    acc = {mono: cf for cf, mono in f.terms}
    for cg, mono in g.terms:
        acc[mono] = acc.get(mono, 0) + c * cg
    return _from_sums(f.ring, acc)


def _term_products(f, g):
    """Monomial -> unnormalized coefficient of the product of two (c, m) pair lists."""
    acc = {}
    for cf, mf in f:
        for cg, mg in g:
            mono = tuple(map(add, mf, mg))
            acc[mono] = acc.get(mono, 0) + cf * cg
    return acc


def poly_mul(f, g):
    _same_ring(f, g)
    return _from_sums(f.ring, _term_products(f.terms, g.terms))


def leading_term(f):
    if f.is_zero:
        raise ZeroPolynomial("zero polynomial has no leading term")
    return f.terms[0]


def leading_monomial(f):
    return leading_term(f)[1]


def leading_coefficient(f):
    return leading_term(f)[0]


def total_degree(f):
    """Max total degree of the terms; -1 for the zero polynomial."""
    if f.is_zero:
        return -1
    return max(sum(m) for _, m in f.terms)


def is_homogeneous(f):
    if f.is_zero:
        return True
    degs = {sum(m) for _, m in f.terms}
    return len(degs) == 1


def monic(f):
    """Scale f by the inverse of its leading coefficient (field domains)."""
    if f.is_zero:
        return f
    dom = f.ring.domain
    if not dom.is_field:
        raise DomainError("monic rescaling needs a field domain")
    return poly_scale(f, dom.coeff_divmod(1, leading_coefficient(f))[0])


# ---------------------------------------------------------------------------
# ring and domain changes

def with_domain(ring_, domain):
    return ring_ if ring_.domain is domain else RingDescriptor(ring_.variables, ring_.order, domain)


def change_domain(f, domain):
    """Map coefficients into another domain (ZZ->QQ, ZZ->ZZ/m, exact QQ->ZZ...)."""
    out = []
    for c, mono in f.terms:
        v = domain.normalize(c)
        if v != 0:
            out.append((v, mono))
    return Polynomial(with_domain(f.ring, domain), tuple(out))


def fresh_variable_name(existing, base="h"):
    if base not in existing:
        return base
    i = 0
    while f"{base}{i}" in existing:
        i += 1
    return f"{base}{i}"


def homogenize(f, position, new_ring):
    """Homogenize f with a variable at ``position`` in ``new_ring``, which
    has one variable more than f's ring.

    The result is homogeneous of degree total_degree(f) and dehomogenizing
    at the same position gives f back.
    """
    old = f.ring
    if new_ring.arity != old.arity + 1:
        raise ValueError("homogenization ring must have exactly one extra variable")
    if f.is_zero:
        return Polynomial.zero(new_ring)
    deg = total_degree(f)
    pairs = []
    for c, mono in f.terms:
        filler = deg - sum(mono)
        pairs.append((c, mono[:position] + (filler,) + mono[position:]))
    return Polynomial.from_terms(new_ring, pairs)


# ---------------------------------------------------------------------------
# canonical text form (shared by __str__ and the cli formatter)

def _coeff_to_string(c):
    if isinstance(c, Fraction) and c.denominator != 1:
        return f"{c.numerator}/{c.denominator}"
    return str(int(c))


def poly_to_string(f):
    """Deterministic compact form: terms descending, explicit ^ exponents.

    Factors are juxtaposed when every variable name is a single letter
    (3y^2-yx) and joined with '*' otherwise.
    """
    if f.is_zero:
        return "0"
    names = f.ring.variables
    sep = "" if all(len(n) == 1 for n in names) else "*"
    chunks = []
    for idx, (c, mono) in enumerate(f.terms):
        factors = [name if e == 1 else f"{name}^{e}"
                   for name, e in zip(names, mono) if e != 0]
        neg = c < 0
        mag = -c if neg else c
        parts = ([] if mag == 1 and factors else [_coeff_to_string(mag)]) + factors
        body = sep.join(parts) if sep else "".join(parts)
        sign = "-" if neg else ("" if idx == 0 else "+")
        chunks.append(sign + body)
    return "".join(chunks)
