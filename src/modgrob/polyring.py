"""Sparse multivariate polynomials over ZZ, QQ or ZZ/m with term orders.

Monomials are plain exponent tuples (length = number of variables, the
first-listed variable is the largest).  Polynomials keep their terms as a
tuple of (coefficient, monomial) pairs, strictly descending in the ring's
term order, with no zero coefficients.  Everything is immutable.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from operator import add, neg

from .errors import DomainError, RingMismatch, ZeroPolynomial
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
        if type(c) is int:  # skips Fraction's ABCMeta instance check
            return c
        if isinstance(c, Fraction):
            if c.denominator != 1:
                raise DomainError(f"{c} is not an integer")
            return c.numerator
        return int(c)

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
        return Fraction(c)

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

    Keys are flat int tuples of fixed length per arity, so elementwise
    negation reverses the order (used by the reduction heap).
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
    return tuple(x + y for x, y in zip(a, b, strict=True))


def monomial_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b, strict=True))


def monomial_divides(a, b):
    """True when a divides b (componentwise <=)."""
    return all(x <= y for x, y in zip(a, b, strict=True))


def monomial_div(a, b):
    """The monomial a / b; b must divide a."""
    if not monomial_divides(b, a):
        raise ValueError(f"{b} does not divide {a}")
    return tuple(x - y for x, y in zip(a, b, strict=True))


# ---------------------------------------------------------------------------
# rings and polynomials

@dataclass(frozen=True)
class RingDescriptor:
    variables: tuple
    order: TermOrder
    domain: IntegerDomain | RationalDomain | ModularDomain

    def __post_init__(self):
        if "" in self.variables or len(set(self.variables)) != len(self.variables):
            raise ValueError("variable names must be distinct and nonempty")

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
    if isinstance(value, Polynomial):
        return value
    return Polynomial.constant(ring_, value)


def _same_ring(f, g):
    if f.ring != g.ring:
        raise RingMismatch(f"rings differ: {f.ring} vs {g.ring}")


def poly_add(f, g):
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


def poly_sub(f, g):
    return poly_add(f, poly_scale(g, -1))


def poly_scale(f, c):
    dom = f.ring.domain
    c = dom.normalize(c)
    if c == 0:
        return Polynomial.zero(f.ring)
    out = []
    for cf, mono in f.terms:
        v = dom.normalize(cf * c)
        if v != 0:
            out.append((v, mono))
    return Polynomial(f.ring, tuple(out))


def term_mul(f, c, mono):
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


def _from_sums(ring_, sums):
    """The Polynomial of a dict monomial -> coefficient: normalized, sorted once."""
    normalize = ring_.domain.normalize
    terms = []
    for mono in sorted(sums, key=monomial_key(ring_.order), reverse=True):
        c = normalize(sums[mono])
        if c != 0:
            terms.append((c, mono))
    return Polynomial(ring_, tuple(terms))


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
    if isinstance(f.ring.domain, RationalDomain):
        return poly_scale(f, Fraction(1) / leading_coefficient(f))
    if isinstance(f.ring.domain, ModularDomain) and f.ring.domain.is_field:
        return poly_scale(f, pow(leading_coefficient(f), -1, f.ring.domain.modulus))
    raise DomainError("monic rescaling needs a field domain")


# ---------------------------------------------------------------------------
# ring and domain changes

def with_domain(ring_, domain):
    return RingDescriptor(ring_.variables, ring_.order, domain)


def change_domain(f, domain):
    """Map coefficients into another domain (ZZ->QQ, ZZ->ZZ/m, exact QQ->ZZ...)."""
    new_ring = with_domain(f.ring, domain)
    out = []
    for c, mono in f.terms:
        v = domain.normalize(c)
        if v != 0:
            out.append((v, mono))
    return Polynomial(new_ring, tuple(out))


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
