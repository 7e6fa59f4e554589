"""Exact integer helpers: extended gcd, CRT cofactors, factorization.

Arbitrary-precision integers and rationals are Python's built-in ``int``
and ``fractions.Fraction``; this module adds the number-theoretic pieces
the basis algorithms need.
"""

import math

from .errors import NotCoprime

# The first 13 primes: a deterministic Miller-Rabin witness set for every
# n below psi_13 = 3317044064679887385961981 (about 3.3 * 10**24), the
# least composite that passes them all.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3317044064679887385961981

_TRIAL_LIMIT = 10**6


def ext_gcd(a, b):
    """Return (g, u, v) with g = gcd(a, b) >= 0 and u*a + v*b = g.

    ext_gcd(0, 0) is (0, 0, 0) by convention.
    """
    if a == 0 and b == 0:
        return 0, 0, 0
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        return -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def crt_coefficients(moduli):
    """Bezout coefficients b_i with sum(b_i * c_i) == 1, c_i = m / m_i.

    The moduli must be pairwise coprime and each > 1.  Any valid Bezout
    tuple may be returned; only the identity is guaranteed.
    """
    moduli = list(moduli)
    if not moduli:
        raise ValueError("need at least one modulus")
    for m_i in moduli:
        if m_i <= 1:
            raise ValueError(f"modulus {m_i} is not > 1")
    for i in range(len(moduli)):
        for j in range(i + 1, len(moduli)):
            if math.gcd(moduli[i], moduli[j]) != 1:
                raise NotCoprime(f"{moduli[i]} and {moduli[j]} share a factor")
    m = math.prod(moduli)
    cofactors = [m // m_i for m_i in moduli]
    # Fold extended gcd over the cofactors; pairwise-coprime moduli force
    # the overall gcd down to 1.
    g = cofactors[0]
    coeffs = [1]
    for c in cofactors[1:]:
        g, u, v = ext_gcd(g, c)
        coeffs = [u * w for w in coeffs]
        coeffs.append(v)
    if g != 1:
        raise NotCoprime(f"cofactors of {moduli} have gcd {g}")
    return coeffs


def _jacobi(a, n):
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas(n):
    """Strong Lucas probable-prime test of odd n > 1 with Selfridge's
    parameters: D the first of 5, -7, 9, -11, ... with (D/n) = -1, P = 1,
    Q = (1 - D) / 4.  A square has no such D and is composite, as is n
    sharing a factor with some |D| < n."""
    if math.isqrt(n) ** 2 == n:
        return False
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0 and abs(D) < n:
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q, half = (1 - D) // 4, (n + 1) // 2  # half is the inverse of 2 mod n
    d, s = n + 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    U, V, Qk = 1, 1, Q % n  # U_1, V_1 = P and Q^1
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = (U + V) * half % n, (D * U + V) * half % n, Qk * Q % n
    if U == 0:
        return True
    for _ in range(s):  # V_d, V_2d, ..., V_(2^(s-1) d)
        if V == 0:
            return True
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
    return False


def is_prime(n):
    """Primality: Miller-Rabin to the first 13 prime bases, which is exact
    below psi_13; at or above it also a strong Lucas test, which with base 2
    makes the Baillie-PSW test.  No composite is known to pass that."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _PSI_13 or _strong_lucas(n)


def _pollard_rho(n):
    """One nontrivial factor of composite odd n (Brent's cycle variant)."""
    if n % 2 == 0:
        return 2
    c = 1
    while True:
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
        c += 1


def factorize(n):
    """Prime-power factorization of n >= 1 as [(p, e), ...], primes ascending.

    factorize(1) is the empty list.  Trial division up to 10**6, then
    Pollard rho; plenty for the small smooth exponents these algorithms
    produce, not for cryptographic sizes.
    """
    if n < 1:
        raise ValueError("factorize needs n >= 1")
    counts = {}

    def account(p):
        counts[p] = counts.get(p, 0) + 1

    rest = n
    while rest % 2 == 0:
        account(2)
        rest //= 2
    p = 3
    while p <= _TRIAL_LIMIT and p * p <= rest:
        while rest % p == 0:
            account(p)
            rest //= p
        p += 2
    stack = [rest] if rest > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            account(m)
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return sorted(counts.items())
