import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modgrob import NotCoprime, crt_coefficients, ext_gcd, factorize, is_prime


def test_ext_gcd_degenerate():
    assert ext_gcd(0, 0) == (0, 0, 0)


def test_ext_gcd_small():
    assert ext_gcd(2, 3) == (1, -1, 1)
    g, u, v = ext_gcd(12, 18)
    assert g == 6 and 12 * u + 18 * v == 6


@given(st.integers(min_value=-10**12, max_value=10**12),
       st.integers(min_value=-10**12, max_value=10**12))
def test_ext_gcd_identity(a, b):
    g, u, v = ext_gcd(a, b)
    assert u * a + v * b == g
    assert g == math.gcd(a, b)
    if g:
        assert a % g == 0 and b % g == 0


def test_crt_single_modulus():
    assert crt_coefficients([5]) == [1]


def test_crt_pair():
    assert crt_coefficients([4, 3]) == [-1, 1]


def test_crt_triple_identity():
    b = crt_coefficients([2, 3, 5])
    assert 15 * b[0] + 10 * b[1] + 6 * b[2] == 1


def test_crt_rejects_common_factor():
    with pytest.raises(NotCoprime):
        crt_coefficients([4, 6])


def test_crt_checks_the_folded_gcd(monkeypatch):
    # The gcd check must not be an assert, which python -O strips.
    import modgrob.intarith as intarith

    monkeypatch.setattr(intarith, "ext_gcd", lambda a, b: (2, 1, 0))
    with pytest.raises(NotCoprime):
        crt_coefficients([3, 5])


def test_crt_rejects_unit_modulus():
    with pytest.raises(ValueError):
        crt_coefficients([1, 3])


@given(st.lists(st.sampled_from([4, 9, 25, 7, 11, 13, 17, 19, 23, 29, 8, 27]),
                min_size=1, max_size=5, unique=True))
def test_crt_identity_random(moduli):
    if any(math.gcd(a, b) != 1
           for i, a in enumerate(moduli) for b in moduli[i + 1:]):
        return
    b = crt_coefficients(moduli)
    m = math.prod(moduli)
    assert sum(bi * (m // mi) for bi, mi in zip(b, moduli)) == 1


def test_factorize_small():
    assert factorize(1) == []
    assert factorize(27) == [(3, 3)]
    assert factorize(360) == [(2, 3), (3, 2), (5, 1)]


def test_factorize_rejects_zero():
    with pytest.raises(ValueError):
        factorize(0)


@given(st.integers(min_value=1, max_value=10**7))
@settings(max_examples=200)
def test_factorize_reassembles(n):
    factors = factorize(n)
    assert math.prod(p**e for p, e in factors) == n
    assert all(is_prime(p) for p, _ in factors)
    assert [p for p, _ in factors] == sorted({p for p, _ in factors})


def test_factorize_large_semiprime():
    p, q = 10**9 + 7, 10**9 + 9
    assert factorize(p * q) == [(p, 1), (q, 1)]


def test_is_prime_spot_checks():
    primes = [2, 3, 5, 7, 997, 10**9 + 7]
    composites = [1, 0, 4, 561, 341, 1000003 * 1000033]
    assert all(is_prime(p) for p in primes)
    assert not any(is_prime(c) for c in composites)


def test_strong_pseudoprime_to_the_first_twelve_primes():
    """psi_12 passes Miller-Rabin for every base from 2 to 37; base 41 exposes it."""
    psi_12 = 318665857834031151167461
    assert not is_prime(psi_12)
    assert factorize(psi_12) == [(399165290221, 1), (798330580441, 1)]
