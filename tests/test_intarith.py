import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modgrob import (
    ModularDomain,
    NotCoprime,
    ResourceLimitExceeded,
    RunStats,
    crt_coefficients,
    ext_gcd,
    factorize,
    intarith,
    is_prime,
)


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


def test_factorize_hands_pollard_rho_only_odd_numbers(monkeypatch):
    """Both odd factors lie past trial division, so rho splits what is left
    once factorize has divided out the 2: it never sees an even number."""
    seen = []
    pollard_rho = intarith._pollard_rho

    def rho(n, step):
        seen.append(n)
        return pollard_rho(n, step)

    monkeypatch.setattr(intarith, "_pollard_rho", rho)
    assert factorize(2 * 1000003 * 1000033) == [(2, 1), (1000003, 1), (1000033, 1)]
    assert seen == [1000003 * 1000033]


def test_pollard_rho_draws_on_the_run_budget():
    """Each rho round is a step: 1000003 * 1000033 takes 478 of them, and
    trial division below 10**6 takes none."""
    n = 1000003 * 1000033
    message = r"^reduction budget exhausted \(10\); raise --max-steps if this is intended$"
    with pytest.raises(ResourceLimitExceeded, match=message):
        factorize(n, RunStats(max_reductions=10))
    stats = RunStats()
    assert factorize(n, stats) == [(1000003, 1), (1000033, 1)] and stats.steps == 478
    assert factorize(n) == [(1000003, 1), (1000033, 1)]
    stats = RunStats(max_reductions=0)
    assert factorize(2**10 * 999983**2, stats) == [(2, 10), (999983, 2)]


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


def test_strong_pseudoprime_to_the_first_thirteen_primes():
    """psi_13 passes Miller-Rabin for every base from 2 to 41; the strong
    Lucas test exposes it, so ZZ/psi_13 is no field."""
    psi_13 = 3317044064679887385961981
    assert not is_prime(psi_13)
    assert factorize(psi_13) == [(1287836182261, 1), (2575672364521, 1)]
    assert not ModularDomain(psi_13).is_field


def test_primes_above_the_fixed_bases():
    assert is_prime(2**89 - 1) and is_prime(2**127 - 1)
    assert not is_prime(2**101 - 1)
    assert not is_prime((2**89 - 1) ** 2)
    assert factorize(1000003 * (2**89 - 1)) == [(1000003, 1), (2**89 - 1, 1)]


def test_strong_lucas_pseudoprimes_below_100000():
    """The odd composites below 10**5 that pass the strong Lucas test with
    Selfridge's parameters (OEIS A217255); every odd prime passes."""
    passing = [n for n in range(3, 10**5, 2) if intarith._strong_lucas(n)]
    pseudoprimes = [5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309,
                    58519, 75077, 97439]
    assert [n for n in passing if not is_prime(n)] == pseudoprimes
    assert len(passing) == len(pseudoprimes) + sum(map(is_prime, range(3, 10**5, 2)))
