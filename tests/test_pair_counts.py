"""Pinned completion work on fixed inputs.

The division kernel decides which reducer applies first, and that choice
shapes every later pair.  Counting the pair polynomials a completion
builds, and the reduction steps it spends on them, therefore catches a
kernel change that alters reducer choice, or a pair criterion that skips
more or fewer pairs, without timing anything.  A change meant to alter
the algorithm updates the numbers here.

Every count is read from the ``RunStats`` the calls under test are given:
the pair polynomials it was charged, S- and G-pairs apart, its
completions and its completion steps.  That ``_Pairs`` builds each pair
with ``s_pair_z`` or ``g_pair_z``, looked up by name, once per charged
pair, is pinned once, in ``test_groebner_check.py``.
"""

import pytest

from modgrob import (
    QQ,
    ZZ,
    DegRevLex,
    IdealOracle,
    ModularDomain,
    Polynomial,
    ResourceLimitExceeded,
    RunStats,
    arnold_conditions,
    buchberger_field,
    buchberger_z,
    gb_mod_m,
    homogenize_ideal,
    main_lemma_check,
    torsion_exponent,
)
from modgrob import arnold, groebner, torsion
from modgrob.parser import parse_polynomial
from modgrob.polyring import ring
from test_arnold import integer_scaled_basis


def _unit(arity, *positions):
    e = [0] * arity
    for i in positions:
        e[i] += 1
    return tuple(e)


def katsura(n, domain):
    """katsura-n in n+1 variables: sum_j u_j u_{m-j} = u_m (m < n), sum_j u_j = 1."""
    nv = n + 1
    ring_ = ring(tuple(f"u{i}" for i in range(nv)), DegRevLex(), domain)
    gens = []
    for m in range(n):
        terms = [(1, _unit(nv, abs(j), abs(m - j))) for j in range(-n, n + 1)
                 if abs(j) < nv and abs(m - j) < nv]
        terms.append((-1, _unit(nv, m)))
        gens.append(Polynomial.from_terms(ring_, terms))
    terms = [(1, _unit(nv, abs(j))) for j in range(-n, n + 1) if abs(j) < nv]
    terms.append((-1, _unit(nv)))
    gens.append(Polynomial.from_terms(ring_, terms))
    return gens


def cyclic(n, domain):
    """cyclic-n: the cyclic sums of degree 1..n-1 and x_1 ... x_n - 1."""
    ring_ = ring(tuple(f"x{i}" for i in range(n)), DegRevLex(), domain)
    gens = []
    for d in range(1, n):
        terms = [(1, _unit(n, *((i + k) % n for k in range(d)))) for i in range(n)]
        gens.append(Polynomial.from_terms(ring_, terms))
    gens.append(Polynomial.from_terms(ring_, [(1, (1,) * n), (-1, (0,) * n)]))
    return gens


def spent(stats):
    """The completions, S- and G-pair polynomials and completion steps charged to ``stats``."""
    return {"completions": stats.completions, "s_pairs": stats.pairs - stats.g_pairs,
            "g_pairs": stats.g_pairs, "reductions": stats.reductions}


def test_katsura3_over_zz():
    stats = RunStats()
    basis = buchberger_z(katsura(3, ZZ), stats)
    assert spent(stats) == {"completions": 1, "s_pairs": 70, "g_pairs": 6,
                            "reductions": 1077}
    assert len(basis) == 12


def test_cyclic4_over_qq():
    stats = RunStats()
    basis = buchberger_field(cyclic(4, QQ), stats)
    assert spent(stats) == {"completions": 1, "s_pairs": 13, "g_pairs": 0,
                            "reductions": 50}
    assert len(basis) == 7


@pytest.mark.parametrize("family, n, s_pairs, reductions, elements", [
    (katsura, 4, 49, 1745, 13),
    (cyclic, 5, 733, 29743, 20),
], ids=["katsura4", "cyclic5"])
def test_larger_ideals_over_qq(family, n, s_pairs, reductions, elements):
    """Fraction-free completion over QQ makes the pairs and steps of the
    Fraction arithmetic it replaced (these counts were recorded with it)."""
    stats = RunStats()
    basis = buchberger_field(family(n, QQ), stats)
    assert spent(stats) == {"completions": 1, "s_pairs": s_pairs, "g_pairs": 0,
                            "reductions": reductions}
    assert len(basis) == elements


def test_cyclic4_over_f32003():
    stats = RunStats()
    basis = buchberger_field(cyclic(4, ModularDomain(32003)), stats)
    assert spent(stats) == {"completions": 1, "s_pairs": 8, "g_pairs": 0,
                            "reductions": 30}
    assert len(basis) == 7


@pytest.mark.parametrize("family, n, s_pairs, reductions, elements", [
    (katsura, 5, 66, 4029, 22),
    (cyclic, 5, 101, 1248, 20),
], ids=["katsura5", "cyclic5"])
def test_larger_ideals_over_f32003(family, n, s_pairs, reductions, elements):
    """Completion over ZZ/p runs the chain criterion: without it these took
    147 / 14,543 and 733 / 29,742 pair polynomials / steps.  Pairing no
    redundant element took cyclic5 from 103 / 1,292 to 101 / 1,248."""
    stats = RunStats()
    basis = buchberger_field(family(n, ModularDomain(32003)), stats)
    assert spent(stats) == {"completions": 1, "s_pairs": s_pairs, "g_pairs": 0,
                            "reductions": reductions}
    assert len(basis) == elements


def test_katsura3_mod_12():
    stats = RunStats()
    basis = gb_mod_m(katsura(3, ZZ), 12, stats)
    assert spent(stats) == {"completions": 1, "s_pairs": 60, "g_pairs": 7,
                            "reductions": 553}
    assert len(basis) == 9


def test_tail_instance_saturation():
    """The heaviest criterion-1 instance, whose Y-elimination dominated.

    The saturation runs at rad(s) and is seeded with the strong basis, so
    it treats no pair inside that basis: 512 / 31 / 27,511 pair
    polynomials and steps became 207 / 22 / 5,233, and pairing no
    redundant element made them 136 / 17 / 3,672."""
    ring_ = ring(("z", "y", "x"), DegRevLex(), ZZ)
    gens = [parse_polynomial(text, ring_)
            for text in ("6y^3+7y", "-4y^3+zy-2x", "6z^2yx+5z^2y-4y^2x")]
    stats = RunStats()
    report = torsion_exponent(gens, stats)
    assert spent(stats) == {"completions": 2, "s_pairs": 258, "g_pairs": 33,
                            "reductions": 5103}
    # every step: 5,103 completing, 47 reducing the two bases and 167
    # finding the 13 multipliers, which draw on the same budget
    assert stats.steps == 5103 + 47 + 167
    assert report.exponent == 2 and len(report.saturation_basis) == 13
    saturation = RunStats()
    torsion.torsion_report(buchberger_z(gens), saturation)
    assert spent(saturation) == {"completions": 1, "s_pairs": 136, "g_pairs": 17,
                                 "reductions": 3672}


KATSURA3_ZZ_PAIRS = 70 + 6  # the pinned pair polynomials of katsura3 over ZZ
KATSURA3_ZZ_STEPS = 1077  # its pinned completion steps, before the basis reduction


def test_pair_budget_counts_only_built_pairs():
    """Pairs skipped by a criterion are free: the pinned count is exactly enough."""
    assert len(buchberger_z(katsura(3, ZZ), RunStats(max_pairs=KATSURA3_ZZ_PAIRS))) == 12
    with pytest.raises(ResourceLimitExceeded):
        buchberger_z(katsura(3, ZZ), RunStats(max_pairs=KATSURA3_ZZ_PAIRS - 1))


def test_one_run_stats_bounds_the_calls_that_share_it():
    """Calls given one ``RunStats`` spend from it together, what each spends
    alone."""
    calls = [lambda limits: buchberger_z(katsura(3, ZZ), limits),
             lambda limits: torsion_exponent(katsura(2, ZZ), limits)]
    alone = []
    for call in calls:
        stats = RunStats()
        call(stats)
        alone.append((stats.pairs, stats.reductions, stats.steps))
    shared = RunStats()
    for call in calls:
        call(shared)
    assert (shared.pairs, shared.reductions, shared.steps) == tuple(map(sum, zip(*alone)))
    assert [pairs for pairs, _, _ in alone] == [KATSURA3_ZZ_PAIRS, 40]
    shared = RunStats(max_pairs=KATSURA3_ZZ_PAIRS)  # enough for either call alone
    calls[0](shared)
    with pytest.raises(ResourceLimitExceeded, match=r"^pair budget exhausted \(76\)"):
        calls[1](shared)


@pytest.mark.parametrize("family, n, p, s_pairs", [
    (cyclic, 4, 32003, 16),
    (cyclic, 4, 2, 16),
    (katsura, 3, 32003, 18),
    (katsura, 3, 2, 11),
], ids=["cyclic4-p32003", "cyclic4-p2", "katsura3-p32003", "katsura3-p2"])
def test_arnold_conditions_work(family, n, p, s_pairs):
    """The verifier completes I mod p only: G is complete over QQ, so it is
    not completed again, and the criteria skip most of its pairs.  S-pairs
    over F_p and the fraction-free ones of the QQ check count alike."""
    i_gens = homogenize_ideal(family(n, ZZ))
    g_set = integer_scaled_basis(i_gens)
    stats = RunStats()
    report = arnold_conditions(i_gens, g_set, p, stats)
    assert (stats.pairs - stats.g_pairs, stats.g_pairs, stats.completions) == (s_pairs, 0, 1)
    assert report.condition2 and report.condition3


def test_arnold_conditions_charge_every_step(monkeypatch):
    """Conditions 1 and 3 reduce against bases outside any completion, and
    those steps draw on the shared ``RunStats`` too: on homogenized cyclic4
    at p = 32003, 52 steps complete and check, and 21 decide 1 and 3.  The
    check reduces by the polys in ascending lead-term order, as completion
    orders its reducers."""
    i_gens = homogenize_ideal(cyclic(4, ZZ))
    g_set = integer_scaled_basis(i_gens)
    reduce = groebner._reduce
    stats = RunStats()
    uncharged = []

    def spying_reduce(f, reducers, step, pseudo=False):
        if step.__self__ is not stats:
            uncharged.append(f)
        return reduce(f, reducers, step, pseudo)

    monkeypatch.setattr(groebner, "_reduce", spying_reduce)
    assert arnold_conditions(i_gens, g_set, 32003, stats).verdict == arnold.VERIFIED
    assert (stats.reductions, stats.steps, uncharged) == (52, 52 + 21, [])
    arnold_conditions(i_gens, g_set, 32003, RunStats(max_reductions=73))
    message = r"^reduction budget exhausted \(72\); raise --max-steps if this is intended$"
    with pytest.raises(ResourceLimitExceeded, match=message):
        arnold_conditions(i_gens, g_set, 32003, RunStats(max_reductions=72))


def test_reduction_budget_bounds_canonicalization():
    """The basis reduction after completion charges the completion's budget:
    katsura3 over ZZ reduces its basis in 12 more steps."""
    with pytest.raises(ResourceLimitExceeded) as err:
        buchberger_z(katsura(3, ZZ), RunStats(max_reductions=KATSURA3_ZZ_STEPS))
    assert any(entry.name == "_canonicalize" for entry in err.traceback)
    limits = RunStats(max_reductions=KATSURA3_ZZ_STEPS + 12)
    assert len(buchberger_z(katsura(3, ZZ), limits)) == 12
    with pytest.raises(ResourceLimitExceeded):
        buchberger_z(katsura(3, ZZ), RunStats(max_reductions=KATSURA3_ZZ_STEPS + 11))


# Criterion-1 prefixes (seed 20260808) whose saturation was the costliest,
# with instance 053 the tail instance above: (variables, generators).
CERTIFY_PREFIXES = {
    "053": ("zyx", ("6y^3+7y", "-4y^3+zy-2x", "6z^2yx+5z^2y-4y^2x")),
    "024": ("zyx", ("z^2y^2+6zy+4x", "-7y^3+2yx", "8zyx^2")),
    "074": ("zyx", ("-7z^2x+5zx-7y", "-8z^3")),
    "119": ("zyx", ("-7z^2yx-4y^2", "-3zyx^2+2y^2x^2+4yx")),
    "166": ("yx", ("9x^3-9yx-7x^2", "-3y^3x", "-5y^2x+8y^2+6y")),
}


@pytest.mark.parametrize("instance, exponent, s_pairs, g_pairs, reductions", [
    ("053", 2, 136, 17, 3672),
    ("024", 296352, 378, 29, 1866),
    ("074", 2744, 176, 20, 508),
    ("119", 16, 111, 11, 639),
    ("166", 108, 50, 6, 107),
], ids=["053", "024", "074", "119", "166"])
def test_certify_saturation_work(instance, exponent, s_pairs, g_pairs, reductions):
    """The saturation in a certificate is seeded with the strong basis and
    runs at rad(s): its pair polynomials and steps are pinned here, so a
    seed that treats its pairs again, or a saturation at s, fails."""
    variables, texts = CERTIFY_PREFIXES[instance]
    ring_ = ring(tuple(variables), DegRevLex(), ZZ)
    basis = buchberger_z([parse_polynomial(text, ring_) for text in texts])
    stats = RunStats()
    report = torsion.torsion_report(basis, stats)
    assert report.exponent == exponent
    assert spent(stats) == {"completions": 1, "s_pairs": s_pairs, "g_pairs": g_pairs,
                            "reductions": reductions}


@pytest.mark.parametrize("k, accepted, completions, s_pairs, g_pairs, reductions", [
    (3, True, 3, 275, 34, 5223),
    (2, False, 1, 18, 3, 53),
], ids=["053", "053-rejected-over-qq"])
def test_certificate_work(k, accepted, completions, s_pairs, g_pairs, reductions):
    """A certificate completes its prefix once, over ZZ, and every later
    stage reads that strong basis.  Prefix 053 completes three times: the
    strong basis, the seeded saturation and the seeded basis mod 2.  Its
    first two generators fail over QQ after the strong basis alone.  The
    oracle answers from the cache a first call filled, so only the
    certificate's own work is counted."""
    variables, texts = CERTIFY_PREFIXES["053"]
    ring_ = ring(tuple(variables), DegRevLex(), ZZ)
    gens = [parse_polynomial(text, ring_) for text in texts]
    oracle = IdealOracle(gens)
    main_lemma_check(oracle, gens[:k])
    stats = RunStats()
    cert = main_lemma_check(oracle, gens[:k], stats)
    assert (cert.q_match, cert.accepted) == (accepted, accepted)
    assert spent(stats) == {"completions": completions, "s_pairs": s_pairs,
                            "g_pairs": g_pairs, "reductions": reductions}
