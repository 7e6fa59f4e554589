"""Inputs and requests of the three benchmark workloads.

Every workload is a fixed list of requests.  A request is a call into
modgrob's public API (or ``modgrob.cli.main``) whose result is rendered to
canonical text and compared byte for byte with the reference in
``refs.json``.  The inputs are fixed so that the references apply; the
benchmark's ``--seed`` only fixes the order in which a pass sends them.

- completion: reduced bases of katsura-n and cyclic-n over QQ, F_32003, ZZ
  and composite ZZ/m.  groebner and polyring do nearly all the work.
- certify: the 200-instance criterion-1 set (seed 20260808):
  ``IdealOracle`` plus ``main_lemma_check`` on a random prefix over ZZ.
  lemma and torsion do most of the work; the load is heavy-tailed.
- cli: ``modgrob.cli.main`` on problem files the benchmark writes:
  arnold-verify, solve-p on random streams and the corpus commands.
"""

import contextlib
import importlib
import io
import random
import sys
from pathlib import Path

CERTIFY_SEED = 20260808
SOLVE_P_SEED = 20260808
SOLVE_P_STREAMS = 72
FIELD_PRIME = 32003
COMPOSITE_MODULI = (4, 6, 8, 9, 10, 12, 14, 15, 16, 18, 20, 21, 22, 24, 25,
                    26, 27, 28, 30, 33, 36)
LETTERS = "abcdefg"

# (family, n) per domain.  katsura4 and cyclic5 over ZZ take about 50 s
# each and cyclic5 over ZZ/m about 10 s, too long to repeat in a run.
FIELD_PROBLEMS = (("katsura", 2), ("katsura", 3), ("katsura", 4),
                  ("katsura", 5), ("cyclic", 3), ("cyclic", 4), ("cyclic", 5))
QQ_PROBLEMS = tuple(p for p in FIELD_PROBLEMS if p != ("katsura", 5))
ZZ_PROBLEMS = (("katsura", 2), ("katsura", 3), ("cyclic", 3), ("cyclic", 4))

ARNOLD_PROBLEMS = (("katsura", 3), ("katsura", 4), ("cyclic", 4), ("cyclic", 5))
ARNOLD_PRIMES = (FIELD_PRIME, 2)

# The commands of scripts/run_corpus.py, on copies of the corpus files
# kept in perfbench/corpus so that the requests never change.
CORPUS_RUNS = (
    ("gb", "chain_dp.mg", ()),
    ("gb", "chain_dp.mg", ("--coeff", "ZZ/9")),
    ("gb", "chain_z9_dp.mg", ()),
    ("gb", "chain_z9_lp.mg", ()),
    ("gb", "pair_a.mg", ()),
    ("gb", "pair_a.mg", ("--coeff", "ZZ/9")),
    ("gb", "pair_a.mg", ("--coeff", "ZZ/27")),
    ("gb", "pair_a.mg", ("--coeff", "ZZ/81")),
    ("gb", "pair_a.mg", ("--coeff", "QQ")),
    ("gb", "pair_b.mg", ()),
    ("gb", "pair_b.mg", ("--coeff", "ZZ/9")),
    ("gb", "pair_b.mg", ("--coeff", "ZZ/27")),
    ("gb", "pair_b.mg", ("--coeff", "ZZ/81")),
    ("gb", "pair_b.mg", ("--coeff", "QQ")),
    ("gb", "mixed.mg", ()),
    ("gb", "mixed_zz.mg", ("--coeff", "ZZ/2")),
    ("gb", "mixed_zz.mg", ("--coeff", "ZZ/5")),
    ("torsion", "chain_dp.mg", ()),
    ("arnold-verify", "arnold_counterexample.mg", ("--mod", "2")),
    ("arnold-verify", "arnold_homogenized.mg", ("--mod", "2")),
    ("solve-p", "solve_p_demo.mg", ()),
)
CORPUS_DIR = Path(__file__).resolve().parent / "corpus"


class SetupError(Exception):
    pass


def import_modgrob(root):
    """Import modgrob and modgrob.cli afresh from ``root/src``.

    Any copy imported before is dropped first, so that every call pays the
    whole import.  Raises SetupError when the checkout has no modgrob.
    """
    src = (Path(root) / "src").resolve()
    if not (src / "modgrob" / "__init__.py").is_file():
        raise SetupError(f"no modgrob package under {src}")
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "modgrob" or n.startswith("modgrob.")]:
        del sys.modules[name]
    mg = importlib.import_module("modgrob")
    if src not in Path(mg.__file__).resolve().parents:
        raise SetupError(f"modgrob was imported from {mg.__file__}, not from {src}")
    return mg, importlib.import_module("modgrob.cli")


class Request:
    """One call of a workload.

    ``call()`` does the work and is the only part that is timed.
    ``render(result)`` gives the canonical text compared with the reference;
    ``verify(result)`` returns an error message or None for checks that
    hold whatever the reference says.
    """

    __slots__ = ("name", "call", "render", "verify")

    def __init__(self, name, call, render, verify=None):
        self.name = name
        self.call = call
        self.render = render
        self.verify = verify


# ---------------------------------------------------------------------------
# generated families

def _poly(mg, ring_, terms):
    merged = {}
    for c, mono in terms:
        merged[mono] = merged.get(mono, 0) + c
    return mg.Polynomial.from_terms(ring_, [(c, m) for m, c in merged.items()])


def katsura(mg, n, domain):
    """katsura-n in n+1 variables: sum_j u_j u_{m-j} = u_m (m < n), sum_j u_j = 1."""
    nv = n + 1
    ring_ = mg.ring(tuple(LETTERS[:nv]), mg.DegRevLex(), domain)

    def unit(*idx):
        e = [0] * nv
        for i in idx:
            e[i] += 1
        return tuple(e)

    def index(j):
        return abs(j) if abs(j) < nv else None

    gens = []
    for m in range(n):
        terms = []
        for j in range(-n, n + 1):
            a, b = index(j), index(m - j)
            if a is not None and b is not None:
                terms.append((1, unit(a, b)))
        terms.append((-1, unit(m)))
        gens.append(_poly(mg, ring_, terms))
    terms = [(1, unit(index(j))) for j in range(-n, n + 1) if index(j) is not None]
    terms.append((-1, unit()))
    gens.append(_poly(mg, ring_, terms))
    return gens


def cyclic(mg, n, domain):
    """cyclic-n: the elementary cyclic sums of degree 1..n-1 and x_1..x_n - 1."""
    ring_ = mg.ring(tuple(LETTERS[:n]), mg.DegRevLex(), domain)
    gens = []
    for d in range(1, n):
        terms = []
        for i in range(n):
            e = [0] * n
            for k in range(d):
                e[(i + k) % n] += 1
            terms.append((1, tuple(e)))
        gens.append(_poly(mg, ring_, terms))
    gens.append(_poly(mg, ring_, [(1, (1,) * n), (-1, (0,) * n)]))
    return gens


FAMILIES = {"katsura": katsura, "cyclic": cyclic}


def render_basis(basis):
    return "\n".join(str(g) for g in basis.elements)


def completion_requests(mg):
    def field(gens):
        return lambda: mg.buchberger_field(gens)

    def integer(gens):
        return lambda: mg.buchberger_z(gens)

    def modular(gens, m):
        return lambda: mg.gb_mod_m(gens, m)

    out = []
    fp = mg.ModularDomain(FIELD_PRIME)
    for fam, n in QQ_PROBLEMS:
        out.append(Request(f"{fam}{n}/QQ", field(FAMILIES[fam](mg, n, mg.QQ)),
                           render_basis))
    for fam, n in FIELD_PROBLEMS:
        out.append(Request(f"{fam}{n}/F{FIELD_PRIME}", field(FAMILIES[fam](mg, n, fp)),
                           render_basis))
    for fam, n in ZZ_PROBLEMS:
        gens = FAMILIES[fam](mg, n, mg.ZZ)
        out.append(Request(f"{fam}{n}/ZZ", integer(gens), render_basis))
        for m in COMPOSITE_MODULI:
            out.append(Request(f"{fam}{n}/ZZ{m}", modular(gens, m), render_basis))
    return out


# ---------------------------------------------------------------------------
# criterion-1 instances and solve-p streams

def random_poly(mg, rng, ring_, max_terms=3, max_degree=4, max_coeff=9):
    """The random polynomial of the criterion-1 acceptance test."""
    n = ring_.arity
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        degree = rng.randint(0, max_degree)
        mono = [0] * n
        for _ in range(degree):
            mono[rng.randrange(n)] += 1
        coeff = rng.choice([c for c in range(-max_coeff, max_coeff + 1) if c])
        terms.append((coeff, tuple(mono)))
    return mg.Polynomial.from_terms(ring_, terms)


def certify_instances(mg, count=200, seed=CERTIFY_SEED):
    """(generators, prefix) pairs drawn exactly as criterion 1 draws them."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(1, 3)
        ring_ = mg.ring(("z", "y", "x")[3 - n:], mg.DegRevLex(), mg.ZZ)
        n_gens = rng.randint(2, 3)
        gens = [random_poly(mg, rng, ring_) for _ in range(n_gens)]
        if all(g.is_zero for g in gens):
            continue
        out.append((gens, gens[:rng.randint(1, n_gens)]))
    return out


def render_certificate(cert):
    lines = [f"k={cert.prefix_length} accepted={cert.accepted} q_match={cert.q_match}",
             f"exponent={cert.exponent} factors={cert.factorization}",
             f"verdicts={cert.modulus_verdicts}"]
    for w in cert.mismatches:
        lines.append(f"mismatch {w.stage}: "
                     + ",".join(map(str, w.oracle_basis.elements)) + " | "
                     + ",".join(map(str, w.candidate_basis.elements)))
    if cert.basis is not None:
        lines.append("basis=" + ",".join(map(str, cert.basis.elements)))
    return "\n".join(lines)


def certify_requests(mg):
    def call(gens, prefix):
        return lambda: mg.main_lemma_check(mg.IdealOracle(gens), prefix)

    def sound(gens):
        def verify(cert):
            if cert.accepted and not all(
                    mg.normal_form(g, cert.basis).is_zero for g in gens):
                return "accepted basis misses a generator"
            return None
        return verify

    return [Request(f"criterion1/{i:03d}", call(gens, prefix), render_certificate,
                    sound(gens))
            for i, (gens, prefix) in enumerate(certify_instances(mg))]


def solve_p_streams(mg, count=SOLVE_P_STREAMS, seed=SOLVE_P_SEED):
    """Random streams of 3-4 generators over ZZ in (y, x), degrevlex."""
    rng = random.Random(seed)
    ring_ = mg.ring(("y", "x"), mg.DegRevLex(), mg.ZZ)
    out = []
    while len(out) < count:
        gens = [random_poly(mg, rng, ring_, max_degree=3)
                for _ in range(rng.randint(3, 4))]
        if any(g.is_zero for g in gens):
            continue
        out.append(gens)
    return out


# ---------------------------------------------------------------------------
# cli problem files

def arnold_ideal(mg, fam, n):
    return mg.homogenize_ideal(FAMILIES[fam](mg, n, mg.ZZ))


def write_cli_files(mg, work, arnold_g):
    """Write every problem file of the cli workload; return the argv lists.

    ``arnold_g`` maps "katsura3" etc. to the integer-scaled reduced QQ
    basis of the homogenized ideal, as polynomial strings (from refs.json).
    """
    work.mkdir(parents=True, exist_ok=True)
    argvs = []
    for fam, n in ARNOLD_PROBLEMS:
        gens = arnold_ideal(mg, fam, n)
        r = gens[0].ring
        text = (f"ring r = ZZ, ({', '.join(r.variables)}), dp;\n"
                f"ideal I = {', '.join(map(str, gens))};\n"
                f"ideal G = {', '.join(arnold_g[f'{fam}{n}'])};\n")
        path = work / f"arnold_{fam}{n}.mg"
        path.write_text(text, encoding="utf-8")
        for p in ARNOLD_PRIMES:
            argvs.append((f"arnold/{fam}{n}/p{p}",
                          ["arnold-verify", str(path), "--mod", str(p)]))
    for i, gens in enumerate(solve_p_streams(mg)):
        body = ", ".join(map(str, gens))
        path = work / f"stream_{i:02d}.mg"
        path.write_text(f"ring r = ZZ, (y, x), dp;\nstream = {body};\n"
                        f"oracle = {body};\n", encoding="utf-8")
        argvs.append((f"solve-p/{i:02d}", ["solve-p", str(path)]))
    for name in sorted({name for _, name, _ in CORPUS_RUNS}):
        (work / name).write_bytes((CORPUS_DIR / name).read_bytes())
    for i, (command, name, extra) in enumerate(CORPUS_RUNS):
        argvs.append((f"corpus/{i:02d}-{command}-{name}",
                      [command, str(work / name), *extra]))
    return argvs


def cli_requests(cli, argvs, work):
    def call(argv):
        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            return code, out.getvalue(), err.getvalue()
        return run

    prefix = str(work) + "/"

    def render(result):
        code, out, err = result
        # Paths of the work directory differ between checkouts.
        return f"exit={code}\n{out}--stderr--\n{err}".replace(prefix, "")

    return [Request(name, call(argv), render) for name, argv in argvs]


WORKLOADS = ("completion", "certify", "cli")


def build(workload, mg, cli, work, arnold_g):
    """The request list of one workload; the cli workload writes its files."""
    if workload == "completion":
        return completion_requests(mg)
    if workload == "certify":
        return certify_requests(mg)
    return cli_requests(cli, write_cli_files(mg, work, arnold_g), work)
