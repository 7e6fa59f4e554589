"""Command-line front end.

Subcommands: gb, torsion, check-lemma, solve-p, arnold-verify.  Exit codes
are 0 for success/acceptance, 1 for a verified mismatch or rejection, and
2 for usage, parse or resource errors.
"""

import argparse
import sys
from pathlib import Path

from . import formatting
from .arnold import VERIFIED, arnold_conditions
from .errors import ModGrobError, ParseError, ResourceLimitExceeded, StreamExhausted
from .groebner import Limits, buchberger_field, buchberger_z, gb_mod_m
from .lemma import GeneratorStream, IdealOracle, main_lemma_check, solve_problem_p
from .parser import ProblemFile, parse_problem
from .polyring import (
    QQ,
    ZZ,
    DegRevLex,
    IntegerDomain,
    Lex,
    ModularDomain,
    Polynomial,
    RationalDomain,
    RingDescriptor,
)
from .torsion import torsion_exponent

USAGE_ERROR = 2
MISMATCH = 1
OK = 0


class _UsageError(Exception):
    pass


def _parse_domain_flag(text):
    if text == "ZZ":
        return ZZ
    if text == "QQ":
        return QQ
    if text.startswith("ZZ/"):
        try:
            m = int(text[3:])
        except ValueError:
            raise _UsageError(f"bad modulus in --coeff {text!r}")
        if m < 2:
            raise _UsageError("modulus must be >= 2")
        return ModularDomain(m)
    raise _UsageError(f"unknown coefficient domain {text!r} (ZZ, QQ or ZZ/m)")


def _parse_order_flag(text):
    if text == "lp":
        return Lex()
    if text == "dp":
        return DegRevLex()
    raise _UsageError(f"unknown order {text!r} (lp or dp)")


def _load_problem(path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise _UsageError(f"cannot read {path}: {exc}")
    return parse_problem(text)


def _retarget(polys, new_ring):
    """Rebuild polynomials in a ring with a different order or domain."""
    return [Polynomial.from_terms(new_ring, list(f.terms)) for f in polys]


def _limits(args):
    if getattr(args, "max_pairs", None) is not None:
        return Limits(max_pairs=args.max_pairs)
    return Limits.from_environment()


def _with_order_override(problem, args):
    """Apply --order by rebuilding every section in the re-ordered ring."""
    if not getattr(args, "order", None):
        return problem
    order = _parse_order_flag(args.order)
    ring_ = RingDescriptor(problem.ring.variables, order, problem.ring.domain)

    def conv(polys):
        return tuple(_retarget(list(polys), ring_)) if polys is not None else None

    return ProblemFile(ring=ring_,
                       ideals={k: conv(v) for k, v in problem.ideals.items()},
                       stream=conv(problem.stream),
                       oracle_polys=conv(problem.oracle_polys),
                       oracle_path=problem.oracle_path)


def _load_zz_problem(args, command):
    """The problem file of a command that works over ZZ, with --order applied."""
    if args.coeff and args.coeff != "ZZ":
        raise _UsageError(f"{command} works over ZZ; --coeff {args.coeff} is not applicable")
    if command != "arnold-verify" and args.mod:
        raise _UsageError(f"{command} works over ZZ; --mod is not applicable")
    problem = _with_order_override(_load_problem(args.file), args)
    if not isinstance(problem.ring.domain, IntegerDomain):
        raise _UsageError(f"{command} needs a problem over ZZ")
    return problem


def _cmd_gb(args):
    problem = _load_problem(args.file)
    ring_ = problem.ring
    order = _parse_order_flag(args.order) if args.order else ring_.order
    domain = ring_.domain
    if args.coeff:
        domain = _parse_domain_flag(args.coeff)
    if args.mod:
        domain = ModularDomain(args.mod)
    limits = _limits(args)
    gens = list(problem.ideal(args.ideal))
    if isinstance(domain, ModularDomain):
        # mod-m bases run through the integer engine
        ring_z = RingDescriptor(ring_.variables, order, ZZ)
        basis = gb_mod_m(_retarget(gens, ring_z), domain.modulus, limits)
    else:
        target = RingDescriptor(ring_.variables, order, domain)
        gens = _retarget(gens, target)
        if isinstance(domain, RationalDomain):
            basis = buchberger_field(gens, limits, ring=target)
        else:
            basis = buchberger_z(gens, limits, ring=target)
    if args.json:
        print(formatting.machine_basis(basis))
    else:
        print(formatting.format_basis(basis))
    return OK


def _cmd_torsion(args):
    problem = _load_zz_problem(args, "torsion")
    gens = list(problem.ideal(args.ideal))
    report = torsion_exponent(gens, _limits(args))
    if args.json:
        print(formatting.machine_torsion_report(report))
    else:
        print(formatting.format_torsion_report(report))
    return OK


def _build_oracle(problem, args, limits):
    def from_file(path):
        other = _load_problem(path)
        if (other.ring.variables != problem.ring.variables
                or other.ring.domain != problem.ring.domain):
            raise _UsageError("oracle file must declare the same variables and domain")
        return IdealOracle(_retarget(list(other.ideal()), problem.ring), limits)

    if getattr(args, "oracle", None):
        if args.oracle in problem.ideals:
            return IdealOracle(list(problem.ideals[args.oracle]), limits)
        return from_file(args.oracle)
    if problem.oracle_polys is not None:
        return IdealOracle(list(problem.oracle_polys), limits)
    if problem.oracle_path is not None:
        return from_file(str(Path(args.file).parent / problem.oracle_path))
    raise _UsageError("no oracle: add an oracle section or pass --oracle")


def _cmd_check_lemma(args):
    problem = _load_zz_problem(args, "check-lemma")
    limits = _limits(args)
    oracle = _build_oracle(problem, args, limits)
    name = args.ideal if args.ideal else ("J" if "J" in problem.ideals else None)
    j_gens = list(problem.ideal(name))
    cert = main_lemma_check(oracle, j_gens, limits)
    if args.json:
        print(formatting.machine_certificate(cert))
    else:
        print(formatting.format_certificate(cert))
    return OK if cert.accepted else MISMATCH


def _cmd_solve_p(args):
    problem = _load_zz_problem(args, "solve-p")
    limits = _limits(args)
    oracle = _build_oracle(problem, args, limits)
    if args.stream:
        if args.stream not in problem.ideals:
            raise _UsageError(f"no ideal section named {args.stream!r} for --stream")
        items = list(problem.ideals[args.stream])
    elif problem.stream is not None:
        items = list(problem.stream)
    else:
        raise _UsageError("no stream: add a stream section or pass --stream")
    stream = GeneratorStream(items)
    history = []
    try:
        basis, cert = solve_problem_p(stream, oracle, limits, history=history)
    except StreamExhausted as exc:
        for rejected in exc.certificates:
            print(formatting.machine_certificate(rejected, command="solve-p")
                  if args.json else formatting.format_certificate(rejected))
        print(f"stream exhausted: {exc}", file=sys.stderr)
        return MISMATCH
    for rejected in history:
        print(formatting.machine_certificate(rejected, command="solve-p")
              if args.json else formatting.format_certificate(rejected))
    if args.json:
        print(formatting.machine_certificate(cert, command="solve-p"))
    else:
        print(formatting.format_certificate(cert))
    return OK


def _cmd_arnold_verify(args):
    problem = _load_zz_problem(args, "arnold-verify")
    if not args.mod:
        raise _UsageError("arnold-verify needs --mod p (the prime)")
    i_gens = list(problem.ideal(args.ideal))
    if "G" not in problem.ideals:
        raise _UsageError("arnold-verify needs an ideal section named G (the candidate)")
    g_set = list(problem.ideals["G"])
    try:
        report = arnold_conditions(i_gens, g_set, args.mod, _limits(args))
    except ValueError as exc:
        raise _UsageError(str(exc))
    if args.json:
        print(formatting.machine_arnold_report(report))
    else:
        print(formatting.format_arnold_report(report))
    return OK if report.verdict == VERIFIED else MISMATCH


def _add_common_flags(sub):
    sub.add_argument("file", help="problem file")
    sub.add_argument("--ideal", help="ideal section to use (default: I, else the first)")
    sub.add_argument("--order", help="override the term order: lp or dp")
    sub.add_argument("--coeff", help="override the coefficient domain: ZZ, QQ or ZZ/m")
    sub.add_argument("--mod", type=int, help="shorthand for --coeff ZZ/m; the prime for arnold-verify")
    sub.add_argument("--stream", help="ideal section to use as the generator stream")
    sub.add_argument("--oracle", help="ideal section name or problem file for the oracle")
    sub.add_argument("--max-pairs", type=int, dest="max_pairs",
                     help="completion pair budget (also MODGROB_MAX_PAIRS)")
    sub.add_argument("--json", action="store_true",
                     help="line-oriented machine-readable output")


def build_arg_parser():
    parser = argparse.ArgumentParser(
        prog="modgrob",
        description="Groebner bases over ZZ, QQ and ZZ/m with modular verification")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, fn, doc in [
        ("gb", _cmd_gb, "compute the reduced (strong) Groebner basis"),
        ("torsion", _cmd_torsion, "torsion exponent of ZZ[X]/J with multipliers"),
        ("check-lemma", _cmd_check_lemma, "certify a prefix ideal against the oracle"),
        ("solve-p", _cmd_solve_p, "walk the stream until a prefix is certified"),
        ("arnold-verify", _cmd_arnold_verify, "check E. Arnold's four modular conditions"),
    ]:
        sub = subs.add_parser(name, help=doc)
        _add_common_flags(sub)
        sub.set_defaults(handler=fn)
    return parser


def main(argv=None):
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except ResourceLimitExceeded as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except ModGrobError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
