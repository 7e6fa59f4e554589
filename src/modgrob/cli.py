"""Command-line front end.

Subcommands: gb, torsion, check-lemma, solve-p, arnold-verify.  Exit codes
are 0 for success/acceptance, 1 for a verified mismatch or rejection, and
2 for usage, parse or resource errors.
"""

import argparse
import functools
import sys
from pathlib import Path

from . import formatting
from .arnold import VERIFIED, arnold_conditions
from .errors import ModGrobError, ParseError, ResourceLimitExceeded, StreamExhausted
from .groebner import RunStats, buchberger_field, buchberger_z, gb_mod_m
from .lemma import IdealOracle, main_lemma_check, solve_problem_p
from .parser import parse_domain_text, parse_order_text, parse_problem
from .polyring import (
    ZZ,
    IntegerDomain,
    ModularDomain,
    Polynomial,
    RationalDomain,
    RingDescriptor,
    with_domain,
)
from .torsion import torsion_exponent

USAGE_ERROR = 2
MISMATCH = 1
OK = 0


def _read(path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ModGrobError(f"cannot read {path}: {exc}")
    return parse_problem(text)


def _load(args, command=None, domain=None):
    """The command's problem file and the ring it works in: the file's ring
    with --order applied and, for gb, the chosen domain: ZZ/d with d | m for
    a ZZ/m file, the rings ZZ/m maps to.  A command named here needs ZZ."""
    problem = _read(args.file)
    declared = problem.ring
    if isinstance(declared.domain, ModularDomain) and domain and not (
            isinstance(domain, ModularDomain) and declared.domain.modulus % domain.modulus == 0):
        raise ModGrobError(f"--coeff {domain.name} does not apply to a {declared.domain.name} file")
    ring_ = RingDescriptor(declared.variables, args.order or declared.order,
                           domain or declared.domain)
    if command and not isinstance(ring_.domain, IntegerDomain):
        raise ModGrobError(f"{command} needs a problem over ZZ")
    return problem, ring_


def _retarget(polys, ring_):
    """Rebuild a section's polynomials in the ring the command works in."""
    return [Polynomial.from_terms(ring_, list(f.terms)) for f in polys]


def _ideal(problem, name, ring_):
    """An ideal section (by name, else I, else the first), in ring_."""
    try:
        polys = problem.ideal(name)
    except KeyError as exc:
        raise ModGrobError(exc.args[0]) from None
    return _retarget(polys, ring_)


def _limits(args):
    """The command's one budget, which every call it makes draws on."""
    return RunStats(args.max_pairs, args.max_steps)


def _show(args, value, human, machine):
    print(machine(value) if args.json else human(value))


def _cmd_gb(args):
    problem, ring_ = _load(args, domain=args.coeff)
    limits = _limits(args)
    if isinstance(ring_.domain, ModularDomain):
        # mod-m bases run through the integer engine
        gens = _ideal(problem, args.ideal, with_domain(ring_, ZZ))
        basis = gb_mod_m(gens, ring_.domain.modulus, limits)
    elif isinstance(ring_.domain, RationalDomain):
        basis = buchberger_field(_ideal(problem, args.ideal, ring_), limits, ring=ring_)
    else:
        basis = buchberger_z(_ideal(problem, args.ideal, ring_), limits, ring=ring_)
    _show(args, basis, formatting.format_basis, formatting.machine_basis)
    return OK


def _cmd_torsion(args):
    problem, ring_ = _load(args, "torsion")
    report = torsion_exponent(_ideal(problem, args.ideal, ring_), _limits(args))
    _show(args, report, formatting.format_torsion_report, formatting.machine_torsion_report)
    return OK


def _oracle(args, problem, ring_, limits):
    """The oracle from --oracle (a section or a file), else the file's own."""
    if args.oracle in problem.ideals:
        gens = _ideal(problem, args.oracle, ring_)
    elif args.oracle:
        other = _read(args.oracle)
        if other.ring.variables != ring_.variables or other.ring.domain != ring_.domain:
            raise ModGrobError("oracle file must declare the same variables and domain")
        gens = _ideal(other, None, ring_)
    elif problem.oracle_polys is not None:
        gens = _retarget(problem.oracle_polys, ring_)
    else:
        raise ModGrobError("no oracle: add an oracle section or pass --oracle")
    return IdealOracle(gens, limits)


def _cmd_check_lemma(args):
    problem, ring_ = _load(args, "check-lemma")
    limits = _limits(args)
    oracle = _oracle(args, problem, ring_, limits)
    name = args.ideal or ("J" if "J" in problem.ideals else None)
    cert = main_lemma_check(oracle, _ideal(problem, name, ring_), limits)
    _show(args, cert, formatting.format_certificate, formatting.machine_certificate)
    return OK if cert.accepted else MISMATCH


def _cmd_solve_p(args):
    problem, ring_ = _load(args, "solve-p")
    limits = _limits(args)
    oracle = _oracle(args, problem, ring_, limits)
    if args.stream:
        stream = _ideal(problem, args.stream, ring_)
    elif problem.stream is not None:
        stream = _retarget(problem.stream, ring_)
    else:
        raise ModGrobError("no stream: add a stream section or pass --stream")
    certs = []  # the rejections, then the accepted certificate
    try:
        certs.append(solve_problem_p(stream, oracle, limits, history=certs)[1])
        exhausted = None
    except StreamExhausted as exc:
        exhausted = exc
    machine = functools.partial(formatting.machine_certificate, command="solve-p")
    for cert in certs:
        _show(args, cert, formatting.format_certificate, machine)
    if exhausted is not None:
        print(f"stream exhausted: {exhausted}", file=sys.stderr)
        return MISMATCH
    return OK


def _cmd_arnold_verify(args):
    problem, ring_ = _load(args, "arnold-verify")
    if args.mod is None:
        raise ModGrobError("arnold-verify needs --mod p (the prime)")
    i_gens = _ideal(problem, args.ideal, ring_)
    if "G" not in problem.ideals:
        raise ModGrobError("arnold-verify needs an ideal section named G (the candidate)")
    g_set = _ideal(problem, "G", ring_)
    try:
        report = arnold_conditions(i_gens, g_set, args.mod, _limits(args))
    except ValueError as exc:
        raise ModGrobError(str(exc))
    _show(args, report, formatting.format_arnold_report, formatting.machine_arnold_report)
    return OK if report.verdict == VERIFIED else MISMATCH


def _parsed_by(parse):
    """An argparse type that reads a flag's text with the problem parser."""
    def convert(text):
        try:
            return parse(text)
        except ParseError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


_FLAGS = {
    "--ideal": dict(help="ideal section to use (default: I, else the first)"),
    "--order": dict(type=_parsed_by(parse_order_text),
                    help="override the term order: lp or dp"),
    "--coeff": dict(type=_parsed_by(parse_domain_text),
                    help="override the coefficient domain: ZZ, QQ or ZZ/m"),
    "--mod": dict(type=int, help="the prime p"),
    "--stream": dict(help="ideal section to use as the generator stream"),
    "--oracle": dict(help="ideal section name or problem file for the oracle"),
    "--max-pairs": dict(type=int, dest="max_pairs", default=RunStats().max_pairs,
                        help="pair budget of the whole command, oracle included "
                             "(default %(default)s)"),
    "--max-steps": dict(type=int, dest="max_steps", default=RunStats().max_reductions,
                        help="reduction-step budget of the whole command (default %(default)s)"),
    "--json": dict(action="store_true", help="line-oriented machine-readable output"),
}

# name, handler, help and the flags the command reads
_COMMANDS = [
    ("gb", _cmd_gb, "compute the reduced (strong) Groebner basis",
     ("--ideal", "--order", "--coeff")),
    ("torsion", _cmd_torsion, "torsion exponent of ZZ[X]/J with multipliers",
     ("--ideal", "--order")),
    ("check-lemma", _cmd_check_lemma,
     "certify a prefix ideal J against the oracle's ideal I; assumes J is contained in I",
     ("--ideal", "--order", "--oracle")),
    ("solve-p", _cmd_solve_p, "walk the stream until a prefix is certified; "
     "assumes every stream element lies in the oracle's ideal",
     ("--order", "--stream", "--oracle")),
    ("arnold-verify", _cmd_arnold_verify, "check E. Arnold's four modular conditions",
     ("--ideal", "--order", "--mod")),
]


@functools.lru_cache(maxsize=None)
def build_arg_parser():
    parser = argparse.ArgumentParser(
        prog="modgrob",
        description="Groebner bases over ZZ, QQ and ZZ/m with modular verification")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, handler, doc, flags in _COMMANDS:
        sub = subs.add_parser(name, help=doc, description=doc)
        sub.add_argument("file", help="problem file")
        for flag in flags + ("--max-pairs", "--max-steps", "--json"):
            sub.add_argument(flag, **_FLAGS[flag])
        sub.set_defaults(handler=handler)
    return parser


def main(argv=None):
    args = build_arg_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ModGrobError as exc:
        kind = ("parse error" if isinstance(exc, ParseError)
                else "resource limit" if isinstance(exc, ResourceLimitExceeded) else "error")
        print(f"{kind}: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
