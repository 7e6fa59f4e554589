#!/usr/bin/env python3
"""Write perfbench/refs.json: the reference output of every request.

Usage, from the root of a checkout:  python3 perfbench/make_refs.py

The references are the output bytes of the modgrob in ``src/`` at the time
they are made; the benchmark then counts any other output as a failure.
Before writing, the outputs are cross-checked against the naive
implementations in ``tests/oracle.py`` wherever those finish within
ORACLE_SECONDS: the bases of the completion workload, and the strong basis
attached to each accepted certificate of the certify workload.  Which
requests were cross-checked is recorded in the file.
"""

import json
import math
import re
import signal
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads as W  # noqa: E402

ORACLE_SECONDS = 20


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout


def within(seconds, fn):
    """fn() or None when it takes longer than ``seconds``."""
    signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn()
    except _Timeout:
        return None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def import_oracle(root):
    sys.path.insert(0, str(Path(root) / "tests"))
    import oracle
    return oracle


def arnold_bases(mg):
    """Integer-scaled reduced QQ basis of each homogenized arnold problem."""
    out = {}
    for fam, n in W.ARNOLD_PROBLEMS:
        ideal = W.arnold_ideal(mg, fam, n)
        zring = ideal[0].ring
        qring = mg.ring(zring.variables, zring.order, mg.QQ)
        basis = mg.buchberger_field([mg.change_domain(f, mg.QQ) for f in ideal], ring=qring)
        lines = []
        for g in basis.elements:
            scale = math.lcm(*(Fraction(c).denominator for c, _ in g.terms))
            lines.append(str(mg.Polynomial.from_terms(
                zring, [(int(c * scale), m) for c, m in g.terms])))
        out[f"{fam}{n}"] = lines
    return out


def naive_completion(mg, O, name):
    """The naive basis for a completion request name such as cyclic4/ZZ12."""
    fam, n, dom = re.fullmatch(r"([a-z]+)(\d+)/(\w+)", name).groups()
    gens = [O.from_pkg(g) for g in W.FAMILIES[fam](mg, int(n), mg.ZZ)]
    key = O.key_degrevlex
    if dom == "QQ":
        return O.field_buchberger([{m: Fraction(c) for m, c in g.items()} for g in gens],
                                  key, O.q_inv)
    if dom.startswith("F"):
        p = int(dom[1:])
        return O.field_buchberger(gens, key, O.fp_inv_maker(p), O.fp_post_maker(p))
    if dom == "ZZ":
        return O.z_strong_buchberger(gens, key)
    return O.zm_basis(gens, int(dom[2:]), key)


def cross_check(mg, O, workload, requests, results):
    """Names of the requests the naive implementations agree on; raises on
    disagreement."""
    checked = []
    instances = W.certify_instances(mg) if workload == "certify" else None
    for i, req in enumerate(requests):
        result = results[req.name]
        if workload == "completion":
            theirs = within(ORACLE_SECONDS, lambda: naive_completion(mg, O, req.name))
        elif workload == "certify" and result.accepted:
            prefix = [O.from_pkg(g) for g in instances[i][1]]
            theirs = within(ORACLE_SECONDS,
                            lambda: O.z_strong_buchberger(prefix, O.key_degrevlex))
            result = result.basis
        else:
            continue
        if theirs is None:
            continue
        if [O.from_pkg(g) for g in result.elements] != theirs:
            raise SystemExit(f"{req.name}: modgrob and tests/oracle.py disagree")
        checked.append(req.name)
    return checked


def main():
    root = Path.cwd()
    mg, cli = W.import_modgrob(root)
    O = import_oracle(root)
    refs = {"arnold_g": arnold_bases(mg), "oracle_checked": {}}
    try:
        for workload in W.WORKLOADS:
            requests = W.build(workload, mg, cli, run.WORK, refs["arnold_g"])
            results, texts = {}, {}
            for req in requests:
                result = req.call()
                if req.verify is not None and (msg := req.verify(result)):
                    raise SystemExit(f"{req.name}: {msg}")
                results[req.name] = result
                texts[req.name] = req.render(result)
            refs[workload] = texts
            refs["oracle_checked"][workload] = cross_check(mg, O, workload, requests,
                                                           results)
            print(f"{workload}: {len(texts)} references, "
                  f"{len(refs['oracle_checked'][workload])} cross-checked", flush=True)
    finally:
        run.remove_work()
    with open(run.REFS, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
