"""Canonical text output: bases, torsion reports, certificates.

Two formats per result: a human-readable block and a line-oriented
machine format.  The machine format starts with the versioned header
``modgrob-machine 1`` followed by ``key=value`` lines in a fixed key
order, so results stay diffable without a structured-data reader.
"""

from .polyring import poly_to_string

MACHINE_HEADER = "modgrob-machine 1"


def format_basis(basis):
    """One polynomial per line, smallest leading monomial first.

    The zero ideal prints the single sentinel line ``0``.
    """
    if not basis.elements:
        return "0"
    return "\n".join(poly_to_string(g) for g in reversed(basis.elements))


def _basis_inline(basis):
    if not basis.elements:
        return "0"
    return ",".join(poly_to_string(g) for g in reversed(basis.elements))


def _factorization_inline(factors):
    if not factors:
        return "1"
    return "*".join(f"{p}^{a}" for p, a in factors)


# ---------------------------------------------------------------------------
# torsion

def format_torsion_report(report):
    lines = [f"m = {report.exponent}"]
    if report.multipliers:
        lines.append("multipliers:")
        for g, m_g in report.multipliers:
            lines.append(f"  {poly_to_string(g)}: {m_g}")
    else:
        lines.append("multipliers: none (zero ideal)")
    return "\n".join(lines)


def machine_torsion_report(report):
    lines = [MACHINE_HEADER, "command=torsion", f"m={report.exponent}",
             f"generators={len(report.multipliers)}"]
    for i, (g, m_g) in enumerate(report.multipliers):
        lines.append(f"generator_{i}={poly_to_string(g)}")
        lines.append(f"multiplier_{i}={m_g}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# lemma certificates

def format_certificate(cert):
    lines = [f"prefix k = {cert.prefix_length}: "
             + ("accepted" if cert.accepted else "rejected")]
    lines.append(f"  rational bases match: {'yes' if cert.q_match else 'no'}")
    if cert.exponent is not None:
        lines.append(f"  torsion exponent m = {cert.exponent}"
                     f" = {_factorization_inline(cert.factorization)}")
        for m_i, ok in cert.modulus_verdicts:
            lines.append(f"  mod {m_i}: {'match' if ok else 'MISMATCH'}")
    for witness in cert.mismatches:
        lines.append(f"  witness ({witness.stage}):")
        lines.append(f"    oracle basis:    {_basis_inline(witness.oracle_basis)}")
        lines.append(f"    candidate basis: {_basis_inline(witness.candidate_basis)}")
    if cert.basis is not None:
        lines.append("  basis:")
        lines.extend("    " + line for line in format_basis(cert.basis).splitlines())
    return "\n".join(lines)


def machine_certificate(cert, command="check-lemma"):
    lines = [MACHINE_HEADER,
             f"command={command}",
             f"k={cert.prefix_length}",
             f"accepted={'true' if cert.accepted else 'false'}",
             f"q_match={'true' if cert.q_match else 'false'}"]
    if cert.exponent is not None:
        lines.append(f"m={cert.exponent}")
        lines.append(f"m_factors={_factorization_inline(cert.factorization)}")
        for m_i, ok in cert.modulus_verdicts:
            lines.append(f"mod_{m_i}_match={'true' if ok else 'false'}")
    for i, witness in enumerate(cert.mismatches):
        lines.append(f"mismatch_{i}_stage={witness.stage}")
        lines.append(f"mismatch_{i}_oracle={_basis_inline(witness.oracle_basis)}")
        lines.append(f"mismatch_{i}_candidate={_basis_inline(witness.candidate_basis)}")
    if cert.basis is not None:
        lines.append(f"basis={_basis_inline(cert.basis)}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Arnold reports

def format_arnold_report(report):
    lines = [f"prime p = {report.prime}"]
    for i, ok in enumerate(report.conditions, start=1):
        lines.append(f"  condition ({i}): {'holds' if ok else 'FAILS'}")
    lines.append(f"  homogeneous input: {'yes' if report.homogeneous_input else 'no'}")
    verdict = report.verdict
    if report.failed_conditions:
        verdict += "(" + ",".join(str(i) for i in report.failed_conditions) + ")"
    lines.append(f"verdict: {verdict}")
    return "\n".join(lines)


def machine_arnold_report(report):
    lines = [MACHINE_HEADER, "command=arnold-verify", f"prime={report.prime}"]
    for i, ok in enumerate(report.conditions, start=1):
        lines.append(f"condition_{i}={'true' if ok else 'false'}")
    lines.append(f"homogeneous={'true' if report.homogeneous_input else 'false'}")
    lines.append(f"verdict={report.verdict}")
    if report.failed_conditions:
        lines.append("failed=" + ",".join(str(i) for i in report.failed_conditions))
    return "\n".join(lines)


def machine_basis(basis):
    return "\n".join([MACHINE_HEADER, "command=gb", f"basis={_basis_inline(basis)}"])
