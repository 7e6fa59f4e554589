"""Spans around modgrob's public functions, and the per-layer metrics.

The tracer rebinds each wrap target, a public function of one module of
``src/modgrob``, in every loaded modgrob module that holds it, so calls
between modules go through the wrapper too.  A wrapper records a span
(name, parent span, start, end) and the ring arity and size of what it
returns.  The monomial and pair helpers get counting wrappers instead.
Spans stay in memory; the metrics are computed from them when the traced
pass ends.  Self time is a span's duration minus that of its children.

A target that a later commit renamed or moved is recorded as missing; every
metric that needs it is then reported with the value None.
"""

import sys
import time
from fractions import Fraction
from functools import partial

# layer -> public functions that get a span ("Class.method" for methods)
SPAN_TARGETS = {
    "groebner": ("buchberger_field", "buchberger_z", "gb_mod_m", "is_groebner_basis",
                 "canonical_basis", "normal_form", "divide_with_cofactors",
                 "ideal_member", "gb_equal"),
    "torsion": ("torsion_exponent", "saturation_contraction", "minimal_multiplier"),
    "lemma": ("main_lemma_check", "solve_problem_p",
              "IdealOracle.basis_over_q", "IdealOracle.basis_mod"),
    "arnold": ("arnold_conditions", "homogenize_ideal"),
    "intarith": ("ext_gcd", "lcm_many", "crt_coefficients", "is_prime", "factorize"),
    "parser": ("parse_problem", "parse_polynomial"),
    "formatting": ("format_polynomial", "format_basis", "format_torsion_report",
                   "machine_torsion_report", "format_certificate", "machine_certificate",
                   "format_arnold_report", "machine_arnold_report", "machine_basis"),
    "cli": ("main",),
}
# (module, function) -> counter; counted where the module calls them
PAIR_TARGETS = {
    ("groebner", "s_polynomial_field"): "s",
    ("groebner", "s_pair_z"): "s",
    ("groebner", "g_pair_z"): "g",
}
CALL_COUNTERS = {
    ("groebner", "monomial_divides"): "polyring.divides_calls",
    ("groebner", "monomial_mul"): "polyring.mul_calls",
}
COMPLETIONS = ("groebner.buchberger_field", "groebner.buchberger_z")
CHECK_SPAN = "groebner.is_groebner_basis"
TORSION_PARENTS = ("torsion.torsion_exponent", "torsion.saturation_contraction")
ORACLE_SPANS = ("lemma.IdealOracle.basis_over_q", "lemma.IdealOracle.basis_mod")


class Span:
    __slots__ = ("name", "parent", "start", "end", "arity", "basis_len",
                 "coeff_bits", "s_pairs", "g_pairs", "check_pairs")

    def __init__(self, name, parent, start=0.0, end=0.0):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = end
        self.arity = None
        self.basis_len = 0
        self.coeff_bits = 0
        self.s_pairs = self.g_pairs = self.check_pairs = 0

    @property
    def duration(self):
        return self.end - self.start

    @property
    def layer(self):
        return self.name.split(".", 1)[0]


def self_times(spans):
    """Map each span to its duration minus the durations of its children.

    Calls nest in one thread, so children never overlap each other."""
    child = {id(s): 0.0 for s in spans}
    for s in spans:
        if s.parent is not None and id(s.parent) in child:
            child[id(s.parent)] += s.duration
    return {id(s): s.duration - child[id(s)] for s in spans}


def _coeff_bits(c):
    if isinstance(c, Fraction):
        return max(abs(c.numerator).bit_length(), c.denominator.bit_length())
    return abs(int(c)).bit_length()


def _arity(value):
    """Ring arity of a GroebnerBasis/Polynomial or of a list's first item."""
    ring_ = getattr(value, "ring", None)
    if ring_ is None and isinstance(value, (list, tuple)) and value:
        ring_ = getattr(value[0], "ring", None)
    return getattr(ring_, "arity", None)


class Tracer:
    """Installs the wrappers on ``install()`` and removes them on ``remove()``."""

    def __init__(self, package="modgrob"):
        self.package = package
        self.spans = []
        self.stack = []
        self.counts = {name: 0 for name in CALL_COUNTERS.values()}
        self.missing = set()
        self._patches = []  # (owner, attribute, original)
        self._flushers = []

    # -- installation -------------------------------------------------------

    def _module(self, layer):
        return sys.modules.get(f"{self.package}.{layer}")

    def _rebind(self, original, wrapper):
        """Point every modgrob module global bound to ``original`` at ``wrapper``."""
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == self.package
                                   or name.startswith(self.package + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self):
        for layer, targets in SPAN_TARGETS.items():
            for target in targets:
                self._install_span(layer, target)
        for (layer, fn_name), kind in PAIR_TARGETS.items():
            self._install_in_module(layer, fn_name, partial(self._pair_wrapper, kind=kind))
        for (layer, fn_name), counter in CALL_COUNTERS.items():
            self._install_in_module(layer, fn_name,
                                    partial(self._count_wrapper, counter=counter))
        return self

    def _install_in_module(self, layer, fn_name, make_wrapper):
        """Rebind ``fn_name`` in that one module, so only its own calls count."""
        mod = self._module(layer)
        fn = getattr(mod, fn_name, None)
        if fn is None:
            self.missing.add(f"{layer}.{fn_name}")
            return
        self._patches.append((mod, fn_name, fn))
        setattr(mod, fn_name, make_wrapper(fn))

    def _install_span(self, layer, target):
        name = f"{layer}.{target}"
        mod = self._module(layer)
        owner_name, _, method = target.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        original = owner.__dict__.get(method) if owner is not None else None
        if not callable(original):
            self.missing.add(name)
            return
        wrapper = self._span_wrapper(name, original)
        if owner_name:
            self._patches.append((owner, method, original))
            setattr(owner, method, wrapper)
        else:
            self._rebind(original, wrapper)

    def remove(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.remove()

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, name, fn):
        stack, spans, clock = self.stack, self.spans, time.perf_counter

        def wrapper(*args, **kwargs):
            span = Span(name, stack[-1] if stack else None)
            stack.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                spans.append(span)
            elements = getattr(result, "elements", None)
            if elements is not None:
                span.arity = result.ring.arity
                span.basis_len = len(elements)
                span.coeff_bits = max((_coeff_bits(c) for g in elements
                                       for c, _ in g.terms), default=0)
            elif args:
                span.arity = _arity(args[0])
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _pair_wrapper(self, fn, kind):
        stack = self.stack

        def wrapper(*args, **kwargs):
            if stack:
                span = stack[-1]
                if span.name == CHECK_SPAN:
                    span.check_pairs += 1
                elif kind == "s":
                    span.s_pairs += 1
                else:
                    span.g_pairs += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, fn, counter):
        cell = [0]
        counts = self.counts

        def wrapper(*args):
            cell[0] += 1
            return fn(*args)

        def flush():
            counts[counter] += cell[0]
            cell[0] = 0

        self._flushers.append(flush)
        wrapper.__wrapped__ = fn
        return wrapper

    def flush_counts(self):
        for flush in self._flushers:
            flush()


# ---------------------------------------------------------------------------
# metrics from spans

# metric -> (unit, wrap targets it needs)
LAYER_METRICS = {
    "polyring.divides_calls": ("count", ("groebner.monomial_divides",)),
    "polyring.mul_calls": ("count", ("groebner.monomial_mul",)),
    "groebner.self_s": ("s", COMPLETIONS),
    "groebner.completions": ("count", COMPLETIONS),
    "groebner.s_pairs": ("count", COMPLETIONS + ("groebner.s_polynomial_field",
                                                 "groebner.s_pair_z")),
    "groebner.g_pairs": ("count", COMPLETIONS + ("groebner.g_pair_z",)),
    "groebner.check_pairs": ("count", (CHECK_SPAN, "groebner.s_polynomial_field",
                                       "groebner.s_pair_z", "groebner.g_pair_z")),
    "groebner.basis_len": ("count", COMPLETIONS),
    "groebner.max_coeff_bits": ("bits", COMPLETIONS),
    "torsion.strong_s": ("s", ("torsion.torsion_exponent", "groebner.buchberger_z")),
    "torsion.saturation_s": ("s", ("torsion.torsion_exponent", "groebner.buchberger_z")),
    "torsion.saturation_pairs": ("count", ("torsion.torsion_exponent",
                                           "groebner.buchberger_z", "groebner.s_pair_z",
                                           "groebner.g_pair_z")),
    "torsion.multiplier_s": ("s", ("torsion.minimal_multiplier",)),
    "torsion.self_s": ("s", ("torsion.torsion_exponent",)),
    "lemma.self_s": ("s", ("lemma.main_lemma_check",)),
    "lemma.qq_s": ("s", ("lemma.main_lemma_check", "groebner.buchberger_field")),
    "lemma.mod_pa_s": ("s", ("lemma.main_lemma_check", "groebner.gb_mod_m")),
    "lemma.attached_s": ("s", ("lemma.main_lemma_check", "groebner.buchberger_z")),
    "lemma.oracle_s": ("s", ORACLE_SPANS),
    "lemma.completions_per_check": ("ratio", ("lemma.main_lemma_check",) + COMPLETIONS),
    "lemma.prefixes_per_walk": ("ratio", ("lemma.solve_problem_p",
                                          "lemma.main_lemma_check")),
    "arnold.self_s": ("s", ("arnold.arnold_conditions",)),
    "arnold.check_s": ("s", ("arnold.arnold_conditions", CHECK_SPAN)),
    "arnold.complete_s": ("s", ("arnold.arnold_conditions", "groebner.buchberger_field")),
    "parser.parse_s": ("s", ("parser.parse_problem",)),
    "formatting.format_s": ("s", ("formatting.format_basis",
                                  "formatting.format_certificate")),
    "cli.self_s": ("s", ("cli.main",)),
    "intarith.self_s": ("s", ("intarith.ext_gcd",)),
}


def _under(span, name):
    """True if some ancestor of ``span`` is named ``name``."""
    p = span.parent
    while p is not None:
        if p.name == name:
            return True
        p = p.parent
    return False


def layer_metrics(tracer):
    """Every per-layer metric of one traced pass, None where a target is gone."""
    tracer.flush_counts()
    spans = tracer.spans
    selfs = self_times(spans)

    def total(pred):
        return sum(s.duration for s in spans if pred(s))

    def layer_self(layer):
        return sum(selfs[id(s)] for s in spans if s.layer == layer)

    def child_of(parent_names, names):
        return lambda s: (s.name in names and s.parent is not None
                          and s.parent.name in parent_names)

    def outermost(layer):
        return lambda s: s.layer == layer and (s.parent is None
                                               or s.parent.layer != layer)

    def torsion_completion(saturating):
        def pred(s):
            if s.name != "groebner.buchberger_z" or s.parent is None:
                return False
            if s.parent.name not in TORSION_PARENTS or None in (s.arity, s.parent.arity):
                return False
            return (s.arity > s.parent.arity) == saturating
        return pred

    def count(name):
        return sum(1 for s in spans if s.name == name)

    def ratio(num, den):
        return num / den if den else 0.0

    completions = [s for s in spans if s.name in COMPLETIONS]
    checks = count("lemma.main_lemma_check")
    walks = count("lemma.solve_problem_p")
    saturation = torsion_completion(True)
    lemma_child = ("lemma.main_lemma_check",)
    values = {
        "polyring.divides_calls": tracer.counts["polyring.divides_calls"],
        "polyring.mul_calls": tracer.counts["polyring.mul_calls"],
        "groebner.self_s": layer_self("groebner"),
        "groebner.completions": len(completions),
        "groebner.s_pairs": sum(s.s_pairs for s in spans),
        "groebner.g_pairs": sum(s.g_pairs for s in spans),
        "groebner.check_pairs": sum(s.check_pairs for s in spans),
        "groebner.basis_len": sum(s.basis_len for s in completions),
        "groebner.max_coeff_bits": max((s.coeff_bits for s in completions), default=0),
        "torsion.strong_s": total(torsion_completion(False)),
        "torsion.saturation_s": total(saturation),
        "torsion.saturation_pairs": sum(s.s_pairs + s.g_pairs
                                        for s in spans if saturation(s)),
        "torsion.multiplier_s": total(lambda s: s.name == "torsion.minimal_multiplier"),
        "torsion.self_s": layer_self("torsion"),
        "lemma.self_s": layer_self("lemma"),
        "lemma.qq_s": total(child_of(lemma_child, ("groebner.buchberger_field",))),
        "lemma.mod_pa_s": total(child_of(lemma_child, ("groebner.gb_mod_m",))),
        "lemma.attached_s": total(child_of(lemma_child, ("groebner.buchberger_z",))),
        "lemma.oracle_s": total(lambda s: s.name in ORACLE_SPANS and not any(
            _under(s, name) for name in ORACLE_SPANS)),
        "lemma.completions_per_check": ratio(
            sum(1 for s in completions if _under(s, "lemma.main_lemma_check")), checks),
        "lemma.prefixes_per_walk": ratio(
            sum(1 for s in spans if s.name == "lemma.main_lemma_check"
                and _under(s, "lemma.solve_problem_p")), walks),
        "arnold.self_s": layer_self("arnold"),
        "arnold.check_s": total(child_of(("arnold.arnold_conditions",), (CHECK_SPAN,))),
        "arnold.complete_s": total(child_of(("arnold.arnold_conditions",),
                                            ("groebner.buchberger_field",))),
        "parser.parse_s": total(outermost("parser")),
        "formatting.format_s": total(outermost("formatting")),
        "cli.self_s": layer_self("cli"),
        "intarith.self_s": layer_self("intarith"),
    }
    out = {}
    for metric, (unit, needs) in LAYER_METRICS.items():
        gone = any(n in tracer.missing for n in needs)
        out[metric] = (None if gone else values[metric], unit)
    return out
