"""Exception types shared across the package."""


class ModGrobError(Exception):
    """Base class for every package-specific error."""


class NotCoprime(ModGrobError):
    """Moduli handed to a CRT construction share a common factor."""


class ZeroPolynomial(ModGrobError):
    """An operation that needs a nonzero polynomial received zero."""


class RingMismatch(ModGrobError):
    """Operands live in different rings (variables, order, or domain)."""


class DomainError(ModGrobError):
    """The coefficient domain does not support the requested operation."""


class NonMember(ModGrobError):
    """A polynomial expected to lie in an ideal does not."""


class StreamExhausted(ModGrobError):
    """The generators given to ``solve_problem_p`` ran out before any
    prefix was accepted.

    ``solve_problem_p`` appends each rejection certificate to its
    ``history`` list, for callers that want to see why each prefix failed.
    """


class OracleFailure(ModGrobError):
    """The supplied oracle returned an answer the checker cannot use."""


class InvalidLimit(ModGrobError):
    """A ``RunStats`` cap (``--max-pairs`` or ``--max-steps``) is negative."""


class ExponentOverflow(ModGrobError):
    """A monomial's total degree leaves the packed fields of the division kernel."""


class ResourceLimitExceeded(ModGrobError):
    """A run spent more pairs or steps than its ``RunStats`` allows."""


class ParseError(ModGrobError):
    """Syntax error in a problem file, annotated with line and column."""

    def __init__(self, message, line, column):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
