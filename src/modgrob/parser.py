"""Problem-file and polynomial-expression parser.

The input language mirrors compact computer-algebra scripts::

    // comments run to end of line
    ring r = ZZ, (z, y, x), dp;
    ideal I = 3z-y, 3y-x, 3x;
    stream = 2x, 3x;
    oracle = 2x, 3x;

Coefficient domains are ZZ, QQ or ZZ/m; orders are lp (lex), dp
(degrevlex) or block((front vars): ord, (back vars): ord) where the two
groups concatenate to the declared variable list.  Polynomials use integer
literals, '^' exponents (Singular-style juxtaposed digits like 3y2 also
work), optional '*', parentheses, and p/q rational constants in QQ rings.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError
from .polyring import (
    QQ,
    ZZ,
    Block,
    DegRevLex,
    Lex,
    ModularDomain,
    Polynomial,
    RationalDomain,
    RingDescriptor,
    _MAX_EXPONENT,
)


@dataclass(frozen=True)
class Token:
    kind: str   # IDENT, INT, PUNCT, END
    text: str
    line: int
    column: int


@dataclass(frozen=True)
class ProblemFile:
    ring: RingDescriptor
    ideals: dict            # name -> tuple of Polynomial, insertion ordered
    stream: tuple | None
    oracle_polys: tuple | None

    def ideal(self, name=None):
        """Pick an ideal section: by name, else 'I' if present, else the first."""
        if name is not None:
            if name not in self.ideals:
                raise KeyError(f"no ideal section named {name!r}")
            return self.ideals[name]
        if "I" in self.ideals:
            return self.ideals["I"]
        if not self.ideals:
            raise KeyError("the problem file declares no ideal sections")
        return next(iter(self.ideals.values()))


_PUNCT = set("=,;()^+-*/:")
_MAX_NESTING = 100  # 3 parser frames per level, well inside the recursion limit
# All the multiplications of one problem file (or of the one polynomial
# given to parse_polynomial), in powers and in written-out products, may
# form at most this many term products together, and one may reach about
# this many coefficient bits, so that input too large to expand is refused
# within a fraction of a second.
_MAX_POWER_TERMS = 30_000
_MAX_POWER_BITS = 20_000


def _coeff_bits(f):
    return max((max(abs(c.numerator).bit_length(), c.denominator.bit_length())
                for c, _ in f.terms), default=0)


def _tokenize(text):
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "/" and i + 1 < n and text[i + 1] == "/":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_col = col
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(Token("INT", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("IDENT", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch in _PUNCT:
            tokens.append(Token("PUNCT", ch, line, start_col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, start_col)
    tokens.append(Token("END", "", line, col))
    return tokens


class _Cursor:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        if tok.kind != "END":
            self.pos += 1
        return tok

    def expect(self, kind, text=None):
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            raise ParseError(f"expected {want!r}, found {tok.text or 'end of input'!r}",
                             tok.line, tok.column)
        return self.advance()

    def match(self, kind, text=None):
        tok = self.peek()
        if tok.kind == kind and (text is None or tok.text == text):
            return self.advance()
        return None


# ---------------------------------------------------------------------------
# polynomial expressions

def _int(tok):
    """The value of a digit token; one longer than Python converts is a ParseError."""
    try:
        return int(tok.text)
    except ValueError:  # past sys.get_int_max_str_digits()
        raise ParseError(f"integer literal too long: {len(tok.text)} digits",
                         tok.line, tok.column) from None


def _split_variable_factors(token, variables):
    """Split an IDENT like 'y2x' into [(var_index, exponent), ...].

    Longest declared variable name wins at each position; a trailing digit
    run is the exponent of the variable just matched.
    """
    by_length = sorted(variables, key=len, reverse=True)
    text = token.text
    pos = 0
    factors = []
    while pos < len(text):
        for name in by_length:
            if text.startswith(name, pos):
                pos += len(name)
                start = pos
                while pos < len(text) and text[pos].isdigit():
                    pos += 1
                digits = Token("INT", text[start:pos], token.line, token.column + start)
                factors.append((variables.index(name), _int(digits) if digits.text else 1))
                break
        else:
            raise ParseError(f"unknown identifier {text[pos:]!r}",
                             token.line, token.column + pos)
    return factors


class _PolyParser:
    """Recursive-descent expression parser over the shared token cursor.

    One instance reads every polynomial of a problem file, so that they
    all draw on one expansion budget.
    """

    def __init__(self, cursor, ring):
        self.cur = cursor
        self.ring = ring
        self.depth = 0
        self.spent = 0  # term products formed so far

    def expression(self):
        tok = self.cur.peek()
        negate = False
        if tok.kind == "PUNCT" and tok.text in "+-":
            self.cur.advance()
            negate = tok.text == "-"
        result = self.term()
        if negate:
            result = -result
        while True:
            tok = self.cur.peek()
            if tok.kind == "PUNCT" and tok.text in "+-":
                self.cur.advance()
                nxt = self.term()
                result = result - nxt if tok.text == "-" else result + nxt
            else:
                return result

    def term(self):
        result = self.factor()
        while True:
            tok = self.cur.peek()
            if tok.kind == "PUNCT" and tok.text == "/":
                self.cur.advance()
                result = self._divide(result, tok)
            elif tok.kind in ("INT", "IDENT") or (tok.kind == "PUNCT" and tok.text in "*("):
                self.cur.match("PUNCT", "*")
                factor = self.factor()
                result = self._capped_mul(result, factor, tok)
            else:
                return result

    def _divide(self, numerator, slash_tok):
        tok = self.cur.expect("INT")
        value = _int(tok)
        if value == 0:
            raise ParseError("division by zero", tok.line, tok.column)
        if not isinstance(self.ring.domain, RationalDomain):
            raise ParseError("rational constants only make sense over QQ",
                             slash_tok.line, slash_tok.column)
        return numerator * Fraction(1, value)

    def factor(self):
        tok = self.cur.peek()
        if tok.kind == "INT":
            self.cur.advance()
            base = Polynomial.constant(self.ring, _int(tok))
            return self._power(base)
        if tok.kind == "IDENT":
            self.cur.advance()
            factors = _split_variable_factors(tok, self.ring.variables)
            # an explicit ^ binds to the last variable of the group, so
            # that yx^2 reads as y*(x^2)
            if self.cur.match("PUNCT", "^"):
                exp_tok = self.cur.expect("INT")
                idx, exp = factors[-1]
                factors[-1] = (idx, exp * _int(exp_tok))
            mono = [0] * self.ring.arity
            for idx, exp in factors:
                mono[idx] += exp
            try:
                return Polynomial.from_terms(self.ring, [(1, tuple(mono))])
            except ValueError as exc:  # an exponent beyond the supported range
                raise ParseError(str(exc), tok.line, tok.column) from None
        if tok.kind == "PUNCT" and tok.text == "(":
            if self.depth == _MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {_MAX_NESTING}",
                                 tok.line, tok.column)
            self.cur.advance()
            self.depth += 1
            inner = self.expression()
            self.depth -= 1
            self.cur.expect("PUNCT", ")")
            return self._power(inner)
        raise ParseError(f"expected a polynomial factor, found {tok.text or 'end of input'!r}",
                         tok.line, tok.column)

    def _power(self, base):
        if not self.cur.match("PUNCT", "^"):
            return base
        tok = self.cur.expect("INT")
        exp = _int(tok)
        top = max((e for _, mono in base.terms for e in mono), default=0)
        if exp > _MAX_EXPONENT or exp * top > _MAX_EXPONENT:
            raise ParseError(f"exponent out of range: {tok.text}", tok.line, tok.column)
        message = f"power too large to expand: ^{tok.text}"
        result = Polynomial.constant(self.ring, 1)
        while exp:  # square and multiply
            if exp & 1:
                result = self._capped_mul(result, base, tok, message)
            exp >>= 1
            if exp:
                base = self._capped_mul(base, base, tok, message)
        return result

    def _capped_mul(self, a, b, tok, message="product too large to expand"):
        """a * b, charged to the term products spent so far, unless it
        would pass the expansion caps."""
        self.spent += len(a.terms) * len(b.terms)
        if (self.spent > _MAX_POWER_TERMS
                or _coeff_bits(a) + _coeff_bits(b) > _MAX_POWER_BITS):
            raise ParseError(message, tok.line, tok.column)
        return a * b


def _parse_poly_list(reader):
    polys = [reader.expression()]
    while reader.cur.match("PUNCT", ","):
        polys.append(reader.expression())
    return tuple(polys)


# ---------------------------------------------------------------------------
# ring declarations

def _parse_domain(cursor):
    tok = cursor.expect("IDENT")
    if tok.text == "ZZ":
        if cursor.match("PUNCT", "/"):
            m_tok = cursor.expect("INT")
            m = _int(m_tok)
            if m < 2:
                raise ParseError("modulus must be >= 2", m_tok.line, m_tok.column)
            return ModularDomain(m)
        return ZZ
    if tok.text == "QQ":
        return QQ
    raise ParseError(f"unknown coefficient domain {tok.text!r} (ZZ, QQ or ZZ/m)",
                     tok.line, tok.column)


def _parse_variable_group(cursor):
    cursor.expect("PUNCT", "(")
    names = [cursor.expect("IDENT").text]
    while cursor.match("PUNCT", ","):
        tok = cursor.expect("IDENT")
        if tok.text in names:
            raise ParseError(f"duplicate variable {tok.text!r}", tok.line, tok.column)
        names.append(tok.text)
    cursor.expect("PUNCT", ")")
    return tuple(names)


def _parse_inner_order(cursor, choices="lp or dp"):
    tok = cursor.expect("IDENT")
    if tok.text == "lp":
        return Lex()
    if tok.text == "dp":
        return DegRevLex()
    raise ParseError(f"unknown term order {tok.text!r} ({choices})", tok.line, tok.column)


def _parse_order(cursor, variables):
    tok = cursor.match("IDENT", "block")
    if tok:
        cursor.expect("PUNCT", "(")
        front_vars = _parse_variable_group(cursor)
        cursor.expect("PUNCT", ":")
        front_order = _parse_inner_order(cursor)
        cursor.expect("PUNCT", ",")
        back_vars = _parse_variable_group(cursor)
        cursor.expect("PUNCT", ":")
        back_order = _parse_inner_order(cursor)
        cursor.expect("PUNCT", ")")
        if front_vars + back_vars != variables:
            raise ParseError(
                "block groups must concatenate to the declared variable list",
                tok.line, tok.column)
        return Block(tuple(range(len(front_vars))), front_order, back_order)
    return _parse_inner_order(cursor, "lp, dp or block(...)")


def _parse_ring(cursor):
    cursor.expect("IDENT")  # ring name, kept only for readability
    cursor.expect("PUNCT", "=")
    domain = _parse_domain(cursor)
    cursor.expect("PUNCT", ",")
    variables = _parse_variable_group(cursor)
    cursor.expect("PUNCT", ",")
    order = _parse_order(cursor, variables)
    return RingDescriptor(variables, order, domain)


# ---------------------------------------------------------------------------
# whole files

def parse_problem(text):
    """Parse a problem file into its ring, ideal sections, stream and oracle."""
    tokens = _tokenize(text)
    cursor = _Cursor(tokens)
    if cursor.peek().kind == "END":
        raise ParseError("empty problem file", 1, 1)
    reader = None  # the one _PolyParser of the file, made at its ring
    ideals = {}
    stream = None
    oracle_polys = None
    while cursor.peek().kind != "END":
        tok = cursor.expect("IDENT")
        if reader is None and tok.text in ("ideal", "stream", "oracle"):
            raise ParseError(f"{tok.text} section before the ring declaration",
                             tok.line, tok.column)
        if tok.text == "ring":
            if reader is not None:
                raise ParseError("duplicate ring declaration", tok.line, tok.column)
            reader = _PolyParser(cursor, _parse_ring(cursor))
        elif tok.text == "ideal":
            name_tok = cursor.expect("IDENT")
            if name_tok.text in ideals:
                raise ParseError(f"duplicate ideal section {name_tok.text!r}",
                                 name_tok.line, name_tok.column)
            cursor.expect("PUNCT", "=")
            ideals[name_tok.text] = _parse_poly_list(reader)
        elif tok.text == "stream":
            if stream is not None:
                raise ParseError("duplicate stream section", tok.line, tok.column)
            cursor.expect("PUNCT", "=")
            stream = _parse_poly_list(reader)
        elif tok.text == "oracle":
            if oracle_polys is not None:
                raise ParseError("duplicate oracle section", tok.line, tok.column)
            cursor.expect("PUNCT", "=")
            oracle_polys = _parse_poly_list(reader)
        else:
            raise ParseError(f"unknown section keyword {tok.text!r}",
                             tok.line, tok.column)
        cursor.expect("PUNCT", ";")
    if reader is None:
        raise ParseError("the file declares no ring", 1, 1)
    return ProblemFile(ring=reader.ring, ideals=ideals, stream=stream,
                       oracle_polys=oracle_polys)


def _parse_text(text, parse, what):
    """Read all of text with parse(cursor); text that is empty or runs on is an error."""
    cursor = _Cursor(_tokenize(text))
    if cursor.peek().kind == "END":
        raise ParseError(f"empty {what}", 1, 1)
    value = parse(cursor)
    tail = cursor.peek()
    if tail.kind != "END":
        raise ParseError(f"unexpected trailing input {tail.text!r}", tail.line, tail.column)
    return value


def parse_polynomial(text, ring_):
    """Parse a single polynomial expression in the given ring."""
    return _parse_text(text, lambda cursor: _PolyParser(cursor, ring_).expression(),
                       "polynomial expression")


def parse_domain_text(text):
    """A coefficient domain spelt as in a ring declaration: ZZ, QQ or ZZ/m."""
    return _parse_text(text, _parse_domain, "coefficient domain")


def parse_order_text(text):
    """A term order spelt as inside a block order: lp or dp."""
    return _parse_text(text, _parse_inner_order, "term order")
