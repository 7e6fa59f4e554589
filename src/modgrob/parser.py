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
Digits are ASCII 0-9, and no exponent of any term, products included,
passes 2^31.  Each polynomial is gathered in one monomial -> coefficient
map and sorted once, so parse time grows with the input bytes.
"""

import re
from dataclasses import dataclass
from functools import partial
from itertools import chain
from typing import NamedTuple

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
    _term_products,
    monomial_key,
)


class Token(NamedTuple):
    kind: str   # IDENT, INT, PUNCT, END
    text: str
    line: int
    column: int


_new_token = partial(tuple.__new__, Token)  # Token(*fields) without a Python frame


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


_MAX_NESTING = 100  # 3 parser frames per level, well inside the recursion limit
# All the multiplications of one problem file (or of the one polynomial
# given to parse_polynomial), in powers and in written-out products, may
# form at most this many term products together, and one may reach about
# this many coefficient bits, so that input too large to expand is refused
# within a fraction of a second.
_MAX_POWER_TERMS = 30_000
_MAX_POWER_BITS = 20_000


# One token of a line, after blanks; a comment is unnamed.  A word is an
# IDENT when it starts with a letter or '_': a digit other than 0-9 starts
# no token.
_TOKEN = re.compile(r"[ \t\r]*(?://.*|(?P<INT>[0-9]+)|(?P<IDENT>\w+)"
                    r"|(?P<PUNCT>[=,;()^+*/:-])|(?P<BAD>[^ \t\r]))")


def _tokenize(text):
    tokens = []
    for number, line in enumerate(text.split("\n"), 1):
        for m in _TOKEN.finditer(line):
            kind = m.lastgroup
            if kind:
                word, column = m[kind], m.start(kind) + 1
                if kind == "BAD" or (kind == "IDENT" and not word[0].isalpha()
                                     and word[0] != "_"):
                    raise ParseError(f"unexpected character {word[0]!r}", number, column)
                tokens.append(_new_token((kind, word, number, column)))
    cut = line.find("//")  # a comment on the last line ends the input
    tokens.append(Token("END", "", number, (len(line) if cut < 0 else cut) + 1))
    return tokens


class _Cursor:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):  # callers never advance past END
        self.pos += 1
        return self.tokens[self.pos - 1]

    def expect(self, kind, text=None):
        tok = self.match(kind, text)
        if tok is None:
            tok = self.tokens[self.pos]
            raise ParseError(f"expected {text or kind!r}, found {tok.text or 'end of input'!r}",
                             tok.line, tok.column)
        return tok

    def match(self, kind, text=None):
        tok = self.tokens[self.pos]
        if tok.kind == kind and (text is None or tok.text == text):
            self.pos += 1
            return tok
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


def _coeff_bits(terms):
    if not terms:
        return 0
    return max(max(abs(c.numerator), c.denominator) for c in terms.values()).bit_length()


class _PolyParser:
    """Recursive-descent expression parser over the shared token cursor.

    Each value is a term dict, monomial -> coefficient, its coefficients
    normalized by the domain after every operation and none zero; each
    list item becomes one Polynomial, sorted once.  One instance reads
    every polynomial of a problem file, so that they all draw on one
    expansion budget.
    """

    def __init__(self, cursor, ring):
        self.cur = cursor
        self.ring = ring
        self.normalize = ring.domain.normalize
        self.one, self.unit = ring.one_monomial(), self.normalize(1)
        self.key = monomial_key(ring.order)
        # the longest declared name wins at each position of an identifier
        names = sorted(ring.variables, key=len, reverse=True)
        self.names = re.compile(f"({'|'.join(map(re.escape, names)) or '(?!)'})([0-9]*)")
        self.index = {name: i for i, name in enumerate(ring.variables)}
        self.depth = self.spent = 0  # parentheses open; term products formed so far

    def polynomial(self):
        """The next expression as a Polynomial: its terms sorted once."""
        terms = self.expression()
        order = sorted(terms, key=self.key, reverse=True)
        return Polynomial(self.ring, tuple((terms[mono], mono) for mono in order))

    def expression(self):
        """Terms joined by + and -, the first perhaps signed, added term by term."""
        result = {}
        tok = self.cur.peek()
        while True:
            sign = 1
            if tok.kind == "PUNCT" and tok.text in "+-":
                self.cur.advance()
                sign = -1 if tok.text == "-" else 1
            for mono, c in self.term().items():
                c = self.normalize(result.get(mono, 0) + sign * c)
                if c:
                    result[mono] = c
                else:
                    del result[mono]
            tok = self.cur.peek()
            if tok.kind != "PUNCT" or tok.text not in "+-":
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
                result = self._capped_mul(result, self.factor(), tok)
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
        return {mono: c / value for mono, c in numerator.items()}

    def factor(self):
        tok = self.cur.peek()
        if tok.kind == "INT":
            self.cur.advance()
            c = self.normalize(_int(tok))
            return self._power({self.one: c} if c else {})
        if tok.kind == "IDENT":
            self.cur.advance()
            mono = [0] * len(self.one)
            pos = 0
            while pos < len(tok.text):  # a name, then the digits of its exponent
                m = self.names.match(tok.text, pos)
                if m is None:
                    raise ParseError(f"unknown identifier {tok.text[pos:]!r}",
                                     tok.line, tok.column + pos)
                idx = self.index[m[1]]
                exp = _int(Token("INT", m[2], tok.line, tok.column + m.start(2))) if m[2] else 1
                mono[idx] += exp
                pos = m.end()
            # an explicit ^ binds to the last variable of the group, so
            # that yx^2 reads as y*(x^2)
            if self.cur.match("PUNCT", "^"):
                mono[idx] += exp * (_int(self.cur.expect("INT")) - 1)
            if max(mono, default=0) > _MAX_EXPONENT:
                raise ParseError(f"exponent out of range in {tuple(mono)}",
                                 tok.line, tok.column)
            return {tuple(mono): self.unit}
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
        top = max(chain.from_iterable(base), default=0)
        if exp > _MAX_EXPONENT or exp * top > _MAX_EXPONENT:
            raise ParseError(f"exponent out of range: {tok.text}", tok.line, tok.column)
        message = f"power too large to expand: ^{tok.text}"
        result = {self.one: self.unit}
        while exp:  # square and multiply
            if exp & 1:
                result = self._capped_mul(result, base, tok, message)
            exp >>= 1
            if exp:
                base = self._capped_mul(base, base, tok, message)
        return result

    def _capped_mul(self, a, b, tok, message="product too large to expand"):
        """a * b, charged to the term products spent so far, unless it
        would pass the expansion caps or the exponent bound."""
        self.spent += len(a) * len(b)
        if (self.spent > _MAX_POWER_TERMS
                or _coeff_bits(a) + _coeff_bits(b) > _MAX_POWER_BITS):
            raise ParseError(message, tok.line, tok.column)
        sums = _term_products(zip(a.values(), a), list(zip(b.values(), b)))
        product = {mono: c for mono, c in zip(sums, map(self.normalize, sums.values())) if c}
        top = max(chain.from_iterable(product), default=0)
        if top > _MAX_EXPONENT:
            raise ParseError(f"exponent out of range: {top}", tok.line, tok.column)
        return product


def _parse_poly_list(reader):
    polys = [reader.polynomial()]
    while reader.cur.match("PUNCT", ","):
        polys.append(reader.polynomial())
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
    cursor = _Cursor(_tokenize(text))
    if cursor.peek().kind == "END":
        raise ParseError("empty problem file", 1, 1)
    reader = None  # the one _PolyParser of the file, made at its ring
    ideals = {}
    lists = {}  # the stream and oracle sections
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
        elif tok.text in ("stream", "oracle"):
            if tok.text in lists:
                raise ParseError(f"duplicate {tok.text} section", tok.line, tok.column)
            cursor.expect("PUNCT", "=")
            lists[tok.text] = _parse_poly_list(reader)
        else:
            raise ParseError(f"unknown section keyword {tok.text!r}",
                             tok.line, tok.column)
        cursor.expect("PUNCT", ";")
    return ProblemFile(ring=reader.ring, ideals=ideals, stream=lists.get("stream"),
                       oracle_polys=lists.get("oracle"))


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
    return _parse_text(text, lambda cursor: _PolyParser(cursor, ring_).polynomial(),
                       "polynomial expression")


def parse_domain_text(text):
    """A coefficient domain spelt as in a ring declaration: ZZ, QQ or ZZ/m."""
    return _parse_text(text, _parse_domain, "coefficient domain")


def parse_order_text(text):
    """A term order spelt as inside a block order: lp or dp."""
    return _parse_text(text, _parse_inner_order, "term order")
