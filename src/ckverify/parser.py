"""Expression and presentation-file parsing, plus the presentation printer.

Expression grammar (explicit '*' required between factors):

    expr   := term (('+'|'-') term)*
    term   := unary (('*'|'/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' INT)?
    atom   := INT | IDENT | '(' expr ')'

INT is a run of at most MAX_NUMBER_DIGITS decimal digits, in any script
(exactly what int() reads); IDENT starts with a letter or '_' and goes on
with letters, digits or '_'.
Any other character is refused with its line and column, and an
expression that stops before it is complete is reported as an unexpected
end of expression, at the end of the input.
Division is scalar-only: the right operand must be free of generators (and
nonzero); this covers rational literals like 3/7 and parameter quotients like
(b-2)/(b+2).  While an expression is parsed, its term dicts hold `lowered`
scalars: a number is its int, INT / INT one Fraction, and a value becomes a
Coefficient only once a name is in it; each finished term is lifted once.
A coefficient with an integer of more than MAX_NUMBER_DIGITS digits could
not be printed, and is refused at the expression's line, column 1.
Presentation files are line-oriented UTF-8, with an optional byte-order mark,
'#' comments and four sections: GENERATORS, PARAMS (entries may declare
conjugate pairs as "a~abar"; a plain "a" is "a~a"), INVOLUTION ("x1 -> x2"
items separated by ';' or newlines) and RELATIONS (one expression per line;
a single '=' is normalized to left-right).  A relation's error columns count
from the start of its line, a section header before it on that line
included; a byte that does not decode is refused at its line and column.
Expressions are printed by ncpoly.print_expr (re-exported here), which
print_presentation uses for each relation.
"""
from __future__ import annotations

import codecs
import re
from fractions import Fraction

from .coeff import Coefficient, ConjugationSpec, Space, lowered
from .ideal import Presentation
from .ncpoly import InvolutionSpec, NcPoly, _add_terms, _mul_terms, print_expr


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


# Bad input is refused after bounded work: a '(' level costs five frames of
# the default 1000, p^k has up to len(p.terms)^k terms and p*q up to
# len(p.terms)*len(q.terms).
MAX_NESTING = 100
MAX_EXPONENT = 100
MAX_POWER_TERMS = 10_000
# A longer number is refused with its position before int() reads it:
# CPython's default int-string limit would refuse it with no position.
# A coefficient is held to the same limit, so that it can be printed.
MAX_NUMBER_DIGITS = 4_300
_TOO_LONG = 10 ** MAX_NUMBER_DIGITS  # the least number one digit longer

# One match per token, after any blanks and comments: a number (decimal
# digits, all of which int() reads), a name, an operator, any other
# character, or the empty string at the end of the text.  Tokens are the
# matched strings; an empty one ends the input.
_TOKEN = re.compile(r"(?:[ \t\r\n]|#[^\n]*)*(\d+|[^\W\d]\w*|[-+*/^()=]|.|$)")
_OPS = frozenset("+-*/^()=")


def _tokenize(text: str, line0: int) -> list:
    """The token strings of text, ending with an empty one."""
    tokens = _TOKEN.findall(text)
    # a name token is \w+ not led by a digit, and \w is str.isalnum() or
    # '_', so its first character decides what _is_name would
    bad = [tokens.index(t) for t in set(tokens) if t and t not in _OPS
           and not (t[0].isalpha() or t[0] == "_" or (
               t.isdecimal() and len(t) <= MAX_NUMBER_DIGITS))]
    if bad:  # a stray character, '²' (\w but no letter), or a long number
        i = min(bad)
        t = tokens[i]
        message = (f"number longer than {MAX_NUMBER_DIGITS} digits"
                   if t.isdecimal() else f"unexpected character {t[0]!r}")
        raise _error(text, line0, message, _offset(text, tokens, i))
    return tokens


def _offset(text: str, tokens: list, i: int) -> int:
    """Where token i starts in text; the end of the input is where a
    comment on its last line starts, if there is one."""
    if not tokens[i]:
        cut = text.find("#", text.rfind("\n") + 1)
        return len(text) if cut < 0 else cut
    return [m.start(1) for m in _TOKEN.finditer(text)][i]


def _error(text: str, line0: int, message: str, offset: int) -> ParseError:
    """The error at an offset into text, whose first line is line0; a tab
    counts as one column."""
    return ParseError(message, line0 + text.count("\n", 0, offset),
                      offset - text.rfind("\n", 0, offset))


class _ExprParser:
    """Recursive descent over the token strings into term dicts (NcPoly's
    term arithmetic) whose scalars are `lowered`: ints and Fractions until
    a name is in them, then Coefficients; `_poly` lifts each finished term
    once, into one NcPoly per expression."""

    def __init__(self, generators, space: Space):
        self.alphabet = tuple(generators)
        self.space = space
        # the value of each name and number token seen: a parameter or a
        # number is a scalar, a generator a word of length one (generators
        # win a clash); the dicts are shared and never mutated
        self.atoms = {name: {(): Coefficient.param(space, name)}
                      for name in space}
        self.atoms.update({name: {(i,): 1}
                           for i, name in enumerate(self.alphabet)})
        self.atoms["1"] = {(): 1}

    def expression(self, text: str, line0: int) -> NcPoly:
        return self._poly(self._parse(text, line0, _tokenize(text, line0), 0))

    def relation(self, text: str, line0: int) -> NcPoly:
        """left = right as left - right; no '=' means '= 0'."""
        tokens = _tokenize(text, line0)
        if "=" not in tokens:
            return self._poly(self._parse(text, line0, tokens, 0))
        cut = tokens.index("=")
        if "=" in tokens[cut + 1:]:
            raise _error(text, line0, "more than one '=' in relation",
                         _offset(text, tokens, tokens.index("=", cut + 1)))
        if cut == 0 or not tokens[cut + 1]:
            raise _error(text, line0, "'=' needs expressions on both sides",
                         _offset(text, tokens, cut))
        tokens[cut] = ""  # the left side ends where the input does
        left = self._parse(text, line0, tokens, 0)
        right = self._parse(text, line0, tokens, cut + 1)
        return self._poly(_add_terms(left, right, True))

    def _poly(self, terms: dict) -> NcPoly:
        """The NcPoly of a finished term dict; a coefficient that could not
        be printed is refused at the expression's first column."""
        for c in terms.values():
            if type(c) is int:
                if abs(c) < _TOO_LONG:
                    continue
            elif type(c) is Fraction:
                if abs(c.numerator) < _TOO_LONG > c.denominator:
                    continue
            elif c.height() < _TOO_LONG:
                continue
            raise ParseError(f"coefficient longer than {MAX_NUMBER_DIGITS} "
                             "digits", self.line0, 1)
        const, space = Coefficient.const, self.space
        return NcPoly(self.alphabet, space,
                      {w: const(space, c) for w, c in terms.items()})

    def _parse(self, text: str, line0: int, tokens: list, start: int) -> dict:
        self.text, self.line0 = text, line0
        self.tokens, self.pos, self.depth = tokens, start, 0
        p = self.expr()
        t = tokens[self.pos]
        if t:  # a number is shown as its value
            t = int(t) if t[0].isdecimal() else t
            self.error(f"unexpected {t!r} (missing operator?)")
        return p

    def error(self, message: str, i: int = None):
        """Raise at token i, by default the current one."""
        i = self.pos if i is None else i
        raise _error(self.text, self.line0, message,
                     _offset(self.text, self.tokens, i))

    def expr(self) -> dict:
        p = self.term()
        tokens = self.tokens
        while tokens[self.pos] in ("+", "-"):
            subtract = tokens[self.pos] == "-"
            self.pos += 1
            p = _add_terms(p, self.term(), subtract)
        return p

    def term(self) -> dict:
        p = self.unary()
        tokens = self.tokens
        while tokens[self.pos] in ("*", "/"):
            op = self.pos
            self.pos += 1
            q = self.unary()
            if tokens[op] == "*":
                if len(p) * len(q) > MAX_POWER_TERMS:
                    self.error(f"product of up to {len(p) * len(q)} terms "
                               f"exceeds {MAX_POWER_TERMS}", op)
                p = _mul_terms(p, q, 1)
            else:
                if not q:
                    self.error("division by zero", op)
                if len(q) > 1 or () not in q:
                    self.error("division by an expression involving "
                               "generators", op)
                d = q[()]
                if type(d) is Coefficient:
                    d = d.inv()
                    p = {w: lowered(c * d) for w, c in p.items()}
                else:  # a rational constant: INT / INT is one Fraction
                    p = {w: (Fraction(c, d) if c % d else c // d)
                         if type(c) is int is type(d) else lowered(c / d)
                         for w, c in p.items()}
        return p

    def unary(self) -> dict:
        self.depth += 1  # every '(' and unary '-' level passes through here
        if self.depth > MAX_NESTING:
            self.error(f"expression nested deeper than {MAX_NESTING} levels")
        if self.tokens[self.pos] == "-":
            self.pos += 1
            p = {w: -c for w, c in self.unary().items()}
        else:
            p = self.power()
        self.depth -= 1
        return p

    def power(self) -> dict:
        p = self.atom()
        tokens = self.tokens
        if tokens[self.pos] == "^":
            caret = self.pos
            t = tokens[caret + 1]
            if t == "-":
                self.error("exponent must be a nonnegative integer", caret)
            if not t[:1].isdecimal():
                self.error("expected integer exponent", caret + 1)
            k = int(t)
            if k > MAX_EXPONENT:
                self.error(f"exponent {k} exceeds {MAX_EXPONENT}", caret + 1)
            if len(p) ** k > MAX_POWER_TERMS:
                self.error(f"power of up to {len(p) ** k} terms "
                           f"exceeds {MAX_POWER_TERMS}", caret)
            self.pos += 2
            q, p = p, {(): 1}
            for _ in range(k):
                p = _mul_terms(p, q, 1)
        return p

    def atom(self) -> dict:
        t = self.tokens[self.pos]
        self.pos += 1
        p = self.atoms.get(t)
        if p is not None:
            return p
        if t == "(":
            p = self.expr()
            if self.tokens[self.pos] != ")":
                self.error("unbalanced parentheses")
            self.pos += 1
            return p
        if t[:1].isdecimal():
            c = int(t)
            p = self.atoms[t] = {(): c} if c else {}
            return p
        if t == ")":
            self.error("unbalanced parentheses", self.pos - 1)
        if not t:
            self.error("unexpected end of expression", self.pos - 1)
        if t not in _OPS:
            self.error(f"unknown identifier {t!r}", self.pos - 1)
        self.error(f"unexpected {t!r}", self.pos - 1)


def parse_expr(text: str, generators, params: Space = (), *, line0: int = 1) -> NcPoly:
    """Parse a single expression (no '=') into an NcPoly."""
    return _ExprParser(generators, tuple(params)).expression(text, line0)


def parse_relation(text: str, generators, params: Space = (), *, line0: int = 1) -> NcPoly:
    """Parse a relation: either an expression (meaning '= 0') or
    'left = right', normalized to left - right."""
    return _ExprParser(generators, tuple(params)).relation(text, line0)


# ---------------------------------------------------------------------------
# presentation files

_SECTIONS = ("GENERATORS", "PARAMS", "INVOLUTION", "RELATIONS")


def _strip_comment(line: str) -> str:
    cut = line.find("#")
    return line if cut < 0 else line[:cut]


def parse_presentation_text(text: str):
    """Parse file text into a Presentation."""
    generators = []
    params = {}   # name -> the line that first declares it
    partner = {}  # name -> its conjugate, itself for a plain name
    involution_lines, relation_lines = [], []  # (text, line number)
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        code = _strip_comment(raw).rstrip()
        line = code.lstrip()
        if not line:
            continue
        head, sep, rest = line.partition(":")
        if sep and head.strip().upper() in _SECTIONS and " " not in head.strip():
            section = head.strip().upper()
            line = rest.strip()
            if not line:
                continue
        if section is None:
            raise ParseError("content before any section header", lineno, 1)
        if section == "GENERATORS":
            for name in line.split():
                if not _is_name(name):
                    raise ParseError(f"bad generator name {name!r}", lineno, 1)
                if name in generators:
                    raise ParseError(f"duplicate generator {name!r}", lineno, 1)
                generators.append(name)
        elif section == "PARAMS":
            for entry in line.split():
                # a plain name is paired with itself: 'a' is 'a~a'
                a, tilde, b = entry.partition("~")
                b = b if tilde else a
                if not (_is_name(a) and _is_name(b)):
                    what = "pair" if tilde else "name"
                    raise ParseError(f"bad parameter {what} {entry!r}", lineno, 1)
                for n, m in ((a, b), (b, a)):
                    if partner.setdefault(n, m) != m:
                        raise ParseError(
                            f"parameter {n!r} paired with both "
                            f"{partner[n]!r} and {m!r}", lineno, 1)
                    params.setdefault(n, lineno)
        elif section == "INVOLUTION":
            for item in line.split(";"):
                item = item.strip()
                if item:
                    involution_lines.append((item, lineno))
        elif section == "RELATIONS":
            # blanks stand for what precedes the relation on its line, so
            # that its columns count from the start of the line
            relation_lines.append((" " * (len(code) - len(line)) + line,
                                   lineno))
    if not generators:
        raise ParseError("missing GENERATORS section", 1, 1)
    if not relation_lines:
        raise ParseError("missing RELATIONS section", 1, 1)
    if not involution_lines:
        raise ParseError("missing INVOLUTION section", 1, 1)

    gen_index = {g: i for i, g in enumerate(generators)}
    for name, lineno in params.items():
        if name in gen_index:
            raise ParseError(f"{name!r} is both generator and parameter",
                             lineno, 1)
    perm = {}     # generator -> (its image, the line of its item)
    for item, lineno in involution_lines:
        src, sep, dst = item.partition("->")
        src, dst = src.strip(), dst.strip()
        if not sep or src not in gen_index or dst not in gen_index:
            raise ParseError(f"bad involution item {item!r}", lineno, 1)
        if src in perm:
            raise ParseError(f"generator {src!r} mapped twice", lineno, 1)
        perm[src] = dst, lineno
    missing = [g for g in generators if g not in perm]
    if missing:
        raise ParseError(f"involution does not cover {missing[0]!r}", 1, 1)
    for src, (dst, lineno) in perm.items():
        if perm[dst][0] != src:
            raise ParseError(
                f"involution is not self-inverse at {src!r} -> {dst!r}",
                lineno, 1)
    space: Space = tuple(params)
    conj = ConjugationSpec(partner)
    involution = InvolutionSpec(
        tuple(gen_index[perm[g][0]] for g in generators), conj)
    parser = _ExprParser(generators, space)
    relations = []
    for text_line, lineno in relation_lines:
        rel = parser.relation(text_line, lineno)
        if rel.is_zero():
            raise ParseError("relation is identically zero", lineno, 1)
        relations.append(rel)
    return Presentation(tuple(generators), space, relations, involution)


def parse_presentation(path):
    """Parse a UTF-8 file, which may start with a byte-order mark."""
    with open(path, "rb") as fh:
        data = fh.read().removeprefix(codecs.BOM_UTF8)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the line and column of the first byte that does not decode
        lines = (data[:exc.start].decode("utf-8") + "?").splitlines()
        raise ParseError(f"invalid UTF-8 byte 0x{data[exc.start]:02x}",
                         len(lines), len(lines[-1])) from None
    return parse_presentation_text(text)


def print_presentation(p) -> str:
    """Render a Presentation in the file format; inverse of parsing."""
    lines = ["GENERATORS: " + " ".join(p.alphabet)]
    if p.space:
        conj = p.involution.conj
        entries = []
        done = set()
        for name in p.space:
            if name in done:
                continue
            other = conj(name)
            if other != name:
                entries.append(f"{name}~{other}")
                done.update((name, other))
            else:
                entries.append(name)
                done.add(name)
        lines.append("PARAMS: " + " ".join(entries))
    items = "; ".join(f"{g} -> {p.alphabet[p.involution.perm[i]]}"
                      for i, g in enumerate(p.alphabet))
    lines.append("INVOLUTION: " + items)
    lines.append("RELATIONS:")
    for rel in p.relations:
        lines.append("  " + print_expr(rel))
    return "\n".join(lines) + "\n"


def _is_name(s: str) -> bool:
    return s and (s[0].isalpha() or s[0] == "_") and \
        all(c.isalnum() or c == "_" for c in s)
