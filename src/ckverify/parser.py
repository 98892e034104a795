"""Expression and presentation-file parsing, plus the inverse printers.

Expression grammar (explicit '*' required between factors):

    expr   := term (('+'|'-') term)*
    term   := unary (('*'|'/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' INT)?
    atom   := INT | IDENT | '(' expr ')'

Division is scalar-only: the right operand must be free of generators (and
nonzero); this covers rational literals like 3/7 and parameter quotients like
(b-2)/(b+2).  Presentation files are line-oriented UTF-8 with '#' comments and
four sections: GENERATORS, PARAMS (entries may declare conjugate pairs as
"a~abar"), INVOLUTION ("x1 -> x2" items separated by ';' or newlines) and
RELATIONS (one expression per line; a single '=' is normalized to left-right).
"""
from __future__ import annotations

from .coeff import Coefficient, ConjugationSpec, Space
from .ncpoly import NcPoly, InvolutionSpec


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class _Token:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind, value, line, col):
        self.kind = kind
        self.value = value
        self.line = line
        self.col = col


_OPS = set("+-*/^()=")

# Bad input is refused after bounded work: a '(' level costs five frames of
# the default 1000, and p^k has up to len(p.terms)^k terms.
MAX_NESTING = 100
MAX_EXPONENT = 100
MAX_POWER_TERMS = 10_000


def _tokenize(text: str, line0: int = 1):
    tokens = []
    line, col = line0, 1
    i = 0
    while i < len(text):
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
        if ch == "#":
            while i < len(text) and text[i] != "\n":
                i += 1
            continue
        start_col = col
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(_Token("num", int(text[i:j]), line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("ident", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch in _OPS:
            tokens.append(_Token(ch, ch, line, start_col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("eof", None, line, col))
    return tokens


class _ExprParser:
    def __init__(self, tokens, generators, space: Space):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
        self.generators = {name: i for i, name in enumerate(generators)}
        self.alphabet = tuple(generators)
        self.space = space
        self.params = set(space)

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def error(self, message: str, tok: _Token = None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    def parse(self) -> NcPoly:
        p = self.expr()
        t = self.peek()
        if t.kind != "eof":
            self.error(f"unexpected {t.value!r} (missing operator?)", t)
        return p

    def expr(self) -> NcPoly:
        p = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            q = self.term()
            p = p + q if op == "+" else p - q
        return p

    def term(self) -> NcPoly:
        p = self.unary()
        while self.peek().kind in ("*", "/"):
            op = self.next()
            q = self.unary()
            if op.kind == "*":
                p = p * q
            else:
                c = _as_scalar(q)
                if c is None:
                    self.error("division by an expression involving generators", op)
                if c.is_zero():
                    self.error("division by zero", op)
                p = p.scale(c.inv())
        return p

    def unary(self) -> NcPoly:
        self.depth += 1  # every '(' and unary '-' level passes through here
        if self.depth > MAX_NESTING:
            self.error(f"expression nested deeper than {MAX_NESTING} levels")
        if self.peek().kind == "-":
            self.next()
            p = -self.unary()
        else:
            p = self.power()
        self.depth -= 1
        return p

    def power(self) -> NcPoly:
        p = self.atom()
        if self.peek().kind == "^":
            caret = self.next()
            t = self.peek()
            if t.kind == "-" or (t.kind == "num" and t.value < 0):
                self.error("exponent must be a nonnegative integer", caret)
            if t.kind != "num":
                self.error("expected integer exponent", t)
            if t.value > MAX_EXPONENT:
                self.error(f"exponent {t.value} exceeds {MAX_EXPONENT}", t)
            if len(p.terms) ** t.value > MAX_POWER_TERMS:
                self.error(f"power of up to {len(p.terms) ** t.value} terms "
                           f"exceeds {MAX_POWER_TERMS}", caret)
            self.next()
            p = p ** t.value
        return p

    def atom(self) -> NcPoly:
        t = self.next()
        if t.kind == "num":
            return NcPoly.scalar(self.alphabet, self.space, t.value)
        if t.kind == "ident":
            if t.value in self.generators:
                return NcPoly.generator(self.alphabet, self.space,
                                        self.generators[t.value])
            if t.value in self.params:
                return NcPoly.scalar(self.alphabet, self.space,
                                     Coefficient.param(self.space, t.value))
            self.error(f"unknown identifier {t.value!r}", t)
        if t.kind == "(":
            p = self.expr()
            closing = self.next()
            if closing.kind != ")":
                self.error("unbalanced parentheses", closing)
            return p
        if t.kind == ")":
            self.error("unbalanced parentheses", t)
        self.error(f"unexpected {t.value!r}", t)


def _as_scalar(p: NcPoly):
    """Return p's scalar value if it has no generator content, else None."""
    if p.is_zero():
        return Coefficient.const(p.space, 0)
    if set(p.terms) == {()}:
        return p.terms[()]
    return None


def parse_expr(text: str, generators, params: Space = (), *, line0: int = 1) -> NcPoly:
    """Parse a single expression (no '=') into an NcPoly."""
    tokens = _tokenize(text, line0)
    return _ExprParser(tokens, generators, tuple(params)).parse()


def parse_relation(text: str, generators, params: Space = (), *, line0: int = 1) -> NcPoly:
    """Parse a relation: either an expression (meaning '= 0') or
    'left = right', normalized to left - right."""
    tokens = _tokenize(text, line0)
    eq_positions = [i for i, t in enumerate(tokens) if t.kind == "="]
    if not eq_positions:
        return _ExprParser(tokens, generators, tuple(params)).parse()
    if len(eq_positions) > 1:
        t = tokens[eq_positions[1]]
        raise ParseError("more than one '=' in relation", t.line, t.col)
    cut = eq_positions[0]
    left = tokens[:cut] + [tokens[-1]]
    right = tokens[cut + 1:]
    if cut == 0 or len(right) == 1:
        t = tokens[cut]
        raise ParseError("'=' needs expressions on both sides", t.line, t.col)
    lp = _ExprParser(left, generators, tuple(params)).parse()
    rp = _ExprParser(right, generators, tuple(params)).parse()
    return lp - rp


# ---------------------------------------------------------------------------
# printing

def _coeff_factor(c: Coefficient):
    """Split a coefficient for printing: (negative?, rendered magnitude or None).

    None magnitude means the coefficient is +-1 and should be omitted before
    a nonempty word.
    """
    lead = c.num.leading_coeff()
    neg = lead < 0
    mag = -c if neg else c
    if mag == 1:
        return neg, None
    s = str(mag)
    if mag.den.is_constant() and len(mag.num.terms) > 1:
        s = f"({s})"
    return neg, s


def print_expr(p: NcPoly) -> str:
    """Deterministic rendering: degree-descending, then word-lex ascending."""
    if p.is_zero():
        return "0"
    parts = []
    for w, c in p.sorted_terms():
        neg, mag = _coeff_factor(c)
        word = p.word_str(w)
        if not w:
            body = mag if mag is not None else "1"
        elif mag is None:
            body = word
        else:
            body = f"{mag}*{word}"
        parts.append((neg, body))
    neg, body = parts[0]
    out = ("-" if neg else "") + body
    for neg, body in parts[1:]:
        out += (" - " if neg else " + ") + body
    return out


# ---------------------------------------------------------------------------
# presentation files

_SECTIONS = ("GENERATORS", "PARAMS", "INVOLUTION", "RELATIONS")


class PresentationFile:
    """Parsed sections of a presentation file, before semantic assembly."""

    __slots__ = ("generators", "params", "pairs", "involution_lines", "relations")

    def __init__(self):
        self.generators = []
        self.params = []
        self.pairs = []
        self.involution_lines = []
        self.relations = []  # (text, line_number)


def _strip_comment(line: str) -> str:
    cut = line.find("#")
    return line if cut < 0 else line[:cut]


def parse_presentation_text(text: str):
    """Parse file text into a Presentation (assembled in the ideal module)."""
    from .ideal import Presentation

    pf = PresentationFile()
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
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
                if name in pf.generators:
                    raise ParseError(f"duplicate generator {name!r}", lineno, 1)
                pf.generators.append(name)
        elif section == "PARAMS":
            for entry in line.split():
                if "~" in entry:
                    a, _, b = entry.partition("~")
                    if not (_is_name(a) and _is_name(b)):
                        raise ParseError(f"bad parameter pair {entry!r}", lineno, 1)
                    for n in (a, b):
                        if n not in pf.params:
                            pf.params.append(n)
                    pf.pairs.append((a, b))
                else:
                    if not _is_name(entry):
                        raise ParseError(f"bad parameter name {entry!r}", lineno, 1)
                    if entry not in pf.params:
                        pf.params.append(entry)
        elif section == "INVOLUTION":
            for item in line.split(";"):
                item = item.strip()
                if item:
                    pf.involution_lines.append((item, lineno))
        elif section == "RELATIONS":
            pf.relations.append((line, lineno))
    if not pf.generators:
        raise ParseError("missing GENERATORS section", 1, 1)
    if not pf.relations:
        raise ParseError("missing RELATIONS section", 1, 1)
    if not pf.involution_lines:
        raise ParseError("missing INVOLUTION section", 1, 1)

    gen_index = {g: i for i, g in enumerate(pf.generators)}
    for name in pf.params:
        if name in gen_index:
            raise ParseError(f"{name!r} is both generator and parameter", 1, 1)
    perm = {}
    for item, lineno in pf.involution_lines:
        src, sep, dst = item.partition("->")
        src, dst = src.strip(), dst.strip()
        if not sep or src not in gen_index or dst not in gen_index:
            raise ParseError(f"bad involution item {item!r}", lineno, 1)
        if src in perm:
            raise ParseError(f"generator {src!r} mapped twice", lineno, 1)
        perm[src] = dst
    missing = [g for g in pf.generators if g not in perm]
    if missing:
        raise ParseError(f"involution does not cover {missing[0]!r}", 1, 1)
    for src, dst in perm.items():
        if perm[dst] != src:
            raise ParseError(
                f"involution is not self-inverse at {src!r} -> {dst!r}", 1, 1)
    space: Space = tuple(pf.params)
    conj = ConjugationSpec({a: b for a, b in pf.pairs} |
                           {b: a for a, b in pf.pairs})
    involution = InvolutionSpec(
        tuple(gen_index[perm[g]] for g in pf.generators), conj)
    relations = []
    for text_line, lineno in pf.relations:
        rel = parse_relation(text_line, pf.generators, space, line0=lineno)
        if rel.is_zero():
            raise ParseError("relation is identically zero", lineno, 1)
        relations.append(rel)
    return Presentation(tuple(pf.generators), space, relations, involution)


def parse_presentation(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_presentation_text(fh.read())


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
