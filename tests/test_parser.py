"""Text format: expression round-trips and error positions."""
from __future__ import annotations

import random
import re
import sys
from fractions import Fraction

import pytest

from ckverify.coeff import Coefficient, ConjugationSpec, RATIONALS
from ckverify.ideal import presentations_equivalent
from ckverify.ncpoly import NcPoly
from ckverify.parser import (MAX_NUMBER_DIGITS, _OPS, _TOKEN, ParseError,
                             _is_name, _tokenize, parse_expr,
                             parse_presentation, parse_presentation_text,
                             parse_relation, print_expr, print_presentation)
from ckverify.presentations import (CKMatrix, GENERATORS, SklyaninParams,
                                    cuntz_krieger, ideal_I0, ideal_J0,
                                    ideal_Omega0, sklyanin)

X = GENERATORS


def roundtrip(p):
    return parse_expr(print_expr(p), p.alphabet, p.space)


def test_simple_expressions():
    p = parse_expr("x1*x2 - x2*x1", X)
    x1 = NcPoly.generator(X, RATIONALS, 0)
    x2 = NcPoly.generator(X, RATIONALS, 1)
    assert p == x1 * x2 - x2 * x1
    assert parse_expr("2*x1 + 1/3*x2", X) == x1.scale(2) + x2.scale(Fraction(1, 3))
    assert parse_expr("(x1 + x2)*(x1 - x2)", X) == (x1 + x2) * (x1 - x2)
    assert parse_expr("x1^3", X) == x1 * x1 * x1
    assert parse_expr("-x1", X) == x1.scale(-1)
    assert parse_expr("7", X) == NcPoly.scalar(X, RATIONALS, 7)


def test_parameter_expressions():
    names = ("a",)
    p = parse_expr("a*x1 - (1 - a)*x2", X, names)
    a = Coefficient.param(names, "a")
    one = Coefficient.const(names, 1)
    x1 = NcPoly.generator(X, names, 0)
    x2 = NcPoly.generator(X, names, 1)
    assert p == x1.scale(a) - x2.scale(one - a)


def test_relation_normalizes_equations():
    lhs = parse_relation("x1*x2 - x2*x1 = 0", X)
    assert lhs == parse_expr("x1*x2 - x2*x1", X)
    moved = parse_relation("x1*x2 = x2*x1", X)
    assert moved == parse_expr("x1*x2 - x2*x1", X)


def symbolic_params():
    alpha = Coefficient.param(("alpha",), "alpha")
    return SklyaninParams.of(alpha, 1, -1, ("alpha",))


def test_roundtrip_all_builder_relations():
    """Every relation the builders emit survives print -> parse."""
    systems = [
        sklyanin(SklyaninParams.of(Fraction(1, 5), 1, -1)),
        sklyanin(symbolic_params()),
        cuntz_krieger(CKMatrix.for_modulus(7)),
    ]
    for p in systems:
        for rel in p.relations:
            assert roundtrip(rel) == rel
    for builder in (ideal_I0, ideal_J0, ideal_Omega0):
        for rel in builder():
            assert parse_expr(print_expr(rel), X) == rel


SIX = ("alpha", "alphabar", "beta", "betabar", "gamma", "gammabar")
_BIG = 2 ** 70 + 1

# a magnitude of 1 printed before a monomial ("1*x1", "-1*b"); the printer
# leaves it out, and the parser would read it back all the same
_UNIT_FACTOR = re.compile(r"(?<![\w^/])1\*")


def _random_int(rng):
    return rng.choice((1, -1, rng.randint(-9, 9), rng.randint(-9, 9),
                       rng.choice((1, -1)) * rng.randint(_BIG, 4 * _BIG)))


def _random_poly(rng, names, used):
    """A sum of one to three integer multiples of monomials in used."""
    p = Coefficient.const(names, 0)
    for _ in range(rng.randint(1, 3)):
        t = Coefficient.const(names, _random_int(rng))
        for n in used:
            for _ in range(rng.randint(0, 2)):
                t = t * Coefficient.param(names, n)
        p = p + t
    return p


def _random_coefficient(rng, names):
    """A rational constant (often +-1, sometimes with a numerator past
    2**70) or a quotient of polynomials in one or two of the names; zero
    when the draw cancels."""
    kind = rng.randrange(3) if names else 0
    if kind == 0:
        return Coefficient.const(names, Fraction(
            _random_int(rng), rng.choice((1, 1, rng.randint(2, 12)))))
    used = rng.sample(names, min(kind, len(names)))
    den = _random_poly(rng, names, used)
    while den.is_zero():
        den = _random_poly(rng, names, used)
    return _random_poly(rng, names, used) / den


def test_roundtrip_1000_random_expressions():
    """Parsing is the check of the printed form: a random expression reads
    back as itself, prints again to the same bytes, and prints no unit
    magnitude before a monomial."""
    rng = random.Random(31337)
    names = ("a", "b")
    for _ in range(1000):
        p = NcPoly.zero(X, names)
        for _ in range(rng.randint(1, 5)):
            word = tuple(rng.randrange(4)
                         for _ in range(rng.randint(0, 3)))
            c = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
            if rng.random() < 0.3:
                c = Coefficient.param(names, rng.choice(names)) * c
            if c:
                p = p + NcPoly(X, names, {word: Coefficient.const(names, c)})
        assert roundtrip(p) == p
    b = Coefficient.param(("b",), "b")
    cases = [NcPoly(X, ("b",), {(0,): (b - 2) / (b + 2), (): -b / (b + 2)})]
    for names in (RATIONALS, ("b",), ("a", "b"), SIX):
        for sign in (1, -1):  # +-1 on the empty word, alone and after a word
            cases.append(NcPoly.scalar(X, names, sign))
            cases.append(NcPoly(X, names, {(1, 0): Coefficient.const(
                names, -sign), (): Coefficient.const(names, sign)}))
        for _ in range(250):
            terms = {}
            for _ in range(rng.randint(1, 4)):
                word = tuple(rng.randrange(4)
                             for _ in range(rng.randint(0, 2)))
                c = _random_coefficient(rng, names)
                if c:
                    terms[word] = c
            cases.append(NcPoly(X, names, terms))
    for p in cases:
        text = print_expr(p)
        q = roundtrip(p)
        assert q == p, text
        assert print_expr(q) == text
        assert not _UNIT_FACTOR.search(text), text


def test_error_positions():
    with pytest.raises(ParseError) as e:
        parse_expr("x1 + ", X)
    assert e.value.line == 1
    with pytest.raises(ParseError) as e:
        parse_expr("x1 * x9", X)
    assert e.value.col == 6
    with pytest.raises(ParseError):
        parse_expr("x1 ++ x2", X)
    with pytest.raises(ParseError):
        parse_expr("(x1 + x2", X)
    with pytest.raises(ParseError):
        parse_relation("x1 = x2 = x3", X)


def test_presentation_file_roundtrip():
    p = sklyanin(SklyaninParams.of(Fraction(1, 5), 1, -1))
    text = print_presentation(p)
    q = parse_presentation_text(text)
    assert q.alphabet == p.alphabet
    assert q.relations == p.relations
    assert q.involution == p.involution


def test_presentation_file_symbolic_roundtrip():
    p = sklyanin(symbolic_params())
    text = print_presentation(p)
    q = parse_presentation_text(text)
    assert q.space == p.space
    assert q.relations == p.relations
    assert q.involution == p.involution


def test_presentation_file_paired_params_roundtrip():
    """A declared conjugate pair prints once, as the file declared it, and
    a coefficient in two names survives printing and reading back."""
    text = ("GENERATORS: x1 x2 x3 x4\n"
            "PARAMS: abar~a b\n"
            "INVOLUTION: x1 -> x2; x2 -> x1; x3 -> x4; x4 -> x3\n"
            "RELATIONS:\n"
            "  (a*b - 1)/(a + 2)*x1*x2 - x3*x4\n"
            "  x1*x1 + (abar - a)*b*x4*x4\n")
    p = parse_presentation_text(text)
    assert p.space == ("abar", "a", "b")
    printed = print_presentation(p)
    assert "PARAMS: abar~a b\n" in printed
    q = parse_presentation_text(printed)
    assert q.space == p.space
    assert q.relations == p.relations
    assert q.involution == p.involution
    assert print_presentation(q) == printed


def test_presentation_file_fixed_point_param_roundtrip():
    """A name paired with itself is fixed: the file prints it back as a
    plain parameter, and the file read back has the same involution."""
    text = ("GENERATORS: x1 x2 x3 x4\n"
            "PARAMS: a~a\n"
            "INVOLUTION: x1 -> x2; x2 -> x1; x3 -> x4; x4 -> x3\n"
            "RELATIONS:\n"
            "  a*x1*x2 - x2*x1\n"
            "  x3*x4 - (a + 1)*x4*x3\n")
    p = parse_presentation_text(text)
    assert p.involution.conj == ConjugationSpec()
    printed = print_presentation(p)
    assert "PARAMS: a\n" in printed
    q = parse_presentation_text(printed)
    assert q.involution == p.involution
    assert q.relations == p.relations
    assert presentations_equivalent(p, q).verdict == "EQUIVALENT"


def test_uncancelled_unit_coefficient_prints_as_one():
    """A quotient in two names is not reduced, so (a*b)/(a*b) is stored
    as it is read; it still prints as the coefficient 1."""
    p = parse_expr("(a*b)/(a*b)*x1 - (a*b)/(a*b) + (b-a)/(a-b)*x2", X,
                   ("a", "b"))
    assert print_expr(p) == "x1 - x2 - 1"


def test_presentation_file_errors():
    with pytest.raises(ParseError):
        parse_presentation_text("RELATIONS:\n  x1*x2\n")
    with pytest.raises(ParseError):
        parse_presentation_text(
            "GENERATORS: x1 x2\nINVOLUTION: x1 -> x2; x2 -> x1\n"
            "RELATIONS:\n  x1*x3\n")
    bad = ("GENERATORS: x1 x2\nINVOLUTION: x1 -> x2; x2 -> x1\n"
           "RELATIONS:\n  x1*+x2\n")
    with pytest.raises(ParseError) as e:
        parse_presentation_text(bad)
    assert e.value.line == 4


# Every ParseError branch of the expression parser, with its exact message
# and position: (entry point, text, line0, message, line, column).  "rel"
# rows go through parse_relation, the rest through parse_expr; "a" is the
# one parameter.
_NEST = 101
ERROR_TABLE = [
    ("expr", "(x1 + x2", 1, "unbalanced parentheses", 1, 9),
    ("expr", "(x1 x2)", 1, "unbalanced parentheses", 1, 5),
    ("expr", "x1 + )", 1, "unbalanced parentheses", 1, 6),
    ("expr", "()", 1, "unbalanced parentheses", 1, 2),
    ("expr", "x1 + x2)", 1, "unexpected ')' (missing operator?)", 1, 8),
    ("expr", "x1 x2", 1, "unexpected 'x2' (missing operator?)", 1, 4),
    ("expr", "3x1", 1, "unexpected 'x1' (missing operator?)", 1, 2),
    ("expr", "x1^2^3", 1, "unexpected '^' (missing operator?)", 1, 5),
    ("expr", "x1 007", 1, "unexpected 7 (missing operator?)", 1, 4),
    ("expr", "x1 ٣", 1, "unexpected 3 (missing operator?)", 1, 4),
    ("expr", "x1 = x2", 1, "unexpected '=' (missing operator?)", 1, 4),
    ("expr", "= x1", 1, "unexpected '='", 1, 1),
    ("expr", "x1 + +", 1, "unexpected '+'", 1, 6),
    ("expr", "x1 * y", 1, "unknown identifier 'y'", 1, 6),
    ("expr", "x²", 1, "unknown identifier 'x²'", 1, 1),
    ("expr", "x1^-2", 1, "exponent must be a nonnegative integer", 1, 3),
    ("expr", "x1^x2", 1, "expected integer exponent", 1, 4),
    ("expr", "x1^(2)", 1, "expected integer exponent", 1, 4),
    ("expr", "x1^", 1, "expected integer exponent", 1, 4),
    ("expr", "x1^\t", 1, "expected integer exponent", 1, 5),
    ("expr", "x1^101", 1, "exponent 101 exceeds 100", 1, 4),
    ("expr", "(x1+x2+x3+x4)^7", 1,
     "power of up to 16384 terms exceeds 10000", 1, 14),
    ("expr", "(x1+x2+x3+x4)^6*(x1+x2)^2", 1,
     "product of up to 16384 terms exceeds 10000", 1, 16),
    ("expr", "x1/x2", 1, "division by an expression involving generators",
     1, 3),
    ("expr", "x1/0", 1, "division by zero", 1, 3),
    ("expr", "x1/(a-a)", 1, "division by zero", 1, 3),
    ("expr", "x1/(x2 - x2)", 1, "division by zero", 1, 3),
    ("expr", "(" * _NEST + "x1" + ")" * _NEST, 1,
     "expression nested deeper than 100 levels", 1, 101),
    ("expr", "-" * _NEST + "x1", 1,
     "expression nested deeper than 100 levels", 1, 101),
    ("rel", "x1 = x2 = x3", 1, "more than one '=' in relation", 1, 9),
    ("rel", "= x2", 1, "'=' needs expressions on both sides", 1, 1),
    ("rel", "x1 =", 1, "'=' needs expressions on both sides", 1, 4),
    ("rel", "x1 = ", 1, "'=' needs expressions on both sides", 1, 4),
    ("rel", "(x1 = x2)", 1, "unbalanced parentheses", 1, 10),
    ("expr", "x1 + $", 1, "unexpected character '$'", 1, 6),
    ("expr", "x1 + 3.5", 1, "unexpected character '.'", 1, 7),
    ("expr", "x1 + ½", 1, "unexpected character '½'", 1, 6),
    ("expr", "x1 + ²", 1, "unexpected character '²'", 1, 6),
    ("expr", "x1 + 1²", 3, "unexpected character '²'", 3, 7),
    ("expr", "x1 + \f", 1, "unexpected character '\\x0c'", 1, 6),
    ("expr", "\tx1 $", 1, "unexpected character '$'", 1, 5),
    ("expr", "x1 +\n  x2 $", 1, "unexpected character '$'", 2, 6),
    ("expr", "x1 + $", 7, "unexpected character '$'", 7, 6),
    ("expr", "x1 +\n  x2 $", 7, "unexpected character '$'", 8, 6),
    ("rel", "x1 = x2 = x3", 4, "more than one '=' in relation", 4, 9),
    ("expr", "x1 * y", 12, "unknown identifier 'y'", 12, 6),
    # a number past CPython's int-string limit, refused before int()
    ("expr", "7" * 5000 + "*x1*x2 - x2*x1", 1,
     "number longer than 4300 digits", 1, 1),
    ("expr", "x1^" + "9" * 5000, 1, "number longer than 4300 digits", 1, 4),
    ("expr", "x1*x2 " + "7" * 5000, 1, "number longer than 4300 digits",
     1, 7),
    ("expr", "x1 + " + "٣" * 4301, 1, "number longer than 4300 digits", 1, 6),
    # an expression that ends early, at the end of the input or where a
    # comment on its last line starts
    ("expr", "x1 +", 1, "unexpected end of expression", 1, 5),
    ("expr", "x1 *", 1, "unexpected end of expression", 1, 5),
    ("expr", "-", 1, "unexpected end of expression", 1, 2),
    ("expr", "", 1, "unexpected end of expression", 1, 1),
    ("expr", "x1 + # note", 1, "unexpected end of expression", 1, 6),
    ("expr", "x1 +\r", 1, "unexpected end of expression", 1, 6),
    ("expr", "x1\n+\n", 1, "unexpected end of expression", 3, 1),
    ("expr", "x1 +", 5, "unexpected end of expression", 5, 5),
    ("rel", "x1 + = x2", 1, "unexpected end of expression", 1, 10),
    ("rel", "x1 = x2 +", 1, "unexpected end of expression", 1, 10),
]


@pytest.mark.parametrize("entry, text, line0, message, line, col",
                         ERROR_TABLE,
                         ids=[f"{r[0]}-{r[2]}-{r[1]!r:.30}" for r in ERROR_TABLE])
def test_error_table(entry, text, line0, message, line, col):
    parse = parse_relation if entry == "rel" else parse_expr
    with pytest.raises(ParseError) as e:
        parse(text, X, ("a",), line0=line0)
    assert str(e.value) == f"{message} (line {line}, column {col})"
    assert (e.value.line, e.value.col) == (line, col)


def test_non_decimal_digit_is_a_positioned_error():
    """'²' is a digit to str.isdigit but not to int(); it is refused as a
    character with its position, not with int()'s message."""
    for text, col in (("x1 + ²", 6), ("x1 + 1²", 7), ("²*x1", 1)):
        with pytest.raises(ParseError) as e:
            parse_expr(text, X)
        assert str(e.value) == \
            f"unexpected character '²' (line 1, column {col})"
    assert parse_expr("x1*٣", X) == parse_expr("3*x1", X)  # Arabic-Indic 3


def test_number_at_the_int_string_limit_is_read():
    """A number of 4,300 digits, CPython's default int-string limit, is
    read; a longer one is refused with its position (ERROR_TABLE)."""
    assert parse_expr("7" * 4300 + "*x1", X) == \
        parse_expr("x1", X).scale(int("7" * 4300))


@pytest.mark.parametrize("name, accepted", [
    ("x_1", True), ("_x", True), ("a²", True), ("x٣", True), ("xⅧ", True),
    ("Ⅷ", False), ("²a", False)])
def test_generator_names_are_the_names_expressions_read(name, accepted):
    """A name is accepted in GENERATORS: exactly when parse_expr reads it
    as one generator: its first character is a letter or '_'."""
    text = (f"GENERATORS: {name}\nINVOLUTION: {name} -> {name}\n"
            f"RELATIONS:\n  {name}\n")
    if accepted:
        assert parse_presentation_text(text).alphabet == (name,)
        assert parse_expr(name, (name,)) == \
            NcPoly.generator((name,), RATIONALS, 0)
    else:
        with pytest.raises(ParseError, match="^bad generator name"):
            parse_presentation_text(text)
        with pytest.raises(ParseError, match="^unexpected character"):
            parse_expr(name, (name,))


# Code points of several kinds: letters of several scripts (Lu, Ll, Lt,
# Lm, Lo), '_', numbers that are not decimal digits (No, Nl), combining
# marks (Mn, Mc, Me), decimal digits of several scripts, and others.
_CODE_POINTS = ("aZéßΩжאعक中ǅʰª_" "²³½¼Ⅷ〇" "\u0301\u0903\u20dd"
                "7٣३໓𝟙" "$·€\u00a0")


@pytest.mark.parametrize("c", _CODE_POINTS,
                         ids=[f"U+{ord(c):04X}" for c in _CODE_POINTS])
def test_name_tokens_are_checked_by_their_first_character(c):
    """The tokens of c, x{c} and {c}x are accepted exactly when each is an
    operator, a name by _is_name or a number of at most 4,300 digits."""
    for text in (c, f"x{c}", f"{c}x"):
        tokens = _TOKEN.findall(text)
        if all(not t or t in _OPS or _is_name(t)
               or (t.isdecimal() and len(t) <= MAX_NUMBER_DIGITS)
               for t in tokens):
            assert _tokenize(text, 1) == tokens
        else:
            with pytest.raises(ParseError, match="^unexpected character"):
                _tokenize(text, 1)


def test_word_characters_are_alphanumerics_and_underscore():
    """re's \\w is exactly str.isalnum() or '_' on every code point, so a
    token that _TOKEN reads as a name is \\w+ and its tail always passes
    _is_name: the tokenizer looks at its first character only."""
    text = "".join(map(chr, range(sys.maxunicode + 1)))
    assert set(re.findall(r"\w", text)) == \
        {c for c in text if c.isalnum() or c == "_"}


# Expressions whose literals fold before they meet a name, with the printed
# form of the parser that lifted every literal to a Coefficient at once.
FOLDING_TABLE = [
    ("-3/7*gamma*x1", "-3/7*gamma*x1"),
    ("--3/7*x1", "3/7*x1"),
    ("2/4*x1", "1/2*x1"),
    ("(1/2)/(1/3)*x1", "3/2*x1"),
    ("3/(2/5)*x1", "15/2*x1"),
    ("a/2/3*x1", "1/6*a*x1"),
    ("0/5*x1 + x2", "x2"),
    ("(2*a*b)/(4*a)*x1", "a*b/(2*a)*x1"),
    ("(a-b)/(a-b)*x1", "x1"),
    ("(a^2-b^2)/(a-b)*x1", "(b^2-a^2)/(b-a)*x1"),
    ("(a*b-b)/b*x1", "(a*b-b)/b*x1"),
    ("(a-a+2)*x1", "2*x1"),
    ("(a+1)/(a+1)*x1 - 2/(a+1)*x2", "x1 - 2/(a+1)*x2"),
    ("a*b*x1/(1/2)", "2*a*b*x1"),
    ("-1*(a*b)*x1 + x1*(-1)", "-(a*b+1)*x1"),
    ("(1-a*b)*(-1)/(a*b-1)*x2", "x2"),
    ("x1^3*(2/3)^4 - 16/81*x1^3 + 6/3", "2"),
]


@pytest.mark.parametrize("text, printed", FOLDING_TABLE,
                         ids=[r[0] for r in FOLDING_TABLE])
def test_literals_fold_to_the_same_printed_form(text, printed):
    p = parse_expr(text, X, ("a", "b", "gamma"))
    assert print_expr(p) == printed
    assert all(type(c) is Coefficient for c in p.terms.values())


def test_division_by_a_zero_literal_keeps_its_position():
    for text, col in (("1/0", 2), ("x1/(1-1)", 3)):
        with pytest.raises(ParseError) as e:
            parse_expr(text, X)
        assert str(e.value) == f"division by zero (line 1, column {col})"


def test_early_end_is_reported_as_such():
    for text, col in (("x1 +", 5), ("x1 *", 5), ("-", 2), ("", 1),
                      ("(x1 - ", 7)):
        with pytest.raises(ParseError) as e:
            parse_expr(text, X)
        assert str(e.value) == \
            f"unexpected end of expression (line 1, column {col})"


def test_presentation_error_positions_count_from_the_file():
    head = ("GENERATORS: x1 x2\nINVOLUTION: x1 -> x2; x2 -> x1\n"
            "RELATIONS:\n  x1*x2\n")
    for rel, message in (("x1 + ²", "unexpected character '²' (line 5, "
                                    "column 8)"),
                         ("x1*x2 -", "unexpected end of expression (line 5, "
                                     "column 10)")):
        with pytest.raises(ParseError) as e:
            parse_presentation_text(head + "  " + rel + "\n")
        assert str(e.value) == message


@pytest.mark.parametrize("body, line, col", [
    ("RELATIONS:\n  x1*x2 + ²\n", 4, 11),
    ("RELATIONS: x1*x2 + ²\n", 3, 20),
    ("RELATIONS:\n\tx1*x2 + ²\n", 4, 10),
    ("relations:\t x1 = x2 = x1  # note\n", 3, 21),
    ("RELATIONS:\n  x1*x2 -   # note\n", 4, 10)],
    ids=["indented", "header_line", "tab", "header_tab", "comment"])
def test_relation_columns_count_from_the_line(body, line, col):
    """A relation's error columns count from its file line: the blanks
    before it, and a section header on the same line, are counted, and a
    tab is one column."""
    with pytest.raises(ParseError) as e:
        parse_presentation_text("GENERATORS: x1 x2\n"
                                "INVOLUTION: x1 -> x2; x2 -> x1\n" + body)
    assert (e.value.line, e.value.col) == (line, col)


_BIG_LITERAL = "7" * MAX_NUMBER_DIGITS


@pytest.mark.parametrize("relation", [
    f"{_BIG_LITERAL}*{_BIG_LITERAL}*x1*x2 - x2*x1",
    "((2^100)^100)^2*x1*x2 - x2*x1",
    f"x1 - 1/(10*{'9' * MAX_NUMBER_DIGITS})*x2",
    f"{_BIG_LITERAL}*{_BIG_LITERAL}*a*x1 + x2"],
    ids=["product", "power", "denominator", "named"])
def test_coefficient_past_the_digit_limit_is_refused_at_its_line(relation):
    """A coefficient with an integer of more than 4,300 digits could not be
    printed; it is refused at its relation's line, first column."""
    text = ("GENERATORS: x1 x2\nPARAMS: a\n"
            "INVOLUTION: x1 -> x2; x2 -> x1\nRELATIONS:\n"
            f"  x1*x2\n    {relation}\n")
    message = "coefficient longer than 4300 digits"
    with pytest.raises(ParseError) as e:
        parse_presentation_text(text)
    assert str(e.value) == f"{message} (line 6, column 1)"
    for parse in (parse_expr, parse_relation):
        with pytest.raises(ParseError) as e:
            parse(relation, X, ("a",), line0=3)
        assert str(e.value) == f"{message} (line 3, column 1)"


def test_coefficient_at_the_digit_limit_parses_and_prints():
    """Coefficients of exactly 4,300 digits, a literal and a product, are
    read and printed back."""
    nines = "9" * MAX_NUMBER_DIGITS
    product = 10 ** 99 * int("9" * (MAX_NUMBER_DIGITS - 99))
    assert len(str(product)) == MAX_NUMBER_DIGITS
    for text, printed in (
            (f"{nines}*x1 - x2", f"{nines}*x1 - x2"),
            (f"10^99*{'9' * (MAX_NUMBER_DIGITS - 99)}*x1", f"{product}*x1"),
            (f"x1/{nines}", f"1/{nines}*x1")):
        assert print_expr(parse_expr(text, X)) == printed


_UNDECODABLE = (b"GENERATORS: x1 x2\nINVOLUTION: x1 -> x2; x2 -> x1\n"
                b"RELATIONS:\n  x1*x2 \xc3\xa9 \xff - x2*x1\n")


@pytest.mark.parametrize("data, line, col", [
    (_UNDECODABLE, 4, 11),
    (b"\xef\xbb\xbf" + _UNDECODABLE, 4, 11),
    (b"\xef\xbb\xbf\xff" + _UNDECODABLE, 1, 1),
    (b"# \xc3\xa9\r\xff" + _UNDECODABLE, 2, 1)],
    ids=["plain", "bom", "first_byte_after_bom", "after_cr"])
def test_undecodable_byte_is_refused_at_its_line_and_column(
        data, line, col, tmp_path):
    """A byte that is not UTF-8 is refused with its line and column: the
    characters decoded before it on its line, plus 1.  A byte-order mark
    is not one of them."""
    f = tmp_path / "p.pres"
    f.write_bytes(data)
    with pytest.raises(ParseError) as e:
        parse_presentation(f)
    assert str(e.value) == \
        f"invalid UTF-8 byte 0xff (line {line}, column {col})"


def test_byte_order_mark_is_skipped(tmp_path):
    text = print_presentation(sklyanin(symbolic_params()))
    f = tmp_path / "p.pres"
    f.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert print_presentation(parse_presentation(f)) == text


# Every ParseError that parse_presentation_text raises itself, with its exact
# message and position: (file text, message, line, column).  A file-wide
# check (a missing section, a generator the involution leaves out) names
# line 1, column 1; a name both generator and parameter names the first
# PARAMS line that declares it, and an involution that is not self-inverse
# the line of the first item where it fails.
_GEN = "GENERATORS: x1 x2\n"
_INV = "INVOLUTION: x1 -> x2; x2 -> x1\n"
_REL = "RELATIONS:\n  x1*x2\n"
FILE_ERROR_TABLE = [
    ("# header\nx1 x2\n" + _GEN + _INV + _REL,
     "content before any section header", 2, 1),
    ("GENERATORS: x1 2x\n" + _INV + _REL, "bad generator name '2x'", 1, 1),
    (_GEN + "GENERATORS: x2\n" + _INV + _REL, "duplicate generator 'x2'",
     2, 1),
    (_GEN + "PARAMS: a~2b\n" + _INV + _REL, "bad parameter pair 'a~2b'",
     2, 1),
    (_GEN + "PARAMS: a~b\nPARAMS: c b~c\n" + _INV + _REL,
     "parameter 'b' paired with both 'a' and 'c'", 3, 1),
    (_GEN + "PARAMS: a 1b\n" + _INV + _REL, "bad parameter name '1b'",
     2, 1),
    (_INV + _REL, "missing GENERATORS section", 1, 1),
    (_GEN + _INV, "missing RELATIONS section", 1, 1),
    (_GEN + _REL, "missing INVOLUTION section", 1, 1),
    (_GEN + "PARAMS: a~x2\n" + _INV + _REL,
     "'x2' is both generator and parameter", 2, 1),
    (_GEN + "PARAMS: a\nPARAMS: b~x1\nPARAMS: x1~b\n" + _INV + _REL,
     "'x1' is both generator and parameter", 3, 1),
    (_GEN + "INVOLUTION: x1 -> x2; x2 x1\n" + _REL,
     "bad involution item 'x2 x1'", 2, 1),
    (_GEN + _INV + "INVOLUTION: x2 -> x1\n" + _REL,
     "generator 'x2' mapped twice", 3, 1),
    (_GEN + "INVOLUTION: x1 -> x1\n" + _REL,
     "involution does not cover 'x2'", 1, 1),
    ("GENERATORS: x1 x2 x3\nINVOLUTION: x1 -> x2; x2 -> x3; x3 -> x1\n"
     + _REL, "involution is not self-inverse at 'x1' -> 'x2'", 2, 1),
    ("GENERATORS: x1 x2 x3\nINVOLUTION: x3 -> x3\n  x2 -> x1\n  x1 -> x1\n"
     + _REL, "involution is not self-inverse at 'x2' -> 'x1'", 3, 1),
    (_GEN + _INV + _REL + "  x1 - 2*x1 + x1\n",
     "relation is identically zero", 5, 1),
]


@pytest.mark.parametrize("text, message, line, col", FILE_ERROR_TABLE,
                         ids=[r[1][:40] for r in FILE_ERROR_TABLE])
def test_file_error_table(text, message, line, col):
    with pytest.raises(ParseError) as e:
        parse_presentation_text(text)
    assert str(e.value) == f"{message} (line {line}, column {col})"
    assert (e.value.line, e.value.col) == (line, col)


# ---------------------------------------------------------------------------
# valid relations against sympy's reading of the same text

PARAMS = ("a", "b", "c")


def _random_relation(rng) -> str:
    """Seeded relation text: sums of products of generators, parameters,
    integers, rationals and parameter quotients, with parentheses, powers,
    unary minus and sometimes '='."""
    def factor(depth):
        roll = rng.random()
        if roll < 0.35:
            f = rng.choice(X)
        elif roll < 0.5:
            f = rng.choice(PARAMS)
        elif roll < 0.62:
            f = str(rng.randint(0, 12))
        elif roll < 0.72:
            f = f"{rng.randint(1, 9)}/{rng.randint(1, 9)}"
        elif roll < 0.8:  # a parameter quotient
            f = (f"({rng.choice(PARAMS)} + {rng.randint(1, 5)})"
                 f"/({rng.choice(PARAMS)} - {rng.randint(1, 5)})")
        elif depth < 2:  # a group, squared at most (sympy expands it)
            f = f"({expr(depth + 1)})"
            return f + f"^{rng.randint(0, 2)}" if rng.random() < 0.1 else f
        else:
            f = rng.choice(X)
        if rng.random() < 0.15:
            f += f"^{rng.randint(0, 3)}"
        return f

    def term(depth):
        t = "*".join(factor(depth) for _ in range(rng.randint(1, 3)))
        return ("-" * rng.randint(0, 2)) + t if rng.random() < 0.3 else t

    def expr(depth):
        out = term(depth)
        for _ in range(rng.randint(0, 2 if depth else 3)):
            out += rng.choice((" + ", " - ")) + term(depth)
        return out

    text = expr(0)
    return text + " = " + expr(0) if rng.random() < 0.4 else text


def test_parses_match_sympy_on_random_relations():
    pytest.importorskip("sympy")
    from oracles import coefficient_matches, sympy_relation
    rng = random.Random(2024)
    seen = {"multi": 0, "eq": 0}
    for _ in range(100):
        text = _random_relation(rng)
        expected = sympy_relation(text, X, PARAMS)
        p = parse_relation(text, X, PARAMS)
        assert set(p.terms) == set(expected), text
        for w, c in p.terms.items():
            assert coefficient_matches(c, expected[w], PARAMS), (text, w)
            seen["multi"] += c._idx is None
        seen["eq"] += "=" in text
    assert seen["multi"] > 100 and seen["eq"] > 30, seen
