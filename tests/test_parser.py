"""Text format: expression round-trips and error positions."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest

from ckverify.coeff import RATIONALS
from ckverify.ncpoly import NcPoly
from ckverify.parser import (ParseError, parse_expr, parse_presentation_text,
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
    from ckverify.coeff import Coefficient
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
    from ckverify.coeff import Coefficient
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


def test_roundtrip_1000_random_expressions():
    rng = random.Random(31337)
    names = ("a", "b")
    for _ in range(1000):
        p = NcPoly.zero(X, names)
        for _ in range(rng.randint(1, 5)):
            word = tuple(rng.randrange(4)
                         for _ in range(rng.randint(0, 3)))
            c = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
            if rng.random() < 0.3:
                from ckverify.coeff import Coefficient
                c = Coefficient.param(names, rng.choice(names)) * c
            if c:
                p = p + NcPoly.monomial(X, names, word, c)
        assert roundtrip(p) == p


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
                                    "column 6)"),
                         ("x1*x2 -", "unexpected end of expression (line 5, "
                                     "column 8)")):
        with pytest.raises(ParseError) as e:
            parse_presentation_text(head + "  " + rel + "\n")
        assert str(e.value) == message


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
