"""Exact scalar layer: multivariate polynomials and rational functions."""
from __future__ import annotations

import operator
import random
from fractions import Fraction
from math import gcd

import pytest

from ckverify.coeff import (
    Coefficient, ConjugationSpec, MultiPoly, PoleError, RATIONALS)
from ckverify.coeff import _gcd, _ipoly_mul, _qt
from oracles import (coefficient_conjugate, coefficient_factor,
                     coefficient_param, coefficient_str, prs_gcd)

AB = ("a", "b")


def test_multipoly_constants():
    one = MultiPoly.const(AB, 1)
    zero = MultiPoly.const(AB, 0)
    assert one.is_constant() and one.constant_value() == 1
    assert zero.is_zero()
    assert not one.is_zero()
    assert (one - one).is_zero()
    assert MultiPoly.const(RATIONALS, Fraction(3, 7)).constant_value() == Fraction(3, 7)


def test_multipoly_ring_laws():
    rng = random.Random(20240)
    for _ in range(50):
        polys = []
        for _ in range(3):
            p = MultiPoly.const(AB, 0)
            for _ in range(rng.randint(1, 4)):
                e = (rng.randint(0, 2), rng.randint(0, 2))
                c = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                p = p + MultiPoly(AB, {e: c}) if c else p
            polys.append(p)
        p, q, r = polys
        assert p + q == q + p
        assert p * q == q * p
        assert p * (q + r) == p * q + p * r
        assert (p * q) * r == p * (q * r)
        assert (p - p).is_zero()


def test_multipoly_pow_and_substitute():
    a = MultiPoly.var(AB, "a")
    b = MultiPoly.var(AB, "b")
    assert (a + b) ** 2 == a * a + a * b.scaled(2) + b * b
    assert a ** 0 == MultiPoly.const(AB, 1)
    s = (a * a - b).substitute({"a": b})
    assert s == b * b - b
    # unbound names survive substitution
    assert a.substitute({"b": MultiPoly.const(AB, 5)}) == a


def test_coefficient_normalization():
    a = Coefficient.param(("a",), "a")
    one = Coefficient.const(("a",), 1)
    # (a^2 - 1)/(a - 1) reduces to a + 1
    num = a * a - one
    den = a - one
    assert num / den == a + one
    # constant denominators fold away
    half = Coefficient.const(("a",), Fraction(1, 2))
    assert (a / 2).den.is_constant()
    assert a / 2 == a * half


def test_coefficient_cross_equality():
    a = Coefficient.param(("a",), "a")
    one = Coefficient.const(("a",), 1)
    lhs = (one + a) / (one - a)
    rhs = (a + one) / (one - a)
    assert lhs == rhs
    assert lhs != (one - a) / (one + a)
    assert lhs * (one - a) == one + a


def test_coefficient_int_fraction_coercion():
    a = Coefficient.param(("a",), "a")
    assert a + 1 == 1 + a
    assert a * 2 == 2 * a
    assert a - Fraction(1, 2) == -(Fraction(1, 2) - a)
    assert (a / 2) * 2 == a
    assert 1 / (a + 1) == (a + 1).inv()


def test_coefficient_pole_detection():
    a = Coefficient.param(("a",), "a")
    zero = Coefficient.const(("a",), 0)
    with pytest.raises(PoleError):
        a / zero
    with pytest.raises(PoleError):
        zero.inv()


def test_explicit_zero_terms_are_dropped():
    """A MultiPoly given with an explicit zero coefficient is the zero
    polynomial there: as a denominator it is a pole, as a numerator a zero
    with the canonical zero pair."""
    zero = MultiPoly(("a",), {(2,): 0})
    one = MultiPoly.const(("a",), 1)
    with pytest.raises(PoleError):
        Coefficient(one, zero)
    c = Coefficient(zero, one)
    assert c.is_zero() and c == Coefficient.const(("a",), 0)
    assert str(c) == "0"
    # in two names, and next to nonzero terms, the zero terms go too
    ab = ("a", "b")
    c = Coefficient(MultiPoly(ab, {(2, 0): 0, (1, 1): 3}),
                    MultiPoly(ab, {(1, 0): 0, (0, 1): -2}))
    assert c == Coefficient.param(ab, "a") * Fraction(-3, 2)


def test_coefficient_substitute():
    a = Coefficient.param(("a",), "a")
    one = Coefficient.const(("a",), 1)
    f = (one + a) / (one - a)
    assert f.substitute({"a": Fraction(1, 3)}) == Coefficient.const(("a",), 2)
    with pytest.raises(PoleError):
        f.substitute({"a": 1})


def test_coefficient_rational_detection():
    a = Coefficient.param(("a",), "a")
    c = Coefficient.const(("a",), Fraction(-2, 5))
    assert c.is_rational() and c.as_fraction() == Fraction(-2, 5)
    assert not a.is_rational()
    cancelled = (a * 3) / a
    assert cancelled.is_rational() and cancelled.as_fraction() == 3


def test_conjugation_spec():
    spec = ConjugationSpec({"a": "abar", "abar": "a"})
    names = ("a", "abar")
    f = Coefficient.param(names, "a") + 2
    g = f.conjugate(spec)
    assert g == Coefficient.param(names, "abar") + 2
    assert g.conjugate(spec) == f
    # identity conjugation fixes everything
    assert f.conjugate(ConjugationSpec()) == f


def test_conjugation_requires_self_inverse():
    with pytest.raises(ValueError):
        ConjugationSpec({"a": "b"})


def test_extend_names():
    a = Coefficient.param(("a",), "a")
    wide = a.extend(("a", "b"))
    b = Coefficient.param(("a", "b"), "b")
    assert wide.names == ("a", "b")
    assert wide + b == b + wide


def test_random_field_laws():
    rng = random.Random(77)
    names = ("a",)

    def rand_coeff():
        num = MultiPoly.const(names, 0)
        for _ in range(rng.randint(1, 3)):
            num = num + MultiPoly(names, {(rng.randint(0, 2),):
                                          Fraction(rng.randint(-4, 4))})
        den = MultiPoly(names, {(rng.randint(0, 1),):
                                Fraction(rng.randint(1, 3))})
        return Coefficient(num, den)

    for _ in range(60):
        f, g, h = rand_coeff(), rand_coeff(), rand_coeff()
        assert f + g == g + f
        assert f * (g + h) == f * g + f * h
        assert (f - g) + g == f
        if not g.is_zero():
            assert (f / g) * g == f


# ---------------------------------------------------------------------------
# the integer kernel over at most one name, against sympy as an oracle

def _rand_poly(rng, names, name, max_deg, bits):
    p = MultiPoly.const(names, 0)
    for k in range(rng.randint(0, max_deg) + 1):
        c = rng.randint(-2 ** bits, 2 ** bits)
        if c:
            p = p + MultiPoly.var(names, name) ** k * MultiPoly.const(names, c)
    return p


def _sympy_pair(c: Coefficient, gens):
    """(numerator, denominator) of c as sympy Polys over QQ in gens."""
    import sympy

    def conv(p):
        return sympy.Poly.from_dict(
            {e: sympy.Rational(v.numerator, v.denominator)
             for e, v in p.terms.items()} or {(0,) * len(gens): 0},
            *gens, domain="QQ")
    return conv(c.num), conv(c.den)


def _assert_value(c: Coefficient, expected, gens):
    """c equals the sympy pair expected = (num, den), compared after
    sympy.cancel by cross-multiplication."""
    import sympy
    scale, num, den = sympy.cancel(expected)
    cn, cd = _sympy_pair(c, gens)
    assert cn * den == cd * num * scale


def _assert_canonical(c: Coefficient, gens):
    """num and den coprime, integer and jointly primitive, with a positive
    leading denominator coefficient."""
    import sympy
    coeffs = list(c.num.terms.values()) + list(c.den.terms.values())
    assert all(v.denominator == 1 for v in coeffs)
    g = 0
    for v in coeffs:
        g = gcd(g, v.numerator)
    assert g == 1
    assert c.den.leading_coeff() > 0
    assert sympy.gcd(*_sympy_pair(c, gens)).is_ground


def test_kernel_matches_sympy_on_random_rational_functions():
    sympy = pytest.importorskip("sympy")
    names = ("t",)
    gens = (sympy.Symbol("t"),)
    rng = random.Random(4041)
    t = MultiPoly.var(names, "t")

    def rand_coeff():
        den = MultiPoly.const(names, 0)
        while den.is_zero():
            den = _rand_poly(rng, names, "t", 3, 40)
        # a factor with an integer root, so that substitution meets poles
        den = den * (t - MultiPoly.const(names, rng.randint(-3, 3)))
        num = _rand_poly(rng, names, "t", 6, 40)
        if rng.random() < 0.3:  # a common factor for the GCD to find
            shift = t + MultiPoly.const(names, rng.randint(-3, 3))
            num, den = num * shift, den * shift
        return Coefficient(num, den)

    for _ in range(40):
        f, g = rand_coeff(), rand_coeff()
        (fn, fd), (gn, gd) = _sympy_pair(f, gens), _sympy_pair(g, gens)
        results = [(f + g, (fn * gd + gn * fd, fd * gd)),
                   (f - g, (fn * gd - gn * fd, fd * gd)),
                   (f * g, (fn * gn, fd * gd)),
                   (-f, (-fn, fd)),
                   (f + 3, (fn + 3 * fd, fd)),
                   (Fraction(2, 7) * f, (2 * fn, 7 * fd))]
        if g.is_zero():
            with pytest.raises(PoleError):
                g.inv()
        else:
            results += [(f / g, (fn * gd, fd * gn)), (g.inv(), (gd, gn))]
            assert (f * g) / g == f
        for c, expected in results:
            _assert_value(c, expected, gens)
            _assert_canonical(c, gens)
        _, fn, fd = sympy.cancel((fn, fd))
        for point in range(-4, 5):
            if fd.eval(point) == 0:
                with pytest.raises(PoleError):
                    f.substitute({"t": point})
            else:
                value = f.substitute({"t": point})
                assert value.is_rational()
                expected = sympy.Rational(fn.eval(point), fd.eval(point))
                assert value.as_fraction() == Fraction(int(expected.p),
                                                       int(expected.q))


def test_kernel_over_q_and_one_name_of_six():
    sympy = pytest.importorskip("sympy")
    q = Coefficient.const(RATIONALS, Fraction(-6, 4))
    assert (q * 2 + 1).as_fraction() == -2
    assert str(q.inv()) == "-2/3"
    six = ("alpha", "beta", "gamma", "alphabar", "betabar", "gammabar")
    one = ("alpha",)
    gens = sympy.symbols(six)
    rng = random.Random(4042)
    ops = [(lambda x, y: x + y, lambda a, b: (a[0] * b[1] + b[0] * a[1],
                                             a[1] * b[1])),
           (lambda x, y: x * y, lambda a, b: (a[0] * b[0], a[1] * b[1])),
           (lambda x, y: x / y, lambda a, b: (a[0] * b[1], a[1] * b[0]))]
    for _ in range(10):
        polys = [_rand_poly(rng, one, "alpha", 4, 20) for _ in range(4)]
        if any(p.is_zero() for p in polys[1:]):
            continue
        narrow = [Coefficient(polys[0], polys[1]),
                  Coefficient(polys[2], polys[3])]
        wide = [c.extend(six) for c in narrow]
        pairs = [_sympy_pair(c, gens) for c in wide]
        for op, pair_op in ops:
            n, w = op(*narrow), op(*wide)
            # only alpha occurs, so the six-name value takes the same GCD
            # and the same canonical form as the one-name value
            assert str(w) == str(n)
            _assert_value(w, pair_op(*pairs), gens)
            _assert_canonical(w, gens)
    # alpha-only against beta-only values: a result that keeps both names is
    # a MultiPoly quotient, and one in which a single name is left again is
    # stored, printed and compared like that name's own value
    def rand_value(name, polynomial):
        while True:
            num = _rand_poly(rng, six, name, 3, 20)
            den = MultiPoly.const(six, rng.randint(1, 9)) if polynomial \
                else _rand_poly(rng, six, name, 3, 20)
            if not num.is_zero() and not den.is_zero():
                value = Coefficient(num, den)
                if not value.is_rational():
                    return value

    for i in range(12):
        x, y = rand_value("alpha", False), rand_value("beta", i % 2 == 0)
        (xn, xd), (yn, yd) = _sympy_pair(x, gens), _sympy_pair(y, gens)
        # (x + y) - y is left in alpha alone exactly when y's denominator is
        # constant; (x * y) / y keeps both names, as no multivariate GCD is
        # taken
        for c, expected, left, one_name in [
                (x + y, (xn * yd + yn * xd, xd * yd), None, False),
                (x * y, (xn * yn, xd * yd), None, False),
                ((x + y) - y, (xn, xd), x, y.den.is_constant()),
                ((x * y) / y, (xn, xd), x, False),
                ((y * x) / x, (yn, yd), y, False)]:
            _assert_value(c, expected, gens)
            assert (len(c.num.used_names() | c.den.used_names()) < 2) \
                == one_name
            assert (c - c).is_zero() and str(c - c) == "0"
            if left is None:
                continue
            assert c == left and left == c and c != left + 1
            if one_name:
                assert (c.num, c.den) == (left.num, left.den)
                assert str(c) == str(left)
                _assert_canonical(c, gens)


# ---------------------------------------------------------------------------
# printing, conjugation and param on the integer pair, against the MultiPoly
# route

SIX = ("alpha", "alphabar", "beta", "betabar", "gamma", "gammabar")
# alpha and alphabar are fixed (as in the identified lemma1 stages), the
# other names paired
SIX_SPEC = ConjugationSpec({"beta": "betabar", "betabar": "beta",
                            "gamma": "gammabar", "gammabar": "gamma"})


def _one_name_value(rng, name):
    """A seeded value in one of SIX's names: over a constant, a monomial or
    a polynomial denominator, with small coefficients so that 1, -1 and
    missing powers are common."""
    var = MultiPoly.var(SIX, name)
    while True:
        num = _rand_poly(rng, SIX, name, 4, rng.choice((1, 2, 30)))
        kind = rng.randrange(3)
        if kind == 0:
            den = MultiPoly.const(SIX, rng.randint(1, 12))
        elif kind == 1:
            den = var ** rng.randint(1, 3) * \
                MultiPoly.const(SIX, rng.choice((1, 1, 2, 5)))
        else:
            den = _rand_poly(rng, SIX, name, 3, rng.choice((1, 2)))
        if num.is_zero() or den.is_zero():
            continue
        value = Coefficient(num, den)
        if not value.is_rational():
            return value


def _assert_same(c, expected):
    assert (c.names, c.num, c.den) == (expected.names, expected.num,
                                       expected.den)
    assert str(c) == str(expected)


def test_one_name_paths_match_multipoly_route():
    rng = random.Random(8008)
    printed = set()
    for i in range(600):
        c = _one_name_value(rng, SIX[i % len(SIX)])
        for v in (c, -c):
            printed.add(str(v))
            assert str(v) == coefficient_str(v)
            assert v.sign_split() == coefficient_factor(v)
            _assert_same(v.conjugate(SIX_SPEC),
                         coefficient_conjugate(v, SIX_SPEC))
    for name in SIX:
        p = Coefficient.param(SIX, name)
        _assert_same(p, coefficient_param(SIX, name))
        assert (str(p), p.sign_split()) == (name, (False, name))
        _assert_same(p.conjugate(SIX_SPEC), Coefficient.param(
            SIX, SIX_SPEC(name)))
    # the seeded values reach every branch of the printed form: a bare and
    # a parenthesised numerator and denominator, a leading minus, powers
    # and reduced fractions
    for part in ("(-", ")/(", "/(", "/alpha", "^", "1/7*", "/5", "-"):
        assert any(part in t for t in printed), part


def test_constants_match_multipoly_route():
    rng = random.Random(8009)
    values = [Fraction(0), Fraction(1), Fraction(-1), Fraction(7),
              Fraction(-3, 7)]
    values += [Fraction(rng.randint(-50, 50), rng.randint(1, 50))
               for _ in range(200)]
    for q in values:
        for names, spec in ((RATIONALS, ConjugationSpec()), (SIX, SIX_SPEC)):
            c = Coefficient.const(names, q)
            assert str(c) == coefficient_str(c)
            assert c.sign_split() == coefficient_factor(c)
            _assert_same(c.conjugate(spec), coefficient_conjugate(c, spec))


def _multi_name_value(rng, used):
    """A seeded value over SIX that uses two or three of its names, built
    from MultiPolys with Fraction coefficients."""
    def poly():
        p = MultiPoly.const(SIX, 0)
        for _ in range(rng.randint(1, 3)):
            mono = MultiPoly.const(SIX, Fraction(rng.randint(-6, 6),
                                                 rng.choice((1, 1, 2, 3))))
            for n in used:
                mono = mono * MultiPoly.var(SIX, n) ** rng.randint(0, 2)
            p = p + mono
        return p
    while True:
        num, den = poly(), poly()
        if num.is_zero() or den.is_zero():
            continue
        c = Coefficient(num, den)
        if c._idx is None:
            return c


def test_multi_name_conjugates_match_the_relabelling_oracle():
    rng = random.Random(8010)
    beta, betabar, gamma = (Coefficient.param(SIX, n)
                            for n in ("beta", "betabar", "gamma"))
    # stored as (-beta*gamma)/(betabar-beta); relabelled, the denominator
    # beta-betabar leads with -betabar, so it is rescaled by -1
    values = [gamma * beta / (beta - betabar)]
    while len(values) < 400:
        values.append(_multi_name_value(
            rng, rng.sample(SIX, rng.choice((2, 3)))))
    moved = 0
    for c in values:
        for v in (c, -c):
            w = v.conjugate(SIX_SPEC)
            _assert_same(w, coefficient_conjugate(v, SIX_SPEC))
            _assert_same(w.conjugate(SIX_SPEC), v)
            moved += w.num != v.num or w.den != v.den
    assert (str(values[0]), str(values[0].conjugate(SIX_SPEC))) == \
        ("(-beta*gamma)/(betabar-beta)", "betabar*gammabar/(betabar-beta)")
    assert moved > 600


def test_one_name_paths_keep_their_errors():
    alpha = Coefficient.param(SIX, "alpha") + 2
    outside = ConjugationSpec({"alpha": "delta", "delta": "alpha"})
    for route in (alpha.conjugate, lambda s: coefficient_conjugate(alpha, s)):
        with pytest.raises(KeyError):
            route(outside)
    for build in (Coefficient.param, coefficient_param):
        with pytest.raises(KeyError):
            build(SIX, "delta")


# ---------------------------------------------------------------------------
# values in two or more names: int MultiPolys, against sympy as an oracle

def _assert_pair(c: Coefficient, expected, gens):
    """c equals the quotient of the sympy Polys expected = (num, den): the
    cross-products agree."""
    n, d = expected
    cn, cd = _sympy_pair(c, gens)
    assert cn * d == cd * n


def _assert_int_storage(c: Coefficient):
    """A value in two or more names holds int MultiPolys with jointly
    primitive content and a positive leading denominator coefficient."""
    assert c._idx is None
    coeffs = list(c._num.terms.values()) + list(c._den.terms.values())
    assert all(type(v) is int for v in coeffs)
    assert gcd(*coeffs) == 1
    assert c._den.leading_coeff() > 0


def _multi_value(rng, names):
    """A seeded value that uses at least two of names, built from
    MultiPolys with Fraction coefficients."""
    while True:
        def poly():
            p = MultiPoly.const(names, 0)
            for _ in range(rng.randint(1, 4)):
                mono = MultiPoly.const(names, Fraction(rng.randint(-9, 9),
                                                       rng.randint(1, 6)))
                for n in names:
                    mono = mono * MultiPoly.var(names, n) ** rng.randint(0, 2)
                p = p + mono
            return p
        num, den = poly(), poly()
        if num.is_zero() or den.is_zero():
            continue
        c = Coefficient(num, den)
        if c._idx is None:
            return c


@pytest.mark.parametrize("names", [("a", "b"), ("a", "b", "c")])
def test_multi_name_values_are_int_and_match_sympy(names):
    sympy = pytest.importorskip("sympy")
    gens = sympy.symbols(names)
    rng = random.Random(9090 + len(names))
    for _ in range(30):
        f, g = _multi_value(rng, names), _multi_value(rng, names)
        (fn, fd), (gn, gd) = _sympy_pair(f, gens), _sympy_pair(g, gens)
        results = [(f + g, (fn * gd + gn * fd, fd * gd)),
                   (f - g, (fn * gd - gn * fd, fd * gd)),
                   (f * g, (fn * gn, fd * gd)), (f / g, (fn * gd, fd * gn)),
                   (-f, (-fn, fd)), (0 - f, (-fn, fd)),
                   (f + 3, (fn + 3 * fd, fd)),
                   (Fraction(2, 7) * f, (2 * fn, 7 * fd)),
                   (f * Coefficient.param(names, "a"), (fn * gens[0], fd))]
        for c, expected in results:
            _assert_pair(c, expected, gens)
        for c, _ in [(f, None), (g, None)] + results:
            if c._idx is None:
                _assert_int_storage(c)
        assert (f == g) == (fn * gd == gn * fd)
        assert (f + g) - g == f
        assert f * g / g == f
        assert f != f + 1


@pytest.mark.parametrize("names", [("a", "b"), ("a", "b", "c")])
def test_multi_name_sign_split_matches_multipoly_route(names):
    rng = random.Random(4040 + len(names))
    signs = set()
    for _ in range(200):
        c = _multi_value(rng, names)
        # c / c and -c / c keep both names uncancelled and equal 1 and -1
        for v in (c, -c, c * Coefficient.param(names, "a"), c / c, -c / c):
            assert v.sign_split() == coefficient_factor(v)
            signs.add(v.sign_split()[0])
    assert signs == {False, True}
    ab = Coefficient.param(names, "a") * Coefficient.param(names, "b")
    assert ((ab / ab).sign_split(), (-ab / ab).sign_split()) == \
        ((False, None), (True, None))


def test_int_multi_name_printing_and_reading():
    names = ("a", "b")
    a, b = (Coefficient.param(names, n) for n in names)
    c = (a * a - b * b) / (a - b)
    _assert_int_storage(c)
    assert str(c) == "(b^2-a^2)/(b-a)"
    assert str(a * b / 6) == "1/6*a*b"
    assert str((a + b) / (3 * a * b)) == "(b+a)/(3*a*b)"
    assert c.substitute({"a": Coefficient.const(names, 3)}) == b + 3
    half = Coefficient(MultiPoly.var(names, "a") * MultiPoly.var(names, "b"),
                       MultiPoly.const(names, Fraction(2, 3)))
    _assert_int_storage(half)
    assert str(half) == "3/2*a*b"


# ---------------------------------------------------------------------------
# the one-name kernel's sum paths: one denominator, two constant ones

def test_one_name_sums_over_constant_and_equal_denominators():
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    gens = (t,)
    names = ("t",)
    rng = random.Random(7070)
    var = MultiPoly.var(names, "t")
    shared = var * var + MultiPoly.const(names, 1)  # irreducible over Q
    seen = {"constant": 0, "equal": 0}
    for _ in range(120):
        kind = rng.choice(("constant", "equal"))
        pair = []
        for _ in range(2):
            num = MultiPoly.const(names, 0)
            while num.is_zero():
                num = _rand_poly(rng, names, "t", 4, rng.choice((2, 30)))
            den = MultiPoly.const(names, rng.randint(1, 12)) \
                if kind == "constant" else shared
            pair.append(Coefficient(num, den))
        f, g = pair
        if kind == "equal" and f._den != g._den or \
                kind == "constant" and (len(f._den), len(g._den)) != (1, 1):
            continue
        seen[kind] += 1
        (fn, fd), (gn, gd) = _sympy_pair(f, gens), _sympy_pair(g, gens)
        zero = (0 * fn, fd)
        for c, expected in ((f - g, (fn * gd - gn * fd, fd * gd)),
                            (0 - f, (-fn, fd)),
                            (f + g, (fn * gd + gn * fd, fd * gd)),
                            (f * g, (fn * gn, fd * gd)), (f - f, zero),
                            (g + (-g), zero)):
            _assert_pair(c, expected, gens)
            assert all(type(v) is int for v in c._num + c._den)
            _assert_canonical(c, gens)
    assert min(seen.values()) >= 30, seen


# ---------------------------------------------------------------------------
# the one-name kernel's shortcuts: Henrici's rule for sums, a root test for a
# linear divisor, and no GCD for a product by a rational constant

def _one_name_coeff(rng, names, den=None):
    """A seeded value in the one name of names over den (a MultiPoly), or
    over a random nonconstant denominator when den is None."""
    while True:
        num = _rand_poly(rng, names, names[0], 4, rng.choice((2, 30)))
        d = den
        while den is None and (d is None or d.is_constant()):
            d = _rand_poly(rng, names, names[0], 2, rng.choice((2, 30)))
        if not num.is_zero():
            return Coefficient(num, d)


def test_henrici_sums_match_sympy():
    sympy = pytest.importorskip("sympy")
    names = ("b",)
    gens = (sympy.Symbol("b"),)
    rng = random.Random(1111)
    var = MultiPoly.var(names, "b")
    one = MultiPoly.const(names, 1)
    # shared denominator factors: non-monic linear, monic linear, quadratic
    shared = [var.scaled(3) + one.scaled(2), var - one.scaled(5),
              var * var + one]
    seen = {"constant": 0, "coprime": 0, "shared": 0, "cancelled": 0}
    for i in range(90):
        kind = ("constant", "coprime", "shared")[i % 3]
        f = _one_name_coeff(rng, names)
        g = _one_name_coeff(rng, names, MultiPoly.const(
            names, rng.randint(1, 12)) if kind == "constant" else None)
        if kind == "shared":
            h = Coefficient(rng.choice(shared), one)
            if rng.random() < 0.5:
                f, g = f / h, g / h
            else:
                # f - g = (P/h + Q/u) - (P/h + R/v): the numerator of the
                # sum over h*u*v vanishes modulo h, so all of h cancels
                p = _one_name_coeff(rng, names, MultiPoly.const(names, 1))
                f, g = p / h + f, p / h + g
        (fn, fd), (gn, gd) = _sympy_pair(f, gens), _sympy_pair(g, gens)
        bd, dd = fd.degree(), gd.degree()
        common_deg = sympy.gcd(fd, gd).degree()
        if kind != "shared" and common_deg:
            continue
        seen[kind] += 1
        for c, expected in ((f + g, (fn * gd + gn * fd, fd * gd)),
                            (f - g, (fn * gd - gn * fd, fd * gd)),
                            (g - f, (gn * fd - fn * gd, fd * gd))):
            _assert_value(c, expected, gens)
            _assert_canonical(c, gens)
            # a denominator below the lcm's degree means the numerator was
            # cancelled against gcd(b, d)
            if c.den.degree() < bd + dd - common_deg:
                seen["cancelled"] += 1
    assert min(seen.values()) >= 20, seen


def test_products_by_a_rational_constant_match_sympy():
    sympy = pytest.importorskip("sympy")
    names = ("b",)
    gens = (sympy.Symbol("b"),)
    rng = random.Random(2222)
    for _ in range(60):
        f = _one_name_coeff(rng, names, rng.choice(
            (None, MultiPoly.const(names, rng.randint(1, 12)))))
        # constants that share content with f's pair, and negative ones
        q = Fraction(rng.choice((-1, 1)) * rng.randint(1, 12),
                     rng.randint(1, 12))
        fn, fd = _sympy_pair(f, gens)
        k = Coefficient.const(names, q)
        times, over = (fn * q.numerator, fd * q.denominator), \
            (fn * q.denominator, fd * q.numerator)
        for c, expected in ((f * k, times), (k * f, times), (f * q, times),
                            (q * f, times), (f / k, over),
                            (f * q.numerator, (fn * q.numerator, fd)),
                            (q.numerator * f, (fn * q.numerator, fd))):
            _assert_value(c, expected, gens)
            _assert_canonical(c, gens)


@pytest.mark.parametrize("linear", [(2, 3), (0, 1)], ids=["3b+2", "b"])
def test_linear_gcd_matches_the_prs_route(linear):
    rng = random.Random(3333 + linear[0])
    planted = 0
    _gcd.cache_clear()
    for _ in range(300):
        a = tuple(rng.randint(-9, 9) for _ in range(rng.randint(2, 6)))
        if not a[-1]:
            continue
        if rng.random() < 0.5:  # a multiple of the linear divisor
            a = _ipoly_mul(a, linear)
            planted += 1
        # a times the constants 1, -1 and 3, against linear times 1 and
        # -2: keys that differ only by a constant factor share the GCD
        for x, y in ((a, linear), (linear, a), (tuple(-v for v in a), linear),
                     (tuple(3 * v for v in a), tuple(-2 * v for v in linear))):
            expected = prs_gcd(x, y)
            assert expected in ((1,), linear)
            # computed, then read back from the cache
            for _ in range(2):
                assert _gcd(x, y) == expected
    info = _gcd.cache_info()
    assert planted >= 100
    assert info.hits >= info.misses and info.currsize <= info.maxsize


def _kernel_idx(op, x, y, r):
    """The index that r = x op y carries (op "neg" or "inv" and y None for
    -x and x.inv()): 0 after a zero factor; the index of the one name that
    r or an operand uses; and for a constant of constants x's index, but
    y's for 0 + y and 0 - y."""
    if op in "*/" and (x.is_zero() or y.is_zero()):
        return 0
    for v in (r, x, y):
        if v is not None and not v.is_rational():
            return v._idx
    if op in "+-" and x.is_zero() and not y.is_zero():
        return y._idx
    return x._idx


def _fraction_pair(q: Fraction) -> tuple:
    return ((), (1,)) if not q else ((q.numerator,), (q.denominator,))


_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": operator.truediv}


def _expected(op, x, y, pair):
    """x op y as a numerator and a denominator, from pair(z), z's: the
    same formulas serve MultiPolys and sympy Polys."""
    a, b = pair(x)
    if op == "neg":
        return -a, b
    if op == "inv":
        return b, a
    c, d = pair(y)
    return {"+": (a * d + c * b, b * d), "-": (a * d - c * b, b * d),
            "*": (a * c, b * d), "/": (a * d, b * c)}[op]


@pytest.mark.parametrize("names", [("b",), SIX], ids=["b", "six"])
def test_constant_operands_match_sympy(names):
    """0, 1, -1 and other integers as either operand of every kernel
    operation, as a Coefficient at each index of names and as an int:
    each result's canonical pair against the MultiPoly route, and the
    first two values' results against sympy."""
    sympy = pytest.importorskip("sympy")
    gens = tuple(sympy.Symbol(n) for n in names)
    rng = random.Random(5151 + len(names))
    name, last = names[-1], len(names) - 1
    values = []
    while len(values) < 6:
        num = _rand_poly(rng, names, name, 3, rng.choice((1, 4)))
        den = _rand_poly(rng, names, name, 2, 2) if len(values) % 2 else \
            MultiPoly.const(names, rng.randint(1, 6))
        if num.is_zero() or den.is_zero():
            continue
        v = Coefficient(num, den)
        if not v.is_rational():
            values.append(v)
    ints = (0, 1, -1, 2, -3, 12)
    # over SIX the constants sit at alpha's index and at gammabar's, the
    # values' name: a constant's index may differ from its partner's
    consts = [_qt(names, _fraction_pair(Fraction(k)), i)
              for k in ints + (Fraction(-3, 7),) for i in {0, last}]

    # two constants, against Fraction arithmetic
    for x in consts:
        qx = x.as_fraction()
        for r, q in [(-x, -qx)] + ([(x.inv(), 1 / qx)] if qx else []):
            assert (r._num, r._den, r._idx) == (*_fraction_pair(q), x._idx)
        for y in consts:
            qy = y.as_fraction()
            for op, f in _BINARY.items():
                if op == "/" and not qy:
                    with pytest.raises(PoleError):
                        f(x, y)
                    continue
                r = f(x, y)
                assert (r._num, r._den) == _fraction_pair(f(qx, qy))
                assert r._idx == _kernel_idx(op, x, y, r), (op, x, y)

    # a value in the last name and a constant, in both positions
    def lift(z):
        return Coefficient.const(names, z) if type(z) is int else z

    def multipoly_pair(z):
        z = lift(z)
        return z.num, z.den

    def sympy_pair(z):
        return _sympy_pair(lift(z), gens)

    for i, v in enumerate(values):
        cases = [("neg", v, None, -v), ("inv", v, None, v.inv())]
        for k in consts + list(ints):
            for op, f in _BINARY.items():
                for x, y in ((v, k), (k, v)):
                    if op == "/" and y is k and not k:
                        with pytest.raises(PoleError):
                            f(x, y)
                    else:
                        cases.append((op, x, y, f(x, y)))
        for op, x, y, r in cases:
            route = Coefficient(*_expected(op, x, y, multipoly_pair))
            assert (r.names, r._num, r._den) == \
                (names, route._num, route._den), (op, x, y)
            assert type(r._num) is type(r._den) is tuple
            assert r._idx == _kernel_idx(op, lift(x), lift(y), r), (op, x, y)
            if i < 2:
                _assert_value(r, _expected(op, x, y, sympy_pair), gens)
                _assert_canonical(r, gens)


def test_prs_gcd_is_a_tuple():
    # the sequence ends on a remainder that is already primitive
    assert _gcd((-16, -8, 8), (-12, -10, 8)) == (-2, 1)
    assert type(_gcd((-16, -8, 8), (-12, -10, 8))) is tuple
    rng = random.Random(4444)
    planted = 0
    for _ in range(300):
        a, b, c = (tuple(rng.randint(-9, 9) for _ in range(rng.randint(3, 5)))
                   for _ in range(3))
        if not (a[-1] and b[-1] and c[-1]):
            continue
        if rng.random() < 0.5:  # a common factor of degree 2 or more
            a, b = _ipoly_mul(a, c), _ipoly_mul(b, c)
            planted += 1
        g = _gcd(a, b)
        assert type(g) is tuple and g == prs_gcd(a, b)
    assert planted >= 100


def test_as_fraction_refuses_a_non_rational_value():
    names = ("a", "b")
    a, b = (Coefficient.param(names, n) for n in names)
    assert Coefficient.const(names, Fraction(-3, 7)).as_fraction() == \
        Fraction(-3, 7)
    assert type((a - a + 2).as_fraction()) is Fraction
    for c in (a, a + 1, 1 / a, (a + 1) / (a + 2), a * b, 1 / (a * b),
              (a * b + 1) / (a * b)):
        with pytest.raises(ValueError, match="not a rational constant"):
            c.as_fraction()
