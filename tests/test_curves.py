"""Quadric reduction chain and Legendre invariants, checked against sympy."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest
import sympy

from ckverify import curves
from ckverify.cli import main
from ckverify.coeff import Coefficient, MultiPoly, RATIONALS
from ckverify.curves import (
    LegendreCurve, QuadricSystem, curve_for_b,
    legendre_invariants, quadrics_eq19, reduction_chain, relations_eq21,
    shift_and_homogenize, verify_eq20_step, verify_eq22_step)
from ckverify.presentations import verify

from oracles import legendre_oracle, multipoly_sympy, reduction_chain_oracle


def lam_const(q):
    return Coefficient.const(RATIONALS, Fraction(q))


# ---------------------------------------------------------------------------
# the substitution chain

def test_quadric_builders_are_quadratic():
    qs = quadrics_eq19()
    assert len(qs.members) == 2
    rs = relations_eq21()
    assert len(rs.members) == 2


def test_quadric_system_rejects_non_quadratic():
    names = ("a",)
    x = MultiPoly.var(("x", "y"), "x")
    with pytest.raises(ValueError):
        QuadricSystem(names, ("x", "y"), (x,))


def _coefficient_types(p):
    return {type(c) for c in p.terms.values()}


def test_the_chain_runs_on_int_coefficients():
    """The MultiPoly constructor stores an integral coefficient as an int
    and a proper fraction as a Fraction, whichever operation made it, so
    the quadrics, the plane cubic and the images of the square
    substitution, where the halves of its table add up to ints, hold ints
    only."""
    names = ("a", "x")
    x = MultiPoly.var(names, "x")
    half = x.scaled(Fraction(1, 2))
    assert _coefficient_types(MultiPoly.const(names, 3)) == {int}
    assert _coefficient_types(MultiPoly.const(names, Fraction(6, 2))) == {int}
    assert _coefficient_types(x) == {int}
    assert _coefficient_types(x.scaled(2)) == {int}
    assert _coefficient_types(half) == {Fraction}
    assert _coefficient_types(half.scaled(2)) == {int}
    assert _coefficient_types(half + half) == {int}
    assert _coefficient_types(half * MultiPoly.const(names, 2)) == {int}
    for alpha in (None, 7):
        members = (quadrics_eq19(alpha).members
                   + relations_eq21(alpha).members
                   + (curves._plane_cubic(*curves._ring(
                       curves._coerce_param(alpha), curves.AFFINE)),))
        assert all(_coefficient_types(m) == {int} for m in members)
        rep = verify_eq20_step(alpha)
        assert all(_coefficient_types(m) == {int} for m in rep.images)


def test_eq20_step_symbolic():
    rep = verify_eq20_step()
    assert rep.ok
    assert rep.forward == ((1, 1), (0, 1))
    assert rep.backward == ((1, -1), (0, 1))


def test_eq20_step_concrete_samples():
    for q in (Fraction(1, 5), Fraction(-3), Fraction(7, 2)):
        assert verify_eq20_step(q).ok


def test_eq22_step_residue_factors():
    rep = verify_eq22_step()
    assert rep.ok
    assert str(rep.second_factor) == "4"


def test_shift_and_homogenize():
    rep = shift_and_homogenize()
    assert rep.ok


def test_reduction_chain_symbolic_and_samples():
    chain = reduction_chain()
    assert chain.ok
    assert not chain.curve.singular
    for q in (Fraction(3, 4), Fraction(-2), Fraction(9)):
        c = reduction_chain(q)
        assert c.ok
        assert c.curve.lam.as_fraction() == q


def test_combines_refuses_a_wrong_vector():
    rep = verify_eq20_step()
    assert curves._combines(rep.images, rep.forward, rep.targets)
    for wrong in (((1, 0), (0, 1)), ((1, 1), (0, 2)), ((1, 1), (1, 1))):
        assert not curves._combines(rep.images, wrong, rep.targets)


def _swapped_eq19(monkeypatch):
    """_eq19_pair with its pair in the other order."""
    right = curves._eq19_pair
    monkeypatch.setattr(curves, "_eq19_pair",
                        lambda *values: right(*values)[::-1])


def _swapped_eq21(monkeypatch):
    """_eq21_pair with its pair in the other order."""
    right = curves._eq21_pair
    monkeypatch.setattr(curves, "_eq21_pair",
                        lambda *values: right(*values)[::-1])


def _other_cubic(monkeypatch):
    """_plane_cubic plus 1: y^2 - x(x+1)(x+1-a) + 1."""
    right = curves._plane_cubic

    def other(ap, one, x, y):
        return right(ap, one, x, y) + one
    monkeypatch.setattr(curves, "_plane_cubic", other)


def _other_eq23bis(monkeypatch):
    """_eq23bis plus x^2 z: y^2 z - x(x-z)(x-a z) + x^2 z."""
    right = curves._eq23bis

    def other(ap, x, y, z):
        return right(ap, x, y, z) + x * x * z
    monkeypatch.setattr(curves, "_eq23bis", other)


@pytest.mark.parametrize("wrong, failing", [
    (_swapped_eq19, {"square_substitution"}),
    (_swapped_eq21, {"square_substitution", "plane_parametrization"}),
    (_other_cubic, {"plane_parametrization", "shift_normalization"}),
    (_other_eq23bis, {"shift_normalization"})],
    ids=["swapped_eq19", "swapped_eq21", "other_cubic", "other_eq23bis"])
def test_lemma5_fails_on_a_wrong_step(wrong, failing, monkeypatch, capsys):
    """With a pair of eq19 or eq21, the plane cubic or the homogeneous
    normal form changed, the steps that check it report ok=False, lemma5
    is FAIL and verify exits 1."""
    wrong(monkeypatch)
    for alpha in (None, Fraction(5, 9)):
        chain = reduction_chain(alpha)
        oks = {"square_substitution": chain.eq20.ok,
               "plane_parametrization": chain.eq22.ok,
               "shift_normalization": chain.shift.ok}
        assert {name for name, ok in oks.items() if not ok} == failing
        assert not chain.ok
    for b in (None, 7):
        report = verify("lemma5", b=b)
        assert report.verdict == "FAIL"
        assert {s.name for s in report.steps if s.verdict == "FAIL"} == \
            failing
    assert main(["verify", "lemma5"]) == 1
    assert main(["verify", "lemma5", "--b", "7"]) == 1
    assert "verdict: FAIL" in capsys.readouterr().out


def _matches_chain_oracle(alpha) -> bool:
    """Whether every polynomial of the chain's reports at alpha (None or a
    Fraction) equals the one the sympy oracle rebuilds by substitution."""
    a = sympy.Symbol(curves.PARAM) if alpha is None else \
        sympy.Rational(alpha.numerator, alpha.denominator)
    want = reduction_chain_oracle(a)
    chain = reduction_chain(alpha)
    cubic = multipoly_sympy(chain.eq22.cubic)
    eq23 = multipoly_sympy(chain.shift.eq23)
    factors = (chain.eq22.first_factor, chain.eq22.second_factor)
    pairs = [
        *zip(want["images"], map(multipoly_sympy, chain.eq20.images)),
        *zip(want["targets"], map(multipoly_sympy, chain.eq20.targets)),
        *zip(want["pullbacks"],
             (multipoly_sympy(f.num) / multipoly_sympy(f.den) * cubic
              for f in factors)),
        (want["cubic"], cubic),
        (want["shifted"], eq23),
        (want["eq23bis"], multipoly_sympy(chain.shift.eq23bis)),
        (want["dehomogenized"], eq23)]
    return all(sympy.expand(p - q) == 0 for p, q in pairs)


@pytest.mark.parametrize("alpha", [None, Fraction(5, 9)],
                         ids=["symbolic", "five_ninths"])
def test_chain_matches_the_substitution_oracle(alpha):
    assert _matches_chain_oracle(alpha)


def test_substitution_oracle_refuses_a_changed_table_entry(monkeypatch):
    """With the eq20 table's value of w^2 moved by Z^2, the images leave
    the oracle's, symbolically and at a = 5/9."""
    right = curves._eq19_pair
    monkeypatch.setattr(
        curves, "_eq19_pair",
        lambda ap, one, u2, v2, w2, z2: right(ap, one, u2, v2, w2 + z2, z2))
    for alpha in (None, Fraction(5, 9)):
        assert not _matches_chain_oracle(alpha)


def test_chain_rejects_non_polynomial_parameter():
    half = Coefficient.const(("a",), 1) / \
        (Coefficient.param(("a",), "a") + 1)
    with pytest.raises(ValueError):
        reduction_chain(half)


@pytest.mark.parametrize("build, name", [
    (reduction_chain, "x"), (reduction_chain, "y"), (reduction_chain, "z"),
    (quadrics_eq19, "u"), (reduction_chain, "X"), (reduction_chain, "T")],
    ids=["x", "y", "z", "u", "X", "T"])
def test_chain_refuses_a_parameter_named_like_a_variable(build, name):
    with pytest.raises(ValueError, match=f"parameter name '{name}' is also "
                                         "a variable"):
        build(Coefficient.param((name,), name))


# ---------------------------------------------------------------------------
# Legendre invariants vs the sympy oracle

@pytest.fixture
def revalidate():
    """Run the closed-form self-check again on the next curve record, and
    once more after the test."""
    curves._ensure_formulas_validated.cache_clear()
    yield
    curves._ensure_formulas_validated.cache_clear()


def _with_constant_term(cubic, delta, j):
    """The cubic plus 1, with the discriminant its resultant gives: the
    resultant check passes, and the invariant chain, which reads only the
    x^2 and x coefficients, does not."""
    f = (*cubic[:3], cubic[3] + 1)
    fp = [f[0] * 3, f[1] * 2, f[2]]
    return f, -curves._sylvester_resultant_cubic(f, fp) * 16, j


@pytest.mark.parametrize("wrong,message", [
    (lambda cubic, delta, j: (cubic, delta * 2, j),
     "discriminant closed form fails the resultant check"),
    (_with_constant_term,
     "discriminant closed form fails the invariant chain"),
    (lambda cubic, delta, j: (cubic, delta, j + 1),
     "j-invariant closed form fails the invariant chain"),
], ids=["twice_delta", "constant_term", "j_plus_one"])
def test_self_check_refuses_wrong_closed_forms(wrong, message, monkeypatch,
                                               revalidate):
    forms = curves._legendre_forms
    monkeypatch.setattr(curves, "_legendre_forms",
                        lambda lam: wrong(*forms(lam)))
    with pytest.raises(RuntimeError, match=message):
        legendre_invariants(lam_const(Fraction(1, 5)))


@pytest.mark.parametrize("value,error,message", [
    (True, TypeError, "parameter must be a number, not a bool"),
    ("1/2", TypeError, "unsupported parameter value '1/2'"),
], ids=["bool", "str"])
def test_parameter_refuses_what_is_not_a_number(value, error, message):
    for build in (legendre_invariants, quadrics_eq19, relations_eq21):
        with pytest.raises(error, match=f"^{message}$"):
            build(value)


def test_invariants_symbolic_against_oracle():
    lam = Coefficient.param(("t",), "t")
    curve = legendre_invariants(lam)
    t = sympy.Symbol("t")
    delta_o, j_o = legendre_oracle(t)
    delta_pkg = sympy.sympify(str(curve.discriminant).replace("^", "**"))
    assert sympy.simplify(delta_pkg - delta_o) == 0
    j_pkg = sympy.sympify(str(curve.j_invariant).replace("^", "**"))
    assert sympy.simplify(j_pkg - j_o) == 0


def test_invariants_20_rational_samples_against_oracle():
    rng = random.Random(60601)
    samples = []
    while len(samples) < 18:
        q = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
        if q not in (0, 1) and q not in samples:
            samples.append(q)
    samples += [Fraction(-1), Fraction(1, 2)]
    assert len(samples) == 20
    for q in samples:
        curve = legendre_invariants(lam_const(q))
        delta_o, j_o = legendre_oracle(sympy.Rational(q.numerator,
                                                      q.denominator))
        assert curve.discriminant.as_fraction() == Fraction(str(delta_o))
        assert curve.j_invariant.as_fraction() == Fraction(str(j_o))
        assert not curve.singular


def test_j_at_minus_one_is_1728():
    curve = legendre_invariants(lam_const(-1))
    assert curve.j_invariant.as_fraction() == 1728


def test_singular_lambdas():
    for q in (0, 1):
        curve = legendre_invariants(lam_const(q))
        assert curve.singular
        assert curve.discriminant.is_zero()
        assert curve.j_invariant is None


def test_symbolic_delta_factors_as_16_l2_l1_2():
    lam = Coefficient.param(("t",), "t")
    curve = legendre_invariants(lam)
    t = Coefficient.param(("t",), "t")
    one = Coefficient.const(("t",), 1)
    expected = t * t * (t - one) * (t - one) * 16
    assert curve.discriminant == expected


def test_curve_for_b():
    assert curve_for_b(2).singular
    assert str(curve_for_b(2).lam) == "0"
    c3 = curve_for_b(3)
    assert c3.lam.as_fraction() == Fraction(1, 5)
    assert c3.j_invariant.as_fraction() == Fraction(148176, 25)
    c6 = curve_for_b(6)
    assert c6.lam.as_fraction() == Fraction(1, 2)
    assert c6.j_invariant.as_fraction() == 1728
    with pytest.raises(TypeError):
        curve_for_b(Fraction(5, 2))
    with pytest.raises(TypeError):
        curve_for_b(True)
    with pytest.raises(ValueError):
        curve_for_b(1)


def test_singular_only_at_b2_on_a_range():
    for b in range(2, 40):
        assert curve_for_b(b).singular == (b == 2)


def test_modulus_lambda_map():
    # lam(b) = (b-2)/(b+2) stays in [0, 1) and is injective for b >= 2
    seen = set()
    for b in range(2, 60):
        lam = curve_for_b(b).lam.as_fraction()
        assert 0 <= lam < 1
        assert lam == Fraction(b - 2, b + 2)
        assert lam not in seen
        seen.add(lam)
