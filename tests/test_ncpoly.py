"""Free-algebra polynomial layer: products, involution laws, substitution."""
from __future__ import annotations

import random
import re
from fractions import Fraction

import pytest

from ckverify.coeff import Coefficient, ConjugationSpec, RATIONALS
from ckverify.ncpoly import (InvolutionSpec, NcPoly, adjoint_involution,
                             word_str)

X = ("x1", "x2", "x3", "x4")


def gen(i):
    return NcPoly.generator(X, RATIONALS, i)


def rand_poly(rng, params=RATIONALS, max_terms=4, max_len=3):
    p = NcPoly.zero(X, params)
    for _ in range(rng.randint(1, max_terms)):
        word = tuple(rng.randrange(4) for _ in range(rng.randint(0, max_len)))
        c = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
        if c:
            p = p + NcPoly(X, params, {word: Coefficient.const(params, c)})
    return p


def test_monomial_construction():
    x1, x2 = gen(0), gen(1)
    p = x1 * x2
    assert p.terms == {(0, 1): Coefficient.const(RATIONALS, 1)}
    assert (x1 * x2 - x1 * x2).is_zero()
    assert NcPoly.one(X, RATIONALS).degree() == 0
    assert (x1 * x2).degree() == 2
    assert word_str(X, (3, 0, 2)) == "x4*x1*x3"


def test_noncommutativity():
    x1, x2 = gen(0), gen(1)
    assert x1 * x2 != x2 * x1
    assert (x1 * x2 - x2 * x1).degree() == 2


def test_ring_laws_random():
    rng = random.Random(4001)
    for _ in range(40):
        p, q, r = (rand_poly(rng) for _ in range(3))
        assert p + q == q + p
        assert (p + q) + r == p + (q + r)
        assert p * (q + r) == p * q + p * r
        assert (p * q) * r == p * (q * r)
        assert p.scale(0).is_zero()
        assert p.scale(Fraction(2, 3)) + p.scale(Fraction(1, 3)) == p


def test_homogeneous_split():
    x1, x2 = gen(0), gen(1)
    p = x1 + x1 * x2 + NcPoly.one(X, RATIONALS)
    assert not p.is_homogeneous()
    assert (x1 * x2).is_homogeneous()


def test_involution_on_generators():
    inv = adjoint_involution()
    x1, x2, x3, x4 = (gen(i) for i in range(4))
    assert x1.involute(inv) == x2
    assert x2.involute(inv) == x1
    assert x3.involute(inv) == x4
    assert x4.involute(inv) == x3
    # anti-automorphism reverses the word
    assert (x1 * x3).involute(inv) == x4 * x2


def test_involution_laws_1000_random_pairs():
    """Anti-automorphism ((pq)* = q* p*) and order two on 1000 pairs."""
    rng = random.Random(90210)
    inv = adjoint_involution()
    for _ in range(1000):
        p = rand_poly(rng)
        q = rand_poly(rng)
        assert (p * q).involute(inv) == q.involute(inv) * p.involute(inv)
        assert (p + q).involute(inv) == p.involute(inv) + q.involute(inv)
        assert p.involute(inv).involute(inv) == p


def test_involution_with_conjugation():
    conj = ConjugationSpec({"a": "abar", "abar": "a"})
    names = ("a", "abar")
    inv = adjoint_involution(conj)
    a = Coefficient.param(names, "a")
    abar = Coefficient.param(names, "abar")
    x1 = NcPoly.generator(X, names, 0)
    x2 = NcPoly.generator(X, names, 1)
    p = x1.scale(a)
    assert p.involute(inv) == x2.scale(abar)
    assert p.involute(inv).involute(inv) == p


def test_involution_spec_equality():
    assert adjoint_involution() == adjoint_involution()
    assert adjoint_involution() == InvolutionSpec((1, 0, 3, 2))
    assert adjoint_involution() != InvolutionSpec((0, 1, 2, 3))
    conj = ConjugationSpec({"a": "abar", "abar": "a"})
    assert adjoint_involution(conj) != adjoint_involution()


def test_involution_requires_order_two_permutation():
    with pytest.raises(ValueError):
        InvolutionSpec((1, 2, 0, 3))
    with pytest.raises(ValueError,
                       match=r"^not a permutation: \(0, 0, 1, 2\)$"):
        InvolutionSpec((0, 0, 1, 2))


@pytest.mark.parametrize("index", [-1, 4])
def test_generator_index_out_of_range_is_refused(index):
    with pytest.raises(IndexError,
                       match=f"^generator index {index} out of range$"):
        NcPoly.generator(X, RATIONALS, index)


def test_operands_over_other_alphabets_or_spaces_are_refused():
    # words that x1 does not use, so that no two coefficients meet
    x1 = gen(0)
    short = NcPoly.generator(X[:2], RATIONALS, 1)
    over_b = NcPoly.generator(X, ("b",), 1)
    for op in (lambda p, q: p + q, lambda p, q: p - q, lambda p, q: p * q):
        with pytest.raises(ValueError, match=re.escape(
                f"alphabet mismatch: {X} vs {X[:2]}")):
            op(x1, short)
        with pytest.raises(ValueError, match=re.escape(
                "parameter space mismatch: () vs ('b',)")):
            op(x1, over_b)


def test_substitute_params():
    names = ("a",)
    a = Coefficient.param(names, "a")
    x1 = NcPoly.generator(X, names, 0)
    x2 = NcPoly.generator(X, names, 1)
    p = x1.scale(a) + x2.scale(a * a)
    out = p.substitute_params({"a": Fraction(1, 2)})
    assert out == x1.scale(Fraction(1, 2)) + x2.scale(Fraction(1, 4))


def test_scale_coercion():
    x1 = gen(0)
    assert x1.scale(2) == x1 + x1
    assert x1.scale(Fraction(1, 2)).scale(2) == x1
    c = Coefficient.const(RATIONALS, 3)
    assert x1.scale(c) == x1.scale(3)


def test_scalar_operands_are_refused():
    """Ring operations take NcPoly operands only; scale is the one way to
    multiply by a scalar, and equality still compares with scalars."""
    x1 = gen(0)
    p = x1 * gen(1) + x1
    for k in (2, Fraction(1, 2), Coefficient.const(RATIONALS, 2)):
        for op in (lambda: p + k, lambda: k + p, lambda: p - k,
                   lambda: k - p, lambda: k * p, lambda: p * k):
            with pytest.raises(TypeError):
                op()
    with pytest.raises(TypeError):
        -p
    with pytest.raises(TypeError):
        p ** 2
    with pytest.raises(TypeError, match="expected int or Fraction"):
        p.scale("2")
    assert p.scale(2) == p + p
    assert p == x1 * gen(1) + x1 and p != x1
    assert NcPoly.zero(X, RATIONALS) == 0
    assert NcPoly.one(X, RATIONALS) == 1 and x1 != 1


def test_support_and_str():
    x1, x2 = gen(0), gen(1)
    p = x1 * x2 - x2 * x1
    assert set(p.terms) == {(0, 1), (1, 0)}
    assert str(p) == "x1*x2 - x2*x1"
