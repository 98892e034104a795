"""Membership engine: graded and bounded searches, certificates, stability."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest

from ckverify.coeff import Coefficient, RATIONALS
from ckverify.ideal import (
    INCONCLUSIVE, MEMBER, NON_MEMBER, Presentation, STABLE, UNSTABLE,
    bounded_membership, graded_membership, involution_stability,
    presentations_equivalent)
from ckverify.ncpoly import NcPoly, adjoint_involution
from ckverify.presentations import (CKMatrix, GENERATORS, SklyaninParams,
                                    _defining_pair, _exchange_relations,
                                    cuntz_krieger, ideal_I0, ideal_Omega0,
                                    lemma2_solve, modulus_family, sklyanin,
                                    verify)

from oracles import (EagerSpan, expand_certificate, graded_member_oracle,
                     poly_to_dict, wrapper_order)

X = GENERATORS


def gen(i):
    return NcPoly.generator(X, RATIONALS, i)


def test_zero_target_is_member_with_empty_certificate():
    p = sklyanin(SklyaninParams.of(Fraction(1, 5), 1, -1))
    v = graded_membership(NcPoly.zero(X, RATIONALS), p.relations)
    assert v.kind == MEMBER
    assert len(v.certificate) == 0
    v2 = bounded_membership(NcPoly.zero(X, RATIONALS), p.relations)
    assert v2.kind == MEMBER


def test_graded_non_membership_is_definitive():
    om = ideal_Omega0()
    x13 = gen(0) * gen(2)
    v = graded_membership(x13, om)
    assert v.kind == NON_MEMBER
    assert not graded_member_oracle(x13, om)
    # degree mismatch alone forces non-membership
    v2 = graded_membership(gen(0), om)
    assert v2.kind == NON_MEMBER


def test_graded_membership_with_certificate():
    om = ideal_Omega0()
    target = om[0] + om[1].scale(Fraction(2, 3))
    v = graded_membership(target, om)
    assert v.kind == MEMBER
    assert v.certificate.verify(target, om)
    assert expand_certificate(v.certificate, om) == poly_to_dict(target)
    assert graded_member_oracle(target, om)


def test_graded_membership_with_wrapping():
    om = ideal_Omega0()
    target = gen(1) * om[0] * gen(3) + om[1] * gen(0) * gen(0)
    v = graded_membership(target, om)
    assert v.kind == MEMBER
    assert v.certificate.verify(target, om)
    assert graded_member_oracle(target, om)


def test_bounded_membership_inconclusive_not_non_member():
    """An inhomogeneous search that fails at its bound must not claim
    non-membership."""
    rels = [gen(0) * gen(1) + gen(2) * gen(3)
            - NcPoly.one(X, RATIONALS)]
    v = bounded_membership(gen(0), rels, wrapper_len=2)
    assert v.kind == INCONCLUSIVE
    assert v.bound == 2


def test_bounded_membership_finds_wrapped_combination():
    unit = gen(0) * gen(1) + gen(2) * gen(3) - NcPoly.one(X, RATIONALS)
    target = gen(0) * unit * gen(1)
    v = bounded_membership(target, [unit], wrapper_len=2)
    assert v.kind == MEMBER
    assert v.certificate.verify(target, [unit])


def test_certificates_reexpand_100_percent():
    """Criterion: every certificate the engine emits re-expands exactly."""
    rng = random.Random(5150)
    p = sklyanin(SklyaninParams.of(Fraction(1, 5), 1, -1))
    checked = 0
    for _ in range(40):
        combo = NcPoly.zero(X, RATIONALS)
        for i, rel in enumerate(p.relations):
            if rng.random() < 0.5:
                l = tuple(rng.randrange(4) for _ in range(rng.randint(0, 1)))
                r = tuple(rng.randrange(4) for _ in range(rng.randint(0, 1)))
                combo = combo + (NcPoly.monomial(X, RATIONALS, l) * rel *
                                 NcPoly.monomial(X, RATIONALS, r)).scale(
                    Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        if combo.is_zero():
            continue
        if combo.is_homogeneous():
            v = graded_membership(combo, p.relations)
        else:
            v = bounded_membership(combo, p.relations, wrapper_len=2)
        assert v.kind == MEMBER
        assert v.certificate.verify(combo, p.relations)
        assert expand_certificate(v.certificate, p.relations) == \
            poly_to_dict(combo)
        checked += 1
    assert checked >= 30


def test_involution_stability_stable():
    p = sklyanin(SklyaninParams.of(Fraction(1, 5), 1, -1))
    rep = involution_stability(p)
    assert rep.verdict == STABLE
    assert rep.failing_indices() == []
    for r in rep.relations:
        assert r.verdict.kind == MEMBER
        img = p.relations[r.index].involute(p.involution)
        assert r.verdict.certificate.verify(img, p.relations)


def test_involution_stability_unstable():
    p = Presentation(X, RATIONALS, [gen(0) * gen(2)], adjoint_involution())
    rep = involution_stability(p)
    assert rep.verdict == UNSTABLE
    assert rep.failing_indices() == [0]


def test_omega0_stability():
    """The fixed quadratic pair swaps under the involution, so each image is
    literally the other relation."""
    p = Presentation(X, RATIONALS, ideal_Omega0(), adjoint_involution())
    rep = involution_stability(p)
    assert rep.verdict == STABLE


def test_ck_stability_random_matrices():
    rng = random.Random(2718)
    for _ in range(25):
        try:
            m = CKMatrix(rng.randint(0, 4), rng.randint(0, 4),
                         rng.randint(0, 4), rng.randint(1, 4))
        except ValueError:
            continue
        p = cuntz_krieger(m)
        rep = involution_stability(p)
        assert rep.verdict == STABLE


def test_equivalence_requires_matching_frames():
    from ckverify.ncpoly import InvolutionSpec
    p = sklyanin(SklyaninParams.of(Fraction(1, 5), 1, -1))
    y = ("y1", "y2")
    q = Presentation(y, RATIONALS,
                     [NcPoly.generator(y, RATIONALS, 0)],
                     InvolutionSpec((1, 0)))
    with pytest.raises(ValueError):
        presentations_equivalent(p, q)


def test_equivalence_identical_presentations():
    p = sklyanin(SklyaninParams.of(Fraction(1, 5), 1, -1))
    rep = presentations_equivalent(p, p)
    assert rep.verdict == "EQUIVALENT"
    for v in list(rep.forward) + list(rep.backward):
        assert v.kind == MEMBER


def test_wrapper_len_zero():
    unit = gen(0) * gen(1) + gen(2) * gen(3) - NcPoly.one(X, RATIONALS)
    v = bounded_membership(unit.scale(3), [unit], wrapper_len=0)
    assert v.kind == MEMBER


def _entries(cert):
    return [(e.left, e.rel_index, e.right, e.coeff) for e in cert]


@pytest.mark.filterwarnings("ignore:alpha in")
@pytest.mark.parametrize("with_omega", [False, True],
                         ids=["plain", "with_omega"])
@pytest.mark.parametrize("b", [2, 3, 7])
def test_family_certificates_match_eager_oracle(b, with_omega):
    """Every MEMBER certificate of the modulus family equals, entry for
    entry and in order, the one an eager-combination reducer finds over
    the same wrapped rows; each INCONCLUSIVE target is outside the
    oracle's span too."""
    p, q = modulus_family(b, with_omega=with_omega)
    rep = presentations_equivalent(p, q)
    members = 0
    for sources, targets, verdicts in ((p, q, rep.forward),
                                       (q, p, rep.backward)):
        # the unit relation makes both sides inhomogeneous: bounded spans
        assert not targets.homogeneous
        rows = wrapper_order(4, [r.degree() for r in targets.relations],
                             wrapper_len=rep.wrapper_len)
        oracle = EagerSpan([poly_to_dict(r) for r in targets.relations], rows)
        for rel, v in zip(sources.relations, verdicts):
            expected = oracle.certificate(poly_to_dict(rel))
            if v.kind != MEMBER:
                assert expected is None
                continue
            members += 1
            got = [(l, i, r, c.as_fraction()) for l, i, r, c in
                   _entries(v.certificate)]
            assert got == expected
    assert members >= 12


def test_lemma2_symbolic_certificates_match_eager_oracle():
    """The Q(alpha, b) certificates of symbolic lemma2 (the defining and the
    solved pair in each other's quadratic slice) equal the eager oracle's,
    in value and in printed form."""
    report = verify("lemma2", symbolic=True)
    [step] = [s for s in report.steps if s.name == "solved_pair_span"]
    sp = ("alpha", "b")
    alpha = Coefficient.param(sp, "alpha")
    defining = _defining_pair(sp, alpha, 1, 2, 3)
    solved = _exchange_relations(sp, *lemma2_solve(alpha).entries())
    checked = 0
    for key, sources, relations in (("defining_in_solved", defining, solved),
                                    ("solved_in_defining", solved, defining)):
        rows = wrapper_order(4, [r.degree() for r in relations], degree=2)
        oracle = EagerSpan([dict(r.terms) for r in relations], rows)
        for source, cert in zip(sources, step.certificate[key]):
            expected = oracle.certificate(dict(source.terms))
            got = _entries(cert)
            assert [e[:3] for e in got] == [e[:3] for e in expected]
            for (_, _, _, c), (_, _, _, e) in zip(got, expected):
                assert c == e and str(c) == str(e)
            checked += 1
    assert checked == 4
