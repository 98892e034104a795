"""Membership engine: graded and bounded searches, certificates, stability."""
from __future__ import annotations

import itertools
import random
import sys
from types import SimpleNamespace
from fractions import Fraction

import pytest
from sympy import isprime

from ckverify import ideal, presentations
from ckverify.cli import main
from ckverify.coeff import Coefficient, ConjugationSpec, RATIONALS, lowered
from ckverify.ideal import (
    EQUIVALENT, INCONCLUSIVE, MEMBER, MembershipCertificate, NON_MEMBER,
    NOT_EQUIVALENT, Presentation, STABLE, UNSTABLE, bounded_membership,
    graded_membership, involution_stability, presentations_equivalent)
from ckverify.ncpoly import (InvolutionSpec, NcPoly, adjoint_involution,
                             word_key)
from ckverify.parser import print_presentation
from ckverify.presentations import (CKMatrix, GENERATORS, SklyaninParams,
                                    _defining_pair, _exchange_relations,
                                    cuntz_krieger, ideal_I0, ideal_J0,
                                    ideal_Omega0, lemma2_solve,
                                    modulus_family, sklyanin, verify)

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
                one = Coefficient.const(RATIONALS, 1)
                combo = combo + (NcPoly(X, RATIONALS, {l: one}) * rel *
                                 NcPoly(X, RATIONALS, {r: one})).scale(
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
    p = sklyanin(SklyaninParams.of(Fraction(1, 5), 1, -1))
    y = ("y1", "y2")
    q = Presentation(y, RATIONALS,
                     [NcPoly.generator(y, RATIONALS, 0)],
                     InvolutionSpec((1, 0)))
    with pytest.raises(ValueError):
        presentations_equivalent(p, q)
    over_b = Presentation(X, ("b",), [NcPoly.generator(X, ("b",), 0)],
                          p.involution)
    with pytest.raises(ValueError, match="^presentations use different "
                                         "parameter spaces$"):
        presentations_equivalent(p, over_b)
    fixed = Presentation(X, RATIONALS, p.relations,
                         InvolutionSpec((0, 1, 2, 3)))
    with pytest.raises(ValueError, match="^presentations use different "
                                         "involutions$"):
        presentations_equivalent(p, fixed)


@pytest.mark.parametrize("alphabet,space,relations,perm,message", [
    (X, RATIONALS, [gen(0)], (1, 0),
     "involution permutation size != alphabet size"),
    (X, RATIONALS, [gen(0), NcPoly.zero(X, RATIONALS)], (1, 0, 3, 2),
     "relation 1 is identically zero"),
    (X, RATIONALS, [NcPoly.generator(X, ("b",), 0)], (1, 0, 3, 2),
     "relation 0 built over a different context"),
    (X[:2], RATIONALS, [gen(0)], (1, 0),
     "relation 0 built over a different context"),
], ids=["involution_size", "zero_relation", "other_space",
        "other_alphabet"])
def test_presentation_refuses_what_does_not_fit(alphabet, space, relations,
                                                perm, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Presentation(alphabet, space, relations, InvolutionSpec(perm))


def test_graded_membership_refuses_inhomogeneous_input():
    unit = gen(0) * gen(1) - NcPoly.one(X, RATIONALS)
    quadric = gen(0) * gen(1) - gen(1) * gen(0)
    with pytest.raises(ValueError, match="^graded membership needs "
                                         "homogeneous relations$"):
        graded_membership(quadric, [quadric, unit])
    with pytest.raises(ValueError, match="^graded membership needs a "
                                         "homogeneous target$"):
        graded_membership(unit, [quadric])


def _linear(space, c, gens=X[:2]):
    """x1 - c * x2 over the generators, with coefficients in Q(space)."""
    x1, x2 = (NcPoly.generator(gens, space, i) for i in range(2))
    return x1 - x2.scale(c)


_X5 = X + ("x5",)


@pytest.mark.parametrize("target,relations,message", [
    (NcPoly.generator(_X5, RATIONALS, 4) * NcPoly.generator(_X5, RATIONALS, 0),
     [NcPoly.generator(X[:2], RATIONALS, 0)], "alphabet mismatch"),
    (gen(0), [gen(0), NcPoly.generator(_X5, RATIONALS, 0)],
     "alphabet mismatch"),
    (_linear(("b",), 2), [_linear(("s",), 2)], "parameter space mismatch"),
    (_linear(("b",), Coefficient.param(("b",), "b")), [_linear(("s",), 2)],
     "parameter space mismatch"),
    (_linear(RATIONALS, 2), [_linear(RATIONALS, 2), _linear(("s",), 2)],
     "parameter space mismatch"),
], ids=["target_alphabet", "relation_alphabet", "target_space",
        "target_space_with_its_name", "relation_space"])
def test_membership_refuses_mixed_alphabets_and_spaces(target, relations,
                                                       message, monkeypatch):
    """A target or relation over another alphabet or parameter space than
    the first relation is refused in either regime before any row is
    built, whatever its values: x5*x1 lies in the ideal of x1, and
    x1 - 2*x2 over Q(b) is term by term the relation over Q(s)."""
    built = []
    for cls in (ideal._Span, ideal._PointSpan):
        monkeypatch.setattr(cls, "add_wrapped",
                            lambda self, *row: built.append(row))
    for membership in (graded_membership, bounded_membership):
        with pytest.raises(ValueError, match=f"^{message}: "):
            membership(target, relations)
    assert built == []


def test_certificate_that_fails_re_expansion_is_refused(monkeypatch):
    """The engine never returns a certificate whose re-expansion leaves a
    residual."""
    quadric = gen(0) * gen(1) - gen(1) * gen(0)
    monkeypatch.setattr(ideal, "_residual", lambda *args: {(): 1})
    with pytest.raises(RuntimeError, match="^internal error: certificate "
                                           "failed re-expansion$"):
        graded_membership(quadric.scale(2), [quadric])


def test_equivalence_identical_presentations():
    p = sklyanin(SklyaninParams.of(Fraction(1, 5), 1, -1))
    rep = presentations_equivalent(p, p)
    assert rep.verdict == "EQUIVALENT"
    for v in list(rep.forward) + list(rep.backward):
        assert v.kind == MEMBER


@pytest.mark.parametrize("p", [
    sklyanin(SklyaninParams.of(Fraction(1, 5), 1, -1)),
    cuntz_krieger(CKMatrix.for_modulus(7))], ids=["graded", "bounded"])
def test_empty_relation_list_is_refused_where_a_target_needs_it(p):
    """A relation of one side has nothing to be reduced against on an
    empty side, in either direction; with no target at all, the empty
    presentation is stable and equivalent to itself."""
    empty = Presentation(p.alphabet, p.space, [], p.involution)
    for P, Q in ((p, empty), (empty, p)):
        with pytest.raises(ValueError, match="^empty relation list$"):
            presentations_equivalent(P, Q)
    assert involution_stability(empty).verdict == STABLE
    assert presentations_equivalent(empty, empty).verdict == EQUIVALENT


def test_equivalence_is_graded_exactly_when_every_relation_is_homogeneous():
    """Omega0 against J0: all six relations are quadratic, so each failed
    reduction is a definitive NON_MEMBER.  The inhomogeneous unit relation
    on one side makes both directions bounded searches, which stay
    INCONCLUSIVE at wrapper length 2."""
    inv = adjoint_involution()
    j0 = Presentation(X, RATIONALS, ideal_J0(), inv)
    omega = Presentation(X, RATIONALS, ideal_Omega0(), inv)
    rep = presentations_equivalent(omega, j0)
    assert rep.verdict == NOT_EQUIVALENT
    assert [v.kind for v in rep.forward + rep.backward] == [NON_MEMBER] * 6
    omega_unit = omega.with_relations(ideal_I0())
    rep = presentations_equivalent(omega_unit, j0)
    assert rep.verdict == INCONCLUSIVE
    assert [(v.kind, v.bound) for v in rep.forward + rep.backward] == \
        [(INCONCLUSIVE, 2)] * 7


@pytest.mark.parametrize("space", [RATIONALS, ("b",)], ids=["Q", "Q(b)"])
def test_only_bounded_membership_searches_homogeneous_input_bounded(space):
    """x1*x2 against x2*x1: both are homogeneous, so graded_membership and
    presentations_equivalent decide the degree-2 slice, where x1*x2 is
    NON_MEMBER, while bounded_membership keeps to the bounded search,
    which proves nothing and leaves it INCONCLUSIVE at its bound."""
    x1, x2 = (NcPoly.generator(X, space, i) for i in range(2))
    target, relation = x1 * x2, x2 * x1
    assert graded_membership(target, [relation]).kind == NON_MEMBER
    v = bounded_membership(target, [relation], 2)
    assert (v.kind, v.bound) == (INCONCLUSIVE, 2)
    P, Q = (Presentation(X, space, [r], adjoint_involution())
            for r in (target, relation))
    rep = presentations_equivalent(P, Q, 2)
    assert rep.verdict == NOT_EQUIVALENT
    assert [(v.kind, v.bound) for v in rep.forward + rep.backward] == \
        [(NON_MEMBER, None)] * 2


def test_wrapper_len_zero():
    unit = gen(0) * gen(1) + gen(2) * gen(3) - NcPoly.one(X, RATIONALS)
    v = bounded_membership(unit.scale(3), [unit], wrapper_len=0)
    assert v.kind == MEMBER


def test_negative_wrapper_len_refused():
    # refused by every entry point that takes a wrapper length, also on the
    # graded path, which does not read it
    unit = gen(0) * gen(1) + gen(2) * gen(3) - NcPoly.one(X, RATIONALS)
    graded = sklyanin(SklyaninParams.of(Fraction(1, 5), 1, -1))
    bounded = cuntz_krieger(CKMatrix.for_modulus(7))
    for call in (lambda: bounded_membership(unit, [unit], wrapper_len=-1),
                 lambda: involution_stability(graded, -1),
                 lambda: involution_stability(bounded, -1),
                 lambda: presentations_equivalent(*modulus_family(7), -1)):
        with pytest.raises(ValueError, match="nonnegative"):
            call()


@pytest.mark.parametrize("wrapper_len,kind",
                         [(None, "NoneType"), (2.5, "float"), (True, "bool"),
                          ("2", "str")], ids=["none", "float", "bool", "str"])
def test_wrapper_len_that_is_no_int_refused(wrapper_len, kind):
    """A wrapper length that is not an int, or is a bool, is refused by
    every bounded entry point and by verify before any work; None is
    refused there too, since a bounded search needs its bound."""
    unit = gen(0) * gen(1) + gen(2) * gen(3) - NcPoly.one(X, RATIONALS)
    bounded = cuntz_krieger(CKMatrix.for_modulus(7))
    for call in (lambda: bounded_membership(unit, [unit], wrapper_len),
                 lambda: involution_stability(bounded, wrapper_len),
                 lambda: presentations_equivalent(*modulus_family(7),
                                                  wrapper_len),
                 lambda: verify("theorem1", b=7, wrapper_len=wrapper_len)):
        with pytest.raises(ValueError, match="^wrapper length must be an "
                                             f"int, not {kind}$"):
            call()


@pytest.mark.parametrize("wrapper_len", [None, 2.5, True],
                         ids=["none", "float", "bool"])
def test_graded_path_takes_only_none_or_an_int(wrapper_len):
    """The graded path does not read the wrapper length: None passes there,
    and any other value that is not an int is still refused."""
    graded = sklyanin(SklyaninParams.of(Fraction(1, 5), 1, -1))
    if wrapper_len is None:
        assert involution_stability(graded, None).verdict == STABLE
    else:
        with pytest.raises(ValueError, match="^wrapper length must be an"):
            involution_stability(graded, wrapper_len)


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
        assert not all(r.is_homogeneous() for r in targets.relations)
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
    report = verify("lemma2")
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


def _report_entries(rep):
    return [_entries(v.certificate) for v in rep.forward + rep.backward]


def test_member_search_stops_at_the_last_pivot(monkeypatch):
    """A bounded search whose targets are all members stops feeding rows
    once the last one is certified: at wrapper length 5 the modulus family
    at b = 7 builds no more rows than the two complete wrapper-length-2
    spans, and every certificate equals its wrapper-length-2 counterpart
    entry by entry."""
    p, q = modulus_family(7)
    short = presentations_equivalent(p, q, 2)
    built = 0
    add_wrapped = ideal._Span.add_wrapped

    def counting(self, *row):
        nonlocal built
        built += 1
        return add_wrapped(self, *row)

    monkeypatch.setattr(ideal._Span, "add_wrapped", counting)
    long = presentations_equivalent(p, q, 5)
    assert long.verdict == short.verdict == EQUIVALENT
    assert _report_entries(long) == _report_entries(short)
    k2_rows = sum(len(s.relations) * (t + 1) * 4 ** t
                  for s in (p, q) for t in range(3))
    assert k2_rows == 798
    assert built <= k2_rows


@pytest.mark.parametrize("degrees,degree,wrapper_len",
                         [([2] * 6, 2, None), ([1, 12], 4, None),
                          ([1, 2, 3], 5, None), ([2, 2, 1], None, 3)],
                         ids=["sklyanin", "uneven", "three_degrees",
                              "bounded"])
def test_row_estimate_counts_the_rows_of_a_span(degrees, degree,
                                                wrapper_len, monkeypatch):
    """The row budget's estimate is the number of rows the span yields,
    graded or bounded: a budget of exactly that many admits the span and
    one row less refuses it before any row is built."""
    relations = [SimpleNamespace(alphabet=X[:3], degree=lambda d=d: d)
                 for d in degrees]
    rows = len(wrapper_order(3, degrees, degree, wrapper_len))
    monkeypatch.setattr(ideal, "MAX_SPAN_ROWS", rows)
    assert len(list(ideal._span(relations, degree, wrapper_len))) == rows
    monkeypatch.setattr(ideal, "MAX_SPAN_ROWS", rows - 1)
    what = (f"wrapper length {wrapper_len}" if degree is None
            else f"the degree-{degree} slice")
    with pytest.raises(ValueError, match=f"^{what} needs {rows:,} wrapped "
                                         f"rows \\({len(degrees)} relations "
                                         "over 3 generators\\)"):
        next(ideal._span(relations, degree, wrapper_len))


@pytest.mark.parametrize("b", [7, None], ids=["b7", "symbolic"])
def test_bounded_certificate_does_not_depend_on_its_batch(b):
    """The relations of one direction share a span and stop it together;
    each certificate still equals the one found for its target alone."""
    p, q = modulus_family(b)
    rep = presentations_equivalent(p, q)
    for sources, targets, verdicts in ((p, q, rep.forward),
                                       (q, p, rep.backward)):
        for rel, v in zip(sources.relations, verdicts):
            alone = bounded_membership(rel, targets.relations, 2)
            assert alone.kind == v.kind == MEMBER
            assert _entries(alone.certificate) == _entries(v.certificate)


def test_graded_certificate_does_not_depend_on_its_batch():
    """The same on the graded path: the six involution images share one
    degree-2 slice."""
    p = sklyanin(SklyaninParams.of(Fraction(1, 5), 1, -1))
    rep = involution_stability(p)
    assert rep.verdict == STABLE
    for r in rep.relations:
        img = p.relations[r.index].involute(p.involution)
        alone = graded_membership(img, p.relations)
        assert alone.kind == MEMBER
        assert _entries(alone.certificate) == _entries(r.verdict.certificate)


def _fed_span(p, q):
    """A span over q's relations, fed its bounded rows until p's relations
    are settled; the span and the combinations behind the settled ones."""
    span = ideal._span_over(q.relations)
    vecs = {k: span._to_vec(t) for k, t in enumerate(p.relations)}
    settled = ideal._feed(span, vecs, ideal._span(q.relations, None, 2))
    assert len(settled) == len(vecs)
    return span, [span._combination(steps) for steps in settled.values()]


def _stored_scalars(span, combos):
    for vec in span._vec_cache:
        yield from vec.values()
    for row, _, inv, steps in span.basis.values():
        yield from row.values()
        yield inv
        yield from (c for _, c in steps)
    for combo in combos:
        yield from combo.values()


def _assert_lowered(scalars):
    """Every constant is an int or a non-integer Fraction, and a Coefficient
    only when its value carries a name; the types seen."""
    kinds = set()
    for c in scalars:
        kinds.add(type(c))
        if type(c) is Coefficient:
            assert not c.is_rational(), c
        else:
            assert type(c) is int or (type(c) is Fraction and
                                      c.denominator != 1), c
    return kinds


def test_symbolic_span_stores_no_rational_coefficient():
    """Over ("b",) a constant entry is an int or a Fraction; a Coefficient
    is kept only when its value carries b."""
    kinds = _assert_lowered(_stored_scalars(*_fed_span(*modulus_family(None))))
    assert {int, Coefficient} <= kinds


def test_rational_span_stores_only_fractions():
    """Over Q every entry, inverse and multiplier the span keeps is a
    Fraction, as the sweeps have always run."""
    span, _ = _fed_span(*modulus_family(7))
    assert type(span) is ideal._FractionSpan
    assert {type(c) for c in _stored_scalars(span, [])} == {Fraction}


def _extended(pres, space):
    return [NcPoly(r.alphabet, space,
                   {w: c.extend(space) for w, c in r.terms.items()})
            for r in pres.relations]


def test_span_over_two_names_stores_lowered_scalars():
    """Over two or more names too, a constant entry is an int or a
    Fraction and a Coefficient is kept only when its value carries a name,
    and the verdicts are those over ("b",)."""
    space = ("a", "b")
    p, q = (SimpleNamespace(relations=_extended(x, space))
            for x in modulus_family(None))
    span, combos = _fed_span(p, q)
    assert {int, Coefficient} <= _assert_lowered(_stored_scalars(span, combos))
    assert len(combos) == len(_fed_span(*modulus_family(None))[1])


def _printed(cert):
    """A certificate's entries, each with its coefficient printed."""
    return [(e.left, e.rel_index, e.right, str(e.coeff)) for e in cert]


def test_family_over_two_names_gives_the_one_name_certificates():
    """The modulus family with its relations extended to ("a", "b"), a
    space that no workload reaches, gets the verdicts and the printed
    certificate entries it gets over ("b",): through the point pass
    (`presentations_equivalent`), and through the exact loop alone
    (`ideal._certificates`) in both directions."""
    space = ("a", "b")
    one = modulus_family(None)
    two = [Presentation(x.alphabet, space, _extended(x, space), x.involution)
           for x in one]
    reports = [presentations_equivalent(*sides, 2) for sides in (one, two)]
    assert [r.verdict for r in reports] == [EQUIVALENT, EQUIVALENT]
    outcomes = [[(v.kind, _printed(v.certificate))
                 for v in r.forward + r.backward] for r in reports]
    assert outcomes[1] == outcomes[0]
    for order in (slice(None), slice(None, None, -1)):
        found = []
        for p, q in (one[order], two[order]):
            batch = list(range(len(p.relations)))
            certs = ideal._certificates(p.relations, batch, q.relations,
                                        None, 2)
            found.append({k: _printed(c) for k, c in certs.items()})
        assert len(found[0]) == len(one[order][0].relations)
        assert found[1] == found[0]


_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
               "__rmul__", "__truediv__", "__rtruediv__")


def _is_rational_constant(x):
    return type(x) in (int, Fraction) or (type(x) is Coefficient and
                                         x.is_rational())


@pytest.mark.parametrize("claim,min_ops",
                         [("theorem1", 1000), ("corollary1", 1000),
                          ("lemma1", 100), ("lemma2", 80)],
                         ids=["theorem1", "corollary1", "lemma1", "lemma2"])
def test_symbolic_engine_makes_no_constant_coefficient_operation(
        monkeypatch, claim, min_ops):
    """Inside the engine, no Coefficient operation has two rational
    constants as operands: those are int or Fraction arithmetic, over one
    name (theorem1, corollary1) and over two or more (lemma1's six names,
    lemma2's two).  min_ops keeps the count from passing vacuously."""
    inside, seen, constant = [False], [0], []

    def counting(name):
        op = getattr(Coefficient, name)

        def wrapper(self, other):
            if inside[0]:
                seen[0] += 1
                if _is_rational_constant(self) and \
                        _is_rational_constant(other):
                    constant.append((name, self, other))
            return op(self, other)
        return wrapper

    for name in _ARITHMETIC:
        monkeypatch.setattr(Coefficient, name, counting(name))
    verdicts = ideal._verdicts

    def engine(*args, **kwargs):
        inside[0] = True
        try:
            return verdicts(*args, **kwargs)
        finally:
            inside[0] = False

    monkeypatch.setattr(ideal, "_verdicts", engine)
    assert verify(claim, b=None).verdict == "PASS"
    assert seen[0] > min_ops and constant == []


# ---------------------------------------------------------------------------
# the point pass: a span over a named space, bounded or graded, finds its
# support rows modulo a prime at a fixed point, then solves exactly on those
# rows only

# the prime of the point pass before it was cut to one CPython digit, and
# the prime of today; the point decides speed only, so neither may change a
# verdict or a certificate
_PRIMES = (2 ** 61 - 1, 2 ** 30 - 35)


def _assert_same_as_exact_loop(targets, relations, wrapper_len,
                               primes=(None,)):
    """_verdicts gives every target the verdict, and every MEMBER the
    certificate entries, in value and in printed form, that the exact row
    loop alone gives: bounded at wrapper_len, or graded, against the slice
    of each target's degree, when wrapper_len is None.  Checked with the
    point pass modulo each of the primes (None: POINT_PRIME as it is), at
    the point of POINT_ROOT's golden-ratio constant reduced by that prime;
    the verdicts of the last prime are returned."""
    graded = wrapper_len is None
    batches: dict = {}
    for k, t in enumerate(targets):
        if not t.is_zero():
            batches.setdefault(t.degree() if graded else None, []).append(k)
    want = {}
    for degree, batch in batches.items():
        want.update(ideal._certificates(targets, batch, relations, degree,
                                        wrapper_len))
    open_ = (NON_MEMBER, None) if graded else (INCONCLUSIVE, wrapper_len)
    for prime in primes:
        with pytest.MonkeyPatch.context() as mp:
            if prime is not None:
                mp.setattr(ideal, "POINT_PRIME", prime)
                mp.setattr(ideal, "POINT_ROOT", 0x9E3779B97F4A7C15 % prime)
            got = ideal._verdicts(targets, relations, wrapper_len,
                                  bounded=not graded)
        for k in itertools.chain(*batches.values()):
            v = got[k]
            if k not in want:
                assert (v.kind, v.bound) == open_
                continue
            assert v.kind == MEMBER
            assert _entries(v.certificate) == _entries(want[k])
            assert [str(e.coeff) for e in v.certificate] == \
                [str(e.coeff) for e in want[k]]
    return got


def _counting(monkeypatch, name):
    """Count the calls of ideal.<name>, which keeps working."""
    calls = []
    fn = getattr(ideal, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)
    monkeypatch.setattr(ideal, name, counted)
    return calls


@pytest.mark.parametrize("with_omega", [False, True],
                         ids=["theorem1", "corollary1"])
def test_point_pass_changes_no_family_certificate(with_omega, monkeypatch):
    """Both directions of the symbolic family, and 1 against either side
    (the unit certificates of a zero quotient), get the verdicts and
    certificates of the exact loop under either prime; the point pass
    settles every target, so the exact loop never runs inside _verdicts."""
    p, q = modulus_family(None, with_omega=with_omega)
    fallbacks = _counting(monkeypatch, "_certificates")
    for sources, side in ((p, q), (q, p)):
        got = _assert_same_as_exact_loop(sources.relations, side.relations, 2,
                                         _PRIMES)
        assert {v.kind for v in got} == {MEMBER}
        one = NcPoly.one(X, side.space)
        unit = _assert_same_as_exact_loop([one], side.relations, 2, _PRIMES)
        alone = bounded_membership(one, side.relations, 2)
        assert unit[0].kind == alone.kind == MEMBER
        assert _entries(unit[0].certificate) == _entries(alone.certificate)
    assert len(fallbacks) == 4     # the reference calls of the helper only


# whether a row of the direction (forward, backward) reduces to zero at the
# point: none does at wrapper length 0; at length 1, 0 and 4 rows do for
# theorem1, 4 and 8 for corollary1
_ZERO_ROWS_AT_THE_POINT = {(False, 0): (False, False),
                           (False, 1): (False, True),
                           (True, 0): (False, False),
                           (True, 1): (True, True)}


@pytest.mark.parametrize("wrapper_len", [0, 1])
@pytest.mark.parametrize("with_omega", [False, True],
                         ids=["theorem1", "corollary1"])
def test_point_pass_keeps_the_bound_of_an_open_target(with_omega,
                                                      wrapper_len,
                                                      monkeypatch):
    """At wrapper length 0 or 1 two targets of each direction stay open
    and keep their bound, under either prime.  They go through the exact
    loop too only when a row reduced to zero at the point: otherwise the
    point rank is the exact rank, and the exact loop could settle nothing
    more."""
    p, q = modulus_family(None, with_omega=with_omega)
    zero_rows = _ZERO_ROWS_AT_THE_POINT[with_omega, wrapper_len]
    for (sources, side), zero_row in zip(((p, q), (q, p)), zero_rows):
        fallbacks = _counting(monkeypatch, "_certificates")
        got = _assert_same_as_exact_loop(sources.relations, side.relations,
                                         wrapper_len, _PRIMES)
        assert [v.bound for v in got if v.kind == INCONCLUSIVE] == \
            [wrapper_len] * 2
        # one reference call of the helper, and one fallback per prime if
        # any
        assert len(fallbacks) == 1 + len(_PRIMES) * zero_row
        monkeypatch.undo()


@pytest.mark.parametrize("claim,point_rows,exact_rows",
                         [("theorem1", 561, 80), ("corollary1", 717, 99),
                          ("lemma1", 24, 14), ("lemma2", 4, 4),
                          ("lemma4", 6, 6)])
def test_point_pass_feeds_a_fixed_number_of_rows(claim, point_rows,
                                                 exact_rows, monkeypatch):
    """The symbolic claims feed a known number of rows at the point and to
    the exact sub-span: bounded spans for theorem1 and corollary1, graded
    slices for the lemmas (the exact loop alone fed all 24 of lemma1's
    rows, for its non-members).  Certificates are unique, so they cannot
    show a change of pivot order; these counts can."""
    fed = {ideal._PointSpan: 0, ideal._Span: 0}
    for cls in fed:
        add_wrapped = cls.add_wrapped

        def counting(self, *row, cls=cls, add_wrapped=add_wrapped):
            fed[cls] += 1
            return add_wrapped(self, *row)
        monkeypatch.setattr(cls, "add_wrapped", counting)
    assert verify(claim, b=None).verdict == "PASS"
    assert fed == {ideal._PointSpan: point_rows, ideal._Span: exact_rows}


def _words(n, max_len):
    return [w for k in range(max_len + 1)
            for w in itertools.product(range(n), repeat=k)]


def _code_span(n, relations=None):
    """A _PointSpan over n generators, by default on the relation x1."""
    gens = tuple(f"y{i}" for i in range(n))
    if relations is None:
        relations = [NcPoly.generator(gens, ("b",), 0)]
    return ideal._PointSpan(relations)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_word_codes_are_distinct_and_ordered_as_deglex(n):
    """Up to length 5, the point pass's word codes are distinct and sort
    the words as word_key does; () is 0, and up to length 3 a
    concatenation u + v is a shift by base n + 1."""
    span = _code_span(n)
    words = _words(n, 5)
    codes = [span._code(w) for w in words]
    assert len(set(codes)) == len(words)
    assert sorted(words, key=span._code) == sorted(words, key=word_key)
    assert span._code(()) == 0
    base = n + 1
    for u in _words(n, 3):
        for v in _words(n, 3):
            assert span._code(u + v) == \
                span._code(u) * base ** len(v) + span._code(v)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_wrapped_row_codes_are_the_codes_of_its_words(n):
    """A wrapped row keys each entry by the code of left + word + right:
    every row of a fresh span is its pivot plus its other entries."""
    space = ("b",)
    gens = tuple(f"y{i}" for i in range(n))
    b = Coefficient.param(space, "b")
    rel = NcPoly(gens, space, {w: b + k + 1
                               for k, w in enumerate(_words(n, 2)[::2])})
    for left in _words(n, 2):
        for right in _words(n, 2):
            span = _code_span(n, [rel])
            piv = span.add_wrapped(left, 0, right)
            assert {piv, *span.basis[piv][0]} == \
                {span._code(left + w + right) for w in rel.terms}


def test_point_prime_is_one_digit_and_the_point_is_generic():
    """POINT_PRIME is a prime below 2^30, so every residue is one 30-bit
    CPython digit, and the point gives 1 to 8 names nonzero, distinct
    values."""
    assert isprime(ideal.POINT_PRIME) and ideal.POINT_PRIME < 2 ** 30
    for n in range(1, 9):
        space = tuple(f"t{k}" for k in range(n))
        point = ideal._PointSpan([NcPoly.generator(X, space, 0)]).point
        assert 0 not in point and len(set(point)) == n


def _max_reduce(basis, vec, key, subtract, bound=1000):
    """The reference pivot loop: at each step the max of the vec's basis
    words, by key; the steps (pivot, multiplier) and whether a step brought
    back a basis word that an earlier step had cancelled."""
    steps, cancelled, returned = [], set(), False
    for _ in range(bound):
        piv = max(filter(basis.__contains__, vec), key=key, default=None)
        if piv is None:
            return steps, returned
        c = vec.pop(piv)
        steps.append((piv, c))
        for w, bc in basis[piv][0].items():
            nv = subtract(vec.get(w, 0), c, bc)
            if nv:
                returned = returned or (w in cancelled and w not in vec)
                vec[w] = nv
            else:
                if w in basis:
                    cancelled.add(w)
                vec.pop(w, None)
    raise AssertionError("the reference loop did not end")


def _bounded_reduce(span, vec, lines=20_000):
    """span._reduce(vec), failing once its frame has run more lines than
    any of these reductions needs, so that a loop that does not end fails
    instead of hanging."""
    code, left = type(span)._reduce.__code__, [lines]

    def count(frame, event, arg):
        left[0] -= 1
        if left[0] < 0:
            raise AssertionError("the reduction loop did not end")
        return count

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg:
                 count if frame.f_code is code else None)
    try:
        return span._reduce(vec)
    finally:
        sys.settrace(previous)


_EXACT = (ideal._Span, word_key,
          lambda a, c, bc: lowered(a - lowered(c * bc)))
_POINT = (ideal._PointSpan, None,
          lambda a, c, bc: (a - c * bc) % ideal.POINT_PRIME)


def _compare_reductions(kind, basis, vec):
    """Reduce a copy of vec with the span's _reduce and with the reference
    loop; both give the same pivots (and multipliers, for a _Span) and
    the same reduced vec.  The steps, the reduced vec, and whether the
    reference brought a cancelled word back."""
    cls, key, subtract = kind
    span = cls([NcPoly.generator(X, ("b",), 0)])
    span.basis = basis
    new_vec, ref_vec = dict(vec), dict(vec)
    steps = _bounded_reduce(span, new_vec)
    ref_steps, returned = _max_reduce(basis, ref_vec, key, subtract)
    if cls is ideal._PointSpan:
        ref_steps = [piv for piv, _ in ref_steps]
    assert steps == ref_steps
    assert new_vec == ref_vec
    return steps, new_vec, returned


@pytest.mark.parametrize("kind", [_EXACT, _POINT],
                         ids=["span", "point"])
def test_sorted_pivot_loop_brings_back_a_cancelled_word(kind):
    """Words q < p1 < p2 < p3 with rows p3 -> p1 + p2, p2 -> p1, p1 -> q:
    reducing p3 + p1, the first step cancels the candidate p1 and brings
    in p2, whose step brings p1 back, so p1 is the third pivot."""
    if kind is _EXACT:
        q, p1, p2, p3 = (), (0,), (1,), (2,)
        neg = -1
    else:
        q, p1, p2, p3 = 0, 1, 2, 3
        neg = ideal.POINT_PRIME - 1
    basis = {p3: ({p1: 1, p2: 1},), p2: ({p1: 1},), p1: ({q: 1},)}
    steps, vec, returned = _compare_reductions(kind, basis, {p3: 1, p1: 1})
    assert returned
    assert steps == ([(p3, 1), (p2, -1), (p1, 1)] if kind is _EXACT
                     else [p3, p2, p1])
    assert vec == {q: neg}


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("kind", [_EXACT, _POINT],
                         ids=["span", "point"])
def test_sorted_pivot_loop_matches_the_max_loop(kind, seed):
    """Seeded random vecs reduced against seeded random echelon bases:
    each row holds only words below its pivot, as a basis row does, and
    its entries are small, so that steps cancel words and bring them back.
    The named spans' _reduce gives the reference loop's steps and reduced
    vec."""
    rng = random.Random(seed)
    cls, _, _ = kind
    words = sorted(_words(2, 3), key=word_key)
    keys = words if cls is ideal._Span else list(range(len(words)))
    scalars = ([1, -1, 1, -1, 2, Fraction(-1, 2)] if cls is ideal._Span
               else [1, ideal.POINT_PRIME - 1, 2])
    returned = 0
    for _ in range(60):
        basis = {}
        for i in rng.sample(range(1, len(keys)), rng.randint(4, 12)):
            below = rng.sample(range(i), min(i, rng.randint(0, 4)))
            basis[keys[i]] = ({keys[j]: rng.choice(scalars)
                               for j in below},)
        vec = {keys[j]: rng.choice(scalars)
               for j in rng.sample(range(len(keys)), rng.randint(1, 8))}
        returned += _compare_reductions(kind, basis, vec)[2]
    assert returned


@pytest.mark.parametrize("degree,hilbert", [(2, 10), (3, 20), (4, 35),
                                            (5, 56)])
def test_point_and_exact_spans_agree_on_a_full_degree_slice(degree,
                                                            hilbert):
    """The whole degree-n slice of the six quadratic relations of the
    family's first side (without its unit relation), fed to a _PointSpan
    and to an exact _Span over Q(b), leaves 4^n minus its rank = C(n+3, 3)
    words, the Hilbert function of a Sklyanin algebra in four generators.
    Its rows fill in as they reduce, which the few-entry rows of the
    symbolic claims never do."""
    p, _ = modulus_family(None)
    quadrics = [r for r in p.relations if r.is_homogeneous()]
    assert len(quadrics) == 6
    for cls in (ideal._PointSpan, ideal._Span):
        span = cls(quadrics)
        for row in ideal._span(quadrics, degree, None):
            span.add_wrapped(*row)
        assert 4 ** degree - len(span.basis) == hilbert


def _random_scalar(rng, space):
    """A nonzero random value of Q(space), a quotient about one time in
    three."""
    params = [Coefficient.param(space, n) for n in space]
    c = Coefficient.const(space, Fraction(rng.choice([-3, -2, -1, 1, 2]),
                                          rng.randint(1, 2)))
    x = rng.choice(params)
    c = c + x * rng.randint(-2, 2)
    if rng.random() < 0.3:
        c = c / (rng.choice(params) + rng.randint(1, 3))
    return c or Coefficient.const(space, 1)


def _random_bounded_problem(rng, space, gens=X[:3]):
    """Three random inhomogeneous relations over the generators with
    coefficients in Q(space), and four targets: two combinations of
    wrapped relations (members) and two random polynomials."""
    one = Coefficient.const(space, 1)

    def word(n):
        return tuple(rng.randrange(len(gens)) for _ in range(n))

    def poly(max_len):
        return NcPoly(gens, space, {word(rng.randint(0, max_len)):
                                    _random_scalar(rng, space)
                                    for _ in range(3)})

    relations = [poly(2) for _ in range(3)]
    targets = []
    for _ in range(2):
        t = NcPoly.zero(gens, space)
        for _ in range(2):
            llen = rng.randint(0, 1)
            t = t + (NcPoly(gens, space, {word(llen): one})
                     * rng.choice(relations)
                     * NcPoly(gens, space, {word(1 - llen): one})
                     ).scale(_random_scalar(rng, space))
        targets.append(t)
    return relations, targets + [poly(2), poly(3)]


@pytest.mark.parametrize("space,wrapper_lens,gens",
                         [(("t",), (1, 2), X[:3]), (("s", "t"), (1,), X[:3]),
                          (("t",), (1, 2, 3), X[:1]),
                          (("t",), (1, 2), X + ("x5",))],
                         ids=["one_name", "two_names", "one_generator",
                              "five_generators"])
def test_point_pass_changes_no_random_verdict(space, wrapper_lens, gens):
    """Seeded random bounded problems get the exact loop's verdicts and
    certificates under either prime, over 1, 3 and 5 generators, so over
    word codes in bases 1, 3 and 5.  Over two names only at wrapper
    length 1: without a multivariate GCD the exact loop's entries there
    grow too fast for a test at length 2."""
    rng = random.Random(2024)
    members = 0
    for _ in range(6):
        relations, targets = _random_bounded_problem(rng, space, gens)
        for wrapper_len in wrapper_lens:
            got = _assert_same_as_exact_loop(targets, relations, wrapper_len,
                                             _PRIMES)
            members += sum(v.kind == MEMBER for v in got)
    assert members >= 12 * len(wrapper_lens)


def _random_graded_problem(rng, space, degrees, top, gens=X[:3]):
    """Random homogeneous relations of the given degrees over the
    generators with coefficients in Q(space), and four targets: two
    combinations of wrapped relations of degree top (members) and two
    random homogeneous polynomials of degrees top - 1 and top."""
    one = Coefficient.const(space, 1)

    def word(n):
        return tuple(rng.randrange(len(gens)) for _ in range(n))

    def poly(degree):
        return NcPoly(gens, space, {word(degree): _random_scalar(rng, space)
                                    for _ in range(3)})

    relations = [poly(d) for d in degrees]
    targets = []
    for _ in range(2):
        t = NcPoly.zero(gens, space)
        for _ in range(2):
            rel = rng.choice(relations)
            total = top - rel.degree()
            llen = rng.randint(0, total)
            t = t + (NcPoly(gens, space, {word(llen): one}) * rel
                     * NcPoly(gens, space, {word(total - llen): one})
                     ).scale(_random_scalar(rng, space))
        targets.append(t)
    return relations, targets + [poly(top - 1), poly(top)]


@pytest.mark.parametrize("space,degrees,top,gens",
                         [(("t",), (1, 2, 2), 3, X[:3]),
                          (("t",), (2, 2, 2), 4, X[:3]),
                          (("s", "t"), (1, 2), 2, X[:3]),
                          (("t",), (1, 2, 2), 3, X + ("x5",))],
                         ids=["one_name", "one_name_degree_4", "two_names",
                              "five_generators"])
def test_graded_point_pass_changes_no_random_verdict(space, degrees, top,
                                                     gens):
    """Seeded random graded problems get the exact loop's verdicts and
    certificates under either prime, members and non-members alike.  Over
    two names only up to degree 2, for the reason the bounded test
    gives."""
    rng = random.Random(2024)
    kinds = []
    for _ in range(6):
        relations, targets = _random_graded_problem(rng, space, degrees,
                                                    top, gens)
        got = _assert_same_as_exact_loop(targets, relations, None, _PRIMES)
        kinds += [v.kind for v in got]
    assert kinds.count(MEMBER) >= 12 and kinds.count(NON_MEMBER) >= 6


def test_graded_non_member_at_full_point_rank_skips_the_exact_loop(
        monkeypatch):
    """A graded target that the pass leaves open where every row of its
    slice is independent at the point keeps its NON_MEMBER without
    _certificates: over one name, and in the three unstable stages of
    symbolic lemma1 over six."""
    space = ("b",)
    b = Coefficient.param(space, "b")
    x1, x2, x3 = (NcPoly.generator(X, space, i) for i in range(3))
    rel = x1 * x2 - (x2 * x1).scale(b)
    targets = [x2 * x1, x3 * x1 * x2, x3 * rel + rel * x1.scale(b)]
    fallbacks = _counting(monkeypatch, "_certificates")
    got = ideal._verdicts(targets, [rel], None)
    assert [v.kind for v in got] == [NON_MEMBER, NON_MEMBER, MEMBER]
    assert verify("lemma1", b=None).verdict == "PASS"
    assert fallbacks == []
    monkeypatch.undo()
    _assert_same_as_exact_loop(targets, [rel], None)


def _point_value():
    """The value of the only name of ("b",) at the point of the point pass."""
    return ideal._PointSpan([NcPoly.generator(X, ("b",), 0)]).point[0]


def _vanishing(b):
    """b minus its value at the point: zero there, nonzero in Q(b)."""
    return b - _point_value()


def _both_regimes(cases, wrapper_len):
    """pytest params (case, wrapper_len), bounded under the case's own id,
    and (case, None), graded, under graded_<case>."""
    return [pytest.param(c, wrapper_len, id=c) for c in cases] + \
        [pytest.param(c, None, id=f"graded_{c}") for c in cases]


@pytest.mark.parametrize("where,wrapper_len",
                         _both_regimes(["relation", "target"], 1))
def test_point_pass_is_skipped_at_a_pole(where, wrapper_len, monkeypatch):
    """A coefficient with a pole at the point skips the pass: no row is
    built modulo the prime, and the exact loop gives the verdict, in
    either regime."""
    space = ("b",)
    b = Coefficient.param(space, "b")
    pole = Coefficient.const(space, 1) / _vanishing(b)
    x1, x2 = (NcPoly.generator(X, space, i) for i in range(2))
    relations = [x1 - x2.scale(pole if where == "relation" else b), x2]
    target = x1.scale(pole) if where == "target" else x1
    point_rows = []
    add_wrapped = ideal._PointSpan.add_wrapped
    monkeypatch.setattr(ideal._PointSpan, "add_wrapped",
                        lambda self, *row: point_rows.append(row) or
                        add_wrapped(self, *row))
    [v] = _assert_same_as_exact_loop([target], relations, wrapper_len)
    assert v.kind == MEMBER and point_rows == []


@pytest.mark.parametrize(
    "case,wrapper_len",
    _both_regimes(["open", "short_support", "non_member"], 0))
def test_point_pass_falls_back_where_a_row_vanishes_at_the_point(
        case, wrapper_len, monkeypatch):
    """Relation 1 equals relation 0 at the point only, so it is a basis row
    of the exact span and not of the point pass.  x2 is then left open
    by the pass; relation 1 itself is settled there on relation 0 alone,
    which does not reduce it exactly; x1 + (b - point) x3 is settled there
    too but is no member.  Each goes through the exact loop, bounded or
    graded: a graded target open below full point rank is no NON_MEMBER
    until the exact loop says so."""
    space = ("b",)
    b = Coefficient.param(space, "b")
    x1, x2, x3 = (NcPoly.generator(X, space, i) for i in range(3))
    relations = [x1, x1 + x2.scale(_vanishing(b))]
    target = {"open": x2, "short_support": relations[1],
              "non_member": x1 + x3.scale(_vanishing(b))}[case]
    fallbacks = _counting(monkeypatch, "_certificates")
    [v] = _assert_same_as_exact_loop([target], relations, wrapper_len)
    assert len(fallbacks) == 2     # one inside _verdicts, one reference
    if case == "non_member":
        assert (v.kind, v.bound) == ((NON_MEMBER, None) if wrapper_len is None
                                     else (INCONCLUSIVE, 0))
    else:
        assert v.kind == MEMBER
    if case == "short_support":
        assert _entries(v.certificate) == [((), 1, (), 1)]


@pytest.mark.parametrize("factor,wrapper_len",
                         _both_regimes(["prime", "vanishing"], 0))
def test_point_pass_falls_back_for_a_target_that_vanishes_at_the_point(
        factor, wrapper_len, monkeypatch):
    """A member whose every coefficient is zero at the point has no entry
    there, so the pass settles it on no support rows, which do not reduce
    it exactly.  It still gets its certificate from the exact loop,
    although the only row is independent at the point: a graded one too,
    which would otherwise keep NON_MEMBER."""
    space = ("b",)
    b = Coefficient.param(space, "b")
    rel = NcPoly.generator(X, space, 0) + \
        NcPoly.generator(X, space, 1).scale(b)
    scale = {"prime": Coefficient.const(space, ideal.POINT_PRIME),
             "vanishing": _vanishing(b)}[factor]
    fallbacks = _counting(monkeypatch, "_certificates")
    [v] = _assert_same_as_exact_loop([rel.scale(scale)], [rel], wrapper_len)
    assert len(fallbacks) == 2     # one inside _verdicts, one reference
    assert v.kind == MEMBER
    assert _entries(v.certificate) == [((), 0, (), scale)]


def _vanishing_batch(case):
    """x1 + b x2 and (b - point) (x1 + b x2), zero at the point: beside
    the relation itself as a target, or beside x3 with x3 as a relation."""
    space = ("b",)
    b = Coefficient.param(space, "b")
    x1, x2, x3 = (NcPoly.generator(X, space, i) for i in range(3))
    rel = x1 + x2.scale(b)
    if case == "beside_its_relation":
        return [rel, rel.scale(_vanishing(b))], [rel]
    return [x3, rel.scale(_vanishing(b))], [rel, x3]


@pytest.mark.parametrize(
    "case,wrapper_len",
    _both_regimes(["beside_its_relation", "beside_another_target"], 0))
def test_a_vanishing_target_rests_on_the_support_rows_of_its_batch(
        case, wrapper_len, monkeypatch):
    """A target zero at the point is settled there on no rows, and the
    exact solve on the support rows of the batch's other targets decides
    it: beside a target settled on its relation it is certified without
    the exact loop; beside x3, whose one support row is x3, it goes to
    the exact loop alone.  Both are members, bounded or graded."""
    targets, relations = _vanishing_batch(case)
    fallbacks = _counting(monkeypatch, "_certificates")
    got = _assert_same_as_exact_loop(targets, relations, wrapper_len)
    assert [v.kind for v in got] == [MEMBER, MEMBER]
    # the reference call of the helper, then the fallback inside _verdicts
    assert [args[1] for args in fallbacks] == \
        [[0, 1]] + [[1]] * (case == "beside_another_target")


@pytest.mark.parametrize("cls", [ideal._PointSpan, ideal._Span],
                         ids=["point", "exact"])
def test_feed_settles_zero_vecs_without_building_a_row(cls, monkeypatch):
    """_feed returns each vec that is zero from the start with no steps and
    builds no row; the span's row budget still refuses its rows."""
    relations = [NcPoly.generator(X, ("b",), 0)]
    built = []
    add_wrapped = cls.add_wrapped
    monkeypatch.setattr(cls, "add_wrapped", lambda self, *row:
                        built.append(row) or add_wrapped(self, *row))
    span = cls(relations)
    assert ideal._feed(span, {0: {}, 3: {}},
                       ideal._span(relations, None, 2)) == {0: [], 3: []}
    assert built == []
    # one relation over 4 generators: 1 + 2 * 4 + 3 * 16 = 57 rows
    monkeypatch.setattr(ideal, "MAX_SPAN_ROWS", 56)
    with pytest.raises(ValueError, match="^wrapper length 2 needs 57 "):
        ideal._feed(span, {0: {}}, ideal._span(relations, None, 2))
    assert built == []


def test_spans_over_q_take_no_point_pass(tmp_path, capsys, monkeypatch):
    """theorem1 at b = 7 and check-file on the six Sklyanin relations over
    Q build no _PointSpan: spans over Q keep the exact loop alone."""
    built = []
    init = ideal._PointSpan.__init__
    monkeypatch.setattr(ideal._PointSpan, "__init__", lambda self, rels:
                        built.append(rels) or init(self, rels))
    assert verify("theorem1", b=7).verdict == "PASS"
    p = sklyanin(SklyaninParams.of(Fraction(1, 5), 1, -1))
    assert p.space == () and len(p.relations) == 6
    f = tmp_path / "sklyanin.pres"
    f.write_text(print_presentation(p))
    assert main(["check-file", str(f), "--involution-stability"]) == 0
    assert "verdict: STABLE" in capsys.readouterr().out
    assert built == []
    assert verify("theorem1", b=None).verdict == "PASS"
    assert built            # the count sees a pass where one runs


def test_point_pass_refuses_a_span_past_the_budget_before_any_row(
        monkeypatch):
    """The row budget still refuses a bounded span over Q(b) before a row
    is built, modulo the prime or exactly."""
    built = []
    for cls in (ideal._Span, ideal._PointSpan):
        monkeypatch.setattr(cls, "add_wrapped",
                            lambda self, *row, add_wrapped=cls.add_wrapped:
                            built.append(row) or add_wrapped(self, *row))
    monkeypatch.setattr(ideal, "MAX_SPAN_ROWS", 398)
    with pytest.raises(ValueError, match="^wrapper length 2 needs 399 "):
        presentations_equivalent(*modulus_family(None))
    assert built == []


# ---------------------------------------------------------------------------
# re-expansion refuses a certificate that does not add up to its target

def _claim_certificates(claim, b):
    """(target, relations, certificate) for every certificate of theorem1
    or corollary1 at b (symbolic when None), or of lemma1's
    fully_identified stage (six names)."""
    if claim == "lemma1":
        sp = presentations._SCAN_SPACE
        rels = presentations._sklyanin_relations(
            sp, Coefficient.param(sp, "alpha"), 1, -1)
        conj = ConjugationSpec({k: v for k, v in
                                presentations._SCAN_PAIRS.items()
                                if k not in ("alpha", "alphabar")})
        p = Presentation(X, sp, rels, adjoint_involution(conj))
        rep = involution_stability(p, 2)
        pairs = [(rel.involute(p.involution), p.relations, r.verdict)
                 for rel, r in zip(p.relations, rep.relations)]
    else:
        p, q = modulus_family(b, with_omega=claim == "corollary1")
        rep = presentations_equivalent(p, q, 2)
        pairs = [(t, q.relations, v) for t, v in zip(p.relations, rep.forward)]
        pairs += [(t, p.relations, v)
                  for t, v in zip(q.relations, rep.backward)]
    assert all(v.kind == MEMBER for _, _, v in pairs)
    return [(t, rels, v.certificate) for t, rels, v in pairs]


def _at_point(space):
    """Bindings of every name of space to a rational that is a pole of no
    certificate coefficient here."""
    return {n: Coefficient.const(space, Fraction(10007 + 3 * k, 3 + k))
            for k, n in enumerate(space)}


def _oracle_agrees(target, relations, entries, bindings) -> bool:
    """Whether oracles.expand_certificate, run on the entries and relations
    with every name bound, gives the target so bound."""
    if bindings:
        entries = [e._replace(coeff=e.coeff.substitute(bindings))
                   for e in entries]
        relations = [r.substitute_params(bindings) for r in relations]
        target = target.substitute_params(bindings)
    return expand_certificate(entries, relations) == poly_to_dict(target)


@pytest.mark.parametrize("claim,b", [("theorem1", None), ("theorem1", 7),
                                     ("corollary1", None),
                                     ("corollary1", 7), ("lemma1", None)])
def test_re_expansion_refuses_a_changed_certificate(claim, b):
    """Each certificate re-expands to its target, and each of three edits
    of one entry makes MembershipCertificate.verify refuse it, as the
    word-dict oracle does at a point: 1 added to its coefficient, the
    coefficient multiplied by (x+1)/x for a name x (by (b+1)/b at an
    integer b), and the entry dropped."""
    rng = random.Random(f"{claim}-{b}")
    certified = _claim_certificates(claim, b)
    space = certified[0][1][0].space
    bindings = _at_point(space)
    x = Coefficient.param(space, space[0]) if space else \
        Coefficient.const(space, b)
    factor = (x + 1) / x
    for target, relations, cert in certified:
        entries = list(cert)
        assert cert.verify(target, relations)
        assert _oracle_agrees(target, relations, entries, bindings)
        k = rng.randrange(len(entries))
        e = entries[k]
        for changed in (e._replace(coeff=e.coeff + 1),
                        e._replace(coeff=e.coeff * factor), None):
            edited = entries[:k] + ([changed] if changed else []) + \
                entries[k + 1:]
            assert not MembershipCertificate(edited).verify(target, relations)
            assert not _oracle_agrees(target, relations, edited, bindings)
