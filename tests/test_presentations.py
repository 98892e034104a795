"""Presentation builders, the 2x2 linear algebra, and the claim pipelines."""
from __future__ import annotations

import warnings
from fractions import Fraction

import pytest

from ckverify.coeff import Coefficient, PoleError, RATIONALS
from ckverify.curves import curve_for_b
from ckverify.ideal import MEMBER, graded_membership
from ckverify.ncpoly import NcPoly
from ckverify import presentations
from ckverify.presentations import (
    CKMatrix, CLAIMS, GENERATORS, Matrix2, SklyaninParams, cuntz_krieger,
    ideal_I0, ideal_J0, ideal_Omega0, lemma2_solve, omega_central,
    similarity_check, sklyanin, verify)

from oracles import graded_member_oracle

X = GENERATORS


def alpha_sym():
    return Coefficient.param(("alpha",), "alpha")


# ---------------------------------------------------------------------------
# builders

def test_params_constraint_enforced():
    with pytest.raises(ValueError):
        SklyaninParams.of(1, 1, 1)
    with pytest.raises(ValueError):
        SklyaninParams.of(Fraction(1, 2), Fraction(1, 3), Fraction(1, 5))
    # (alpha, 1, -1) satisfies the constraint for every alpha
    SklyaninParams.of(alpha_sym(), 1, -1, ("alpha",))
    SklyaninParams.of(Fraction(3, 7), 1, -1)
    with pytest.raises(ValueError, match="different spaces"):
        SklyaninParams(alpha_sym(), Coefficient.const(RATIONALS, 1),
                       Coefficient.const(RATIONALS, -1))


def test_degenerate_alpha_warns():
    # the warning names the frame that built the parameters: `of` in
    # presentations.py, or the caller of the constructor
    one, minus_one = (Coefficient.const(RATIONALS, v) for v in (1, -1))
    for build, filename in (
            (lambda: SklyaninParams.of(0, 1, -1), presentations.__file__),
            (lambda: SklyaninParams(Coefficient.const(RATIONALS, 0), one,
                                    minus_one), __file__)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            build()
        assert len(caught) == 1
        assert "smooth range" in str(caught[0].message)
        assert caught[0].filename == filename


def test_sklyanin_relation_count_and_degree():
    p = sklyanin(SklyaninParams.of(Fraction(1, 5), 1, -1))
    assert len(p.relations) == 6
    assert all(r.is_homogeneous() and r.degree() == 2 for r in p.relations)


def test_ck_matrix_validation():
    with pytest.raises(ValueError):
        CKMatrix(0, 0, 1, 1)        # zero row
    with pytest.raises(ValueError):
        CKMatrix(0, 1, 0, 1)        # zero column
    with pytest.raises(ValueError):
        CKMatrix(1, -1, 1, 1)
    with pytest.raises(ValueError):
        CKMatrix(1, Fraction(1, 2), 1, 1)
    assert CKMatrix.for_modulus(5) == CKMatrix(4, 1, 3, 1)


def test_ck_relations():
    p = cuntz_krieger(CKMatrix(2, 1, 1, 1))
    assert len(p.relations) == 3
    x = [NcPoly.generator(X, RATIONALS, i) for i in range(4)]
    assert p.relations[0] == x[1] * x[0] - (x[0] * x[1]).scale(2) - x[2] * x[3]
    assert p.relations[1] == x[3] * x[2] - x[0] * x[1] - x[2] * x[3]
    assert p.relations[2] == x[0] * x[1] + x[2] * x[3] - NcPoly.one(X, RATIONALS)
    assert not p.relations[2].is_homogeneous()


def test_ck_matrix_is_a_matrix2():
    m = CKMatrix(2, 1, 1, 1)
    assert isinstance(m, Matrix2)
    assert m == Matrix2.of(RATIONALS, (2, 1, 1, 1))
    assert m.trace() == Coefficient.const(RATIONALS, 3)
    assert m.det() == Coefficient.const(RATIONALS, 1)
    # cuntz_krieger builds over the space of its matrix's entries
    sb = ("b",)
    bc = Coefficient.param(sb, "b")
    p = cuntz_krieger(Matrix2.of(sb, (bc, 1, bc - 1, 1)))
    assert p.space == sb and len(p.relations) == 3
    assert p.relations[1].terms[(0, 1)] == 1 - bc


@pytest.mark.filterwarnings("ignore:alpha in")
@pytest.mark.parametrize("b", [2, 3, 7, 100, None])
def test_family_reads_b_matrix_and_lambda(b):
    """The exchange side of modulus_family(b) carries B_b = [[b - 1, 1],
    [b - 2, 1]] as its x1*x2 and x3*x4 coefficients, which at an integer
    b are CKMatrix.for_modulus(b); corollary1's curve has lambda_b =
    (b - 2)/(b + 2), which at an integer b is curve_for_b(b)'s."""
    sp = ("b",) if b is None else RATIONALS
    bc = Coefficient.param(sp, "b") if b is None \
        else Coefficient.const(sp, b)
    _, q = presentations.modulus_family(b)
    x1x2, x3x4 = (0, 1), (2, 3)
    got = Matrix2.of(sp, [-rel.terms.get(w, 0) for rel in q.relations[:2]
                          for w in (x1x2, x3x4)])
    assert got == Matrix2.of(sp, (bc - 1, 1, bc - 2, 1))
    lam = verify("corollary1", b=b).curve.lam
    assert lam == (bc - 2) / (bc + 2)
    if b is not None:
        assert got == CKMatrix.for_modulus(b)
        assert lam == curve_for_b(b).lam


def test_constant_ideals():
    x = [NcPoly.generator(X, RATIONALS, i) for i in range(4)]
    assert ideal_I0() == [x[0] * x[1] + x[2] * x[3] - NcPoly.one(X, RATIONALS)]
    assert ideal_J0() == [x[0] * x[2] - x[3] * x[1],
                          x[2] * x[0] + x[1] * x[3],
                          x[0] * x[3] + x[2] * x[1],
                          x[3] * x[0] - x[1] * x[2]]
    assert ideal_Omega0() == [x[0] * x[0] + x[3] * x[3],
                              x[1] * x[1] + x[2] * x[2]]
    # builders return fresh equal lists each call
    assert ideal_J0() is not ideal_J0()
    assert ideal_J0() == ideal_J0()


def test_exchange_relations_match_middle_last_pairs():
    """At (beta, gamma) = (1, -1) the four middle/last defining relations
    span the same degree-2 slice as the four exchange-type relations."""
    p = sklyanin(SklyaninParams.of(Fraction(1, 5), 1, -1))
    j = ideal_J0()
    pairs = [(p.relations[2], j[0], j[1], -1),
             (p.relations[3], j[0], j[1], 1),
             (p.relations[4], j[2], j[3], -1),
             (p.relations[5], j[2], j[3], 1)]
    for rel, ja, jb, sign in pairs:
        assert rel == ja + jb.scale(sign)
    for rel in p.relations[2:]:
        assert graded_membership(rel, j).kind == MEMBER
        assert graded_member_oracle(rel, j)
    for r in j:
        assert graded_membership(r, p.relations[2:]).kind == MEMBER
        assert graded_member_oracle(r, p.relations[2:])


# ---------------------------------------------------------------------------
# omega_central

def test_omega_central_poles():
    # (alpha, -1, 1) satisfies the constraint and hits the gamma = 1 pole
    with pytest.raises(PoleError):
        omega_central(SklyaninParams.of(Fraction(1, 2), -1, 1))
    # (-1, 1, 0) satisfies the constraint and hits the alpha = -1 pole
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        params = SklyaninParams.of(-1, 1, 0)
    with pytest.raises(PoleError):
        omega_central(params)


def test_omega_central_at_family_point():
    """At (alpha, 1, -1) the quadratic pair reduces to the fixed pair: the
    second central element drops its x4-term entirely."""
    om1, om2 = omega_central(SklyaninParams.of(Fraction(1, 5), 1, -1))
    x = [NcPoly.generator(X, RATIONALS, i) for i in range(4)]
    assert om2 == x[1] * x[1] + x[2] * x[2]
    assert om1 - om2 == x[0] * x[0] + x[3] * x[3]


# ---------------------------------------------------------------------------
# the 2x2 layer

def test_matrix2_algebra():
    m = Matrix2.of(RATIONALS, (1, 2, 3, 4))
    n = Matrix2.of(RATIONALS, (0, 1, 1, 0))
    assert (m * n).entries() == (Coefficient.const(RATIONALS, 2),
                                 Coefficient.const(RATIONALS, 1),
                                 Coefficient.const(RATIONALS, 4),
                                 Coefficient.const(RATIONALS, 3))
    assert m.trace() == Coefficient.const(RATIONALS, 5)
    assert m.det() == Coefficient.const(RATIONALS, -2)
    assert (m * m.inverse()).entries() == Matrix2.identity(RATIONALS).entries()
    with pytest.raises(PoleError):
        Matrix2.of(RATIONALS, (1, 2, 2, 4)).inverse()


def test_lemma2_solve_symbolic_matrix():
    a = alpha_sym()
    one = Coefficient.const(("alpha",), 1)
    m = lemma2_solve(a)
    assert m.a == (one + a) / (one - a)
    assert m.b == (a * -2) / (one - a)
    assert m.c == Coefficient.const(("alpha",), -2) / (one - a)
    assert m.d == (one + a) / (one - a)


def test_back_substitution_refuses_a_wrong_matrix(monkeypatch):
    """The solved pair back-substitutes; changing any one entry of it
    leaves a defining relation standing, and lemma2_solve refuses a
    matrix that fails the check, so lemma2 never reports one."""
    for alpha in (alpha_sym(), Coefficient.const(RATIONALS, Fraction(5, 9))):
        m = lemma2_solve(alpha)
        assert presentations._back_substitutes(alpha.names, alpha, m)
        for k in range(4):
            entries = list(m.entries())
            entries[k] = entries[k] + 1
            assert not presentations._back_substitutes(
                alpha.names, alpha, Matrix2(*entries))
    monkeypatch.setattr(presentations, "_back_substitutes",
                        lambda *args: False)
    with pytest.raises(RuntimeError, match="back-substitution"):
        lemma2_solve(Fraction(1, 5))
    with pytest.raises(RuntimeError, match="back-substitution"):
        verify("lemma2", b=7)


def test_lemma2_solve_pole():
    with pytest.raises(PoleError):
        lemma2_solve(Coefficient.const(RATIONALS, 1))
    with pytest.raises(PoleError):
        lemma2_solve(1)


def test_lemma2_modulus_specialization():
    for b in (3, 4, 5, 10):
        alpha = Fraction(b - 2, b + 2)
        m = lemma2_solve(Coefficient.const(RATIONALS, alpha))
        expect = Matrix2.of(RATIONALS, (Fraction(b, 2), 1 - Fraction(b, 2),
                                        -1 - Fraction(b, 2), Fraction(b, 2)))
        assert m.entries() == expect.entries()
        assert m.trace().as_fraction() == b
        assert m.det().as_fraction() == 1


def test_similarity_to_integer_matrix():
    for b in (2, 3, 7):
        alpha = Fraction(b - 2, b + 2)
        m = lemma2_solve(Coefficient.const(RATIONALS, alpha))
        s = Matrix2.of(RATIONALS, (Fraction(1, 2), Fraction(-1, 2), 1, 0))
        t = Matrix2.of(RATIONALS, (0, 1, -2, 1))
        target = Matrix2.of(RATIONALS, (b - 1, 1, b - 2, 1))
        rep = similarity_check(s, m, t, target)
        assert rep.ok
        assert rep.conjugate_matches and rep.inverse_pair
        assert rep.trace_m.as_fraction() == b
        assert rep.det_b.as_fraction() == 1


def test_similarity_check_detects_mismatch():
    s = Matrix2.identity(RATIONALS)
    m = Matrix2.of(RATIONALS, (1, 2, 3, 4))
    b = Matrix2.of(RATIONALS, (1, 2, 3, 5))
    rep = similarity_check(s, m, s, b)
    assert not rep.conjugate_matches
    assert not rep.ok


# ---------------------------------------------------------------------------
# claim pipelines

def test_verify_argument_validation():
    with pytest.raises(ValueError):
        verify("nosuchclaim")
    with pytest.raises(ValueError):
        verify("lemma1", b=1)
    with pytest.raises(ValueError):
        verify("lemma1", b=True)
    with pytest.raises(ValueError):
        verify("theorem1", b=3, wrapper_len=-1)


def test_lemma1_symbolic_iff_pattern():
    rep = verify("lemma1")
    assert rep.verdict == "PASS"
    names = [s.name for s in rep.steps]
    assert names == ["free_conjugates", "alpha_real", "beta_identified",
                     "fully_identified"]
    assert all(s.verdict == "PASS" for s in rep.steps)


def test_lemma1_fixed_stages_match_parameter_substitution():
    """The beta_identified and fully_identified stages, built at beta = 1
    and gamma = -1, equal the free relations with those values substituted,
    term for term and in the same order."""
    sp = presentations._SCAN_SPACE
    al, be, ga = (Coefficient.param(sp, n) for n in ("alpha", "beta", "gamma"))
    free = presentations._sklyanin_relations(sp, al, be, ga)
    one, minus_one = Coefficient.const(sp, 1), Coefficient.const(sp, -1)
    for beta, gamma, bindings in ((1, ga, {"beta": one}),
                                  (1, -1, {"beta": one, "gamma": minus_one})):
        built = presentations._sklyanin_relations(sp, al, beta, gamma)
        substituted = [r.substitute_params(bindings) for r in free]
        assert built == substituted
        assert [list(r.terms) for r in built] == \
            [list(r.terms) for r in substituted]
        assert [str(r) for r in built] == [str(r) for r in substituted]


def test_lemma1_concrete():
    for b in (2, 3, 5):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep = verify("lemma1", b=b)
        assert rep.verdict == "PASS"
        assert rep.b == b and rep.mode == "concrete"


def test_lemma2_pipeline():
    assert verify("lemma2").verdict == "PASS"
    assert verify("lemma2", b=3).verdict == "PASS"


def test_lemma4_pipeline():
    assert verify("lemma4").verdict == "PASS"
    assert verify("lemma4", b=4).verdict == "PASS"


def test_theorem1_concrete_equivalence():
    rep = verify("theorem1", b=3)
    assert rep.verdict == "PASS"
    assert all(s.verdict == "PASS" for s in rep.steps)
    assert len(rep.steps) == 14


def test_theorem1_b2_inconclusive_on_unit_linked_relations():
    """At b = 2 the bounded search cannot place the two relations that mix
    the commutator with the unit relation; the report must say so rather
    than claim either way."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = verify("theorem1", b=2)
    assert rep.verdict == "INCONCLUSIVE"
    stuck = {s.name for s in rep.steps if s.verdict == "INCONCLUSIVE"}
    assert stuck == {"sk_r2_in_ck", "ck_r1_in_sk"}


def test_corollary1_b2_resolves_with_fixed_pair():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = verify("corollary1", b=2)
    assert rep.verdict == "PASS"
    assert rep.curve is not None
    assert rep.curve.singular
    assert rep.curve.j_invariant is None


def test_corollary1_concrete_curve():
    rep = verify("corollary1", b=3)
    assert rep.verdict == "PASS"
    assert not rep.curve.singular
    assert str(rep.curve.lam) == "1/5"
    assert rep.curve.j_invariant.as_fraction() == Fraction(148176, 25)


def test_symbolic_family_equivalence():
    rep = verify("theorem1")
    assert rep.verdict == "PASS"
    rep2 = verify("corollary1")
    assert rep2.verdict == "PASS"
    assert not rep2.curve.singular


def test_claims_tuple():
    assert CLAIMS == ("lemma1", "lemma2", "lemma4", "lemma5",
                      "theorem1", "corollary1")
    for c in CLAIMS:
        assert verify(c, b=5).claim == c
