"""Acceptance gate: one test per shipped criterion, each printing a single
PASS/FAIL line.  Run with -s to see the lines as they happen.

Criterion 3 asks for EQUIVALENT symbolically and at every modulus in
[2, 100].  At b = 2 the claim holds only modulo the fixed quadratic pair:
without it, two commutative scalar points separate the ideals, so there the
test checks the separation and the equivalence with the pair adjoined.
"""
from __future__ import annotations

import json
import random
import subprocess
import sys
import time
import warnings
from fractions import Fraction

import sympy

from ckverify.coeff import Coefficient, RATIONALS
from ckverify.ideal import (EQUIVALENT, MEMBER, Presentation,
                            graded_membership, involution_stability,
                            presentations_equivalent)
from ckverify.ncpoly import NcPoly, adjoint_involution
from ckverify.parser import parse_expr, print_expr
from ckverify.presentations import (
    CKMatrix, GENERATORS, SklyaninParams, cuntz_krieger, ideal_I0, ideal_J0,
    ideal_Omega0, lemma2_solve, modulus_family, omega_central,
    similarity_check, sklyanin, verify, Matrix2)
from ckverify.curves import (curve_for_b, legendre_invariants,
                             reduction_chain, shift_and_homogenize,
                             verify_eq20_step, verify_eq22_step)

from oracles import legendre_oracle, scalar_point_value

X = GENERATORS


def report(n, ok, detail):
    print(f"CRITERION {n}: {'PASS' if ok else 'FAIL'} — {detail}")
    return ok


def test_criterion_1_involution_iff_pattern():
    """Stability of the six-relation system holds exactly at the identified
    real parameter point; each relaxation breaks the expected relations."""
    t0 = time.monotonic()
    rep = verify("lemma1")
    elapsed = time.monotonic() - t0
    names = [s.name for s in rep.steps]
    ok = (rep.verdict == "PASS"
          and names == ["free_conjugates", "alpha_real", "beta_identified",
                        "fully_identified"]
          and all(s.verdict == "PASS" for s in rep.steps)
          and elapsed < 1.0)
    assert report(1, ok,
                  f"4/4 parameter stages match the predicted unstable sets, "
                  f"{elapsed:.2f}s"), rep
    assert elapsed < 1.0


def test_criterion_2_linear_solve_and_similarity():
    t0 = time.monotonic()
    sp = ("alpha",)
    a = Coefficient.param(sp, "alpha")
    one = Coefficient.const(sp, 1)
    m = lemma2_solve(a)
    solve_ok = (m.a == (one + a) / (one - a)
                and m.b == (a * -2) / (one - a)
                and m.c == Coefficient.const(sp, -2) / (one - a)
                and m.d == (one + a) / (one - a))
    spec_ok = True
    for b in range(3, 12):
        mm = lemma2_solve(Coefficient.const(RATIONALS, Fraction(b - 2, b + 2)))
        want = Matrix2.of(RATIONALS, (Fraction(b, 2), 1 - Fraction(b, 2),
                                      -1 - Fraction(b, 2), Fraction(b, 2)))
        spec_ok = spec_ok and mm.entries() == want.entries()
    sb = ("alpha", "b")
    bc = Coefficient.param(sb, "b")
    m2 = lemma2_solve(Coefficient.param(sb, "alpha"))
    msym = m2.substitute({"alpha": (bc - 2) / (bc + 2)})
    s = Matrix2.of(sb, (Fraction(1, 2), Fraction(-1, 2), 1, 0))
    t = Matrix2.of(sb, (0, 1, -2, 1))
    target = Matrix2(bc - 1, Coefficient.const(sb, 1), bc - 2,
                     Coefficient.const(sb, 1))
    sim = similarity_check(s, msym, t, target)
    sim_ok = (sim.ok and sim.inverse_pair
              and sim.trace_b == bc and sim.det_b == Coefficient.const(sb, 1))
    pipeline_ok = verify("lemma2").verdict == "PASS"
    elapsed = time.monotonic() - t0
    ok = solve_ok and spec_ok and sim_ok and pipeline_ok and elapsed < 1.0
    assert report(2, ok,
                  f"solved matrix, modulus form, and similarity with "
                  f"trace b / det 1 all exact, {elapsed:.2f}s")


def _non_members(p, q, rep):
    """Re-expand every certificate of an equivalence report and return the
    (direction, index) of each relation that has none."""
    missing = []
    for side, sources, targets, verdicts in (
            ("forward", p.relations, q.relations, rep.forward),
            ("backward", q.relations, p.relations, rep.backward)):
        for i, (rel, v) in enumerate(zip(sources, verdicts)):
            if v.kind == MEMBER:
                assert v.certificate.verify(rel, targets)
            else:
                missing.append((side, i))
    return missing


def test_criterion_3_equivalence_all_moduli():
    """EQUIVALENT symbolically and at b in [3, 100]; at b = 2 equivalent
    modulo the fixed quadratic pair, and provably not without it.

    At b = 2 (alpha = 0) the commutative point (x1,x2,x3,x4) = (0,0,1,1)
    kills every P relation but gives -1 on Q's r1, and (1,1,0,0) kills
    every Q relation but gives 2 on P's r2.  So those two relations lie
    outside the other side's ideal, no search bound can certify
    equivalence, and exactly those two memberships (forward[1] and
    backward[0]) must lack a certificate.  The fixed pair is 1 at both
    points, and with it adjoined the presentations are EQUIVALENT.
    """
    t0 = time.monotonic()
    ps, qs = modulus_family()
    sym = presentations_equivalent(ps, qs)
    bad = []
    for b in range(2, 101):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            p, q = modulus_family(b)
        rep = presentations_equivalent(p, q)
        missing = _non_members(p, q, rep)
        if rep.verdict != EQUIVALENT:
            bad.append((b, rep.verdict, missing))
    elapsed = time.monotonic() - t0

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        p, q = modulus_family(2)
        pw, qw = modulus_family(2, with_omega=True)

    def values(relations, point):
        return [scalar_point_value(r, point) for r in relations]

    separated = (values(p.relations, (0, 0, 1, 1)) == [0] * 7
                 and values(q.relations, (0, 0, 1, 1)) == [-1] + [0] * 6
                 and values(q.relations, (1, 1, 0, 0)) == [0] * 7
                 and values(p.relations, (1, 1, 0, 0)) == [0, 2] + [0] * 5)
    omega = presentations_equivalent(pw, qw)
    omega_ok = omega.verdict == EQUIVALENT and not _non_members(pw, qw, omega)
    b2_ok = [(b, m) for b, _, m in bad] == \
        [(2, [("forward", 1), ("backward", 0)])]
    ok = (sym.verdict == EQUIVALENT and b2_ok and separated and omega_ok
          and elapsed < 60.0)
    failing = ", ".join(f"b={b} {v}" for b, v, _ in bad) or "none"
    assert report(
        3, ok,
        f"symbolic {sym.verdict}; not EQUIVALENT in [2, 100]: {failing}; "
        f"every certificate re-expanded; b=2 separated by (0,0,1,1) and "
        f"(1,1,0,0): {separated}; b=2 with the fixed pair {omega.verdict}, "
        f"{elapsed:.1f}s"), \
        f"symbolic {sym.verdict}; not EQUIVALENT (b, verdict, uncertified) " \
        f"{bad}; separated {separated}; with the fixed pair {omega.verdict}"


def test_criterion_4_fixed_pair_and_central_elements():
    rep = verify("lemma4")
    pipeline_ok = rep.verdict == "PASS"
    sp = ("alpha",)
    a = Coefficient.param(sp, "alpha")
    om1, om2 = omega_central(SklyaninParams.of(a, 1, -1, sp))
    x = [NcPoly.generator(X, sp, i) for i in range(4)]
    # the x4^2 coefficient (1-beta)/(1+alpha) vanishes at beta = 1
    drop_ok = om2 == x[1] * x[1] + x[2] * x[2]
    pair = [om2, om1 - om2]
    omega = ideal_Omega0(sp)
    span_ok = all(graded_membership(t, omega).kind == MEMBER for t in pair) \
        and all(graded_membership(t, pair).kind == MEMBER for t in omega)
    stab = involution_stability(
        Presentation(X, RATIONALS, ideal_Omega0(), adjoint_involution()))
    ok = pipeline_ok and drop_ok and span_ok and stab.verdict == "STABLE"
    assert report(4, ok,
                  "fixed pair involution-stable; central pair matches it up "
                  "to scalar span with the x4^2 coefficient vanishing")


def test_criterion_5_reduction_chain():
    t0 = time.monotonic()
    eq20 = verify_eq20_step()
    vec_ok = (eq20.ok and set(eq20.forward) == {(0, 1), (1, 1)})
    eq22 = verify_eq22_step()
    factor_ok = eq22.ok and str(eq22.second_factor) == "4"
    shift = shift_and_homogenize()
    chain = reduction_chain()
    elapsed = time.monotonic() - t0
    ok = (vec_ok and factor_ok and shift.ok and chain.ok
          and elapsed < 1.0)
    assert report(5, ok,
                  f"square substitution (vectors (0,1),(1,1)), plane "
                  f"pullbacks 4· and 4a·, shift and homogenization all "
                  f"exact, {elapsed:.2f}s")


def test_criterion_6_singular_locus_and_invariants():
    singular = [b for b in range(2, 101) if curve_for_b(b).singular]
    locus_ok = singular == [2]
    # symbolic: delta(lam(b)) = 256 (b-2)^2 / (b+2)^4, zero iff b = 2
    sb = ("b",)
    bc = Coefficient.param(sb, "b")
    curve_b = legendre_invariants((bc - 2) / (bc + 2))
    expected = ((bc - 2) * (bc - 2) * 256) / \
        ((bc + 2) * (bc + 2) * (bc + 2) * (bc + 2))
    factor_ok = (curve_b.discriminant == expected
                 and curve_b.discriminant.substitute({"b": 2}).is_zero()
                 and not curve_b.discriminant.substitute({"b": 3}).is_zero())
    # closed forms against the sympy resultant oracle
    t = sympy.Symbol("t")
    lam = Coefficient.param(("t",), "t")
    sym_curve = legendre_invariants(lam)
    delta_o, j_o = legendre_oracle(t)
    to_sympy = lambda c: sympy.sympify(str(c).replace("^", "**"))
    sym_ok = (sympy.simplify(to_sympy(sym_curve.discriminant) - delta_o) == 0
              and sympy.simplify(to_sympy(sym_curve.j_invariant) - j_o) == 0)
    rng = random.Random(424242)
    samples, sample_ok = [], True
    while len(samples) < 19:
        q = Fraction(rng.randint(-25, 25), rng.randint(1, 9))
        if q not in (0, 1) and q not in samples:
            samples.append(q)
    samples.append(Fraction(-1))
    for q in samples:
        c = legendre_invariants(Coefficient.const(RATIONALS, q))
        do, jo = legendre_oracle(sympy.Rational(q.numerator, q.denominator))
        sample_ok = (sample_ok
                     and c.discriminant.as_fraction() == Fraction(str(do))
                     and c.j_invariant.as_fraction() == Fraction(str(jo)))
    minus1_ok = legendre_invariants(
        Coefficient.const(RATIONALS, Fraction(-1))).j_invariant.as_fraction() \
        == 1728
    ok = locus_ok and factor_ok and sym_ok and sample_ok and minus1_ok
    assert report(6, ok,
                  "b=2 is the only singular modulus in [2,100]; discriminant "
                  "and j match the resultant oracle symbolically, on 20 "
                  "samples, and j(-1)=1728")


def test_criterion_7_engine_soundness():
    # 1. every certificate emitted across real runs re-expands to its target
    audited = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        jobs = [modulus_family(b) for b in (3, 5, 8)] + \
            [modulus_family(b, with_omega=True) for b in (2, 4)]
    for p, q in jobs:
        rep = presentations_equivalent(p, q)
        assert rep.verdict == EQUIVALENT
        for rel, v in zip(p.relations, rep.forward):
            assert v.certificate.verify(rel, q.relations)
            audited += 1
        for rel, v in zip(q.relations, rep.backward):
            assert v.certificate.verify(rel, p.relations)
            audited += 1
    for alpha in (Fraction(1, 5), Fraction(3, 7), Fraction(-4, 9)):
        p = sklyanin(SklyaninParams.of(alpha, 1, -1))
        stab = involution_stability(p)
        assert stab.verdict == "STABLE"
        for r in stab.relations:
            img = p.relations[r.index].involute(p.involution)
            assert r.verdict.certificate.verify(img, p.relations)
            audited += 1
    # 2. involution laws on 1000 random pairs
    rng = random.Random(112233)

    def rand_poly():
        out = NcPoly.zero(X, RATIONALS)
        for _ in range(rng.randint(1, 4)):
            w = tuple(rng.randrange(4) for _ in range(rng.randint(0, 3)))
            c = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
            if c:
                out = out + NcPoly(X, RATIONALS,
                                   {w: Coefficient.const(RATIONALS, c)})
        return out

    inv = adjoint_involution()
    for _ in range(1000):
        pp, qq = rand_poly(), rand_poly()
        assert (pp * qq).involute(inv) == qq.involute(inv) * pp.involute(inv)
        assert pp.involute(inv).involute(inv) == pp
    # 3. parser round-trip: all builder relations plus 1000 random
    builder_rels = []
    builder_rels += sklyanin(SklyaninParams.of(Fraction(1, 5), 1, -1)).relations
    builder_rels += cuntz_krieger(CKMatrix.for_modulus(6)).relations
    builder_rels += ideal_I0() + ideal_J0() + ideal_Omega0()
    a = Coefficient.param(("alpha",), "alpha")
    builder_rels += sklyanin(
        SklyaninParams.of(a, 1, -1, ("alpha",))).relations
    for rel in builder_rels:
        assert parse_expr(print_expr(rel), X, rel.space) == rel
    for _ in range(1000):
        pp = rand_poly()
        assert parse_expr(print_expr(pp), X) == pp
    assert report(7, True,
                  f"{audited} certificates re-expanded, 1000 involution "
                  f"pairs, {len(builder_rels)}+1000 parser round-trips")


def test_criterion_8_byte_identical_reports():
    args = [sys.executable, "-m", "ckverify", "verify", "theorem1",
            "--symbolic", "--certificates", "--format", "json"]
    a = subprocess.run(args, capture_output=True, timeout=300)
    b = subprocess.run(args, capture_output=True, timeout=300)
    ok = (a.returncode == 0 and b.returncode == 0
          and a.stdout == b.stdout and len(a.stdout) > 0)
    doc = json.loads(a.stdout)
    ok = ok and doc["verdict"] == "PASS"
    assert report(8, ok,
                  f"two symbolic certificate runs byte-identical "
                  f"({len(a.stdout)} bytes)")
