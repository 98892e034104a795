"""Builders for the two quadratic presentation families under study, the
2x2 linear-algebra facts connecting them, and the claim pipelines that
the command-line tool exposes.

The exchange side is built only by `cuntz_krieger`, from any `Matrix2`
over the space of its entries; `CKMatrix` is a `Matrix2` that checks its
integer entries.  The entries of B_b = [[b - 1, 1], [b - 2, 1]] are
written once, in `_modulus_entries`, and lambda_b = (b - 2)/(b + 2) once,
in `curves.modulus_lambda`; every pipeline reads them from there.

Concrete moduli run over plain rationals; symbolic runs keep the modulus
(or the deformation parameters) as formal names so that every certificate
is an identity in the parameter, not a spot check.
"""
from __future__ import annotations

import warnings
from fractions import Fraction
from typing import NamedTuple, Optional

from . import curves, ideal
from .ideal import INCONCLUSIVE
from .coeff import Coefficient, ConjugationSpec, PoleError, RATIONALS, Space
from .ncpoly import NcPoly, adjoint_involution

GENERATORS = ("x1", "x2", "x3", "x4")

PASS = "PASS"
FAIL = "FAIL"


def _check_modulus(b):
    if isinstance(b, bool) or not isinstance(b, int) or b < 2:
        raise ValueError("modulus must be an integer >= 2")


# ---------------------------------------------------------------------------
# parameter containers

class SklyaninParams:
    """The deformation triple (alpha, beta, gamma), constrained by
    alpha + beta + gamma + alpha*beta*gamma = 0."""

    __slots__ = ("alpha", "beta", "gamma")

    def __init__(self, alpha: Coefficient, beta: Coefficient,
                 gamma: Coefficient):
        self.alpha, self.beta, self.gamma = alpha, beta, gamma
        if not (alpha.names == beta.names == gamma.names):
            raise ValueError("parameters live in different spaces")
        if not (alpha + beta + gamma + alpha * beta * gamma).is_zero():
            raise ValueError(
                "parameters violate alpha + beta + gamma + alpha*beta*gamma = 0")
        if alpha.is_rational() and alpha.as_fraction() in (0, 1, -1):
            warnings.warn(
                "alpha in {0, 1, -1} lies outside the smooth range of the "
                "quadric family", stacklevel=2)

    @staticmethod
    def of(alpha, beta, gamma, space: Space = RATIONALS) -> "SklyaninParams":
        return SklyaninParams(Coefficient.const(space, alpha),
                              Coefficient.const(space, beta),
                              Coefficient.const(space, gamma))


class Matrix2:
    """A 2x2 matrix with Coefficient entries."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: Coefficient, b: Coefficient, c: Coefficient,
                 d: Coefficient):
        self.a, self.b, self.c, self.d = a, b, c, d

    @staticmethod
    def of(space: Space, entries) -> "Matrix2":
        return Matrix2(*(Coefficient.const(space, e) for e in entries))

    @staticmethod
    def identity(space: Space) -> "Matrix2":
        return Matrix2.of(space, (1, 0, 0, 1))

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def __eq__(self, other):
        if not isinstance(other, Matrix2):
            return NotImplemented
        return self.entries() == other.entries()

    def __mul__(self, other: "Matrix2") -> "Matrix2":
        return Matrix2(self.a * other.a + self.b * other.c,
                       self.a * other.b + self.b * other.d,
                       self.c * other.a + self.d * other.c,
                       self.c * other.b + self.d * other.d)

    def trace(self) -> Coefficient:
        return self.a + self.d

    def det(self) -> Coefficient:
        return self.a * self.d - self.b * self.c

    def inverse(self) -> "Matrix2":
        det = self.det()
        if det.is_zero():
            raise PoleError("matrix is singular")
        inv = det.inv()
        return Matrix2(self.d * inv, -self.b * inv, -self.c * inv, self.a * inv)

    def substitute(self, bindings) -> "Matrix2":
        return Matrix2(*(e.substitute(bindings) for e in self.entries()))

    def __str__(self):
        return f"[[{self.a}, {self.b}], [{self.c}, {self.d}]]"


def _modulus_entries(b):
    """The entries of B_b = [[b - 1, 1], [b - 2, 1]], row by row, for an
    integer modulus or the formal b."""
    return (b - 1, 1, b - 2, 1)


class CKMatrix(Matrix2):
    """Nonnegative integer 2x2 exchange matrix, held as a Matrix2 over the
    rationals; every row and every column must be nonzero."""

    __slots__ = ()

    def __init__(self, a11: int, a12: int, a21: int, a22: int):
        for e in (a11, a12, a21, a22):
            if isinstance(e, bool) or not isinstance(e, int) or e < 0:
                raise ValueError("entries must be nonnegative integers")
        if (a11 == a12 == 0) or (a21 == a22 == 0):
            raise ValueError("matrix has a zero row")
        if (a11 == a21 == 0) or (a12 == a22 == 0):
            raise ValueError("matrix has a zero column")
        super().__init__(*(Coefficient.const(RATIONALS, e)
                           for e in (a11, a12, a21, a22)))

    @staticmethod
    def for_modulus(b: int) -> "CKMatrix":
        _check_modulus(b)
        return CKMatrix(*_modulus_entries(b))


# ---------------------------------------------------------------------------
# relation builders

def _gens(space: Space):
    return tuple(NcPoly.generator(GENERATORS, space, i) for i in range(4))


def _defining_pair(space: Space, param, a: int, b: int, c: int):
    """x1*xa - xa*x1 - param*(xb*xc + xc*xb) and
    x1*xa + xa*x1 - xb*xc + xc*xb, for generator indices a, b, c."""
    gens = _gens(space)
    x1, xa, xb, xc = gens[0], gens[a], gens[b], gens[c]
    return [x1 * xa - xa * x1 - (xb * xc + xc * xb).scale(param),
            x1 * xa + xa * x1 - xb * xc + xc * xb]


def _sklyanin_relations(space: Space, alpha, beta, gamma):
    """The six quadratic relations, with unconstrained scalar parameters."""
    return (_defining_pair(space, alpha, 1, 2, 3)
            + _defining_pair(space, beta, 2, 3, 1)
            + _defining_pair(space, gamma, 3, 1, 2))


def sklyanin(params: SklyaninParams) -> ideal.Presentation:
    """The six-relation presentation for a constrained parameter triple,
    carrying the adjoint involution x1 <-> x2, x3 <-> x4."""
    space = params.alpha.names
    rels = _sklyanin_relations(space, params.alpha, params.beta, params.gamma)
    return ideal.Presentation(GENERATORS, space, rels, adjoint_involution())


def _unit_relation(space: Space) -> NcPoly:
    x1, x2, x3, x4 = _gens(space)
    return x1 * x2 + x3 * x4 - NcPoly.one(GENERATORS, space)


def _exchange_relations(space: Space, a11, a12, a21, a22):
    x1, x2, x3, x4 = _gens(space)
    return [
        x2 * x1 - (x1 * x2).scale(a11) - (x3 * x4).scale(a12),
        x4 * x3 - (x1 * x2).scale(a21) - (x3 * x4).scale(a22),
    ]


def cuntz_krieger(matrix: Matrix2) -> ideal.Presentation:
    """The three-relation presentation attached to an exchange matrix, over
    its entries' space, with the adjoint involution.  Its relation set is
    involution-stable as printed, unlike the six-relation family."""
    space = matrix.a.names
    rels = _exchange_relations(space, *matrix.entries())
    rels.append(_unit_relation(space))
    return ideal.Presentation(GENERATORS, space, rels, adjoint_involution())


def ideal_I0(space: Space = RATIONALS):
    """The inhomogeneous unit relation x1*x2 + x3*x4 - 1."""
    return [_unit_relation(space)]


def ideal_J0(space: Space = RATIONALS):
    """The four homogeneous cross relations; modulus-independent."""
    x1, x2, x3, x4 = _gens(space)
    return [
        x1 * x3 - x4 * x2,
        x3 * x1 + x2 * x4,
        x1 * x4 + x3 * x2,
        x4 * x1 - x2 * x3,
    ]


def ideal_Omega0(space: Space = RATIONALS):
    """The fixed quadratic pair x1^2 + x4^2, x2^2 + x3^2; the involution
    interchanges the two generators."""
    x1, x2, x3, x4 = _gens(space)
    return [x1 * x1 + x4 * x4, x2 * x2 + x3 * x3]


def _central_coeffs(params: SklyaninParams):
    """(1+beta)/(1-gamma) and (1-beta)/(1+alpha), the x3^2 and x4^2
    coefficients of the second element of the quadratic pair."""
    one = Coefficient.const(params.alpha.names, 1)
    if (one - params.gamma).is_zero():
        raise PoleError("gamma = 1 is a pole of the quadratic pair")
    if (one + params.alpha).is_zero():
        raise PoleError("alpha = -1 is a pole of the quadratic pair")
    return ((one + params.beta) / (one - params.gamma),
            (one - params.beta) / (one + params.alpha))


def omega_central(params: SklyaninParams):
    """The distinguished quadratic pair for a parameter triple:
    x1^2+x2^2+x3^2+x4^2 and x2^2 + (1+beta)/(1-gamma) x3^2
    + (1-beta)/(1+alpha) x4^2.  Poles at gamma = 1 and alpha = -1."""
    c3, c4 = _central_coeffs(params)
    x1, x2, x3, x4 = _gens(params.alpha.names)
    omega1 = x1 * x1 + x2 * x2 + x3 * x3 + x4 * x4
    omega2 = x2 * x2 + (x3 * x3).scale(c3) + (x4 * x4).scale(c4)
    return [omega1, omega2]


# ---------------------------------------------------------------------------
# 2x2 linear-solve facts

def lemma2_solve(alpha) -> Matrix2:
    """Solve the defining pair for (x2*x1, x4*x3) as combinations of
    (x1*x2, x3*x4).  Requires alpha != 1; the result is checked by
    substituting the solved words back into the defining pair."""
    alpha = Coefficient.const(RATIONALS, alpha)
    space = alpha.names
    one = Coefficient.const(space, 1)
    if (one - alpha).is_zero():
        raise PoleError("alpha = 1 leaves the linear system singular")
    lhs = Matrix2(one, alpha, one, one)
    rhs = Matrix2(one, -alpha, -one, one)
    m = lhs.inverse() * rhs
    if not _back_substitutes(space, alpha, m):
        raise RuntimeError("internal error: solved pair fails back-substitution")
    return m


def _back_substitutes(space: Space, alpha, m: Matrix2) -> bool:
    """Do both defining relations vanish once x2*x1 and x4*x3 are replaced
    by the combinations of x1*x2 and x3*x4 that the rows of m give?  That
    is: does rel - c21*s1 - c43*s2 vanish, for the solved pair (s1, s2) and
    rel's coefficients c21 on x2*x1 and c43 on x4*x3?"""
    s1, s2 = _exchange_relations(space, *m.entries())
    return all((rel - s1.scale(rel.terms.get((1, 0), 0))
                - s2.scale(rel.terms.get((3, 2), 0))).is_zero()
               for rel in _defining_pair(space, alpha, 1, 2, 3))


class SimilarityReport(NamedTuple):
    """Entrywise outcome of S*M*T = B together with S*T = identity and the
    trace/determinant comparison of M and B."""

    conjugate_matches: bool
    inverse_pair: bool
    trace_m: Coefficient
    trace_b: Coefficient
    det_m: Coefficient
    det_b: Coefficient

    @property
    def traces_agree(self) -> bool:
        return self.trace_m == self.trace_b

    @property
    def dets_agree(self) -> bool:
        return self.det_m == self.det_b

    @property
    def ok(self) -> bool:
        return (self.conjugate_matches and self.inverse_pair
                and self.traces_agree and self.dets_agree)


def similarity_check(s: Matrix2, m: Matrix2, t: Matrix2,
                     b: Matrix2) -> SimilarityReport:
    space = m.a.names
    return SimilarityReport(
        conjugate_matches=(s * m * t == b),
        inverse_pair=(s * t == Matrix2.identity(space)),
        trace_m=m.trace(), trace_b=b.trace(),
        det_m=m.det(), det_b=b.det(),
    )


# ---------------------------------------------------------------------------
# claim reports

class StepReport(NamedTuple):
    """One named verification step inside a claim."""

    name: str
    verdict: str                 # PASS | FAIL | INCONCLUSIVE
    detail: str = ""
    certificate: object = None   # engine certificates / combination data


class ClaimReport(NamedTuple):
    claim: str
    mode: str                    # "concrete" | "symbolic"
    b: Optional[int]
    wrapper_len: int
    verdict: str
    steps: list
    curve: Optional[curves.LegendreCurve] = None


def worst_verdict(verdicts) -> str:
    """The gravest of the verdicts: FAIL over INCONCLUSIVE over PASS."""
    return max(verdicts, key=(PASS, INCONCLUSIVE, FAIL).index)


def _step(name: str, ok: bool, detail: str, certificate=None) -> StepReport:
    return StepReport(name, PASS if ok else FAIL, detail, certificate)


def _membership_verdict(kind: str) -> str:
    return {ideal.MEMBER: PASS, ideal.NON_MEMBER: FAIL}.get(kind, INCONCLUSIVE)


# -- the iff stability scan -------------------------------------------------

_SCAN_SPACE = ("alpha", "alphabar", "beta", "betabar", "gamma", "gammabar")
_SCAN_PAIRS = {"alpha": "alphabar", "alphabar": "alpha",
               "beta": "betabar", "betabar": "beta",
               "gamma": "gammabar", "gammabar": "gamma"}


def _rel_names(indices) -> str:
    return ", ".join(f"r{i + 1}" for i in indices) if indices else "none"


def _stability_step(name: str, p: ideal.Presentation, wrapper_len: int,
                    detail: str, expected_failing: tuple = ()) -> StepReport:
    """Involution stability of p, passing when exactly the expected
    relations have adjoint images outside the ideal.  detail is formatted
    with the stability verdict, the relations that fail and those expected
    to, and the number of images certified; the certificates are filed by
    relation name."""
    rep = ideal.involution_stability(p, wrapper_len)
    failing = tuple(rep.failing_indices())
    certs = {f"r{r.index + 1}": r.verdict.certificate for r in rep.relations
             if r.verdict.certificate is not None}
    ok = failing == expected_failing and rep.verdict == (
        ideal.UNSTABLE if expected_failing else ideal.STABLE)
    return _step(name, ok,
                 detail.format(verdict=rep.verdict, certified=len(certs),
                               failing=_rel_names(failing),
                               expected=_rel_names(expected_failing)),
                 certs or None)


def _two_way_step(name: str, ok: bool, detail: str, labels, first,
                  second) -> StepReport:
    """Graded membership of each relation of first in the ideal of second
    and back, passing when ok holds and every membership is certified; the
    certificates are filed as "<a>_in_<b>" and "<b>_in_<a>" for the
    labels (a, b)."""
    fwd = [ideal.graded_membership(r, second) for r in first]
    bwd = [ideal.graded_membership(r, first) for r in second]
    a, b = labels
    return _step(name, ok and all(v.is_member() for v in fwd + bwd), detail,
                 {f"{a}_in_{b}": [v.certificate for v in fwd],
                  f"{b}_in_{a}": [v.certificate for v in bwd]})


def _lemma1(b: Optional[int], wrapper_len: int):
    """At a modulus, stability of the six relations.  Symbolically,
    stability with formally independent conjugate parameters, tightening
    one identification at a time; the per-stage failure patterns are
    exactly the iff conditions."""
    if b is not None:
        p = sklyanin(SklyaninParams.of(curves.modulus_lambda(b), 1, -1))
        return [_stability_step(
            "stability_at_modulus", p, wrapper_len,
            f"{{verdict}} at modulus {b}; {{certified}}/6 adjoint images "
            "certified")], None
    sp = _SCAN_SPACE
    al = Coefficient.param(sp, "alpha")
    be = Coefficient.param(sp, "beta")
    ga = Coefficient.param(sp, "gamma")
    rels = _sklyanin_relations(sp, al, be, ga)
    conj_free = ConjugationSpec(_SCAN_PAIRS)
    conj_alpha_real = ConjugationSpec(
        {k: v for k, v in _SCAN_PAIRS.items() if k not in ("alpha", "alphabar")})
    beta_fixed = [r.substitute_params({"beta": Coefficient.const(sp, 1)})
                  for r in rels]
    fully_fixed = [r.substitute_params({"beta": Coefficient.const(sp, 1),
                                        "gamma": Coefficient.const(sp, -1)})
                   for r in rels]
    stages = (("free_conjugates", rels, conj_free, (0, 2, 3, 4, 5)),
              ("alpha_real", rels, conj_alpha_real, (2, 3, 4, 5)),
              ("beta_identified", beta_fixed, conj_alpha_real, (4, 5)),
              ("fully_identified", fully_fixed, conj_alpha_real, ()))
    return [_stability_step(
        name, ideal.Presentation(GENERATORS, sp, stage_rels,
                                 adjoint_involution(conj)),
        wrapper_len, "{verdict}; adjoint images escaping the ideal: "
                     "{failing} (expected {expected})", expected)
        for name, stage_rels, conj, expected in stages], None


# -- the linear-solve pipeline ----------------------------------------------

def _lemma2(b: Optional[int], wrapper_len: int):
    if b is None:
        sp = ("alpha", "b")
        alpha = Coefficient.param(sp, "alpha")
        bc = Coefficient.param(sp, "b")
    else:
        sp = RATIONALS
        alpha = curves.modulus_lambda(b)
        bc = Coefficient.const(sp, b)
    one = Coefficient.const(sp, 1)
    steps = []

    m = lemma2_solve(alpha)
    expected_solved = Matrix2((one + alpha) / (one - alpha),
                              (alpha * -2) / (one - alpha),
                              (one * -2) / (one - alpha),
                              (one + alpha) / (one - alpha))
    steps.append(_step("linear_solve", m == expected_solved,
                       f"solved pair matrix {m}"))

    ok = _back_substitutes(sp, alpha, m)
    steps.append(_step(
        "back_substitution", ok,
        "both defining relations vanish under the solved pair" if ok
        else "a defining relation survives back-substitution"))

    m_b = (m.substitute({"alpha": curves.modulus_lambda(bc)}) if b is None
           else m)
    half_b = bc / 2
    expected_modulus = Matrix2(half_b, one - half_b, -one - half_b, half_b)
    steps.append(_step("modulus_substitution", m_b == expected_modulus,
                       f"matrix at the modulus {m_b}"))

    s = Matrix2.of(sp, (Fraction(1, 2), Fraction(-1, 2), 1, 0))
    t = Matrix2.of(sp, (0, 1, -2, 1))
    target = Matrix2.of(sp, _modulus_entries(bc))
    sim = similarity_check(s, m_b, t, target)
    ok = (sim.ok and sim.trace_b == bc and sim.det_b == one)
    detail = (f"S*M*T = B: {sim.conjugate_matches}; S*T = 1: {sim.inverse_pair}; "
              f"trace {sim.trace_m} = {sim.trace_b}; det {sim.det_m} = {sim.det_b}")
    steps.append(_step("similarity", ok, detail))

    steps.append(_two_way_step(
        "solved_pair_span", True,
        "defining and solved pairs span the same quadratic slice",
        ("defining", "solved"), _defining_pair(sp, alpha, 1, 2, 3),
        _exchange_relations(sp, *m.entries())))
    return steps, None


# -- the fixed quadratic pair ------------------------------------------------

def _lemma4(b: Optional[int], wrapper_len: int):
    if b is None:
        sp = ("alpha",)
        alpha = Coefficient.param(sp, "alpha")
    else:
        sp = RATIONALS
        alpha = curves.modulus_lambda(b)
    omega0 = ideal_Omega0(sp)
    p = ideal.Presentation(GENERATORS, sp, omega0, adjoint_involution())
    params = SklyaninParams.of(alpha, 1, -1, sp)
    c3, c4 = _central_coeffs(params)
    return [_stability_step(
                "omega0_stability", p, wrapper_len,
                "{verdict}; the involution interchanges the two generators"),
            _two_way_step(
                "central_pair_reduction",
                c3 == Coefficient.const(sp, 1) and c4.is_zero(),
                f"scaling coefficients evaluate to {c3} and {c4}; "
                "the pair and the fixed generators span each other",
                ("central", "fixed"), omega_central(params), omega0)], None


# -- equivalence pipelines ---------------------------------------------------

def _family(b: Optional[int], with_omega: bool):
    if b is None:
        sp = ("b",)
        b = Coefficient.param(sp, "b")
    else:
        sp = RATIONALS
    alpha = curves.modulus_lambda(b)
    p = sklyanin(SklyaninParams.of(alpha, 1, -1, sp)) \
        .with_relations(ideal_I0(sp))
    q = cuntz_krieger(Matrix2.of(sp, _modulus_entries(b))) \
        .with_relations(ideal_J0(sp))
    if with_omega:
        omega = ideal_Omega0(sp)
        p = p.with_relations(omega)
        q = q.with_relations(omega)
    return p, q, alpha


def modulus_family(b: Optional[int] = None, with_omega: bool = False):
    """The two presentations compared at modulus b (symbolic when b is
    None): the deformed quadratic system extended by the unit relation, and
    the exchange system extended by the unit relation and the four mixed
    quadratics.  with_omega adjoins the fixed quadratic pair to both sides.
    """
    if b is not None:
        _check_modulus(b)
    return _family(b, with_omega)[:2]


def _equivalence_steps(p, q, wrapper_len: int):
    rep = ideal.presentations_equivalent(p, q, wrapper_len)
    steps = []
    for label, sources, verdicts in (("sk", p.relations, rep.forward),
                                     ("ck", q.relations, rep.backward)):
        other = "ck" if label == "sk" else "sk"
        for i, (rel, v) in enumerate(zip(sources, verdicts)):
            detail = f"{rel} in the {other} ideal"
            if v.kind == INCONCLUSIVE:
                detail += f" (no certificate at wrapper length {wrapper_len})"
            steps.append(StepReport(f"{label}_r{i + 1}_in_{other}",
                                    _membership_verdict(v.kind), detail,
                                    v.certificate))
    return steps


def _theorem1(b: Optional[int], wrapper_len: int):
    p, q, _ = _family(b, with_omega=False)
    return _equivalence_steps(p, q, wrapper_len), None


def _corollary1(b: Optional[int], wrapper_len: int):
    p, q, alpha = _family(b, with_omega=True)
    return (_equivalence_steps(p, q, wrapper_len),
            curves.legendre_invariants(alpha))


# -- the commutative chain ---------------------------------------------------

def _lemma5(b: Optional[int], wrapper_len: int):
    chain = curves.reduction_chain(
        None if b is None else curves.modulus_lambda(b))
    steps = [
        _step("square_substitution", chain.eq20.ok,
              "substituted quadrics match the target pair combinations "
              f"{chain.eq20.forward} with inverse {chain.eq20.backward}",
              {"forward": [list(v) for v in chain.eq20.forward],
               "backward": [list(v) for v in chain.eq20.backward]}),
        _step("plane_parametrization", chain.eq22.ok,
              f"pullbacks equal ({chain.eq22.first_factor}) and "
              f"({chain.eq22.second_factor}) times the plane cubic"),
        _step("shift_normalization", chain.shift.ok,
              "shift x -> x-1 reaches the normal form; homogenization "
              "round-trips at z = 1"),
    ]
    return steps, chain.curve


# ---------------------------------------------------------------------------
# entry point

# each pipeline maps (b, wrapper_len), b None for symbolic, to (steps, curve)
_PIPELINES = {"lemma1": _lemma1, "lemma2": _lemma2, "lemma4": _lemma4,
              "lemma5": _lemma5, "theorem1": _theorem1,
              "corollary1": _corollary1}
CLAIMS = tuple(_PIPELINES)

def verify(claim: str, b: Optional[int] = None,
           wrapper_len: int = 2) -> ClaimReport:
    """Run one claim pipeline: at the concrete modulus b, or symbolically
    in b when b is None."""
    claim = claim.lower()
    if claim not in CLAIMS:
        raise ValueError(f"unknown claim {claim!r}; expected one of {CLAIMS}")
    if b is not None:
        _check_modulus(b)
    if wrapper_len < 0:
        raise ValueError("wrapper length must be nonnegative")

    steps, curve = _PIPELINES[claim](b, wrapper_len)
    return ClaimReport(claim, "symbolic" if b is None else "concrete",
                       b, wrapper_len,
                       worst_verdict(s.verdict for s in steps), steps, curve)
