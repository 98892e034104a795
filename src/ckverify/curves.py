"""Commutative side of the verification: the quadric intersection, the
square-variable change of coordinates, the passage to a plane cubic, and
the invariants of the resulting Legendre curve y^2 = x(x-1)(x-lam).

Everything here is exact arithmetic over MultiPoly / Coefficient.  Each
stage builds its polynomial ring with `_ring`, from the parameter's names
and the stage's variables (u, v, w, z; X, Y, Z, T; x, y, z), so a
parameter name must differ from the variables of the chain: a clash is a
ValueError.  Each stage checks the combination vectors or factors its
report states.  The Legendre closed forms (the cubic's coefficients, the
discriminant and the j-invariant) are written once, in `_legendre_forms`,
which builds every curve record; they are never trusted as given but are
checked once, symbolically, against a Sylvester-resultant computation and
an independent invariant chain before the first record is built.
"""
from __future__ import annotations

import functools
from fractions import Fraction
from typing import NamedTuple, Optional

from .coeff import Coefficient, MultiPoly, RATIONALS, Space

# the symbolic family parameter used when no concrete value is supplied
PARAM = "a"

UVWZ = ("u", "v", "w", "z")
XYZT = ("X", "Y", "Z", "T")
AFFINE = ("x", "y")
PROJECTIVE = ("x", "y", "z")


def _coerce_param(alpha) -> Coefficient:
    """Accept None (stay symbolic), an int/Fraction, or a Coefficient."""
    if alpha is None:
        return Coefficient.param((PARAM,), PARAM)
    if isinstance(alpha, bool):
        raise TypeError("parameter must be a number, not a bool")
    if isinstance(alpha, (int, Fraction)):
        return Coefficient.const(RATIONALS, alpha)
    if isinstance(alpha, Coefficient):
        return alpha
    raise TypeError(f"unsupported parameter value {alpha!r}")


def _embed(c: Coefficient, names: Space) -> MultiPoly:
    """A polynomial Coefficient as a MultiPoly in a larger space."""
    if not c.den.is_constant():
        raise ValueError(
            "the substitution chain needs a polynomial parameter value")
    return c.num.scaled(Fraction(1) / c.den.constant_value()).extend(names)


def _ring(a: Coefficient, variables: tuple) -> tuple:
    """(a, 1, each variable) in the ring of a's names and `variables`."""
    clash = [n for n in variables if n in a.names]
    if clash:
        raise ValueError(f"parameter name {clash[0]!r} is also a variable "
                         "of the reduction chain")
    names = a.names + variables
    return (_embed(a, names), MultiPoly.const(names, 1),
            *(MultiPoly.var(names, n) for n in variables))


def _degrees(p: MultiPoly, variables: tuple) -> set:
    """The degrees of p's terms in `variables`."""
    pos = [i for i, n in enumerate(p.names) if n in variables]
    return {sum(e[i] for i in pos) for e in p.terms}


class QuadricSystem:
    """A list of quadratic forms in a fixed set of geometric variables,
    with coefficients that may involve the family parameter."""

    __slots__ = ("names", "variables", "members")

    def __init__(self, names: Space, variables: tuple, members: tuple):
        self.names = names          # parameter names + variables
        self.variables = variables  # the geometric variables within `names`
        self.members = members      # MultiPolys, quadratic in `variables`
        if any(_degrees(m, variables) - {2} for m in members):
            raise ValueError("member is not homogeneous of degree 2 in the "
                             "geometric variables")


def quadrics_eq19(alpha=None) -> QuadricSystem:
    """The intersected pair of quadrics in (u, v, w, z):
    (1-a)v^2 + (1+a)w^2 + 2z^2  and  u^2 + v^2 + w^2 + z^2."""
    ap, one, u, v, w, z = _ring(_coerce_param(alpha), UVWZ)
    u2, v2, w2, z2 = u * u, v * v, w * w, z * z
    q1 = (one - ap) * v2 + (one + ap) * w2 + z2.scaled(2)
    q2 = u2 + v2 + w2 + z2
    return QuadricSystem(ap.names, UVWZ, (q1, q2))


def relations_eq21(alpha=None) -> QuadricSystem:
    """The target pair of quadrics in (X, Y, Z, T):
    a*X^2 + Z^2 - T^2  and  X^2 + Y^2 - T^2."""
    ap, _, x, y, z, t = _ring(_coerce_param(alpha), XYZT)
    r1 = ap * x * x + z * z - t * t
    r2 = x * x + y * y - t * t
    return QuadricSystem(ap.names, XYZT, (r1, r2))


def _substitute_squares(member: MultiPoly, system: QuadricSystem,
                        table: dict, out_names: Space) -> MultiPoly:
    """Apply a substitution defined only on squared variables.

    The map v^2 -> (polynomial) is not a ring homomorphism of the full
    polynomial ring, so this refuses any input outside the subring spanned
    by squared geometric variables (with parameter coefficients).
    """
    vs = set(system.variables)
    out = MultiPoly.const(out_names, 0)
    for e, c in member.terms.items():
        geo = [(n, k) for n, k in zip(system.names, e) if n in vs and k]
        if len(geo) != 1 or geo[0][1] != 2:
            raise ValueError(
                "substitution is defined on the subring of squared "
                "variables only")
        rest = tuple(0 if n in vs else k for n, k in zip(system.names, e))
        factor = MultiPoly(system.names, {rest: c}).extend(out_names)
        out = out + factor * table[geo[0][0]]
    return out


class Eq20Report(NamedTuple):
    """Outcome of substituting u^2=T^2, v^2=Y^2/2-Z^2/2-T^2,
    w^2=X^2+Y^2/2-Z^2/2-T^2, z^2=Z^2 into the (u,v,w,z) quadrics."""

    images: tuple           # the two substituted quadrics, in (X,Y,Z,T)
    targets: tuple          # the (X,Y,Z,T) relation pair
    forward: tuple          # each image as a combination of the targets
    backward: tuple         # each target as a combination of the images
    ok: bool


def _combines(lhs, vectors, basis) -> bool:
    """Whether lhs[i] = sum_j vectors[i][j] * basis[j] for every i."""
    for p, v in zip(lhs, vectors, strict=True):
        for c, q in zip(v, basis, strict=True):
            p = p - q.scaled(c)
        if not p.is_zero():
            return False
    return True


def verify_eq20_step(alpha=None) -> Eq20Report:
    """Certify that the squared-variable substitution carries the (u,v,w,z)
    quadric pair onto the span of the (X,Y,Z,T) pair, both directions.

    The combination vectors are fixed and checked by exact expansion:
    images = (target1 + target2, target2), so the span is the same.
    """
    a = _coerce_param(alpha)
    src = quadrics_eq19(a)
    tgt = relations_eq21(a)
    half = Fraction(1, 2)
    _, _, x, y, z, t = _ring(a, XYZT)
    x2, y2, z2, t2 = x * x, y * y, z * z, t * t
    table = {
        "u": t2,
        "v": y2.scaled(half) - z2.scaled(half) - t2,
        "w": x2 + y2.scaled(half) - z2.scaled(half) - t2,
        "z": z2,
    }
    images = tuple(_substitute_squares(m, src, table, tgt.names)
                   for m in src.members)
    forward = ((1, 1), (0, 1))      # img1 = r1 + r2, img2 = r2
    backward = ((1, -1), (0, 1))    # r1 = img1 - img2, r2 = img2
    ok = (_combines(images, forward, tgt.members)
          and _combines(tgt.members, backward, images))
    return Eq20Report(images, tgt.members, forward, backward, ok)


def _plane_cubic(a: Coefficient) -> MultiPoly:
    """y^2 - x(x+1)(x+1-a), in the parameter names and (x, y)."""
    ap, one, x, y = _ring(a, AFFINE)
    return y * y - x * (x + one) * (x + one - ap)


class Eq22Report(NamedTuple):
    """Outcome of the polynomial parametrization X=-2y, Y=x^2-1+a,
    Z=x^2+2(1-a)x+1-a, T=x^2+2x+1-a applied to the (X,Y,Z,T) pair."""

    cubic: MultiPoly        # y^2 - x(x+1)(x+1-a), in (x, y)
    first_factor: Coefficient    # the first relation maps to 4a * cubic
    second_factor: Coefficient   # the second relation maps to 4 * cubic
    ok: bool


def verify_eq22_step(alpha=None) -> Eq22Report:
    """Certify that both (X,Y,Z,T) relations pull back to scalar multiples
    of the single plane cubic y^2 - x(x+1)(x+1-a).

    The multiples are 4a and 4; for a = 0 the first pullback is
    identically zero, which is the degenerate member of the family.
    """
    a = _coerce_param(alpha)
    tgt = relations_eq21(a)
    ap, one, *_, x, y = _ring(a, XYZT + AFFINE)
    bind = {
        "X": y.scaled(-2),
        "Y": x * x - one + ap,
        "Z": x * x + (one - ap) * x.scaled(2) + one - ap,
        "T": x * x + x.scaled(2) + one - ap,
    }
    names = ap.names
    cubic = _plane_cubic(a)
    wide = cubic.extend(names)
    factors = (a * 4, Coefficient.const(a.names, 4))
    ok = all((m.extend(names).substitute(bind)
              - wide * _embed(f, names)).is_zero()
             for m, f in zip(tgt.members, factors))
    return Eq22Report(cubic, *factors, ok)


class ShiftReport(NamedTuple):
    """Outcome of normalizing the cubic: shift x -> x - 1, then pass to
    the homogeneous form in (x, y, z)."""

    eq23: MultiPoly         # y^2 - x(x-1)(x-a), in (x, y)
    eq23bis: MultiPoly      # y^2 z - x(x-z)(x-a z), in (x, y, z)
    ok: bool


def shift_and_homogenize(alpha=None) -> ShiftReport:
    """Shift y^2 - x(x+1)(x+1-a) by x -> x-1 into the normal form
    y^2 - x(x-1)(x-a), then homogenize; both steps are identity checks
    and the homogenization is verified by dehomogenizing back."""
    a = _coerce_param(alpha)
    ap, one, x, y = _ring(a, AFFINE)
    shifted = _plane_cubic(a).substitute({"x": x - one})
    eq23 = y * y - x * (x - one) * (x - ap)
    ok = (shifted - eq23).is_zero()

    ap, one, x, y, z = _ring(a, PROJECTIVE)
    eq23bis = y * y * z - x * (x - z) * (x - ap * z)
    # dehomogenize at z = 1 and compare with the affine normal form
    dehom = eq23bis.substitute({"z": one})
    ok = ok and (dehom - eq23.extend(ap.names)).is_zero()
    # the homogeneous form must have geometric degree exactly 3 throughout
    ok = ok and _degrees(eq23bis, PROJECTIVE) == {3}
    return ShiftReport(eq23, eq23bis, ok)


# ---------------------------------------------------------------------------
# Legendre curve invariants

class LegendreCurve(NamedTuple):
    """Exact invariants of y^2 = x(x-1)(x-lam).

    `cubic_coeffs` lists the coefficients of x(x-1)(x-lam) from x^3 down
    to the constant term; they are Coefficient values because `lam` itself
    may be a rational function of a modulus parameter.
    """

    lam: Coefficient
    cubic_coeffs: tuple
    discriminant: Coefficient
    j_invariant: Optional[Coefficient]
    singular: bool


def _det(rows):
    """Determinant by cofactor expansion; fine for the 5x5 used here."""
    if len(rows) == 1:
        return rows[0][0]
    total = rows[0][0] - rows[0][0]     # exact zero in the right space
    for j, a in enumerate(rows[0]):
        if not a.is_zero():
            term = a * _det([r[:j] + r[j + 1:] for r in rows[1:]])
            total = total - term if j % 2 else total + term
    return total


def _sylvester_resultant_cubic(f, g):
    """Resultant of a cubic f and a quadratic g (coefficient lists, degree
    descending) via the 5x5 Sylvester matrix."""
    zero = f[0] - f[0]
    rows = [
        [f[0], f[1], f[2], f[3], zero],
        [zero, f[0], f[1], f[2], f[3]],
        [g[0], g[1], g[2], zero, zero],
        [zero, g[0], g[1], g[2], zero],
        [zero, zero, g[0], g[1], g[2]],
    ]
    return _det(rows)


def _legendre_forms(lam: Coefficient) -> tuple:
    """The closed forms for y^2 = x(x-1)(x-lam): the coefficients of
    x(x-1)(x-lam) from x^3 down, the discriminant 16 lam^2 (lam-1)^2 and
    the j-invariant 256 (lam^2-lam+1)^3 / (lam^2 (lam-1)^2), None where
    the discriminant vanishes."""
    one = Coefficient.const(lam.names, 1)
    cubic = (one, -(one + lam), lam, Coefficient.const(lam.names, 0))
    delta = lam * lam * (lam - one) * (lam - one) * 16
    if delta.is_zero():
        return cubic, delta, None
    n = lam * lam - lam + one
    j = (n * n * n * 256) / (lam * lam * (lam - one) * (lam - one))
    return cubic, delta, j


@functools.cache
def _ensure_formulas_validated():
    """One-time symbolic check of `_legendre_forms` at a parameter t
    against two independent computations from its cubic: the Sylvester
    resultant of the cubic with its derivative, and the classical
    b2/b4/b8 -> c4/Delta invariant chain."""
    f, delta_closed, j_closed = _legendre_forms(Coefficient.param(("t",), "t"))
    fp = [f[0] * 3, f[1] * 2, f[2]]
    disc = -_sylvester_resultant_cubic(f, fp)   # disc = -Res(f, f') for monic cubics
    if delta_closed != disc * 16:
        raise RuntimeError("discriminant closed form fails the resultant check")
    # invariant chain for y^2 = x^3 + a2 x^2 + a4 x (the constant term is
    # 0; the resultant above covers it):  b2 = 4a2, b4 = 2a4,
    # b8 = -a4^2, c4 = b2^2 - 24 b4, Delta = -b2^2 b8 - 8 b4^3
    a2, a4 = f[1], f[2]
    b2, b4 = a2 * 4, a4 * 2
    b8 = -(a4 * a4)
    c4 = b2 * b2 - b4 * 24
    delta_chain = -(b2 * b2 * b8) - (b4 * b4 * b4) * 8
    if delta_closed != delta_chain:
        raise RuntimeError("discriminant closed form fails the invariant chain")
    if j_closed * delta_chain != c4 * c4 * c4:
        raise RuntimeError("j-invariant closed form fails the invariant chain")


def legendre_invariants(lam) -> LegendreCurve:
    """Build the LegendreCurve record for a parameter value from
    `_legendre_forms`: j is undefined exactly when the curve is singular,
    i.e. when the discriminant vanishes, at lam in {0, 1}."""
    lam = _coerce_param(lam)
    _ensure_formulas_validated()
    cubic, delta, j = _legendre_forms(lam)
    return LegendreCurve(lam, cubic, delta, j, delta.is_zero())


def modulus_lambda(b) -> Coefficient:
    """lam_b = (b - 2)/(b + 2), the family parameter at an integer modulus
    or at the formal b."""
    b = Coefficient.const(RATIONALS, b)
    return (b - 2) / (b + 2)


def curve_for_b(b: int) -> LegendreCurve:
    """The family member for an integer modulus b >= 2, at
    lam = modulus_lambda(b).  Singular exactly at b = 2."""
    if isinstance(b, bool) or not isinstance(b, int):
        raise TypeError("modulus must be an integer")
    if b < 2:
        raise ValueError("modulus must be at least 2")
    return legendre_invariants(modulus_lambda(b))


class ChainReport(NamedTuple):
    """The three verification stages plus the resulting curve data."""

    eq20: Eq20Report
    eq22: Eq22Report
    shift: ShiftReport
    curve: LegendreCurve

    @property
    def ok(self) -> bool:
        return self.eq20.ok and self.eq22.ok and self.shift.ok


def reduction_chain(alpha=None) -> ChainReport:
    """Run the full quadrics-to-Legendre reduction for one parameter value
    (None = symbolic) and package the per-stage reports with the curve."""
    a = _coerce_param(alpha)
    return ChainReport(verify_eq20_step(a), verify_eq22_step(a),
                       shift_and_homogenize(a), legendre_invariants(a))
