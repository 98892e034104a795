"""Commutative side of the verification: the quadric intersection, the
square-variable change of coordinates, the passage to a plane cubic, and
the invariants of the resulting Legendre curve y^2 = x(x-1)(x-lam).

Everything here is exact arithmetic over MultiPoly / Coefficient; the
closed-form discriminant and j-invariant are never trusted as given but
are checked once, symbolically, against a Sylvester-resultant computation
and an independent invariant chain before any curve object is built.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

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


def _param_poly(alpha: Coefficient, names: Space) -> MultiPoly:
    """Embed a polynomial parameter value into a variable space."""
    if not alpha.den.is_constant():
        raise ValueError(
            "the substitution chain needs a polynomial parameter value")
    scaled = alpha.num.scaled(Fraction(1) / alpha.den.constant_value())
    return scaled.extend(names)


@dataclass(frozen=True)
class QuadricSystem:
    """A list of quadratic forms in a fixed set of geometric variables,
    with coefficients that may involve the family parameter."""

    names: Space            # full polynomial space (parameter names + variables)
    variables: tuple        # the geometric variables within `names`
    members: tuple          # MultiPoly values, each quadratic in `variables`

    def __post_init__(self):
        vs = set(self.variables)
        pos = [i for i, n in enumerate(self.names) if n in vs]
        for m in self.members:
            for e in m.terms:
                if sum(e[i] for i in pos) != 2:
                    raise ValueError(
                        "member is not homogeneous of degree 2 in the "
                        "geometric variables")


def quadrics_eq19(alpha=None) -> QuadricSystem:
    """The intersected pair of quadrics in (u, v, w, z):
    (1-a)v^2 + (1+a)w^2 + 2z^2  and  u^2 + v^2 + w^2 + z^2."""
    a = _coerce_param(alpha)
    names = a.names + UVWZ
    ap = _param_poly(a, names)
    one = MultiPoly.const(names, 1)
    u2, v2, w2, z2 = (MultiPoly.var(names, n) ** 2 for n in UVWZ)
    q1 = (one - ap) * v2 + (one + ap) * w2 + z2.scaled(2)
    q2 = u2 + v2 + w2 + z2
    return QuadricSystem(names, UVWZ, (q1, q2))


def relations_eq21(alpha=None) -> QuadricSystem:
    """The target pair of quadrics in (X, Y, Z, T):
    a*X^2 + Z^2 - T^2  and  X^2 + Y^2 - T^2."""
    a = _coerce_param(alpha)
    names = a.names + XYZT
    ap = _param_poly(a, names)
    x2, y2, z2, t2 = (MultiPoly.var(names, n) ** 2 for n in XYZT)
    r1 = ap * x2 + z2 - t2
    r2 = x2 + y2 - t2
    return QuadricSystem(names, XYZT, (r1, r2))


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
        factor = MultiPoly.const(out_names, c)
        for n, k in zip(system.names, e):
            if n not in vs and k:
                factor = factor * MultiPoly.var(out_names, n) ** k
        out = out + factor * table[geo[0][0]]
    return out


@dataclass(frozen=True)
class Eq20Report:
    """Outcome of substituting u^2=T^2, v^2=Y^2/2-Z^2/2-T^2,
    w^2=X^2+Y^2/2-Z^2/2-T^2, z^2=Z^2 into the (u,v,w,z) quadrics."""

    images: tuple           # the two substituted quadrics, in (X,Y,Z,T)
    targets: tuple          # the (X,Y,Z,T) relation pair
    forward: tuple          # each image as a combination of the targets
    backward: tuple         # each target as a combination of the images
    ok: bool


def verify_eq20_step(alpha=None) -> Eq20Report:
    """Certify that the squared-variable substitution carries the (u,v,w,z)
    quadric pair onto the span of the (X,Y,Z,T) pair, both directions.

    The combination vectors are fixed and checked by exact expansion:
    images = (target1 + target2, target2), so the span is the same.
    """
    a = _coerce_param(alpha)
    src = quadrics_eq19(a)
    tgt = relations_eq21(a)
    names = tgt.names
    half = Fraction(1, 2)
    x2, y2, z2, t2 = (MultiPoly.var(names, n) ** 2 for n in XYZT)
    table = {
        "u": t2,
        "v": y2.scaled(half) - z2.scaled(half) - t2,
        "w": x2 + y2.scaled(half) - z2.scaled(half) - t2,
        "z": z2,
    }
    img1, img2 = (_substitute_squares(m, src, table, names)
                  for m in src.members)
    r1, r2 = tgt.members
    forward = ((1, 1), (0, 1))      # img1 = r1 + r2, img2 = r2
    backward = ((1, -1), (0, 1))    # r1 = img1 - img2, r2 = img2
    ok = ((img1 - (r1 + r2)).is_zero()
          and (img2 - r2).is_zero()
          and (r1 - (img1 - img2)).is_zero()
          and (r2 - img2).is_zero())
    return Eq20Report((img1, img2), (r1, r2), forward, backward, ok)


def _plane_cubic(a: Coefficient) -> MultiPoly:
    """y^2 - x(x+1)(x+1-a), in the parameter names and (x, y)."""
    names = a.names + AFFINE
    ap = _param_poly(a, names)
    one = MultiPoly.const(names, 1)
    x = MultiPoly.var(names, "x")
    y = MultiPoly.var(names, "y")
    return y * y - x * (x + one) * (x + one - ap)


@dataclass(frozen=True)
class Eq22Report:
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
    names = a.names + XYZT + AFFINE
    ap = _param_poly(a, names)
    one = MultiPoly.const(names, 1)
    x = MultiPoly.var(names, "x")
    y = MultiPoly.var(names, "y")
    bind = {
        "X": y.scaled(-2),
        "Y": x * x - one + ap,
        "Z": x * x + (one - ap) * x.scaled(2) + one - ap,
        "T": x * x + x.scaled(2) + one - ap,
    }
    img1, img2 = (m.extend(names).substitute(bind) for m in tgt.members)
    cubic = _plane_cubic(a)
    four_cubic = cubic.extend(names).scaled(4)
    ok = ((img1 - four_cubic * ap).is_zero()
          and (img2 - four_cubic).is_zero())
    return Eq22Report(cubic, a * 4, Coefficient.const(a.names, 4), ok)


@dataclass(frozen=True)
class ShiftReport:
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
    small = a.names + AFFINE
    ap = _param_poly(a, small)
    one = MultiPoly.const(small, 1)
    x = MultiPoly.var(small, "x")
    y = MultiPoly.var(small, "y")
    shifted = _plane_cubic(a).substitute({"x": x - one})
    eq23 = y * y - x * (x - one) * (x - ap)
    ok = (shifted - eq23).is_zero()

    proj = a.names + PROJECTIVE
    app = _param_poly(a, proj)
    xp = MultiPoly.var(proj, "x")
    yp = MultiPoly.var(proj, "y")
    zp = MultiPoly.var(proj, "z")
    eq23bis = yp * yp * zp - xp * (xp - zp) * (xp - app * zp)
    # dehomogenize at z = 1 and compare with the affine normal form
    dehom = eq23bis.substitute({"z": MultiPoly.const(proj, 1)})
    ok = ok and (dehom - eq23.extend(proj)).is_zero()
    # the homogeneous form must have geometric degree exactly 3 throughout
    gpos = [i for i, n in enumerate(proj) if n in PROJECTIVE]
    ok = ok and all(sum(e[i] for i in gpos) == 3 for e in eq23bis.terms)
    return ShiftReport(eq23, eq23bis, ok)


# ---------------------------------------------------------------------------
# Legendre curve invariants

@dataclass(frozen=True)
class LegendreCurve:
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
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = None
    for j in range(n):
        a = rows[0][j]
        if a.is_zero():
            continue
        minor = [[r[k] for k in range(n) if k != j] for r in rows[1:]]
        term = a * _det(minor)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    if total is None:
        return rows[0][0] - rows[0][0]  # exact zero in the right space
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


@functools.cache
def _ensure_formulas_validated():
    """One-time symbolic check of the closed-form discriminant and
    j-invariant against two independent computations: the Sylvester
    resultant of the cubic with its derivative, and the classical
    b2/b4/b8 -> c4/Delta invariant chain."""
    t = Coefficient.param(("t",), "t")
    one = Coefficient.const(("t",), 1)
    zero = Coefficient.const(("t",), 0)
    # f = x(x-1)(x-t) = x^3 - (1+t)x^2 + tx
    f = [one, -(one + t), t, zero]
    fp = [one * 3, (one + t) * -2, t]
    disc = -_sylvester_resultant_cubic(f, fp)   # disc = -Res(f, f') for monic cubics
    delta_closed = t * t * (t - one) * (t - one) * 16
    if delta_closed != disc * 16:
        raise RuntimeError("discriminant closed form fails the resultant check")
    # invariant chain for y^2 = x^3 + a2 x^2 + a4 x:  b2 = 4a2, b4 = 2a4,
    # b8 = -a4^2, c4 = b2^2 - 24 b4, Delta = -b2^2 b8 - 8 b4^3
    a2, a4 = -(one + t), t
    b2, b4 = a2 * 4, a4 * 2
    b8 = -(a4 * a4)
    c4 = b2 * b2 - b4 * 24
    delta_chain = -(b2 * b2 * b8) - (b4 * b4 * b4) * 8
    if delta_closed != delta_chain:
        raise RuntimeError("discriminant closed form fails the invariant chain")
    j_closed = ((t * t - t + one) * (t * t - t + one) * (t * t - t + one)
                * 256) / (t * t * (t - one) * (t - one))
    if j_closed * delta_chain != c4 * c4 * c4:
        raise RuntimeError("j-invariant closed form fails the invariant chain")


def legendre_invariants(lam) -> LegendreCurve:
    """Build the LegendreCurve record for a parameter value: discriminant
    16 lam^2 (lam-1)^2, j-invariant 256 (lam^2-lam+1)^3 / (lam^2 (lam-1)^2)
    (undefined when singular), singular exactly when the discriminant
    vanishes, i.e. lam in {0, 1}."""
    lam = _coerce_param(lam)
    _ensure_formulas_validated()
    one = Coefficient.const(lam.names, 1)
    zero = Coefficient.const(lam.names, 0)
    delta = lam * lam * (lam - one) * (lam - one) * 16
    singular = delta.is_zero()
    if singular:
        j = None
    else:
        n = lam * lam - lam + one
        j = (n * n * n * 256) / (lam * lam * (lam - one) * (lam - one))
    cubic = (one, -(one + lam), lam, zero)
    return LegendreCurve(lam, cubic, delta, j, singular)


def curve_for_b(b: int) -> LegendreCurve:
    """The family member for an integer modulus b >= 2: lam = (b-2)/(b+2).
    Singular exactly at b = 2."""
    if isinstance(b, bool) or not isinstance(b, int):
        raise TypeError("modulus must be an integer")
    if b < 2:
        raise ValueError("modulus must be at least 2")
    return legendre_invariants(Fraction(b - 2, b + 2))


@dataclass(frozen=True)
class ChainReport:
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
