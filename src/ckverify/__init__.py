"""Exact symbolic verification of a pair of quadratic algebra presentations,
their equivalence over an integer-modulus family, and the Legendre curves
attached to the family.

The heavy lifting lives in five layers: exact scalars (coeff), free-algebra
polynomials (ncpoly), a small text format (parser), ideal-membership
certificates (ideal), and the presentation builders plus claim pipelines
(presentations, curves).  The command line front end is in cli.
"""
from __future__ import annotations

from .coeff import Coefficient, ConjugationSpec, MultiPoly, PoleError, RATIONALS
from .ncpoly import InvolutionSpec, NcPoly, adjoint_involution, print_expr
from .parser import ParseError, parse_expr, parse_presentation, \
    parse_presentation_text, parse_relation, print_presentation
from .ideal import (
    EQUIVALENT,
    EquivalenceReport,
    INCONCLUSIVE,
    MEMBER,
    MembershipCertificate,
    MembershipVerdict,
    NON_MEMBER,
    NOT_EQUIVALENT,
    Presentation,
    STABLE,
    StabilityReport,
    UNSTABLE,
    bounded_membership,
    graded_membership,
    involution_stability,
    presentations_equivalent,
)
from .presentations import (
    CKMatrix,
    CLAIMS,
    ClaimReport,
    Matrix2,
    SklyaninParams,
    StepReport,
    cuntz_krieger,
    ideal_I0,
    ideal_J0,
    ideal_Omega0,
    lemma2_solve,
    modulus_family,
    omega_central,
    similarity_check,
    sklyanin,
    verify,
)
from .curves import (
    ChainReport,
    LegendreCurve,
    QuadricSystem,
    curve_for_b,
    legendre_invariants,
    quadrics_eq19,
    reduction_chain,
    relations_eq21,
    shift_and_homogenize,
    verify_eq20_step,
    verify_eq22_step,
)

__version__ = "1.0.0"

__all__ = [
    "CKMatrix", "CLAIMS", "ChainReport", "ClaimReport", "Coefficient",
    "ConjugationSpec", "EQUIVALENT", "EquivalenceReport", "INCONCLUSIVE",
    "InvolutionSpec", "LegendreCurve", "MEMBER", "Matrix2",
    "MembershipCertificate", "MembershipVerdict", "MultiPoly", "NON_MEMBER",
    "NOT_EQUIVALENT", "NcPoly", "ParseError", "PoleError", "Presentation",
    "QuadricSystem", "RATIONALS", "STABLE", "SklyaninParams",
    "StabilityReport", "StepReport", "UNSTABLE", "adjoint_involution",
    "bounded_membership", "curve_for_b", "cuntz_krieger", "graded_membership",
    "ideal_I0", "ideal_J0", "ideal_Omega0", "involution_stability",
    "legendre_invariants", "lemma2_solve", "modulus_family",
    "omega_central", "parse_expr",
    "parse_presentation", "parse_presentation_text", "parse_relation",
    "presentations_equivalent", "print_expr", "print_presentation",
    "quadrics_eq19", "reduction_chain",
    "relations_eq21", "shift_and_homogenize", "similarity_check", "sklyanin",
    "verify", "verify_eq20_step", "verify_eq22_step",
]
