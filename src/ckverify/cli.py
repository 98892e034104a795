"""Command-line front end: run claim verifications, sweep the modulus
family, and check involution stability of presentation files.

Exit codes: 0 every check passed; 1 a checked identity failed; 2 at least
one membership search exhausted its bound without an answer; 3 bad input.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional

from . import ideal
from . import presentations as claims
from .coeff import PoleError
from .parser import ParseError, parse_presentation

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_INPUT = 3

_EXIT_BY_VERDICT = {
    claims.PASS: EXIT_PASS,
    claims.FAIL: EXIT_FAIL,
    claims.INCONCLUSIVE: EXIT_INCONCLUSIVE,
}

_SEVERITY = {claims.PASS: 0, claims.INCONCLUSIVE: 1, claims.FAIL: 2}


class _Parser(argparse.ArgumentParser):
    """argparse variant honouring the exit-code contract (3 = bad input)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="ckverify",
        description="Exact verification of the quadratic-presentation "
                    "equivalences and the attached Legendre curve family.")
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="verify one claim")
    v.add_argument("claim", choices=claims.CLAIMS)
    mode = v.add_mutually_exclusive_group()
    mode.add_argument("--b", type=int, metavar="N",
                      help="concrete integer modulus (N >= 2)")
    mode.add_argument("--symbolic", action="store_true",
                      help="keep the modulus symbolic (default)")
    v.add_argument("--wrapper-len", type=int, default=2, metavar="K",
                   help="wrapper length bound for inhomogeneous membership "
                        "searches (default 2)")
    v.add_argument("--certificates", action="store_true",
                   help="include membership certificates in the report")
    v.add_argument("--format", choices=("json", "text"), default="text")
    v.add_argument("--timing", action="store_true",
                   help="append elapsed wall time to the report")

    s = sub.add_parser("sweep", help="verify the family over a modulus range")
    s.add_argument("--from", dest="start", type=int, required=True, metavar="A")
    s.add_argument("--to", dest="stop", type=int, required=True, metavar="B")
    s.add_argument("--format", choices=("json", "text"), default="text")

    c = sub.add_parser("check-file",
                       help="run checks against a presentation file")
    c.add_argument("path")
    c.add_argument("--involution-stability", action="store_true",
                   required=True,
                   help="check every relation's adjoint image for ideal "
                        "membership")
    c.add_argument("--wrapper-len", type=int, default=2, metavar="K")
    return parser


# ---------------------------------------------------------------------------
# rendering

def _word_str(word) -> str:
    if not word:
        return "1"
    return "*".join(claims.GENERATORS[i] for i in word)


def _certificate_json(payload):
    """Serialize certificate payloads: engine certificates become entry
    lists; dict/list containers recurse; scalars pass through."""
    if payload is None:
        return None
    if isinstance(payload, ideal.MembershipCertificate):
        return [{"left": _word_str(e.left),
                 "relation": e.rel_index + 1,
                 "right": _word_str(e.right),
                 "coefficient": str(e.coeff)} for e in payload]
    if isinstance(payload, dict):
        return {k: _certificate_json(v) for k, v in payload.items()}
    if isinstance(payload, (list, tuple)):
        return [_certificate_json(v) for v in payload]
    return payload


def _curve_json(curve) -> dict:
    return {
        "lambda": str(curve.lam),
        "discriminant": str(curve.discriminant),
        "j": None if curve.j_invariant is None else str(curve.j_invariant),
        "singular": curve.singular,
    }


def _report_json(report, with_certificates: bool,
                 elapsed_ms: Optional[int]) -> str:
    steps = []
    for s in report.steps:
        entry = {"name": s.name, "verdict": s.verdict, "detail": s.detail}
        if with_certificates and s.certificate is not None:
            entry["certificate"] = _certificate_json(s.certificate)
        steps.append(entry)
    doc = {
        "claim": report.claim,
        "mode": report.mode,
        "b": report.b,
        "wrapper_len": report.wrapper_len,
        "verdict": report.verdict,
        "steps": steps,
    }
    if report.curve is not None:
        doc["curve"] = _curve_json(report.curve)
    if elapsed_ms is not None:
        doc["elapsed_ms"] = elapsed_ms
    return json.dumps(doc, indent=2)


def _print_certificate_text(payload, indent: str):
    if isinstance(payload, ideal.MembershipCertificate):
        for e in payload:
            print(f"{indent}{e.coeff} * ({_word_str(e.left)}) "
                  f"* r{e.rel_index + 1} * ({_word_str(e.right)})")
    elif isinstance(payload, dict):
        for k, v in payload.items():
            print(f"{indent}{k}:")
            _print_certificate_text(v, indent + "  ")
    elif isinstance(payload, (list, tuple)):
        for i, v in enumerate(payload):
            if isinstance(v, (int, str)):
                print(f"{indent}{v}")
            else:
                print(f"{indent}[{i}]:")
                _print_certificate_text(v, indent + "  ")
    elif payload is not None:
        print(f"{indent}{payload}")


def _print_report_text(report, with_certificates: bool,
                       elapsed_ms: Optional[int]):
    mode = ("symbolic" if report.mode == "symbolic"
            else f"concrete (b = {report.b})")
    print(f"claim: {report.claim}")
    print(f"mode: {mode}")
    print(f"wrapper length: {report.wrapper_len}")
    for s in report.steps:
        print(f"  [{s.verdict}] {s.name}: {s.detail}")
        if with_certificates and s.certificate is not None:
            _print_certificate_text(s.certificate, "      ")
    if report.curve is not None:
        c = report.curve
        j = "UNDEFINED" if c.j_invariant is None else str(c.j_invariant)
        state = "SINGULAR" if c.singular else "nonsingular"
        print(f"curve: {c.homogeneous_str()}")
        print(f"  discriminant = {c.discriminant}; j = {j}; {state}")
    print(f"verdict: {report.verdict}")
    if elapsed_ms is not None:
        print(f"elapsed: {elapsed_ms} ms")


# ---------------------------------------------------------------------------
# commands

def _cmd_verify(args) -> int:
    started = time.monotonic()
    report = claims.verify(args.claim, b=args.b, symbolic=args.symbolic,
                           wrapper_len=args.wrapper_len)
    elapsed_ms = int((time.monotonic() - started) * 1000) if args.timing \
        else None
    if args.format == "json":
        print(_report_json(report, args.certificates, elapsed_ms))
    else:
        _print_report_text(report, args.certificates, elapsed_ms)
    return _EXIT_BY_VERDICT[report.verdict]


def _worst(a: str, b: str) -> str:
    return a if _SEVERITY[a] >= _SEVERITY[b] else b


def _cmd_sweep(args) -> int:
    if not (2 <= args.start <= args.stop):
        print("error: need 2 <= from <= to", file=sys.stderr)
        return EXIT_INPUT
    rows = []
    overall = claims.PASS
    for b in range(args.start, args.stop + 1):
        t1 = claims.verify("theorem1", b=b)
        c1 = claims.verify("corollary1", b=b)
        verdict = _worst(t1.verdict, c1.verdict)
        overall = _worst(overall, verdict)
        curve = c1.curve
        rows.append({
            "b": b,
            "verdict": verdict,
            "lambda": str(curve.lam),
            "delta_nonzero": not curve.singular,
            "j": None if curve.j_invariant is None
                 else str(curve.j_invariant),
            "singular": curve.singular,
        })
    if args.format == "json":
        doc = {"from": args.start, "to": args.stop, "verdict": overall,
               "rows": rows}
        print(json.dumps(doc, indent=2))
    else:
        widths = (4, 13, 10, 6)
        print("{0:>{w[0]}}  {1:<{w[1]}} {2:<{w[2]}} {3:<{w[3]}} {4}".format(
            "b", "verdict", "lambda", "delta", "j", w=widths))
        for r in rows:
            delta = "!= 0" if r["delta_nonzero"] else "= 0"
            j = r["j"] if r["j"] is not None else "UNDEFINED"
            flag = "  SINGULAR" if r["singular"] else ""
            print("{0:>{w[0]}}  {1:<{w[1]}} {2:<{w[2]}} {3:<{w[3]}} {4}{5}"
                  .format(r["b"], r["verdict"], r["lambda"], delta, j, flag,
                          w=widths))
        print(f"overall: {overall}")
    return _EXIT_BY_VERDICT[overall]


def _cmd_check_file(args) -> int:
    try:
        presentation = parse_presentation(args.path)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"error: cannot read {args.path}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if args.wrapper_len < 0:
        print("error: wrapper length must be nonnegative", file=sys.stderr)
        return EXIT_INPUT
    report = ideal.involution_stability(presentation, args.wrapper_len)
    for r in report.relations:
        rel = presentation.relations[r.index]
        print(f"r{r.index + 1} [{rel}]: {r.verdict.kind}")
    print(f"verdict: {report.verdict}")
    return {ideal.STABLE: EXIT_PASS,
            ideal.UNSTABLE: EXIT_FAIL,
            ideal.INCONCLUSIVE: EXIT_INCONCLUSIVE}[report.verdict]


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        return _cmd_check_file(args)
    except (ValueError, PoleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
