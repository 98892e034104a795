"""Command-line front end: run claim verifications, sweep the modulus
family, and check involution stability of presentation files.

Exit codes: 0 every check passed; 1 a checked identity failed; 2 at least
one membership search exhausted its bound without an answer; 3 bad input;
141 (128 + SIGPIPE) the reader closed stdout before the report was written,
as in `ckverify sweep --from 2 --to 30 | head -n 2`.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
import warnings
from typing import Optional

from . import ideal
from . import presentations as claims
from .coeff import PoleError
from .ncpoly import word_str
from .parser import parse_presentation

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_INPUT = 3

# claim verdicts, then involution-stability verdicts; both kinds share
# the one INCONCLUSIVE
_EXIT_BY_VERDICT = {
    claims.PASS: EXIT_PASS,
    claims.FAIL: EXIT_FAIL,
    ideal.STABLE: EXIT_PASS,
    ideal.UNSTABLE: EXIT_FAIL,
    ideal.INCONCLUSIVE: EXIT_INCONCLUSIVE,
}


class _Parser(argparse.ArgumentParser):
    """argparse variant honouring the exit-code contract (3 = bad input)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


@functools.cache
def _build_parser() -> _Parser:
    """The parser, built once per process: parse_args leaves it unchanged,
    so every call of main can share it."""
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

def _certificate_json(payload):
    """Serialize certificate payloads: engine certificates become entry
    lists; dict/list containers recurse; scalars pass through."""
    if payload is None:
        return None
    if isinstance(payload, ideal.MembershipCertificate):
        return [{"left": word_str(claims.GENERATORS, e.left),
                 "relation": e.rel_index + 1,
                 "right": word_str(claims.GENERATORS, e.right),
                 "coefficient": str(e.coeff)} for e in payload]
    if isinstance(payload, dict):
        return {k: _certificate_json(v) for k, v in payload.items()}
    if isinstance(payload, (list, tuple)):
        return [_certificate_json(v) for v in payload]
    return payload


def _report_doc(report, with_certificates: bool,
                elapsed_ms: Optional[int]) -> dict:
    """The report of one claim as JSON data, which both formats print."""
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
        c = report.curve
        doc["curve"] = {
            "lambda": str(c.lam),
            "discriminant": str(c.discriminant),
            "j": None if c.j_invariant is None else str(c.j_invariant),
            "singular": c.singular,
        }
    if elapsed_ms is not None:
        doc["elapsed_ms"] = elapsed_ms
    return doc


def _print_certificate_text(payload, indent: str):
    if isinstance(payload, dict):
        for k, v in payload.items():
            print(f"{indent}{k}:")
            _print_certificate_text(v, indent + "  ")
    elif isinstance(payload, list):
        for i, v in enumerate(payload):
            if isinstance(v, (int, str)):
                print(f"{indent}{v}")
            elif isinstance(v, dict):  # in a list, a dict is a certificate entry
                print(f"{indent}{v['coefficient']} * ({v['left']}) "
                      f"* r{v['relation']} * ({v['right']})")
            else:
                print(f"{indent}[{i}]:")
                _print_certificate_text(v, indent + "  ")
    elif payload is not None:
        print(f"{indent}{payload}")


def _print_report_text(doc: dict):
    mode = ("symbolic" if doc["mode"] == "symbolic"
            else f"concrete (b = {doc['b']})")
    print(f"claim: {doc['claim']}")
    print(f"mode: {mode}")
    print(f"wrapper length: {doc['wrapper_len']}")
    for s in doc["steps"]:
        print(f"  [{s['verdict']}] {s['name']}: {s['detail']}")
        if "certificate" in s:
            _print_certificate_text(s["certificate"], "      ")
    if "curve" in doc:
        c = doc["curve"]
        j = "UNDEFINED" if c["j"] is None else c["j"]
        state = "SINGULAR" if c["singular"] else "nonsingular"
        print(f"curve: y^2*z = x*(x - z)*(x - ({c['lambda']})*z)")
        print(f"  discriminant = {c['discriminant']}; j = {j}; {state}")
    print(f"verdict: {doc['verdict']}")
    if "elapsed_ms" in doc:
        print(f"elapsed: {doc['elapsed_ms']} ms")


# ---------------------------------------------------------------------------
# commands

def _cmd_verify(args) -> int:
    started = time.monotonic()
    report = claims.verify(args.claim, b=args.b, wrapper_len=args.wrapper_len)
    elapsed_ms = int((time.monotonic() - started) * 1000) if args.timing \
        else None
    doc = _report_doc(report, args.certificates, elapsed_ms)
    if args.format == "json":
        print(json.dumps(doc, indent=2))
    else:
        _print_report_text(doc)
    return _EXIT_BY_VERDICT[report.verdict]


def _cmd_sweep(args) -> int:
    if not (2 <= args.start <= args.stop):
        raise ValueError("need 2 <= from <= to")
    rows = []
    for b in range(args.start, args.stop + 1):
        t1 = claims.verify("theorem1", b=b)
        c1 = claims.verify("corollary1", b=b)
        curve = c1.curve
        rows.append({
            "b": b,
            "verdict": claims.worst_verdict((t1.verdict, c1.verdict)),
            "lambda": str(curve.lam),
            "delta_nonzero": not curve.singular,
            "j": None if curve.j_invariant is None
                 else str(curve.j_invariant),
            "singular": curve.singular,
        })
    overall = claims.worst_verdict(r["verdict"] for r in rows)
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
    except OSError as exc:
        print(f"error: cannot read {args.path}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    report = ideal.involution_stability(presentation, args.wrapper_len)
    for r in report.relations:
        rel = presentation.relations[r.index]
        print(f"r{r.index + 1} [{rel}]: {r.verdict.kind}")
    print(f"verdict: {report.verdict}")
    return _EXIT_BY_VERDICT[report.verdict]


def _show_warning(message, category, filename, lineno, file=None,
                  line=None):
    """A UserWarning, the category ckverify raises, as one line without its
    source location; any other category in the default form, which names
    the category and the source."""
    out = sys.stderr if file is None else file
    if category is UserWarning:
        out.write(f"warning: {message}\n")
    else:
        out.write(warnings.formatwarning(message, category, filename, lineno,
                                         line))


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        # catch_warnings puts the caller's warnings.showwarning back on exit
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            if args.command == "verify":
                status = _cmd_verify(args)
            elif args.command == "sweep":
                status = _cmd_sweep(args)
            else:
                status = _cmd_check_file(args)
        # a reader that closed stdout early shows here, not at exit
        sys.stdout.flush()
        return status
    # a Warning arrives here as an exception under -W error
    except (ValueError, PoleError, Warning) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit: send that to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141  # 128 + SIGPIPE, as for a process that signal ended


if __name__ == "__main__":
    sys.exit(main())
