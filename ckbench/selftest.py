"""Self-test of the benchmark's checker: it must bite.

    python3 ckbench/selftest.py

Runs three real ops (theorem1 and corollary1 at b = 5, and check-file on
a generated lemma1 file), then scores their output with the benchmark's
own `evaluate` three ways: as printed, where failed_ratio must be 0; with
one certificate coefficient altered; and with a verdict flipped, once in
a verify report and once in check-file output.  Each altered version must
raise failed_ratio.  Exits 0 when every case holds, 1 otherwise.
"""
from __future__ import annotations

import copy
import json
import random
import shutil
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import run as bench
import workloads
from audit import Auditor


def _alter_coefficient(out: str) -> str:
    doc = json.loads(out)
    step = next(s for s in doc["steps"] if s.get("certificate"))
    entry = step["certificate"][0]
    entry["coefficient"] = str(Fraction(entry["coefficient"]) + 1)
    return json.dumps(doc, indent=2)


def _flip_report(out: str) -> str:
    doc = json.loads(out)
    doc["verdict"] = "FAIL"
    return json.dumps(doc, indent=2)


def _flip_stability(out: str) -> str:
    lines = out.splitlines()
    lines[-1] = "verdict: UNSTABLE" if lines[-1] == "verdict: STABLE" \
        else "verdict: STABLE"
    return "\n".join(lines) + "\n"


def _with(p: bench.Pass, op_index: int, call_index: int, alter):
    """A copy of the pass with one call's output altered."""
    altered = copy.deepcopy(p)
    seconds, results = altered.records[op_index]
    rc, out = results[call_index]
    results[call_index] = (rc, alter(out))
    return altered


def main() -> int:
    modules = bench.load_program()
    bench.OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=bench.OUT))
    try:
        params, rels, verdict = workloads.lemma1_stage(
            workloads.LEMMA1_STAGES[-1])
        text = workloads.presentation_text(
            "self-test", params,
            workloads.disguise(rels, random.Random(0),
                               workloads.LEMMA1_BLOCKS))
        (workdir / "selftest.pres").write_text(text, encoding="utf-8")
        ops = [
            workloads.Op("b=5", (workloads.verify_call("theorem1", 5),
                                 workloads.verify_call("corollary1", 5))),
            workloads.Op("file", (workloads.check_file_call(
                str(workdir / "selftest.pres"), verdict),)),
        ]
        printed = bench.run_pass(modules["cli"], ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    cases = [
        ("as printed", printed, False),
        ("one certificate coefficient altered",
         _with(printed, 0, 1, _alter_coefficient), True),
        ("verify verdict flipped", _with(printed, 0, 1, _flip_report), True),
        ("check-file verdict flipped",
         _with(printed, 1, 0, _flip_stability), True),
    ]
    ok = True
    for label, p, should_fail in cases:
        outcome = bench.evaluate(
            ops, [p], Auditor(modules["presentations"], modules["parser"]))
        ratio = outcome.failed / outcome.attempted
        good = (ratio > 0) == should_fail
        ok &= good
        print(f"{'ok' if good else 'WRONG':<6} {label}: failed_ratio "
              f"{ratio:g}")
        for problem in outcome.problems:
            print(f"       {problem}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
