"""Benchmark of ckverify, end to end and per layer.

    python3 ckbench/run.py --workload symbolic|sweep|files --seed N \\
        --seconds S --trace 0|1

Runs one workload in this process, closed loop with one client: each op
calls the public entry point `ckverify.cli.main(argv)` with stdout
captured and starts when the previous op has returned.  A run measures
whole passes over the workload's ops; it starts another pass only while
the last pass would still end within S seconds, so it always measures at
least one.  During untraced passes a timer signal runs a burst of the
reference kernel (reference.py) every 20 ms, and the bursts' time is
taken out of the ops they interrupt; wall_ref and cpu_ref give a pass's
time in multiples of its mean burst, which cancels the host's slow swings
in speed.  Every output is then checked against its known answer and
every printed certificate is re-expanded (outside the timed interval).

--trace 0 reports the end-to-end metrics.  --trace 1 first runs
untraced for S/2 seconds, cutting a pass short at that point, then
measures passes with layer spans (tracer.py) for another S/2.  It reports
the per-layer metrics per traced pass and the tracing overhead on the ops
both halves ran, and writes the spans to ckbench/out/.  A table of every
metric with its unit comes first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  The program is imported from src/ next to this
directory; without it the benchmark exits with status 2 and no result.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import reference
import workloads
from audit import Auditor
from check import check_call
from tracer import LAYERS, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# Fresh interpreters started to time set-up, half before the warm-up and
# half after the timed passes, so that a run samples the host's speed at
# two times; the median is reported.
SETUP_RUNS = 16
# Seconds between reference bursts during untraced passes; a burst takes
# about 1 ms, so sampling costs about 5% of a run.
SAMPLE_INTERVAL = 0.02
SETUP_CODE = """\
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
from ckverify.cli import main
out = io.StringIO()
with contextlib.redirect_stdout(out):
    rc = main(["verify", "lemma5", "--b", "7", "--format", "json"])
sys.exit(0 if rc == 0 and '"verdict": "PASS"' in out.getvalue() else 1)
"""


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def load_program() -> dict:
    """Import ckverify from this checkout's src/; layer name -> module."""
    if not (SRC / "ckverify" / "__init__.py").is_file():
        raise BenchError(f"no ckverify package under {SRC}")
    sys.path.insert(0, str(SRC))
    import ckverify
    if Path(ckverify.__file__).resolve().parent != SRC / "ckverify":
        raise BenchError(f"imported ckverify from {ckverify.__file__}, "
                         f"not from {SRC}")
    from ckverify import (cli, coeff, curves, ideal, ncpoly, parser,
                          presentations)
    return {"cli": cli, "presentations": presentations, "curves": curves,
            "ideal": ideal, "parser": parser, "ncpoly": ncpoly,
            "coeff": coeff}


# ---------------------------------------------------------------------------
# running ops

@dataclass
class Pass:
    wall: float
    records: list     # per op: (seconds, [(exit code, stdout) per call])
    cpus: list        # per op: process CPU seconds
    bursts: list      # (wall, CPU) seconds of each reference burst


def run_call(cli, argv) -> tuple:
    """Exit code and stdout of cli.main(argv); cli.main is looked up on
    every call, so that the tracer's wrapper is used while installed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a crash is a failed op, not a dead run
            rc = None
            out.write(f"\ncrashed: {type(exc).__name__}: {exc}")
    return rc, out.getvalue()


class Clock:
    """Wall and CPU clocks for timing ops, without sampling."""

    def __init__(self):
        self.bursts = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass

    def read(self) -> tuple:
        return time.perf_counter(), time.process_time()


class SampledClock(Clock):
    """While entered, a timer signal interrupts the running op every
    SAMPLE_INTERVAL seconds to time one reference burst.  The clocks it
    reads run without the bursts' time."""

    def __init__(self):
        super().__init__()
        self.spent = (0.0, 0.0)

    def _burst(self, signum, frame):
        wall, cpu = time.perf_counter(), time.process_time()
        reference.burst()
        burst = (time.perf_counter() - wall, time.process_time() - cpu)
        self.bursts.append(burst)
        self.spent = (self.spent[0] + burst[0], self.spent[1] + burst[1])

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._burst)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL,
                         SAMPLE_INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def read(self) -> tuple:
        # no burst may run between reading the clocks and what they spent
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            return (time.perf_counter() - self.spent[0],
                    time.process_time() - self.spent[1])
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})


def run_pass(cli, ops, tracer=None, label="", deadline=None) -> Pass:
    """One pass over ops; with a deadline (a perf_counter value), the pass
    ends early after the first op that ends past it.  Untraced passes
    sample the reference kernel while they run."""
    start = time.perf_counter()
    records, cpus = [], []
    with (Clock() if tracer is not None else SampledClock()) as clock:
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.request = f"{label}{i}"
            wall, cpu = clock.read()
            results = [run_call(cli, c.argv) for c in op.calls]
            end_wall, end_cpu = clock.read()
            records.append((end_wall - wall, results))
            cpus.append(end_cpu - cpu)
            if deadline is not None and time.perf_counter() > deadline:
                break
    return Pass(time.perf_counter() - start, records, cpus, clock.bursts)


def measure(cli, ops, seconds: float, tracer=None, label="",
            cut=False) -> list:
    """Passes while the last one would still end within seconds; at least
    one.  With cut, a pass that runs past seconds is cut short."""
    passes = []
    start = time.perf_counter()
    deadline = start + seconds if cut else None
    while True:
        passes.append(run_pass(cli, ops, tracer, f"{label}{len(passes)}:",
                               deadline))
        if time.perf_counter() - start + passes[-1].wall > seconds:
            return passes


def measure_setup(runs: int) -> list:
    """Times for a fresh interpreter to import ckverify and return its
    first trivial verdict, one per run."""
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, str(SRC)],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise BenchError("set-up run failed: "
                             + proc.stderr.decode(errors="replace")[-500:])
    return times


# ---------------------------------------------------------------------------
# correctness

@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    inconclusive: int = 0
    problems: list = field(default_factory=list)


def evaluate(ops, passes, auditor) -> Outcome:
    """Check every op of every pass.  An op fails when any of its calls
    gives a wrong exit code, verdict, curve or certificate, or prints other
    bytes than in the first pass."""
    outcome = Outcome()
    seen: dict = {}
    first: dict = {}
    for p in passes:
        for j, (op, (_, results)) in enumerate(zip(ops, p.records)):
            problems, inconclusive = [], False
            for i, (call, (rc, out)) in enumerate(zip(op.calls, results)):
                key = (call.argv, rc, out)
                if key not in seen:
                    found, inc = check_call(call, rc, out)
                    if call.claim is not None and not found:
                        found = auditor.audit(call, out)
                    seen[key] = (found, inc)
                found, inc = seen[key]
                problems += found
                inconclusive |= inc
                if first.setdefault((j, i), out) != out:
                    problems.append("output differs from the first pass")
            outcome.attempted += 1
            outcome.inconclusive += inconclusive
            if problems:
                outcome.failed += 1
                outcome.problems.append(f"{op.name}: " + "; ".join(problems))
    return outcome


# ---------------------------------------------------------------------------
# reporting

def src_lines() -> int:
    return sum(len(f.read_text(encoding="utf-8").splitlines())
               for f in sorted((SRC / "ckverify").rglob("*.py")))


def commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def in_bursts(p: Pass) -> tuple:
    """Wall and CPU time of a pass's ops over those of its mean burst."""
    if not p.bursts:
        raise BenchError("a pass ended before its first reference burst")
    return (sum(t for t, _ in p.records)
            / statistics.fmean(w for w, _ in p.bursts),
            sum(p.cpus) / statistics.fmean(c for _, c in p.bursts))


def end_to_end(passes, outcome, setup_s: float, peak_rss_mb: float) -> dict:
    scaled = [in_bursts(p) for p in passes]
    return {
        "wall_ref": (statistics.median(w for w, _ in scaled), "ref"),
        "cpu_ref": (statistics.median(c for _, c in scaled), "ref"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "decided_ratio": (1 - outcome.inconclusive / outcome.attempted,
                          "ratio"),
    }


def per_layer(tracer, traced, untraced, out_bytes: int,
              auditor) -> dict:
    n = len(traced)
    s, calls = tracer.self_s, tracer.calls
    fields = tracer.field_calls

    def rate(amount, seconds):
        return amount / seconds if seconds else 0.0

    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (s[layer] / n, "s")
    for layer in ("presentations", "curves", "ideal", "parser", "ncpoly"):
        m[f"{layer}.calls"] = (calls[layer] / n, "count")
    m["cli.out_bytes"] = (out_bytes / n, "bytes")
    m["coeff.us_per_call"] = (rate(s["coeff"] * 1e6, calls["coeff"]), "us")
    for kind in ("q", "qt", "multi"):
        m[f"coeff.calls.{kind}"] = (fields[kind] / n, "count")
    m["ideal.rows"] = (tracer.ideal_rows / n, "rows")
    m["ideal.rows_per_s"] = (rate(tracer.ideal_rows, s["ideal"]), "rows/s")
    m["ideal.member_ratio"] = (rate(tracer.ideal_members,
                                    tracer.ideal_verdicts), "ratio")
    m["ideal.cert_entries"] = (tracer.ideal_cert_entries / n, "count")
    m["parser.chars_per_s"] = (rate(tracer.parser_chars, s["parser"]),
                               "chars/s")
    m["audit.reexpand_s"] = (auditor.reexpand_s, "s")
    # untraced passes may be cut short: compare the ops both sides ran
    k = min(len(p.records) for p in untraced)
    first_k = lambda passes: statistics.median(
        sum(t for t, _ in p.records[:k]) for p in passes)
    m["trace.overhead_ratio"] = (first_k(traced) / first_k(untraced),
                                 "ratio")
    return m


def _print_table(rows):
    for name, value, unit in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"{name:<24} {shown:>16} {unit}")


# ---------------------------------------------------------------------------

def build_ops(workload: str, rng: random.Random, workdir: Path) -> list:
    if workload == "symbolic":
        return workloads.symbolic_ops(rng)
    if workload == "sweep":
        return workloads.sweep_ops(rng)
    inputs = workloads.files_inputs(rng)
    for name, text, _ in inputs:
        (workdir / name).write_text(text, encoding="utf-8")
    return workloads.files_ops(inputs, workdir)


def run(args) -> int:
    modules = load_program()
    cli = modules["cli"]
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        ops = build_ops(args.workload, random.Random(args.seed), workdir)
        warm = workloads.warmup_ops(workdir)
        setup_times = (measure_setup(SETUP_RUNS // 2) if not args.trace
                       else None)
        tracer = Tracer(modules) if args.trace else None

        # The warm-up fills lazy imports and one-time caches.  In a traced
        # run it is traced too, so that every layer has a measured time on
        # every workload.
        if tracer:
            tracer.install()
        try:
            warm_pass = run_pass(cli, warm, tracer, "warm-up:")
        finally:
            if tracer:
                tracer.uninstall()

        traced, peak_rss_mb = [], None
        if not args.trace:
            untraced = measure(cli, ops, args.seconds)
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024
            setup_times += measure_setup(SETUP_RUNS - SETUP_RUNS // 2)
        else:
            untraced = measure(cli, ops, args.seconds / 2, cut=True)
            tracer.install()
            try:
                traced = measure(cli, ops, args.seconds / 2, tracer, "t")
            finally:
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    auditor = Auditor(modules["presentations"], modules["parser"])
    warm_outcome = evaluate(warm, [warm_pass], auditor)
    if warm_outcome.failed:
        raise BenchError("warm-up failed: "
                         + " | ".join(warm_outcome.problems))
    passes = untraced + traced
    outcome = evaluate(ops, passes, auditor)

    if args.trace:
        out_bytes = sum(len(out.encode()) for p in [warm_pass] + traced
                        for _, results in p.records for _, out in results)
        metrics = per_layer(tracer, traced, untraced, out_bytes, auditor)
        spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_spans(spans_file)
    else:
        metrics = end_to_end(passes, outcome,
                             statistics.median(setup_times), peak_rss_mb)

    times = [t for p in untraced for t, _ in p.records]
    extra = {
        "failed_ratio": (outcome.failed / outcome.attempted, "ratio"),
        "inconclusive_ratio": (outcome.inconclusive / outcome.attempted,
                               "ratio"),
        "verdict_s.p50": (statistics.median(times), "s"),
        "verdict_s.p90": (statistics.quantiles(times, n=10)[-1]
                          if len(times) >= 100 else "n/a", "s"),
        "verdict_s.samples": (len(times), "count"),
        "passes": (len(passes), "count"),
    }
    if not args.trace:
        extra.update({
            "wall_s": (statistics.median(sum(t for t, _ in p.records)
                                         for p in untraced), "s"),
            "cpu_s": (statistics.median(sum(p.cpus) for p in untraced), "s"),
            "burst_ms": (statistics.median(
                w * 1e3 for p in untraced for w, _ in p.bursts), "ms"),
        })
    env = {"src_lines": src_lines(), "python": platform.python_version(),
           "nproc": os.cpu_count(), "commit": commit()}

    print(f"ckverify benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}, {len(ops)} ops per pass")
    _print_table([(k, v, u) for k, (v, u) in metrics.items()])
    print("-- not gated")
    _print_table([(k, v, u) for k, (v, u) in extra.items()])
    if args.trace:
        print(f"(ideal.rows is computed from each call's relations and "
              f"wrapper length; spans in {spans_file.relative_to(ROOT)})")
    for k, v in env.items():
        print(f"{k:<24} {v}")
    for problem in outcome.problems[:10]:
        print(f"FAILED {problem}")

    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in {**metrics, **extra}.items()},
              "env": env, "problems": outcome.problems}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json") \
        .write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    try:
        return run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
