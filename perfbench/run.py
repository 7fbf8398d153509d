#!/usr/bin/env python3
"""The tatedual benchmark: one seeded workload through ``tatedual.cli.run``.

    python3 perfbench/run.py --workload tate-series --seed 1 --seconds 40 --trace 0

One client in one process runs a closed loop: each op is the argv of one CLI
command, timed from ``cli.run(argv)`` to its return with stdout captured,
until the ops have kept the program busy for ``--seconds``.  Every output is
checked against the independent oracle in ``oracle.py`` as it arrives.  A
fixed calibration routine is timed before every op, and the reported times
are scaled by it to a reference host speed (``calibration.py``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs ops
untraced for half the time, replays exactly those ops with every layer
wrapped (``tracing.py``), requires byte-identical outputs, and reports the
per-layer metrics plus the tracing overhead.  The last stdout line is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  Details
(metadata, failures, the per-function table) go to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_SAMPLES = 9
DIGEST_PREFIX = 64  # ops covered by the prefix digests, comparable across runs

sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
)

# Import plus first parser build, timed inside a fresh interpreter, then
# the host-speed calibration in the same interpreter.
SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import tatedual.cli
tatedual.cli.build_parser()
elapsed = time.perf_counter() - start
sys.path.insert(0, sys.argv[2])
import calibration, statistics
print(elapsed, statistics.median(calibration.measure() for _ in range(5)))
"""


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def import_program():
    """Import tatedual from this checkout's src/, refusing any other copy."""
    if not (SRC / "tatedual" / "cli.py").is_file():
        raise SystemExit(f"error: no tatedual sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import tatedual.cli

    if Path(tatedual.__file__).resolve().parent != (SRC / "tatedual").resolve():
        raise SystemExit(f"error: imported tatedual from {tatedual.__file__}, not {SRC}")
    return tatedual.cli


def setup_seconds() -> tuple[float, float]:
    """Import plus first parser build, timed inside a fresh interpreter, and
    the calibration time measured right after it in the same interpreter."""
    done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE)], cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    elapsed, spent = done.stdout.strip().splitlines()[-1].split()
    return float(elapsed), float(spent)


@dataclass
class Executed:
    """What a run keeps of one op: digests instead of argv and output, so
    memory does not grow with the number of ops."""

    slot: int
    kind: str
    seconds: float
    argv_digest: bytes
    digest: bytes  # SHA-256 of the exit code (or exception type), stdout and stderr
    failure: str | None
    argv: tuple | None  # kept for failed ops only
    calibration: float = 0.0  # calibration time measured right before the op


class Runner:
    """Executes ops in-process and checks each output as it arrives."""

    def __init__(self, cli):
        self.cli = cli

    def execute(self, op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = self.cli.run(list(op.argv))
            except Exception as exc:  # a crash is one failed op, not the end of the run
                code = exc
            elapsed = time.perf_counter() - start
        return code, out.getvalue(), err.getvalue(), elapsed

    def run_op(self, op, slot=-1, spent=0.0) -> Executed:
        code, out, err, elapsed = self.execute(op)
        tag = f"raised {type(code).__name__}" if isinstance(code, BaseException) else str(code)
        digest = hashlib.sha256(f"{tag}\n{out}\x00{err}\x00".encode()).digest()
        failure = oracle.check(op, code, out, err)
        return Executed(slot, op.kind, elapsed, workloads.op_digest(op), digest, failure,
                        op.argv if failure else None, spent)

    def loop(self, generator, seconds, after_block=None) -> list[Executed]:
        """Run one whole block, then ops until they and the calibration
        before each have kept the program busy for `seconds`.  `after_block`
        runs untimed after each block."""
        done: list[Executed] = []
        busy = 0.0
        whole = True
        while busy < seconds:
            for slot, op in generator.block():
                spent = calibration.measure()
                done.append(self.run_op(op, slot, spent))
                busy += spent + done[-1].seconds
                if busy >= seconds and not whole:
                    break
            whole = False
            if after_block:
                after_block()
        return done


def digest_of(executed, field) -> str:
    return hashlib.sha256(b"".join(getattr(e, field) for e in executed)).hexdigest()


def failures_of(executed) -> list[dict]:
    return [{"op": i, "argv": list(e.argv)[:12], "reason": e.failure}
            for i, e in enumerate(executed) if e.failure]


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "tatedual").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return "unknown (git not found)"
    return done.stdout.strip() or "unknown"


def backend_name() -> str:
    kernels = sys.modules.get("tatedual.kernels")
    active = getattr(kernels, "active_backend", None)
    return active() if active else "none (no kernels dispatch)"


def metadata(args, executed) -> dict:
    first = executed[:DIGEST_PREFIX]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": git_commit(), "source_sha256": source_digest(),
        "python": platform.python_version(),
        "python_implementation": platform.python_implementation(),
        "nproc": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
        "backend": backend_name(), "ops": len(executed),
        "argv_sha256": digest_of(executed, "argv_digest"),
        "outputs_sha256": digest_of(executed, "digest"),
        f"argv_sha256_first{DIGEST_PREFIX}": digest_of(first, "argv_digest"),
        f"outputs_sha256_first{DIGEST_PREFIX}": digest_of(first, "digest"),
    }


def warm_up(runner, workload):
    for argv in workloads.WARMUP[workload]:
        runner.execute(workloads.Op(argv=argv))
    gc.collect()


def middle_mean(xs: list[float]) -> float:
    """Mean of the middle half of `xs` (all of them when there are fewer
    than four)."""
    xs = sorted(xs)
    cut = len(xs) // 4
    return statistics.fmean(xs[cut:len(xs) - cut])


def run_known_defect_probes(runner, seed):
    return [{"family": op.kind, "argv": list(op.argv), "failure": runner.run_op(op).failure}
            for op in workloads.known_defect_probes(seed)]


def latency_figures(executed, seconds) -> tuple[float, float, float, list[float]]:
    """ops_per_s, p50 and p90 in ms over the design's slots, each slot at the
    mean of the middle half of its executions; `seconds[i]` is the time
    counted for `executed[i]`.  Also returns the per-slot figures in ms."""
    by_slot: dict[int, list[float]] = {}
    for e, t in zip(executed, seconds):
        by_slot.setdefault(e.slot, []).append(t)
    typical = [middle_mean(xs) for xs in by_slot.values()]
    ms = sorted(x * 1000 for x in typical)
    deciles = statistics.quantiles(ms, n=10, method="inclusive")
    return len(typical) / sum(typical), statistics.median(ms), deciles[8], ms


def end_to_end(args, runner):
    setup_seconds()  # compiles the bytecode caches
    warm_up(runner, args.workload)
    # set-up samples are spread over the run, one after each block
    setup_samples: list[tuple[float, float]] = []
    generator = workloads.Generator(args.workload, args.seed)
    executed = runner.loop(
        generator, args.seconds, after_block=lambda: setup_samples.append(setup_seconds()))
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while len(setup_samples) < SETUP_SAMPLES:
        setup_samples.append(setup_seconds())
    failures = failures_of(executed)
    probes = run_known_defect_probes(runner, args.seed)

    # The host's speed drifts by 20 % and more between runs, so every time
    # is scaled to the reference speed by the calibration run beside it
    # (calibration.py).  Each slot of the block design then counts with the
    # mean of the middle half of its executions over the run's blocks, which
    # drops the executions that a burst on the host slowed or sped up.
    raw = [e.seconds for e in executed]
    spent = [e.calibration for e in executed]
    ops_per_s, p50, p90, ms = latency_figures(executed, calibration.scaled(raw, spent))
    raw_ops_per_s, raw_p50, raw_p90, _ = latency_figures(executed, raw)
    setup_s = statistics.median(t * calibration.REFERENCE_S / c for t, c in setup_samples)
    raw_setup_s = statistics.median(t for t, _ in setup_samples)
    metrics = {
        "ops_per_s": ops_per_s,
        "latency_p50_ms": p50,
        "latency_p90_ms": p90,
        "setup_s": setup_s,
        "peak_rss_mib": peak_rss_mib,
    }
    probe_failed = sum(1 for p in probes if p["failure"])
    n, k = len(executed), len(ms)
    busy = sum(raw)
    speed = calibration.REFERENCE_S / statistics.median(spent)
    lines = [
        f"host speed     = {speed:.3f} x the reference (median of {n} calibrations of "
        f"{statistics.median(spent) * 1000:.3f} ms); times below are scaled to the reference",
        f"ops_per_s      = {ops_per_s:.4f} 1/s (one block of {k} ops at each op's middle "
        f"mean; {n / k:.1f} blocks, {busy:.2f} s busy, one closed-loop client; "
        f"unscaled {raw_ops_per_s:.4f})",
        f"latency_p50_ms = {p50:.4f} ms (n={k} ops, each the mean of the middle half of "
        f"its {n / k:.1f} executions on average; {n} executions; unscaled {raw_p50:.4f})",
        f"latency_p90_ms = {p90:.4f} ms "
        f"(n={k}, {sum(1 for x in ms if x > p90)} samples beyond; unscaled {raw_p90:.4f})",
        f"setup_s        = {setup_s:.5f} s (median of {len(setup_samples)} fresh "
        f"interpreters spread over the run: import + first build_parser; "
        f"unscaled {raw_setup_s:.5f})",
        f"peak_rss_mib   = {peak_rss_mib:.2f} MiB (ru_maxrss after the timed loop)",
        f"failed_ratio   = {len(failures) / n:.6f} ({len(failures)} of {n} timed ops)",
        f"known-defect probes (ROADMAP item 4): {probe_failed} of {len(probes)} failed",
    ]
    lines += [f"  {p['family']}: {p['failure'] or 'passed'}" for p in probes]
    lines.append(f"failed_ratio incl. known-defect probes = "
                 f"{(len(failures) + probe_failed) / (n + len(probes)):.6f}")
    unscaled = {"ops_per_s": raw_ops_per_s, "latency_p50_ms": raw_p50,
                "latency_p90_ms": raw_p90, "setup_s": raw_setup_s}
    detail = {"host_speed": speed, "unscaled": unscaled,
              "setup_samples_s": [list(x) for x in setup_samples],
              "known_defect_probes": probes,
              "ops": [{"slot": e.slot, "latency_ms": e.seconds * 1000,
                       "calibration_ms": e.calibration * 1000, "kind": e.kind}
                      for e in executed]}
    return executed, failures, metrics, lines, detail


def traced(args, runner):
    warm_up(runner, args.workload)
    numutil = sys.modules.get("tatedual.numutil")
    prime_cache = getattr(numutil, "_VERIFIED_PRIMES", None)
    cache_snapshot = set(prime_cache) if isinstance(prime_cache, set) else None
    generator = workloads.Generator(args.workload, args.seed)
    plain = runner.loop(generator, args.seconds / 2)
    if cache_snapshot is not None:  # fresh primes must miss the cache again
        prime_cache.clear()
        prime_cache.update(cache_snapshot)

    # the same seed regenerates exactly the ops just run
    replay = workloads.Generator(args.workload, args.seed)
    ops = []
    while len(ops) < len(plain):
        ops += replay.block()
    tracer = tracing.Tracer()
    skipped = tracer.install()
    executed = []
    try:
        for i, (slot, op) in enumerate(ops[:len(plain)]):
            tracer.op_id = i
            executed.append(runner.run_op(op, slot))
    finally:
        tracer.uninstall()

    failures = failures_of(executed)
    differing = [i for i, (a, b) in enumerate(zip(plain, executed)) if a.digest != b.digest]
    failures += [{"op": i, "argv": list(ops[i][1].argv)[:12],
                  "reason": "traced output differs from the untraced run"} for i in differing]
    overhead = sum(e.seconds for e in executed) / sum(e.seconds for e in plain)
    metrics = tracer.metrics(overhead)
    RESULTS.mkdir(exist_ok=True)
    spans_path = RESULTS / f"{args.workload}-seed{args.seed}-spans.tsv.gz"
    kept = tracer.write_spans(spans_path)
    shares = ", ".join(f"{layer} {metrics[f'{layer}.self_share']:.3f}"
                       for layer in tracing.LAYERS)
    lines = [
        f"traced {len(executed)} ops: overhead {overhead:.3f}x the untraced run of the same ops, "
        f"{len(differing)} outputs differ from the untraced run",
        f"self-time share by layer: {shares}",
        f"spans: {tracer.span_count} recorded, {kept} written to {spans_path.name}",
    ]
    if skipped:
        lines.append(f"not wrapped (absent): {', '.join(skipped)}")
    detail = {"functions": tracer.table(), "skipped": skipped, "spans_file": spans_path.name}
    return executed, failures, metrics, lines, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    runner = Runner(import_program())
    mode = traced if args.trace else end_to_end
    executed, failures, metrics, lines, detail = mode(args, runner)
    meta = metadata(args, executed)

    units = dict(tracing.metric_spec() if args.trace else END_TO_END)
    summary = {
        "correct": not failures,
        "attempted": len(executed),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    record = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"meta": meta, "summary": summary, "failures": failures,
                                  **detail}, indent=1) + "\n")

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds} s, "
          f"trace {'on' if args.trace else 'off'}, backend {meta['backend']}, "
          f"python {meta['python']}, nproc {meta['nproc']}, commit {meta['commit']}")
    for line in lines:
        print(line)
    for f in failures[:10]:
        print(f"FAILED op {f['op']}: {f['reason']}: {' '.join(f['argv'])}")
    print(f"argv_sha256 {meta['argv_sha256']}  outputs_sha256 {meta['outputs_sha256']}  "
          f"({meta['ops']} ops; details in {record.relative_to(ROOT)})")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
