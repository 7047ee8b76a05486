#!/usr/bin/env python3
"""forkcast benchmark: one workload, one closed-loop run, one JSON result.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 10 --trace 0

Run from the repository root; ``forkcast`` is imported from ``src/`` of
the same checkout, never from an installed copy.  With ``--trace 0`` the
run measures the end-to-end metrics with tracing off; with ``--trace 1``
it runs the traced per-layer probe instead (see README.md).  The last
line of standard output is the result object; the lines before it give
provenance, input descriptors and every metric with its unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 8  # set-ups timed before the timed phase, and again after it
OVERHEAD_SECONDS = 2.0  # untraced work timed for trace.overhead_frac


def import_program():
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import forkcast
    except ImportError as exc:
        raise SystemExit(f"error: cannot import forkcast from {src}: {exc}")
    if Path(forkcast.__file__).resolve().parent.parent != src:
        raise SystemExit(f"error: forkcast imported from {forkcast.__file__}, not {src}")
    return forkcast


def git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args, threads: int) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "forkcast").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "FORKCAST_THREADS": os.environ.get("FORKCAST_THREADS"),
        "threads_used": {"pipeline": threads, "simulate": threads},
    }


def measure_setup(workload: str, size: str) -> list[float]:
    """Wall time from process start until the workload's models are built."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), workload, size],
            stdout=subprocess.PIPE, text=True,
        ) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise SystemExit(f"error: set-up probe failed ({proc.returncode}): {line!r}")
        times.append(elapsed)
    return times


class Tally:
    """Operations attempted and the reason each failed one failed."""

    def __init__(self):
        self.attempted = 0
        self.errors: list[str] = []

    def fail(self, error: str):
        self.attempted += 1
        self.errors.append(error)

    def run(self, op, tracer) -> float:
        """Run and check one operation; returns its latency in seconds."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = op.run(tracer)
        except Exception as exc:  # a failed operation is counted, not fatal
            elapsed = time.perf_counter() - t0
            self.errors.append(f"{op.name} raised {exc!r}\n{traceback.format_exc()}")
            return elapsed
        elapsed = time.perf_counter() - t0
        error = op.check(out)
        if error:
            self.errors.append(error)
        return elapsed


def timed_phase(wl, seed: int, seconds: float, tally: Tally, tracer) -> list[float]:
    """Whole passes, back to back, until the busy time reaches ``seconds``."""
    latencies: list[float] = []
    index = 0
    while index == 0 or sum(latencies) < seconds:
        ops = wl.pass_ops(seed, index)
        for op in ops:
            latencies.append(tally.run(op, tracer))
        reset_dir(wl.workdir)
        index += 1
    return latencies


def reset_dir(path: Path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)


def overhead_frac(wl, seed: int, tally: Tally, tracer) -> float:
    """(traced - untraced) / untraced wall time of the same operations."""
    from spans import NullTracer

    ops, untraced = [], 0.0
    for op in wl.pass_ops(seed, 0):
        untraced += tally.run(op, NullTracer())
        ops.append(op)
        if untraced >= OVERHEAD_SECONDS:
            break
    traced = 0.0
    for op in ops:
        with tracer.trace(f"op.{op.name}"):
            traced += tally.run(op, tracer)
    reset_dir(wl.workdir)
    return (traced - untraced) / untraced


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=("pipeline", "band", "scan", "validate"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="problem size; 'tiny' is for the benchmark's self-tests")
    args = ap.parse_args(argv)

    import_program()
    sys.path.insert(0, str(HERE))
    import workloads as wlmod
    from probe import Probe
    from spans import NullTracer, Tracer

    seed = args.seed % (1 << 63)
    size = wlmod.SIZES[args.size]
    ref = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    reset_dir(workdir)
    result: dict = {"provenance": provenance(args, wlmod.default_threads())}
    tally = Tally()
    try:
        env = wlmod.setup(args.workload, size)
        wl = wlmod.WORKLOADS[args.workload](ref, size, env, workdir)
        for error in wl.precheck():
            tally.fail(error)
        result["descriptors"] = wl.descriptors()
        if args.trace == 0:
            setup_times = measure_setup(args.workload, args.size)
            lat = timed_phase(wl, seed, args.seconds, tally, NullTracer())
            setup_times += measure_setup(args.workload, args.size)
            ms = sorted(x * 1e3 for x in lat)
            metrics = {
                "setup_s": (statistics.median(setup_times), "s"),
                "ops_per_s": (len(lat) / sum(lat), "1/s"),
                "op_p50_ms": (statistics.median(ms), "ms"),
                "op_p90_ms": (statistics.quantiles(ms, n=10, method="inclusive")[8]
                              if len(ms) > 1 else ms[0], "ms"),
                "success_rate": (1.0 - len(tally.errors) / tally.attempted, "fraction"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
            result["samples"] = {"ops": len(lat), "setup_runs": len(setup_times),
                                 "busy_s": sum(lat)}
        else:
            tracer = Tracer()
            frac = overhead_frac(wl, seed, tally, tracer)
            probe = Probe(tracer, ref, size, workdir)
            metrics = probe.run()
            metrics["trace.overhead_frac"] = (frac, "fraction")
            tally.attempted += probe.attempted
            tally.errors += probe.errors
            result["self_s"] = tracer.self_times()
            tracer.write(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result["error_rate"] = len(tally.errors) / tally.attempted
    result["errors"] = tally.errors[:20]
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n", encoding="utf-8")

    print("provenance " + json.dumps(result["provenance"]))
    print("descriptors " + json.dumps(result["descriptors"]))
    for key in ("samples", "self_s"):
        if key in result:
            print(f"{key} " + json.dumps(result[key]))
    for error in tally.errors[:5]:
        print("FAILED " + error.splitlines()[0])
    print(f"{'error_rate':32s} {result['error_rate']:<14.6g} fraction "
          f"({len(tally.errors)} of {tally.attempted} operations)")
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:<14.6g} {unit}")
    print(json.dumps({
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": len(tally.errors),
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
