"""lambdaloop benchmark: four closed-loop workloads, one client each.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 27 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 27

Each workload runs in fresh worker processes (worker.py), one at a time,
with BLAS pinned to one thread.  Set-up time is the median, over
SETUP_SAMPLES processes, of the time from starting the process to its
READY line.  Every time metric is scaled to the speed at which the
reference kernel (reference.py) takes its nominal time.  With --trace 0 the last line of standard output is a JSON
object with the end-to-end metrics; with --trace 1 it holds the per-layer
metrics of a traced run.  Lines before it give every metric with its unit
and sample count, the environment and any failed check.  The command
exits non-zero, printing no result, if the lambdaloop sources or a worker
are missing or broken.
"""
from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("sweep", "pulse", "point", "oracle")
READY = "perfbench-ready"
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60.0
RESULT_GRACE_S = 60.0
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    """A worker failed to start, crashed or timed out."""


def worker(args, workload, workdir, *extra):
    return subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--workdir", workdir, *extra],
        cwd=ROOT, env={**os.environ, **PINNED_ENV},
        stdout=subprocess.PIPE, text=True)


def wait_ready(proc, start: float) -> float:
    """Seconds from `start` until the worker prints READY."""
    if not select.select([proc.stdout], [], [], SETUP_TIMEOUT_S)[0]:
        raise BenchError(f"worker not ready after {SETUP_TIMEOUT_S:.0f} s")
    line = proc.stdout.readline()
    if line.strip() != READY:
        raise BenchError(f"worker did not become ready (exit {proc.wait()})")
    return time.perf_counter() - start


def finish(proc, timeout) -> str:
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker timed out after {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    return out


def run_worker(args, workload, *extra) -> tuple[float, dict]:
    """Start a worker; return (seconds to READY, the JSON object it ends
    its standard output with)."""
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        start = time.perf_counter()
        proc = worker(args, workload, workdir, *extra)
        try:
            ready_s = wait_ready(proc, start)
            lines = finish(proc, args.seconds + RESULT_GRACE_S).strip().splitlines()
            if not lines:
                raise BenchError("worker printed no result")
            return ready_s, json.loads(lines[-1])
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def measure(args, workload) -> dict:
    """Run one workload; return its result with sample counts per metric."""
    setup, raw_setup = [], []

    def add_setup(ready_s, report):
        raw_setup.append(ready_s)
        setup.append(ready_s * report["setup_scale"])

    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            add_setup(*run_worker(args, workload, "--setup-only"))
    ready_s, report = run_worker(args, workload)
    add_setup(ready_s, report)
    notes = []
    if args.trace:
        metrics = report["layers"]
        counts = {}
        failures = report["failures"] + report["count_mismatches"]
        correct = report["failed"] == 0 and not report["count_mismatches"]
    else:
        passes, ops = report["pass_s"], report["op_ms"]
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": statistics.median(passes), "unit": "s"},
            "op_p50_ms": {"value": statistics.median(ops), "unit": "ms"},
            "op_p90_ms": {"value": p90(ops), "unit": "ms"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        }
        counts = {"setup_s": len(setup), "wall_s": len(passes),
                  "op_p50_ms": len(ops), "op_p90_ms": len(ops),
                  "peak_rss_mb": 1}
        failures = report["failures"]
        correct = report["failed"] == 0
        notes = [
            f"raw (unscaled) medians: setup {statistics.median(raw_setup):.6g} s,"
            f" pass {statistics.median(report['raw_pass_s']):.6g} s",
            f"reference kernel: median {statistics.median(report['reference_s']) * 1e3:.6g} ms"
            f" over {len(report['reference_s'])} samples"
            f" (nominal {report['reference_nominal_s'] * 1e3:g} ms)",
        ]
    return {"correct": correct, "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics, "counts": counts,
            "failures": failures, "environment": report["environment"],
            "notes": notes}


def describe(workload, result) -> list[str]:
    lines = [f"== {workload}: environment {json.dumps(result['environment'])}"]
    for name, metric in result["metrics"].items():
        n = result["counts"].get(name)
        samples = f"  (n={n})" if n is not None else ""
        lines.append(f"{workload}.{name} = {metric['value']:.6g} "
                     f"{metric['unit']}{samples}")
    attempted, failed = result["attempted"], result["failed"]
    lines.append(f"{workload}.fail_ratio = {failed / attempted:.6g}  "
                 f"({failed} of {attempted} ops failed)")
    lines += [f"{workload}: {note}" for note in result["notes"]]
    lines += [f"{workload}: FAILED {message}" for message in result["failures"]]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=27)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn a termination request into SystemExit so that workers are
    # killed and work directories removed on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "lambdaloop" / "__init__.py").is_file():
        print(f"perfbench: no lambdaloop sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            results[name] = measure(args, name)
        except (BenchError, ValueError, KeyError) as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 1
        print("\n".join(describe(name, results[name])), flush=True)

    if args.workload == "all":
        metrics = {f"{name}.{key}": value for name, r in results.items()
                   for key, value in r["metrics"].items()}
    else:
        metrics = results[args.workload]["metrics"]
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
