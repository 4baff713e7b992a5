"""One workload in one fresh process: set up, run passes, check, report.

Started by run.py.  It prints READY on standard output once set-up is done
(imports, presets parsed, one untimed warm-up op), then times the
reference kernel, and prints one JSON object with the samples: with
--setup-only just the reference time, else also those of the passes.
Every time is also kept scaled to the reference speed (reference.py).
Passes repeat until the next one would end after --seconds.  With
--trace 1 untraced passes alternate with passes under perfbench.tracing,
and the per-layer metrics of the traced passes are reported per pass.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import reference
from run import PINNED_ENV, READY
from tracing import SpanStats, Tracer
from workloads import ROOT, WORKLOADS, OpFailed, import_package

MAX_REPORTED_FAILURES = 10
SETUP_REFERENCE_SAMPLES = 5


def run_pass(workload, fail_types, probe=True):
    """Run every op once, timing the reference kernel before the first step,
    after every step and, if probe is set, every reference.PERIOD_S during
    a step.  Return (op seconds scaled to the nominal speed, raw op seconds,
    reference samples, CPU seconds of the steps, outputs, failure
    messages).  Times exclude the kernel's own."""
    scaled, raw, outputs, failures = [], [], [], []
    refs = [reference.sample()]
    cpu_s = 0.0
    for op in workload.ops:
        op_scaled = op_raw = 0.0
        results, error = [], None
        for step in op.steps:
            cpu, start = time.process_time(), time.perf_counter()
            with reference.Probe(probe) as sampler:
                try:
                    results.append(step())
                except fail_types as exc:
                    error = f"{op.label}: {type(exc).__name__}: {exc}"
            own_s = time.perf_counter() - start - sampler.busy_s
            cpu_s += time.process_time() - cpu - sampler.busy_s
            around = [refs[-1], *sampler.samples, reference.sample()]
            refs += around[1:]
            op_raw += own_s
            op_scaled += reference.scale(own_s, around)
            if error is not None:
                break
        scaled.append(op_scaled)
        raw.append(op_raw)
        out = None
        if error is None:
            try:
                out = op.collect(tuple(results))
            except (OpFailed, OSError, ValueError, KeyError) as exc:
                error = f"{op.label}: {exc}"
        outputs.append(out)
        failures.append(error)
    for k, problem in enumerate(workload.check(outputs)):
        if failures[k] is None and problem is not None:
            failures[k] = problem
    return scaled, raw, refs, cpu_s, outputs, failures


class Samples:
    """Per-pass and per-op samples; times are scaled to the nominal speed
    unless named raw."""

    def __init__(self):
        self.pass_s: list[float] = []
        self.raw_pass_s: list[float] = []
        self.cpu_s: list[float] = []
        self.op_ms: list[float] = []
        self.reference_s: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []

    def add_pass(self, workload, fail_types, probe=True) -> None:
        scaled, raw, refs, cpu_s, _, failures = run_pass(
            workload, fail_types, probe)
        self.pass_s.append(sum(scaled))
        self.raw_pass_s.append(sum(raw))
        self.cpu_s.append(cpu_s)
        self.op_ms.extend(t * 1e3 for t in scaled)
        self.reference_s.extend(refs)
        self.attempted += len(scaled)
        self.failures.extend(f for f in failures if f is not None)


def repeat_until(deadline: float, step) -> None:
    """Call step until the next call, judged by the median so far, would
    end after the deadline; call it at least once."""
    spans: list[float] = []
    while True:
        start = time.perf_counter()
        step()
        spans.append(time.perf_counter() - start)
        if time.perf_counter() + statistics.median(spans) > deadline:
            return


def trace_targets(lib):
    def bins(*args, **kwargs):
        deltas = args[2] if len(args) > 2 else kwargs["deltas_hz"]
        return int(np.size(deltas))

    liou, prop, spec = lib.liouvillian, lib.propagation, lib.spectroscopy
    return [
        ("core.validate_density_matrix", lib.core, "validate_density_matrix", None),
        ("liouvillian.steady_state_matrix", liou, "steady_state_matrix", None),
        ("liouvillian.generator", liou.GeneratorTemplate, "generator", None),
        ("liouvillian.circular_template", liou, "circular_template", None),
        ("propagation.transmission", prop, "transmission", None),
        ("propagation.bare_transition_transmission", prop,
         "bare_transition_transmission", None),
        ("spectroscopy.sideband_transfer", spec, "sideband_transfer", bins),
        ("spectroscopy.refractive_spectrum", spec, "refractive_spectrum", None),
        ("spectroscopy.apply_transfer", spec, "apply_transfer", None),
        ("spectroscopy.expm", spec, "expm", None),
        ("spectroscopy.chi_probe_timedomain", spec, "chi_probe_timedomain", None),
        ("cli.main", lib.cli, "main", None),
    ]


def layer_metrics(tracer, passes, workload, untraced, traced):
    """Per-layer metrics of the traced passes: counts per pass, times per
    call, self times per pass.  A layer the workload never calls reads 0."""

    def span(name):
        return tracer.stats.get(name, SpanStats())

    def ratio(num, den):
        return num / den if den else 0.0

    def calls(name):
        return (span(name).calls / passes, "count")

    def per_call(name, unit, scale, field="total_s"):
        return (ratio(getattr(span(name), field), span(name).calls) * scale, unit)

    ssm, trans = "liouvillian.steady_state_matrix", "propagation.transmission"
    sbt, expm = "spectroscopy.sideband_transfer", "spectroscopy.expm"
    bare = "propagation.bare_transition_transmission"
    chi = "spectroscopy.chi_probe_timedomain"
    bins = span(sbt).units
    distinct = workload.distinct_expm_inputs() * passes
    values = {
        f"{ssm}.calls": calls(ssm),
        f"{ssm}.us_per_call": per_call(ssm, "us", 1e6),
        f"{ssm}.self_us_per_call": per_call(ssm, "us", 1e6, "self_s"),
        "liouvillian.generator.calls": calls("liouvillian.generator"),
        "liouvillian.generator.us_per_call":
            per_call("liouvillian.generator", "us", 1e6),
        "liouvillian.circular_template.calls":
            calls("liouvillian.circular_template"),
        "core.validate_density_matrix.calls":
            calls("core.validate_density_matrix"),
        "core.validate_density_matrix.us_per_call":
            per_call("core.validate_density_matrix", "us", 1e6),
        f"{trans}.calls": calls(trans),
        f"{trans}.ms_per_call": per_call(trans, "ms", 1e3),
        f"{trans}.self_s": (span(trans).self_s / passes, "s"),
        "propagation.steady_solves_per_transmission":
            (ratio(tracer.edges[trans, ssm], span(trans).calls), "count"),
        f"{bare}.calls": calls(bare),
        f"{bare}.ms_per_call": per_call(bare, "ms", 1e3),
        f"{sbt}.bins": (bins / passes, "count"),
        f"{sbt}.s_per_bin": (ratio(span(sbt).total_s, bins), "s"),
        f"{sbt}.self_s": (span(sbt).self_s / passes, "s"),
        "spectroscopy.carrier_solves_per_bin":
            (ratio(tracer.edges[sbt, ssm], bins), "count"),
        "spectroscopy.refractive_spectrum.ms_per_call":
            per_call("spectroscopy.refractive_spectrum", "ms", 1e3),
        "spectroscopy.apply_transfer.self_ms":
            (span("spectroscopy.apply_transfer").self_s * 1e3 / passes, "ms"),
        f"{expm}.calls": calls(expm),
        f"{expm}.us_per_call": per_call(expm, "us", 1e6),
        f"{expm}.distinct_ratio": (ratio(distinct, span(expm).calls), "ratio"),
        f"{chi}.calls": calls(chi),
        f"{chi}.s_per_call": per_call(chi, "s", 1.0),
        "cli.main.calls": calls("cli.main"),
        "cli.main.self_ms_per_call": per_call("cli.main", "ms", 1e3, "self_s"),
        "process.cpu_s": (statistics.median(untraced.cpu_s), "s"),
        "trace.overhead_ratio": (statistics.median(traced.pass_s)
                                 / statistics.median(untraced.pass_s), "ratio"),
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
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
    return "unknown (not a git checkout)"


def environment() -> dict:
    import numpy
    import scipy

    def blas(module):
        info = module.__config__.CONFIG["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    return {
        "git_commit": git_commit(ROOT),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas_thread_env": {k: os.environ.get(k) for k in PINNED_ENV},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True,
                        help="empty directory for CLI artifacts")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    lib = import_package()
    for name in lib.presets.preset_names():
        lib.presets.preset_values(name)
    fail_types = (lib.core.SimulationError, ValueError)
    workload = WORKLOADS[args.workload](lib, args.seed, args.workdir)
    workload.warmup()
    print(READY, flush=True)
    # The machine's speed just after set-up scales the set-up time.
    speed = {"setup_scale": reference.NOMINAL_S / statistics.median(
                 [reference.sample() for _ in range(SETUP_REFERENCE_SAMPLES)]),
             "reference_nominal_s": reference.NOMINAL_S}
    if args.setup_only:
        print(json.dumps(speed), flush=True)
        return 0

    deadline = time.perf_counter() + args.seconds
    untraced = Samples()
    report = {"environment": environment(), **speed}
    if args.trace:
        # Untraced and traced passes alternate, so that drifts in machine
        # speed bias trace.overhead_ratio as little as possible.
        traced = Samples()
        tracer = Tracer()
        targets = trace_targets(lib)

        def pair():
            untraced.add_pass(workload, fail_types)
            tracer.install("lambdaloop", targets)
            try:
                traced.add_pass(workload, fail_types, probe=False)
            finally:
                tracer.uninstall()

        repeat_until(deadline, pair)
        layers = layer_metrics(tracer, len(traced.pass_s), workload,
                               untraced, traced)
        report["layers"] = layers
        report["count_mismatches"] = [
            f"{name}: measured {layers[name]['value']!r}, expected {value!r}"
            for name, value in workload.expected_counts().items()
            if layers[name]["value"] != value
        ]
        samples = (untraced, traced)
    else:
        repeat_until(deadline, lambda: untraced.add_pass(workload, fail_types))
        samples = (untraced,)

    report.update(
        pass_s=untraced.pass_s,
        raw_pass_s=untraced.raw_pass_s,
        op_ms=untraced.op_ms,
        reference_s=untraced.reference_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        attempted=sum(s.attempted for s in samples),
        failures=[f for s in samples for f in s.failures],
    )
    report["failed"] = len(report["failures"])
    report["failures"] = report["failures"][:MAX_REPORTED_FAILURES]
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
