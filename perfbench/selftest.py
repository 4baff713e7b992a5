"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Runs one pass of each workload, requires its outputs to pass the check,
then perturbs one output value at a time and requires the check to fail
on the perturbed op.  It also requires the metric names in
BENCHMARK.json to be the ones the benchmark reports.  Exits 1 on any
miss.
"""
from __future__ import annotations

import copy
import json
import os
import shutil
import sys
import tempfile

from run import PINNED_ENV

os.environ.update(PINNED_ENV)   # before numpy loads BLAS

from tracing import Tracer  # noqa: E402
from worker import Samples, layer_metrics, run_pass  # noqa: E402
from workloads import ROOT, WORKLOADS, import_package  # noqa: E402


def bump(*path, factor=1.0, delta=0.0):
    """Change the output value at path in place: v -> v * factor + delta."""
    def apply(out):
        for key in path[:-1]:
            out = out[key]
        out[path[-1]] = out[path[-1]] * factor + delta
    return apply


# workload -> (op label or None for the first op, description, change)
PERTURBATIONS = {
    "sweep": [
        ("phase", "one phase-sweep T + 1e-7",
         bump("image", (5, 1), delta=1e-7)),
        ("bfield", "one field-sweep T * (1 + 1e-6)",
         bump("direct", (0, 1), factor=1 + 1e-6)),
    ],
    "pulse": [
        (None, "one pulse envelope sample * (1 + 1e-9)",
         bump("pulse", "envelope", 512, factor=1 + 1e-9)),
        (None, "pulse fractional delay * (1 + 1e-9)",
         bump("pulse", "fractional_delay", factor=1 + 1e-9)),
        (None, "one spectrum chi sample * (1 + 1e-9)",
         bump("spectrum-b", "chi", 20, factor=1 + 1e-9)),
    ],
    "point": [
        (None, "steady rho[0, 1] + 1e-11 (Hermiticity)",
         bump("steady", (0, 1), delta=1e-11)),
        (None, "steady rho[2, 2] + 1e-9 (trace)",
         bump("steady", (2, 2), delta=1e-9)),
        (None, "steady rho[2, 2] + 1e-11, rho[3, 3] - 1e-11 (reference)",
         lambda out: (bump("steady", (2, 2), delta=1e-11)(out),
                      bump("steady", (3, 3), delta=-1e-11)(out))),
        (None, "transmission * (1 + 1e-10)",
         bump("transmit", factor=1 + 1e-10)),
    ],
    "oracle": [
        (None, "lock-in chi * 1.03", bump("chi", factor=1.03)),
        (None, "bare transmission * (1 + 2e-4)",
         bump("bare", factor=1 + 2e-4)),
    ],
}


def check_metric_names(lib, workloads) -> list[str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    samples = Samples()
    samples.pass_s, samples.cpu_s = [1.0], [1.0]
    emitted = {
        name: metric["unit"] for name, metric in layer_metrics(
            Tracer(), 1, workloads["oracle"], samples, samples).items()}
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    problems = []
    if emitted != declared:
        problems.append(f"per_layer names/units differ: "
                        f"{sorted(set(emitted.items()) ^ set(declared.items()))}")
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    expected = {"setup_s", "wall_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb"}
    if end_to_end != expected:
        problems.append(f"end_to_end names differ: {sorted(end_to_end ^ expected)}")
    if {w["name"] for w in bench["workloads"]} != set(WORKLOADS):
        problems.append("workload names differ")
    return problems


def main() -> int:
    lib = import_package()
    fail_types = (lib.core.SimulationError, ValueError)
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    misses = []
    try:
        workloads = {}
        for name, cls in WORKLOADS.items():
            workload = workloads[name] = cls(lib, 1, ROOT / workdir)
            *_, outputs, failures = run_pass(workload, fail_types)
            bad = [f for f in failures if f is not None]
            if bad:
                misses.append(f"{name}: unperturbed outputs fail: {bad[:3]}")
                continue
            labels = [op.label for op in workload.ops]
            for label, what, change in PERTURBATIONS[name]:
                k = labels.index(label) if label is not None else 0
                perturbed = copy.deepcopy(outputs)
                change(perturbed[k])
                verdict = workload.check(perturbed)[k]
                status = "caught" if verdict else "MISSED"
                print(f"{name}: {what}: {status}"
                      + (f" ({verdict})" if verdict else ""))
                if not verdict:
                    misses.append(f"{name}: {what} not caught")
        misses += check_metric_names(lib, workloads)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for miss in misses:
        print(f"FAIL {miss}")
    print("selftest", "failed" if misses else "passed")
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
