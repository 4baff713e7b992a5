"""The solve counts the benchmark asserts, under its own tracer.

perfbench/ traces lambdaloop from outside by wrapping named module
attributes and counts each traced child under its traced parent.  A
refactor that renames a traced function, or moves a steady-state solve
out from under its traced caller, changes these counts; this test fails
on that at once instead of in a benchmark run.
"""
from pathlib import Path

import lambdaloop
import lambdaloop.propagation
import lambdaloop.spectroscopy

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

SSM = "liouvillian.steady_state_matrix"
TRANSMISSION = "propagation.transmission"
TRANSFER = "spectroscopy.sideband_transfer"


def test_carrier_solves_per_march_and_per_bin(monkeypatch, cold_atom,
                                              cold_drive):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import worker

    tracer = tracing.Tracer()
    tracer.install("lambdaloop", worker.trace_targets(lambdaloop))
    try:
        # Called through the module attributes, which the tracer wraps.
        lambdaloop.propagation.transmission(cold_atom, cold_drive, 16)
        lambdaloop.spectroscopy.sideband_transfer(
            cold_atom, cold_drive, [5.0, 7.5], 16
        )
    finally:
        tracer.uninstall()
    # One carrier solve per RK4 stage: 4 stages x 16 steps.
    assert tracer.stats[TRANSMISSION].calls == 1
    assert tracer.edges[TRANSMISSION, SSM] == 64
    assert tracer.stats[TRANSFER].units == 2
    assert tracer.edges[TRANSFER, SSM] == 64 * 2
