"""The counts the benchmark asserts, under its own tracer.

perfbench/ traces lambdaloop from outside by wrapping named module
attributes and counts each traced child under its traced parent.  A
refactor that renames a traced function, or moves a steady-state solve
or a matrix exponential out from under its traced caller, changes these
counts; these tests fail on that at once instead of in a benchmark run.
"""
import math
from pathlib import Path

import numpy as np
import pytest

import lambdaloop
import lambdaloop.cli  # the tracer wraps cli.main too
import lambdaloop.propagation
import lambdaloop.spectroscopy
from lambdaloop.core import TWO_PI

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

SSM = "liouvillian.steady_state_matrix"
VALIDATE = "core.validate_density_matrix"
TEMPLATE = "liouvillian.circular_template"
TRANSMISSION = "propagation.transmission"
TRANSFER = "spectroscopy.sideband_transfer"
EXPM = "spectroscopy.expm"
LOCK_IN = "spectroscopy.chi_probe_timedomain"
BARE = "propagation.bare_transition_transmission"


@pytest.fixture()
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import worker

    tracer = tracing.Tracer()
    tracer.install("lambdaloop", worker.trace_targets(lambdaloop))
    yield tracer
    tracer.uninstall()


# Each call goes through the module attributes, which the tracer wraps.

def test_carrier_solves_per_march_and_per_bin(tracer, cold_atom, cold_drive):
    lambdaloop.propagation.transmission(cold_atom, cold_drive, 16)
    lambdaloop.spectroscopy.sideband_transfer(
        cold_atom, cold_drive, [5.0, 7.5], 16
    )
    # One carrier solve per RK4 stage: 4 stages x 16 steps.
    assert tracer.stats[TRANSMISSION].calls == 1
    assert tracer.edges[TRANSMISSION, SSM] == 64
    assert tracer.stats[TRANSFER].units == 2
    assert tracer.edges[TRANSFER, SSM] == 64 * 2


@pytest.mark.parametrize("solve", [
    lambda atom, drive: lambdaloop.propagation.transmission(atom, drive, 16),
    lambda atom, drive: lambdaloop.spectroscopy.sideband_transfer(
        atom, drive, [5.0], 16),
], ids=["transmission", "sideband_transfer"])
def test_one_validation_per_steady_solve(tracer, cold_atom, cold_drive, solve):
    # Every steady state is validated once, inside the solve that made it.
    solve(cold_atom, cold_drive)
    solves = tracer.stats[SSM].calls
    assert solves == 4 * 16
    assert tracer.edges[SSM, VALIDATE] == solves
    assert tracer.stats[VALIDATE].calls == solves


def test_readme_pulse_counts(tracer, tmp_path, monkeypatch):
    # The README pulse at 16 steps, which perfbench's pulse workload runs
    # as its warm-up: its bins and carrier solves per bin, as perfbench
    # derives them for that command.
    import workloads

    monkeypatch.chdir(tmp_path)
    argv = ["pulse", "--preset", "fig4-warm", "--fwhm-s", "0.005",
            "--peak-omega-p-hz", "60e3"]
    assert argv == workloads.PULSE_ARGV
    assert lambdaloop.cli.main(argv + ["--steps", "16"]) == 0
    assert tracer.stats[TRANSFER].calls == 1
    assert tracer.stats[TRANSFER].units == workloads.PULSE_BINS == 37
    assert tracer.edges[TRANSFER, SSM] == 37 * 4 * 16


def lock_in_expm_calls(atom, delta_hz, periods, n):
    """Each Richardson leg settles for ceil(settle / dt) steps and then
    takes periods * n lock-in steps, one expm each, at n and 2n."""
    settle = 10.0 / min(atom.gamma_pop, atom.gamma_coh)
    expected = 0
    for steps in (n, 2 * n):
        dt = TWO_PI / abs(TWO_PI * delta_hz) / steps
        expected += math.ceil(settle / dt) + periods * steps
    return expected


def test_lock_in_expm_calls(tracer, warm_atom, warm_drive):
    lambdaloop.spectroscopy.chi_probe_timedomain(
        warm_atom, warm_drive, -15.0, periods=1, steps_per_period=16
    )
    expected = lock_in_expm_calls(warm_atom, -15.0, 1, 16)
    assert tracer.stats[LOCK_IN].calls == 1
    assert tracer.stats[EXPM].calls == expected
    assert tracer.edges[LOCK_IN, EXPM] == expected


def test_lock_in_expm_arguments_are_real(monkeypatch, warm_atom, warm_drive):
    # The oracle steps in real Hermitian coordinates: every exponential
    # is of a real 16x16 generator, one per step as before.
    seen = []
    expm = lambdaloop.spectroscopy.expm

    def recording(a):
        seen.append((a.dtype, a.shape))
        return expm(a)

    monkeypatch.setattr(lambdaloop.spectroscopy, "expm", recording)
    lambdaloop.spectroscopy.chi_probe_timedomain(
        warm_atom, warm_drive, 20.0, periods=1, steps_per_period=16
    )
    assert len(seen) == lock_in_expm_calls(warm_atom, 20.0, 1, 16)
    assert set(seen) == {(np.dtype(np.float64), (16, 16))}


def test_bare_transition_makes_no_expm_call(tracer, warm_atom):
    # The Beer-Lambert oracle shares only the superoperator formulas: it
    # builds no four-level template, and makes its own 2-level solves
    # with no call to the kernel, its validation or expm.
    lambdaloop.propagation.bare_transition_transmission(warm_atom, n_steps=16)
    assert tracer.stats[BARE].calls == 1
    for name in (EXPM, SSM, VALIDATE, TEMPLATE):
        assert tracer.stats[name].calls == 0, name
