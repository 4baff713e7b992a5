"""The four benchmark workloads: seeded op lists, warm-ups and output checks.

A workload is a fixed list of ops built from the seed.  Each op has
timed steps (one call into lambdaloop each, CLI modes through
`lambdaloop.cli.main(argv)`) and an untimed part that reads their results
back; `check` then judges the results of a whole pass and returns one
failure message, or None, per op.  Every call goes through a module
attribute looked up at call time, so the wrappers of perfbench.tracing
see it.

Counts fixed by the inputs are declared per pass by `expected_counts`
and asserted exactly in a traced run.
"""
from __future__ import annotations

import functools
import json
import math
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFS_DIR = BENCH_DIR / "refs"

TWO_PI = 2.0 * math.pi

# Output tolerances: the package's own guarantees and acceptance limits.
TRACE_TOL = 1e-10
HERMITICITY_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-9
MIRROR_TOL = 1e-8           # criteria 3 and 5
REFERENCE_RTOL = 1e-12      # refactors must match recorded outputs
ORACLE_CHI_RTOL = 2e-2      # criterion 8
BEER_LAMBERT_RTOL = 1e-4    # criterion 9


def import_package():
    """Import lambdaloop from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "lambdaloop" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no lambdaloop sources under {src}")
    sys.path.insert(0, str(src))
    import lambdaloop
    import lambdaloop.cli
    import lambdaloop.core
    import lambdaloop.liouvillian
    import lambdaloop.presets
    import lambdaloop.propagation
    import lambdaloop.spectroscopy
    if Path(lambdaloop.__file__).resolve().parent != src / "lambdaloop":
        raise SystemExit(f"perfbench: lambdaloop imported from "
                         f"{lambdaloop.__file__}, not from {src}")
    return lambdaloop


class OpFailed(Exception):
    """An op's run or read-back failed; the op counts as failed."""


@dataclass
class Op:
    label: str
    steps: tuple[Callable[[], object], ...]   # timed, one call each
    collect: Callable[[tuple], object]        # untimed read-back of results

    def run(self) -> tuple:
        return tuple(step() for step in self.steps)


def load_reference(name: str) -> dict:
    return json.loads((REFS_DIR / f"{name}.json").read_text(encoding="utf-8"))


def _num(value: float) -> str:
    return repr(float(value))


def _rows(path: Path) -> list[list[str]]:
    """The fields of each line of a CSV artifact, header skipped."""
    lines = path.read_text(encoding="utf-8").splitlines()
    return [line.split(",") for line in lines[1:]]


def _columns(path: Path) -> np.ndarray:
    rows = _rows(path)
    return np.array([[float(v) for v in row] for row in rows])


def relative_error(out, ref) -> float:
    """max |out - ref| over max |ref|, for scalars or arrays."""
    out = np.asarray(out)
    ref = np.asarray(ref)
    if out.shape != ref.shape:
        return math.inf
    scale = float(np.max(np.abs(ref)))
    err = float(np.max(np.abs(out - ref)))
    return err / scale if scale > 0.0 else err


def jsonable(value):
    """An op output as JSON: dicts kept, complex arrays split into re/im."""
    if isinstance(value, dict):
        return {key: jsonable(v) for key, v in value.items()}
    arr = np.asarray(value)
    if np.iscomplexobj(arr):
        return {"re": arr.real.tolist(), "im": arr.imag.tolist()}
    return arr.tolist()


def reference_errors(out, ref, name="") -> dict[str, float]:
    """Relative error of every array in an op output against jsonable(ref)."""
    if isinstance(out, dict):
        errors = {}
        for key, value in out.items():
            if key not in ref:
                errors[f"{name} {key}".strip()] = math.inf
            else:
                errors.update(reference_errors(value, ref[key],
                                               f"{name} {key}".strip()))
        return errors
    if isinstance(ref, dict):
        ref = np.asarray(ref["re"]) + 1j * np.asarray(ref["im"])
    return {name: relative_error(out, ref)}


def reference_problem(out, ref) -> str | None:
    bad = {k: v for k, v in reference_errors(out, ref).items()
           if not v <= REFERENCE_RTOL}
    if not bad:
        return None
    return "differs from reference: " + ", ".join(
        f"{k} {v:.3e}" for k, v in bad.items())


def _labelled(label: str, problem: str | None) -> str | None:
    return f"{label}: {problem}" if problem else None


def state_problems(rho: np.ndarray) -> str | None:
    """The core validity tolerances, checked independently of the package."""
    if not np.all(np.isfinite(rho)):
        return "state has non-finite entries"
    herm = float(np.max(np.abs(rho - rho.conj().T)))
    if herm > HERMITICITY_TOL:
        return f"Hermiticity error {herm:.3e} > {HERMITICITY_TOL:.0e}"
    trace_err = abs(complex(np.trace(rho)) - 1.0)
    if trace_err > TRACE_TOL:
        return f"trace error {trace_err:.3e} > {TRACE_TOL:.0e}"
    low = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min())
    if low < EIGENVALUE_FLOOR:
        return f"eigenvalue {low:.3e} below {EIGENVALUE_FLOOR:.0e}"
    return None


class Workload:
    """Base class: subclasses build `ops` and implement `check`."""

    name = ""

    def __init__(self, lib, seed: int, workdir: Path):
        self.lib = lib
        self.workdir = workdir
        self.rng = np.random.default_rng(seed)
        self.ops: list[Op] = []

    def warmup(self) -> None:
        """One reduced untimed op through the same code paths."""
        raise NotImplementedError

    def check(self, outputs: list) -> list[str | None]:
        raise NotImplementedError

    def expected_counts(self) -> dict[str, float]:
        """Per-pass values of per-layer count metrics fixed by the inputs."""
        return {}

    def distinct_expm_inputs(self) -> int:
        """Distinct expm arguments a pass, computed from the inputs."""
        return 0

    def cli(self, argv: list[str]) -> None:
        code = self.lib.cli.main(argv + ["--out", str(self.workdir / "warmup")])
        if code != 0:
            raise OpFailed(f"warm-up {argv[0]} exited with {code}")


def cli_request(lib, workdir: Path, label: str, calls) -> Op:
    """An op making one CLI call per (name, argv, reader) in calls, in order.

    Its output maps each name to reader(<out basename>)."""
    outs = [workdir / f"{label}-{name}" for name, _, _ in calls]
    argvs = [argv + ["--out", str(out)] for (_, argv, _), out in zip(calls, outs)]
    steps = tuple((lambda argv=argv: lib.cli.main(argv)) for argv in argvs)

    def collect(codes):
        if any(codes):
            raise OpFailed(f"{label}: lambdaloop exited with {codes}")
        return {name: reader(out) for (name, _, reader), out in zip(calls, outs)}

    return Op(label, steps, collect)


def _read_curve(out: Path) -> np.ndarray:
    return _columns(out.with_suffix(".csv"))


# --------------------------------------------------------------------------
# sweep: mirrored pairs of CLI sweeps at the CLI default of 256 steps.

SWEEP_POINTS = 8
SWEEP_B_HALF_RANGE_HZ = 100.0


def _mirror_problem(curve, image, mirror) -> str | None:
    """T(dB, phi) = T(-dB, phi + pi) between a sweep and its image sweep."""
    shape = (SWEEP_POINTS, 2)
    if curve.shape != shape or image.shape != shape:
        return f"expected {SWEEP_POINTS} rows of (x, T)"
    if not (np.all(np.isfinite(curve)) and np.all(np.isfinite(image))
            and np.all(curve[:, 1] > 0) and np.all(image[:, 1] > 0)):
        return "transmission not finite and positive"
    worst = float(np.max(np.abs(curve[:, 1] - mirror(image[:, 1]))))
    if not worst < MIRROR_TOL:
        return f"mirror mismatch {worst:.3e} >= {MIRROR_TOL:.0e}"
    return None


class Sweep(Workload):
    """Two ops a pass, each a mirrored pair of CLI sweeps: sweep-phase on
    fig3-cold at +dB and -dB, and sweep-b on fig4-warm at phi and phi+pi."""

    name = "sweep"

    # Where T(-dB, phi + pi) sits in the image sweep: half a grid away on
    # the phase grid, mirrored about the centre on the symmetric field grid.
    MIRRORS = (lambda t: np.roll(t, -(SWEEP_POINTS // 2)), lambda t: t[::-1])

    def __init__(self, lib, seed, workdir):
        super().__init__(lib, seed, workdir)
        delta_b_hz = float(self.rng.uniform(20.0, 100.0))
        phi = float(self.rng.uniform(0.0, TWO_PI))
        points = ["--points", str(SWEEP_POINTS)]
        phase = ["sweep-phase", "--preset", "fig3-cold", "--sweep-start", "0",
                 "--sweep-stop", _num(TWO_PI)] + points
        bfield = ["sweep-b", "--preset", "fig4-warm",
                  "--sweep-start", _num(-SWEEP_B_HALF_RANGE_HZ),
                  "--sweep-stop", _num(SWEEP_B_HALF_RANGE_HZ)] + points
        self.ops = [
            cli_request(lib, workdir, "phase", [
                ("direct", phase + ["--delta-b-hz", _num(delta_b_hz)], _read_curve),
                ("image", phase + ["--delta-b-hz", _num(-delta_b_hz)], _read_curve),
            ]),
            cli_request(lib, workdir, "bfield", [
                ("direct", bfield + ["--phi-rad", _num(phi)], _read_curve),
                ("image", bfield + ["--phi-rad", _num(phi + math.pi)], _read_curve),
            ]),
        ]

    def warmup(self):
        self.cli(["sweep-phase", "--preset", "fig3-cold", "--sweep-start", "0",
                  "--sweep-stop", _num(TWO_PI), "--points", "2", "--steps", "16"])

    def check(self, outputs):
        return [None if out is None else _labelled(
                    op.label, _mirror_problem(out["direct"], out["image"], mirror))
                for op, out, mirror in zip(self.ops, outputs, self.MIRRORS)]

    def expected_counts(self):
        return {
            "propagation.transmission.calls": 4 * SWEEP_POINTS,
            "propagation.steady_solves_per_transmission": 4 * 256,
            "cli.main.calls": 4,
        }


# --------------------------------------------------------------------------
# pulse: the README pulse command plus criterion 6's three spectra.

PULSE_ARGV = ["pulse", "--preset", "fig4-warm", "--fwhm-s", "0.005",
              "--peak-omega-p-hz", "60e3"]
PULSE_BINS = 37
SPECTRUM_CONFIGS = (            # (delta_b in Hz, phi in rad), criterion 6
    ("spectrum-a", -91.0, 1.75 * math.pi),
    ("spectrum-b", -91.0, 0.0),
    ("spectrum-c", 0.0, 0.0),
)


def _read_pulse(out: Path) -> dict:
    table = _columns(out.with_suffix(".csv"))
    sidecar = json.loads(out.with_suffix(".json").read_text(encoding="utf-8"))
    return {"envelope": table[:, 2] + 1j * table[:, 3],
            "fractional_delay": sidecar["diagnostics"]["fractional_delay"]}


def _read_spectrum(out: Path) -> dict:
    table = _columns(out.with_suffix(".csv"))
    return {"delta_hz": table[:, 0], "chi": table[:, 1] + 1j * table[:, 2]}


def _spectrum_argv(delta_b_hz: float, phi: float, points: int = 41) -> list[str]:
    return ["spectrum", "--preset", "fig4-warm",
            "--delta-b-hz", _num(delta_b_hz), "--phi-rad", _num(phi),
            "--sweep-start", "-30", "--sweep-stop", "30",
            "--points", str(points)]


class Pulse(Workload):
    """One op a pass: the README pulse and the criterion 6 spectra that
    classify its slope (criterion 10), in an order the seed picks."""

    name = "pulse"

    def __init__(self, lib, seed, workdir):
        super().__init__(lib, seed, workdir)
        calls = [("pulse", PULSE_ARGV, _read_pulse)]
        calls += [(label, _spectrum_argv(db, phi), _read_spectrum)
                  for label, db, phi in SPECTRUM_CONFIGS]
        order = self.rng.permutation(len(calls))
        self.ops = [cli_request(lib, workdir, "pulse",
                                [calls[i] for i in order])]

    def warmup(self):
        self.cli(PULSE_ARGV + ["--steps", "16"])
        self.cli(_spectrum_argv(-91.0, 0.0, points=2))

    @functools.cached_property
    def reference(self) -> dict:
        return load_reference("pulse")

    def check(self, outputs):
        return [None if out is None else
                _labelled("pulse", reference_problem(out, self.reference))
                for out in outputs]

    def expected_counts(self):
        return {
            "spectroscopy.sideband_transfer.bins": PULSE_BINS,
            "spectroscopy.carrier_solves_per_bin": 4 * 256,
            "cli.main.calls": 1 + len(SPECTRUM_CONFIGS),
        }


# --------------------------------------------------------------------------
# point: single drives drawn from a recorded pool, alternating presets.

POOL_SEED = 1304
POOL_SIZE = 64                   # drives per preset
POINT_OPS_PER_PRESET = 50
POINT_STEPS = 64
PRESETS = ("fig3-cold", "fig4-warm")


def drive_pool(lib) -> dict[str, list[dict]]:
    """Fixed pool of drives per preset, like criterion 7's random drives."""
    rng = np.random.default_rng(POOL_SEED)
    pool = {}
    for preset in PRESETS:
        base = lib.presets.preset_values(preset)
        pool[preset] = [
            {"delta_b_hz": float(rng.uniform(-100.0, 100.0)),
             "phi_rad": float(rng.uniform(0.0, TWO_PI)),
             "omega_c_hz": base["omega_c_hz"] * float(rng.uniform(0.5, 1.5)),
             "omega_p_hz": base["omega_p_hz"] * float(rng.uniform(0.5, 1.5))}
            for _ in range(POOL_SIZE)
        ]
    return pool


def _drive_argv(preset: str, drive: dict) -> list[str]:
    argv = ["--preset", preset]
    for key, value in drive.items():
        argv += ["--" + key.replace("_", "-"), _num(value)]
    return argv


def _read_steady(out: Path) -> np.ndarray:
    rows = _rows(out.with_suffix(".csv"))
    index = {"1": 0, "2": 1, "3": 2, "4": 3}
    rho = np.full((4, 4), np.nan, dtype=complex)
    for bra, ket, re, im in rows:
        rho[index[bra], index[ket]] = complex(float(re), float(im))
    return rho


def _read_transmission(out: Path) -> float:
    return float(_columns(out.with_suffix(".csv"))[0, 0])


def point_op(lib, workdir: Path, preset: str, index: int, drive: dict) -> Op:
    drive_argv = _drive_argv(preset, drive)
    return cli_request(lib, workdir, f"{preset}-{index}", [
        ("steady", ["steady"] + drive_argv, _read_steady),
        ("transmit", ["transmit"] + drive_argv + ["--steps", str(POINT_STEPS)],
         _read_transmission),
    ])


class Point(Workload):
    """Each op: CLI steady, then CLI transmit --steps 64, on one drive."""

    name = "point"

    def __init__(self, lib, seed, workdir):
        super().__init__(lib, seed, workdir)
        pool = drive_pool(lib)
        picks = {p: self.rng.choice(POOL_SIZE, POINT_OPS_PER_PRESET,
                                    replace=False) for p in PRESETS}
        self.picks = []
        for k in range(POINT_OPS_PER_PRESET):
            for preset in PRESETS:
                self.picks.append((preset, int(picks[preset][k])))
        self.ops = [point_op(lib, workdir, preset, i, pool[preset][i])
                    for preset, i in self.picks]

    def warmup(self):
        for preset in PRESETS:
            self.cli(["steady", "--preset", preset])
            self.cli(["transmit", "--preset", preset, "--steps", "16"])

    @functools.cached_property
    def reference(self) -> dict:
        return load_reference("point")

    def check(self, outputs):
        return [None if out is None else _labelled(
                    op.label, state_problems(out["steady"]) or reference_problem(
                        out, self.reference[preset][index]))
                for (preset, index), op, out in zip(self.picks, self.ops, outputs)]

    def expected_counts(self):
        return {
            "propagation.transmission.calls": len(self.ops),
            "propagation.steady_solves_per_transmission": 4 * POINT_STEPS,
            "cli.main.calls": 2 * len(self.ops),
        }


def record_point_reference(lib, workdir: Path) -> dict:
    """Steady state and transmission of every pool drive, through the CLI."""
    ops = {preset: [point_op(lib, workdir, preset, i, drive)
                    for i, drive in enumerate(drives)]
           for preset, drives in drive_pool(lib).items()}
    return {preset: [jsonable(op.collect(op.run())) for op in preset_ops]
            for preset, preset_ops in ops.items()}


# --------------------------------------------------------------------------
# oracle: the time-domain lock-in and the Beer-Lambert brute force.

ORACLE_DETUNINGS_HZ = (-15.0, 20.0)      # two of criterion 8's detunings
CHI_STEPS_PER_PERIOD = 512
CHI_PERIODS = 2


def chi_expm_calls(params, delta_hz: float) -> int:
    """expm calls one chi_probe_timedomain makes at its default resolution:
    settle plus lock-in steps at n and 2n steps per period (the Richardson
    pair), with the step arithmetic of the lock-in oracle."""
    settle_time = 10.0 / min(params.gamma_pop, params.gamma_coh)
    total = 0
    for n in (CHI_STEPS_PER_PERIOD, 2 * CHI_STEPS_PER_PERIOD):
        dt = (TWO_PI / abs(TWO_PI * delta_hz)) / n
        total += int(math.ceil(settle_time / dt)) + CHI_PERIODS * n
    return total


class Oracle(Workload):
    """Each op: chi_probe_timedomain at one detuning, then the bare-transition
    transmission of one preset.  The seed picks the warm drive."""

    name = "oracle"

    def __init__(self, lib, seed, workdir):
        super().__init__(lib, seed, workdir)
        presets = lib.presets
        self.atoms = {p: presets.preset_atom(p) for p in PRESETS}
        warm = self.atoms["fig4-warm"]
        base = presets.preset_drive("fig4-warm")
        self.drive = lib.core.DriveConfig(
            delta_b=TWO_PI * float(self.rng.uniform(-100.0, 100.0)),
            phi=float(self.rng.uniform(0.0, TWO_PI)),
            omega_c=base.omega_c, omega_p=base.omega_p)
        self.ops = [self._op(d_hz, preset)
                    for d_hz, preset in zip(ORACLE_DETUNINGS_HZ, PRESETS)]
        # Harmonic-balance values the lock-in must reproduce (criterion 8).
        self.harmonic_balance = {}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", lib.spectroscopy.WeakProbeWarning)
            for d_hz in ORACLE_DETUNINGS_HZ:
                probe = lib.core.DriveConfig(
                    self.drive.delta_b, self.drive.phi, self.drive.omega_c,
                    self.drive.omega_p, delta_probe=TWO_PI * d_hz)
                self.harmonic_balance[d_hz] = (
                    lib.spectroscopy.weak_probe_response(warm, probe))

    def _op(self, delta_hz: float, preset: str) -> Op:
        spectroscopy = self.lib.spectroscopy
        propagation = self.lib.propagation
        warm = self.atoms["fig4-warm"]
        atom = self.atoms[preset]

        steps = (
            lambda: spectroscopy.chi_probe_timedomain(warm, self.drive, delta_hz),
            lambda: propagation.bare_transition_transmission(atom),
        )
        return Op(f"chi{delta_hz:+g}/bare-{preset}", steps,
                  lambda out: {"delta_hz": delta_hz, "preset": preset,
                               "chi": out[0], "bare": out[1]})

    def warmup(self):
        warm = self.atoms["fig4-warm"]
        self.lib.spectroscopy.chi_probe_timedomain(
            warm, self.drive, ORACLE_DETUNINGS_HZ[0], periods=1,
            steps_per_period=16)
        self.lib.propagation.bare_transition_transmission(warm, n_steps=16)

    def check(self, outputs):
        result: list[str | None] = []
        for op, out in zip(self.ops, outputs):
            if out is None:
                result.append(None)
                continue
            hb = self.harmonic_balance[out["delta_hz"]]
            chi_err = abs(out["chi"] - hb) / abs(hb)
            expected = math.exp(-self.atoms[out["preset"]].optical_depth)
            bare_err = abs(out["bare"] - expected) / expected
            problems = []
            if not chi_err < ORACLE_CHI_RTOL:
                problems.append(f"lock-in chi off harmonic balance by "
                                f"{chi_err:.3e} (limit {ORACLE_CHI_RTOL:.0e})")
            if not bare_err < BEER_LAMBERT_RTOL:
                problems.append(f"bare transmission off exp(-OD) by "
                                f"{bare_err:.3e} (limit {BEER_LAMBERT_RTOL:.0e})")
            result.append(_labelled(op.label, "; ".join(problems)))
        return result

    def expected_counts(self):
        warm = self.atoms["fig4-warm"]
        calls = [chi_expm_calls(warm, d) for d in ORACLE_DETUNINGS_HZ]
        return {
            "spectroscopy.chi_probe_timedomain.calls": len(calls),
            "spectroscopy.expm.calls": sum(calls),
            "propagation.bare_transition_transmission.calls": len(self.ops),
        }

    def distinct_expm_inputs(self) -> int:
        """Distinct midpoint phases per pass, computed from the inputs: the
        phase delta*t_mid repeats every period, so each Richardson leg has
        as many distinct phases as steps per period."""
        return len(ORACLE_DETUNINGS_HZ) * 3 * CHI_STEPS_PER_PERIOD


WORKLOADS = {cls.name: cls for cls in (Sweep, Pulse, Point, Oracle)}
