"""Command-line front end: config loading, unit conversion, subcommand dispatch.

All internal frequencies are in units of the atom-cavity coupling g.  Config
values may be plain numbers (already in g units) or physical quantities like
"2pi*3.5 MHz" / "1.52e5 Hz"; physical inputs require g itself to be given
physically so the ratios are well defined.  Flags override file values key
by key; unknown config keys are rejected.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import re
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__, dynamics, experiments, hilbert, model, observables, pulses, zeno
from .errors import CavityGhzError, ValidationError

OUTDIR_ENV = "CAVITYGHZ_OUTDIR"
# Exit status of a scenario, sweep or simulate run that finished with cells
# over a solver tolerance; their values are written as nan and listed in
# cell_errors.
EXIT_FLAGGED_CELLS = 3

FREQUENCY_KEYS = ("g", "v", "omega0", "delta", "gamma", "kappa_c", "kappa_f")
TIME_KEYS = ("tf", "t0", "tc")
RUN_KEYS = (
    "alpha", "n", "branching", "schedule", "open_system", "steps",
    "record_every", "observables", "out_dir", "grid", "preset",
)
KNOWN_KEYS = set(FREQUENCY_KEYS) | set(TIME_KEYS) | set(RUN_KEYS)

PRESETS = {
    "experimental": {
        "g": "2pi*750 MHz",
        "gamma": "2pi*2.62 MHz",
        "kappa_c": "2pi*3.5 MHz",
        "kappa_f": "1.52e5 Hz",
    }
}

_UNIT_SCALE = {"Hz": 1.0, "kHz": 1e3, "MHz": 1e6, "GHz": 1e9}
_QTY_RE = re.compile(
    r"^\s*(?P<twopi>2\s*\*?\s*pi\s*\*)?\s*(?P<num>[-+0-9.eE]+)\s*(?P<unit>Hz|kHz|MHz|GHz)?\s*$"
)


def parse_quantity(text) -> tuple[float, bool]:
    """Parse "0.2", "2pi*3.5 MHz" or "1.52e5 Hz" -> (value, is_physical).

    Physical values are returned in rad/s (a bare-Hz rate is used as is; the
    2pi prefix multiplies), dimensionless ones as plain floats.
    """
    if isinstance(text, (int, float)):
        return float(text), False
    m = _QTY_RE.match(str(text))
    if not m:
        raise ValidationError(f"cannot parse quantity {text!r}")
    try:
        value = float(m.group("num"))
    except ValueError:
        raise ValidationError(f"cannot parse number in {text!r}") from None
    if m.group("twopi"):
        value *= 2.0 * math.pi
    unit = m.group("unit")
    if unit is None:
        if m.group("twopi"):
            return value, False
        return value, False
    return value * _UNIT_SCALE[unit], True


@dataclass
class RunConfig:
    """Validated run settings: physical parameters plus solver/output knobs."""

    params: model.SystemParams = field(default_factory=model.SystemParams)
    schedule: str = pulses.TQD
    open_system: bool = False
    steps: int | None = None  # None: step doubling in sweeps, DEFAULT_STEPS elsewhere
    record_every: int = 100
    observables: tuple[str, ...] = ("fidelity",)
    out_dir: str = "."
    grid: int | None = None

    def to_dict(self) -> dict:
        p = self.params
        return {
            "g": p.g, "v": p.v, "omega0": p.omega0, "delta": p.delta,
            "gamma": p.gamma, "kappa_c": p.kappa_c, "kappa_f": p.kappa_f,
            "tf": p.t_f, "t0": p.t0, "tc": p.tc, "alpha": p.alpha,
            "n": p.n_atoms,
            "branching": {k.value: v for k, v in p.branching.items()},
            "schedule": self.schedule, "open_system": self.open_system,
            "steps": self.steps, "record_every": self.record_every,
            "observables": list(self.observables), "out_dir": self.out_dir,
            "grid": self.grid,
        }


def parse_config(file_data: dict | None = None, flags: dict | None = None) -> RunConfig:
    """Merge config file and flag values (flags win), convert units, validate.

    Every violated invariant is reported, not just the first.
    """
    problems: list[str] = []
    raw: dict = {}
    for source in (file_data or {}, flags or {}):
        for key, value in source.items():
            if value is None:
                continue
            if key not in KNOWN_KEYS:
                problems.append(f"unknown config key {key!r}")
                continue
            raw[key] = value
    if problems:
        raise ValidationError(problems)

    preset = raw.pop("preset", None)
    if preset is not None:
        if preset not in PRESETS:
            raise ValidationError(
                f"unknown preset {preset!r}; available: {sorted(PRESETS)}"
            )
        merged = dict(PRESETS[preset])
        merged.update({k: v for k, v in raw.items() if k in FREQUENCY_KEYS})
        raw.update(merged)

    freq: dict[str, float] = {}
    physical: dict[str, bool] = {}
    for key in FREQUENCY_KEYS:
        if key in raw:
            try:
                freq[key], physical[key] = parse_quantity(raw[key])
            except ValidationError as err:
                problems.append(f"{key}: {err}")
    if any(physical.values()):
        if not physical.get("g"):
            problems.append(
                "physical units were given but g is not physical; supply g "
                "with units (e.g. \"2pi*750 MHz\") so ratios are defined"
            )
        else:
            g_rad = freq["g"]
            for key in list(freq):
                if physical[key]:
                    freq[key] = freq[key] / g_rad if key != "g" else 1.0
    if problems:
        raise ValidationError(problems)

    kwargs = {key: freq[key] for key in FREQUENCY_KEYS if key in freq}
    for key, target in (("tf", "t_f"), ("t0", "t0"), ("tc", "tc"), ("alpha", "alpha")):
        if key in raw:
            kwargs[target] = _number(raw, key, float, problems)
    if "n" in raw:
        kwargs["n_atoms"] = _number(raw, "n", int, problems)
    if "branching" in raw:
        try:
            kwargs["branching"] = {
                hilbert.AtomLevel(k): float(f) for k, f in raw["branching"].items()
            }
        except (AttributeError, TypeError, ValueError):
            problems.append(
                f"branching must map ground levels to fractions, got {raw['branching']!r}"
            )
    params = None
    if not problems:
        try:
            params = model.SystemParams(**kwargs)
        except ValidationError as err:
            problems.extend(err.problems)

    schedule = raw.get("schedule", pulses.TQD)
    if schedule not in pulses.KINDS:
        problems.append(f"schedule must be one of {pulses.KINDS}, got {schedule!r}")
    steps = _number(raw, "steps", int, problems, minimum=dynamics.MIN_STEPS)
    record_every = _number(raw, "record_every", int, problems, minimum=1, default=100)
    grid = _number(raw, "grid", int, problems, minimum=1)
    obs = raw.get("observables", ("fidelity",))
    if isinstance(obs, str):
        obs = tuple(s.strip() for s in obs.split(",") if s.strip())
    unknown_obs = [o for o in obs if o not in experiments.OBSERVABLE_NAMES]
    if unknown_obs:
        problems.append(
            f"unknown observables {unknown_obs}; available: {list(experiments.OBSERVABLE_NAMES)}"
        )
    if problems:
        raise ValidationError(problems)

    out_dir = raw.get("out_dir") or os.environ.get(OUTDIR_ENV, ".")
    return RunConfig(
        params=params,
        schedule=schedule,
        open_system=bool(raw.get("open_system", False)),
        steps=steps,
        record_every=record_every,
        observables=tuple(obs),
        out_dir=out_dir,
        grid=grid,
    )


def _number(raw, key, kind, problems, minimum=None, default=None):
    """raw[key] converted by ``kind`` (int or float); a bad value joins ``problems``."""
    if raw.get(key) is None:
        return default
    try:
        value = kind(raw[key])
    except (TypeError, ValueError):
        noun = "an integer" if kind is int else "a number"
        problems.append(f"{key} must be {noun}, got {raw[key]!r}")
        return None
    if minimum is not None and not value >= minimum:
        problems.append(f"{key} must be at least {minimum}, got {value}")
    return value


def _config_from_args(args) -> RunConfig:
    file_data = None
    if args.config:
        with open(args.config) as fh:
            file_data = json.load(fh)
    flag_keys = (
        "g", "v", "omega0", "delta", "gamma", "kappa_c", "kappa_f",
        "tf", "t0", "tc", "alpha", "n", "schedule", "steps",
        "record_every", "observables", "out_dir", "grid", "preset",
    )
    flags = {k: getattr(args, k, None) for k in flag_keys}
    if getattr(args, "open_system", None):
        flags["open_system"] = True
    return parse_config(file_data, flags)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


# --- subcommands -----------------------------------------------------------

def cmd_basis(args) -> int:
    config = _config_from_args(args)
    space = model.build_space(config.params, open_system=config.open_system)
    print(json.dumps(hilbert.basis_json(space), indent=2))
    return 0


def cmd_hamiltonian(args) -> int:
    config = _config_from_args(args)
    space = model.build_space(config.params, open_system=config.open_system)
    h_c = model.coupling_hamiltonian(space, config.params).mat
    h_d = model.detuning_hamiltonian(space, config.params).mat

    def encode(mat):
        return [[[_float(z.real), _float(z.imag)] for z in row] for row in mat]

    print(json.dumps({"h_c": encode(h_c), "h_d": encode(h_d)}))
    return 0


def _float(x: float) -> float:
    return float(f"{x:.12g}")


def cmd_eigen(args) -> int:
    params = _config_from_args(args).params
    g, v = params.g, params.v
    space = model.build_space(params)
    h_c = model.coupling_hamiltonian(space, params)
    analytic = zeno.analytic_eigensystem(g, v)
    numeric = zeno.numeric_eigensystem(h_c)
    dev = zeno.eigensystem_deviation(analytic, numeric)
    print(f"# closed-form vs dense eigensolver, g={_fmt(g)} v={_fmt(v)}")
    print("subspace,analytic,numeric_nearest")
    for k, lam in enumerate(analytic.zeno_eigenvalues, start=1):
        nearest = numeric.eigenvalues_raw[np.argmin(np.abs(numeric.eigenvalues_raw - lam))]
        print(f"Z{k},{_fmt(lam)},{_fmt(nearest)}")
    print(f"max_eigenvalue_dev,{dev['max_eigenvalue_dev']:.3e}")
    print(f"max_principal_angle,{dev['max_principal_angle']:.3e}")
    return 0


def cmd_pulses(args) -> int:
    config = _config_from_args(args)
    problems = []
    points = _number({"points": args.points}, "points", int, problems, minimum=1)
    if problems:
        raise ValidationError(problems)
    kind = args.kind or config.schedule
    params = config.params
    schedule = pulses.PulseSchedule(kind, params)
    t = np.linspace(0.0, params.t_f, points)
    sample = schedule.sample(t)
    print("t,omega1,omega3,theta,theta_dot,omega_bar")
    bar = sample.omega_bar if sample.omega_bar is not None else np.zeros_like(t)
    for row in zip(t, sample.omega1, sample.omega3, sample.theta, sample.theta_dot, bar):
        print(",".join(_fmt(x) for x in row))
    report = pulses.adiabaticity_report(params)
    print(f"# max |<dark|d/dt bright>| / gap = {report['max_ratio']:.6g} "
          f"at t = {report['argmax_t']:.6g}", file=sys.stderr)
    return 0


def cmd_simulate(args) -> int:
    config = _config_from_args(args)
    if config.steps is None:
        config = dataclasses.replace(config, steps=dynamics.DEFAULT_STEPS)
    params = config.params
    # a batch of one cell on the lockstep integrators of the sweeps, on a
    # fixed step count: the series is tied to its record stride
    values, series, fractions, diagnostics = experiments._run_cells(
        config.schedule, config.open_system, [(params, 1.0)], config.steps,
        config.observables, config.record_every,
    )
    os.makedirs(config.out_dir, exist_ok=True)
    # the name depends on the run alone: where it is written and the sweep
    # grid (unused by a single run) stay out of the hash
    physics = {k: v for k, v in config.to_dict().items() if k not in ("out_dir", "grid")}
    stem = "simulate-" + experiments.provenance_hash(physics)
    csv_path = os.path.join(config.out_dir, stem + ".csv")
    with open(csv_path, "w") as fh:
        fh.write("t," + ",".join(config.observables) + "\n")
        for r, frac in enumerate(fractions):
            vals = ",".join(_fmt(series[name][0, r]) for name in config.observables)
            fh.write(f"{_fmt(frac * params.t_f)},{vals}\n")
    diagnostics = experiments._summarize(diagnostics)
    summary = {
        "csv": csv_path,
        "final": {name: values[name][0] for name in config.observables},
        "diagnostics": diagnostics,
        "config": config.to_dict(),
    }
    print(experiments.json_text(summary, indent=2))
    return _flagged_exit(diagnostics, "summary on stdout", csv=csv_path)


def cmd_scenario(args) -> int:
    config = _config_from_args(args)
    overrides = {}
    if config.grid is not None:
        overrides["grid"] = config.grid
    if config.steps is not None:
        overrides["steps"] = config.steps
    result = experiments.run_scenario(args.name, overrides)
    csv_path, json_path = experiments.write_result(result, config.out_dir)
    summary = {
        "scenario": result.scenario,
        "csv": csv_path,
        "sidecar": json_path,
        "observables": {
            b.observable: {
                "min": float(np.min(b.values)),
                "max": float(np.max(b.values)),
                "final": float(np.asarray(b.values).reshape(-1)[-1]),
            }
            for b in result.blocks
        },
        "diagnostics": result.diagnostics,
    }
    print(experiments.json_text(summary, indent=2))
    return _flagged_exit(result.diagnostics, "sidecar", sidecar=json_path)


def _parse_axis(text: str) -> experiments.SweepAxis:
    parts = text.split(":")
    if len(parts) != 4:
        raise ValidationError(
            f"axis spec {text!r} must be name:start:stop:num (e.g. kappa_f:0:0.01:41)"
        )
    name = parts[0]
    problems = []
    if name not in experiments.AXIS_NAMES:
        problems.append(f"unknown axis {name!r}; available: {list(experiments.AXIS_NAMES)}")
    fields = dict(zip(("start", "stop", "num"), parts[1:]))
    lo = _number(fields, "start", float, problems)
    hi = _number(fields, "stop", float, problems)
    num = _number(fields, "num", int, problems, minimum=1)
    if problems:
        raise ValidationError([f"axis spec {text!r}: {p}" for p in problems])
    return experiments.SweepAxis(name, tuple(np.linspace(lo, hi, num)))


def cmd_sweep(args) -> int:
    config = _config_from_args(args)
    axes = tuple(_parse_axis(spec) for spec in args.axis or ())
    if not axes:
        raise ValidationError("sweep needs at least one --axis name:start:stop:num")
    scenario = experiments.Scenario(
        name=args.name,
        description="ad-hoc sweep",
        params=config.params,
        schedule_kind=config.schedule,
        open_system=config.open_system,
        axes=axes,
        observables=config.observables,
        steps=config.steps,
    )
    result = experiments.run_scenario(scenario)
    csv_path, json_path = experiments.write_result(result, config.out_dir)
    print(experiments.json_text({"csv": csv_path, "sidecar": json_path,
                                 "diagnostics": result.diagnostics}, indent=2))
    return _flagged_exit(result.diagnostics, "sidecar", sidecar=json_path)


def _flagged_cells(diagnostics: dict) -> int:
    """Number of cell_errors entries, over every panel of the diagnostics."""
    if "cell_errors" in diagnostics:
        return len(diagnostics["cell_errors"])
    return sum(_flagged_cells(d) for d in diagnostics.values() if isinstance(d, dict))


def _flagged_exit(diagnostics: dict, holder: str, **paths: str) -> int:
    """0, or EXIT_FLAGGED_CELLS with a JSON note on stderr when cells were flagged.

    The note says that ``holder`` keeps the raw values and names the written
    files given as ``paths``.
    """
    flagged = _flagged_cells(diagnostics)
    if not flagged:
        return 0
    print(json.dumps({
        "error": "CellErrors",
        "message": f"{flagged} cell(s) over a solver tolerance were written as nan; "
        f"their raw values and reasons are under cell_errors in the {holder}",
        **paths,
    }), file=sys.stderr)
    return EXIT_FLAGGED_CELLS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cavityghz",
        description="Entangled-state generation in fiber-coupled cavities: "
        "models, pulses, dynamics and parameter sweeps (all rates in units of g).",
    )
    parser.add_argument("--version", action="version", version=__version__)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file; flags override it")
    for key in ("g", "v", "omega0", "delta", "gamma", "kappa-c", "kappa-f"):
        common.add_argument(
            f"--{key}", dest=key.replace("-", "_"),
            help=f"{key} in units of g, or physical like '2pi*3.5 MHz'",
        )
    common.add_argument("--tf", help="operation time in 1/g")
    common.add_argument("--t0", help="pulse offset in 1/g (default 0.14 tf)")
    common.add_argument("--tc", help="pulse width in 1/g (default 0.19 tf)")
    common.add_argument("--alpha", help="fractional transfer angle (default pi/4)")
    common.add_argument("--n", help="number of atoms (odd, >= 3)")
    common.add_argument("--schedule", choices=pulses.KINDS)
    common.add_argument("--open", dest="open_system", action="store_true",
                        help="include dissipation (master equation)")
    common.add_argument(
        "--steps",
        help="fixed integrator step count (default: error-controlled for final-value "
        f"sweeps, {dynamics.DEFAULT_STEPS} for simulate and time series)",
    )
    common.add_argument("--record-every", dest="record_every")
    common.add_argument("--observables", help="comma-separated observable names")
    common.add_argument("--out", dest="out_dir",
                        help=f"output directory (default ${OUTDIR_ENV} or .)")
    common.add_argument("--grid", help="points per sweep axis")
    common.add_argument("--preset", choices=sorted(PRESETS),
                        help="named parameter set (e.g. experimental rates)")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("basis", parents=[common],
                   help="dump the reachable basis as JSON").set_defaults(fn=cmd_basis)
    sub.add_parser("hamiltonian", parents=[common],
                   help="dump coupling/detuning matrices as JSON").set_defaults(fn=cmd_hamiltonian)
    p = sub.add_parser("eigen", parents=[common],
                       help="closed-form vs numeric spectrum")
    p.set_defaults(fn=cmd_eigen)
    p = sub.add_parser("pulses", parents=[common], help="emit pulse shapes as CSV")
    p.add_argument("--kind", choices=pulses.KINDS)
    p.add_argument("--points", default=1001, help="samples over [0, tf] (default 1001)")
    p.set_defaults(fn=cmd_pulses)
    sub.add_parser("simulate", parents=[common],
                   help="run one evolution, write trajectory CSV").set_defaults(fn=cmd_simulate)
    p = sub.add_parser("scenario", parents=[common], help="run a registered scenario")
    p.add_argument("name", choices=experiments.available_scenarios())
    p.set_defaults(fn=cmd_scenario)
    p = sub.add_parser("sweep", parents=[common], help="ad-hoc sweep over custom axes")
    p.add_argument("--axis", action="append",
                   help="axis spec name:start:stop:num (repeat for 2-D)")
    p.add_argument("--name", default="sweep")
    p.set_defaults(fn=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CavityGhzError as err:
        payload = {"error": type(err).__name__, "message": str(err)}
        if isinstance(err, ValidationError):
            payload["details"] = err.problems
        print(json.dumps(payload), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
