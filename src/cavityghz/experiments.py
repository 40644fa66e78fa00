"""Scenario registry and sweep engine.

Each scenario fixes a base operating point, a schedule kind and up to two
sweep axes (or a set of labeled panels), and records final-state observables
or full time series.  Cells are independent: the cells of one atom count
evolve in lockstep through the batched integrators, and reruns produce
byte-identical results.

Step count.  A scenario that names no ``steps`` picks the step count of
each atom-count group by step doubling with the eighth-order DOP853 tableau
(dynamics.DOP853); an explicit step count runs RK4.  With R record intervals
(1 for a final-value run, DEFAULT_STEPS / record_every for a series) the
passes run at R * ceil(FIRST_PASS_STEPS / R) steps, twice that, and so on
up to the first pass at or above dynamics.DEFAULT_STEPS; a series records
every steps / R steps, so its sample times are those of the fixed grid on
every pass.  After each pass every cell gets the Richardson estimate
max |O_2n - O_n| / (2^8 - 1) of the error of its finer values, over every
recorded sample of every observable (Hairer, Norsett & Wanner, Solving
ODEs I, sec. II.4), and the group stops at the first pass where every cell
is within dynamics.STEP_TOL.  Only that pass supplies values, series and
solver diagnostics.  A cell still over tolerance at the cap is listed in
``cell_errors`` with its cap values, and its values in the result are NaN,
like those of every flagged cell.  A series whose record_every does not
divide DEFAULT_STEPS has no such ladder and keeps the fixed DEFAULT_STEPS
RK4 grid (default_steps).

Deviation axes (dg, dv, domega0, dT) are relative: the executed value is
x * (1 + delta).  A timing deviation stretches the whole designed schedule
(offsets and widths included); an amplitude deviation scales the executed
drive, which for the shortcut schedule is the counter-diabatic amplitude
itself (the nominal pulse amplitude cancels from the mixing angle).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import numbers
from dataclasses import dataclass

import numpy as np

from . import __version__ as _version
from . import dynamics, model, observables, pulses
from .errors import ConfigurationError, ValidationError
from .model import SystemParams
from .pulses import ADIABATIC, TQD
from .zeno import bright_state


@dataclass(frozen=True)
class SweepAxis:
    name: str
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.values) == 0:
            raise ValidationError(f"axis {self.name!r} has an empty grid")
        diffs = np.diff(np.asarray(self.values, dtype=float))
        if len(diffs) and not (np.all(diffs > 0) or np.all(diffs < 0)):
            raise ValidationError(f"axis {self.name!r} grid must be strictly monotone")


@dataclass(frozen=True)
class Panel:
    """A labeled sub-sweep sharing the scenario base (its own axis/schedule)."""

    label: str
    axis: SweepAxis | None = None
    schedule_kind: str | None = None
    params_patch: tuple[tuple[str, float], ...] = ()


@dataclass(frozen=True)
class Scenario:
    name: str
    description: str
    params: SystemParams
    schedule_kind: str = TQD
    open_system: bool = False
    axes: tuple[SweepAxis, ...] = ()
    panels: tuple[Panel, ...] = ()
    observables: tuple[str, ...] = ("fidelity",)
    record_series: bool = False
    steps: int | None = None  # None: step doubling (see default_steps)
    record_every: int = 200

    def __post_init__(self):
        problems = []
        if self.steps is not None and not self.steps >= dynamics.MIN_STEPS:
            problems.append(f"steps must be at least {dynamics.MIN_STEPS}, got {self.steps}")
        if not self.record_every >= 1:
            problems.append(f"record_every must be positive, got {self.record_every}")
        if problems:
            raise ValidationError(problems)


@dataclass
class ResultBlock:
    observable: str
    axes: tuple[tuple[str, np.ndarray], ...]
    values: np.ndarray


@dataclass
class SweepResult:
    scenario: str
    blocks: list[ResultBlock]
    diagnostics: dict
    provenance: dict

    def block(self, observable: str) -> ResultBlock:
        for b in self.blocks:
            if b.observable == observable:
                return b
        raise ConfigurationError(f"no observable {observable!r} in result {self.scenario!r}")


# --- axis semantics ------------------------------------------------------

def _apply_axis(params: SystemParams, scale: float, name: str, value: float):
    if name == "omega0":
        return params.replace(omega0=value), scale
    if name == "tf":
        return params.with_t_f(value), scale
    if name == "delta":
        return params.replace(delta=value), scale
    if name == "gamma":
        return params.replace(gamma=value), scale
    if name == "kappa_c":
        return params.replace(kappa_c=value), scale
    if name == "kappa_f":
        return params.replace(kappa_f=value), scale
    if name == "n":
        if not float(value).is_integer():
            raise ValidationError(f"axis n takes whole atom counts, got {value}")
        # the operating point owns chain length, detuning and pulse timing;
        # every other setting (rates, couplings, amplitude) carries through
        point = natom_params(int(value), t_f=params.t_f)
        return params.replace(
            n_atoms=point.n_atoms, delta=point.delta, t0=point.t0, tc=point.tc
        ), scale
    if name == "dg":
        return params.replace(g=params.g * (1.0 + value)), scale
    if name == "dv":
        return params.replace(v=params.v * (1.0 + value)), scale
    if name == "domega0":
        return params, scale * (1.0 + value)
    if name == "dT":
        return params.scale_time(1.0 + value), scale
    raise ConfigurationError(f"unknown sweep axis {name!r}")


AXIS_NAMES = (
    "omega0", "tf", "delta", "gamma", "kappa_c", "kappa_f",
    "dg", "dv", "domega0", "dT", "n",
)


# --- batched drive over heterogeneous cells ------------------------------

@dataclass(frozen=True)
class _CellPulses:
    """The pulse fields of a list of (params, amp_scale) cells as arrays.

    Passed to pulses.PulseSchedule in place of one SystemParams, it makes the
    single drive implementation evaluate every cell at once.
    """

    omega0: np.ndarray
    t0: np.ndarray
    tc: np.ndarray
    t_f: np.ndarray
    alpha: np.ndarray
    delta: np.ndarray
    n_atoms: np.ndarray


def _cell_drive(kind, cells):
    """Drive function of a list of (params, amp_scale) cells that evaluates
    pulses.PulseSchedule.drive once per distinct pulse.

    Cells with equal _CellPulses fields and amplitude scale share one drive
    row: the surfaces that sweep couplings or rates (fig8a/b, fig9a/b,
    fig10a) have a single row for all their cells.  A row's times are those
    of any of its cells, since t_f is one of the fields; the coefficients
    are expanded back to the cells on the last axis.
    """
    names = [f.name for f in dataclasses.fields(_CellPulses)]
    keys = np.array([[getattr(p, name) for name in names] + [s] for p, s in cells], dtype=float)
    _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    inverse = inverse.reshape(-1)
    *fields, scale = np.ascontiguousarray(keys[first].T)
    drive = pulses.PulseSchedule(kind, _CellPulses(*fields), amplitude_scale=scale).drive

    def cell_drive(times):
        return tuple(coeff[..., inverse] for coeff in drive(times[..., first]))

    return cell_drive


def _cell_statics(space, cells, detuned: bool):
    """Shared (d,d) static part, or a per-cell stack when g/v/delta vary."""
    s_g, s_v = model.coupling_structures(space)
    h_d = model.detuning_structure(space)
    gs = np.array([p.g for p, _ in cells])
    vs = np.array([p.v for p, _ in cells])
    ds = np.array([p.delta if detuned else 0.0 for p, _ in cells])
    if np.ptp(gs) == 0 and np.ptp(vs) == 0 and np.ptp(ds) == 0:
        return gs[0] * s_g + vs[0] * s_v + ds[0] * h_d
    return (
        gs[:, None, None] * s_g + vs[:, None, None] * s_v + ds[:, None, None] * h_d
    )


def _group_integrator(kind, open_system, cells):
    """Space of cells sharing one atom count, and their batched integrator.

    The integrator maps (steps, record_every, tableau) to a
    dynamics.BatchResult; the space, structure matrices and drive are built
    once for all its passes.
    """
    params0 = cells[0][0]
    space = model.build_space(params0, open_system=open_system)
    detuned = kind == TQD
    static = _cell_statics(space, cells, detuned)
    x1, xn = model.laser_couplings(space)
    drive = _cell_drive(kind, cells)
    t_end = np.array([p.t_f for p, _ in cells])
    psi0 = space.basis_vector(0)
    if not open_system:
        def integrate(steps, record_every=None, tableau=dynamics.RK4):
            return dynamics.evolve_schrodinger_batch(
                static, [x1.mat, xn.mat], drive, psi0, t_end, steps=steps,
                record_every=record_every, tableau=tableau,
            )
    else:
        structure = model.channel_structure(space)
        weights = np.array(
            [model.channel_rates(structure, p) * structure.amp_sq for p, _ in cells]
        )
        rho0 = np.outer(psi0, psi0.conj())

        def integrate(steps, record_every=None, tableau=dynamics.RK4):
            return dynamics.evolve_lindblad_batch(
                static, [x1.mat, xn.mat], drive, rho0, t_end,
                (structure.sources, structure.targets, weights),
                steps=steps, record_every=record_every, tableau=tableau,
            )
    return space, integrate


def _observable_fn(name, kind, params, dim):
    n = params.n_atoms
    if name == "fidelity":
        target = observables.target_state(kind, n, dim=dim)
        return lambda s: observables.ghz_fidelity(s, target, schedule_kind=kind)
    if name == "pop:phi1":
        vec = np.zeros(dim, dtype=complex)
        vec[0] = 1.0
        return lambda s: observables.population(s, vec)
    if name == "pop:phiLast":
        vec = np.zeros(dim, dtype=complex)
        vec[4 * n - 2] = 1.0
        return lambda s: observables.population(s, vec)
    if name == "pop:bright":
        vec = np.zeros(dim, dtype=complex)
        vec[: 4 * n - 1] = bright_state(params.g, params.v, n)
        return lambda s: observables.population(s, vec)
    if name == "leakage":
        return lambda s: observables.leakage(s, params.g, params.v, n)
    raise ConfigurationError(f"unknown observable {name!r}")


OBSERVABLE_NAMES = ("fidelity", "pop:phi1", "pop:phiLast", "pop:bright", "leakage")


def _cell_errors(diagnostics, n_cells):
    """Flag cells whose solver diagnostics left tolerance (sweep keeps going)."""
    errors = []
    for c in range(n_cells):
        problems = []
        for name, tol in (
            ("max_norm_drift", dynamics.NORM_TOL),
            ("max_trace_drift", dynamics.TRACE_TOL),
            ("max_step_error", dynamics.STEP_TOL),
        ):
            # written NaN-safe: a diverged cell reports NaN drift
            if name in diagnostics and not (diagnostics[name][c] <= tol):
                problems.append(f"{name} {diagnostics[name][c]:.2e} > {tol:g}")
        if "min_density_eigenvalue" in diagnostics and not (
            diagnostics["min_density_eigenvalue"][c] >= -dynamics.POSITIVITY_TOL
        ):
            problems.append(
                f"min_density_eigenvalue {diagnostics['min_density_eigenvalue'][c]:.2e} "
                f"< {-dynamics.POSITIVITY_TOL:g}"
            )
        if problems:
            errors.append({"cell": c, "problems": problems})
    return errors


# The method and first pass of the step-doubling control: every registered
# final-value scenario but fig6 (100 to 800) accepts at 200 steps, and eight
# doublings reach the cap.
STEP_CONTROL_TABLEAU = dynamics.DOP853
FIRST_PASS_STEPS = 100


def step_method(steps) -> dynamics.Tableau:
    """The tableau of a run: STEP_CONTROL_TABLEAU under step doubling
    (``steps`` None), RK4 for an explicit step count."""
    return STEP_CONTROL_TABLEAU if steps is None else dynamics.RK4


def default_steps(record_every=None):
    """Step count of a run that names none: None (step doubling) for final
    values and for a series whose ``record_every`` divides DEFAULT_STEPS;
    the fixed DEFAULT_STEPS grid for any other series, whose sample times
    could not stay the same from pass to pass."""
    if record_every and dynamics.DEFAULT_STEPS % record_every:
        return dynamics.DEFAULT_STEPS
    return None


def _pass_ladder(intervals):
    """Step counts of the doubling passes for ``intervals`` record intervals:
    multiples of it from FIRST_PASS_STEPS rounded up, doubled up to the
    first at or above DEFAULT_STEPS (at least two passes)."""
    ladder = [intervals * -(-FIRST_PASS_STEPS // intervals)]
    while len(ladder) < 2 or ladder[-1] < dynamics.DEFAULT_STEPS:
        ladder.append(2 * ladder[-1])
    return ladder


def _samples(obs_fns, obs_names, batch):
    """name -> (cells, samples) observable values at every record point of a
    batch, or at its final states alone when it recorded none."""
    states = batch.records if batch.records is not None else batch.finals[:, None]
    # a diverged cell is flagged by its diagnostics, not by floating-point warnings
    with np.errstate(over="ignore", invalid="ignore"):
        return {
            name: np.array([[fns[name](s) for s in cell] for fns, cell in zip(obs_fns, states)])
            for name in obs_names
        }


def _step_doubling(integrate, obs_fns, obs_names, intervals=None):
    """Double the step count of STEP_CONTROL_TABLEAU until every cell's
    samples are within STEP_TOL.

    With ``intervals`` record intervals the passes are _pass_ladder(intervals)
    and each records every steps / intervals steps; without, they are
    _pass_ladder(1) and only final values are compared.  Returns (batch,
    samples, error, passes) of the accepted (finer) pass: error is the
    per-cell Richardson estimate over every sample of every observable,
    passes the step counts run.
    """
    ladder = _pass_ladder(intervals or 1)
    tableau = STEP_CONTROL_TABLEAU
    coarse = None
    for k, steps in enumerate(ladder):
        batch = integrate(steps, steps // intervals if intervals else None, tableau)
        fine = _samples(obs_fns, obs_names, batch)
        if coarse is not None:
            with np.errstate(invalid="ignore"):
                error = np.max(
                    [np.max(np.abs(fine[n] - coarse[n]), axis=1) for n in obs_names], axis=0
                ) / (2**tableau.order - 1)
            # NaN-safe: a diverged cell never passes
            if np.all(error <= dynamics.STEP_TOL) or k == len(ladder) - 1:
                return batch, fine, error, ladder[:k + 1]
        coarse = fine


def _run_cells(kind, open_system, cells, steps, obs_names, record_every=None):
    """Evolve heterogeneous cells and evaluate observables.

    ``steps=None`` chooses the step count of each atom-count group by step
    doubling; a series then needs a ``record_every`` that divides
    DEFAULT_STEPS (default_steps gives the fixed grid otherwise).
    Returns (values, series, fractions, diagnostics): values[name] is (C,),
    series[name] is (C, R) when recording, diagnostics maps name -> (C,)
    plus ``cell_errors`` and, under step control, ``step_passes``.  A cell
    listed in ``cell_errors`` has NaN values and series; its entry keeps the
    raw ones.
    """
    intervals = None
    if steps is None and record_every:
        intervals, rest = divmod(dynamics.DEFAULT_STEPS, record_every)
        if rest:
            raise ConfigurationError(
                f"record_every {record_every} does not divide {dynamics.DEFAULT_STEPS}: "
                "a step-controlled series needs it to"
            )
    order = np.argsort([p.n_atoms for p, _ in cells], kind="stable")
    values = {name: np.zeros(len(cells)) for name in obs_names}
    series = {name: None for name in obs_names} if record_every else None
    fractions = None
    diagnostics: dict[str, np.ndarray] = {"steps_used": np.zeros(len(cells), dtype=int)}
    step_passes = []

    for n_atoms in sorted({p.n_atoms for p, _ in cells}):
        idx = [i for i in order if cells[i][0].n_atoms == n_atoms]
        group = [cells[i] for i in idx]
        space, integrate = _group_integrator(kind, open_system, group)
        obs_fns = [
            {name: _observable_fn(name, kind, p, space.dim) for name in obs_names}
            for p, _ in group
        ]
        if steps is None:
            batch, samples, error, passes = _step_doubling(
                integrate, obs_fns, obs_names, intervals
            )
            diagnostics.setdefault("max_step_error", np.zeros(len(cells)))[idx] = error
            step_passes.append({"n_atoms": n_atoms, "steps": passes})
            diagnostics["steps_used"][idx] = passes[-1]
        else:
            batch = integrate(steps, record_every)
            samples = _samples(obs_fns, obs_names, batch)
            diagnostics["steps_used"][idx] = steps
        for name, arr in batch.diagnostics.items():
            diagnostics.setdefault(name, np.zeros(len(cells)))[idx] = arr
        for name in obs_names:
            values[name][idx] = samples[name][:, -1]
            if record_every:
                if series[name] is None:
                    series[name] = np.zeros((len(cells), samples[name].shape[1]))
                series[name][idx] = samples[name]
        if record_every:
            fractions = batch.record_fractions

    diagnostics["cell_errors"] = _cell_errors(diagnostics, len(cells))
    # a flagged cell's values are not results: they leave as NaN and are kept
    # in its cell_errors entry (its series when recording)
    out = series if series is not None else values
    for entry in diagnostics["cell_errors"]:
        c = entry["cell"]
        entry["values"] = {name: out[name][c].tolist() for name in obs_names}
        for name in obs_names:
            values[name][c] = np.nan
            if series is not None:
                series[name][c] = np.nan
    if steps is None:
        diagnostics["step_passes"] = step_passes
    return values, series, fractions, diagnostics


# --- scenario execution ---------------------------------------------------

def _run_grid(scenario: Scenario) -> tuple[list[ResultBlock], dict]:
    axes = scenario.axes
    if len(axes) > 2:
        raise ValidationError("at most two sweep axes are supported")
    grids = [np.asarray(ax.values, dtype=float) for ax in axes]
    mesh = [g.ravel() for g in np.meshgrid(*grids, indexing="ij")] if grids else []
    n_cells = mesh[0].size if mesh else 1

    cells = []
    for c in range(n_cells):
        p, s = scenario.params, 1.0
        for ax, grid in zip(axes, mesh):
            p, s = _apply_axis(p, s, ax.name, grid[c])
        cells.append((p, s))

    record_every = scenario.record_every if scenario.record_series else None
    values, series, fractions, diagnostics = _run_cells(
        scenario.schedule_kind, scenario.open_system, cells, scenario.steps,
        scenario.observables, record_every,
    )

    blocks = []
    shape = tuple(len(g) for g in grids)
    axis_spec = tuple((ax.name, np.asarray(ax.values, dtype=float)) for ax in axes)
    for name in scenario.observables:
        if series is not None:
            t_axis = ("t_frac", fractions)
            blocks.append(
                ResultBlock(name, axis_spec + (t_axis,), series[name].reshape(shape + (-1,)))
            )
        else:
            blocks.append(ResultBlock(name, axis_spec, values[name].reshape(shape)))
    return blocks, diagnostics


def _int_override(overrides, key):
    value = overrides.pop(key)
    try:
        number = int(value)
        if isinstance(value, float) and number != value:
            raise ValueError
        return number
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"{key} must be an integer, got {value!r}") from None


def run_scenario(name_or_scenario, overrides=None) -> SweepResult:
    """Execute a registered scenario (or an ad-hoc Scenario object).

    ``overrides`` may set ``grid`` (points per numeric axis), ``steps``,
    ``record_every``, or any SystemParams field.  Without ``steps`` the step
    count is error-controlled (see the module docstring), time series
    included; only a series whose ``record_every`` does not divide
    dynamics.DEFAULT_STEPS runs on the fixed DEFAULT_STEPS grid.
    """
    overrides = dict(overrides or {})
    if isinstance(name_or_scenario, Scenario):
        scenario = name_or_scenario
    else:
        grid = _int_override(overrides, "grid") if "grid" in overrides else None
        scenario = get_scenario(name_or_scenario, grid=grid)
    if "steps" in overrides:
        scenario = dataclasses.replace(scenario, steps=_int_override(overrides, "steps"))
    if "record_every" in overrides:
        scenario = dataclasses.replace(
            scenario, record_every=_int_override(overrides, "record_every")
        )
    if scenario.steps is None and scenario.record_series:
        scenario = dataclasses.replace(scenario, steps=default_steps(scenario.record_every))
    if overrides:
        scenario = dataclasses.replace(
            scenario, params=scenario.params.replace(**overrides)
        )

    blocks: list[ResultBlock] = []
    diagnostics: dict[str, dict] = {}
    if scenario.panels:
        for panel in scenario.panels:
            sub = dataclasses.replace(
                scenario,
                panels=(),
                axes=(panel.axis,) if panel.axis else (),
                schedule_kind=panel.schedule_kind or scenario.schedule_kind,
                params=scenario.params.replace(**dict(panel.params_patch)),
            )
            sub_blocks, sub_diag = _run_grid(sub)
            for b in sub_blocks:
                b.observable = f"{b.observable}:{panel.label}"
            blocks.extend(sub_blocks)
            diagnostics[panel.label] = _summarize(sub_diag)
    else:
        grid_blocks, diag = _run_grid(scenario)
        blocks.extend(grid_blocks)
        diagnostics = _summarize(diag)

    provenance = {
        "scenario": scenario.name,
        "description": scenario.description,
        "version": _version,
        "params": scenario.params.to_dict(),
        "schedule": scenario.schedule_kind,
        "open_system": scenario.open_system,
        "steps": scenario.steps,
        "step_tol": dynamics.STEP_TOL if scenario.steps is None else None,
        "method": step_method(scenario.steps).name,
        "record_every": scenario.record_every,
        "record_series": scenario.record_series,
        "axes": [
            {"name": ax.name, "values": list(ax.values)} for ax in scenario.axes
        ],
        "panels": [
            {
                "label": p.label,
                "axis": {"name": p.axis.name, "values": list(p.axis.values)} if p.axis else None,
                "schedule": p.schedule_kind,
                "params_patch": dict(p.params_patch),
            }
            for p in scenario.panels
        ],
        "observables": list(scenario.observables),
    }
    provenance["hash"] = provenance_hash(provenance)
    return SweepResult(scenario.name, blocks, diagnostics, provenance)


def _summarize(diag: dict) -> dict:
    """Per-cell arrays to their worst value; lists (cell_errors, step_passes) kept."""
    out = {}
    for name, arr in diag.items():
        if not isinstance(arr, np.ndarray):
            out[name] = arr
        else:
            out[name] = (arr.min() if name.startswith("min") else arr.max()).item()
    return out


def json_text(obj, **kwargs) -> str:
    """JSON (RFC 8259) for ``obj``: a non-finite number, which JSON cannot
    hold, is written as null."""
    return json.dumps(_json_ready(obj), allow_nan=False, **kwargs)


def _json_ready(obj):
    if isinstance(obj, dict):
        return {key: _json_ready(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(val) for val in obj]
    if isinstance(obj, float) and not np.isfinite(obj):
        return None
    return obj


def provenance_hash(provenance: dict) -> str:
    payload = {k: v for k, v in provenance.items() if k != "hash"}
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:10]


# --- output files ---------------------------------------------------------

def result_rows(result: SweepResult):
    """Long-format rows (axis1, axis2, observable, value)."""
    rows = []
    for block in result.blocks:
        if len(block.axes) == 0:
            rows.append(("", "", block.observable, float(block.values.reshape(()))))
        elif len(block.axes) == 1:
            for x, val in zip(block.axes[0][1], block.values):
                rows.append((float(x), "", block.observable, float(val)))
        else:
            ax1, ax2 = block.axes[0][1], block.axes[1][1]
            for i, x in enumerate(ax1):
                for j, y in enumerate(ax2):
                    rows.append((float(x), float(y), block.observable, float(block.values[i, j])))
    return rows


def write_result(result: SweepResult, out_dir) -> tuple[str, str]:
    """Write <scenario>-<hash>.csv (long format) and the JSON sidecar."""
    import os

    os.makedirs(out_dir, exist_ok=True)
    stem = f"{result.scenario}-{result.provenance['hash']}"
    csv_path = os.path.join(out_dir, stem + ".csv")
    json_path = os.path.join(out_dir, stem + ".json")
    with open(csv_path, "w") as fh:
        fh.write("axis1,axis2,observable,value\n")
        for ax1, ax2, obs, val in result_rows(result):
            fh.write(f"{ax1},{ax2},{obs},{val:.12g}\n")
    sidecar = {
        "provenance": result.provenance,
        "diagnostics": result.diagnostics,
        "axis_names": {
            b.observable: [name for name, _ in b.axes] for b in result.blocks
        },
    }
    with open(json_path, "w") as fh:
        fh.write(json_text(sidecar, indent=2, sort_keys=True))
    return csv_path, json_path


# --- registry -------------------------------------------------------------

# Operating points for the fixed-time chain-length scan.  The spectral gap of
# the chain shrinks as it grows, so the detuning and pulse width move to keep
# the drive inside the weak-coupling window; the operation time stays fixed,
# which is the point of the scan.
NATOM_OPERATING_POINTS = {
    3: {"delta": 2.3, "t0_frac": 0.14, "tc_frac": 0.19},
    5: {"delta": 0.4, "t0_frac": 0.14, "tc_frac": 0.21},
    7: {"delta": 0.4, "t0_frac": 0.14, "tc_frac": 0.22},
}


def natom_params(n_atoms: int, t_f: float = 72.0) -> SystemParams:
    try:
        spec = NATOM_OPERATING_POINTS[n_atoms]
    except KeyError:
        raise ConfigurationError(
            f"no registered operating point for n_atoms={n_atoms}; "
            f"available: {sorted(NATOM_OPERATING_POINTS)}"
        ) from None
    return SystemParams(
        n_atoms=n_atoms,
        delta=spec["delta"],
        t_f=t_f,
        t0=spec["t0_frac"] * t_f,
        tc=spec["tc_frac"] * t_f,
    )


def _axis(name, lo, hi, n) -> SweepAxis:
    return SweepAxis(name, tuple(np.linspace(lo, hi, n)))


def _rate_panels(n) -> tuple[Panel, ...]:
    return tuple(
        Panel(label=rate, axis=_axis(rate, 0.0, 0.01, n))
        for rate in ("gamma", "kappa_c", "kappa_f")
    )


def _registry(grid: int | None):
    n = 41 if grid is None else grid

    def base(t_f, **kw):
        return SystemParams(**kw).with_t_f(t_f)

    return {
        "fig4": Scenario(
            "fig4",
            "Adiabatic transfer fidelity versus pulse amplitude and time",
            base(400.0), ADIABATIC, axes=(_axis("omega0", 0.3 / n, 0.3, n),),
            observables=("fidelity",), record_series=True, record_every=200,
        ),
        "fig5": Scenario(
            "fig5",
            "Adiabatic populations over time at the slow operating point",
            base(400.0), ADIABATIC,
            observables=("fidelity", "pop:phi1", "pop:phiLast"),
            record_series=True, record_every=100,
        ),
        "fig6": Scenario(
            "fig6",
            "Shortcut fidelity surface versus operation time and detuning",
            base(72.0), TQD,
            axes=(_axis("tf", 10.0, 150.0, n), _axis("delta", 0.5, 4.0, n)),
        ),
        "fig7": Scenario(
            "fig7",
            "Endpoint populations over time: shortcut versus adiabatic at the fast time",
            base(72.0),
            panels=(Panel("tqd", schedule_kind=TQD), Panel("adiabatic", schedule_kind=ADIABATIC)),
            observables=("fidelity", "pop:phi1", "pop:phiLast"),
            record_series=True, record_every=100,
        ),
        "fig8a": Scenario(
            "fig8a",
            "Shortcut fidelity versus each dissipation rate separately",
            base(72.0), TQD, open_system=True, panels=_rate_panels(n),
        ),
        "fig8b": Scenario(
            "fig8b",
            "Adiabatic fidelity versus each dissipation rate separately "
            "(strong-pulse comparison point; weak-drive condition deliberately "
            "violated, so leakage is recorded too)",
            base(153.0, omega0=0.5), ADIABATIC, open_system=True,
            panels=_rate_panels(n), observables=("fidelity", "leakage"),
        ),
        "fig9a": Scenario(
            "fig9a",
            "Shortcut fidelity surface versus atomic emission and cavity loss",
            base(72.0), TQD, open_system=True,
            axes=(_axis("gamma", 0.0, 0.01, n), _axis("kappa_c", 0.0, 0.01, n)),
        ),
        "fig9b": Scenario(
            "fig9b",
            "Adiabatic fidelity surface versus atomic emission and cavity loss",
            base(153.0, omega0=0.5), ADIABATIC, open_system=True,
            axes=(_axis("gamma", 0.0, 0.01, n), _axis("kappa_c", 0.0, 0.01, n)),
        ),
        "fig10a": Scenario(
            "fig10a",
            "Shortcut robustness against coupling deviations",
            base(72.0), TQD,
            axes=(_axis("dg", -0.1, 0.1, n), _axis("dv", -0.1, 0.1, n)),
        ),
        "fig10b": Scenario(
            "fig10b",
            "Shortcut robustness against timing and amplitude deviations",
            base(72.0), TQD,
            axes=(_axis("dT", -0.1, 0.1, n), _axis("domega0", -0.1, 0.1, n)),
        ),
        "headline": Scenario(
            "headline",
            "Open-system shortcut run at the realistic cavity-QED rates",
            model.experimental_params(t_f=72.0), TQD, open_system=True,
            observables=("fidelity", "leakage"),
        ),
        "natom": Scenario(
            "natom",
            "Fixed-time shortcut fidelity for growing chains (3, 5, 7 atoms)",
            natom_params(3), TQD, axes=(SweepAxis("n", (3.0, 5.0, 7.0)),),
        ),
    }


def available_scenarios() -> list[str]:
    return sorted(_registry(None))


def get_scenario(name: str, grid: int | None = None) -> Scenario:
    """Registered scenario; ``grid`` sets the points per numeric axis (default 41)."""
    if grid is not None and not (isinstance(grid, numbers.Integral) and grid >= 1):
        raise ValidationError(f"grid must be an integer of at least 1, got {grid!r}")
    registry = _registry(grid)
    try:
        return registry[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown scenario {name!r}; available: {', '.join(sorted(registry))}"
        ) from None
