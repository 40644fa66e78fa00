import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from cavityghz import dynamics, experiments, model, pulses
from cavityghz.errors import ConfigurationError, ScheduleError, ValidationError
from cavityghz.experiments import SweepAxis


def test_registry_names():
    names = experiments.available_scenarios()
    for expected in (
        "fig4", "fig5", "fig6", "fig7", "fig8a", "fig8b",
        "fig9a", "fig9b", "fig10a", "fig10b", "headline", "natom",
    ):
        assert expected in names


def test_unknown_scenario():
    with pytest.raises(ConfigurationError, match="unknown scenario"):
        experiments.run_scenario("fig99")


def test_axis_validation():
    with pytest.raises(ValidationError):
        SweepAxis("gamma", ())
    with pytest.raises(ValidationError):
        SweepAxis("gamma", (0.0, 2.0, 1.0))


def test_axis_semantics():
    p = model.SystemParams()
    q, s = experiments._apply_axis(p, 1.0, "dg", 0.1)
    assert q.g == pytest.approx(1.1) and q.v == 1.0 and s == 1.0
    q, s = experiments._apply_axis(p, 1.0, "domega0", -0.1)
    assert q == p and s == pytest.approx(0.9)
    q, s = experiments._apply_axis(p, 1.0, "dT", 0.1)
    assert q.t_f == pytest.approx(1.1 * p.t_f)
    assert q.tc / q.t_f == pytest.approx(p.tc / p.t_f)
    q, s = experiments._apply_axis(p, 1.0, "kappa_f", 0.004)
    assert q.kappa_f == 0.004
    with pytest.raises(ConfigurationError):
        experiments._apply_axis(p, 1.0, "bogus", 1.0)
    for value in (3.5, 4.999, float("nan"), float("inf")):
        with pytest.raises(ValidationError, match="whole atom counts"):
            experiments._apply_axis(p, 1.0, "n", value)


def test_natom_operating_points_are_valid():
    for n in (3, 5, 7):
        p = experiments.natom_params(n)
        assert p.n_atoms == n and p.t_f == pytest.approx(72.0)
    with pytest.raises(ConfigurationError):
        experiments.natom_params(9)


def test_n_axis_keeps_other_settings():
    p = model.SystemParams(gamma=0.05, kappa_c=0.002, omega0=0.3)
    q, s = experiments._apply_axis(p, 1.0, "n", 5.0)
    point = experiments.natom_params(5, t_f=p.t_f)
    assert (q.n_atoms, q.delta, q.t0, q.tc) == (5, point.delta, point.t0, point.tc)
    assert (q.gamma, q.kappa_c, q.omega0, q.t_f) == (0.05, 0.002, 0.3, p.t_f)
    assert s == 1.0


def test_explicit_steps_below_minimum_rejected():
    with pytest.raises(ValidationError, match="steps must be at least"):
        experiments.run_scenario("fig10a", {"grid": 3, "steps": 500})
    with pytest.raises(ValidationError, match="steps must be an integer"):
        experiments.run_scenario("fig10a", {"grid": 3, "steps": "abc"})
    # a fractional count is rejected, not truncated
    with pytest.raises(ValidationError, match="steps must be an integer"):
        experiments.run_scenario("fig10a", {"grid": 3, "steps": 1500.7})
    with pytest.raises(ValidationError, match="record_every must be an integer"):
        experiments.run_scenario("fig5", {"record_every": 100.9})
    with pytest.raises(ValidationError, match="steps must be at least"):
        experiments.Scenario("s", "too coarse", model.SystemParams(), steps=999)


def quick(name, grid=3, steps=2000):
    return experiments.run_scenario(name, {"grid": grid, "steps": steps})


def test_rerun_is_deterministic():
    a = quick("fig10a")
    b = quick("fig10a")
    for x, y in zip(a.blocks, b.blocks):
        assert np.array_equal(x.values, y.values)
    assert a.provenance["hash"] == b.provenance["hash"]


def test_fig6_surface_shape():
    res = quick("fig6", grid=3, steps=4000)
    block = res.block("fidelity")
    assert [name for name, _ in block.axes] == ["tf", "delta"]
    assert block.values.shape == (3, 3)
    # long-time high-detuning corner transfers well; the fast low-detuning
    # corner cannot (the reduced coupling needs the detuning)
    assert block.values[-1, -1] >= 0.97
    assert block.values[0, 0] < block.values[-1, -1]


def test_fig8a_monotone_in_cavity_loss():
    res = experiments.run_scenario("fig8a", {"grid": 5, "steps": 4000})
    kc = res.block("fidelity:kappa_c").values
    gamma = res.block("fidelity:gamma").values
    kf = res.block("fidelity:kappa_f").values
    assert np.all(np.diff(kc) < 0)
    assert np.all(np.diff(gamma) < 0)
    assert kf[0] - kf[-1] < 0.01  # near-flat in fiber loss
    assert kc[-1] < kf[-1]  # cavity loss dominates


def test_fig9_monotone_edges():
    res = experiments.run_scenario("fig9a", {"grid": 3, "steps": 4000})
    surf = res.block("fidelity").values
    assert surf.shape == (3, 3)
    assert np.all(np.diff(surf[:, 0]) < 0)  # along atomic emission
    assert np.all(np.diff(surf[0, :]) < 0)  # along cavity loss


def test_series_scenario_records_time_axis():
    res = experiments.run_scenario("fig5", {"steps": 2000, "record_every": 500})
    block = res.block("pop:phi1")
    names = [name for name, _ in block.axes]
    assert names == ["t_frac"]
    fracs = block.axes[0][1]
    assert fracs[0] == 0.0 and fracs[-1] == 1.0
    assert block.values[0] == pytest.approx(1.0)  # starts in the pump state


def test_fig7_panels_prefix_observables():
    res = experiments.run_scenario("fig7", {"steps": 2000, "record_every": 1000})
    names = {b.observable for b in res.blocks}
    assert "fidelity:tqd" in names and "fidelity:adiabatic" in names
    tqd_final = res.block("fidelity:tqd").values[-1]
    adiabatic_final = res.block("fidelity:adiabatic").values[-1]
    assert tqd_final - adiabatic_final >= 0.15


def test_param_override_applies():
    res = experiments.run_scenario("headline", {"steps": 2000, "kappa_c": 0.0})
    assert res.provenance["params"]["kappa_c"] == 0.0
    baseline = experiments.run_scenario("headline", {"steps": 2000})
    assert res.block("fidelity").values > baseline.block("fidelity").values


def test_result_rows_long_format():
    res = quick("fig10a")
    rows = experiments.result_rows(res)
    assert len(rows) == 9
    ax1, ax2, obs, val = rows[0]
    assert obs == "fidelity" and 0.0 <= val <= 1.0
    assert ax1 == pytest.approx(-0.1) and ax2 == pytest.approx(-0.1)


def test_write_result_roundtrip(tmp_path):
    res = quick("natom", steps=2000)
    csv_path, json_path = experiments.write_result(res, tmp_path)
    header, *lines = Path(csv_path).read_text().strip().split("\n")
    assert header == "axis1,axis2,observable,value"
    assert len(lines) == 3
    sidecar = json.loads(Path(json_path).read_text())
    assert sidecar["provenance"]["scenario"] == "natom"
    assert sidecar["provenance"]["hash"] in csv_path
    # sidecar params reconstruct the exact configuration
    params = model.SystemParams.from_dict(sidecar["provenance"]["params"])
    assert params == experiments.natom_params(3)


def test_cell_count_and_diag_summary():
    res = quick("fig10b")
    assert res.block("fidelity").values.size == 9
    assert res.diagnostics["max_norm_drift"] <= 1e-6
    assert res.diagnostics["cell_errors"] == []


def test_failing_cell_recorded_without_aborting():
    # the long-horizon cell is hopelessly under-resolved at 1000 steps; the
    # sweep must finish, flag it, and leave the healthy cell intact
    scenario = experiments.Scenario(
        name="drift-check",
        description="deliberately under-resolved cell",
        params=model.SystemParams().with_t_f(40.0),
        schedule_kind="adiabatic",
        axes=(SweepAxis("tf", (40.0, 4000.0)),),
        steps=1000,
    )
    res = experiments.run_scenario(scenario)
    errors = res.diagnostics["cell_errors"]
    assert [e["cell"] for e in errors] == [1]
    assert "max_norm_drift" in errors[0]["problems"][0]
    healthy = res.block("fidelity").values[0]
    assert 0.0 <= healthy <= 1.0


# --- error-controlled step count -------------------------------------------

@pytest.fixture(scope="module")
def controlled_fig10a():
    return experiments.run_scenario("fig10a", {"grid": 3})


@pytest.mark.parametrize("name", ["fig10a", "fig9a"])
def test_step_control_matches_fine_fixed_grid(name, controlled_fig10a, tmp_path):
    res = controlled_fig10a if name == "fig10a" else experiments.run_scenario(name, {"grid": 3})
    reference = experiments.run_scenario(name, {"grid": 3, "steps": 40000})
    diff = np.abs(res.block("fidelity").values - reference.block("fidelity").values)
    assert np.max(diff) <= 1e-8
    assert res.provenance["steps"] is None
    assert res.provenance["step_tol"] == dynamics.STEP_TOL
    assert (res.provenance["method"], reference.provenance["method"]) == ("dop853", "rk4")
    _, json_path = experiments.write_result(res, tmp_path)
    diag = json.loads(Path(json_path).read_text())["diagnostics"]
    assert diag["cell_errors"] == []
    assert 0.0 < diag["max_step_error"] <= dynamics.STEP_TOL
    passes = diag["step_passes"][0]["steps"]
    assert passes[0] == experiments.FIRST_PASS_STEPS
    assert diag["steps_used"] == passes[-1] <= dynamics.DEFAULT_STEPS
    # fewer integration steps in total than one fixed default-step pass
    assert sum(passes) < dynamics.DEFAULT_STEPS


def test_step_control_rerun_is_bitwise(controlled_fig10a):
    again = experiments.run_scenario("fig10a", {"grid": 3})
    for x, y in zip(controlled_fig10a.blocks, again.blocks):
        assert np.array_equal(x.values, y.values)
    assert controlled_fig10a.provenance["hash"] == again.provenance["hash"]
    assert controlled_fig10a.diagnostics == again.diagnostics


def test_step_control_flags_unresolved_cell_at_cap():
    # at the cap the long cell still takes steps of 3.9/g and diverges; the
    # group runs every doubling, the sweep finishes and the cell is flagged
    scenario = experiments.Scenario(
        name="cap-check",
        description="cell that no allowed step count resolves",
        params=model.SystemParams().with_t_f(40.0),
        schedule_kind="adiabatic",
        axes=(SweepAxis("tf", (40.0, 100000.0)),),
    )
    res = experiments.run_scenario(scenario)
    diag = res.diagnostics
    ladder = [100, 200, 400, 800, 1600, 3200, 6400, 12800, 25600]
    assert diag["step_passes"][0]["steps"] == ladder
    assert diag["steps_used"] == 25600 >= dynamics.DEFAULT_STEPS
    errors = diag["cell_errors"]
    assert [e["cell"] for e in errors] == [1]
    assert any(p.startswith("max_step_error") for p in errors[0]["problems"])
    healthy = res.block("fidelity").values[0]
    assert 0.0 <= healthy <= 1.0


def test_pass_ladder_keeps_record_intervals_whole():
    ladder = [100, 200, 400, 800, 1600, 3200, 6400, 12800, 25600]
    assert experiments._pass_ladder(1) == ladder
    assert experiments._pass_ladder(100) == ladder
    assert experiments._pass_ladder(200) == ladder[1:]
    assert experiments._pass_ladder(40) == [120 * 2**k for k in range(9)]
    assert experiments._pass_ladder(16) == [112 * 2**k for k in range(9)]
    # a first pass already at the cap still gets a finer pass to compare with
    assert experiments._pass_ladder(20000) == [20000, 40000]


def test_series_scenario_doubles_steps_at_fixed_sample_times():
    res = experiments.run_scenario("fig5", {"record_every": 1000})
    fixed = experiments.run_scenario(
        "fig5", {"record_every": 1000, "steps": dynamics.DEFAULT_STEPS}
    )
    diag = res.diagnostics
    # 20 record intervals: passes are multiples of 20, recording every steps/20
    assert diag["step_passes"] == [{"n_atoms": 3, "steps": [100, 200, 400]}]
    assert diag["steps_used"] == 400
    assert 0.0 < diag["max_step_error"] <= dynamics.STEP_TOL
    assert diag["cell_errors"] == []
    assert res.provenance["steps"] is None
    assert res.provenance["step_tol"] == dynamics.STEP_TOL
    for block in res.blocks:
        reference = fixed.block(block.observable)
        assert np.array_equal(block.axes[0][1], reference.axes[0][1])
        assert np.max(np.abs(block.values - reference.values)) <= dynamics.STEP_TOL


def test_series_scenario_matches_fine_fixed_grid():
    res = experiments.run_scenario("fig7")
    # twice the steps, and twice the stride, of the fixed grid: same samples
    reference = experiments.run_scenario("fig7", {"steps": 40000, "record_every": 200})
    for block in res.blocks:
        ref = reference.block(block.observable)
        assert np.array_equal(block.axes[0][1], ref.axes[0][1])
        assert np.max(np.abs(block.values - ref.values)) <= 1e-8
    for panel in ("tqd", "adiabatic"):
        assert 0.0 < res.diagnostics[panel]["max_step_error"] <= dynamics.STEP_TOL


def test_series_with_indivisible_stride_keeps_fixed_grid():
    # 300 does not divide 20000: no pass ladder keeps these sample times
    res = experiments.run_scenario("fig5", {"record_every": 300})
    assert res.provenance["steps"] == dynamics.DEFAULT_STEPS
    assert res.provenance["step_tol"] is None
    assert res.diagnostics["steps_used"] == dynamics.DEFAULT_STEPS
    assert "step_passes" not in res.diagnostics
    assert "max_step_error" not in res.diagnostics
    assert experiments.default_steps(300) == dynamics.DEFAULT_STEPS
    with pytest.raises(ConfigurationError, match="does not divide"):
        experiments._run_cells(
            "adiabatic", False, [(model.SystemParams(), 1.0)], None, ("fidelity",), 300
        )


def test_registered_series_strides_divide_default_steps():
    # a registered figure must never fall back to the fixed grid unnoticed
    for name in experiments.available_scenarios():
        scenario = experiments.get_scenario(name)
        if scenario.record_series:
            assert dynamics.DEFAULT_STEPS % scenario.record_every == 0, name
            assert experiments.default_steps(scenario.record_every) is None, name


def test_get_scenario_rejects_bad_grid():
    for grid in (0, -3, 2.5):
        with pytest.raises(ValidationError, match="grid must be an integer of at least 1"):
            experiments.get_scenario("fig10a", grid=grid)
    assert len(experiments.get_scenario("fig10a").axes[0].values) == 41
    assert len(experiments.get_scenario("fig10a", grid=1).axes[0].values) == 1
    with pytest.raises(ValidationError, match="grid must be an integer"):
        experiments.run_scenario("fig10a", {"grid": "x"})


def test_flagged_cell_value_is_withheld():
    # at 1000 steps the t_f = 1490 cell sits just past the RK4 stability
    # limit: its fidelity is still a plausible finite number, but its norm
    # has drifted by far more than the tolerance
    scenario = experiments.Scenario(
        name="withheld",
        description="finite value over tolerance",
        params=model.SystemParams().with_t_f(40.0),
        schedule_kind="adiabatic",
        axes=(SweepAxis("tf", (40.0, 1490.0)),),
        steps=1000,
    )
    res = experiments.run_scenario(scenario)
    values = res.block("fidelity").values
    assert np.isfinite(values[0]) and np.isnan(values[1])
    (entry,) = res.diagnostics["cell_errors"]
    assert entry["cell"] == 1
    assert np.isfinite(entry["values"]["fidelity"])


def test_json_text_writes_non_finite_numbers_as_null():
    obj = {"nan": np.float64(np.nan), "row": (np.inf, -np.inf, 1.5), "cells": [{"n": 3}]}
    text = experiments.json_text(obj)
    assert "NaN" not in text and "Infinity" not in text
    assert json.loads(text) == {"nan": None, "row": [None, None, 1.5], "cells": [{"n": 3}]}


# --- one drive evaluation per distinct pulse -----------------------------------

def grid_cells(name, grid=3):
    """Schedule kind and (params, amp_scale) cells of a registered 2-D scenario."""
    scenario = experiments.get_scenario(name, grid=grid)
    mesh = np.meshgrid(*[ax.values for ax in scenario.axes], indexing="ij")
    cells = []
    for point in zip(*(m.ravel() for m in mesh)):
        p, s = scenario.params, 1.0
        for ax, value in zip(scenario.axes, point):
            p, s = experiments._apply_axis(p, s, ax.name, value)
        cells.append((p, s))
    return scenario.schedule_kind, cells


@pytest.mark.parametrize("name, rows", [("fig10a", 1), ("fig10b", 9)])
def test_drive_is_evaluated_once_per_distinct_pulse(monkeypatch, name, rows):
    # fig10a varies the couplings only, so its 9 cells share one pulse;
    # fig10b's timing and amplitude deviations give every cell its own
    samples = []
    drive = pulses.PulseSchedule.drive

    def counting(self, t):
        samples.append(np.size(t))
        return drive(self, t)

    monkeypatch.setattr(pulses.PulseSchedule, "drive", counting)
    result = experiments.run_scenario(name, {"grid": 3})
    (group,) = result.diagnostics["step_passes"]
    # the step-controlled passes sample DOP853's 12 distinct nodes
    assert sum(samples) == 12 * sum(group["steps"]) * rows


@pytest.mark.parametrize("name", ["fig10a", "fig10b", "fig6", "fig9b"])
def test_distinct_pulse_drive_equals_per_cell_drive(name):
    kind, cells = grid_cells(name)
    t_end = np.array([p.t_f for p, _ in cells])
    times = np.linspace(0.0, 1.0, 7)[:, None, None] * np.array([1.0, 1.5, 2.0])[:, None] * t_end / 2
    fields = {
        f.name: np.array([getattr(p, f.name) for p, _ in cells], dtype=float)
        for f in dataclasses.fields(experiments._CellPulses)
    }
    scale = np.array([s for _, s in cells])
    per_cell = pulses.PulseSchedule(
        kind, experiments._CellPulses(**fields), amplitude_scale=scale
    ).drive(times)
    deduplicated = experiments._cell_drive(kind, cells)(times)
    assert len(deduplicated) == len(per_cell)
    for got, want in zip(deduplicated, per_cell):
        assert got.shape == times.shape
        assert np.array_equal(got, want)


def test_distinct_pulse_drive_checks_every_row():
    _, cells = grid_cells("fig10a")
    cells[4] = (cells[4][0].replace(delta=-1.0), cells[4][1])
    drive = experiments._cell_drive(pulses.TQD, cells)
    with pytest.raises(ScheduleError, match="delta > 0"):
        drive(np.full((1, 3, len(cells)), 10.0))
