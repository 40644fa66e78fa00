import json

import numpy as np
import pytest

from cavityghz import dynamics, experiments, model
from cavityghz.errors import ConfigurationError, ValidationError
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
    header, *lines = open(csv_path).read().strip().split("\n")
    assert header == "axis1,axis2,observable,value"
    assert len(lines) == 3
    sidecar = json.loads(open(json_path).read())
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
    _, json_path = experiments.write_result(res, tmp_path)
    diag = json.loads(open(json_path).read())["diagnostics"]
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
    # at the cap the long cell still takes steps of 2/g and diverges; the
    # group runs every doubling, the sweep finishes and the cell is flagged
    scenario = experiments.Scenario(
        name="cap-check",
        description="cell that no allowed step count resolves",
        params=model.SystemParams().with_t_f(40.0),
        schedule_kind="adiabatic",
        axes=(SweepAxis("tf", (40.0, 40000.0)),),
    )
    res = experiments.run_scenario(scenario)
    diag = res.diagnostics
    assert diag["step_passes"][0]["steps"] == [1250, 2500, 5000, 10000, 20000]
    assert diag["steps_used"] == dynamics.DEFAULT_STEPS
    errors = diag["cell_errors"]
    assert [e["cell"] for e in errors] == [1]
    assert any(p.startswith("max_step_error") for p in errors[0]["problems"])
    healthy = res.block("fidelity").values[0]
    assert 0.0 <= healthy <= 1.0


def test_series_scenario_keeps_fixed_grid():
    res = experiments.run_scenario("fig5", {"record_every": 5000})
    assert res.provenance["steps"] == dynamics.DEFAULT_STEPS
    assert res.diagnostics["steps_used"] == dynamics.DEFAULT_STEPS
    assert "step_passes" not in res.diagnostics


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
