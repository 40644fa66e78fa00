import json
import math
import os

import numpy as np
import pytest

from cavityghz import cli, dynamics, experiments, model, pulses
from cavityghz.errors import ValidationError


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strict_json(text):
    """json.loads that rejects NaN and Infinity, which RFC 8259 JSON lacks."""
    def reject(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=reject)


# --- quantity parsing and config resolution --------------------------------

def test_parse_quantity_forms():
    assert cli.parse_quantity("0.2") == (0.2, False)
    assert cli.parse_quantity(0.2) == (0.2, False)
    value, physical = cli.parse_quantity("2pi*3.5 MHz")
    assert physical and value == pytest.approx(2 * math.pi * 3.5e6)
    value, physical = cli.parse_quantity("1.52e5 Hz")
    assert physical and value == pytest.approx(1.52e5)
    with pytest.raises(ValidationError):
        cli.parse_quantity("fast")


def test_empty_config_defaults():
    config = cli.parse_config()
    p = config.params
    assert config.schedule == "tqd" and not config.open_system
    assert p.n_atoms == 3 and p.omega0 == 0.2 and p.delta == 2.3
    assert p.g == p.v == 1.0
    assert p.t0 == pytest.approx(0.14 * p.t_f)
    assert p.tc == pytest.approx(0.19 * p.t_f)
    assert p.alpha == pytest.approx(math.pi / 4)


def test_experimental_preset_conversion():
    config = cli.parse_config(flags={"preset": "experimental"})
    p = config.params
    assert p.g == 1.0
    assert p.gamma == pytest.approx(2.62 / 750.0)
    assert p.kappa_c == pytest.approx(3.5 / 750.0)
    assert p.kappa_f == pytest.approx(1.52e5 / (2 * math.pi * 750e6))
    assert p.gamma == pytest.approx(model.EXPERIMENTAL_RATES["gamma"])


def test_physical_units_require_physical_g():
    with pytest.raises(ValidationError, match="g is not physical"):
        cli.parse_config(flags={"gamma": "2pi*2.62 MHz"})


def test_unknown_keys_rejected_together():
    with pytest.raises(ValidationError) as err:
        cli.parse_config(file_data={"omega_zero": 0.2, "decay": 0.1})
    assert len(err.value.problems) == 2


def test_flags_override_file():
    config = cli.parse_config(
        file_data={"omega0": 0.1, "schedule": "adiabatic", "tf": 400},
        flags={"omega0": "0.25"},
    )
    assert config.params.omega0 == 0.25
    assert config.schedule == "adiabatic"
    assert config.params.t_f == 400.0


def test_config_round_trip():
    original = cli.parse_config(
        flags={"preset": "experimental", "tf": 72, "schedule": "tqd",
               "observables": "fidelity,leakage"}
    )
    again = cli.parse_config(file_data=original.to_dict())
    assert again == original


@pytest.mark.parametrize("key, value", [
    ("n", 3.5), ("steps", 1500.7), ("record_every", 100.9), ("grid", 2.5),
    ("steps", math.inf),
])
def test_config_file_integers_are_not_truncated(tmp_path, capsys, key, value):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({key: value}))
    code, _, err = run_cli(capsys, "simulate", "--config", str(path), "--out", str(tmp_path))
    assert code == 1
    payload = json.loads(err)
    assert payload["error"] == "ValidationError"
    assert payload["details"] == [f"{key} must be an integer, got {value!r}"]
    assert list(tmp_path.iterdir()) == [path]


def test_config_file_integral_floats_accepted():
    config = cli.parse_config(file_data={"n": 5.0, "steps": 4000.0, "record_every": 200.0})
    assert config.params.n_atoms == 5 and isinstance(config.params.n_atoms, int)
    assert (config.steps, config.record_every) == (4000, 200)


def test_unknown_observable_listed():
    with pytest.raises(ValidationError, match="pop:phi2"):
        cli.parse_config(flags={"observables": "fidelity,pop:phi2"})


def test_odd_atom_count_enforced(capsys):
    code, out, err = run_cli(capsys, "basis", "--n", "4")
    assert code == 1
    payload = json.loads(err)
    assert payload["error"] == "ValidationError"
    assert "odd" in payload["message"]


# --- subcommands ------------------------------------------------------------

def test_basis_dump_canonical_order(capsys):
    code, out, _ = run_cli(capsys, "basis")
    assert code == 0
    states = json.loads(out)
    assert len(states) == 11
    assert states[0]["atoms"] == ["g_o", "g_l", "g_r"]
    assert states[2]["photons"]["C1L"] == 1
    assert states[10]["atoms"] == ["g_l", "g_r", "g_o"]


def test_basis_dump_open(capsys):
    code, out, _ = run_cli(capsys, "basis", "--open")
    assert len(json.loads(out)) == 16


def test_hamiltonian_dump(capsys):
    code, out, _ = run_cli(capsys, "hamiltonian", "--g", "1.5", "--v", "0.5")
    assert code == 0
    payload = json.loads(out)
    h_c = payload["h_c"]
    assert h_c[2][1] == [1.5, 0.0]
    assert h_c[3][2] == [0.5, 0.0]
    assert payload["h_d"][1][1] == [2.3, 0.0]


def test_eigen_subcommand(capsys):
    code, out, _ = run_cli(capsys, "eigen", "--g", "1", "--v", "1")
    assert code == 0
    deviation = [l for l in out.splitlines() if l.startswith("max_eigenvalue_dev")]
    assert float(deviation[0].split(",")[1]) <= 1e-10
    angle = [l for l in out.splitlines() if l.startswith("max_principal_angle")]
    assert float(angle[0].split(",")[1]) <= 1e-8


def test_pulses_csv(capsys):
    code, out, err = run_cli(capsys, "pulses", "--kind", "tqd", "--points", "11", "--tf", "72")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,omega1,omega3,theta,theta_dot,omega_bar"
    assert len(lines) == 12
    last = [float(x) for x in lines[-1].split(",")]
    assert last[0] == pytest.approx(72.0)
    assert "max" in err  # adiabaticity diagnostic on stderr


def test_simulate_writes_trajectory(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--schedule", "tqd", "--tf", "72", "--steps", "4000",
        "--observables", "fidelity,leakage", "--out", str(tmp_path),
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["final"]["fidelity"] >= 0.98
    header = open(summary["csv"]).readline().strip()
    assert header == "t,fidelity,leakage"
    assert summary["diagnostics"]["max_norm_drift"] <= 1e-6


def test_scenario_headline_cli(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "scenario", "headline", "--steps", "4000", "--out", str(tmp_path)
    )
    assert code == 0
    summary = json.loads(out)
    fid = summary["observables"]["fidelity"]["final"]
    assert abs(fid - 0.9715) <= 0.01
    rows = open(summary["csv"]).read().strip().splitlines()
    assert rows[0] == "axis1,axis2,observable,value"
    assert any("fidelity" in r for r in rows[1:])


def test_scenario_forwards_record_every(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "scenario", "fig5", "--record-every", "1000", "--out", str(tmp_path)
    )
    assert code == 0
    summary = strict_json(out)
    rows = open(summary["csv"]).read().strip().splitlines()[1:]
    assert len([r for r in rows if ",fidelity," in r]) == 21
    assert json.load(open(summary["sidecar"]))["provenance"]["record_every"] == 1000


@pytest.mark.parametrize("argv, keys", [
    (("headline", "--steps", "2000", "--kappa-c", "0"), ["kappa_c"]),
    (("fig10a", "--grid", "3", "--tf", "50", "--schedule", "adiabatic"), ["schedule", "tf"]),
    (("headline", "--open", "--observables", "leakage"), ["observables", "open_system"]),
    (("fig9a", "--preset", "experimental"), ["preset"]),
    (("fig10a", "--grid", "3", "--record-every", "50"), ["record_every"]),
])
def test_scenario_rejects_settings_it_fixes(tmp_path, capsys, argv, keys):
    code, out, err = run_cli(capsys, "scenario", *argv, "--out", str(tmp_path))
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "ValidationError"
    assert ", ".join(keys) in payload["message"]
    assert not list(tmp_path.iterdir())


def test_scenario_rejects_config_file_settings(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"gamma": 0.01, "grid": 3}))
    out_dir = tmp_path / "out"
    code, _, err = run_cli(
        capsys, "scenario", "fig10a", "--config", str(config), "--out", str(out_dir)
    )
    assert code == 1
    assert "gamma" in json.loads(err)["message"]
    assert not out_dir.exists()


def test_sweep_subcommand(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--axis", "kappa_f:0:0.01:3", "--open",
        "--schedule", "tqd", "--tf", "40", "--steps", "2000", "--out", str(tmp_path),
    )
    assert code == 0
    summary = json.loads(out)
    rows = open(summary["csv"]).read().strip().splitlines()
    assert len(rows) == 4
    sidecar = json.loads(open(summary["sidecar"]).read())
    assert sidecar["provenance"]["axes"][0]["name"] == "kappa_f"


def test_sweep_requires_axis(capsys):
    code, _, err = run_cli(capsys, "sweep", "--tf", "40")
    assert code == 1
    assert json.loads(err)["error"] == "ValidationError"


def test_sweep_bad_axis_spec(capsys):
    code, _, err = run_cli(capsys, "sweep", "--axis", "kappa_f:0:0.01")
    assert code == 1
    assert "name:start:stop:num" in json.loads(err)["message"]


@pytest.mark.parametrize("content, detail", [
    ('{"tf": 40', "is not valid JSON"),
    (None, "cannot read config file"),
    ("[1, 2]", "must hold a JSON object, got [1, 2]"),
], ids=["malformed", "missing", "list"])
def test_config_file_errors_give_json_error(tmp_path, capsys, content, detail):
    path = tmp_path / "config.json"
    if content is not None:
        path.write_text(content)
    code, out, err = run_cli(
        capsys, "simulate", "--config", str(path), "--out", str(tmp_path / "out")
    )
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "ValidationError"
    assert detail in payload["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, config, keys", [
    (("--grid", "7", "--record-every", "50"), None, "grid, record_every"),
    ((), {"grid": 7}, "grid"),
    (("--record-every", "50"), {"tf": 40}, "record_every"),
], ids=["flags", "config-grid", "flag-record-every"])
def test_sweep_rejects_settings_it_ignores(tmp_path, capsys, argv, config, keys):
    extra = ()
    if config is not None:
        (tmp_path / "c.json").write_text(json.dumps(config))
        extra = ("--config", str(tmp_path / "c.json"))
    code, _, err = run_cli(
        capsys, "sweep", "--axis", "dg:-0.1:0.1:3", *argv, *extra, "--out", str(tmp_path / "out")
    )
    assert code == 1
    payload = json.loads(err)
    assert payload["error"] == "ValidationError"
    assert f"sweep does not take {keys}" in payload["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("spec, value", [("n:3:3.5:2", "3.5"), ("n:nan:nan:1", "nan")])
def test_sweep_rejects_fractional_atom_counts(tmp_path, capsys, spec, value):
    # linspace(3, 3.5, 2) holds 3.5, which must not run as N = 3
    code, _, err = run_cli(capsys, "sweep", "--axis", spec, "--out", str(tmp_path))
    assert code == 1
    payload = json.loads(err)
    assert payload["error"] == "ValidationError"
    assert f"axis n takes whole atom counts, got {value}" in payload["message"]
    assert not list(tmp_path.iterdir())


def test_outdir_environment_default(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path))
    config = cli.parse_config()
    assert config.out_dir == str(tmp_path)


@pytest.mark.parametrize("argv, detail", [
    (("simulate", "--steps", "abc"), "steps must be an integer"),
    (("simulate", "--tf", "x"), "tf must be a number"),
    (("scenario", "fig10a", "--grid", "x"), "grid must be an integer"),
    (("scenario", "fig10a", "--steps", "500"), "steps must be at least 1000"),
    (("sweep", "--axis", "tf:a:b:3"), "start must be a number"),
    (("sweep", "--axis", "tf:10:20:-1"), "num must be at least 1"),
    (("pulses", "--points", "abc"), "points must be an integer"),
    (("pulses", "--points", "0"), "points must be at least 1"),
])
def test_bad_numbers_give_json_error(capsys, argv, detail):
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    payload = json.loads(err)
    assert payload["error"] == "ValidationError"
    assert any(detail in p for p in payload["details"])


@pytest.mark.parametrize("argv, detail", [
    (("simulate", "--tf", "nan"), "t_f must be finite"),
    (("simulate", "--t0", "nan"), "t0 must be finite"),
    (("simulate", "--alpha", "nan"), "alpha must be finite"),
    (("simulate", "--tf", "1e400"), "t_f must be finite"),
    (("simulate", "--tc", "inf"), "tc must be finite"),
])
def test_non_finite_parameters_give_json_error(tmp_path, capsys, argv, detail):
    code, _, err = run_cli(capsys, *argv, "--out", str(tmp_path))
    assert code == 1
    payload = json.loads(err)
    assert payload["error"] == "ValidationError"
    assert any(detail in p for p in payload["details"])
    assert not list(tmp_path.iterdir())


def test_simulate_name_independent_of_out_dir(tmp_path, capsys):
    names = []
    for sub in ("a", "b"):
        code, out, _ = run_cli(
            capsys, "simulate", "--tf", "20", "--steps", "1000", "--out", str(tmp_path / sub),
        )
        assert code == 0
        names.append(os.path.basename(json.loads(out)["csv"]))
    assert names[0] == names[1]


def test_sweep_with_flagged_cell_exits_nonzero(tmp_path, capsys):
    code, out, err = run_cli(
        capsys, "sweep", "--schedule", "adiabatic", "--tf", "40",
        "--axis", "tf:40:1490:2", "--steps", "1000", "--out", str(tmp_path),
    )
    assert code == cli.EXIT_FLAGGED_CELLS
    summary = json.loads(out)
    note = json.loads(err)
    assert note["error"] == "CellErrors" and note["sidecar"] == summary["sidecar"]
    rows = [line.split(",") for line in open(summary["csv"]).read().strip().splitlines()[1:]]
    assert math.isfinite(float(rows[0][3]))
    assert rows[1][3] == "nan"
    sidecar = json.loads(open(summary["sidecar"]).read())
    (entry,) = sidecar["diagnostics"]["cell_errors"]
    assert entry["cell"] == 1 and math.isfinite(entry["values"]["fidelity"])


def test_flagged_sweep_outputs_are_strict_json(tmp_path, capsys):
    # 1000 steps of 2/g: cell 1 diverges, so its drift and values are NaN
    code, out, _ = run_cli(
        capsys, "sweep", "--tf", "40", "--axis", "tf:40:2000:2", "--steps", "1000",
        "--out", str(tmp_path),
    )
    assert code == cli.EXIT_FLAGGED_CELLS
    summary = strict_json(out)
    sidecar = strict_json(open(summary["sidecar"]).read())
    for diagnostics in (summary["diagnostics"], sidecar["diagnostics"]):
        assert diagnostics["max_norm_drift"] is None
        (entry,) = diagnostics["cell_errors"]
        assert entry["cell"] == 1 and entry["values"]["fidelity"] is None


def test_flagged_cells_counted_over_panels():
    assert cli._flagged_cells({"cell_errors": []}) == 0
    panels = {"gamma": {"cell_errors": []}, "kappa_c": {"cell_errors": [{"cell": 2}]}}
    assert cli._flagged_cells(panels) == 1


def _direct_series(config):
    """Recorded observables of one run through the single-run integrators,
    on the TimeGrid that simulate used before it became a batch of one."""
    params = config.params
    space = model.build_space(params, open_system=config.open_system)
    terms = model.hamiltonian_terms(space, params, detuned=config.schedule == pulses.TQD)
    schedule = pulses.PulseSchedule(config.schedule, params)

    def h_of_t(t):
        return terms.at(*schedule.drive(t))

    grid = dynamics.TimeGrid(params.t_f, steps=config.steps, record_every=config.record_every)
    psi0 = space.basis_vector(0)
    if config.open_system:
        traj = dynamics.evolve_lindblad(
            h_of_t, model.jump_operators(space, params), np.outer(psi0, psi0.conj()), grid
        )
    else:
        traj = dynamics.evolve_schrodinger(h_of_t, psi0, grid)
    fns = [
        experiments._observable_fn(name, config.schedule, params, space.dim)
        for name in config.observables
    ]
    values = np.array([[fn(state) for fn in fns] for state in traj.states])
    return [cli._fmt(t) for t in traj.times], values, traj.diagnostics


@pytest.mark.parametrize("argv", [
    ("--tf", "72", "--steps", "4000", "--observables", "fidelity,leakage"),
    ("--schedule", "adiabatic", "--tf", "72", "--steps", "4000",
     "--observables", "fidelity,pop:phi1,pop:phiLast"),
    ("--open", "--preset", "experimental", "--tf", "72", "--steps", "4000",
     "--observables", "fidelity,leakage"),
], ids=["closed-tqd", "closed-adiabatic", "open-experimental"])
def test_simulate_matches_single_run_integrators(tmp_path, capsys, argv):
    code, out, _ = run_cli(capsys, "simulate", *argv, "--out", str(tmp_path))
    assert code == 0
    summary = json.loads(out)
    config = cli.parse_config(flags=summary["config"])
    times, expected, diagnostics = _direct_series(config)
    rows = [line.split(",") for line in open(summary["csv"]).read().strip().splitlines()]
    assert rows[0] == ["t", *config.observables]
    assert [row[0] for row in rows[1:]] == times
    values = np.array([[float(x) for x in row[1:]] for row in rows[1:]])
    assert values.shape == expected.shape
    assert np.max(np.abs(values - expected)) <= 1e-10
    final = [summary["final"][name] for name in config.observables]
    assert np.max(np.abs(np.array(final) - expected[-1])) <= 1e-10
    for name in diagnostics:
        assert name in summary["diagnostics"]
    assert summary["diagnostics"]["steps_used"] == 4000
    assert summary["diagnostics"]["cell_errors"] == []


@pytest.mark.parametrize("record_every", ["100", "1000"])
def test_simulate_with_flagged_run_exits_nonzero(tmp_path, capsys, record_every):
    # 1000 steps of 2/g: the run diverges
    code, out, err = run_cli(
        capsys, "simulate", "--steps", "1000", "--tf", "2000",
        "--record-every", record_every, "--out", str(tmp_path),
    )
    assert code == cli.EXIT_FLAGGED_CELLS
    summary = strict_json(out)
    note = json.loads(err)
    assert note["error"] == "CellErrors" and note["csv"] == summary["csv"]
    rows = [line.split(",") for line in open(summary["csv"]).read().strip().splitlines()[1:]]
    assert all(row[1] == "nan" for row in rows)
    # JSON has no NaN: a withheld value is null
    assert summary["final"]["fidelity"] is None
    (entry,) = summary["diagnostics"]["cell_errors"]
    assert len(entry["values"]["fidelity"]) == len(rows)
    assert entry["values"]["fidelity"][0] == pytest.approx(0.5)


@pytest.mark.parametrize("argv, error", [
    (("simulate", "--delta", "-1"), "ScheduleError"),
    (("sweep", "--delta", "-1", "--axis", "dg:-0.1:0.1:2"), "ScheduleError"),
    (("sweep", "--delta", "0", "--axis", "dg:-0.1:0.1:2"), "ScheduleError"),
    (("simulate", "--omega0", "0"), "UndefinedAngleError"),
    (("sweep", "--omega0", "0", "--axis", "dg:-0.1:0.1:2"), "UndefinedAngleError"),
])
def test_bad_shortcut_drive_gives_json_error(tmp_path, capsys, argv, error):
    code, _, err = run_cli(capsys, *argv, "--out", str(tmp_path))
    assert code == 1
    assert json.loads(err)["error"] == error
    assert not list(tmp_path.iterdir())


# --- error-controlled step count of the trajectory ---------------------------

def _trajectory(capsys, tmp_path, *argv):
    code, out, _ = run_cli(capsys, "simulate", *argv, "--out", str(tmp_path))
    summary = strict_json(out)
    rows = [line.split(",") for line in open(summary["csv"]).read().strip().splitlines()]
    return code, summary, rows


def test_simulate_step_control_matches_fine_fixed_grid(tmp_path, capsys):
    code, summary, rows = _trajectory(capsys, tmp_path / "a", "--tf", "72")
    assert code == 0
    diag = summary["diagnostics"]
    assert diag["step_passes"] == [{"n_atoms": 3, "steps": [200, 400]}]
    assert diag["steps_used"] == 400
    assert 0.0 < diag["max_step_error"] <= dynamics.STEP_TOL
    assert summary["config"]["steps"] is None and summary["method"] == "dop853"
    # twice the steps, and twice the stride, of the fixed grid: same samples
    _, _, fine = _trajectory(
        capsys, tmp_path / "b", "--tf", "72", "--steps", "40000", "--record-every", "200"
    )
    _, _, fixed = _trajectory(capsys, tmp_path / "c", "--tf", "72", "--steps", "20000")
    assert len(rows) == 202
    assert [r[0] for r in rows] == [r[0] for r in fine] == [r[0] for r in fixed]
    values = np.array([float(r[1]) for r in rows[1:]])
    assert np.max(np.abs(values - [float(r[1]) for r in fine[1:]])) <= 1e-8


@pytest.mark.parametrize("argv, steps", [
    (("--steps", "4000"), 4000),
    (("--record-every", "300"), dynamics.DEFAULT_STEPS),
], ids=["explicit-steps", "indivisible-stride"])
def test_simulate_fixed_grid_fallbacks(tmp_path, capsys, argv, steps):
    code, summary, rows = _trajectory(capsys, tmp_path, "--tf", "72", *argv)
    assert code == 0
    assert summary["config"]["steps"] == steps and summary["method"] == "rk4"
    diag = summary["diagnostics"]
    assert diag["steps_used"] == steps
    assert "step_passes" not in diag and "max_step_error" not in diag
    assert float(rows[-1][0]) == 72.0


def test_simulate_flags_unresolved_series_at_cap(tmp_path, capsys):
    # steps of about 3.9/g even at the cap: every pass runs and the run diverges
    code, summary, rows = _trajectory(
        capsys, tmp_path, "--schedule", "adiabatic", "--tf", "100000"
    )
    assert code == cli.EXIT_FLAGGED_CELLS
    diag = summary["diagnostics"]
    assert diag["step_passes"][0]["steps"] == [200 * 2**k for k in range(8)]
    assert diag["steps_used"] == 25600
    assert all(row[1] == "nan" for row in rows[1:])
    assert summary["final"]["fidelity"] is None
    (entry,) = diag["cell_errors"]
    assert any(p.startswith("max_step_error") for p in entry["problems"])
