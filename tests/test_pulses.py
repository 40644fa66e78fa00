import numpy as np
import pytest

from cavityghz import model, pulses
from cavityghz.errors import ScheduleError, UndefinedAngleError


def test_pump_peak_value():
    params = model.SystemParams(omega0=1.0).with_t_f(100.0)
    om1, _ = pulses.stirap_pair(params.t_f / 2 + params.t0, params)
    assert om1 == pytest.approx(np.sin(np.pi / 4), abs=1e-12)  # 0.7071


def test_stokes_value_at_pump_peak():
    params = model.SystemParams(omega0=1.0).with_t_f(100.0)
    _, om3 = pulses.stirap_pair(params.t_f / 2 + params.t0, params)
    expected = np.exp(-((2 * 0.14 / 0.19) ** 2)) + np.cos(np.pi / 4)
    assert om3 == pytest.approx(expected, abs=1e-12)  # ~0.8211


def test_boundary_conditions():
    report = pulses.boundary_report(model.SystemParams().with_t_f(72.0))
    assert report["start_ratio"] <= 1e-3
    assert report["end_ratio_error"] <= 0.05


def test_mixing_angle_endpoints():
    params = model.SystemParams().with_t_f(400.0)
    theta0, _ = pulses.mixing_angle(0.0, params)
    theta_f, _ = pulses.mixing_angle(params.t_f, params)
    assert theta0 < 1e-3
    assert theta_f == pytest.approx(np.pi / 4, abs=2e-3)


def test_theta_monotone_on_dense_grid():
    params = model.SystemParams().with_t_f(72.0)
    t = np.linspace(0.0, params.t_f, 10_000)
    theta, theta_dot = pulses.mixing_angle(t, params)
    assert np.all(np.diff(theta) >= 0)
    assert np.all(theta_dot >= 0)
    assert np.all(theta <= params.alpha + 1e-12)


def test_theta_dot_matches_finite_difference():
    params = model.SystemParams().with_t_f(72.0)
    t = np.linspace(0.05, 0.95, 61) * params.t_f
    h = 1e-6 * params.t_f
    _, theta_dot = pulses.mixing_angle(t, params)
    tp, _ = pulses.mixing_angle(t + h, params)
    tm, _ = pulses.mixing_angle(t - h, params)
    fd = (tp - tm) / (2 * h)
    assert np.max(np.abs(theta_dot - fd) / np.abs(fd)) <= 1e-6


def test_cdd_amplitude_arithmetic():
    assert pulses.cdd_amplitude(0.01, 2.3, 3, 1e-15) == pytest.approx(
        np.sqrt(0.069)
    )  # ~0.2627
    assert pulses.cdd_amplitude(0.0, 2.3, 3, 1e-15) == 0.0


def test_reconstruction_identity_pointwise():
    # the squared drive divided by the elimination energy reproduces the
    # mixing-angle rate exactly
    params = model.SystemParams(delta=2.3).with_t_f(72.0)
    t = np.linspace(0.0, params.t_f, 2001)
    _, theta_dot = pulses.mixing_angle(t, params)
    bar = pulses.tqd_pulse(t, params)
    recon = bar**2 / (3 * params.delta)
    scale = np.max(theta_dot)
    assert np.max(np.abs(recon - theta_dot)) <= 1e-12 * scale


def test_negative_mixing_rate_rejected():
    # reversed pulse order sweeps the angle backwards, which the
    # counter-diabatic construction does not cover
    params = model.SystemParams(t_f=72.0, t0=-0.14 * 72.0)
    t = np.linspace(0.0, params.t_f, 101)
    with pytest.raises(ScheduleError, match="non-decreasing"):
        pulses.tqd_pulse(t, params)


def test_tqd_requires_positive_detuning():
    params = model.SystemParams(delta=0.0)
    with pytest.raises(ScheduleError, match="delta"):
        pulses.tqd_pulse(1.0, params)
    # the batched drive of a sweep passes one detuning per cell
    with pytest.raises(ScheduleError, match="delta > 0"):
        pulses.cdd_amplitude(np.full((4, 2), 0.01), np.array([2.3, 0.0]), 3, 1e-15)


def test_undefined_angle_when_drive_vanishes():
    params = model.SystemParams(omega0=0.0)
    with pytest.raises(UndefinedAngleError):
        pulses.mixing_angle(params.t_f / 2, params)


def test_schedule_kinds_and_drive():
    params = model.SystemParams().with_t_f(72.0)
    t = params.t_f / 2
    adiab = pulses.PulseSchedule(pulses.ADIABATIC, params)
    om1, om3 = adiab.drive(t)
    assert (om1, om3) == pulses.stirap_pair(t, params)
    tqd = pulses.PulseSchedule(pulses.TQD, params)
    d1, dn = tqd.drive(t)
    assert d1 == dn == pulses.tqd_pulse(t, params)
    with pytest.raises(ScheduleError):
        pulses.PulseSchedule("other", params)


def test_amplitude_scale_multiplies_drive_only():
    params = model.SystemParams().with_t_f(72.0)
    base = pulses.PulseSchedule(pulses.TQD, params)
    scaled = pulses.PulseSchedule(pulses.TQD, params, amplitude_scale=1.1)
    t = np.linspace(0.0, params.t_f, 7)
    np.testing.assert_allclose(scaled.drive(t)[0], 1.1 * np.asarray(base.drive(t)[0]))
    # the designed mixing angle is a pulse ratio, untouched by the scale
    assert scaled.sample(t[3]).theta == base.sample(t[3]).theta


def test_sample_bundles_everything():
    params = model.SystemParams().with_t_f(72.0)
    sample = pulses.PulseSchedule(pulses.TQD, params).sample(30.0)
    assert sample.omega_bar == pytest.approx(
        np.sqrt(3 * params.delta * sample.theta_dot)
    )
    adiab = pulses.PulseSchedule(pulses.ADIABATIC, params).sample(30.0)
    assert adiab.omega_bar is None


def test_adiabaticity_report_scales_with_time():
    slow = pulses.adiabaticity_report(model.SystemParams().with_t_f(400.0))
    fast = pulses.adiabaticity_report(model.SystemParams().with_t_f(72.0))
    assert 0 < slow["max_ratio"] < fast["max_ratio"]
