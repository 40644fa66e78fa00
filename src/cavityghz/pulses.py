"""Pulse synthesis: fractional-STIRAP pair and the counter-diabatic drive.

The adiabatic route uses a delayed Gaussian pair

    Omega_1(t) = sin(alpha) Omega_0 exp[-(t - t0 - t_f/2)^2 / tc^2]
    Omega_3(t) = Omega_0 exp[-(t + t0 - t_f/2)^2 / tc^2]
              + cos(alpha) Omega_0 exp[-(t - t0 - t_f/2)^2 / tc^2]

so the mixing angle theta = atan(Omega_1/Omega_3) runs from 0 to alpha over
the window.  The shortcut route drives both lasers with the single amplitude
Omega_bar(t) = sqrt(N * delta * dtheta/dt), which makes the adiabatically
eliminated end-state coupling equal exactly -dtheta/dt at every instant, i.e.
the counter-diabatic Hamiltonian of the dark-state family.

Derivatives are evaluated in closed form (Gaussian calculus); the square
root in the shortcut pulse would amplify finite-difference noise wherever
dtheta/dt approaches zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ScheduleError, UndefinedAngleError
from .model import SystemParams
from .zeno import bright_normalizer

ADIABATIC = "adiabatic"
TQD = "tqd"
KINDS = (ADIABATIC, TQD)


def stirap_components(t, omega0, t0, tc, t_f, alpha):
    """Gaussian pulse pair and its time derivatives; broadcasts over arrays."""
    late = t - t0 - t_f / 2.0
    early = t + t0 - t_f / 2.0
    g_late = omega0 * np.exp(-((late / tc) ** 2))
    g_early = omega0 * np.exp(-((early / tc) ** 2))
    om1 = np.sin(alpha) * g_late
    om3 = g_early + np.cos(alpha) * g_late
    dg_late = -2.0 * late / tc**2 * g_late
    dg_early = -2.0 * early / tc**2 * g_early
    dom1 = np.sin(alpha) * dg_late
    dom3 = dg_early + np.cos(alpha) * dg_late
    return om1, om3, dom1, dom3


def stirap_pair(t, params: SystemParams):
    """Rabi frequency pair (Omega_1, Omega_3) at time t."""
    om1, om3, _, _ = stirap_components(
        t, params.omega0, params.t0, params.tc, params.t_f, params.alpha
    )
    return om1, om3


def _theta_dot(om1, om3, dom1, dom3):
    """dtheta/dt = (dOmega_1 Omega_3 - Omega_1 dOmega_3) / (Omega_1^2 + Omega_3^2)."""
    norm_sq = om1**2 + om3**2
    if np.any(norm_sq == 0.0):
        raise UndefinedAngleError(
            "mixing angle undefined where both Rabi frequencies vanish"
        )
    return (dom1 * om3 - om1 * dom3) / norm_sq


def mixing_angle(t, params: SystemParams):
    """Mixing angle theta = atan2(Omega_1, Omega_3) and its analytic derivative."""
    om1, om3, dom1, dom3 = stirap_components(
        t, params.omega0, params.t0, params.tc, params.t_f, params.alpha
    )
    theta_dot = _theta_dot(om1, om3, dom1, dom3)
    return np.arctan2(om1, om3), theta_dot


def cdd_amplitude(theta_dot, delta, n_atoms, eps):
    """Counter-diabatic drive sqrt(N * delta * max(theta_dot, 0)).

    The construction presumes a positive detuning and a monotone mixing
    angle: delta <= 0, or magnitudes of theta_dot below -eps, signal a
    schedule the formula does not cover.
    """
    if np.any(np.asarray(delta) <= 0):
        raise ScheduleError(
            f"shortcut drive requires delta > 0, got {float(np.min(delta))}"
        )
    theta_dot = np.asarray(theta_dot, dtype=float)
    if np.any(theta_dot < -eps):
        worst = float(np.min(theta_dot))
        raise ScheduleError(
            f"counter-diabatic pulse undefined for dtheta/dt < 0 (found {worst:.3e}); "
            "the schedule must keep the mixing angle non-decreasing"
        )
    scale = np.asarray(n_atoms, dtype=float) * delta
    out = np.sqrt(scale * np.clip(theta_dot, 0.0, None))
    return out if out.ndim else float(out)


def tqd_pulse(t, params: SystemParams):
    """Shortcut drive amplitude Omega_bar(t) = sqrt(N delta dtheta/dt).

    Like the other pulse formulas it broadcasts: ``params`` may hold its
    pulse fields as arrays, one value per sweep cell.
    """
    theta_dot = _theta_dot(*stirap_components(
        t, params.omega0, params.t0, params.tc, params.t_f, params.alpha
    ))
    eps = 1e-12 * params.omega0 / params.t_f
    return cdd_amplitude(theta_dot, params.delta, params.n_atoms, eps)


@dataclass(frozen=True)
class PulseSample:
    omega1: np.ndarray | float
    omega3: np.ndarray | float
    theta: np.ndarray | float
    theta_dot: np.ndarray | float
    omega_bar: np.ndarray | float | None


@dataclass(frozen=True)
class PulseSchedule:
    """Time-dependent drive for one run, or for a batch of sweep cells when
    ``params`` holds per-cell arrays and the times broadcast against them.

    ``amplitude_scale`` multiplies the executed drive amplitudes only (a
    laser-power error); the designed mixing angle is unaffected, since theta
    depends on the ratio of the two pulses.
    """

    kind: str
    params: SystemParams
    amplitude_scale: float = 1.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ScheduleError(f"unknown schedule kind {self.kind!r}; expected one of {KINDS}")

    def sample(self, t) -> PulseSample:
        om1, om3 = stirap_pair(t, self.params)
        theta, theta_dot = mixing_angle(t, self.params)
        omega_bar = tqd_pulse(t, self.params) if self.kind == TQD else None
        return PulseSample(om1, om3, theta, theta_dot, omega_bar)

    def drive(self, t):
        """Amplitudes applied to the two laser couplings at time t."""
        if self.kind == ADIABATIC:
            om1, om3 = stirap_pair(t, self.params)
            return self.amplitude_scale * om1, self.amplitude_scale * om3
        bar = tqd_pulse(t, self.params)
        scaled = self.amplitude_scale * bar
        return scaled, scaled


def adiabaticity_report(params: SystemParams) -> dict[str, float]:
    """Worst ratio of the dark-bright mixing rate to the effective gap.

    The transfer is adiabatic when |<dark | d/dt bright>| = |theta_dot|/sqrt(2)
    stays far below the gap N1 * Omega; the maximum of their ratio over
    10001 points of the window quantifies how well a given t_f satisfies that.
    """
    t = np.linspace(0.0, params.t_f, 10001)
    om1, om3 = stirap_pair(t, params)
    _, theta_dot = mixing_angle(t, params)
    n1 = bright_normalizer(params.g, params.v, params.n_atoms)
    gap = n1 * np.sqrt(om1**2 + om3**2)
    ratio = np.abs(theta_dot) / np.sqrt(2.0) / np.where(gap > 0, gap, np.inf)
    i = int(np.argmax(ratio))
    return {"max_ratio": float(ratio[i]), "argmax_t": float(t[i])}
