"""Fixed calibration kernels that measure how fast the machine runs right now.

Shared machines change speed by tens of percent from one second to the next,
and by up to a factor of two between quiet and busy periods (other tenants
on the same cores), which no amount of repetition inside one run averages
out.  Code of different kinds speeds up by different amounts when the
machine does, so each workload has a kernel with the shape of its own inner
loop, written in plain numpy and frozen here, independent of the program
under test (a program change cannot move it):

* ``scalar``: RK4 steps of an 11-state vector with the drive evaluated by
  numpy ufuncs on scalars and the Hamiltonian assembled per stage, as in a
  single ``simulate`` run;
* ``closed_batch``: lockstep RK4 steps of 121 state vectors with the drive
  evaluated over (3, 121) stage times, as in a closed surface;
* ``open_batch``: lockstep RK4 steps of 25 16x16 density matrices with
  single-entry dissipation channels, as in an open surface.

``SpeedSampler`` runs a kernel from a timer signal four times a second while
a repetition runs, so the samples see the same machine the repetition saw;
the time spent in the handler is left out of the repetition's wall time.
The speed factor ``REFERENCE_S[kernel] / mean(samples)`` scales a measured
time to a machine of reference speed.
"""

from __future__ import annotations

import signal
from time import perf_counter

import numpy as np

# Typical kernel times on a shared 2-vCPU x86-64 VM (Python 3.11, numpy 2.4,
# OpenBLAS on one thread); they set the scale only, the ratio is what counts.
REFERENCE_S = {"scalar": 0.012, "closed_batch": 0.011, "open_batch": 0.016}
SAMPLE_INTERVAL_S = 0.25


def _chain(dim: int) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """A real symmetric chain Hamiltonian and two end-drive matrix entries each way."""
    h = np.zeros((dim, dim), dtype=complex)
    for i in range(dim - 1):
        h[i, i + 1] = h[i + 1, i] = 1.0 if i % 2 else 0.8
    h += np.diag(2.3 * (np.arange(dim) % 2))
    return h, [(0, 1), (1, 0), (dim - 1, dim - 2), (dim - 2, dim - 1)]


def _drive(t, t_f):
    """Gaussian pair and counter-diabatic amplitude, broadcasting over t."""
    late = t - 0.14 * t_f - t_f / 2.0
    early = t + 0.14 * t_f - t_f / 2.0
    tc = 0.19 * t_f
    g_late = 0.2 * np.exp(-((late / tc) ** 2))
    g_early = 0.2 * np.exp(-((early / tc) ** 2))
    om1 = np.sin(0.785) * g_late
    om3 = g_early + np.cos(0.785) * g_late
    dom1 = np.sin(0.785) * (-2.0 * late / tc**2 * g_late)
    dom3 = -2.0 * early / tc**2 * g_early + np.cos(0.785) * (-2.0 * late / tc**2 * g_late)
    theta_dot = (dom1 * om3 - om1 * dom3) / (om1**2 + om3**2)
    return np.sqrt(6.9 * np.clip(theta_dot, 0.0, None))


def _stage_times(step, t_end):
    frac = 0.4 + step / 20000
    return np.stack([frac * t_end, (frac + 0.5 / 20000) * t_end, (frac + 1 / 20000) * t_end])


def _scalar(steps=200) -> bool:
    h0, entries = _chain(11)
    d = np.zeros_like(h0)
    for r, c in entries:
        d[r, c] = 1.0
    psi = np.zeros(11, dtype=complex)
    psi[0] = 1.0
    dt = 72.0 / 20000
    for step in range(steps):
        t = 30.0 + step * dt
        h = [h0 + float(_drive(np.asarray(s), 72.0)) * d for s in (t, t + dt / 2, t + dt)]
        k1 = -1j * (h[0] @ psi)
        k2 = -1j * (h[1] @ (psi + 0.5 * dt * k1))
        k3 = -1j * (h[1] @ (psi + 0.5 * dt * k2))
        k4 = -1j * (h[2] @ (psi + dt * k3))
        psi = psi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return bool(np.isfinite(psi).all())


def _closed_batch(steps=45, cells=121) -> bool:
    h0, entries = _chain(11)
    static = h0 * np.linspace(0.9, 1.1, cells)[:, None, None]
    psi = np.zeros((cells, 11), dtype=complex)
    psi[:, 0] = 1.0
    t_end = np.linspace(70.0, 74.0, cells)
    dt = (t_end / 20000)[:, None]

    def apply_h(c, y):
        out = np.matmul(static, y[..., None])[..., 0]
        for r, col in entries:
            out[:, r] += c * y[:, col]
        return -1j * out

    for step in range(steps):
        c0, c_mid, c1 = _drive(_stage_times(step, t_end), t_end)
        k1 = apply_h(c0, psi)
        k2 = apply_h(c_mid, psi + 0.5 * dt * k1)
        k3 = apply_h(c_mid, psi + 0.5 * dt * k2)
        k4 = apply_h(c1, psi + dt * k3)
        psi = psi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return bool(np.isfinite(psi).all())


def _open_batch(steps=16, cells=25) -> bool:
    h0, entries = _chain(16)
    static = np.broadcast_to(h0, (cells, 16, 16))
    rho = np.zeros((cells, 16, 16), dtype=complex)
    rho[:, 0, 0] = 1.0
    src, tgt = np.arange(1, 16), np.arange(0, 15)
    w = np.full((cells, 15), 1e-3)
    in_scatter = np.zeros((16, 15))
    in_scatter[tgt, np.arange(15)] = 1.0
    g_diag = w @ np.eye(16)[src]
    anticomm = 0.5 * (g_diag[:, :, None] + g_diag[:, None, :])
    t_end = np.full(cells, 72.0)
    dt = (t_end / 20000)[:, None, None]
    idx = np.arange(16)

    def rhs(c, y):
        m = np.matmul(static, y)
        for r, col in entries:
            m[:, r, :] += c[:, None] * y[:, col, :]
        out = -1j * (m - np.swapaxes(m, -1, -2).conj())
        out -= anticomm * y
        out[:, idx, idx] += (y[:, src, src].real * w) @ in_scatter.T
        return out

    for step in range(steps):
        c0, c_mid, c1 = _drive(_stage_times(step, t_end), t_end)
        k1 = rhs(c0, rho)
        k2 = rhs(c_mid, rho + 0.5 * dt * k1)
        k3 = rhs(c_mid, rho + 0.5 * dt * k2)
        k4 = rhs(c1, rho + dt * k3)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return bool(np.isfinite(rho).all())


KERNELS = {"scalar": _scalar, "closed_batch": _closed_batch, "open_batch": _open_batch}


def kernel(name: str) -> float:
    """Run the named kernel once and return its wall time in seconds."""
    start = perf_counter()
    finite = KERNELS[name]()
    elapsed = perf_counter() - start
    if not finite:
        raise ArithmeticError(f"calibration kernel {name} diverged")
    return elapsed


def speed_factor(name: str, samples: list[float]) -> float:
    return REFERENCE_S[name] / (sum(samples) / len(samples))


class SpeedSampler:
    """Samples a kernel from SIGALRM four times a second while entered.

    ``stolen_s`` accumulates the time spent in the handler, which callers
    subtract from the wall time of what they measured.
    """

    def __init__(self, name: str):
        self.name = name
        self.samples: list[float] = []
        self.stolen_s = 0.0
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame):
        start = perf_counter()
        self.samples.append(kernel(self.name))
        self.stolen_s += perf_counter() - start

    def __enter__(self):
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def work_time(self) -> float:
        """A clock that stands still while the handler runs."""
        return perf_counter() - self.stolen_s
