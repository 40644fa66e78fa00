"""Fixed-step RK4 time evolution for state vectors and density matrices.

Fixed stepping keeps runs bit-reproducible and lets independent sweep cells
evolve in lockstep as stacked arrays.  No renormalization is applied during
integration; norm/trace drift is tracked as a diagnostic and turned into an
error (with a suggested step count) when it exceeds tolerance.

A batch of one state vector (a single run, or one cell per atom count) of
dimension up to PROPAGATOR_MAX_DIM takes the same RK4 steps in another
order.  The drive of a block of steps gives each step's exact RK4 map P, a
d x d matrix, from three stacked matrix products, and the state then
advances by one product psi <- P psi per step.  A step in lockstep costs
about thirty small array operations instead, so for one cell of the N = 3
chain the loop runs over three times faster.  Batches of two or more cells
stay in lockstep: the propagators cost about 3d/4 times the stage
arithmetic per cell, which grows with the batch while the lockstep overhead
does not.  Measured at 2500 steps and d = 11 with the propagators stacked
over cells, 16 cells take 0.55 s against 0.14 s in lockstep and 121 cells
2.1 s against 0.87 s; two to four cells would still gain, but that tie
moves with the machine.  Open runs keep their lockstep loop: the
chain-block master equation of N = 3 is a 126-dimensional linear map per
step, about 16k multiply-adds to apply against 5.3k for its four stages
(11^3 each).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import IntegrationError, ValidationError
from .model import JumpOperator

NORM_TOL = 1e-6
TRACE_TOL = 1e-6
POSITIVITY_TOL = 1e-6

# Step counts.  DEFAULT_STEPS is the fixed grid of runs that record a time
# series or name no step count on the single-run path, and the cap of the
# step-doubling control for final-value sweeps; MIN_STEPS is the smallest
# explicit step count accepted.  STEP_TOL bounds the Richardson estimate of
# the error of every final observable of an error-controlled sweep.
DEFAULT_STEPS = 20000
MIN_STEPS = 1000
STEP_TOL = 1e-8


@dataclass(frozen=True)
class TimeGrid:
    """Integration window [t_start, t_end] with a fixed step count.

    Recorded samples always include both endpoints.
    """

    t_end: float
    steps: int = DEFAULT_STEPS
    record_every: int = 100
    t_start: float = 0.0

    def __post_init__(self):
        problems = []
        if self.t_end <= self.t_start:
            problems.append(f"t_end must exceed t_start, got [{self.t_start}, {self.t_end}]")
        if self.steps < MIN_STEPS:
            problems.append(f"steps must be at least {MIN_STEPS}, got {self.steps}")
        if self.record_every < 1:
            problems.append(f"record_every must be positive, got {self.record_every}")
        if problems:
            raise ValidationError(problems)

    @property
    def dt(self) -> float:
        return (self.t_end - self.t_start) / self.steps

    def record_steps(self) -> list[int]:
        marks = list(range(0, self.steps, self.record_every))
        marks.append(self.steps)
        return marks

    def times(self, indices=None) -> np.ndarray:
        if indices is None:
            indices = self.record_steps()
        return self.t_start + np.asarray(indices) * self.dt


@dataclass
class Trajectory:
    """Recorded evolution plus solver diagnostics and run metadata."""

    grid: TimeGrid
    times: np.ndarray
    states: np.ndarray
    is_density: bool
    diagnostics: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


def _refinement_hint(steps: int, drift: float, tol: float) -> str:
    """Advice that closes an IntegrationError; a non-finite drift is a divergence."""
    if not np.isfinite(drift):
        return "the run diverged (the step is beyond the RK4 stability limit); increase steps"
    # RK4 global error ~ dt^4: scale the step count accordingly, with margin
    factor = (max(drift, tol) / tol) ** 0.25
    return f"increase steps to at least {int(np.ceil(steps * factor * 1.2))}"


def _check_hermitian_at(h_of_t, times):
    for t in times:
        mat = h_of_t(t)
        drift = np.max(np.abs(mat - mat.conj().T))
        if drift > 1e-10:
            raise ValidationError(f"Hamiltonian at t={t:.6g} is not Hermitian (drift {drift:.3e})")


def evolve_schrodinger(h_of_t, psi0, grid: TimeGrid, metadata=None, check_hermitian=True) -> Trajectory:
    """Integrate i dpsi/dt = H(t) psi with fixed-step RK4.

    ``h_of_t`` maps a time to the Hamiltonian matrix.  Raises
    ``IntegrationError`` naming the required step count if the norm drifts
    by more than 1e-6 at a record point, or saying the run diverged if the
    norm is no longer finite.
    """
    psi = np.asarray(psi0, dtype=complex).copy()
    norm0 = np.linalg.norm(psi)
    if abs(norm0 - 1.0) > 1e-9:
        raise ValidationError(f"initial state must be normalized, |psi| = {norm0:.12f}")
    if check_hermitian:
        _check_hermitian_at(h_of_t, (grid.t_start, (grid.t_start + grid.t_end) / 2, grid.t_end))

    dt = grid.dt
    record = set(grid.record_steps())
    states = [psi.copy()]
    max_drift = 0.0
    t = grid.t_start
    for step in range(grid.steps):
        k1 = -1j * (h_of_t(t) @ psi)
        h_mid = h_of_t(t + 0.5 * dt)
        k2 = -1j * (h_mid @ (psi + (0.5 * dt) * k1))
        k3 = -1j * (h_mid @ (psi + (0.5 * dt) * k2))
        k4 = -1j * (h_of_t(t + dt) @ (psi + dt * k3))
        psi = psi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = grid.t_start + (step + 1) * dt
        if (step + 1) in record:
            drift = abs(np.linalg.norm(psi) - 1.0)
            max_drift = max(max_drift, drift)
            # NaN-safe: a diverged state has NaN drift
            if not drift <= NORM_TOL:
                raise IntegrationError(
                    f"norm drift {drift:.3e} exceeds {NORM_TOL:g} at t={t:.6g}; "
                    + _refinement_hint(grid.steps, drift, NORM_TOL)
                )
            states.append(psi.copy())

    return Trajectory(
        grid=grid,
        times=grid.times(),
        states=np.array(states),
        is_density=False,
        diagnostics={"max_norm_drift": max_drift},
        metadata=dict(metadata or {}),
    )


def _normalize_jumps(jumps, dim):
    mats, rates, labels = [], [], []
    for j in jumps:
        if isinstance(j, JumpOperator):
            mats.append(np.asarray(j.operator.mat, dtype=complex))
            rates.append(float(j.rate))
            labels.append(j.label)
        else:
            op, rate = j
            mats.append(np.asarray(getattr(op, "mat", op), dtype=complex))
            rates.append(float(rate))
            labels.append("")
    for m in mats:
        if m.shape != (dim, dim):
            raise ValidationError(f"jump operator shape {m.shape} does not match dimension {dim}")
    return np.array(mats).reshape(len(mats), dim, dim), np.array(rates), labels


def _single_entry_channels(mats, rates):
    """Decompose jumps of the form amp*|target><source| for the fast path."""
    sources, targets, weights = [], [], []
    for mat, rate in zip(mats, rates):
        nz = np.argwhere(mat != 0)
        if len(nz) != 1:
            return None
        tgt, src = nz[0]
        sources.append(src)
        targets.append(tgt)
        weights.append(rate * abs(mat[tgt, src]) ** 2)
    # typed, so that an empty jump list still gives index arrays
    sources, targets = np.array(sources, dtype=int), np.array(targets, dtype=int)
    return sources, targets, np.array(weights, dtype=float)


class LindbladRHS:
    """Right-hand side of the master equation with precomputed channel data.

    drho/dt = -i [H, rho] + sum_k (rate_k/2) (2 L rho L+ - L+ L rho - rho L+ L)

    The anticommutator uses the precomputed G = sum rate L+ L.  When every
    collapse operator has a single nonzero entry (always true for this model:
    one decaying state per channel) the sandwich term reduces to a diagonal
    scatter, which is also what the batched integrator relies on.
    """

    def __init__(self, h_of_t, jumps, dim):
        self.h_of_t = h_of_t
        self.mats, self.rates, _ = _normalize_jumps(jumps, dim)
        self.g_op = np.einsum("k,kji,kjl->il", self.rates, self.mats.conj(), self.mats)
        self.channels = _single_entry_channels(self.mats, self.rates)

    def sandwich(self, rho):
        if self.channels is not None:
            src, tgt, w = self.channels
            out = np.zeros_like(rho)
            contrib = w * rho[..., src, src]
            if rho.ndim == 2:
                np.add.at(out, (tgt, tgt), contrib)
            else:
                np.add.at(out, (slice(None), tgt, tgt), contrib)
            return out
        tmp = np.einsum("kij,...jl->...kil", self.mats, rho)
        return np.einsum("k,...kij,klj->...il", self.rates, tmp, self.mats.conj())

    def __call__(self, t, rho):
        m = self.h_of_t(t) @ rho
        out = -1j * (m - np.swapaxes(m, -1, -2).conj())
        out += self.sandwich(rho)
        gr = self.g_op @ rho
        out -= 0.5 * (gr + np.swapaxes(gr, -1, -2).conj())
        return out


def evolve_lindblad(h_of_t, jumps, rho0, grid: TimeGrid, metadata=None, check_hermitian=True) -> Trajectory:
    """Integrate the master equation with fixed-step RK4.

    ``jumps`` is a list of JumpOperator (or (matrix, rate) pairs).  Trace
    drift beyond 1e-6 or an eigenvalue below -1e-6 at a record point raises
    IntegrationError with a suggested refinement; a density matrix that is
    no longer finite raises one saying the run diverged.
    """
    rho = np.asarray(rho0, dtype=complex).copy()
    dim = rho.shape[0]
    if rho.shape != (dim, dim):
        raise ValidationError(f"density matrix must be square, got {rho.shape}")
    if np.max(np.abs(rho - rho.conj().T)) > 1e-10:
        raise ValidationError("initial density matrix must be Hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-9:
        raise ValidationError(f"initial density matrix must have unit trace, got {np.trace(rho):.9f}")
    if np.min(np.linalg.eigvalsh(rho)) < -1e-10:
        raise ValidationError("initial density matrix must be positive semidefinite")
    if check_hermitian:
        _check_hermitian_at(h_of_t, (grid.t_start, (grid.t_start + grid.t_end) / 2, grid.t_end))

    rhs = LindbladRHS(h_of_t, jumps, dim)
    dt = grid.dt
    record = set(grid.record_steps())
    states = [rho.copy()]
    max_trace_drift = 0.0
    max_herm_drift = 0.0
    min_eig = float(np.min(np.linalg.eigvalsh(rho)))
    t = grid.t_start
    for step in range(grid.steps):
        k1 = rhs(t, rho)
        k2 = rhs(t + 0.5 * dt, rho + (0.5 * dt) * k1)
        k3 = rhs(t + 0.5 * dt, rho + (0.5 * dt) * k2)
        k4 = rhs(t + dt, rho + dt * k3)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = grid.t_start + (step + 1) * dt
        if (step + 1) in record:
            trace_drift = abs(np.trace(rho).real - 1.0)
            herm_drift = float(np.max(np.abs(rho - rho.conj().T)))
            eig_min = np.nan  # eigvalsh cannot take a diverged matrix
            if np.isfinite(rho).all():
                eig_min = float(np.min(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))))
            max_trace_drift = max(max_trace_drift, trace_drift)
            max_herm_drift = max(max_herm_drift, herm_drift)
            min_eig = min(min_eig, eig_min)
            # NaN-safe: a diverged matrix has NaN drift or eigenvalue
            if not (trace_drift <= TRACE_TOL and eig_min >= -POSITIVITY_TOL):
                raise IntegrationError(
                    f"trace drift {trace_drift:.3e} / min eigenvalue {eig_min:.3e} out of "
                    f"tolerance at t={t:.6g}; "
                    + _refinement_hint(
                        grid.steps, np.maximum(trace_drift, -eig_min), TRACE_TOL
                    )
                )
            states.append(rho.copy())

    return Trajectory(
        grid=grid,
        times=grid.times(),
        states=np.array(states),
        is_density=True,
        diagnostics={
            "max_trace_drift": max_trace_drift,
            "max_hermiticity_drift": max_herm_drift,
            "min_density_eigenvalue": min_eig,
        },
        metadata=dict(metadata or {}),
    )


# --- batched integrators -----------------------------------------------
#
# Sweep cells are independent, so they evolve in lockstep on a shared
# fractional time grid: cell c lives on [0, t_end[c]] with its own dt.
# The Hamiltonian is  H_c(t) = static[c] + sum_k coeff_k(t)[c] * op_k
# where the ops are shared structure matrices and the coefficients come
# from the vectorized pulse formulas.  The drive is evaluated once per chunk
# of steps, on an (n, 3, cells) array of the start, midpoint and end times
# of n steps (the drive function must broadcast over it), and the drive ops
# touch only a few matrix entries, so each step (or block of steps) rewrites
# those entries of its stage Hamiltonians and leaves the static part alone.

# Drive time samples per drive_fn call: a chunk holds as many steps as keep
# 3 * steps * cells within this budget (at least one step).  Memory grows
# with the chunk, the Python overhead of the pulse formulas shrinks with it.
DRIVE_CHUNK_SAMPLES = 12288


@dataclass
class BatchResult:
    finals: np.ndarray                 # (cells, ...) state vectors or densities
    records: np.ndarray | None         # (cells, n_rec, ...) if recording was on
    record_fractions: np.ndarray | None
    diagnostics: dict


def _record_marks(steps, record_every):
    if record_every is None:
        return None
    return set(range(0, steps, record_every)) | {steps}


def _stage_blocks(static, drive_ops, drive_fn, t_end, steps, block=1):
    """Yield, block by block, the (n, 3, cells, d, d) generators -i H(t) at
    the start, midpoint and end of n <= ``block`` consecutive steps.

    ``static`` is the (d, d) or (cells, d, d) time-independent part of H
    (non-Hermitian for an effective H).  The drive ops are reduced to the
    union of their nonzero entries; only those entries of the yielded array
    change from block to block, so it is overwritten in place.
    """
    dim = static.shape[-1]
    cells = t_end.shape[0]
    ops = np.array([np.asarray(op, dtype=complex) for op in drive_ops]).reshape(-1, dim, dim)
    rows, cols = np.nonzero(np.any(ops != 0, axis=0))
    op_entries = -1j * ops[:, rows, cols]                          # (ops, E)
    gen = np.array(np.broadcast_to(-1j * static, (block, 3, cells, dim, dim)))
    static_entries = gen[0, 0][:, rows, cols]                      # (cells, E)
    chunk = max(1, DRIVE_CHUNK_SAMPLES // (3 * cells))
    fracs = np.linspace(0.0, 1.0, steps + 1)[:, None]
    for start in range(0, steps, chunk):
        stop = min(start + chunk, steps)
        t0 = fracs[start:stop] * t_end
        t1 = fracs[start + 1:stop + 1] * t_end
        times = np.stack([t0, 0.5 * (t0 + t1), t1], axis=1)      # (n, 3, cells)
        # (n, 3, cells, ops); the entries are formed block by block, which
        # keeps the chunk's memory at that of the drive samples
        coeffs = np.stack([np.broadcast_to(c, times.shape) for c in drive_fn(times)], axis=-1)
        for first in range(0, len(coeffs), block):
            block_coeffs = coeffs[first:first + block]
            out = gen[:len(block_coeffs)]
            out[..., rows, cols] = static_entries + block_coeffs @ op_entries
            yield out


def _stage_generators(static, drive_ops, drive_fn, t_end, steps):
    """Yield, step by step, the (3, cells, d, d) generators of _stage_blocks."""
    for gen in _stage_blocks(static, drive_ops, drive_fn, t_end, steps):
        yield gen[0]


# The propagator order of _propagator_states serves batches of one cell of
# dimension up to PROPAGATOR_MAX_DIM: its products grow as d^3 per step, the
# lockstep stages as d^2.  Measured at 2500 steps on one cell, it takes
# 0.03 s against 0.10 s in lockstep at d = 11, ties at d = 27 (the N = 7
# chain) and takes 0.18 s against 0.13 s at d = 35.
PROPAGATOR_MAX_DIM = 27
# Bytes of stage generators per block of steps in the propagator order: a
# block holds as many steps as keep its (steps, 3, d, d) generators within
# this budget (at least one step).  At d = 11 that is 32 steps; a block four
# times larger is no faster and costs 1.4 MB more peak memory.
PROPAGATOR_BLOCK_BYTES = 3 * 32 * 11 * 11 * 16


def _lockstep_states(stages, psi, dt):
    """Advance a (cells, d) batch one RK4 step per stage triple of
    _stage_generators, yielding the state after each step."""

    def apply(gen, y):
        return np.matmul(gen, y[..., None])[..., 0]

    for gen in stages:
        k1 = apply(gen[0], psi)
        k2 = apply(gen[1], psi + (0.5 * dt) * k1)
        k3 = apply(gen[1], psi + (0.5 * dt) * k2)
        k4 = apply(gen[2], psi + dt * k3)
        psi = psi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        yield psi


def _propagator_states(blocks, psi, dt):
    """Advance a (1, d) batch of one cell by each step's exact RK4 map,
    yielding the state after each step.

    For the stage generators A1, A2, A3 of a step (A2 at the midpoint), the
    RK4 stages are k_i = K_i psi with K1 = A1, K2 = A2 + dt/2 A2 K1,
    K3 = A2 + dt/2 A2 K2 and K4 = A3 + dt A3 K3, so the step is the matrix
    P = I + dt/6 (K1 + 2 K2 + 2 K3 + K4).  The P of a whole block of steps
    are formed by three stacked matrix products, and the state then takes
    one product per step.
    """
    eye = np.eye(psi.shape[-1])
    for gen in blocks:                                             # (n, 3, 1, d, d)
        a1, a2, a3 = gen[:, 0, 0], gen[:, 1, 0], gen[:, 2, 0]
        k2 = a2 + (0.5 * dt) * (a2 @ a1)
        k3 = a2 + (0.5 * dt) * (a2 @ k2)
        k4 = a3 + dt * (a3 @ k3)
        prop = (dt / 6.0) * (a1 + 2.0 * (k2 + k3) + k4) + eye
        # psi is a row: psi P^T = (P psi^T)^T
        for prop_t in np.swapaxes(prop, 1, 2):
            psi = psi @ prop_t
            yield psi


def evolve_schrodinger_batch(
    static, drive_ops, drive_fn, psi0, t_end, steps=DEFAULT_STEPS, record_every=None
) -> BatchResult:
    """Fixed-step RK4 for a batch of independent state-vector evolutions.

    static: (d, d) shared or (C, d, d) per cell; drive_fn maps a broadcastable
    time array (..., C) to a tuple of same-shaped coefficient arrays, one per
    drive op.

    A batch of one cell of dimension up to PROPAGATOR_MAX_DIM takes the same
    RK4 steps in the propagator order of _propagator_states: a few stacked
    products per block of steps, then one product per step, instead of
    about thirty small array operations per step.
    """
    t_end = np.atleast_1d(np.asarray(t_end, dtype=float))
    cells = t_end.shape[0]
    dim = np.shape(psi0)[-1]
    psi = np.array(np.broadcast_to(np.asarray(psi0, dtype=complex), (cells, dim)))
    static = np.asarray(static, dtype=complex)
    dt = (t_end / steps)[:, None]
    if cells == 1 and dim <= PROPAGATOR_MAX_DIM:
        block = max(1, PROPAGATOR_BLOCK_BYTES // (3 * dim * dim * 16))
        blocks = _stage_blocks(static, drive_ops, drive_fn, t_end, steps, block)
        states = _propagator_states(blocks, psi, float(dt[0, 0]))
    else:
        states = _lockstep_states(
            _stage_generators(static, drive_ops, drive_fn, t_end, steps), psi, dt
        )

    rec_marks = _record_marks(steps, record_every)
    records = [psi.copy()] if rec_marks is not None else None
    max_drift = np.zeros(cells)
    # divergence of an individual cell is reported through the drift
    # diagnostic, not through floating-point warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for step, psi in enumerate(states, start=1):
            if rec_marks is not None and step in rec_marks:
                records.append(psi.copy())
                max_drift = np.maximum(max_drift, np.abs(np.linalg.norm(psi, axis=1) - 1.0))
        max_drift = np.maximum(max_drift, np.abs(np.linalg.norm(psi, axis=1) - 1.0))

    return BatchResult(
        finals=psi,
        records=np.swapaxes(np.array(records), 0, 1) if records is not None else None,
        record_fractions=np.array(sorted(rec_marks)) / steps if rec_marks is not None else None,
        diagnostics={"max_norm_drift": max_drift},
    )


def _chain_states(static, ops, sources, rho0):
    """Mask of the states that H, a jump source or rho0 touches.

    The rest are decay products: nothing couples them coherently and no
    channel leaves them, so their coherences stay exactly zero and only
    their populations grow.
    """
    dim = static.shape[-1]
    touched = (static != 0).reshape(-1, dim, dim).any(axis=0)
    touched |= (rho0 != 0).reshape(-1, dim, dim).any(axis=0)
    for op in ops:
        touched |= op != 0
    mask = touched.any(axis=0) | touched.any(axis=1)
    mask[sources] = True
    return mask


def evolve_lindblad_batch(
    static, drive_ops, drive_fn, rho0, t_end, channels, steps=DEFAULT_STEPS, record_every=None
) -> BatchResult:
    """Lockstep RK4 for a batch of master-equation evolutions.

    ``channels`` is (sources, targets, weights) describing single-entry
    collapse operators, weights shaped (k,) shared or (cells, k) per cell
    (already including rate * |amplitude|^2); arbitrary jumps should go
    through evolve_lindblad cell by cell.

    Only the chain block (the states touched by H, a jump source or rho0)
    is integrated, under the no-jump generator H - (i/2) diag(G):
    drho/dt = -i (M - M^+) with M = (H - (i/2) G) rho, plus the jumps that
    land back in the chain on its diagonal.  Jumps into the other states
    (decay products) feed a vector of product populations through the same
    RK4 stages.  Nothing couples a product coherently and no channel leaves
    one, so the master equation never creates coherences with the products:
    finals and records, rebuilt as full (cells, d, d) matrices, equal the
    full integration.
    """
    t_end = np.atleast_1d(np.asarray(t_end, dtype=float))
    cells = t_end.shape[0]
    rho0 = np.asarray(rho0, dtype=complex)
    dim = rho0.shape[-1]
    static = np.asarray(static, dtype=complex)
    ops = [np.asarray(op, dtype=complex) for op in drive_ops]
    src, tgt, w = channels
    src, tgt = np.asarray(src, dtype=int), np.asarray(tgt, dtype=int)
    w = np.broadcast_to(np.asarray(w, dtype=float), (cells, len(src)))

    in_chain = _chain_states(static, ops, src, rho0)
    chain, products = np.flatnonzero(in_chain), np.flatnonzero(~in_chain)
    n_chain = len(chain)
    order = np.concatenate([chain, products])
    position = np.empty(dim, dtype=int)
    position[order] = np.arange(dim)
    src_c = position[src]
    # channel k moves w[:, k] * rho[src_k, src_k] to its target: a chain
    # diagonal entry (the end-atom decays back to g_o) or a product population
    route = np.eye(dim)[tgt][:, order]
    g_diag = w @ np.eye(dim)[src][:, chain]

    block = (..., chain[:, None], chain)
    static_eff = static[block] - 0.5j * g_diag[:, :, None] * np.eye(n_chain)
    stages = _stage_generators(static_eff, [op[block] for op in ops], drive_fn, t_end, steps)
    rho = np.array(np.broadcast_to(rho0[block], (cells, n_chain, n_chain)))
    pops = np.zeros((cells, len(products)))  # rho0 lies in the chain block
    dt = (t_end / steps)[:, None]
    dt_block = dt[:, :, None]

    def rhs(gen, y):
        a = np.matmul(gen, y)
        out = a + np.swapaxes(a, -1, -2).conj()
        flow = (y[:, src_c, src_c].real * w) @ route
        diagonal = np.einsum("cii->ci", out)  # a writeable view
        diagonal += flow[:, :n_chain]
        return out, flow[:, n_chain:]

    def to_full(y, p):
        out = np.zeros((cells, dim, dim), dtype=complex)
        out[:, chain[:, None], chain] = y
        out[:, products, products] = p
        return out

    def min_eigenvalue(y, p):
        out = np.full(cells, np.nan)
        finite = np.isfinite(y).all(axis=(1, 2))
        if np.any(finite):
            sym = 0.5 * (y[finite] + np.swapaxes(y[finite], -1, -2).conj())
            eig = np.linalg.eigvalsh(sym).min(axis=1)
            out[finite] = np.minimum(eig, p[finite].min(axis=1, initial=np.inf))
        return out

    # positivity is checked at every record point, as in evolve_lindblad,
    # and at the end
    rec_marks = _record_marks(steps, record_every)
    records = None
    min_eig = np.full(cells, np.inf)
    if rec_marks is not None:
        records = [to_full(rho, pops)]
        min_eig = min_eigenvalue(rho, pops)
    max_trace = np.zeros(cells)
    with np.errstate(over="ignore", invalid="ignore"):
        for step, gen in enumerate(stages, start=1):
            k1, q1 = rhs(gen[0], rho)
            k2, q2 = rhs(gen[1], rho + (0.5 * dt_block) * k1)
            k3, q3 = rhs(gen[1], rho + (0.5 * dt_block) * k2)
            k4, q4 = rhs(gen[2], rho + dt_block * k3)
            rho = rho + (dt_block / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            pops = pops + (dt / 6.0) * (q1 + 2.0 * q2 + 2.0 * q3 + q4)
            trace = np.einsum("cii->c", rho).real + pops.sum(axis=1)
            max_trace = np.maximum(max_trace, np.abs(trace - 1.0))
            if rec_marks is not None and step in rec_marks:
                records.append(to_full(rho, pops))
                min_eig = np.minimum(min_eig, min_eigenvalue(rho, pops))
        min_eig = np.minimum(min_eig, min_eigenvalue(rho, pops))

    herm = np.max(np.abs(rho - np.swapaxes(rho, -1, -2).conj()), axis=(1, 2))
    return BatchResult(
        finals=to_full(rho, pops),
        records=np.stack(records, axis=1) if records is not None else None,
        record_fractions=np.array(sorted(rec_marks)) / steps if rec_marks is not None else None,
        diagnostics={
            "max_trace_drift": max_trace,
            "max_hermiticity_drift": herm,
            "min_density_eigenvalue": min_eig,
        },
    )
