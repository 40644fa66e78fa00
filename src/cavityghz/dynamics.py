"""Fixed-step RK4 time evolution for state vectors and density matrices.

Fixed stepping keeps runs bit-reproducible and lets independent sweep cells
evolve in lockstep as stacked arrays.  No renormalization is applied during
integration; norm/trace drift is tracked as a diagnostic and turned into an
error (with a suggested step count) when it exceeds tolerance.

One RK4 core serves every run: _lockstep_states (state vectors) and
_lindblad_states (density matrices) consume a stream of per-step stage
generators A = -i dt H at each step's start, midpoint and end, stacked over
cells in one C-contiguous buffer.  Each cell's step dt is folded into its
generators (and into its Lindblad channel weights), so the RK4 updates
themselves carry only the scalars 1/2 and 1/6.  The batched integrators
build the stream from a static part, scaled once, and drive coefficients
evaluated and scaled once per chunk of steps; evolve_schrodinger and
evolve_lindblad are batches of one whose stream samples a callable H(t).
A batched state vector of one small cell takes the same RK4 steps as
per-step propagators (_propagator_states), over three times faster for the
N = 3 chain; more cells, and density matrices, stay in lockstep, where the
d x d propagator products would cost more than the stages.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import IntegrationError, ValidationError
from .model import JumpOperator, single_entry

NORM_TOL = 1e-6
TRACE_TOL = 1e-6
POSITIVITY_TOL = 1e-6

# Step counts.  DEFAULT_STEPS is the default grid of the single-run path,
# the cap of the step-doubling control (experiments) and the fixed grid of
# a series whose record stride does not divide it; MIN_STEPS is the
# smallest explicit step count accepted.  STEP_TOL bounds the Richardson
# estimate of the error of every recorded observable of an error-controlled
# run.
DEFAULT_STEPS = 20000
MIN_STEPS = 1000
STEP_TOL = 1e-8


@dataclass(frozen=True)
class TimeGrid:
    """Integration window [t_start, t_end] with a fixed step count.

    Recorded samples always include both endpoints.  The bounds must be
    finite and ``steps`` and ``record_every`` integers, or ValidationError.
    """

    t_end: float
    steps: int = DEFAULT_STEPS
    record_every: int = 100
    t_start: float = 0.0

    def __post_init__(self):
        problems = []
        bounds = f"[{self.t_start}, {self.t_end}]"
        if not np.all(np.isfinite((self.t_start, self.t_end))):
            problems.append(f"t_start and t_end must be finite, got {bounds}")
        elif self.t_end <= self.t_start:
            problems.append(f"t_end must exceed t_start, got {bounds}")
        for name, minimum in (("steps", MIN_STEPS), ("record_every", 1)):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral):
                problems.append(f"{name} must be an integer, got {value!r}")
            elif value < minimum:
                problems.append(f"{name} must be at least {minimum}, got {value}")
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


def _check_hermitian_at(h_of_t, grid: TimeGrid):
    for t in (grid.t_start, (grid.t_start + grid.t_end) / 2, grid.t_end):
        mat = h_of_t(t)
        drift = np.max(np.abs(mat - mat.conj().T))
        if drift > 1e-10:
            raise ValidationError(f"Hamiltonian at t={t:.6g} is not Hermitian (drift {drift:.3e})")


def _sampled_stages(h_of_t, grid: TimeGrid, dim, shift=0.0):
    """Yield, step by step, the (3, 1, d, d) step-scaled generators
    -i dt (H(t) + shift) at the start, midpoint and end of each step of
    ``grid``, sampling the callable ``h_of_t`` three times per step.  The
    yielded array is overwritten in place."""
    dt = grid.dt
    scale = -1j * dt
    gen = np.empty((3, 1, dim, dim), dtype=complex)
    for step in range(grid.steps):
        t = grid.t_start + step * dt
        for stage, time in enumerate((t, t + 0.5 * dt, t + dt)):
            gen[stage, 0] = scale * (h_of_t(time) + shift)
        yield gen


def _record_points(states, grid: TimeGrid):
    """Yield (time, state) at the record points of ``grid`` after its start."""
    record = set(grid.record_steps())
    for step, state in enumerate(states, start=1):
        if step in record:
            yield grid.t_start + step * grid.dt, state


def evolve_schrodinger(h_of_t, psi0, grid: TimeGrid, metadata=None) -> Trajectory:
    """Integrate i dpsi/dt = H(t) psi with fixed-step RK4.

    ``h_of_t`` maps a time to the Hamiltonian matrix; the run is a batch of
    one in the lockstep loop of the batched integrator.  Raises
    ``IntegrationError`` naming the required step count if the norm drifts
    by more than 1e-6 at a record point, or saying the run diverged if the
    norm is no longer finite.
    """
    psi = np.asarray(psi0, dtype=complex).copy()
    norm0 = np.linalg.norm(psi)
    if abs(norm0 - 1.0) > 1e-9:
        raise ValidationError(f"initial state must be normalized, |psi| = {norm0:.12f}")
    _check_hermitian_at(h_of_t, grid)

    stages = _sampled_stages(h_of_t, grid, len(psi))
    states = [psi]
    max_drift = 0.0
    for t, (psi,) in _record_points(_lockstep_states(stages, psi[None]), grid):
        drift = abs(np.linalg.norm(psi) - 1.0)
        max_drift = max(max_drift, drift)
        # NaN-safe: a diverged state has NaN drift
        if not drift <= NORM_TOL:
            raise IntegrationError(
                f"norm drift {drift:.3e} exceeds {NORM_TOL:g} at t={t:.6g}; "
                + _refinement_hint(grid.steps, drift, NORM_TOL)
            )
        states.append(psi)

    return Trajectory(
        grid=grid,
        times=grid.times(),
        states=np.array(states),
        is_density=False,
        diagnostics={"max_norm_drift": max_drift},
        metadata=dict(metadata or {}),
    )


def _jump_channels(jumps, dim):
    """(sources, targets, weights) of jumps amp |target><source| given as
    JumpOperator or (matrix, rate) pairs; weight = rate * |amp|^2."""
    channels = []
    for jump in jumps:
        op, rate = (jump.operator, jump.rate) if isinstance(jump, JumpOperator) else jump
        if not 0 <= rate < np.inf:  # NaN fails it
            raise ValidationError(f"jump rate must be finite and non-negative, got {rate}")
        mat = np.asarray(getattr(op, "mat", op), dtype=complex)
        if mat.shape != (dim, dim):
            raise ValidationError(f"jump operator shape {mat.shape} does not match dimension {dim}")
        entry = single_entry(mat)
        if entry is None:
            count = np.count_nonzero(mat)
            raise ValidationError(f"a jump operator must have one nonzero entry, got {count}")
        src, tgt, amp_sq = entry
        channels.append((src, tgt, float(rate) * amp_sq))
    # shaped and typed, so that an empty jump list still gives index arrays
    src, tgt, w = np.array(channels, dtype=float).reshape(-1, 3).T
    return src.astype(int), tgt.astype(int), w


def evolve_lindblad(h_of_t, jumps, rho0, grid: TimeGrid, metadata=None) -> Trajectory:
    """Integrate the master equation with fixed-step RK4.

    drho/dt = -i [H, rho] + sum_k rate_k (L rho L+ - (1/2) {L+ L, rho})

    ``jumps`` is a list of JumpOperator (or (matrix, rate) pairs) with a
    single nonzero entry amp |target><source| each, as every channel of
    this model has; any other jump raises ValidationError.  The run is a
    batch of one in the RK4 loop of evolve_lindblad_batch with every state
    in the chain block, since a callable H does not show which entries it
    leaves zero.  Trace drift beyond 1e-6 or an eigenvalue below -1e-6 at a
    record point raises IntegrationError with a suggested refinement; a
    density matrix that is no longer finite raises one saying it diverged.
    """
    rho = np.asarray(rho0, dtype=complex).copy()
    dim = rho.shape[0]
    if rho.shape != (dim, dim):
        raise ValidationError(f"density matrix must be square, got {rho.shape}")
    if np.max(np.abs(rho - rho.conj().T)) > 1e-10:
        raise ValidationError("initial density matrix must be Hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-9:
        raise ValidationError(f"initial density matrix must have unit trace, got {np.trace(rho):.9f}")
    min_eig = float(np.min(np.linalg.eigvalsh(rho)))
    if min_eig < -1e-10:
        raise ValidationError("initial density matrix must be positive semidefinite")
    _check_hermitian_at(h_of_t, grid)
    src, tgt, w = _jump_channels(jumps, dim)

    g_diag = np.bincount(src, weights=w, minlength=dim)  # decay rate out of each state
    stages = _sampled_stages(h_of_t, grid, dim, -0.5j * np.diag(g_diag))
    # every state is in the chain block, so there are no product populations
    run = _lindblad_states(
        stages, rho[None], np.zeros((1, 0)), src, grid.dt * w[None], np.eye(dim)[tgt]
    )
    states = [rho]
    max_trace_drift = 0.0
    max_herm_drift = 0.0
    for t, ((rho,), _) in _record_points(run, grid):
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
                + _refinement_hint(grid.steps, np.maximum(trace_drift, -eig_min), TRACE_TOL)
            )
        states.append(rho)

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
# those entries of its stage generators and leaves the static part alone.
# The generators carry each cell's step: A_c(t) = -i dt_c H_c(t), with the
# static part scaled once and the drive coefficients once per chunk.

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
    """Yield, block by block, the C-contiguous (n, 3, cells, d, d) step-scaled
    generators -i dt H(t) at the start, midpoint and end of n <= ``block``
    consecutive steps, where cell c has dt = t_end[c] / steps.

    ``static`` is the (d, d) or (cells, d, d) time-independent part of H
    (non-Hermitian for an effective H).  The drive ops are reduced to the
    union of their nonzero entries; only those entries of the yielded array
    change from block to block, so it is overwritten in place.
    """
    dim = static.shape[-1]
    cells = t_end.shape[0]
    dt = t_end / steps
    ops = np.array([np.asarray(op, dtype=complex) for op in drive_ops]).reshape(-1, dim, dim)
    rows, cols = np.nonzero(np.any(ops != 0, axis=0))
    op_entries = -1j * ops[:, rows, cols]                          # (ops, E)
    # C order, so that every stage product reads contiguous matrices
    gen = np.empty((block, 3, cells, dim, dim), dtype=complex)
    gen[...] = (-1j * dt)[:, None, None] * static
    static_entries = gen[0, 0][:, rows, cols]                      # (cells, E)
    chunk = max(1, DRIVE_CHUNK_SAMPLES // (3 * cells))
    fracs = np.linspace(0.0, 1.0, steps + 1)[:, None]
    for start in range(0, steps, chunk):
        stop = min(start + chunk, steps)
        t0 = fracs[start:stop] * t_end
        t1 = fracs[start + 1:stop + 1] * t_end
        times = np.stack([t0, 0.5 * (t0 + t1), t1], axis=1)      # (n, 3, cells)
        # (n, 3, cells, ops), scaled by each cell's step; the entries are
        # formed block by block, which keeps the chunk's memory at that of
        # the drive samples
        coeffs = np.stack([np.broadcast_to(c, times.shape) for c in drive_fn(times)], axis=-1)
        coeffs *= dt[:, None]
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


def _lockstep_states(stages, psi):
    """Advance a (cells, d) batch one RK4 step per (3, cells, d, d) triple of
    step-scaled stage generators, yielding the state after each step."""

    def apply(gen, y):
        return np.matmul(gen, y[..., None])[..., 0]

    for gen in stages:
        k1 = apply(gen[0], psi)
        k2 = apply(gen[1], psi + 0.5 * k1)
        k3 = apply(gen[1], psi + 0.5 * k2)
        k4 = apply(gen[2], psi + k3)
        psi = psi + (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        yield psi


def _propagator_states(blocks, psi):
    """Advance a (1, d) batch of one cell by each step's exact RK4 map,
    yielding the state after each step.

    For the step-scaled stage generators A1, A2, A3 of a step (A = -i dt H,
    A2 at the midpoint), the RK4 increments are k_i = K_i psi with K1 = A1,
    K2 = A2 + 1/2 A2 K1, K3 = A2 + 1/2 A2 K2 and K4 = A3 + A3 K3, so the
    step is the matrix P = I + (K1 + 2 K2 + 2 K3 + K4) / 6.  The P of a
    whole block of steps are formed by three stacked matrix products, and
    the state then takes one product per step.
    """
    eye = np.eye(psi.shape[-1])
    for gen in blocks:                                             # (n, 3, 1, d, d)
        a1, a2, a3 = gen[:, 0, 0], gen[:, 1, 0], gen[:, 2, 0]
        k2 = a2 + 0.5 * (a2 @ a1)
        k3 = a2 + 0.5 * (a2 @ k2)
        k4 = a3 + a3 @ k3
        prop = (a1 + 2.0 * (k2 + k3) + k4) / 6.0 + eye
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
    if cells == 1 and dim <= PROPAGATOR_MAX_DIM:
        block = max(1, PROPAGATOR_BLOCK_BYTES // (3 * dim * dim * 16))
        blocks = _stage_blocks(static, drive_ops, drive_fn, t_end, steps, block)
        states = _propagator_states(blocks, psi)
    else:
        states = _lockstep_states(
            _stage_generators(static, drive_ops, drive_fn, t_end, steps), psi
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


def _lindblad_states(stages, rho, pops, src, w, route):
    """Advance a (cells, n, n) chain block and its (cells, p) product
    populations one RK4 step per stage triple, yielding both after each step.

    A stage generator is the step-scaled A = -i dt (H - (i/2) diag(G)) on
    the chain block, and the increment of rho over a step is
    A rho + (A rho)^+ plus the jumps.  The (cells, k) weights w include the
    step too: channel k moves w[:, k] * rho[src_k, src_k] (its rate times
    |amp|^2 times dt) along the row route[k], whose first n entries are the
    chain diagonal and the rest the product populations.
    """
    n = rho.shape[-1]

    def rhs(gen, y):
        a = np.matmul(gen, y)
        out = a + np.swapaxes(a, -1, -2).conj()
        flow = (y[:, src, src].real * w) @ route
        diagonal = np.einsum("cii->ci", out)  # a writeable view
        diagonal += flow[:, :n]
        return out, flow[:, n:]

    for gen in stages:
        k1, q1 = rhs(gen[0], rho)
        k2, q2 = rhs(gen[1], rho + 0.5 * k1)
        k3, q3 = rhs(gen[1], rho + 0.5 * k2)
        k4, q4 = rhs(gen[2], rho + k3)
        rho = rho + (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        pops = pops + (q1 + 2.0 * q2 + 2.0 * q3 + q4) / 6.0
        yield rho, pops


def evolve_lindblad_batch(
    static, drive_ops, drive_fn, rho0, t_end, channels, steps=DEFAULT_STEPS, record_every=None
) -> BatchResult:
    """Lockstep RK4 for a batch of master-equation evolutions.

    ``channels`` is (sources, targets, weights) describing single-entry
    collapse operators amp |target><source| (model.channel_structure),
    weights shaped (k,) shared or (cells, k) per cell (already including
    rate * |amp|^2).  Neither this nor evolve_lindblad integrates a
    collapse operator with more than one nonzero entry.

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
    w_step = w * (t_end / steps)[:, None]  # each cell's weights times its step
    states = _lindblad_states(stages, rho, pops, src_c, w_step, route)

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
        for step, (rho, pops) in enumerate(states, start=1):
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
