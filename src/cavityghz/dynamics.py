"""Fixed-step explicit Runge-Kutta time evolution for state vectors and
density matrices.

Fixed stepping keeps runs bit-reproducible and lets independent sweep cells
evolve in lockstep as stacked arrays.  No renormalization is applied during
integration; norm/trace drift is tracked as a diagnostic and turned into an
error (with a suggested step count) when it exceeds tolerance.

A method is a Butcher tableau of dense rows: RK4 for explicit step counts,
DOP853 (order 8) for the step-controlled runs of experiments.  One loop,
_lockstep_states, advances state vectors and packed density matrices alike,
which differ only in their stage function, and takes each stage sum as one
real matrix-vector product of a tableau row with the stacked increments.
The stages read step-scaled generators A = -i dt H at the tableau's
distinct nodes t + c dt, stacked over cells in C-contiguous buffers.
evolve_schrodinger and evolve_lindblad are batches of one whose generators
sample a callable H(t).  One small cell of a batched state vector takes the
same steps as per-step propagators (_propagator_states), over three times
faster for the N = 3 chain."""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from functools import partial

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
class Tableau:
    """An explicit Runge-Kutta method: stage i takes the generator at
    t + c[i] dt on y + sum_j a_ij k_j and the step adds sum_i b_i k_i.  Row i
    of ``a`` holds a_i0 ... a_i,i-1 and ``b`` every b_i, zeros included, so
    that each stage sum is one product of a dense row with the increments."""

    name: str
    order: int
    a: tuple[tuple[float, ...], ...]
    b: tuple[float, ...]
    c: tuple[float, ...]

    @property
    def nodes(self) -> tuple[float, ...]:
        """The distinct c values, in stage order."""
        return tuple(dict.fromkeys(self.c))

    @property
    def stage_nodes(self) -> tuple[int, ...]:
        """Index into ``nodes`` of each stage's c."""
        return tuple(self.nodes.index(c) for c in self.c)


RK4 = Tableau(
    "rk4", 4, a=((), (0.5,), (0.0, 0.5), (0.0, 0.0, 1.0)),
    b=(1 / 6, 1 / 3, 1 / 3, 1 / 6), c=(0.0, 0.5, 0.5, 1.0),
)

# Dormand and Prince's 8th-order method (Hairer, Norsett & Wanner, Solving
# ODEs I, sec. II.5), the 12 stages of DOP853 without its error estimators.
DOP853 = Tableau(
    name="dop853",
    order=8,
    a=(
        (),
        (0.05260015195876773,),
        (0.0197250569845379, 0.0591751709536137),
        (0.02958758547680685, 0.0, 0.08876275643042054),
        (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
        (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
        (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
        (0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
         -0.015319437748624402, 0.008273789163814023),
        (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
         27.59209969944671, 20.154067550477894, -43.48988418106996),
        (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
         21.230051448181193, 15.279233632882423, -33.28821096898486, -0.020331201708508627),
        (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
         -8.149787010746927, -18.52006565999696, 22.739487099350505, 2.4936055526796523,
         -3.0467644718982196),
        (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
         -17.9589318631188, 27.94888452941996, -2.8589982771350235, -8.87285693353063,
         12.360567175794303, 0.6433927460157636),
    ),
    b=(0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
       -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
       0.04471061572777259),
    c=(
        0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274, 0.2816496580927726,
        0.3333333333333333, 0.25, 0.3076923076923077, 0.6512820512820513, 0.6, 0.8571428571428571,
        1.0,
    ),
)


@dataclass(frozen=True)
class TimeGrid:
    """Integration window [0, t_end] with a fixed step count.

    Recorded samples always include both endpoints.  The end must be finite
    and positive and ``steps`` and ``record_every`` integers, or
    ValidationError.
    """

    t_end: float
    steps: int = DEFAULT_STEPS
    record_every: int = 100

    def __post_init__(self):
        problems = []
        if not np.isfinite(self.t_end):
            problems.append(f"t_end must be finite, got {self.t_end}")
        elif self.t_end <= 0:
            problems.append(f"t_end must be positive, got {self.t_end}")
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
        return self.t_end / self.steps

    def record_steps(self) -> list[int]:
        marks = list(range(0, self.steps, self.record_every))
        marks.append(self.steps)
        return marks

    def times(self) -> np.ndarray:
        return np.asarray(self.record_steps()) * self.dt


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
    for t in (0.0, grid.t_end / 2, grid.t_end):
        mat = h_of_t(t)
        drift = np.max(np.abs(mat - mat.conj().T))
        if drift > 1e-10:
            raise ValidationError(f"Hamiltonian at t={t:.6g} is not Hermitian (drift {drift:.3e})")


def _sampled_stages(h_of_t, grid: TimeGrid, dim, shift=0.0):
    """Yield the RK4 stages of ``grid`` as _stage_entries does, with all of a
    (1, d, d) buffer sampled: -i dt (H(t) + shift) at each node, in place."""
    dt = grid.dt
    scale = -1j * dt
    gen = np.empty((1, dim, dim), dtype=complex)
    samples = np.empty((1, len(RK4.nodes), 1, dim, dim), dtype=complex)
    for step in range(grid.steps):
        t = step * dt
        for node, c in enumerate(RK4.nodes):
            samples[0, node, 0] = scale * (h_of_t(t + c * dt) + shift)
        yield gen, ..., samples


def _record_points(states, grid: TimeGrid):
    """Yield (time, state) at the record points of ``grid`` after its start."""
    record = set(grid.record_steps())
    for step, state in enumerate(states, start=1):
        if step in record:
            yield step * grid.dt, state


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
    run = _lockstep_states(stages, psi[None], _schrodinger_stage, RK4)
    for t, (psi,) in _record_points(run, grid):
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
    batch of one in the lockstep loop with every state in the chain block,
    since a callable H does not show which entries it leaves zero.  Trace
    drift beyond 1e-6 or an eigenvalue below -1e-6 at a record point raises
    IntegrationError with a suggested refinement; a density matrix that is
    no longer finite raises one saying it diverged.
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
    stage = partial(_lindblad_stage, dim, src, grid.dt * w[None], np.eye(dim)[tgt])
    run = _lockstep_states(stages, rho.reshape(1, -1), stage, RK4)
    states = [rho]
    max_trace_drift = 0.0
    max_herm_drift = 0.0
    for t, y in _record_points(run, grid):
        rho = y.reshape(dim, dim)
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
# of steps at the times t + c dt of the tableau's distinct nodes c (the drive
# function must broadcast over them), and the drive ops touch only a few
# matrix entries, which each stage rewrites in generators that carry each
# cell's step: A_c(t) = -i dt_c H_c(t).

# Drive time samples per drive_fn call: a chunk holds as many steps as keep
# nodes * steps * cells within this budget (at least one step).  Memory grows
# with the chunk, the Python overhead of the pulse formulas shrinks with it.
DRIVE_CHUNK_SAMPLES = 12288
# Bytes of stage increments per tile of cells: the lockstep loop takes each
# step in tiles of at least two cells within this budget, 297 open cells of
# d = 11 under DOP853, whose packed rows hold 126 entries (one tile of 1681
# would hold 41 MB).
CELL_TILE_BYTES = 2**23


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


def _cell_tiles(cells, cell_bytes):
    """Slices of consecutive cells within CELL_TILE_BYTES at ``cell_bytes``
    each, or of two cells; a lone last cell joins the tile before it."""
    starts = list(range(0, max(1, cells - 1), max(2, CELL_TILE_BYTES // cell_bytes)))
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [cells])]


def _stage_entries(static, drive_ops, drive_fn, t_end, steps, nodes, lead=(), block=1):
    """Yield, block by block, one C-contiguous ``lead + (cells, d, d)``
    buffer holding -i dt static, the index of the drive ops' nonzero entries
    in it, and the (n, len(nodes), cells, E) entries there of -i dt H(t + c dt)
    at the ``nodes`` c of n <= ``block`` steps (dt = t_end[c] / steps for
    cell c), which the loops write into the buffer in place.  ``static`` is
    the (d, d) or (cells, d, d) time-independent part of H."""
    cells, dim = t_end.shape[0], static.shape[-1]
    dt = t_end / steps
    ops = np.array([np.asarray(op, dtype=complex) for op in drive_ops]).reshape(-1, dim, dim)
    index = (..., *np.nonzero(np.any(ops != 0, axis=0)))
    # C order, so that every stage product reads contiguous matrices
    gen = np.empty(lead + (cells, dim, dim), dtype=complex)
    gen[...] = (-1j * dt)[:, None, None] * static
    static_entries, op_entries = gen[(0,) * len(lead)][index], -1j * ops[index]  # (cells|ops, E)
    c = np.asarray(nodes)[:, None]
    chunk = max(1, DRIVE_CHUNK_SAMPLES // (len(nodes) * cells))
    fracs = np.linspace(0.0, 1.0, steps + 1)[:, None, None]
    for start in range(0, steps, chunk):
        stop = min(start + chunk, steps)
        # exact at c = 0, 1/2 and 1
        times = (1.0 - c) * (fracs[start:stop] * t_end) + c * (fracs[start + 1:stop + 1] * t_end)
        coeffs = np.stack([np.broadcast_to(x, times.shape) for x in drive_fn(times)], axis=-1)
        coeffs *= dt[:, None]
        for first in range(0, len(coeffs), block):
            yield gen, index, static_entries + coeffs[first:first + block] @ op_entries


def _stage_sum(y, coeffs, k):
    """y + sum_j coeffs[j] k[j] for the C-contiguous complex stack ``k``: one
    real matrix-vector product with k's float view, by einsum, which unlike
    BLAS sums every entry's terms in stage order at any tile or thread count."""
    terms = k[:len(coeffs)].reshape(len(coeffs), k[0].size).view(float)
    return y + np.einsum("s,sn->n", coeffs, terms).view(complex).reshape(k.shape[1:])


# The propagator order of _propagator_states serves batches of one cell of
# dimension up to PROPAGATOR_MAX_DIM: its products grow as d^3 per step, the
# lockstep stages as d^2.  Measured under DOP853 on one natom_params(n) cell
# through the step-doubling ladder, medians of 7 runs in two runs, it takes
# 0.017 s against 0.044-0.057 s in lockstep at d = 11 (N = 3), ties at
# d = 19 (N = 5: 0.039-0.054 s against 0.042-0.044 s) and takes 0.069 s
# against 0.044 s at d = 27 (N = 7).
PROPAGATOR_MAX_DIM = 19
# Bytes of stage generators per block of steps in the propagator order: a
# block holds as many steps as keep its (steps, nodes, d, d) generators
# within this budget (at least one step).  At d = 11 that is 32 RK4 steps; a
# block four times larger is no faster and costs 1.4 MB more peak memory.
PROPAGATOR_BLOCK_BYTES = 3 * 32 * 11 * 11 * 16


def _lockstep_states(stages, y, stage_fn, tableau):
    """Advance a (cells, E) batch tile by tile one step of ``tableau`` per
    step of ``stages`` (from _stage_entries), yielding the state after each.

    ``stage_fn(a, y_i, k_i, tile)`` writes into k_i the increment at the
    stage input y_i of the cells ``tile`` under their generators a.  The m
    cells of a tile keep their increments in the first S * m * E entries of
    one flat buffer, which _stage_sum reads as one real (S, 2 m E) matrix."""
    nodes, rows, b = tableau.stage_nodes, [np.array(row) for row in tableau.a], np.array(tableau.b)
    s, width = len(nodes), y.shape[-1]
    tiles = _cell_tiles(len(y), 16 * (s + 2) * width)
    flat = np.empty(s * max(t.stop - t.start for t in tiles) * width, dtype=complex)
    for gen, index, (entries,) in stages:
        new = np.empty_like(y)
        for tile in tiles:
            a, k = gen[tile], flat[:s * (tile.stop - tile.start) * width].reshape(s, -1, width)
            for i, row in enumerate(rows):
                a[index] = entries[nodes[i], tile]
                stage_fn(a, _stage_sum(y[tile], row, k), k[i], tile)
            new[tile] = _stage_sum(y[tile], b, k)
        y = new
        yield y


def _schrodinger_stage(a, y, k, tile):
    """k = A y, the stage of a (cells, d) batch of state vectors."""
    np.matmul(a, y[..., None], out=k[..., None])


def _lindblad_stage(n, src, w, route, a, y, k, tile):
    """The stage of packed density matrices: a row holds an n x n chain
    block, then the product populations (with zero imaginary part).  The
    increment of rho is A rho + (A rho)^+ plus the jumps: channel k moves
    w[:, k] * rho[src_k, src_k] (its rate times |amp|^2 times dt) along the
    row route[k] of chain diagonal entries and product populations."""
    rho, k_rho = y[:, :n * n].reshape(-1, n, n), k[:, :n * n].reshape(-1, n, n)
    m = np.matmul(a, rho)
    np.add(m, np.swapaxes(m, -1, -2).conj(), out=k_rho)
    flow = (rho[:, src, src].real * w[tile]) @ route
    diagonal = np.einsum("cii->ci", k_rho)  # a writeable view
    diagonal += flow[:, :n]
    k[:, n * n:] = flow[:, n:]


def _propagator_states(blocks, psi, tableau):
    """Advance a (1, d) batch of one cell by each step's exact map under
    ``tableau`` (blocks of steps from _stage_entries), yielding each state.

    For the step-scaled generators A_i of a step's stages, the increments
    are k_i = K_i psi with K_i = A_i (I + sum_j a_ij K_j), so the step is the
    matrix P = I + sum_i b_i K_i: one stacked product per stage for the P of
    a block of steps, then one product per step for the state."""
    eye = np.eye(psi.shape[-1])
    nodes, rows, b = tableau.stage_nodes, [np.array(row) for row in tableau.a], np.array(tableau.b)
    for gen, index, entries in blocks:
        gen = gen[:len(entries)]                                   # (n, nodes, 1, d, d)
        gen[index] = entries
        k = np.empty((len(nodes), len(gen)) + gen.shape[-2:], dtype=complex)
        for i, row in enumerate(rows):
            a = gen[:, nodes[i], 0]
            k[i] = a @ _stage_sum(eye, row, k) if i else a
        prop = _stage_sum(eye, b, k)
        # psi is a row: psi P^T = (P psi^T)^T
        for prop_t in np.swapaxes(prop, 1, 2):
            psi = psi @ prop_t
            yield psi


def evolve_schrodinger_batch(
    static, drive_ops, drive_fn, psi0, t_end, steps=DEFAULT_STEPS, record_every=None,
    tableau=RK4,
) -> BatchResult:
    """Fixed-step ``tableau`` steps for a batch of state-vector evolutions.

    static: (d, d) shared or (C, d, d) per cell; drive_fn maps a broadcastable
    time array (..., C) to a tuple of same-shaped coefficient arrays, one per
    drive op.

    A batch of one cell of dimension up to PROPAGATOR_MAX_DIM takes the same
    steps in the propagator order of _propagator_states: a few stacked
    products per block of steps, then one product per step, instead of
    dozens of small array operations per step.  Larger batches run in lockstep.
    """
    t_end = np.atleast_1d(np.asarray(t_end, dtype=float))
    cells = t_end.shape[0]
    dim = np.shape(psi0)[-1]
    psi = np.array(np.broadcast_to(np.asarray(psi0, dtype=complex), (cells, dim)))
    static = np.asarray(static, dtype=complex)
    nodes, lead, block = tableau.nodes, (), 1
    if cells == 1 and dim <= PROPAGATOR_MAX_DIM:
        block = max(1, PROPAGATOR_BLOCK_BYTES // (len(nodes) * dim * dim * 16))
        lead = (block, len(nodes))
    stages = _stage_entries(static, drive_ops, drive_fn, t_end, steps, nodes, lead, block)
    states = (_propagator_states(stages, psi, tableau) if lead
              else _lockstep_states(stages, psi, _schrodinger_stage, tableau))

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
    static, drive_ops, drive_fn, rho0, t_end, channels, steps=DEFAULT_STEPS, record_every=None,
    tableau=RK4,
) -> BatchResult:
    """Lockstep ``tableau`` steps for a batch of master-equation evolutions.

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
    stages.  Nothing couples a product coherently and no channel leaves
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
    src_c = np.searchsorted(chain, src)  # every source lies in the chain
    # channel k moves w[:, k] * rho[src_k, src_k] to its target: a chain
    # diagonal entry (the end-atom decays back to g_o) or a product population
    route = np.eye(dim)[tgt][:, order]
    g_diag = w @ np.eye(dim)[src][:, chain]

    block = (..., chain[:, None], chain)
    static_eff = static[block] - 0.5j * g_diag[:, :, None] * np.eye(n_chain)
    ops = [op[block] for op in ops]
    stages = _stage_entries(static_eff, ops, drive_fn, t_end, steps, tableau.nodes)
    # a row packs the chain block, then the product populations (zero at first)
    size = n_chain * n_chain
    y = np.zeros((cells, size + len(products)), dtype=complex)
    y[:, :size] = np.broadcast_to(rho0[block], (cells, n_chain, n_chain)).reshape(cells, size)
    w_step = w * (t_end / steps)[:, None]  # each cell's weights times its step
    stage = partial(_lindblad_stage, n_chain, src_c, w_step, route)
    states = _lockstep_states(stages, y, stage, tableau)

    def unpack(y):
        return y[:, :size].reshape(cells, n_chain, n_chain), y[:, size:].real

    def to_full(rho, pops):
        out = np.zeros((cells, dim, dim), dtype=complex)
        out[:, chain[:, None], chain] = rho
        out[:, products, products] = pops
        return out

    def min_eigenvalue(rho, pops):
        out = np.full(cells, np.nan)
        finite = np.isfinite(rho).all(axis=(1, 2))
        if np.any(finite):
            sym = 0.5 * (rho[finite] + np.swapaxes(rho[finite], -1, -2).conj())
            eig = np.linalg.eigvalsh(sym).min(axis=1)
            out[finite] = np.minimum(eig, pops[finite].min(axis=1, initial=np.inf))
        return out

    # positivity is checked at every record point, as in evolve_lindblad,
    # and at the end
    rec_marks = _record_marks(steps, record_every)
    records = None
    min_eig = np.full(cells, np.inf)
    rho, pops = unpack(y)
    if rec_marks is not None:
        records = [to_full(rho, pops)]
        min_eig = min_eigenvalue(rho, pops)
    max_trace = np.zeros(cells)
    with np.errstate(over="ignore", invalid="ignore"):
        for step, y in enumerate(states, start=1):
            rho, pops = unpack(y)
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
