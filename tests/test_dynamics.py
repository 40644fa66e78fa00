import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cavityghz import dynamics, experiments, model, observables, pulses
from cavityghz.errors import IntegrationError, ValidationError
from cavityghz.dynamics import TimeGrid


def two_level(omega):
    return omega * np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def test_timegrid_validation():
    with pytest.raises(ValidationError):
        TimeGrid(t_end=10.0, steps=500)
    with pytest.raises(ValidationError):
        TimeGrid(t_end=-1.0)
    grid = TimeGrid(t_end=10.0, steps=1500, record_every=400)
    marks = grid.record_steps()
    assert marks[0] == 0 and marks[-1] == 1500
    times = grid.times()
    assert times[0] == 0.0 and times[-1] == pytest.approx(10.0)


@pytest.mark.parametrize("kwargs, detail", [
    ({"t_end": float("nan")}, "must be finite"),
    ({"t_end": float("inf")}, "must be finite"),
    ({"t_end": 10.0, "steps": 1000.5}, "steps must be an integer"),
    ({"t_end": 10.0, "record_every": 2.5}, "record_every must be an integer"),
], ids=["nan-end", "inf-end", "fractional-steps", "fractional-stride"])
def test_timegrid_rejects_non_finite_bounds_and_fractional_counts(kwargs, detail):
    with pytest.raises(ValidationError, match=detail):
        TimeGrid(**kwargs)


def test_zero_hamiltonian_is_identity_evolution():
    psi0 = np.array([0.6, 0.8], dtype=complex)
    traj = dynamics.evolve_schrodinger(
        lambda t: np.zeros((2, 2), dtype=complex), psi0, TimeGrid(5.0, steps=1000)
    )
    assert np.allclose(traj.final_state, psi0)
    assert traj.diagnostics["max_norm_drift"] < 1e-14


def test_rabi_oscillation_matches_analytic():
    omega = 0.8
    grid = TimeGrid(t_end=12.0, steps=4000, record_every=200)
    traj = dynamics.evolve_schrodinger(
        lambda t: two_level(omega), np.array([1.0, 0.0], dtype=complex), grid
    )
    for t, state in zip(traj.times, traj.states):
        assert abs(state[1]) ** 2 == pytest.approx(np.sin(omega * t) ** 2, abs=1e-9)


def test_rk4_global_order():
    omega = 1.0
    psi0 = np.array([1.0, 0.0], dtype=complex)

    def final_error(steps):
        grid = TimeGrid(t_end=10.0, steps=steps, record_every=steps)
        traj = dynamics.evolve_schrodinger(lambda t: two_level(omega), psi0, grid)
        exact = np.array([np.cos(omega * 10.0), -1j * np.sin(omega * 10.0)])
        return np.linalg.norm(traj.final_state - exact)

    ratio = final_error(1000) / final_error(2000)
    assert 8.0 <= ratio <= 32.0  # fourth order: nominal ratio 16


def test_norm_drift_raises_with_refinement_hint():
    # deliberately under-resolved fast rotation
    with pytest.raises(IntegrationError, match="increase steps"):
        dynamics.evolve_schrodinger(
            lambda t: two_level(12.0),
            np.array([1.0, 0.0], dtype=complex),
            TimeGrid(t_end=200.0, steps=1000, record_every=100),
        )


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
@pytest.mark.parametrize("record_every", [1000, 100], ids=["end-only", "every-100"])
@pytest.mark.parametrize("master_equation", [False, True], ids=["schrodinger", "lindblad"])
def test_diverged_single_run_raises(master_equation, record_every):
    # dt * |H| = 10, far beyond the RK4 stability limit of about 2.8: the
    # state overflows, and its NaN or infinite drift must still be caught
    grid = TimeGrid(t_end=1000.0, steps=1000, record_every=record_every)
    with pytest.raises(IntegrationError, match="diverged"):
        if master_equation:
            jump = (np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex), 0.1)
            rho0 = np.diag([1.0, 0.0]).astype(complex)
            dynamics.evolve_lindblad(lambda t: two_level(10.0), [jump], rho0, grid)
        else:
            psi0 = np.array([1.0, 0.0], dtype=complex)
            dynamics.evolve_schrodinger(lambda t: two_level(10.0), psi0, grid)


def test_initial_state_must_be_normalized():
    with pytest.raises(ValidationError, match="normalized"):
        dynamics.evolve_schrodinger(
            lambda t: two_level(1.0),
            np.array([1.0, 1.0], dtype=complex),
            TimeGrid(5.0),
        )


def test_non_hermitian_hamiltonian_rejected():
    mat = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValidationError, match="Hermitian"):
        dynamics.evolve_schrodinger(
            lambda t: mat, np.array([1.0, 0.0], dtype=complex), TimeGrid(5.0)
        )


def test_lindblad_closed_limit_matches_schrodinger():
    params = model.SystemParams().with_t_f(40.0)
    space = model.build_space(params, open_system=True)
    terms = model.hamiltonian_terms(space, params, detuned=True)
    schedule = pulses.PulseSchedule(pulses.TQD, params)

    def h(t):
        om1, omn = schedule.drive(t)
        return terms.at(om1, omn)

    psi0 = space.basis_vector(0)
    grid = TimeGrid(params.t_f, steps=2000, record_every=500)
    traj_psi = dynamics.evolve_schrodinger(h, psi0, grid)
    jumps = model.jump_operators(space, params)  # all rates zero by default
    traj_rho = dynamics.evolve_lindblad(h, jumps, np.outer(psi0, psi0.conj()), grid)
    for psi, rho in zip(traj_psi.states, traj_rho.states):
        assert np.max(np.abs(rho - np.outer(psi, psi.conj()))) <= 1e-8


def test_single_mode_decay_exponential():
    kappa = 0.35
    jump = (np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex), kappa)
    rho0 = np.diag([0.0, 1.0]).astype(complex)
    grid = TimeGrid(t_end=8.0, steps=2000, record_every=100)
    traj = dynamics.evolve_lindblad(lambda t: np.zeros((2, 2), dtype=complex), [jump], rho0, grid)
    for t, rho in zip(traj.times, traj.states):
        assert rho[1, 1].real == pytest.approx(np.exp(-kappa * t), abs=1e-9)
    assert traj.diagnostics["max_trace_drift"] <= 1e-12
    assert traj.diagnostics["min_density_eigenvalue"] >= -1e-12


def test_lindblad_input_validation():
    grid = TimeGrid(5.0)
    h = lambda t: np.zeros((2, 2), dtype=complex)
    with pytest.raises(ValidationError, match="unit trace"):
        dynamics.evolve_lindblad(h, [], np.diag([0.5, 0.7]).astype(complex), grid)
    with pytest.raises(ValidationError, match="Hermitian"):
        rho = np.array([[1.0, 0.5], [0.0, 0.0]], dtype=complex)
        dynamics.evolve_lindblad(h, [], rho, grid)


def test_lindblad_without_jumps_is_the_pure_state_evolution():
    # with no jumps the channel index arrays are empty, and must stay integer
    grid = TimeGrid(t_end=5.0, steps=4000, record_every=400)
    psi0 = np.array([1.0, 0.0], dtype=complex)
    traj_psi = dynamics.evolve_schrodinger(lambda t: two_level(0.5), psi0, grid)
    traj_rho = dynamics.evolve_lindblad(
        lambda t: two_level(0.5), [], np.outer(psi0, psi0.conj()), grid
    )
    assert len(traj_rho.states) == len(traj_psi.states)
    for psi, rho in zip(traj_psi.states, traj_rho.states):
        assert np.max(np.abs(rho - np.outer(psi, psi.conj()))) <= 1e-12


def test_lindblad_matches_dense_superoperator_exponential(open_space3):
    # independent oracle: the textbook Lindblad superoperator, built from the
    # full jump matrices and exponentiated, at a constant drive
    from scipy.linalg import expm

    params = model.SystemParams(gamma=0.05, kappa_c=0.03, kappa_f=0.02)
    space = open_space3
    dim = space.dim
    static = model.hamiltonian_terms(space, params, detuned=True).static
    x1, xn = model.laser_couplings(space)
    om1, omn = 0.3, 0.2
    h = static + om1 * x1.mat + omn * xn.mat
    jumps = model.jump_operators(space, params)
    eye = np.eye(dim)
    # row-major vec: vec(A rho B) = (A kron B^T) vec(rho)
    sup = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for jump in jumps:
        lop = jump.operator.mat
        ldl = lop.conj().T @ lop
        sup += jump.rate * (
            np.kron(lop, lop.conj()) - 0.5 * np.kron(ldl, eye) - 0.5 * np.kron(eye, ldl.T)
        )
    psi0 = space.basis_vector(0)
    rho0 = np.outer(psi0, psi0.conj())
    # the RK4 error here is 7.5e-10 and falls 16x per step doubling
    grid = TimeGrid(t_end=20.0, steps=4000, record_every=1000)
    exact = np.array([(expm(sup * t) @ rho0.ravel()).reshape(dim, dim) for t in grid.times()])
    assert np.abs(exact[-1, 0, 0] - 1.0) > 0.1  # the drive and the decay act

    single = dynamics.evolve_lindblad(lambda t: h, jumps, rho0, grid)
    assert np.max(np.abs(single.states - exact)) <= 2e-9

    structure = model.channel_structure(space)
    weights = model.channel_rates(structure, params) * structure.amp_sq
    batch = dynamics.evolve_lindblad_batch(
        static, [x1.mat, xn.mat], lambda t: (np.full_like(t, om1), np.full_like(t, omn)),
        rho0, [grid.t_end], (structure.sources, structure.targets, weights),
        steps=grid.steps, record_every=grid.record_every,
    )
    assert np.max(np.abs(batch.records[0] - exact)) <= 2e-9


def make_tqd_setup(params, open_system=False):
    space = model.build_space(params, open_system=open_system)
    terms = model.hamiltonian_terms(space, params, detuned=True)
    schedule = pulses.PulseSchedule(pulses.TQD, params)

    def h(t):
        om1, omn = schedule.drive(t)
        return terms.at(om1, omn)

    return space, terms, h


def test_batched_schrodinger_matches_single_runs():
    base = model.SystemParams().with_t_f(60.0)
    cells = [base, base.replace(delta=1.7)]
    space, _, _ = make_tqd_setup(base)
    statics = np.stack(
        [model.hamiltonian_terms(space, p, detuned=True).static for p in cells]
    )
    x1, xn = model.laser_couplings(space)

    def drive(t):
        bars = np.stack(
            [pulses.tqd_pulse(t[..., i], p) for i, p in enumerate(cells)], axis=-1
        )
        return bars, bars

    batch = dynamics.evolve_schrodinger_batch(
        statics, [x1.mat, xn.mat], drive, space.basis_vector(0),
        [p.t_f for p in cells], steps=2000,
    )
    for i, p in enumerate(cells):
        _, _, h = make_tqd_setup(p)
        single = dynamics.evolve_schrodinger(
            h, space.basis_vector(0), TimeGrid(p.t_f, steps=2000, record_every=2000)
        )
        assert np.max(np.abs(batch.finals[i] - single.final_state)) <= 1e-10


def test_batched_lindblad_matches_single_run():
    params = model.SystemParams(gamma=0.004, kappa_c=0.005, kappa_f=0.001).with_t_f(40.0)
    space, terms, h = make_tqd_setup(params, open_system=True)
    x1, xn = model.laser_couplings(space)
    structure = model.channel_structure(space)
    weights = (model.channel_rates(structure, params) * structure.amp_sq)[None, :]

    def drive(t):
        bar = pulses.tqd_pulse(t[..., 0], params)[..., None]
        return bar, bar

    psi0 = space.basis_vector(0)
    rho0 = np.outer(psi0, psi0.conj())
    batch = dynamics.evolve_lindblad_batch(
        terms.static, [x1.mat, xn.mat], drive, rho0, [params.t_f],
        (structure.sources, structure.targets, weights), steps=2000,
    )
    single = dynamics.evolve_lindblad(
        h, model.jump_operators(space, params), rho0,
        TimeGrid(params.t_f, steps=2000, record_every=2000),
    )
    assert np.max(np.abs(batch.finals[0] - single.final_state)) <= 1e-10
    assert batch.diagnostics["max_trace_drift"][0] <= 1e-9
    assert batch.diagnostics["min_density_eigenvalue"][0] >= -1e-9


@pytest.mark.parametrize("rate", [-0.5, float("nan"), float("inf")])
def test_lindblad_rejects_bad_jump_rates(rate):
    jump = (np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex), rate)
    rho0 = np.diag([0.5, 0.5]).astype(complex)
    with pytest.raises(ValidationError, match="jump rate"):
        dynamics.evolve_lindblad(lambda t: two_level(1.0), [jump], rho0, TimeGrid(5.0))
    with pytest.raises(ValidationError, match="jump rate"):
        model.JumpOperator(jump[0], rate)


@pytest.mark.parametrize("jump", [
    (np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex), 0.1),
    (np.zeros((2, 2), dtype=complex), 0.1),
], ids=["sigma-x", "zero"])
def test_lindblad_rejects_multi_entry_jumps(jump):
    # only single-entry collapse operators amp |target><source| are integrated
    assert model.single_entry(jump[0]) is None
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(ValidationError, match="one nonzero entry"):
        dynamics.evolve_lindblad(lambda t: two_level(1.0), [jump], rho0, TimeGrid(5.0))


# --- stage generators ---------------------------------------------------------

@pytest.mark.parametrize("cells", [1, 3])
@pytest.mark.parametrize("per_cell_static", [False, True], ids=["shared", "per-cell"])
@pytest.mark.parametrize("block", [1, 32])
def test_stage_blocks_are_contiguous_step_scaled_generators(
    monkeypatch, rng, cells, per_cell_static, block
):
    # several drive chunks, and a last block shorter than the others
    monkeypatch.setattr(dynamics, "DRIVE_CHUNK_SAMPLES", 300)
    dim, steps = 5, 250
    shape = (cells, dim, dim) if per_cell_static else (dim, dim)
    static = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    ops = np.zeros((2, dim, dim), dtype=complex)
    ops[0, 0, 1] = ops[0, 1, 0] = 1.0
    ops[1, 3, 4], ops[1, 4, 3], ops[1, 2, 2] = 0.5j, -0.5j, 2.0
    t_end = np.linspace(40.0, 60.0, cells)

    def coefficients(t):
        return np.sin(0.3 * t), np.exp(-0.01 * t) * np.cos(t)

    dt = t_end / steps
    marks = np.linspace(0.0, 1.0, steps + 1)[:, None] * t_end
    for tableau in (dynamics.RK4, dynamics.DOP853):
        nodes = np.array(tableau.nodes)
        done = 0
        lead = (block, len(nodes))
        blocks = dynamics._stage_entries(
            static, ops, coefficients, t_end, steps, nodes, lead, block
        )
        for gen, index, entries in blocks:
            n = len(entries)
            gen = gen[:n]
            gen[index] = entries
            assert gen.flags["C_CONTIGUOUS"] and gen.shape == (n, len(nodes), cells, dim, dim)
            assert n <= block
            # the stage times t + c dt of the shared fractional grid
            t0, t1 = marks[done:done + n, None], marks[done + 1:done + n + 1, None]
            c = nodes[:, None]
            times = (1.0 - c) * t0 + c * t1                                 # (n, nodes, cells)
            c1, c2 = coefficients(times)
            h = static + c1[..., None, None] * ops[0] + c2[..., None, None] * ops[1]
            expected = dt[:, None, None] * (-1j * h)
            assert np.max(np.abs(gen - expected)) <= 1e-15 * np.max(np.abs(expected))
            done += n
        assert done == steps


@pytest.mark.parametrize("open_system", [False, True], ids=["closed", "open"])
def test_lockstep_stage_entries_equal_stacked_blocks(open_space3, space3, open_system):
    # the lockstep loops write each node's entries into one buffer, which
    # then holds the generators that the propagator order stacks
    space = open_space3 if open_system else space3
    static = model.hamiltonian_terms(space, model.SystemParams(), detuned=True).static
    statics = static * np.linspace(0.9, 1.1, 5)[:, None, None]
    ops = [op.mat for op in model.laser_couplings(space)]
    t_end = np.linspace(60.0, 80.0, 5)
    params = model.SystemParams().with_t_f(72.0)

    def drive(t):
        bar = pulses.tqd_pulse(t, params)
        return bar, 0.5 * bar

    nodes = dynamics.DOP853.nodes
    blocks = dynamics._stage_entries(statics, ops, drive, t_end, 40, nodes, (1, len(nodes)))
    stages = dynamics._stage_entries(statics, ops, drive, t_end, 40, nodes)
    for (block, index, entries), (gen, _, (step,)) in zip(blocks, stages, strict=True):
        block[index] = entries
        assert gen.flags["C_CONTIGUOUS"] and gen.shape == block.shape[2:]
        for node in reversed(range(len(nodes))):
            gen[index] = step[node]
            assert np.array_equal(gen, block[0, node])


# --- one-cell propagator order ----------------------------------------------

@pytest.mark.parametrize("record_every", [100, None], ids=["every-100", "final-only"])
@pytest.mark.parametrize("kind", [pulses.TQD, pulses.ADIABATIC])
def test_one_cell_batch_matches_lockstep(kind, record_every):
    # one cell takes the propagator order, two cells the lockstep loop
    params = model.SystemParams().with_t_f(72.0)
    _, one = experiments._group_integrator(kind, False, [(params, 1.0)])
    _, two = experiments._group_integrator(kind, False, [(params, 1.0)] * 2)
    single, pair = one(4000, record_every), two(4000, record_every)
    assert single.finals.shape == (1,) + pair.finals.shape[1:]
    assert np.max(np.abs(single.finals[0] - pair.finals[0])) <= 1e-12
    if record_every is None:
        assert single.records is None and single.record_fractions is None
    else:
        assert single.records.shape == (1,) + pair.records.shape[1:]
        assert np.max(np.abs(single.records[0] - pair.records[0])) <= 1e-12
        assert np.max(np.abs(single.record_fractions - pair.record_fractions)) <= 1e-12
    drift = single.diagnostics["max_norm_drift"]
    assert drift.shape == (1,)
    assert abs(drift[0] - pair.diagnostics["max_norm_drift"][0]) <= 1e-12


@pytest.mark.parametrize("n_atoms, cells, propagators", [
    (3, 1, True), (5, 1, True), (7, 1, False), (3, 2, False), (9, 1, False),
])
def test_propagator_order_takes_one_small_cell(monkeypatch, n_atoms, cells, propagators):
    # the propagators are d times the stage arithmetic: under DOP853 they pay
    # for one cell of up to N = 5 (d <= 19), not for d = 27 or two cells
    calls = []
    original = dynamics._propagator_states

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(dynamics, "_propagator_states", spy)
    params = model.SystemParams(n_atoms=n_atoms).with_t_f(72.0)
    _, integrate = experiments._group_integrator(pulses.TQD, False, [(params, 1.0)] * cells)
    integrate(1000)
    assert bool(calls) == propagators


@pytest.mark.parametrize("cells", [1, 2])
@pytest.mark.parametrize("record_every", [100, None], ids=["every-100", "final-only"])
def test_diverged_batch_reports_non_finite_drift(cells, record_every):
    # dt * |H| = 10, far beyond the RK4 stability limit: the drift must come
    # out non-finite, never as the 0.0 that max(0.0, nan) would give
    psi0 = np.array([1.0, 0.0], dtype=complex)
    batch = dynamics.evolve_schrodinger_batch(
        np.zeros((2, 2), dtype=complex), [two_level(1.0)],
        lambda t: (np.full_like(t, 10.0),), psi0, np.full(cells, 1000.0),
        steps=1000, record_every=record_every,
    )
    assert not np.isfinite(batch.diagnostics["max_norm_drift"]).any()


# --- chain-block Lindblad batch ----------------------------------------------

def open_pair(params, steps=1000, record_every=None, extra_ops=()):
    """One open tqd cell through evolve_lindblad_batch and through the full
    16x16-style single run; ``extra_ops`` are added to H with coefficient 1."""
    space, terms, h = make_tqd_setup(params, open_system=True)
    x1, xn = model.laser_couplings(space)
    structure = model.channel_structure(space)
    weights = (model.channel_rates(structure, params) * structure.amp_sq)[None, :]

    def drive(t):
        bar = pulses.tqd_pulse(t[..., 0], params)[..., None]
        return (bar, bar) + tuple(np.ones_like(bar) for _ in extra_ops)

    def h_full(t):
        return h(t) + sum(extra_ops)

    psi0 = space.basis_vector(0)
    rho0 = np.outer(psi0, psi0.conj())
    batch = dynamics.evolve_lindblad_batch(
        terms.static, [x1.mat, xn.mat, *extra_ops], drive, rho0, [params.t_f],
        (structure.sources, structure.targets, weights),
        steps=steps, record_every=record_every,
    )
    single = dynamics.evolve_lindblad(
        h_full, model.jump_operators(space, params), rho0,
        TimeGrid(params.t_f, steps=steps, record_every=record_every or steps),
    )
    return space, batch, single


@pytest.mark.parametrize("params", [
    model.SystemParams(gamma=0.004, kappa_c=0.005, kappa_f=0.001).with_t_f(40.0),
    experiments.natom_params(5, t_f=60.0).replace(gamma=0.006, kappa_c=0.003, kappa_f=0.002),
], ids=["n3", "n5"])
def test_chain_block_batch_matches_full_single_run(params):
    space, batch, single = open_pair(params, steps=1000, record_every=250)
    assert batch.finals.shape == (1, space.dim, space.dim)
    assert np.max(np.abs(batch.finals[0] - single.final_state)) <= 1e-12
    assert batch.records.shape == (1,) + single.states.shape
    assert np.max(np.abs(batch.records[0] - single.states)) <= 1e-12
    assert np.allclose(batch.record_fractions * params.t_f, single.times, rtol=0, atol=1e-12)
    for name, value in single.diagnostics.items():
        assert abs(batch.diagnostics[name][0] - value) <= 1e-12, name


@pytest.mark.parametrize("n_atoms", [3, 5, 7])
def test_chain_states_are_the_coupled_chain(n_atoms):
    params = model.SystemParams(n_atoms=n_atoms)
    space = model.build_space(params, open_system=True)
    terms = model.hamiltonian_terms(space, params, detuned=True)
    x1, xn = model.laser_couplings(space)
    structure = model.channel_structure(space)
    rho0 = np.outer(space.basis_vector(0), space.basis_vector(0))
    mask = dynamics._chain_states(terms.static, [x1.mat, xn.mat], structure.sources, rho0)
    assert mask.sum() == 4 * n_atoms - 1 < space.dim


def test_drive_op_touching_every_state_uses_full_matrix(open_space3, rng):
    params = model.SystemParams(gamma=0.01, kappa_c=0.004, kappa_f=0.002).with_t_f(40.0)
    dim = open_space3.dim
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    dense = 0.01 * (m + m.conj().T)
    assert np.all(dense != 0)
    _, batch, single = open_pair(params, record_every=250, extra_ops=(dense,))
    # the products are now coupled coherently, so nothing stays inert
    assert np.abs(single.final_state[11:, :11]).max() > 1e-6
    assert np.max(np.abs(batch.finals[0] - single.final_state)) <= 1e-12
    for name, value in single.diagnostics.items():
        assert abs(batch.diagnostics[name][0] - value) <= 1e-12, name


@settings(max_examples=4, deadline=None, database=None)
@given(
    gamma=st.floats(0.0, 0.02),
    kappa_c=st.floats(0.0, 0.02),
    kappa_f=st.floats(0.0, 0.02),
    t_f=st.floats(30.0, 80.0),
)
def test_open_batch_properties(gamma, kappa_c, kappa_f, t_f):
    params = model.SystemParams(gamma=gamma, kappa_c=kappa_c, kappa_f=kappa_f).with_t_f(t_f)
    _, batch, single = open_pair(params)
    rho = batch.finals[0]
    assert batch.diagnostics["max_trace_drift"][0] <= 1e-9
    assert abs(np.trace(rho).real - 1.0) <= 1e-9
    assert batch.diagnostics["min_density_eigenvalue"][0] >= -1e-6
    fidelity = observables.ghz_fidelity(
        rho, observables.target_state(pulses.TQD, 3, dim=rho.shape[0]), schedule_kind=pulses.TQD
    )
    assert 0.0 <= fidelity <= 1.0
    assert np.max(np.abs(rho - single.final_state)) <= 1e-12


@pytest.mark.parametrize("cells", [1, 50])
@pytest.mark.parametrize("open_system", [False, True])
def test_drive_is_evaluated_per_chunk(open_space3, space3, cells, open_system):
    space = open_space3 if open_system else space3
    params = model.SystemParams()
    static = model.hamiltonian_terms(space, params, detuned=True).static
    x1, xn = model.laser_couplings(space)
    sizes = []

    def drive(t):
        sizes.append(t.size)
        return np.zeros_like(t), np.zeros_like(t)

    psi0 = space.basis_vector(0)
    t_end = np.full(cells, 40.0)
    steps = 1000
    if open_system:
        structure = model.channel_structure(space)
        dynamics.evolve_lindblad_batch(
            static, [x1.mat, xn.mat], drive, np.outer(psi0, psi0), t_end,
            (structure.sources, structure.targets, np.zeros(len(structure.sources))),
            steps=steps,
        )
    else:
        dynamics.evolve_schrodinger_batch(static, [x1.mat, xn.mat], drive, psi0, t_end, steps=steps)
    assert sum(sizes) == 3 * steps * cells
    chunk = max(1, dynamics.DRIVE_CHUNK_SAMPLES // (3 * cells))
    assert len(sizes) == -(-steps // chunk)
    assert max(sizes) <= dynamics.DRIVE_CHUNK_SAMPLES


# --- Butcher tableaus and cell tiles ------------------------------------------

def test_dop853_coefficients_equal_scipy():
    from scipy.integrate._ivp import dop853_coefficients as reference

    tableau = dynamics.DOP853
    a = np.zeros((12, 12))
    for i, row in enumerate(tableau.a):
        for j, value in row:
            assert j < i
            a[i, j] = value
    b = np.zeros(12)
    for i, value in tableau.b:
        b[i] = value
    assert np.array_equal(a, reference.A[:12, :12])
    assert np.array_equal(b, reference.B)
    assert np.array_equal(tableau.c, reference.C[:12])
    assert sum(len(row) for row in tableau.a) == np.count_nonzero(reference.A[:12, :12]) == 50
    assert tableau.nodes == tableau.c and len(dynamics.RK4.nodes) == 3


@pytest.mark.parametrize("cells", [1, 2], ids=["propagators", "lockstep"])
def test_dop853_is_eighth_order(cells):
    # constant two-level H: the error falls 2^8 = 256 times per step doubling
    psi0 = np.array([1.0, 0.0], dtype=complex)
    exact = np.array([np.cos(10.0), -1j * np.sin(10.0)])

    def final_error(steps):
        batch = dynamics.evolve_schrodinger_batch(
            np.zeros((2, 2)), [two_level(1.0)], lambda t: (np.ones_like(t),), psi0,
            np.full(cells, 10.0), steps=steps, tableau=dynamics.DOP853,
        )
        return np.max(np.linalg.norm(batch.finals - exact, axis=1))

    assert final_error(20) > 1e-9
    ratio = final_error(20) / final_error(40)
    assert 128.0 <= ratio <= 512.0


def test_cell_tiles_never_leave_a_lone_cell(monkeypatch):
    # a tile of one cell would take the one-cell order of operations
    monkeypatch.setattr(dynamics, "CELL_TILE_BYTES", 300)
    sizes = [[s.stop - s.start for s in dynamics._cell_tiles(cells, 100)] for cells in range(1, 8)]
    assert sizes == [[1], [2], [3], [4], [3, 2], [3, 3], [3, 4]]
    monkeypatch.setattr(dynamics, "CELL_TILE_BYTES", 1)
    assert [s.stop - s.start for s in dynamics._cell_tiles(5, 100)] == [2, 3]


@pytest.mark.parametrize("record_every", [50, None], ids=["every-50", "final-only"])
@pytest.mark.parametrize("open_system", [False, True], ids=["closed", "open"])
def test_tiled_batch_equals_untiled_batch(monkeypatch, open_system, record_every):
    # cells with their own couplings, rates and pulses, in one tile and in
    # tiles of two or three cells: finals, records and diagnostics agree bit
    # for bit
    base = model.SystemParams(gamma=0.004, kappa_c=0.005, kappa_f=0.001)
    cells = [
        (base.replace(g=1.0 + 0.02 * i, gamma=0.002 * i).with_t_f(60.0 + 3 * i), 1.0 + 0.01 * i)
        for i in range(7)
    ]
    _, integrate = experiments._group_integrator(pulses.TQD, open_system, cells)
    whole = integrate(200, record_every, dynamics.DOP853)
    tiles = []
    original = dynamics._cell_tiles

    def spy(*args):
        tiles.append(original(*args))
        return tiles[-1]

    monkeypatch.setattr(dynamics, "_cell_tiles", spy)
    monkeypatch.setattr(dynamics, "CELL_TILE_BYTES", 1)
    tiled = integrate(200, record_every, dynamics.DOP853)
    assert [s.stop - s.start for s in tiles[0]] == [2, 2, 3]
    assert np.array_equal(tiled.finals, whole.finals)
    if record_every is None:
        assert tiled.records is None and whole.records is None
    else:
        assert np.array_equal(tiled.records, whole.records)
        assert np.array_equal(tiled.record_fractions, whole.record_fractions)
    assert tiled.diagnostics.keys() == whole.diagnostics.keys()
    for name, value in whole.diagnostics.items():
        assert np.array_equal(tiled.diagnostics[name], value), name


def test_importing_the_cli_leaves_scipy_out():
    # the coefficients are literals: numpy stays the only runtime dependency
    code = "import sys, cavityghz.cli; print('scipy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
