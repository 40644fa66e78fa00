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


def test_lindblad_general_path_matches_fast_path(open_space3, rng):
    params = model.SystemParams(gamma=0.01, kappa_c=0.005, kappa_f=0.002)
    jumps = model.jump_operators(open_space3, params)
    dim = open_space3.dim
    rhs_fast = dynamics.LindbladRHS(lambda t: np.zeros((dim, dim)), jumps, dim)
    rhs_general = dynamics.LindbladRHS(lambda t: np.zeros((dim, dim)), jumps, dim)
    rhs_general.channels = None
    assert rhs_fast.channels is not None
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    rho /= np.trace(rho)
    assert np.max(np.abs(rhs_fast(0.0, rho) - rhs_general(0.0, rho))) <= 1e-14


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


def test_batched_lindblad_rejects_multi_entry_channels():
    bad = np.zeros((2, 2), dtype=complex)
    bad[0, 1] = bad[1, 0] = 1.0
    mats = bad[None]
    assert dynamics._single_entry_channels(mats, np.array([1.0])) is None


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
    (3, 1, True), (7, 1, True), (3, 2, False), (9, 1, False),
])
def test_propagator_order_takes_one_small_cell(monkeypatch, n_atoms, cells, propagators):
    # the propagators are d times the stage arithmetic: they pay for one
    # cell of the registered chains (d <= 27), not for d = 35 or two cells
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
