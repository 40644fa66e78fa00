import numpy as np
import pytest

from cavityghz import hilbert, model, zeno
from cavityghz.errors import DimensionError, ValidationError
from cavityghz.hilbert import AtomLevel as L

CHAIN_WEIGHTS = ["g", "v", "v", "g", "g", "v", "v", "g"]


def test_coupling_chain_pattern(space3):
    params = model.SystemParams(g=1.3, v=0.7)
    h_c = model.coupling_hamiltonian(space3, params).mat
    strengths = {"g": 1.3, "v": 0.7}
    expected = np.zeros((11, 11))
    for k, w in enumerate(CHAIN_WEIGHTS, start=1):
        expected[k, k + 1] = expected[k + 1, k] = strengths[w]
    assert np.allclose(h_c, expected)


def test_coupling_leaves_end_states_alone(space3, params3):
    h_c = model.coupling_hamiltonian(space3, params3).mat
    assert np.allclose(h_c[0], 0.0) and np.allclose(h_c[:, 0], 0.0)
    assert np.allclose(h_c[10], 0.0) and np.allclose(h_c[:, 10], 0.0)


def test_coupling_annihilates_bright_state(space3, params3, space5, params5):
    h3 = model.coupling_hamiltonian(space3, params3).mat
    assert np.linalg.norm(h3 @ zeno.bright_state(1.0, 1.0, 3)) < 1e-10
    h5 = model.coupling_hamiltonian(space5, params5).mat
    assert np.linalg.norm(h5 @ zeno.bright_state(1.0, 1.0, 5)) < 1e-10


def laser_drive(space, omega_1, omega_n, phase_fix=False):
    """Omega_1 X_1 + Omega_N X_N from the laser couplings."""
    x1, xn = model.laser_couplings(space, phase_fix=phase_fix)
    return omega_1 * x1.mat + omega_n * xn.mat


def excitation_number(space):
    """Diagonal total excitation number: excited atoms plus all photons."""
    return np.diag([float(st.excitations) for st in space.basis])


def test_laser_elements(space3):
    h_l = laser_drive(space3, 0.07, 0.11)
    assert h_l[1, 0] == pytest.approx(0.07)
    assert h_l[9, 10] == pytest.approx(0.11)
    assert np.count_nonzero(h_l) == 4
    assert np.max(np.abs(h_l - h_l.conj().T)) < 1e-15


def test_laser_phase_fix(space3):
    h_l = laser_drive(space3, 0.07, 0.11, phase_fix=True)
    assert h_l[9, 10] == pytest.approx(-0.11j)
    assert h_l[10, 9] == pytest.approx(+0.11j)
    assert np.max(np.abs(h_l - h_l.conj().T)) < 1e-15


def test_laser_zero_drive(space3):
    assert np.allclose(laser_drive(space3, 0.0, 0.0), 0.0)


def test_total_real_symmetric_without_phase_fix(space3, params3):
    terms = model.hamiltonian_terms(space3, params3, detuned=True)
    h = terms.at(0.1, 0.2)
    assert np.max(np.abs(h.imag)) == 0.0
    assert np.allclose(h, h.T)


def test_detuning_diagonal(space3):
    params = model.SystemParams(delta=2.3)
    h_d = model.detuning_hamiltonian(space3, params).mat
    assert np.allclose(h_d, np.diag(np.diag(h_d)))
    assert h_d[1, 1] == pytest.approx(2.3)
    assert h_d[2, 2] == 0.0
    assert np.trace(h_d).real == pytest.approx(3 * 2.3)


def test_excitation_structure_justifies_truncation(space3, open_space3, params3):
    # the static part conserves the excitation number exactly; the lasers
    # only toggle the two pump-ready states (changing it by exactly one), so
    # the closure never leaves the single-excitation sector
    n_exc = excitation_number(space3)
    static = (
        model.coupling_hamiltonian(space3, params3).mat
        + model.detuning_hamiltonian(space3, params3).mat
    )
    assert np.max(np.abs(static @ n_exc - n_exc @ static)) <= 1e-12
    h_l = laser_drive(space3, 1.0, 1.0)
    comm = h_l @ n_exc - n_exc @ h_l
    assert set(zip(*np.nonzero(comm))) == {(0, 1), (1, 0), (9, 10), (10, 9)}
    assert max(st.excitations for st in open_space3.basis) == 1


def test_jump_operator_census(open_space3):
    params = model.SystemParams(gamma=0.3, kappa_c=0.02, kappa_f=0.01)
    jumps = model.jump_operators(open_space3, params)
    assert len(jumps) == 15
    atomic = [j for j in jumps if j.label.startswith("atom")]
    cavity = [j for j in jumps if j.label.startswith("loss:C")]
    fiber = [j for j in jumps if j.label.startswith("loss:f")]
    assert (len(atomic), len(cavity), len(fiber)) == (9, 4, 2)
    for j in atomic:
        assert j.rate == pytest.approx(0.3 / 3.0)
    assert all(j.rate == pytest.approx(0.02) for j in cavity)
    assert all(j.rate == pytest.approx(0.01) for j in fiber)


def test_jump_operators_lower_excitation_by_one(open_space3, params3):
    n_exc = excitation_number(open_space3)
    for j in model.jump_operators(open_space3, params3):
        mat = j.operator.mat
        # [N, L] = -L for a process removing exactly one excitation
        assert np.max(np.abs(n_exc @ mat - mat @ n_exc + mat)) <= 1e-12


def test_fiber_jump_maps_photon_state_to_decay_product(open_space3, params3):
    jumps = {j.label: j for j in model.jump_operators(open_space3, params3)}
    op = jumps["loss:f1"].operator.mat
    out = op @ open_space3.basis_vector(3)
    assert out[11] == pytest.approx(1.0)
    assert np.count_nonzero(out) == 1


def test_jump_operators_need_open_space(space3, params3):
    with pytest.raises(DimensionError, match="open_system=True"):
        model.jump_operators(space3, params3)


def test_closed_limit_branching_configurable(open_space3):
    branching = {L.G_O: 0.5, L.G_L: 0.25, L.G_R: 0.25}
    params = model.SystemParams(gamma=0.1, branching=branching)
    jumps = model.jump_operators(open_space3, params)
    rates = sorted(j.rate for j in jumps if j.label.startswith("atom0"))
    assert rates == pytest.approx([0.025, 0.025, 0.05])


def test_params_defaults():
    p = model.SystemParams()
    assert p.v == p.g == 1.0
    assert p.t0 == pytest.approx(0.14 * p.t_f)
    assert p.tc == pytest.approx(0.19 * p.t_f)
    assert sum(p.branching.values()) == pytest.approx(1.0)


def test_params_validation_collects_all_problems():
    with pytest.raises(ValidationError) as err:
        model.SystemParams(n_atoms=4, gamma=-1.0, t_f=-5.0)
    text = str(err.value)
    assert "odd" in text and "gamma" in text and "t_f" in text
    assert len(err.value.problems) >= 3


@pytest.mark.parametrize("n_atoms", [3.5, 5.0, "3", True])
def test_params_reject_non_integer_atom_count(n_atoms):
    with pytest.raises(ValidationError, match="n_atoms must be an odd integer"):
        model.SystemParams(n_atoms=n_atoms)


@pytest.mark.parametrize("field", [
    "g", "v", "omega0", "t_f", "t0", "tc", "delta", "alpha", "gamma", "kappa_c", "kappa_f",
])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_params_reject_non_finite(field, value):
    with pytest.raises(ValidationError, match=f"{field} must be finite"):
        model.SystemParams(**{field: value})


def test_params_reject_nan_branching():
    with pytest.raises(ValidationError, match="branching"):
        model.SystemParams(branching={L.G_O: float("nan"), L.G_L: 0.5, L.G_R: 0.5})


def test_params_branching_must_sum_to_one():
    with pytest.raises(ValidationError, match="sum to 1"):
        model.SystemParams(branching={L.G_O: 0.5, L.G_L: 0.2, L.G_R: 0.2})


def test_scale_time_stretches_whole_schedule():
    p = model.SystemParams().with_t_f(100.0)
    q = p.scale_time(1.1)
    assert q.t_f == pytest.approx(110.0)
    assert q.t0 / q.t_f == pytest.approx(p.t0 / p.t_f)
    assert q.tc / q.t_f == pytest.approx(p.tc / p.t_f)


def test_params_round_trip():
    p = model.SystemParams(g=1.2, v=0.8, gamma=0.01, n_atoms=5)
    assert model.SystemParams.from_dict(p.to_dict()) == p


def test_experimental_rates():
    p = model.experimental_params()
    assert p.gamma == pytest.approx(2.62 / 750.0)
    assert p.kappa_c == pytest.approx(3.5 / 750.0)
    assert p.kappa_f == pytest.approx(1.52e5 / (2 * np.pi * 750e6))


def test_channel_structure_rejects_multi_entry_channel(open_space3, monkeypatch):
    # a channel that maps every state to itself has one entry per state
    identity = hilbert.Stencil("identity", "kappa_c", lambda st: (st, 1.0))
    monkeypatch.setattr(hilbert, "decay_stencils", lambda n_atoms: (identity,))
    with pytest.raises(DimensionError, match="single-entry"):
        model.channel_structure(open_space3)


def test_channel_structure_matches_jump_operators(open_space3):
    params = model.SystemParams(gamma=0.3, kappa_c=0.02, kappa_f=0.01)
    structure = model.channel_structure(open_space3)
    rates = model.channel_rates(structure, params)
    jumps = model.jump_operators(open_space3, params)
    assert len(rates) == len(jumps)
    for k, j in enumerate(jumps):
        mat = j.operator.mat
        tgt, src = np.argwhere(mat != 0)[0]
        assert (structure.sources[k], structure.targets[k]) == (src, tgt)
        assert rates[k] == pytest.approx(j.rate)
