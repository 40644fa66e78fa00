import numpy as np
import pytest

from cavityghz import observables
from cavityghz.errors import DimensionError, MethodMismatchError, ValidationError


def test_population_of_matching_projector():
    vec = np.zeros(11, dtype=complex)
    vec[0] = 1.0
    rho = np.outer(vec, vec.conj())
    assert observables.population(rho, vec) == pytest.approx(1.0)


def test_population_maximally_mixed():
    rho = np.eye(11, dtype=complex) / 11
    vec = np.zeros(11, dtype=complex)
    vec[3] = 1.0
    assert observables.population(rho, vec) == pytest.approx(1 / 11)


def test_population_pure_state_path():
    psi = np.array([0.6, 0.8j], dtype=complex)
    probe = np.array([1.0, 0.0], dtype=complex)
    assert observables.population(psi, probe) == pytest.approx(0.36)


def test_population_dimension_mismatch():
    with pytest.raises(DimensionError):
        observables.population(np.zeros(4, dtype=complex), np.zeros(5, dtype=complex))


def test_targets_supported_on_end_states_only():
    for method, phase in ((observables.ADIABATIC, -1.0), (observables.TQD, 1.0j)):
        for n in (3, 5):
            t = observables.target_state(method, n)
            nz = np.nonzero(t.vector)[0]
            assert list(nz) == [0, 4 * n - 2]
            assert np.linalg.norm(t.vector) == pytest.approx(1.0)
            assert t.vector[4 * n - 2] / t.vector[0] == pytest.approx(phase)


def test_target_unknown_method():
    with pytest.raises(ValidationError):
        observables.target_state("sudden", 3)


def test_target_embeds_into_larger_space():
    t = observables.target_state(observables.TQD, 3, dim=16)
    assert t.vector.shape == (16,)
    assert np.all(t.vector[11:] == 0.0)


def test_fidelity_of_exact_target():
    t = observables.target_state(observables.TQD, 3)
    rho = np.outer(t.vector, t.vector.conj())
    assert observables.ghz_fidelity(rho, t) == pytest.approx(1.0)


def test_fidelity_global_phase_invariance():
    t = observables.target_state(observables.ADIABATIC, 3)
    psi = np.exp(1.3j) * t.vector
    assert observables.ghz_fidelity(psi, t) == pytest.approx(1.0)


def test_fidelity_equals_population_for_pure_states(rng):
    t = observables.target_state(observables.TQD, 3)
    psi = rng.normal(size=11) + 1j * rng.normal(size=11)
    psi /= np.linalg.norm(psi)
    rho = np.outer(psi, psi.conj())
    f_pure = observables.ghz_fidelity(psi, t)
    f_rho = observables.ghz_fidelity(rho, t)
    assert abs(f_pure - f_rho) <= 1e-12


def test_method_mismatch_is_hard_error():
    t = observables.target_state(observables.TQD, 3)
    psi = t.vector.copy()
    with pytest.raises(MethodMismatchError):
        observables.ghz_fidelity(psi, t, schedule_kind="adiabatic")


def test_methods_end_on_different_states():
    t_a = observables.target_state(observables.ADIABATIC, 3)
    t_q = observables.target_state(observables.TQD, 3)
    # equal weight on both targets: half fidelity either way
    assert observables.ghz_fidelity(t_a.vector, t_q) == pytest.approx(0.5)


def test_leakage_inside_and_outside_useful_subspace():
    start = np.zeros(11, dtype=complex)
    start[0] = 1.0
    assert observables.leakage(start, 1.0, 1.0, 3) == pytest.approx(0.0)
    photon = np.zeros(11, dtype=complex)
    photon[2] = 1.0  # first cavity-photon state: orthogonal to the kept span
    assert observables.leakage(photon, 1.0, 1.0, 3) == pytest.approx(1.0)
