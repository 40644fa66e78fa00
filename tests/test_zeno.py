import logging

import numpy as np
import pytest

from cavityghz import model, zeno
from cavityghz.errors import ConfigurationError, ValidationError

GOLDEN = np.sqrt(5.0)


def chain_hamiltonian(g, v, space):
    s_g, s_v = model.coupling_structures(space)
    return g * s_g + v * s_v


def test_oracle_agreement_random_couplings(space3, rng):
    for _ in range(20):
        g, v = rng.uniform(0.5, 2.0, size=2)
        analytic = zeno.analytic_eigensystem(g, v)
        numeric = zeno.numeric_eigensystem(chain_hamiltonian(g, v, space3))
        dev = zeno.eigensystem_deviation(analytic, numeric)
        assert dev["max_eigenvalue_dev"] <= 1e-9
        assert dev["max_principal_angle"] <= 1e-8


def test_eigenvalues_at_unit_couplings():
    es = zeno.analytic_eigensystem(1.0, 1.0)
    assert es.A == pytest.approx(GOLDEN, abs=1e-14)
    lam = es.zeno_eigenvalues
    assert lam[0] == 0.0
    assert lam[1] == pytest.approx(-np.sqrt((3 - GOLDEN) / 2), abs=1e-12)  # -0.6180
    assert lam[3] == pytest.approx(-np.sqrt((5 - GOLDEN) / 2), abs=1e-12)  # -1.1756
    assert lam[5] == pytest.approx(-np.sqrt((3 + GOLDEN) / 2), abs=1e-12)  # -1.6180
    assert lam[7] == pytest.approx(-np.sqrt((5 + GOLDEN) / 2), abs=1e-12)  # -1.9021
    assert np.allclose(lam[2::2], -lam[1::2])


def test_asymmetric_couplings_match_oracle(space3):
    # A = sqrt(g^4 + 4 v^4) = sqrt(65) at (g, v) = (1, 2); the eigensolver
    # confirms the closed forms at this strongly asymmetric point
    es = zeno.analytic_eigensystem(1.0, 2.0)
    assert es.A == pytest.approx(np.sqrt(65.0), abs=1e-14)
    numeric = zeno.numeric_eigensystem(chain_hamiltonian(1.0, 2.0, space3))
    dev = zeno.eigensystem_deviation(es, numeric)
    assert dev["max_eigenvalue_dev"] <= 1e-12


def dark_state(theta):
    """Zero-eigenvalue state of the resonant model driven by (sin, cos) theta."""
    return np.array([np.cos(theta), 0.0, -np.sin(theta)])


def test_dark_state_is_exact_zero_mode_for_any_angle():
    params = model.SystemParams()
    for theta in np.linspace(0.0, np.pi / 4, 9):
        m = zeno.effective_hamiltonian(
            params, np.sin(theta), np.cos(theta), zeno.RESONANT
        )
        assert np.max(np.abs(m.matrix @ dark_state(theta))) <= 1e-15


def test_bright_normalizer():
    es = zeno.analytic_eigensystem(1.0, 1.0)
    assert es.normalizers[0] == pytest.approx(1 / np.sqrt(5), abs=1e-14)
    assert zeno.bright_normalizer(1.0, 1.0, 5) == pytest.approx(1 / 3)


def test_bright_state_components():
    b = zeno.bright_state(1.0, 1.0, 3)
    expected = np.array([0, 1, 0, -1, 0, 1, 0, -1, 0, 1, 0]) / np.sqrt(5)
    assert np.allclose(b, expected)
    assert np.linalg.norm(b) == pytest.approx(1.0)


def test_bright_state_rejects_even_chains():
    with pytest.raises(ValidationError):
        zeno.bright_state(1.0, 1.0, 4)


def test_analytic_eigensystem_requires_positive_couplings():
    with pytest.raises(ValidationError):
        zeno.analytic_eigensystem(0.0, 1.0)


def test_numeric_eigensystem_zero_matrix():
    es = zeno.numeric_eigensystem(np.zeros((4, 4)))
    assert len(es.blocks) == 1
    assert es.blocks[0].shape == (4, 4)
    assert np.all(es.eigenvalues_raw == 0.0)


def test_numeric_eigensystem_rejects_non_hermitian():
    mat = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ConfigurationError):
        zeno.numeric_eigensystem(mat)


def test_effective_resonant_spectrum():
    params = model.SystemParams()
    m = zeno.effective_hamiltonian(params, 0.1, 0.1, zeno.RESONANT)
    vals = np.sort(np.linalg.eigvalsh(m.matrix))
    n1 = 1 / np.sqrt(5)
    omega = np.sqrt(0.1**2 + 0.1**2)
    assert vals == pytest.approx([-n1 * omega, 0.0, n1 * omega], abs=1e-14)
    assert np.allclose(np.diag(m.matrix), 0.0)


def test_effective_dark_state_at_zero_pump():
    params = model.SystemParams()
    m = zeno.effective_hamiltonian(params, 0.0, 0.3, zeno.RESONANT)
    start = np.array([1.0, 0.0, 0.0])
    assert np.allclose(m.matrix @ start, 0.0)
    assert np.allclose(dark_state(0.0), start)


def test_effective_detuned_diagonal():
    params = model.SystemParams(delta=2.3)
    m = zeno.effective_hamiltonian(params, 0.1, 0.1, zeno.DETUNED)
    assert m.matrix[1, 1].real == pytest.approx(3 * 2.3 / 5)  # 1.38


def test_effective_variant_checked():
    with pytest.raises(ConfigurationError):
        zeno.effective_hamiltonian(model.SystemParams(), 0.1, 0.1, "bogus")


def test_adiabatic_elimination_coupling():
    params = model.SystemParams(delta=2.3)
    m = zeno.effective_hamiltonian(params, 0.3, 0.3, zeno.DETUNED)
    reduced = zeno.adiabatic_eliminate(m)
    assert reduced.variant == zeno.ELIMINATED
    assert reduced.matrix[0, 1].real == pytest.approx(-0.09 / 6.9)  # -0.013043
    assert reduced.matrix[0, 0] == 0.0  # equal drives: Stark shifts dropped


def test_adiabatic_elimination_zero_drive():
    params = model.SystemParams(delta=2.3)
    reduced = zeno.adiabatic_eliminate(
        zeno.effective_hamiltonian(params, 0.0, 0.0, zeno.DETUNED)
    )
    assert np.allclose(reduced.matrix, 0.0)


def test_adiabatic_elimination_keeps_stark_for_unequal_drives():
    params = model.SystemParams(delta=2.3)
    reduced = zeno.adiabatic_eliminate(
        zeno.effective_hamiltonian(params, 0.3, 0.1, zeno.DETUNED)
    )
    assert reduced.matrix[0, 0].real == pytest.approx(-0.09 / 6.9)
    assert reduced.matrix[1, 1].real == pytest.approx(-0.01 / 6.9)


def test_elimination_reconstructs_counterdiabatic_coupling():
    # driving with sqrt(N delta theta_dot) makes the reduced coupling -theta_dot
    params = model.SystemParams(delta=2.3)
    theta_dot = 0.0137
    omega_bar = np.sqrt(3 * params.delta * theta_dot)
    reduced = zeno.adiabatic_eliminate(
        zeno.effective_hamiltonian(params, omega_bar, omega_bar, zeno.DETUNED)
    )
    assert reduced.matrix[0, 1].real == pytest.approx(-theta_dot, rel=1e-12)


def test_elimination_requires_detuned_variant():
    m = zeno.effective_hamiltonian(model.SystemParams(), 0.1, 0.1, zeno.RESONANT)
    with pytest.raises(ConfigurationError):
        zeno.adiabatic_eliminate(m)


def test_elimination_warns_when_detuning_not_large(caplog):
    params = model.SystemParams(delta=0.05)
    m = zeno.effective_hamiltonian(params, 0.5, 0.5, zeno.DETUNED)
    with caplog.at_level(logging.WARNING, logger="cavityghz.zeno"):
        reduced = zeno.adiabatic_eliminate(m)
    assert reduced.detuning_ratio < 1.0
    assert any("large-detuning" in r.message for r in caplog.records)


def test_projector_algebra():
    es = zeno.analytic_eigensystem(1.0, 1.0)
    projectors = [block @ block.conj().T for block in es.blocks]
    assert len(projectors) == 9
    total = sum(projectors)
    assert np.allclose(total, np.eye(11), atol=1e-12)
    for p in projectors:
        assert np.allclose(p @ p, p, atol=1e-12)
        assert np.allclose(p, p.conj().T, atol=1e-14)
    ranks = [int(round(np.trace(p).real)) for p in projectors]
    assert ranks == [3] + [1] * 8
    assert np.allclose(projectors[1] @ projectors[2], 0.0, atol=1e-14)
    e0 = np.zeros(11)
    e0[0] = 1.0
    assert np.allclose(projectors[0] @ e0, e0)


def test_embed_effective_state():
    vec = zeno.embed_effective_state(np.array([0.6, 0.0, 0.8j]), 1.0, 1.0, 3)
    assert vec[0] == pytest.approx(0.6)
    assert vec[10] == pytest.approx(0.8j)
    assert np.linalg.norm(vec) == pytest.approx(1.0)
