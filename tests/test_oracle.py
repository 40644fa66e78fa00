"""Every final-value scenario against an independent oracle.

The oracle is scipy's adaptive DOP853 (rtol 1e-12, atol 1e-13) on the scalar
model of each cell: the dense Schrodinger equation with
H(t) = static + Omega_1(t) X_1 + Omega_N(t) X_N from model.hamiltonian_terms,
or the dense Lindblad superoperator built from every operator of
model.jump_operators.  It shares no code with the batched integrators, the
chain-block reduction or the step-doubling control, so a value within
STEP_TOL of it is a value whose error estimate held.
"""

import json

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from cavityghz import dynamics, experiments, model, observables, pulses

FINAL_VALUE_SCENARIOS = (
    "fig6", "fig8a", "fig8b", "fig9a", "fig9b", "fig10a", "fig10b", "headline", "natom",
)
GRID = 3

_references: dict[str, np.ndarray] = {}


def reference_state(kind, params, scale, open_system):
    """Final state vector or density matrix of one cell, by solve_ivp."""
    key = json.dumps([kind, params.to_dict(), scale, open_system], sort_keys=True, default=str)
    if key in _references:
        return _references[key]
    space = model.build_space(params, open_system=open_system)
    terms = model.hamiltonian_terms(space, params, detuned=kind == pulses.TQD)
    drive = pulses.PulseSchedule(kind, params, amplitude_scale=scale).drive
    psi0 = space.basis_vector(0)
    dim = space.dim
    if open_system:
        eye = np.eye(dim)

        # row-major vec: vec(A rho B) = (A kron B^T) vec(rho)
        def commutator(h):
            return -1j * (np.kron(h, eye) - np.kron(eye, h.T))

        static, sup_1, sup_n = map(commutator, (terms.static, terms.drive_1, terms.drive_n))
        for jump in model.jump_operators(space, params):
            lop = jump.operator.mat
            ldl = lop.conj().T @ lop
            static = static + jump.rate * (
                np.kron(lop, lop.conj()) - 0.5 * np.kron(ldl, eye) - 0.5 * np.kron(eye, ldl.T)
            )

        def rhs(t, y):
            om1, omn = drive(t)
            return static @ y + om1 * (sup_1 @ y) + omn * (sup_n @ y)

        y0 = np.outer(psi0, psi0.conj()).ravel()
    else:
        def rhs(t, y):
            return -1j * (terms.at(*drive(t)) @ y)

        y0 = psi0.astype(complex)
    sol = solve_ivp(rhs, (0.0, params.t_f), y0, method="DOP853", rtol=1e-12, atol=1e-13)
    assert sol.success, sol.message
    state = sol.y[:, -1].reshape(dim, dim) if open_system else sol.y[:, -1]
    _references[key] = state
    return state


def reference_value(name, kind, params, state):
    n, dim = params.n_atoms, state.shape[0]
    if name == "fidelity":
        target = observables.target_state(kind, n, dim=dim)
        return observables.ghz_fidelity(state, target, schedule_kind=kind)
    assert name == "leakage"
    return observables.leakage(state, params.g, params.v, n)


def sub_grids(scenario):
    """(label suffix, schedule kind, params, axes) of each panel, or of the
    scenario itself, as run_scenario runs them."""
    if not scenario.panels:
        return [("", scenario.schedule_kind, scenario.params, scenario.axes)]
    return [
        (
            f":{panel.label}",
            panel.schedule_kind or scenario.schedule_kind,
            scenario.params.replace(**dict(panel.params_patch)),
            (panel.axis,) if panel.axis else (),
        )
        for panel in scenario.panels
    ]


def test_oracle_covers_every_final_value_scenario():
    final_value = {
        name for name in experiments.available_scenarios()
        if not experiments.get_scenario(name).record_series
    }
    assert set(FINAL_VALUE_SCENARIOS) == final_value


@pytest.mark.parametrize("name", FINAL_VALUE_SCENARIOS)
def test_final_values_match_independent_oracle(name):
    scenario = experiments.get_scenario(name, grid=GRID)
    result = experiments.run_scenario(name, {"grid": GRID})
    errors = []
    for suffix, kind, base, axes in sub_grids(scenario):
        mesh = np.meshgrid(*[ax.values for ax in axes], indexing="ij")
        points = list(zip(*(m.ravel() for m in mesh))) if axes else [()]
        for observable in scenario.observables:
            values = result.block(observable + suffix).values.reshape(-1)
            assert len(values) == len(points)
            for value, point in zip(values, points):
                params, scale = base, 1.0
                for ax, x in zip(axes, point):
                    params, scale = experiments._apply_axis(params, scale, ax.name, x)
                state = reference_state(kind, params, scale, scenario.open_system)
                errors.append(abs(value - reference_value(observable, kind, params, state)))
    # NaN-safe: a withheld (NaN) value fails
    assert np.all(np.array(errors) <= dynamics.STEP_TOL), max(errors)
