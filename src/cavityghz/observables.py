"""Populations, fidelities and target states for both methods and any chain size.

The two routes end on different superpositions of the end states: the
adiabatic transfer lands on (|start> - |end>)/sqrt(2), the shortcut on
(|start> + i |end>)/sqrt(2).  Both are maximally entangled configurations of
the collective ground states; fidelity is only meaningful against the target
matching the schedule that was run, so the mismatch is a hard error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, MethodMismatchError, ValidationError
from .zeno import bright_state

ADIABATIC = "adiabatic"
TQD = "tqd"


@dataclass(frozen=True)
class TargetState:
    method: str
    n_atoms: int
    vector: np.ndarray


def target_state(method: str, n_atoms: int, dim: int | None = None) -> TargetState:
    """Maximally entangled target of the given method, embedded in ``dim``.

    ``dim`` defaults to the coherent chain size 4N-1; the open-system basis
    just appends decay products, so the same two components apply there.
    """
    chain_dim = 4 * n_atoms - 1
    if dim is None:
        dim = chain_dim
    if dim < chain_dim:
        raise DimensionError(f"dim {dim} too small for an {n_atoms}-atom chain")
    vec = np.zeros(dim, dtype=complex)
    if method == ADIABATIC:
        vec[0], vec[chain_dim - 1] = 1.0, -1.0
    elif method == TQD:
        vec[0], vec[chain_dim - 1] = 1.0, 1.0j
    else:
        raise ValidationError(f"unknown method {method!r}; expected 'adiabatic' or 'tqd'")
    return TargetState(method, n_atoms, vec / np.sqrt(2.0))


def population(state_or_rho: np.ndarray, vector: np.ndarray) -> float:
    """|<v|rho|v>| for density matrices, |<v|psi>|^2 for state vectors."""
    state = np.asarray(state_or_rho)
    vec = np.asarray(vector, dtype=complex)
    if state.ndim == 1:
        if state.shape != vec.shape:
            raise DimensionError(f"state dim {state.shape} vs vector dim {vec.shape}")
        return float(abs(np.vdot(vec, state)) ** 2)
    if state.ndim == 2 and state.shape[0] == state.shape[1]:
        if state.shape[0] != vec.shape[0]:
            raise DimensionError(f"density dim {state.shape} vs vector dim {vec.shape}")
        return float(abs(vec.conj() @ state @ vec))
    raise DimensionError(f"expected a vector or square matrix, got shape {state.shape}")


def ghz_fidelity(state_or_rho: np.ndarray, target: TargetState, schedule_kind: str | None = None) -> float:
    """|<target|rho|target>| against the method-matched entangled state.

    The absolute value follows the population convention and also guards
    tiny negative numerical eigenvalues.  When ``schedule_kind`` is supplied
    it must equal the target's method.
    """
    if schedule_kind is not None and schedule_kind != target.method:
        raise MethodMismatchError(
            f"trajectory was run with the {schedule_kind!r} schedule but the target "
            f"belongs to {target.method!r}; the two end on different superpositions"
        )
    return population(state_or_rho, target.vector)


def leakage(state_or_rho: np.ndarray, g: float, v: float, n_atoms: int) -> float:
    """Population outside the useful zero-eigenvalue subspace.

    1 minus the populations of the start state, the bright state and the end
    state; nonzero leakage diagnoses a violated weak-drive condition (the
    intermediate cavity/fiber states are then not suppressed).
    """
    state = np.asarray(state_or_rho)
    dim = state.shape[0]
    chain_dim = 4 * n_atoms - 1
    span = np.zeros((dim, 3), dtype=complex)
    span[0, 0] = 1.0
    span[:chain_dim, 1] = bright_state(g, v, n_atoms)
    span[chain_dim - 1, 2] = 1.0
    total = sum(population(state, span[:, i]) for i in range(3))
    return float(1.0 - total)
