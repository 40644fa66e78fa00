"""Eigen-analysis of the chain coupling and the effective few-level models.

Under a weak drive the strong static coupling confines the dynamics to its
eigen-subspaces (Zeno subspaces).  For the 3-atom chain the full spectrum is
known in closed form; the zero-eigenvalue subspace is spanned by the two
laser-addressed end states together with one "bright" superposition of
excited-atom and fiber-photon states, and projecting the drive onto it gives
a plain three-level lambda system.  Detuning the excited levels adds a Stark
shift on the bright state; eliminating it adiabatically leaves an effective
two-level coupling between the end states, which is what the counter-diabatic
drive exploits.

The closed forms are implemented verbatim and cross-checked against a dense
Hermitian eigensolver, which serves as the independent oracle.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DimensionError, ValidationError
from .hilbert import Operator
from .model import SystemParams

log = logging.getLogger(__name__)

PARAM_NAMES = (
    "epsilon1", "eta1", "chi1", "mu1", "zeta1", "delta1", "theta1",
    "epsilon2", "eta2", "chi2", "mu2", "zeta2", "delta2", "theta2",
)

RESONANT = "resonant"
DETUNED = "detuned"
ELIMINATED = "eliminated"


def bright_normalizer(g: float, v: float, n_atoms: int) -> float:
    """Normalization of the zero-eigenvalue bright state: 1/sqrt(N + (N-1)(g/v)^2)."""
    return 1.0 / np.sqrt(n_atoms + (n_atoms - 1) * (g / v) ** 2)


def bright_state(g: float, v: float, n_atoms: int = 3) -> np.ndarray:
    """Zero-eigenvalue superposition mediating the effective end-to-end coupling.

    Coefficient +1 on each excited-atom chain state (positions 4i-2, 1-based)
    and -g/v on each fiber-photon state (positions 4i), normalized.  Only odd
    chains are supported; the even-chain analogue has no such state with this
    structure.
    """
    if n_atoms < 3 or n_atoms % 2 == 0:
        raise ValidationError(f"bright state requires odd n_atoms >= 3, got {n_atoms}")
    dim = 4 * n_atoms - 1
    vec = np.zeros(dim)
    for i in range(1, n_atoms + 1):
        vec[4 * i - 3] = 1.0
    for i in range(1, n_atoms):
        vec[4 * i - 1] = -g / v
    return vec * bright_normalizer(g, v, n_atoms)


@dataclass
class ZenoEigensystem:
    """Closed-form spectrum of the 3-atom chain coupling.

    ``zeno_eigenvalues[k]`` is the eigenvalue of subspace k (k=0 is the
    three-fold degenerate zero subspace); ``blocks[k]`` holds the orthonormal
    eigenvectors of that subspace as columns of an (11, m_k) array.
    """

    g: float
    v: float
    A: float
    zeno_eigenvalues: np.ndarray
    blocks: list[np.ndarray]
    params: dict[str, float] = field(default_factory=dict)
    normalizers: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.blocks[0].shape[0]

    @property
    def eigenvalues_full(self) -> np.ndarray:
        return np.concatenate(
            [np.full(b.shape[1], lam) for lam, b in zip(self.zeno_eigenvalues, self.blocks)]
        )

    @property
    def vectors_full(self) -> np.ndarray:
        return np.hstack(self.blocks)

    def check_orthonormal(self, tol: float = 1e-10):
        v = self.vectors_full
        gram = v.conj().T @ v
        drift = np.max(np.abs(gram - np.eye(v.shape[1])))
        if drift > tol:
            raise ValidationError(f"eigenvector columns deviate from orthonormality by {drift:.3e}")


def eigen_parameters(g: float, v: float) -> dict[str, float]:
    """The fourteen coefficients entering the closed-form eigenvectors."""
    A = np.sqrt(g**4 + 4 * v**4)
    s2 = np.sqrt(2.0)
    r_minus = np.sqrt(g**2 + 2 * v**2 - A)
    r3_minus = np.sqrt(3 * g**2 + 2 * v**2 - A)
    r_plus = np.sqrt(g**2 + 2 * v**2 + A)
    r3_plus = np.sqrt(3 * g**2 + 2 * v**2 + A)
    return {
        "epsilon1": r_minus / (s2 * g),
        "eta1": (-(g**2) + 2 * v**2 - A) / (2 * g * v),
        "chi1": r_minus * (g**2 + A) / (2 * s2 * g * v**2),
        "mu1": r3_minus / (s2 * g),
        "zeta1": (-(g**2) - 2 * v**2 + A) / (2 * g * v),
        "delta1": r3_minus * (-(g**2) + A) / (2 * s2 * g * v**2),
        "theta1": (-(g**2) + A) / v**2,
        "epsilon2": r_plus / (s2 * g),
        "eta2": (-(g**2) + 2 * v**2 + A) / (2 * g * v),
        "chi2": r_plus * (-(g**2) + A) / (2 * s2 * g * v**2),
        "mu2": r3_plus / (s2 * g),
        "zeta2": (g**2 + 2 * v**2 + A) / (2 * g * v),
        "delta2": r3_plus * (g**2 + A) / (2 * s2 * g * v**2),
        "theta2": (g**2 + A) / v**2,
    }


def analytic_eigensystem(g: float, v: float) -> ZenoEigensystem:
    """Closed-form eigensystem of the 3-atom chain coupling (11-dim basis).

    The zero subspace is spanned by the two end states and the bright state;
    the other eight eigenvalues come in +/- pairs

        +/- sqrt((g^2 + 2 v^2 -/+ A) / 2),  +/- sqrt((3 g^2 + 2 v^2 -/+ A) / 2)

    with A = sqrt(g^4 + 4 v^4).  Eigenvectors are returned normalized, signs
    as printed in the closed forms (component on the first excited-atom state
    fixes the overall phase).
    """
    if g <= 0 or v <= 0:
        raise ValidationError(f"couplings must be positive, got g={g}, v={v}")
    A = np.sqrt(g**4 + 4 * v**4)
    p = eigen_parameters(g, v)
    e1, h1, c1 = p["epsilon1"], p["eta1"], p["chi1"]
    m1, z1, d1, t1 = p["mu1"], p["zeta1"], p["delta1"], p["theta1"]
    e2, h2, c2 = p["epsilon2"], p["eta2"], p["chi2"]
    m2, z2, d2, t2 = p["mu2"], p["zeta2"], p["delta2"], p["theta2"]

    # components over the nine intermediate chain states (basis indices 1..9)
    raw = [
        [1, 0, -g / v, 0, 1, 0, -g / v, 0, 1],
        [-1, e1, -h1, -c1, 0, c1, h1, -e1, 1],
        [-1, -e1, -h1, c1, 0, -c1, h1, e1, 1],
        [1, -m1, -z1, d1, -t1, d1, -z1, -m1, 1],
        [1, m1, -z1, -d1, -t1, -d1, -z1, m1, 1],
        [-1, e2, -h2, c2, 0, -c2, h2, -e2, 1],
        [-1, -e2, -h2, -c2, 0, c2, h2, e2, 1],
        [1, -m2, z2, -d2, t2, -d2, z2, -m2, 1],
        [1, m2, z2, d2, t2, d2, z2, m2, 1],
    ]
    lam_pairs = [
        np.sqrt((g**2 + 2 * v**2 - A) / 2),
        np.sqrt((3 * g**2 + 2 * v**2 - A) / 2),
        np.sqrt((g**2 + 2 * v**2 + A) / 2),
        np.sqrt((3 * g**2 + 2 * v**2 + A) / 2),
    ]
    eigenvalues = np.array(
        [0.0, -lam_pairs[0], lam_pairs[0], -lam_pairs[1], lam_pairs[1],
         -lam_pairs[2], lam_pairs[2], -lam_pairs[3], lam_pairs[3]]
    )

    vectors = np.zeros((11, 9))
    normalizers = np.zeros(9)
    for w, comps in enumerate(raw):
        vectors[1:10, w] = comps
        normalizers[w] = 1.0 / np.linalg.norm(vectors[:, w])
        vectors[:, w] *= normalizers[w]

    zero_block = np.zeros((11, 3))
    zero_block[0, 0] = 1.0
    zero_block[:, 1] = vectors[:, 0]
    zero_block[10, 2] = 1.0
    blocks = [zero_block] + [vectors[:, w : w + 1] for w in range(1, 9)]

    system = ZenoEigensystem(
        g=g, v=v, A=float(A),
        zeno_eigenvalues=eigenvalues,
        blocks=blocks,
        params=p,
        normalizers=normalizers,
    )
    system.check_orthonormal()
    return system


@dataclass
class NumericEigensystem:
    """Dense Hermitian eigendecomposition with degenerate eigenvalues grouped."""

    eigenvalues: np.ndarray            # sorted ascending, one entry per group
    blocks: list[np.ndarray]           # orthonormal columns per group
    eigenvalues_raw: np.ndarray        # all dim eigenvalues, sorted


def numeric_eigensystem(h: Operator | np.ndarray) -> NumericEigensystem:
    """Eigendecomposition oracle for any Hermitian matrix.

    Eigenvalues closer than 1e-8 times the spectral scale are grouped into
    one block, since an eigensolver returns an arbitrary orthonormal basis
    inside a degenerate subspace.
    """
    mat = h.mat if isinstance(h, Operator) else np.asarray(h, dtype=complex)
    if np.max(np.abs(mat - mat.conj().T)) > 1e-10:
        raise ConfigurationError("numeric eigensystem requires a Hermitian matrix")
    vals, vecs = np.linalg.eigh(mat)
    scale = max(np.max(np.abs(vals)), 1.0)
    tol = 1e-8 * scale
    groups: list[list[int]] = [[0]]
    for i in range(1, len(vals)):
        if vals[i] - vals[groups[-1][-1]] <= tol:
            groups[-1].append(i)
        else:
            groups.append([i])
    blocks = [vecs[:, idx] for idx in groups]
    grouped = np.array([np.mean(vals[idx]) for idx in groups])
    return NumericEigensystem(eigenvalues=grouped, blocks=blocks, eigenvalues_raw=vals)


def principal_angles(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Principal angles between the column spans of two orthonormal blocks.

    arccos of an overlap singular value loses half the digits near zero
    angle, so small angles are computed from the sine-based residual
    B - A(A^H B) instead (the usual cosine/sine combination).
    """
    overlap = a.conj().T @ b
    sigma = np.sort(np.linalg.svd(overlap, compute_uv=False))[::-1]
    cos_angles = np.arccos(np.clip(sigma, -1.0, 1.0))
    sines = np.sort(np.linalg.svd(b - a @ overlap, compute_uv=False))
    sin_angles = np.arcsin(np.clip(sines, -1.0, 1.0))
    return np.where(sigma**2 > 0.5, sin_angles, cos_angles)


def eigensystem_deviation(analytic: ZenoEigensystem, numeric: NumericEigensystem) -> dict[str, float]:
    """Compare the closed forms with the numeric oracle.

    Returns the worst absolute eigenvalue deviation (full spectra, sorted)
    and the worst principal angle between matching eigen-subspaces.
    """
    full_analytic = np.sort(analytic.eigenvalues_full)
    dev = float(np.max(np.abs(full_analytic - numeric.eigenvalues_raw)))
    worst_angle = 0.0
    for lam, block in zip(analytic.zeno_eigenvalues, analytic.blocks):
        matches = [
            nb for nv, nb in zip(numeric.eigenvalues, numeric.blocks) if abs(nv - lam) < 1e-6
        ]
        if not matches:
            raise DimensionError(f"no numeric eigenvalue matches analytic {lam:.6f}")
        numeric_block = np.hstack(matches)
        if numeric_block.shape[1] != block.shape[1]:
            raise DimensionError(
                f"subspace dimension mismatch at eigenvalue {lam:.6f}: "
                f"{block.shape[1]} analytic vs {numeric_block.shape[1]} numeric"
            )
        angles = principal_angles(block, numeric_block)
        worst_angle = max(worst_angle, float(np.max(angles)))
    return {"max_eigenvalue_dev": dev, "max_principal_angle": worst_angle}


@dataclass
class EffectiveModel:
    """Few-level model over (start state, bright state, end state).

    ``variant`` is one of ``resonant`` (zero diagonal), ``detuned`` (Stark
    shift N*delta*N1^2 on the bright state) or ``eliminated`` (2x2 over the
    end states after removing the bright state).
    """

    matrix: np.ndarray
    variant: str
    bright_normalizer: float
    n_atoms: int
    detuning_ratio: float | None = None

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def effective_hamiltonian(
    params: SystemParams,
    omega_1: complex,
    omega_n: complex,
    variant: str = RESONANT,
) -> EffectiveModel:
    """Project the drive onto the zero subspace.

    The bright state inherits the coupling N1*Omega from each laser; with the
    excited levels detuned it additionally sits at energy N*delta*N1^2 (each
    of its N excited-atom components carries weight N1^2).
    """
    if variant not in (RESONANT, DETUNED):
        raise ConfigurationError(f"unknown effective-model variant {variant!r}")
    n1 = bright_normalizer(params.g, params.v, params.n_atoms)
    mat = np.zeros((3, 3), dtype=complex)
    mat[0, 1] = n1 * omega_1
    mat[1, 0] = n1 * np.conj(omega_1)
    mat[2, 1] = n1 * omega_n
    mat[1, 2] = n1 * np.conj(omega_n)
    if variant == DETUNED:
        mat[1, 1] = params.n_atoms * params.delta * n1**2
    return EffectiveModel(mat, variant, n1, params.n_atoms)


def adiabatic_eliminate(model: EffectiveModel) -> EffectiveModel:
    """Remove the far-detuned bright state from the detuned model.

    Second-order reduction gives the 2x2 end-state model with coupling
    -Omega_1*Omega_N/(N*delta) and Stark shifts -Omega_i^2/(N*delta); the
    shifts are dropped when the two drives are equal (they are then
    proportional to the identity).  The validity condition
    N*delta*N1 >= Omega is reported as a logged warning, not an error: the
    scheme is routinely operated near that boundary and simply degrades.
    """
    if model.variant != DETUNED:
        raise ConfigurationError("adiabatic elimination applies to the detuned model only")
    energy = model.matrix[1, 1].real
    if energy <= 0:
        raise ConfigurationError("bright-state energy must be positive to eliminate it")
    c1 = model.matrix[0, 1]
    cn = model.matrix[2, 1]
    n1 = model.bright_normalizer
    drive = max(abs(c1), abs(cn)) / n1
    ratio = energy / n1 / drive if drive > 0 else np.inf
    if ratio < 1.0:
        log.warning(
            "large-detuning condition violated: N*delta*N1 / Omega = %.3f < 1", ratio
        )
    coupling = -c1 * np.conj(cn) / energy
    mat = np.zeros((2, 2), dtype=complex)
    mat[0, 1] = coupling
    mat[1, 0] = np.conj(coupling)
    if abs(abs(c1) - abs(cn)) > 1e-12 * max(abs(c1), abs(cn), 1e-300):
        mat[0, 0] = -abs(c1) ** 2 / energy
        mat[1, 1] = -abs(cn) ** 2 / energy
    return EffectiveModel(
        mat, ELIMINATED, n1, model.n_atoms, detuning_ratio=float(ratio)
    )


def embed_effective_state(coeffs: np.ndarray, g: float, v: float, n_atoms: int) -> np.ndarray:
    """Lift a three-level state (start, bright, end) into the full chain basis."""
    dim = 4 * n_atoms - 1
    vec = np.zeros(dim, dtype=complex)
    vec[0] = coeffs[0]
    vec += coeffs[1] * bright_state(g, v, n_atoms)
    vec[dim - 1] += coeffs[2]
    return vec
