"""Physical parameters, chain Hamiltonians and dissipation channels.

All rates and frequencies are expressed in units of the atom-cavity coupling
``g`` (time in units of 1/g).  The total Hamiltonian splits into a static
part (atom-cavity/cavity-fiber couplings plus the common detuning of the
excited levels) and a laser part with at most four nonzero entries that is
resampled every integrator stage:

    H(t) = H_c + H_d + Omega_1(t) X_1 + Omega_N(t) X_N
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import hilbert
from .errors import DimensionError, ValidationError
from .hilbert import (
    AtomLevel,
    GROUND_LEVELS,
    HilbertSpace,
    ModeKind,
    Operator,
    transition_operator,
)


def _uniform_branching() -> dict[AtomLevel, float]:
    return {level: 1.0 / 3.0 for level in GROUND_LEVELS}


@dataclass(frozen=True)
class SystemParams:
    """Operating point of the chain, in units of g.

    ``t0`` and ``tc`` default to 0.14*t_f and 0.19*t_f, the pulse offsets
    that realize the fractional-STIRAP boundary conditions on a finite
    window.  ``branching`` splits the spontaneous-emission rate ``gamma``
    over the three ground levels (uniform by default).
    """

    g: float = 1.0
    v: float | None = None
    omega0: float = 0.2
    t_f: float = 72.0
    t0: float | None = None
    tc: float | None = None
    delta: float = 2.3
    alpha: float = math.pi / 4.0
    gamma: float = 0.0
    kappa_c: float = 0.0
    kappa_f: float = 0.0
    n_atoms: int = 3
    branching: dict[AtomLevel, float] = field(default_factory=_uniform_branching)

    def __post_init__(self):
        if self.v is None:
            object.__setattr__(self, "v", self.g)
        if self.t0 is None:
            object.__setattr__(self, "t0", 0.14 * self.t_f)
        if self.tc is None:
            object.__setattr__(self, "tc", 0.19 * self.t_f)
        branching = {AtomLevel(k): float(f) for k, f in self.branching.items()}
        object.__setattr__(self, "branching", branching)
        problems = self.validate()
        if problems:
            raise ValidationError(problems)

    def validate(self) -> list[str]:
        # every comparison is written so that NaN fails it
        problems = []
        positive = ("g", "v", "t_f", "tc")
        non_negative = ("omega0", "gamma", "kappa_c", "kappa_f")
        for name in positive + non_negative + ("t0", "delta", "alpha"):
            value = getattr(self, name)
            if not math.isfinite(value):
                problems.append(f"{name} must be finite, got {value}")
            elif name in positive and not value > 0:
                problems.append(f"{name} must be positive, got {value}")
            elif name in non_negative and not value >= 0:
                problems.append(f"{name} must be non-negative, got {value}")
        n = self.n_atoms
        if not isinstance(n, numbers.Integral) or n < 3 or n % 2 == 0:
            problems.append(
                f"n_atoms must be an odd integer >= 3 (the alternating chain "
                f"requires it), got {self.n_atoms}"
            )
        unknown = set(self.branching) - set(GROUND_LEVELS)
        if unknown:
            problems.append(f"branching has non-ground levels: {sorted(k.value for k in unknown)}")
        else:
            total = sum(self.branching.get(level, 0.0) for level in GROUND_LEVELS)
            if not abs(total - 1.0) <= 1e-12:
                problems.append(f"branching fractions must sum to 1, got {total}")
            if not all(f >= 0 for f in self.branching.values()):
                problems.append("branching fractions must be non-negative")
        return problems

    def replace(self, **changes) -> "SystemParams":
        return dataclasses.replace(self, **changes)

    def scale_time(self, factor: float) -> "SystemParams":
        """Stretch the schedule uniformly: t_f, t0 and tc all scale together."""
        return self.replace(t_f=self.t_f * factor, t0=self.t0 * factor, tc=self.tc * factor)

    def with_t_f(self, t_f: float) -> "SystemParams":
        return self.scale_time(t_f / self.t_f)

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["branching"] = {k.value: v for k, v in self.branching.items()}
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "SystemParams":
        data = dict(data)
        if "branching" in data and data["branching"] is not None:
            data["branching"] = {AtomLevel(k): v for k, v in data["branching"].items()}
        else:
            data.pop("branching", None)
        return cls(**data)


@dataclass(frozen=True)
class JumpOperator:
    """One Lindblad channel: collapse operator plus its rate."""

    operator: Operator
    rate: float
    label: str = ""

    def __post_init__(self):
        if not 0 <= self.rate < math.inf:  # NaN fails it
            raise ValidationError(f"jump rate must be finite and non-negative, got {self.rate}")


def build_space(params: SystemParams, open_system: bool = False) -> HilbertSpace:
    """Reachable basis for these parameters (decay products included if open)."""
    return hilbert.build_reachable_space(params.n_atoms, include_decay=open_system)


def _check_space(space: HilbertSpace, params: SystemParams):
    if space.n_atoms != params.n_atoms:
        raise DimensionError(
            f"space was built for {space.n_atoms} atoms but params have {params.n_atoms}"
        )


def coupling_structures(space: HilbertSpace) -> tuple[np.ndarray, np.ndarray]:
    """Unit-coupling structure matrices (S_g, S_v) with H_c = g S_g + v S_v.

    Splitting the structure from the strengths lets sweeps over deviated
    couplings assemble per-cell Hamiltonians without re-walking the basis.
    """
    s_g = np.zeros((space.dim, space.dim), dtype=complex)
    s_v = np.zeros_like(s_g)
    for stencil in hilbert.chain_coupling_stencils(space.n_atoms):
        term = transition_operator(space, stencil.forward).mat
        if stencil.weight == "g":
            s_g = s_g + term + term.conj().T
        else:
            s_v = s_v + term + term.conj().T
    return s_g, s_v


def detuning_structure(space: HilbertSpace) -> np.ndarray:
    """Diagonal counting excited atoms; H_d = delta * this."""
    return np.diag(
        np.array(
            [sum(1 for lv in st.levels if lv is AtomLevel.E) for st in space.basis],
            dtype=complex,
        )
    )


def coupling_hamiltonian(space: HilbertSpace, params: SystemParams) -> Operator:
    """Static atom-cavity (g) and cavity-fiber (v) couplings.

    In the N=3 coherent basis this is the real symmetric chain linking the
    nine intermediate states with weights g, v, v, g, g, v, v, g.
    """
    _check_space(space, params)
    s_g, s_v = coupling_structures(space)
    return Operator(space, params.g * s_g + params.v * s_v, hermitian=True)


def laser_couplings(space: HilbertSpace, phase_fix: bool = False) -> tuple[Operator, Operator]:
    """Unit-amplitude Hermitian laser terms X_1 and X_N.

    X_1 = |e><g_o| on the first atom plus adjoint; X_N the same on the last
    atom, with the ket side multiplied by -i when ``phase_fix`` is set.
    """
    d1 = hilbert.atomic_op(space, 0, AtomLevel.E, AtomLevel.G_O).mat
    dn = hilbert.atomic_op(space, space.n_atoms - 1, AtomLevel.E, AtomLevel.G_O).mat
    x1 = d1 + d1.conj().T
    factor = -1j if phase_fix else 1.0
    xn = factor * dn + np.conj(factor) * dn.conj().T
    return Operator(space, x1, hermitian=True), Operator(space, xn, hermitian=True)


def detuning_hamiltonian(space: HilbertSpace, params: SystemParams) -> Operator:
    """Common detuning of every excited level: diagonal delta on excited-atom states."""
    _check_space(space, params)
    return Operator(space, params.delta * detuning_structure(space), hermitian=True)


def jump_operators(space: HilbertSpace, params: SystemParams) -> list[JumpOperator]:
    """Lindblad channels: branched atomic emission, cavity loss, fiber loss.

    A single collapse operator summing the three decay branches would not be
    a valid decomposition of multi-channel decay, so each branch gets its own
    operator with rate gamma * branching fraction (total still gamma).
    """
    _check_space(space, params)
    if not space.includes_decay:
        raise DimensionError(
            "jump operators need the open-system basis; build the space with "
            "open_system=True so the zero-excitation decay products are present"
        )
    jumps: list[JumpOperator] = []
    for atom in range(params.n_atoms):
        for level in GROUND_LEVELS:
            op = hilbert.atomic_op(space, atom, level, AtomLevel.E)
            rate = params.gamma * params.branching.get(level, 0.0)
            jumps.append(JumpOperator(op, rate, f"atom{atom}:e->{level.value}"))
    for mode in space.modes:
        rate = params.kappa_f if mode.kind is ModeKind.FIBER else params.kappa_c
        jumps.append(JumpOperator(hilbert.annihilation(space, mode), rate, f"loss:{mode.label}"))
    return jumps


@dataclass(frozen=True)
class ChannelStructure:
    """Structural data of the dissipation channels for the batched solver.

    In the one-excitation basis every channel collapses exactly one source
    state onto one target state, so a channel is fully described by the
    (source, target) index pair, the squared matrix element, and the name of
    the rate it carries.
    """

    sources: np.ndarray
    targets: np.ndarray
    amp_sq: np.ndarray
    weights: tuple[str, ...]


def single_entry(mat: np.ndarray) -> tuple[int, int, float] | None:
    """(source, target, |amp|^2) of a collapse operator amp |target><source|,
    or None if ``mat`` does not have exactly one nonzero entry."""
    nz = np.argwhere(mat != 0)
    if len(nz) != 1:
        return None
    tgt, src = nz[0]
    return int(src), int(tgt), float(abs(mat[tgt, src]) ** 2)


def channel_structure(space: HilbertSpace) -> ChannelStructure:
    if not space.includes_decay:
        raise DimensionError(
            "dissipation channels need the open-system basis; build the space "
            "with open_system=True"
        )
    sources, targets, amp_sq, weights = [], [], [], []
    for stencil in hilbert.decay_stencils(space.n_atoms):
        mat = transition_operator(space, stencil.forward).mat
        entry = single_entry(mat)
        if entry is None:
            raise DimensionError(
                f"channel {stencil.label} is not a single-entry collapse "
                f"({np.count_nonzero(mat)} entries); the one-excitation assumption is broken"
            )
        sources.append(entry[0])
        targets.append(entry[1])
        amp_sq.append(entry[2])
        weights.append(stencil.weight)
    return ChannelStructure(
        np.array(sources), np.array(targets), np.array(amp_sq), tuple(weights)
    )


def channel_rates(structure: ChannelStructure, params: SystemParams) -> np.ndarray:
    """Per-channel rates for one parameter set, aligned with the structure."""
    rates = np.zeros(len(structure.weights))
    for i, weight in enumerate(structure.weights):
        if weight.startswith("gamma:"):
            level = AtomLevel(weight.split(":", 1)[1])
            rates[i] = params.gamma * params.branching.get(level, 0.0)
        elif weight == "kappa_c":
            rates[i] = params.kappa_c
        elif weight == "kappa_f":
            rates[i] = params.kappa_f
        else:
            raise DimensionError(f"unknown channel weight {weight!r}")
    return rates


# Realistic cavity-QED operating point: g = 2*pi*750 MHz, gamma = 2*pi*2.62 MHz,
# kappa_c = 2*pi*3.5 MHz (630-850 nm toroidal/Fabry-Perot numbers), fiber loss
# 2.2 dB/km at 852 nm -> kappa_f = 1.52e5 Hz.  Expressed in units of g.
G_PHYSICAL_RAD_S = 2 * math.pi * 750e6
EXPERIMENTAL_RATES = {
    "gamma": (2 * math.pi * 2.62e6) / G_PHYSICAL_RAD_S,
    "kappa_c": (2 * math.pi * 3.5e6) / G_PHYSICAL_RAD_S,
    "kappa_f": 1.52e5 / G_PHYSICAL_RAD_S,
}


def experimental_params(t_f: float = 72.0, **overrides) -> SystemParams:
    """Default operating point with the realistic dissipation rates applied."""
    kw = dict(EXPERIMENTAL_RATES)
    kw.update(overrides)
    return SystemParams(t_f=t_f, **kw)


@dataclass(frozen=True)
class HamiltonianTerms:
    """Split Hamiltonian: H(t) = static + Omega_1(t) drive_1 + Omega_N(t) drive_n."""

    space: HilbertSpace
    static: np.ndarray
    drive_1: np.ndarray
    drive_n: np.ndarray

    def at(self, omega_1: float, omega_n: float) -> np.ndarray:
        return self.static + omega_1 * self.drive_1 + omega_n * self.drive_n


def hamiltonian_terms(
    space: HilbertSpace,
    params: SystemParams,
    detuned: bool,
    phase_fix: bool = False,
) -> HamiltonianTerms:
    """Assemble the static and drive parts once; only the scalar drive
    amplitudes change between integrator stages."""
    static = coupling_hamiltonian(space, params).mat.copy()
    if detuned:
        static = static + detuning_hamiltonian(space, params).mat
    x1, xn = laser_couplings(space, phase_fix=phase_fix)
    return HamiltonianTerms(space, static, x1.mat, xn.mat)
