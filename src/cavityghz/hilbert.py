"""Reachable basis and elementary operators for the atom-cavity-fiber chain.

The system is a row of N single-atom cavities connected by N-1 short fibers.
Each atom has one excited level ``e`` and three ground levels ``g_l``,
``g_o``, ``g_r``.  The first cavity carries a left-circular mode only, the
last one a right-circular mode only, interior cavities both; each fiber
contributes a single resonant mode.  Odd-numbered fibers exchange photons
with the left-circular modes of their two neighbouring cavities, even ones
with the right-circular modes, matching the alternating ground-state pattern
of the atoms along the chain.

Starting from the pump-ready configuration (first atom in ``g_o``, the rest
alternating ``g_l``/``g_r``, every mode empty) the couplings only ever move a
single excitation down the chain.  The reachable basis is therefore tiny
compared with the full tensor product: 4N-1 states for N atoms, plus the
zero-excitation decay products once dissipation channels are included.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import ConfigurationError, DimensionError, TruncationError, ValidationError

HERMITIAN_TOL = 1e-12
# Largest photon number of any mode: the chain carries one excitation.
PHOTON_CUTOFF = 1

Move = Callable[["BasisState"], "tuple[BasisState, float] | None"]


class AtomLevel(str, Enum):
    """Single-atom levels: one excited state and three ground states."""

    E = "e"
    G_L = "g_l"
    G_O = "g_o"
    G_R = "g_r"


GROUND_LEVELS = (AtomLevel.G_O, AtomLevel.G_L, AtomLevel.G_R)


class ModeKind(str, Enum):
    CAVITY_LEFT = "cavity_left"
    CAVITY_RIGHT = "cavity_right"
    FIBER = "fiber"


@dataclass(frozen=True, order=True)
class ModeId:
    """One bosonic mode; ``index`` is the 1-based cavity/fiber position."""

    kind: ModeKind
    index: int

    @property
    def label(self) -> str:
        if self.kind is ModeKind.CAVITY_LEFT:
            return f"C{self.index}L"
        if self.kind is ModeKind.CAVITY_RIGHT:
            return f"C{self.index}R"
        return f"f{self.index}"


@dataclass(frozen=True)
class BasisState:
    """Atomic levels plus photon numbers.

    ``photons`` is aligned with the owning space's mode tuple; states are
    hashable so the closure construction can use them as set keys.
    """

    levels: tuple[AtomLevel, ...]
    photons: tuple[int, ...]

    @property
    def excitations(self) -> int:
        return sum(1 for lv in self.levels if lv is AtomLevel.E) + sum(self.photons)

    def with_level(self, atom: int, level: AtomLevel) -> "BasisState":
        levels = list(self.levels)
        levels[atom] = level
        return BasisState(tuple(levels), self.photons)

    def with_photon_delta(self, pos: int, delta: int) -> "BasisState":
        photons = list(self.photons)
        photons[pos] += delta
        return BasisState(self.levels, tuple(photons))


@dataclass(frozen=True)
class Stencil:
    """Elementary transition between basis states.

    ``forward`` maps a state to ``(target, amplitude)`` or ``None`` if the
    move does not apply.  Hermitian couplings also carry the ``reverse``
    direction so the closure walks the coupling graph both ways; one-way
    processes (decay) leave it unset.  ``weight`` names the physical
    coefficient the model attaches to this move (``"g"``, ``"v"``,
    ``"laser_1"``, ``"laser_n"``, ``"gamma:<level>"``, ``"kappa_c"``,
    ``"kappa_f"``).
    """

    label: str
    weight: str
    forward: Move
    reverse: Move | None = None

    def directions(self) -> tuple[Move, ...]:
        if self.reverse is None:
            return (self.forward,)
        return (self.forward, self.reverse)


def chain_modes(n_atoms: int) -> tuple[ModeId, ...]:
    """Canonical mode ordering: cavities left-to-right (L before R), then fibers."""
    modes: list[ModeId] = []
    for k in range(1, n_atoms + 1):
        if k < n_atoms:
            modes.append(ModeId(ModeKind.CAVITY_LEFT, k))
        if k > 1:
            modes.append(ModeId(ModeKind.CAVITY_RIGHT, k))
    modes.extend(ModeId(ModeKind.FIBER, k) for k in range(1, n_atoms))
    return tuple(modes)


def initial_chain_state(n_atoms: int) -> BasisState:
    """Pump-ready start state: ``g_o`` on atom 0, then alternating ``g_l``/``g_r``, vacuum."""
    levels = [AtomLevel.G_O]
    for i in range(2, n_atoms + 1):
        levels.append(AtomLevel.G_L if i % 2 == 0 else AtomLevel.G_R)
    return BasisState(tuple(levels), (0,) * len(chain_modes(n_atoms)))


def _emission_stencil(atom: int, ground: AtomLevel, pos: int, mode: ModeId, weight: str) -> Stencil:
    # forward: excited atom emits one photon into `mode`; reverse: absorption

    def forward(st: BasisState):
        if st.levels[atom] is not AtomLevel.E:
            return None
        target = st.with_level(atom, ground).with_photon_delta(pos, +1)
        return target, float(np.sqrt(st.photons[pos] + 1))

    def reverse(st: BasisState):
        if st.levels[atom] is not ground or st.photons[pos] < 1:
            return None
        target = st.with_level(atom, AtomLevel.E).with_photon_delta(pos, -1)
        return target, float(np.sqrt(st.photons[pos]))

    return Stencil(f"atom{atom}:{ground.value}<->{mode.label}", weight, forward, reverse)


def _hop_stencil(src_pos: int, src: ModeId, dst_pos: int, dst: ModeId, weight: str) -> Stencil:
    def forward(st: BasisState):
        if st.photons[src_pos] < 1:
            return None
        amp = np.sqrt(st.photons[src_pos]) * np.sqrt(st.photons[dst_pos] + 1)
        target = st.with_photon_delta(src_pos, -1).with_photon_delta(dst_pos, +1)
        return target, float(amp)

    def reverse(st: BasisState):
        if st.photons[dst_pos] < 1:
            return None
        amp = np.sqrt(st.photons[dst_pos]) * np.sqrt(st.photons[src_pos] + 1)
        target = st.with_photon_delta(dst_pos, -1).with_photon_delta(src_pos, +1)
        return target, float(amp)

    return Stencil(f"{src.label}<->{dst.label}", weight, forward, reverse)


def _laser_stencil(atom: int, weight: str) -> Stencil:
    def forward(st: BasisState):
        if st.levels[atom] is not AtomLevel.G_O:
            return None
        return st.with_level(atom, AtomLevel.E), 1.0

    def reverse(st: BasisState):
        if st.levels[atom] is not AtomLevel.E:
            return None
        return st.with_level(atom, AtomLevel.G_O), 1.0

    return Stencil(f"laser:atom{atom}", weight, forward, reverse)


def _decay_stencil(atom: int, target: AtomLevel) -> Stencil:
    def forward(st: BasisState):
        if st.levels[atom] is not AtomLevel.E:
            return None
        return st.with_level(atom, target), 1.0

    return Stencil(f"decay:atom{atom}->{target.value}", f"gamma:{target.value}", forward)


def _loss_stencil(pos: int, mode: ModeId, weight: str) -> Stencil:
    def forward(st: BasisState):
        if st.photons[pos] < 1:
            return None
        return st.with_photon_delta(pos, -1), float(np.sqrt(st.photons[pos]))

    return Stencil(f"loss:{mode.label}", weight, forward)


def chain_coupling_stencils(n_atoms: int) -> tuple[Stencil, ...]:
    """Atom-cavity and cavity-fiber couplings of the chain, in chain order."""
    modes = chain_modes(n_atoms)
    pos = {m: i for i, m in enumerate(modes)}
    out: list[Stencil] = []
    for atom in range(n_atoms - 1):
        mode = ModeId(ModeKind.CAVITY_LEFT, atom + 1)
        out.append(_emission_stencil(atom, AtomLevel.G_L, pos[mode], mode, "g"))
    for atom in range(1, n_atoms):
        mode = ModeId(ModeKind.CAVITY_RIGHT, atom + 1)
        out.append(_emission_stencil(atom, AtomLevel.G_R, pos[mode], mode, "g"))
    for k in range(1, n_atoms):
        fiber = ModeId(ModeKind.FIBER, k)
        side = ModeKind.CAVITY_LEFT if k % 2 == 1 else ModeKind.CAVITY_RIGHT
        for cav_index in (k, k + 1):
            cavity = ModeId(side, cav_index)
            out.append(_hop_stencil(pos[cavity], cavity, pos[fiber], fiber, "v"))
    return tuple(out)


def laser_stencils(n_atoms: int) -> tuple[Stencil, ...]:
    return (_laser_stencil(0, "laser_1"), _laser_stencil(n_atoms - 1, "laser_n"))


def decay_stencils(n_atoms: int) -> tuple[Stencil, ...]:
    """Spontaneous-emission channels per atom, then photon loss per mode."""
    modes = chain_modes(n_atoms)
    out: list[Stencil] = []
    for atom in range(n_atoms):
        for level in GROUND_LEVELS:
            out.append(_decay_stencil(atom, level))
    for i, mode in enumerate(modes):
        weight = "kappa_f" if mode.kind is ModeKind.FIBER else "kappa_c"
        out.append(_loss_stencil(i, mode, weight))
    return tuple(out)


@dataclass(frozen=True)
class HilbertSpace:
    """Ordered reachable basis over a fixed mode layout.

    Immutable after construction; the index map is built once and shared.
    """

    n_atoms: int
    modes: tuple[ModeId, ...]
    basis: tuple[BasisState, ...]
    includes_decay: bool = False
    _index: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        seen = {}
        for i, st in enumerate(self.basis):
            if st in seen:
                raise ValidationError(f"duplicate basis state at positions {seen[st]} and {i}")
            seen[st] = i
        object.__setattr__(self, "_index", seen)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def index_of(self, state: BasisState) -> int | None:
        return self._index.get(state)

    def mode_position(self, mode: ModeId) -> int:
        try:
            return self.modes.index(mode)
        except ValueError:
            raise ConfigurationError(f"mode {mode.label} does not exist in this space") from None

    def basis_vector(self, i: int) -> np.ndarray:
        vec = np.zeros(self.dim, dtype=complex)
        vec[i] = 1.0
        return vec


def build_reachable_space(
    n_atoms: int,
    initial: BasisState | None = None,
    include_decay: bool = False,
) -> HilbertSpace:
    """Breadth-first closure of the initial state under the generator stencils.

    The generators (chain couplings plus the two lasers) close the basis on
    exactly the single-excitation chain of 4N-1 states, in the order the
    excitation propagates.  With ``include_decay`` the closure is run a
    second time with the decay stencils added, appending the zero-excitation
    decay products after the coherent chain in first-reached order.

    Raises ``TruncationError`` if any generator would push a mode above
    PHOTON_CUTOFF.
    """
    modes = chain_modes(n_atoms)
    if initial is None:
        initial = initial_chain_state(n_atoms)
    if len(initial.levels) != n_atoms or len(initial.photons) != len(modes):
        raise DimensionError("initial state does not match the chain layout")
    generators = laser_stencils(n_atoms) + chain_coupling_stencils(n_atoms)
    stages: list[tuple[Stencil, ...]] = [generators]
    if include_decay:
        stages.append(generators + decay_stencils(n_atoms))

    order: list[BasisState] = [initial]
    seen = {initial}
    for stage in stages:
        frontier = list(order)
        while frontier:
            next_frontier: list[BasisState] = []
            for st in frontier:
                for stencil in stage:
                    for move in stencil.directions():
                        hit = move(st)
                        if hit is None:
                            continue
                        target, _ = hit
                        if max(target.photons, default=0) > PHOTON_CUTOFF:
                            raise TruncationError(
                                f"generator {stencil.label} would create "
                                f"{max(target.photons)} photons (cutoff {PHOTON_CUTOFF})"
                            )
                        if target not in seen:
                            seen.add(target)
                            order.append(target)
                            next_frontier.append(target)
            frontier = next_frontier

    return HilbertSpace(
        n_atoms=n_atoms,
        modes=modes,
        basis=tuple(order),
        includes_decay=include_decay,
    )


@dataclass(eq=False)
class Operator:
    """Complex square matrix over a HilbertSpace.

    When ``hermitian`` is set the matrix is verified against its adjoint to
    1e-12 at construction time.
    """

    space: HilbertSpace
    mat: np.ndarray
    hermitian: bool = False

    def __post_init__(self):
        mat = np.asarray(self.mat, dtype=complex)
        if mat.shape != (self.space.dim, self.space.dim):
            raise DimensionError(
                f"matrix shape {mat.shape} does not match space dimension {self.space.dim}"
            )
        if self.hermitian:
            drift = np.max(np.abs(mat - mat.conj().T))
            if drift > HERMITIAN_TOL:
                raise ValidationError(
                    f"operator flagged hermitian deviates from its adjoint by {drift:.3e}"
                )
        mat.setflags(write=False)
        object.__setattr__(self, "mat", mat)


def transition_operator(space: HilbertSpace, move: Move) -> Operator:
    """Matrix of an elementary move, restricted to the space.

    Targets outside the basis are dropped, which is exactly the subspace
    restriction: in the coherent-only space the photon states have no
    zero-excitation partners, so e.g. annihilation maps them to zero there
    while being nonzero in the space that includes decay products.
    """
    mat = np.zeros((space.dim, space.dim), dtype=complex)
    for col, st in enumerate(space.basis):
        hit = move(st)
        if hit is None:
            continue
        target, amp = hit
        row = space.index_of(target)
        if row is not None:
            mat[row, col] = amp
    return Operator(space, mat)


def annihilation(space: HilbertSpace, mode: ModeId) -> Operator:
    """Photon annihilation operator for ``mode``: <..,n-1,..|a|..,n,..> = sqrt(n)."""
    pos = space.mode_position(mode)

    def move(st: BasisState):
        if st.photons[pos] < 1:
            return None
        return st.with_photon_delta(pos, -1), float(np.sqrt(st.photons[pos]))

    return transition_operator(space, move)


def atomic_op(space: HilbertSpace, atom: int, bra: AtomLevel, ket: AtomLevel) -> Operator:
    """|bra><ket| on one atom (0-based index), identity elsewhere, restricted to the basis."""
    if not 0 <= atom < space.n_atoms:
        raise ConfigurationError(f"atom index {atom} out of range for {space.n_atoms} atoms")

    def move(st: BasisState):
        if st.levels[atom] is not ket:
            return None
        return st.with_level(atom, bra), 1.0

    return transition_operator(space, move)


def basis_json(space: HilbertSpace) -> list[dict]:
    """Labeled basis states in canonical order, ready for JSON dumping."""
    return [
        {
            "index": i,
            "atoms": [lv.value for lv in st.levels],
            "photons": {m.label: n for m, n in zip(space.modes, st.photons)},
            "excitations": st.excitations,
        }
        for i, st in enumerate(space.basis)
    ]
