import numpy as np
import pytest

from cavityghz import hilbert, model
from cavityghz.errors import (
    ConfigurationError,
    DimensionError,
    TruncationError,
    ValidationError,
)
from cavityghz.hilbert import AtomLevel as L
from cavityghz.hilbert import ModeId, ModeKind

# the eleven coherent chain states for N=3, in propagation order:
# (atom levels), {occupied mode label}
CHAIN_3 = [
    ((L.G_O, L.G_L, L.G_R), {}),
    ((L.E, L.G_L, L.G_R), {}),
    ((L.G_L, L.G_L, L.G_R), {"C1L": 1}),
    ((L.G_L, L.G_L, L.G_R), {"f1": 1}),
    ((L.G_L, L.G_L, L.G_R), {"C2L": 1}),
    ((L.G_L, L.E, L.G_R), {}),
    ((L.G_L, L.G_R, L.G_R), {"C2R": 1}),
    ((L.G_L, L.G_R, L.G_R), {"f2": 1}),
    ((L.G_L, L.G_R, L.G_R), {"C3R": 1}),
    ((L.G_L, L.G_R, L.E), {}),
    ((L.G_L, L.G_R, L.G_O), {}),
]

# zero-excitation decay products, in first-reached closure order
DECAY_3 = [
    (L.G_L, L.G_L, L.G_R),
    (L.G_R, L.G_L, L.G_R),
    (L.G_L, L.G_O, L.G_R),
    (L.G_L, L.G_R, L.G_R),
    (L.G_L, L.G_R, L.G_L),
]


def expected_state(space, levels, occupied):
    photons = tuple(occupied.get(m.label, 0) for m in space.modes)
    return hilbert.BasisState(levels, photons)


def test_mode_layout_3_atoms(space3):
    assert [m.label for m in space3.modes] == ["C1L", "C2L", "C2R", "C3R", "f1", "f2"]


def test_closed_basis_is_the_chain_in_order(space3):
    assert space3.dim == 11
    for i, (levels, occ) in enumerate(CHAIN_3):
        assert space3.basis[i] == expected_state(space3, levels, occ)


def test_open_basis_appends_decay_products(open_space3):
    assert open_space3.dim == 16
    assert open_space3.basis[:11] == tuple(
        expected_state(open_space3, lv, occ) for lv, occ in CHAIN_3
    )
    vacuum = (0,) * len(open_space3.modes)
    for i, levels in enumerate(DECAY_3):
        assert open_space3.basis[11 + i] == hilbert.BasisState(levels, vacuum)


def test_five_atom_chain_dimension(space5):
    assert space5.dim == 4 * 5 - 1


def test_seven_atom_chain_dimension():
    space = model.build_space(model.SystemParams(n_atoms=7))
    assert space.dim == 27


def test_annihilation_on_photon_state_closed_vs_open(space3, open_space3):
    mode = ModeId(ModeKind.CAVITY_LEFT, 1)
    # the annihilation image of the first photon state has no partner in the
    # coherent-only basis, but is present once decay products are included
    a_closed = hilbert.annihilation(space3, mode)
    assert np.allclose(a_closed.mat[:, 2], 0.0)
    a_open = hilbert.annihilation(open_space3, mode)
    col = a_open.mat[:, 2]
    assert col[11] == 1.0 and np.count_nonzero(col) == 1


def test_annihilation_on_vacuum_is_zero(space3):
    a = hilbert.annihilation(space3, ModeId(ModeKind.CAVITY_LEFT, 1))
    assert np.allclose(a.mat[:, 0], 0.0)


def test_unknown_mode_rejected(space3):
    with pytest.raises(ConfigurationError):
        hilbert.annihilation(space3, ModeId(ModeKind.CAVITY_LEFT, 3))


def test_adjoint_product_equals_number_op_in_open_space(open_space3):
    # the open basis is closed under annihilation, so a^dag a is the
    # diagonal photon count of the mode exactly
    for mode in open_space3.modes:
        a = hilbert.annihilation(open_space3, mode)
        pos = open_space3.mode_position(mode)
        n_op = np.diag([float(st.photons[pos]) for st in open_space3.basis])
        assert np.allclose(a.mat.conj().T @ a.mat, n_op, atol=1e-14)


def test_atomic_op_pump_transition(space3):
    op = hilbert.atomic_op(space3, 0, L.E, L.G_O)
    assert op.mat[1, 0] == 1.0  # start state -> first excited chain state
    assert np.allclose(op.mat @ op.mat, 0.0)  # nilpotent: <g_o|e> = 0


def test_atomic_op_projector(space3):
    proj = hilbert.atomic_op(space3, 1, L.E, L.E)
    vec = space3.basis_vector(5)
    assert np.allclose(proj.mat @ vec, vec)
    assert np.allclose(np.trace(proj.mat), 1.0)  # only one state has atom 1 excited


def test_atom_index_bounds(space3):
    with pytest.raises(ConfigurationError):
        hilbert.atomic_op(space3, 3, L.E, L.G_O)


def test_excitation_operator(open_space3):
    counts = np.array([st.excitations for st in open_space3.basis])
    assert set(counts[:11]) == {0, 1}
    assert np.all(counts[11:] == 0.0)
    assert counts[0] == 0.0 and counts[1] == 1.0


def test_closure_minimality(space3):
    # the coherent chain is a path: blocking state k truncates the closure
    # right before it, so every basis state is necessary
    generators = hilbert.laser_stencils(3) + hilbert.chain_coupling_stencils(3)
    for k in range(1, space3.dim):
        blocked = space3.basis[k]
        order = [space3.basis[0]]
        seen = {space3.basis[0], blocked}
        frontier = list(order)
        while frontier:
            nxt = []
            for st in frontier:
                for stencil in generators:
                    for move in stencil.directions():
                        hit = move(st)
                        if hit and hit[0] not in seen:
                            seen.add(hit[0])
                            order.append(hit[0])
                            nxt.append(hit[0])
            frontier = nxt
        assert order == list(space3.basis[:k])


def test_cutoff_violation_raises():
    # start with a photon already present and an excited atom: emission into
    # the occupied mode would exceed the single-photon cutoff
    modes = hilbert.chain_modes(3)
    photons = [0] * len(modes)
    photons[0] = 1
    initial = hilbert.BasisState((L.E, L.G_L, L.G_R), tuple(photons))
    with pytest.raises(TruncationError):
        hilbert.build_reachable_space(3, initial=initial)


def test_duplicate_basis_rejected(space3):
    with pytest.raises(ValidationError):
        hilbert.HilbertSpace(
            n_atoms=3,
            modes=space3.modes,
            basis=(space3.basis[0], space3.basis[0]),
        )


def test_operator_hermitian_flag(space3):
    mat = np.zeros((11, 11), dtype=complex)
    mat[0, 1] = 1.0
    with pytest.raises(ValidationError):
        hilbert.Operator(space3, mat, hermitian=True)
    ok = hilbert.Operator(space3, mat + mat.conj().T, hermitian=True)
    assert np.array_equal(ok.mat, ok.mat.conj().T)


def test_operator_shape_checked(space3):
    with pytest.raises(DimensionError):
        hilbert.Operator(space3, np.zeros((3, 3)))


def test_basis_json_labels(open_space3):
    dump = hilbert.basis_json(open_space3)
    assert len(dump) == 16
    assert dump[0]["atoms"] == ["g_o", "g_l", "g_r"]
    assert dump[2]["photons"]["C1L"] == 1
    assert dump[2]["excitations"] == 1
    assert dump[15]["atoms"] == ["g_l", "g_r", "g_l"]
