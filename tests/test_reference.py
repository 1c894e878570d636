"""Lanczos ground states, entropy, and mutual-information matrices."""

import numpy as np
import pytest
from scipy.sparse.linalg import ArpackNoConvergence

import mivqe.reference
from mivqe.encodings import encode
from mivqe.fcidump import load_fcidump
from mivqe.fermion import build_hamiltonian
from mivqe.reference import (
    LanczosConvergenceError,
    MIMatrix,
    RESIDUAL_TOL,
    ReferenceError,
    entropy,
    exact_ground_state,
    ground_energy,
    mutual_information,
)
from mivqe.simulator import basis_state

from conftest import FIXTURE_DIR
from helpers import (
    PauliWord,
    dense_sum,
    pauli_sum,
    random_state,
    random_word,
    sum_terms,
)


def test_ground_state_minus_z():
    H = pauli_sum(1, [(-1.0, PauliWord.from_label("Z"))])
    energy, state = exact_ground_state(H)
    assert abs(energy + 1.0) < 1e-10
    assert abs(abs(state[0]) - 1.0) < 1e-9


def test_ground_state_x():
    H = pauli_sum(1, [(1.0, PauliWord.from_label("X"))])
    energy, state = exact_ground_state(H)
    assert abs(energy + 1.0) < 1e-10
    target = np.array([1.0, -1.0]) / np.sqrt(2)
    overlap = abs(np.vdot(target, state))
    assert abs(overlap - 1.0) < 1e-9


def test_ground_state_matches_dense_random():
    rng = np.random.default_rng(51)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        H = pauli_sum(
            n,
            [(rng.normal(), random_word(rng, n)) for _ in range(12)],
        )
        if len(H) == 0:
            continue
        energy, state = exact_ground_state(H)
        dense_min = np.linalg.eigvalsh(dense_sum(H)).min()
        assert abs(energy - dense_min) < 1e-9
        residual = np.linalg.norm(dense_sum(H) @ state - energy * state)
        assert residual < 1e-8


def test_lanczos_residual_contract():
    H = pauli_sum(3, [(1.0, PauliWord.from_label("ZZI")), (0.5, PauliWord.from_label("IXX"))])
    energy, state = exact_ground_state(H)
    M = dense_sum(H)
    assert np.linalg.norm(M @ state - energy * state) < RESIDUAL_TOL


def test_lanczos_nonconvergence_reports_residual(monkeypatch):
    H = pauli_sum(3, [(1.0, PauliWord.from_label("XZY")), (0.4, PauliWord.from_label("ZXI"))])
    # exact_ground_state reads the bound at call time; 0 is unreachable
    monkeypatch.setattr(mivqe.reference, "RESIDUAL_TOL", 0.0)
    with pytest.raises(LanczosConvergenceError) as err:
        exact_ground_state(H)
    assert err.value.residual >= 0.0
    assert err.value.iterations > 0


@pytest.mark.parametrize("stem", sorted(p.stem for p in FIXTURE_DIR.glob("*.fcidump")))
def test_ground_energy_matches_lanczos_on_fixture_registers(stem):
    """The sector check's solver on every encoded register of the fixture
    that has stationary qubits, i.e. every register the check sees."""
    ints = load_fcidump(FIXTURE_DIR / f"{stem}.fcidump")
    checked = 0
    for mapping in ("jw", "parity", "bk"):
        for grouping in ("abab", "aabb"):
            H = encode(build_hamiltonian(ints, grouping), mapping, 2 * ints.n_orbitals)
            x_union = 0
            for _, w in sum_terms(H):
                x_union |= w.x_mask
            if x_union == 2**H.n_qubits - 1:
                continue
            e_lanczos, _ = exact_ground_state(H)
            assert abs(ground_energy(H) - e_lanczos) < 1e-10, (mapping, grouping)
            checked += 1
    # parity/aabb leaves stationary qubits on every fixture
    assert checked


def test_ground_energy_two_qubits_through_the_merged_matrix(monkeypatch):
    calls = {"compile_sum_action": 0, "merged_sum_matrix": 0}

    def count(name):
        original = getattr(mivqe.reference, name)

        def counted(H):
            calls[name] += 1
            return original(H)

        monkeypatch.setattr(mivqe.reference, name, counted)

    # the solver takes its operator from the module's own imports, where a
    # wrapper like these sees every call: the merged matrix, never the
    # compiled action
    count("compile_sum_action")
    count("merged_sum_matrix")
    real = pauli_sum(2, [(1.0, PauliWord.from_label("ZI")), (0.5, PauliWord.from_label("IX"))])
    complex_ = pauli_sum(2, [(0.7, PauliWord.from_label("YZ")), (-0.3, PauliWord.from_label("XX")),
                            (0.2, PauliWord.from_label("ZI"))])
    for H in (real, complex_):
        energy = ground_energy(H, seed=3)
        assert calls == {"compile_sum_action": 0, "merged_sum_matrix": 1}
        assert abs(energy - exact_ground_state(H, seed=3)[0]) < 1e-10
        assert abs(energy - np.linalg.eigvalsh(dense_sum(H)).min()) < 1e-10
        calls.update(compile_sum_action=0, merged_sum_matrix=0)


def test_ground_energy_nonconvergence_is_the_typed_error(monkeypatch):
    H = pauli_sum(3, [(1.0, PauliWord.from_label("XZX")), (0.4, PauliWord.from_label("ZXI"))])

    def no_convergence(*args, **kwargs):
        raise ArpackNoConvergence("ARPACK error -1: No convergence", np.array([]), np.array([]))

    monkeypatch.setattr(mivqe.reference, "eigsh", no_convergence)
    with pytest.raises(LanczosConvergenceError) as err:
        ground_energy(H)
    assert err.value.residual == np.inf
    assert err.value.iterations >= 0

    def wrong_vector(*args, **kwargs):
        # the lowest eigenvalue paired with a vector that is not its eigenvector
        x = np.zeros((8, 1))
        x[0, 0] = x[5, 0] = 1 / np.sqrt(2)
        return np.array([np.linalg.eigvalsh(dense_sum(H)).min()]), x

    monkeypatch.setattr(mivqe.reference, "eigsh", wrong_vector)
    with pytest.raises(LanczosConvergenceError) as err:
        ground_energy(H)
    assert np.isfinite(err.value.residual) and err.value.residual >= RESIDUAL_TOL
    assert err.value.iterations >= 0


def test_entropy_pure_and_mixed():
    pure = np.array([[1.0, 0.0], [0.0, 0.0]])
    assert entropy(pure) == 0.0
    assert abs(entropy(np.eye(2) / 2) - 1.0) < 1e-12
    rho = np.diag([0.75, 0.25])
    expected = -(0.75 * np.log2(0.75) + 0.25 * np.log2(0.25))
    assert abs(entropy(rho) - expected) < 1e-12
    assert abs(expected - 0.8113) < 5e-5


def test_entropy_rejects_bad_trace():
    with pytest.raises(ReferenceError):
        entropy(np.diag([0.7, 0.2]))


def test_mi_bell_pair():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    mi = mutual_information(bell)
    assert abs(mi[0, 1] - 1.0) < 1e-10


def test_mi_product_state():
    state = basis_state(3, [1, 0, 1])
    mi = mutual_information(state)
    assert np.abs(mi.entries).max() < 1e-12


def test_mi_ghz_pairs():
    ghz = np.zeros(8, dtype=complex)
    ghz[0] = ghz[7] = 1 / np.sqrt(2)
    mi = mutual_information(ghz)
    for i in range(3):
        for j in range(i + 1, 3):
            assert abs(mi[i, j] - 0.5) < 1e-10


def test_mi_matrix_invariants_random_states():
    rng = np.random.default_rng(52)
    for _ in range(300):
        n = int(rng.integers(2, 5))
        mi = mutual_information(random_state(rng, n))
        e = mi.entries
        assert np.allclose(e, e.T, atol=1e-12)
        assert np.abs(np.diag(e)).max() < 1e-15
        assert e.min() >= 0.0
        assert e.max() <= 1.0 + 1e-12


def test_subadditivity_random_states():
    from mivqe.simulator import rdm

    rng = np.random.default_rng(53)
    for _ in range(100):
        n = int(rng.integers(2, 5))
        state = random_state(rng, n)
        i, j = rng.choice(n, size=2, replace=False)
        s_i = entropy(rdm(state, [int(i)]))
        s_j = entropy(rdm(state, [int(j)]))
        s_ij = entropy(rdm(state, [int(i), int(j)]))
        assert s_ij <= s_i + s_j + 1e-9


def test_mi_csv_round_trip():
    rng = np.random.default_rng(54)
    mi = mutual_information(random_state(rng, 4))
    back = MIMatrix.from_csv(mi.to_csv())
    assert np.allclose(back.entries, mi.entries, atol=1e-10)


def test_mi_matrix_validation():
    with pytest.raises(ReferenceError):
        MIMatrix(np.array([[0.0, 0.5], [0.4, 0.0]]))  # asymmetric
    with pytest.raises(ReferenceError):
        MIMatrix(np.array([[0.3, 0.0], [0.0, 0.0]]))  # nonzero diagonal
    with pytest.raises(ReferenceError):
        MIMatrix(np.array([[0.0, 1.5], [1.5, 0.0]]))  # above one bit
