"""Bundled-fixture integrity and dense-oracle checks on the real molecules."""

import hashlib

import numpy as np

from mivqe.encodings import encode, hf_reference
from mivqe.fcidump import load_fcidump
from mivqe.fermion import build_hamiltonian, hf_occupations
from mivqe.reference import exact_ground_state
from mivqe.simulator import basis_state

from conftest import FIXTURE_DIR
from helpers import dense_sum, expectation, fermion_dense


def test_fixture_checksums():
    sums = (FIXTURE_DIR / "SHA256SUMS").read_text().strip().splitlines()
    assert len(sums) == 13
    for line in sums:
        digest, name = line.split()
        actual = hashlib.sha256((FIXTURE_DIR / name).read_bytes()).hexdigest()
        assert actual == digest, f"{name} does not match its recorded checksum"


def test_h2_fixture_dense_fci_oracle():
    """Ground energy from the occupation-basis ladder construction (no qubit
    encoding involved) must match the encoded Hamiltonian's spectrum."""
    ints = load_fcidump(FIXTURE_DIR / "h2_0.75.fcidump")
    op = build_hamiltonian(ints, "abab")
    fock = fermion_dense(op, 2 * ints.n_orbitals)
    assert np.abs(fock.imag).max() < 1e-12
    e_fock = np.linalg.eigvalsh(fock).min()
    H = encode(op, "jordan_wigner", 2 * ints.n_orbitals)
    e_qubit = np.linalg.eigvalsh(dense_sum(H)).min()
    assert abs(e_fock - e_qubit) < 1e-10
    # 6-31g-type H2 near equilibrium lands close to the known FCI value
    assert abs(e_qubit - -1.1517) < 2e-3


def test_h2_fixture_hf_energy_quadratic_form():
    ints = load_fcidump(FIXTURE_DIR / "h2_0.75.fcidump")
    H = encode(build_hamiltonian(ints, "abab"), "parity", 2 * ints.n_orbitals)
    occ = hf_occupations(ints.n_orbitals, ints.n_electrons, ints.ms2, "abab")
    bits = hf_reference("parity", occ)
    state = basis_state(H.n_qubits, bits)
    via_engine = expectation(state, H)
    via_dense = float(np.real(state.conj() @ dense_sum(H) @ state))
    assert abs(via_engine - via_dense) < 1e-10


def test_h2_fixture_lanczos_vs_dense():
    ints = load_fcidump(FIXTURE_DIR / "h2_0.75.fcidump")
    H = encode(build_hamiltonian(ints, "aabb"), "bravyi_kitaev", 2 * ints.n_orbitals)
    e_lanczos, state = exact_ground_state(H)
    dense_min = np.linalg.eigvalsh(dense_sum(H)).min()
    assert abs(e_lanczos - dense_min) < 1e-9
    M = dense_sum(H)
    assert np.linalg.norm(M @ state - e_lanczos * state) < 1e-9


def test_h2_achieved_qubit_counts():
    """Reduced register sizes per mapping x grouping: 8 (JW), 7 (abab), 6 (aabb)."""
    from mivqe.encodings import reduce_stationary_qubits

    ints = load_fcidump(FIXTURE_DIR / "h2_0.75.fcidump")
    expected = {
        ("jordan_wigner", "abab"): 8,
        ("jordan_wigner", "aabb"): 8,
        ("parity", "abab"): 7,
        ("parity", "aabb"): 6,
        ("bravyi_kitaev", "abab"): 7,
        ("bravyi_kitaev", "aabb"): 6,
    }
    for (mapping, grouping), n_expected in expected.items():
        H = encode(build_hamiltonian(ints, grouping), mapping, 2 * ints.n_orbitals)
        occ = hf_occupations(ints.n_orbitals, ints.n_electrons, ints.ms2, grouping)
        bits = hf_reference(mapping, occ)
        reduced, _, _ = reduce_stationary_qubits(H, bits)
        assert reduced.n_qubits == n_expected, (mapping, grouping, reduced.n_qubits)


def test_lih_fixture_active_space_shape():
    ints = load_fcidump(FIXTURE_DIR / "lih_1.60.fcidump")
    assert ints.n_orbitals == 3
    assert ints.n_electrons == 2
    g = ints.two_body
    assert np.allclose(g, g.transpose(1, 0, 2, 3))
    assert np.allclose(g, g.transpose(2, 3, 0, 1))


def test_h2o_fixture_active_space_shape():
    ints = load_fcidump(FIXTURE_DIR / "h2o_1.80.fcidump")
    assert ints.n_orbitals == 5
    assert ints.n_electrons == 4
    h = ints.one_body
    assert np.allclose(h, h.T)
