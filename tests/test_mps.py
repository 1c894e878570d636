"""MPO construction and two-site DMRG."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mivqe.mps
from mivqe.mps import (
    MPO,
    MPSState,
    MpsError,
    _heff_dense,
    _heff_matvec,
    _left_env_step,
    _right_env_step,
    build_mpo,
    mpo_expectation,
    mps_ground_state,
)
from mivqe.pauli import PauliSum
from mivqe.reference import exact_ground_state, mutual_information
from mivqe.simulator import rdm

from mpo_digests import fixture_hamiltonian
from helpers import (
    PauliWord,
    dense_sum,
    einsum_heff_dense,
    einsum_heff_matvec,
    einsum_left_env,
    einsum_mpo_expectation,
    einsum_norm,
    einsum_pair_density_matrix,
    einsum_right_env,
    einsum_single_density_matrix,
    max_bond,
    mpo_to_dense,
    mps_to_statevector,
    pair_density_matrix,
    pauli_sum,
    per_call_mutual_information,
    random_word,
    scale_sum,
    single_density_matrix,
    sum_terms,
)

MPO_DIGESTS = Path(__file__).with_name("mpo_sha256.txt")
# the rows checked here: every lih_1.60 row, and the two reduced h2o_1.80
# Hamiltonians the benchmark workloads run (mi_ladder, h2o10_scoring)
CHECKED_MPO_ROWS = {
    ("h2o_1.80", "parity", "aabb", "0.5", "reduced"),
    ("h2o_1.80", "jordan_wigner", "abab", "none", "reduced"),
}


def random_real_sum(rng, n, n_terms):
    """Random Hermitian sum with even-Y words only (real matrix)."""
    terms = []
    while len(terms) < n_terms:
        w = random_word(rng, n)
        if w.y_count % 2 == 0:
            terms.append((float(rng.normal()), w))
    return pauli_sum(n, terms)


def test_single_term_mpo_bond_dimension_one():
    H = pauli_sum(2, [(0.8, PauliWord.from_label("ZZ"))])
    mpo = build_mpo(H)
    assert mpo.bond_dimensions() == [1]
    assert np.allclose(mpo_to_dense(mpo), dense_sum(H).real, atol=1e-12)


def test_mpo_action_matches_pauli_sum():
    rng = np.random.default_rng(71)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        H = random_real_sum(rng, n, 12)
        if len(H) == 0:
            continue
        mpo = build_mpo(H)
        M = mpo_to_dense(mpo)
        D = dense_sum(H).real
        for _ in range(3):
            v = rng.normal(size=2**n)
            assert np.linalg.norm(M @ v - D @ v) < 1e-8 * max(1, np.linalg.norm(D @ v))


def test_mpo_compression_keeps_the_sum():
    # MPO_COMPRESSION_TOL truncates only singular values at rounding level
    rng = np.random.default_rng(72)
    n = 4
    H = random_real_sum(rng, n, 20)
    mpo = build_mpo(H)
    assert np.allclose(mpo_to_dense(mpo), dense_sum(H).real, atol=1e-10)


def test_mpo_compression_reduces_bond():
    # a sum of overlapping terms compresses far below the term count
    n = 6
    terms = [(1.0, PauliWord(n, 0, 1 << q)) for q in range(n)]
    terms += [(0.5, PauliWord(n, 0, (1 << q) | (1 << (q + 1)))) for q in range(n - 1)]
    H = pauli_sum(n, terms)
    mpo = build_mpo(H)
    assert max(mpo.bond_dimensions()) <= 4
    assert np.allclose(mpo_to_dense(mpo), dense_sum(H).real, atol=1e-8)


def shared_affix_sum(rng, n):
    """Random even-Y sum whose words mostly join one of a few prefixes (the
    low sites) to one of a few suffixes, as a molecule's terms do."""
    cut = int(rng.integers(1, n))
    low, high = (1 << cut) - 1, ((1 << n) - 1) ^ ((1 << cut) - 1)
    heads = rng.integers(0, 1 << n, size=(3, 2)) & low
    tails = rng.integers(0, 1 << n, size=(3, 2)) & high
    x, z = [], []
    for _ in range(int(rng.integers(1, 40))):
        if rng.random() < 0.8:
            (hx, hz), (tx, tz) = heads[rng.integers(3)], tails[rng.integers(3)]
            wx, wz = int(hx | tx), int(hz | tz)
        else:
            wx, wz = (int(m) for m in rng.integers(0, 1 << n, size=2))
        if (wx & wz).bit_count() % 2 == 0:
            x.append(wx)
            z.append(wz)
    return PauliSum(n, rng.normal(size=len(x)), np.array(x, np.uint64), np.array(z, np.uint64))


def test_mpo_sweep_is_the_sum_with_bonds_bounded_by_its_affixes():
    """On random even-Y sums with shared prefixes and suffixes, the MPO is H
    to rounding, and each bond is at most the number of distinct prefixes and
    of distinct suffixes of the terms at that cut (the rank bound of the
    coefficient matrix the sweep factors there)."""
    rng = np.random.default_rng(2026)
    checked = 0
    for _ in range(60):
        n = int(rng.integers(2, 9))
        H = shared_affix_sum(rng, n)
        if len(H) == 0:
            continue
        checked += 1
        mpo = build_mpo(H)
        scale = 1 + np.abs(H.coeffs).sum()
        assert np.abs(mpo_to_dense(mpo) - dense_sum(H).real).max() <= 1e-12 * scale
        for q, bond in enumerate(mpo.bond_dimensions()):
            low = np.uint64((1 << (q + 1)) - 1)
            prefixes = {(int(a), int(b)) for a, b in zip(H.x & low, H.z & low)}
            suffixes = {(int(a) >> (q + 1), int(b) >> (q + 1)) for a, b in zip(H.x, H.z)}
            assert bond <= min(len(prefixes), len(suffixes))
    assert checked > 50


@pytest.mark.parametrize("setting, bonds", [
    (("h2o_1.80", "parity", "aabb", "0.5", "reduced"), [4, 16, 27, 27, 27, 16, 4]),
    (("h2o_1.80", "jordan_wigner", "abab", "none", "reduced"), [4, 16, 33, 50, 61, 50, 35, 16, 4]),
], ids=["mi_ladder", "h2o10_scoring"])
def test_benchmark_h2o_mpo_bonds(setting, bonds):
    """The MPO bonds of the two h2o Hamiltonians the benchmark workloads run."""
    assert build_mpo(fixture_hamiltonian(*setting)).bond_dimensions() == bonds


def test_mpo_rejects_odd_y():
    H = pauli_sum(2, [(1.0, PauliWord.from_label("YI"))])
    with pytest.raises(MpsError):
        build_mpo(H)


def test_dmrg_z_field_product_state():
    n = 5
    H = pauli_sum(n, [(1.0, PauliWord(n, 0, 1 << q)) for q in range(n)])
    energy, state, trace = mps_ground_state(build_mpo(H), chi=1, n_sweeps=8)
    assert abs(energy + n) < 1e-10
    assert max_bond(state) == 1
    dense = mps_to_statevector(state)
    assert abs(abs(dense[-1]) - 1.0) < 1e-8  # |11...1>
    assert all(e2 <= e1 + 1e-10 for e1, e2 in zip(trace, trace[1:]))


def test_dmrg_matches_exact_at_full_bond():
    rng = np.random.default_rng(73)
    for n in (4, 5):
        H = random_real_sum(rng, n, 14)
        if len(H) == 0:
            continue
        e_exact, _ = exact_ground_state(H)
        chi = 2 ** (n // 2)
        e_mps, state, _ = mps_ground_state(build_mpo(H), chi=chi, n_sweeps=20)
        assert e_mps >= e_exact - 1e-9  # variational
        assert abs(e_mps - e_exact) < 1e-8
        assert abs(state.norm() - 1.0) < 1e-8
        assert max_bond(state) <= chi


def test_dmrg_truncated_chi_gap_positive():
    rng = np.random.default_rng(74)
    n = 5
    # entangled ground state: transverse-field mix
    terms = [(-1.0, PauliWord(n, 0, (1 << q) | (1 << (q + 1)))) for q in range(n - 1)]
    terms += [(-0.9, PauliWord(n, 1 << q, 0)) for q in range(n)]
    H = pauli_sum(n, terms)
    e_exact, _ = exact_ground_state(H)
    e_mps, state, _ = mps_ground_state(build_mpo(H), chi=1, n_sweeps=10)
    assert e_mps > e_exact + 1e-6
    assert max_bond(state) == 1


def test_mps_rdms_match_dense():
    rng = np.random.default_rng(75)
    n = 5
    H = random_real_sum(rng, n, 14)
    _, state, _ = mps_ground_state(build_mpo(H), chi=2 ** (n // 2), n_sweeps=16)
    dense = mps_to_statevector(state)
    dense = dense / np.linalg.norm(dense)
    for q in range(n):
        rho_mps = single_density_matrix(state, q)
        rho_dense = rdm(dense, [q])
        assert np.allclose(rho_mps, rho_dense, atol=1e-9)
    for i in range(n):
        for j in range(i + 1, n):
            rho_mps = pair_density_matrix(state, i, j)
            rho_dense = rdm(dense, [i, j])
            assert np.allclose(rho_mps, rho_dense, atol=1e-9)


def test_mps_mi_matches_dense_mi():
    rng = np.random.default_rng(76)
    n = 4
    H = random_real_sum(rng, n, 12)
    e_exact, exact_state = exact_ground_state(H)
    e_mps, state, _ = mps_ground_state(build_mpo(H), chi=2 ** (n // 2), n_sweeps=20)
    mi_exact = mutual_information(exact_state)
    mi_mps = mutual_information(state)
    assert np.abs(mi_exact.entries - mi_mps.entries).max() < 1e-6


def test_dmrg_deterministic():
    rng = np.random.default_rng(77)
    n = 4
    H = random_real_sum(rng, n, 10)
    e1, s1, t1 = mps_ground_state(build_mpo(H), chi=2, n_sweeps=5, seed=3)
    e2, s2, t2 = mps_ground_state(build_mpo(H), chi=2, n_sweeps=5, seed=3)
    assert e1 == e2
    assert t1 == t2
    for a, b in zip(s1.tensors, s2.tensors):
        assert np.array_equal(a, b)


# unequal bonds everywhere, bond 1 at both chain ends
MPS_BONDS = [1, 3, 5, 2, 4, 1]
MPO_BONDS = [1, 4, 6, 3, 5, 1]
I_Y = np.array([[0.0, -1.0], [1.0, 0.0]])  # the real i*Y site matrix


def random_chain(rng):
    """Random MPS and MPO; site 1 of the MPO is i*Y only, so it is
    antisymmetric and a swapped out/in leg flips its sign."""
    n = len(MPS_BONDS) - 1
    A = [rng.normal(size=(MPS_BONDS[k], 2, MPS_BONDS[k + 1])) for k in range(n)]
    W = [rng.normal(size=(MPO_BONDS[k], MPO_BONDS[k + 1], 2, 2)) for k in range(n)]
    W[1] = rng.normal(size=(MPO_BONDS[1], MPO_BONDS[2]))[:, :, None, None] * I_Y
    return MPSState(A), MPO(W)


def assert_rel_close(new, ref, rtol=1e-12):
    new, ref = np.asarray(new), np.asarray(ref)
    assert new.shape == ref.shape
    assert np.linalg.norm(new - ref) <= rtol * np.linalg.norm(ref)


def test_environment_steps_match_einsum_oracles():
    rng = np.random.default_rng(81)
    mps, mpo = random_chain(rng)
    for k, (A, W) in enumerate(zip(mps.tensors, mpo.tensors)):
        L = rng.normal(size=(MPS_BONDS[k], MPO_BONDS[k], MPS_BONDS[k]))
        assert_rel_close(_left_env_step(L, A, W), einsum_left_env(L, A, W))
        R = rng.normal(size=(MPS_BONDS[k + 1], MPO_BONDS[k + 1], MPS_BONDS[k + 1]))
        assert_rel_close(_right_env_step(R, A, W), einsum_right_env(R, A, W))


def test_expectation_and_norm_match_einsum_oracles():
    rng = np.random.default_rng(82)
    for _ in range(3):
        mps, mpo = random_chain(rng)
        assert_rel_close(mpo_expectation(mps, mpo), einsum_mpo_expectation(mps, mpo))
        assert_rel_close(mps.norm(), einsum_norm(mps))


def test_two_site_operator_matches_einsum_oracles():
    rng = np.random.default_rng(83)
    _, mpo = random_chain(rng)
    n = len(MPS_BONDS) - 1
    for i in range(n - 1):  # i = 0 and i = n - 2 put a bond-1 environment in
        dl, dr = MPS_BONDS[i], MPS_BONDS[i + 2]
        L = rng.normal(size=(dl, MPO_BONDS[i], dl))
        R = rng.normal(size=(dr, MPO_BONDS[i + 2], dr))
        W1, W2 = mpo.tensors[i], mpo.tensors[i + 1]
        theta = rng.normal(size=(dl, 2, 2, dr))
        assert_rel_close(_heff_matvec(L, W1, W2, R, theta), einsum_heff_matvec(L, W1, W2, R, theta))
        assert_rel_close(_heff_dense(L, W1, W2, R), einsum_heff_dense(L, W1, W2, R))


def test_rdms_match_einsum_oracles():
    rng = np.random.default_rng(84)
    mps, _ = random_chain(rng)
    n = mps.n_qubits
    for q in range(n):
        assert_rel_close(single_density_matrix(mps, q), einsum_single_density_matrix(mps, q))
    for i in range(n):
        for j in range(n):
            if i != j:
                assert_rel_close(pair_density_matrix(mps, i, j), einsum_pair_density_matrix(mps, i, j))


def test_mps_mi_one_canonical_form_equals_per_call_path():
    rng = np.random.default_rng(85)
    mps, _ = random_chain(rng)
    assert mutual_information(mps).entries.tobytes() == per_call_mutual_information(mps).tobytes()
    H = random_real_sum(rng, 6, 20)
    _, state, _ = mps_ground_state(build_mpo(H), chi=4, n_sweeps=3)
    assert mutual_information(state).entries.tobytes() == per_call_mutual_information(state).tobytes()


def test_local_matvec_equals_dense_beyond_dense_cutoff():
    # environments of a real symmetric H around sites 2, 3 of a 6-site MPS
    # whose bonds make the local problem 12 * 4 * 12 = 576 > _DENSE_SOLVE_CUTOFF
    rng = np.random.default_rng(86)
    n, bonds = 6, [1, 2, 12, 7, 12, 2, 1]
    H = random_real_sum(rng, n, 24)
    assert any(w.y_count for _, w in sum_terms(H))
    mpo = build_mpo(H)
    A = [rng.normal(size=(bonds[k], 2, bonds[k + 1])) for k in range(n)]
    L = np.ones((1, 1, 1))
    for k in range(2):
        L = _left_env_step(L, A[k], mpo.tensors[k])
    R = np.ones((1, 1, 1))
    for k in range(n - 1, 3, -1):
        R = _right_env_step(R, A[k], mpo.tensors[k])
    dim = 12 * 4 * 12
    assert dim > mivqe.mps._DENSE_SOLVE_CUTOFF
    M = _heff_dense(L, mpo.tensors[2], mpo.tensors[3], R)
    for _ in range(3):
        v = rng.normal(size=dim)
        out = _heff_matvec(L, mpo.tensors[2], mpo.tensors[3], R, v.reshape(12, 2, 2, 12))
        assert_rel_close(out.reshape(dim), M @ v)


def test_dmrg_iterative_local_solver_matches_exact(monkeypatch):
    # 9 qubits is the smallest chain where chi = 16 both holds the ground
    # state exactly (bonds <= 2^4) and gives local problems of 8*4*16 = 512
    # > _DENSE_SOLVE_CUTOFF, so eigsh solves them
    calls = []
    eigsh = mivqe.mps.eigsh

    def spy(op, **kwargs):
        calls.append(op.shape[0])
        return eigsh(op, **kwargs)

    monkeypatch.setattr(mivqe.mps, "eigsh", spy)
    rng = np.random.default_rng(87)
    n = 9
    H = random_real_sum(rng, n, 30)
    e_exact, _ = exact_ground_state(H)
    e_mps, state, _ = mps_ground_state(build_mpo(H), chi=16, n_sweeps=10)
    assert calls and max(calls) > mivqe.mps._DENSE_SOLVE_CUTOFF
    assert abs(e_mps - e_exact) < 1e-8
    assert max_bond(state) <= 16


def test_dmrg_early_stop_is_relative_to_the_energy():
    """H and 1e3 H have the same DMRG path up to float noise, so the sweeps
    stop after the same sweep: the stop compares the energy change with
    SWEEP_RTOL * max(1, |E|), not an absolute tolerance."""
    from mivqe.config import RunConfig
    from mivqe.pipeline import prepare_problem

    from conftest import FIXTURE_DIR

    problem = prepare_problem(
        RunConfig(fcidump=str(FIXTURE_DIR / "lih_1.60.fcidump"), mapping="parity", grouping="aabb")
    )
    H, bits = problem.hamiltonian, problem.reference_bits
    _, _, trace = mps_ground_state(build_mpo(H), 4, 8, seed=7, init_bits=bits)
    _, _, scaled = mps_ground_state(build_mpo(scale_sum(H, 1e3)), 4, 8, seed=7, init_bits=bits)
    assert len(trace) < 8
    assert len(scaled) == len(trace)


def test_mpo_matches_recorded_digests():
    """The recorded digests pin build_mpo's construction: every bit of every
    tensor, its shape and its bytes, on every lih_1.60 row and the
    benchmark's two h2o_1.80 rows (the script pins BLAS to one thread, so it
    runs in its own process). A change to the construction re-records them."""
    rows = [line for line in MPO_DIGESTS.read_text().splitlines()
            if line and not line.startswith("#")]
    checked = [row for row in rows if row.split()[1] == "lih_1.60"
               or tuple(row.split()[1:]) in CHECKED_MPO_ROWS]
    assert len(rows) == 156 and len(checked) == 14
    script = MPO_DIGESTS.with_name("mpo_digests.py")
    out = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, check=True,
        input="".join(row.split(None, 1)[1] + "\n" for row in checked),
    )
    assert out.stdout.splitlines() == checked
