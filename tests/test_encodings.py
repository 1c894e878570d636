"""Fermion-to-qubit mappings: textbook identities, spectra, HF references,
stationary-qubit elimination."""

import hashlib
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from mivqe.encodings import (
    EncodingError,
    bravyi_kitaev_matrix,
    encode,
    hf_reference,
    reduce_stationary_qubits,
)
from mivqe.fermion import (
    FermionOperator,
    build_hamiltonian,
    hf_occupations,
    s_squared_operator,
)
from mivqe.fcidump import MolecularIntegrals, load_fcidump
from mivqe.pauli import format_pauli_sum

from conftest import FIXTURE_DIR
from helpers import (
    PauliWord,
    coefficient,
    dense_sum,
    dict_encode,
    expectation,
    fermion_dense,
    identity,
    number_operator,
    pauli_sum,
    per_term_reduced_terms,
    sum_terms,
    sums_equal,
)

ENCODE_DIGESTS = Path(__file__).with_name("encode_sha256.txt")
REDUCED_DIGESTS = Path(__file__).with_name("encode_reduced_sha256.txt")

MAPPINGS = ["jordan_wigner", "parity", "bravyi_kitaev"]


def random_hermitian_fermion_op(rng, n_modes, n_terms=6, max_length=2):
    terms = {}
    for _ in range(n_terms):
        k = int(rng.integers(1, max_length + 1))
        n_create = int(rng.integers(0, k + 1))
        ladder = tuple((int(rng.integers(0, n_modes)), f < n_create) for f in range(k))
        terms[ladder] = terms.get(ladder, 0.0) + float(rng.normal())
    op = FermionOperator(terms)
    return 0.5 * (op + op.adjoint())


def test_jw_number_operator_identity():
    op = FermionOperator({((0, True), (0, False)): 1.0})
    H = encode(op, "jordan_wigner", 2)
    assert H.n_qubits == 2
    assert abs(coefficient(H, identity(2)) - 0.5) < 1e-14
    assert abs(coefficient(H, PauliWord(2, 0, 1)) + 0.5) < 1e-14
    assert len(H) == 2


def test_jw_hopping_identity():
    op = FermionOperator(
        {((0, True), (1, False)): 1.0, ((1, True), (0, False)): 1.0}
    )
    H = encode(op, "jordan_wigner", 2)
    XX = PauliWord.from_label("XX")
    YY = PauliWord.from_label("YY")
    assert abs(coefficient(H, XX) - 0.5) < 1e-14
    assert abs(coefficient(H, YY) - 0.5) < 1e-14
    assert len(H) == 2


@pytest.mark.parametrize("mapping", MAPPINGS)
def test_encoding_is_spectrally_faithful(mapping):
    """Encoded matrix must be unitarily equivalent to the occupation-basis matrix."""
    rng = np.random.default_rng(31)
    for _ in range(8):
        op = random_hermitian_fermion_op(rng, 4)
        if not op.terms:
            continue
        H = encode(op, mapping, 4)
        qubit_eigs = np.linalg.eigvalsh(dense_sum(H))
        fock_eigs = np.linalg.eigvalsh(fermion_dense(op, 4))
        assert np.allclose(qubit_eigs, fock_eigs, atol=1e-9)


@pytest.mark.parametrize("mapping", MAPPINGS)
@pytest.mark.parametrize("grouping", ["abab", "aabb"])
def test_hf_reference_counts_electrons(mapping, grouping):
    n_orb, n_elec = 3, 4
    occ = hf_occupations(n_orb, n_elec, 0, grouping)
    bits = hf_reference(mapping, occ)
    N = encode(number_operator(2 * n_orb), mapping, 2 * n_orb)
    state = np.zeros(2 ** (2 * n_orb), dtype=complex)
    state[sum(b << q for q, b in enumerate(bits))] = 1.0
    assert abs(expectation(state, N) - n_elec) < 1e-10


def test_hf_reference_examples():
    assert hf_reference("jordan_wigner", [1, 1, 0, 0]) == [1, 1, 0, 0]
    assert hf_reference("parity", [1, 1, 0, 0]) == [1, 0, 0, 0]
    for mapping in MAPPINGS:
        assert hf_reference(mapping, [0, 0, 0, 0]) == [0, 0, 0, 0]


def test_bk_matrix_structure():
    B4 = bravyi_kitaev_matrix(4)
    expected = np.array(
        [[1, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [1, 1, 1, 1]], dtype=np.uint8
    )
    assert np.array_equal(B4, expected)
    B3 = bravyi_kitaev_matrix(3)
    assert np.array_equal(B3, expected[:3, :3])


def test_encode_rejects_non_hermitian():
    op = FermionOperator({((0, True), (1, False)): 1.0})
    with pytest.raises(EncodingError):
        encode(op, "jordan_wigner", 2)


def test_encode_takes_the_register_from_the_caller():
    op = FermionOperator({((1, True), (1, False)): 1.0})
    # mode 3 has no term, yet the register has four qubits
    assert encode(op, "jordan_wigner", 4).n_qubits == 4
    with pytest.raises(EncodingError, match="beyond the 1-mode register"):
        encode(op, "jordan_wigner", 1)


def test_even_y_invariant_random_hermitian_ops():
    rng = np.random.default_rng(32)
    for mapping in MAPPINGS:
        op = random_hermitian_fermion_op(rng, 4, n_terms=8)
        H = encode(op, mapping, 4)
        assert all(w.y_count % 2 == 0 for _, w in sum_terms(H))


def test_reduce_stationary_substitution_example():
    # H = 0.5 Z0 + 0.3 Z0Z1 + 0.2 X1 with reference bit q0 = 0
    H = pauli_sum(
        2,
        [
            (0.5, PauliWord(2, 0, 0b01)),
            (0.3, PauliWord(2, 0, 0b11)),
            (0.2, PauliWord(2, 0b10, 0)),
        ],
    )
    reduced, removed, index_map = reduce_stationary_qubits(H, [0, 0])
    assert removed == [(0, 1)]
    assert index_map == {1: 0}
    assert reduced.n_qubits == 1
    assert abs(coefficient(reduced, identity(1)) - 0.5) < 1e-14
    assert abs(coefficient(reduced, PauliWord(1, 0, 1)) - 0.3) < 1e-14
    assert abs(coefficient(reduced, PauliWord(1, 1, 0)) - 0.2) < 1e-14


def test_reduce_stationary_negative_sector():
    H = pauli_sum(2, [(0.5, PauliWord(2, 0, 0b01)), (0.2, PauliWord(2, 0b10, 0))])
    reduced, removed, _ = reduce_stationary_qubits(H, [1, 0])
    assert removed == [(0, -1)]
    assert abs(coefficient(reduced, identity(1)) + 0.5) < 1e-14


def test_reduce_stationary_noop():
    H = pauli_sum(2, [(0.4, PauliWord.from_label("XZ")), (0.1, PauliWord.from_label("ZX"))])
    reduced, removed, index_map = reduce_stationary_qubits(H, [0, 0])
    assert sums_equal(reduced, H)
    assert removed == []
    assert index_map == {0: 0, 1: 1}


def hydrogen_like_integrals():
    """Small realistic 2-orbital integrals (H2-in-minimal-basis shaped)."""
    h = np.array([[-1.252477, 0.0], [0.0, -0.475934]])
    g = np.zeros((2, 2, 2, 2))
    g[0, 0, 0, 0] = 0.674493
    g[1, 1, 1, 1] = 0.697397
    g[0, 0, 1, 1] = g[1, 1, 0, 0] = 0.663472
    val = 0.181287
    for idx in [
        (0, 1, 0, 1), (1, 0, 0, 1), (0, 1, 1, 0), (1, 0, 1, 0),
    ]:
        g[idx] = val
    return MolecularIntegrals(2, 2, 0, 0.713754, h, g)


def test_mapping_spectral_equivalence_small_molecule():
    ints = hydrogen_like_integrals()
    spectra = {}
    for mapping in MAPPINGS:
        for grouping in ("abab", "aabb"):
            H = encode(build_hamiltonian(ints, grouping), mapping, 2 * ints.n_orbitals)
            spectra[(mapping, grouping)] = np.linalg.eigvalsh(dense_sum(H))
    base = spectra[("jordan_wigner", "abab")]
    for eigs in spectra.values():
        assert np.allclose(eigs, base, atol=1e-10)


def test_sector_enumeration_preserves_ground_energy():
    """Min over all stationary-sector choices must equal the full ground energy."""
    ints = hydrogen_like_integrals()
    H = encode(build_hamiltonian(ints, "aabb"), "parity", 2 * ints.n_orbitals)
    full_ground = np.linalg.eigvalsh(dense_sum(H)).min()

    # find stationary qubits, then enumerate every +-1 sector
    x_union = 0
    for _, w in sum_terms(H):
        x_union |= w.x_mask
    stationary = [q for q in range(H.n_qubits) if not (x_union >> q) & 1]
    assert len(stationary) == 2  # parity + aabb removes two qubits here

    best = np.inf
    for sector in range(2 ** len(stationary)):
        bits = [0] * H.n_qubits
        for pos, q in enumerate(stationary):
            bits[q] = (sector >> pos) & 1
        reduced, _, _ = reduce_stationary_qubits(H, bits)
        best = min(best, np.linalg.eigvalsh(dense_sum(reduced)).min())
    assert abs(best - full_ground) < 1e-10

    # and the HF sector in particular contains the ground state
    occ = hf_occupations(2, 2, 0, "aabb")
    bits = hf_reference("parity", occ)
    reduced, _, _ = reduce_stationary_qubits(H, bits)
    assert abs(np.linalg.eigvalsh(dense_sum(reduced)).min() - full_ground) < 1e-10


def test_penalized_hamiltonian_keeps_even_y():
    ints = hydrogen_like_integrals()
    op = build_hamiltonian(ints, "aabb") + 0.5 * s_squared_operator(2, "aabb")
    for mapping in MAPPINGS:
        H = encode(op, mapping, 2 * ints.n_orbitals)
        assert all(w.y_count % 2 == 0 for _, w in sum_terms(H))


def _recorded_digests(path: Path) -> dict[str, list[tuple[str, ...]]]:
    out: dict[str, list[tuple[str, ...]]] = {}
    for line in path.read_text().splitlines():
        if line and not line.startswith("#"):
            digest, stem, *setting = line.split()
            out.setdefault(stem, []).append((digest, *setting))
    return out


def _digest(H) -> str:
    return hashlib.sha256(format_pauli_sum(H).encode()).hexdigest()


def _fixture_encodings(stem: str, path: Path):
    """(recorded digest, setting, encoded H, HF bits) for each of the stem's
    12 settings in the digest file at path, after checking it has all 12."""
    recorded = _recorded_digests(path)[stem]
    settings = sorted(tuple(row[1:]) for row in recorded)
    assert settings == sorted(product(MAPPINGS, ("abab", "aabb"), ("none", "0.5")))
    ints = load_fcidump(FIXTURE_DIR / f"{stem}.fcidump")
    base = {grouping: build_hamiltonian(ints, grouping) for grouping in ("abab", "aabb")}
    for digest, mapping, grouping, penalty in recorded:
        op = base[grouping]
        if penalty != "none":
            op = op + float(penalty) * s_squared_operator(ints.n_orbitals, grouping)
        occ = hf_occupations(ints.n_orbitals, ints.n_electrons, ints.ms2, grouping)
        H = encode(op, mapping, 2 * ints.n_orbitals)
        yield digest, (mapping, grouping, penalty), H, hf_reference(mapping, occ)


FIXTURE_STEMS = sorted(p.stem for p in FIXTURE_DIR.glob("*.fcidump"))


@pytest.mark.parametrize("stem", FIXTURE_STEMS)
def test_fixture_encodings_match_recorded_digests(stem):
    """Each fixture's 12 qubit Hamiltonians keep every printed bit: the
    encoder is scalar arithmetic on masks, so numpy and BLAS cannot move it."""
    for digest, setting, H, _ in _fixture_encodings(stem, ENCODE_DIGESTS):
        assert _digest(H) == digest, setting


@pytest.mark.parametrize("stem", FIXTURE_STEMS)
def test_fixture_reductions_match_recorded_digests(stem):
    """The same 12 Hamiltonians with their stationary qubits reduced out at
    the HF bits, as `mivqe encode` prints them by default, keep every bit:
    the merge of terms that collide after the reduction adds in the
    recorded order."""
    for digest, setting, H, bits in _fixture_encodings(stem, REDUCED_DIGESTS):
        assert _digest(reduce_stationary_qubits(H, bits)[0]) == digest, setting


def test_reduced_digests_include_colliding_reductions():
    """Some recorded reductions merge terms: the reduced sum has fewer terms
    than the encoded one (LiH 2.40 parity/aabb: 118 to 100)."""
    _, _, H, bits = next(
        row for row in _fixture_encodings("lih_2.40", REDUCED_DIGESTS)
        if row[1] == ("parity", "aabb", "none")
    )
    assert (len(H), len(reduce_stationary_qubits(H, bits)[0])) == (118, 100)


@pytest.mark.parametrize("seed", range(8))
def test_reduction_equals_the_per_term_loop_bit_for_bit(seed):
    """The array reduction (one sign select, one bit compaction per qubit and
    the constructor's merge) gives the per-term, per-qubit loop's terms with
    every coefficient bit. Each reduced word gathers many terms that differ
    only in Z on stationary qubits, so its sum's order shows."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 9))
    full = (1 << n) - 1
    moving = int(rng.integers(1, full))  # the qubits that may carry X or Y
    base = [(moving, int(rng.integers(0, full + 1)) & moving)]
    base += [(int(a) & moving, int(b) & moving) for a, b in rng.integers(0, full + 1, (3, 2))]
    terms = []
    for _ in range(60):
        x, z = base[rng.integers(len(base))]
        z |= int(rng.integers(0, full + 1)) & ~moving & full
        terms.append((float(rng.normal() * 10.0 ** rng.integers(-13, 2)), PauliWord(n, x, z)))
    H = pauli_sum(n, terms)
    bits = [int(b) for b in rng.integers(0, 2, n)]
    got = sum_terms(reduce_stationary_qubits(H, bits)[0])
    want = per_term_reduced_terms(H, bits)
    assert [w for _, w in got] == [w for _, w in want]
    assert np.array([c for c, _ in got]).tobytes() == np.array([c for c, _ in want]).tobytes()


def repeated_mode_hermitian_op(rng, n_modes, n_terms=12):
    """A Hermitian operator of creation-first strings of 0 to 6 factors; in
    half of them the annihilations take the created modes first, so those
    strings repeat modes and their words collide. Coefficients span six
    decades."""
    terms = {}
    for _ in range(n_terms):
        length = int(rng.integers(0, 7))
        n_create = int(rng.integers(0, min(length, n_modes) + 1))
        create = rng.choice(n_modes, n_create, replace=False)
        if rng.random() < 0.5:
            rest = np.setdiff1d(np.arange(n_modes), create)
            modes = np.concatenate([rng.permutation(create), rng.permutation(rest)])
        else:
            modes = rng.permutation(n_modes)
        annihilate = modes[: min(length - n_create, n_modes)]
        ladder = tuple((int(m), True) for m in create) + tuple((int(m), False) for m in annihilate)
        terms[ladder] = float(rng.normal() * 10.0 ** rng.integers(-3, 3))
    op = FermionOperator(terms)
    return 0.5 * (op + op.adjoint())


def _same_bits(got, want) -> None:
    assert format_pauli_sum(got) == format_pauli_sum(want)
    assert got.coeffs.tobytes() == want.coeffs.tobytes()


@pytest.mark.parametrize("n_modes", range(2, 13))
def test_array_encoder_matches_the_dict_encoder_bit_for_bit(n_modes):
    """Random strings with repeated modes, whose words collide inside a
    string at several factors, encode to the dict encoder's text and
    coefficient bytes under every mapping."""
    rng = np.random.default_rng(1000 + n_modes)
    repeating = 0
    for _ in range(4):
        op = repeated_mode_hermitian_op(rng, n_modes)
        repeating += sum(len({m for m, _ in l}) < len(l) for l in op.terms)
        for mapping in MAPPINGS:
            _same_bits(encode(op, mapping, n_modes), dict_encode(op, mapping, n_modes))
    assert repeating >= 8


@pytest.mark.parametrize("grouping", ["abab", "aabb"])
@pytest.mark.parametrize("n_orbitals", range(1, 7))
def test_array_encoder_matches_the_dict_encoder_on_s_squared(n_orbitals, grouping):
    """S^2 holds number operators and strings with two repeated modes."""
    op = s_squared_operator(n_orbitals, grouping)
    for mapping in MAPPINGS:
        _same_bits(
            encode(op, mapping, 2 * n_orbitals), dict_encode(op, mapping, 2 * n_orbitals)
        )


def _refusals(op, mapping, n_modes):
    out = []
    for encoder in (encode, dict_encode):
        with pytest.raises(EncodingError) as info:
            encoder(op, mapping, n_modes)
        out.append(str(info.value))
    return out


@pytest.mark.parametrize("mapping", MAPPINGS)
def test_array_encoder_refuses_as_the_dict_encoder(mapping):
    """A non-Hermitian operator and a mode beyond the register are refused
    with the dict encoder's messages."""
    hopping = FermionOperator({((0, True), (1, False)): 1.0})
    got, want = _refusals(hopping, mapping, 2)
    assert got == want == "refusing to encode a non-Hermitian operator"
    number = FermionOperator({((0, True), (0, False)): 1.0, ((3, True), (3, False)): 1.0})
    got, want = _refusals(number, mapping, 3)
    assert got == want == "mode 3 is beyond the 3-mode register"


def test_encode_refuses_a_negative_mode():
    """A negative mode would index the factor table from its end."""
    op = FermionOperator({((-1, True), (-1, False)): 1.0})
    with pytest.raises(EncodingError, match="mode -1 is negative"):
        encode(op, "jordan_wigner", 2)


@pytest.mark.parametrize("grouping", ["abab", "aabb"])
def test_non_real_refusal_names_the_dict_encoders_coefficient(grouping):
    """A 1e12 S^2 penalty on water leaves an imaginary part above 1e-9 after
    the merge; the refusal names the first such word in the dict encoder's
    first-occurrence order, with the same value."""
    ints = load_fcidump(FIXTURE_DIR / "h2o_1.80.fcidump")
    op = build_hamiltonian(ints, grouping) + 1e12 * s_squared_operator(ints.n_orbitals, grouping)
    for mapping in MAPPINGS:
        got, want = _refusals(op, mapping, 2 * ints.n_orbitals)
        assert got == want
        assert got.startswith("non-real coefficient ")
