"""Independent oracles shared by the test suite.

Most of this builds explicit numpy matrices from first principles (kron
products, occupation-number ladder action) so that library code paths are
checked against a redundant construction, not against themselves. The
term-by-term H action, the per-word energy and gradient and the radix-2
Walsh-Hadamard transform are the plain paths the compiled simulator and the
pool scorer must reproduce bit for bit; the merged CSR action is the same
matrix summed in another order, which they must not be. The einsum_*
functions are the MPS tensor networks written as single multi-operand
einsums, which the pairwise contractions in mivqe.mps must match.

The rest are reference paths and conveniences the package itself no longer
calls: the expectation of a PauliSum, a pool scorer with H compiled for it,
the single-word Pauli action and exponential, the three-evaluation
sinusoid fit of one entangler, the pool scorer's exact term sum over the
whole pool, the pool scorer on a 2^n x 2^n gather index k ^ x, the odd-Y
pool filtered out of all 4^n mask pairs and the screened pool filtered out
of the whole pool (the forms the scorer, generate_pool and screening had
before, which they must match bit for bit), the per-mask and per-word correlation strength and percentile
count, a word's position in a pool, the pool text parser, the FCIDUMP
writer, the largest MPS bond, the Pauli commutation test, identity check and
canonical sort key, P H P, the number operator, the dense MPO and MPS, and
the RDMs of an MPS one call at a time.

The package holds every Pauli word as its (x, z) masks. PauliWord, the
one-word object the tests build sums, pools and ansatz layers from, lives
here, with format_pauli_factors, its factor list. The per-factor Pauli
letter rule (factor, word_label and per_factor_factor_list) is the oracle
for mivqe.pauli.format_factor_lists, which formats whole mask arrays;
pool_word and pool_words build the PauliWord objects of a pool and
pool_from_words packs words back into mask arrays; add_layer and
word_ansatz append PauliWord layers to an Ansatz by their masks, and
per_word_tables builds a layer's tables from a PauliWord as the simulator
once did.

PauliSum holds its terms as coefficient and mask arrays. pauli_sum builds
one from (coefficient, PauliWord) pairs, sum_terms gives them back and
sums_equal compares two sums bit for bit; dict_merged_terms is the Python dict merge the array constructor replaced,
its oracle, and per_term_reduced_terms the per-term stationary-qubit
reduction the array one replaced. The word and sum algebra only the tests use lives here too:
multiply, identity, weight, add_sums, scale_sum and coefficient.

dict_encode is the encoder mivqe.encodings.encode replaced: each ladder
string multiplied out one factor at a time on Python-integer masks, merged
in dicts. The array encoder must match it bit for bit, and its refusals
message for message. adjoint_is_hermitian is the Hermiticity test that
built the adjoint operator; FermionOperator.is_hermitian must agree with it.
"""

import math
from dataclasses import dataclass

import numpy as np

from mivqe.adaptive import PoolScorer, _fwht, _tau_minimum
from mivqe.encodings import EncodingError, _ladder_factors
from mivqe.fcidump import MolecularIntegrals
from mivqe.fermion import FermionOperator
from mivqe.pauli import (
    COEFF_CUTOFF,
    PauliError,
    PauliSum,
    format_factor_lists,
    mask_product,
    parse_pauli_factors,
)
from mivqe.reference import entropy
from mivqe.screening import (
    POOL_MAX_QUBITS,
    EntanglerPool,
    ScreeningError,
    _mi_entries,
    generate_pool,
    percentile_of_strengths,
)
from mivqe.simulator import (
    Ansatz,
    SimulatorError,
    compile_sum_action,
    energy_and_gradient,
)

_LETTER_FOR_BITS = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}
_BITS_FOR_LETTER = {letter: bits for bits, letter in _LETTER_FOR_BITS.items()}


@dataclass(frozen=True)
class PauliWord:
    """Tensor product of single-qubit Paulis in symplectic (x, z) encoding."""

    n_qubits: int
    x_mask: int
    z_mask: int

    def __post_init__(self):
        if self.n_qubits < 1:
            raise PauliError("n_qubits must be positive")
        full = (1 << self.n_qubits) - 1
        if self.x_mask & ~full or self.z_mask & ~full:
            raise PauliError("mask bits outside qubit range")
        if self.x_mask < 0 or self.z_mask < 0:
            raise PauliError("masks must be non-negative")

    @classmethod
    def from_label(cls, label: str, n_qubits: int | None = None) -> "PauliWord":
        """Build from a dense letter string, e.g. ``"XIZY"`` (qubit 0 first)."""
        if n_qubits is None:
            n_qubits = len(label)
        x = z = 0
        for q, letter in enumerate(label):
            try:
                xb, zb = _BITS_FOR_LETTER[letter]
            except KeyError:
                raise PauliError(f"invalid Pauli letter {letter!r}") from None
            x |= xb << q
            z |= zb << q
        return cls(n_qubits, x, z)

    @property
    def support(self) -> int:
        """Bitmask of qubits carrying a non-identity factor."""
        return self.x_mask | self.z_mask

    @property
    def y_count(self) -> int:
        return (self.x_mask & self.z_mask).bit_count()

    def __str__(self) -> str:
        return format_pauli_factors(self)


def format_pauli_factors(word: PauliWord) -> str:
    """Factor list like ``"X0 Z2"``; empty string for the identity."""
    return str(format_factor_lists(word.n_qubits, [word.x_mask], [word.z_mask])[0])


def factor(word: PauliWord, q: int) -> str:
    """The letter I, X, Z or Y of word on qubit q."""
    return _LETTER_FOR_BITS[((word.x_mask >> q) & 1, (word.z_mask >> q) & 1)]


def word_label(word: PauliWord) -> str:
    """Dense letter string, qubit 0 first: the inverse of PauliWord.from_label."""
    return "".join(factor(word, q) for q in range(word.n_qubits))


def per_factor_factor_list(word: PauliWord) -> str:
    """Factor list like ``"X0 Z2"``, one factor at a time; empty for the identity."""
    parts = []
    for q in range(word.n_qubits):
        letter = factor(word, q)
        if letter != "I":
            parts.append(f"{letter}{q}")
    return " ".join(parts)


def format_pauli_text(coeff: float, word: PauliWord) -> str:
    """One term line ``<coefficient> [<letter><index> ...]``, as format_pauli_sum writes it."""
    return f"{coeff:.17g} {format_pauli_factors(word)}".rstrip()


def pool_word(pool: EntanglerPool, i: int) -> PauliWord:
    """Word i of the pool as a PauliWord."""
    return PauliWord(pool.n_qubits, int(pool.x[i]), int(pool.z[i]))


def pool_words(pool: EntanglerPool) -> tuple[PauliWord, ...]:
    """The pool's words as PauliWord objects, in pool order."""
    return tuple(pool_word(pool, i) for i in range(len(pool)))


def pool_from_words(n_qubits: int, words, provenance: str = "custom") -> EntanglerPool:
    """A pool holding the given PauliWord objects, in the given order."""
    words = list(words)
    x = np.array([w.x_mask for w in words], dtype=np.uint16)
    z = np.array([w.z_mask for w in words], dtype=np.uint16)
    return EntanglerPool(n_qubits, x, z, provenance)


def pauli_sum(n_qubits: int, terms) -> PauliSum:
    """A PauliSum of (coefficient, PauliWord) terms, in the given order."""
    terms = list(terms)
    if any(word.n_qubits != n_qubits for _, word in terms):
        raise PauliError("term qubit count differs from sum qubit count")
    return PauliSum(
        n_qubits,
        [c for c, _ in terms],
        np.array([w.x_mask for _, w in terms], dtype=np.uint64),
        np.array([w.z_mask for _, w in terms], dtype=np.uint64),
    )


def sum_terms(H: PauliSum) -> tuple[tuple[float, PauliWord], ...]:
    """H's terms as (coefficient, PauliWord) pairs, in canonical order."""
    return tuple(
        (c, PauliWord(H.n_qubits, x, z))
        for c, x, z in zip(H.coeffs.tolist(), H.x.tolist(), H.z.tolist())
    )


def sums_equal(a: PauliSum, b: PauliSum) -> bool:
    """Whether two sums have the same register and the same terms, bit for bit."""
    return a.n_qubits == b.n_qubits and all(
        np.array_equal(u, v) for u, v in ((a.coeffs, b.coeffs), (a.x, b.x), (a.z, b.z))
    )


def dict_merged_terms(n_qubits: int, terms) -> tuple[tuple[float, PauliWord], ...]:
    """The canonical terms of a (coefficient, PauliWord) list by a Python dict
    merge: each mask pair's coefficients are added from 0.0 in input order,
    sorted on (z, x), and those at most COEFF_CUTOFF in magnitude dropped;
    the order of additions the array constructor must keep bit for bit."""
    merged: dict[tuple[int, int], float] = {}
    for coeff, word in terms:
        if word.n_qubits != n_qubits:
            raise PauliError("term qubit count differs from sum qubit count")
        key = (word.z_mask, word.x_mask)
        merged[key] = merged.get(key, 0.0) + float(coeff)
    if not all(map(math.isfinite, merged.values())):
        raise PauliError("non-finite coefficient after merging terms")
    return tuple(
        (c, PauliWord(n_qubits, key[1], key[0]))
        for key, c in sorted(merged.items())
        if abs(c) > COEFF_CUTOFF
    )


def per_term_reduced_terms(H: PauliSum, reference_bits) -> tuple[tuple[float, PauliWord], ...]:
    """reduce_stationary_qubits's terms, one term and one qubit at a time and
    merged by dict_merged_terms: the loop the array reduction replaced.
    Each Z on a stationary qubit in state 1 flips the sign, and the
    surviving qubits' bits are packed in order."""
    x_union = 0
    for _, word in sum_terms(H):
        x_union |= word.x_mask
    survivors = [q for q in range(H.n_qubits) if (x_union >> q) & 1]
    terms = []
    for coeff, word in sum_terms(H):
        sign = 1
        for q in range(H.n_qubits):
            if q not in survivors and (word.z_mask >> q) & 1 and reference_bits[q]:
                sign = -sign
        x = z = 0
        for new, old in enumerate(survivors):
            x |= ((word.x_mask >> old) & 1) << new
            z |= ((word.z_mask >> old) & 1) << new
        terms.append((sign * coeff, PauliWord(len(survivors), x, z)))
    return dict_merged_terms(len(survivors), terms)


def add_sums(a: PauliSum, b: PauliSum) -> PauliSum:
    if a.n_qubits != b.n_qubits:
        raise PauliError("cannot add sums on different qubit counts")
    return pauli_sum(a.n_qubits, sum_terms(a) + sum_terms(b))


def scale_sum(H: PauliSum, scalar: float) -> PauliSum:
    return pauli_sum(H.n_qubits, [(c * scalar, w) for c, w in sum_terms(H)])


def coefficient(H: PauliSum, word: PauliWord) -> float:
    """H's coefficient of word; 0.0 if H has no such term."""
    return next((c for c, w in sum_terms(H) if w == word), 0.0)


def identity(n_qubits: int) -> PauliWord:
    return PauliWord(n_qubits, 0, 0)


def weight(word: PauliWord) -> int:
    """Number of non-identity factors, L(word)."""
    return word.support.bit_count()


def check_same_size(a: PauliWord, b: PauliWord) -> None:
    if a.n_qubits != b.n_qubits:
        raise PauliError(f"qubit-count mismatch: {a.n_qubits} vs {b.n_qubits}")


def multiply(a: PauliWord, b: PauliWord) -> tuple[int, PauliWord]:
    """Operator product a*b as (phase_exponent, word): a*b = i^phase * word."""
    check_same_size(a, b)
    phase, x, z = mask_product(a.x_mask, a.z_mask, b.x_mask, b.z_mask)
    return phase, PauliWord(a.n_qubits, x, z)


_SINGLE = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def dense_word(word: PauliWord) -> np.ndarray:
    """Dense matrix of a Pauli word via explicit kron products.

    Qubit 0 is the least-significant bit of the basis index, so it is the
    rightmost kron factor.
    """
    out = np.array([[1.0 + 0j]])
    for q in range(word.n_qubits):
        out = np.kron(_SINGLE[factor(word, q)], out)
    return out


def dense_sum(H: PauliSum) -> np.ndarray:
    dim = 2**H.n_qubits
    out = np.zeros((dim, dim), dtype=complex)
    for coeff, word in sum_terms(H):
        out += coeff * dense_word(word)
    return out


def random_word(rng, n_qubits: int, nontrivial: bool = False) -> PauliWord:
    while True:
        x = int(rng.integers(0, 1 << n_qubits))
        z = int(rng.integers(0, 1 << n_qubits))
        if nontrivial and x == 0 and z == 0:
            continue
        return PauliWord(n_qubits, x, z)


def random_state(rng, n_qubits: int) -> np.ndarray:
    v = rng.normal(size=2**n_qubits) + 1j * rng.normal(size=2**n_qubits)
    return v / np.linalg.norm(v)


def fermion_dense(op, n_modes: int) -> np.ndarray:
    """Occupation-number-basis matrix of a FermionOperator.

    Basis index k has bit q equal to the occupation of mode q. Ladder
    operators act with the textbook (-1)^(number of occupied modes below)
    sign. This is deliberately independent of any qubit encoding.
    """
    dim = 2**n_modes
    out = np.zeros((dim, dim), dtype=complex)
    for ladder, coeff in op.terms.items():
        for ket in range(dim):
            occ = ket
            sign = 1.0
            dead = False
            # rightmost ladder factor acts first
            for mode, creation in reversed(ladder):
                bit = (occ >> mode) & 1
                if creation == (bit == 1):
                    dead = True
                    break
                below = occ & ((1 << mode) - 1)
                if below.bit_count() % 2:
                    sign = -sign
                occ ^= 1 << mode
            if not dead:
                out[occ, ket] += coeff * sign
    return out


def _signs_and_gather(word: PauliWord, k: np.ndarray):
    parity = np.bitwise_count(k & np.uint64(word.z_mask)) & np.uint64(1)
    signs = 1.0 - 2.0 * parity.astype(np.float64)
    gather = k.astype(np.intp) ^ word.x_mask if word.x_mask else None
    return signs, gather


def term_by_term_action(H: PauliSum):
    """H*v as a loop over H's terms, accumulated in order from zero."""
    real_valued = all(w.y_count % 2 == 0 for _, w in sum_terms(H))
    k = np.arange(2**H.n_qubits, dtype=np.uint64)
    compiled = []
    for coeff, word in sum_terms(H):
        phase = (1j**word.y_count) * coeff
        if real_valued:
            phase = phase.real
        compiled.append((phase, *_signs_and_gather(word, k)))

    def action(v: np.ndarray) -> np.ndarray:
        out = np.zeros_like(v)
        for phase, signs, gather in compiled:
            term = signs * v
            if gather is not None:
                term = term[gather]
            out += phase * term
        return out

    return action


def apply_pauli_word(state: np.ndarray, word: PauliWord) -> np.ndarray:
    """P |state> via index XOR and phase lookup; no matrix materialized."""
    signs, gather = _signs_and_gather(word, np.arange(len(state), dtype=np.uint64))
    out = np.array([1, 1j, -1, -1j])[word.y_count % 4] * (signs * state)
    return out if gather is None else out[gather]


def apply_pauli_exponential(state: np.ndarray, word: PauliWord, tau) -> np.ndarray:
    """exp(-i * word * tau) |state>."""
    return np.cos(tau) * state - 1j * np.sin(tau) * apply_pauli_word(state, word)


def per_word_tables(word: PauliWord) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A layer's folded (gather, w, r) tables, read from a PauliWord's
    attributes: the path simulator._word_tables took before it read masks."""
    gather = np.arange(2**word.n_qubits, dtype=np.intp) ^ word.x_mask
    parity = np.bitwise_count(gather.astype(np.uint64) & np.uint64(word.z_mask)) & np.uint64(1)
    signs = 1.0 - 2.0 * parity.astype(np.float64)
    factor = np.array([1, 1j, -1, -1j])[word.y_count % 4]
    return gather, factor * signs, (1j * factor) * signs


def add_layer(ansatz: Ansatz, word: PauliWord, tau: float) -> Ansatz:
    """ansatz.with_layer of a PauliWord's masks."""
    return ansatz.with_layer(word.x_mask, word.z_mask, tau)


def word_ansatz(n_qubits: int, reference_bits, words, parameters) -> Ansatz:
    """An Ansatz on reference_bits with the given PauliWord layers and angles, in order."""
    ansatz = Ansatz(n_qubits, list(reference_bits))
    for word, tau in zip(words, parameters, strict=True):
        ansatz = add_layer(ansatz, word, tau)
    return ansatz


def per_word_energy_and_gradient(ansatz: Ansatz, words, h_action, parameters):
    """The adjoint energy and gradient from the ansatz's reference state,
    every layer rebuilt from its PauliWord in words (the words the ansatz
    was built from, in order; the ansatz keeps only their tables).

    psi and lam are un-rotated one at a time, with one cos and one sin call
    per layer: the arithmetic that simulator.energy_and_gradient, which
    un-rotates both as one stacked array, must reproduce bit for bit.
    """
    params = list(parameters)
    if len(words) != len(params):
        raise SimulatorError("words and parameters length mismatch")
    psi = ansatz.reference_state()
    for word, tau in zip(words, params):
        psi = apply_pauli_exponential(psi, word, tau)
    lam = h_action(psi)
    energy = float(np.real(np.vdot(psi, lam)))
    grads = np.zeros(len(params))
    for k in range(len(params) - 1, -1, -1):
        word, tau = words[k], params[k]
        grads[k] = 2.0 * np.imag(np.vdot(lam, apply_pauli_word(psi, word)))
        psi = apply_pauli_exponential(psi, word, -tau)
        lam = apply_pauli_exponential(lam, word, -tau)
    return energy, grads


def expectation(state: np.ndarray, H: PauliSum) -> float:
    """<state| H |state> as a real number (imaginary residue discarded)."""
    if len(state) != 2**H.n_qubits:
        raise SimulatorError("state length does not match Hamiltonian qubit count")
    action, _ = compile_sum_action(H)
    acc = np.vdot(state, action(state))
    if abs(acc.imag) > 1e-8:
        raise SimulatorError(f"expectation has imaginary residue {acc.imag}")
    return float(acc.real)


def pool_scorer(H: PauliSum, pool: EntanglerPool) -> PoolScorer:
    """A PoolScorer with its own compiled H, as run_adaptive builds one."""
    return PoolScorer(H, pool, compile_sum_action(H)[0])


def evaluate_ansatz(ansatz: Ansatz, H: PauliSum, parameters=None):
    """Energy and final state of the ansatz circuit."""
    state = ansatz.prepare(parameters)
    return expectation(state, H), state


def gradient(ansatz: Ansatz, H: PauliSum, parameters=None) -> np.ndarray:
    """Analytic dE/dtau; see simulator.energy_and_gradient."""
    params = ansatz.parameters if parameters is None else list(parameters)
    action, _ = compile_sum_action(H)
    return energy_and_gradient(ansatz, action, params)[1]


# MPS tensors are (left, phys, right), MPO tensors (left, right, out, in) and
# environments (bra bond, MPO bond, ket bond).


def einsum_left_env(L, A, W):
    return np.einsum("amc,asb,mnst,ctd->bnd", L, A, W, A)


def einsum_right_env(R, A, W):
    return np.einsum("asb,mnst,bnd,ctd->amc", A, W, R, A)


def einsum_mpo_expectation(mps, mpo) -> float:
    env = np.ones((1, 1, 1))
    for A, W in zip(mps.tensors, mpo.tensors):
        env = np.einsum("amb,asc,mnst,btd->cnd", env, A, W, A)
    return float(env[0, 0, 0])


def einsum_heff_matvec(L, W1, W2, R, theta):
    out = np.einsum("cma,astb->cmstb", L, theta)
    out = np.einsum("cmstb,mnus->cnutb", out, W1)
    return np.einsum("cnutb,npvt,dpb->cuvd", out, W2, R)


def einsum_heff_dense(L, W1, W2, R):
    dim = L.shape[0] * 4 * R.shape[0]
    M = np.einsum("cma,mnus,npvt,dpb->cuvdastb", L, W1, W2, R).reshape(dim, dim)
    return 0.5 * (M + M.T)


def einsum_norm(mps) -> float:
    env = np.ones((1, 1))
    for A in mps.tensors:
        env = np.einsum("ab,asc,bsd->cd", env, A, A)
    return float(np.sqrt(env[0, 0]))


def _einsum_canonical_envs(mps):
    mps = mps.left_canonicalize()
    n = mps.n_qubits
    R = [None] * (n + 1)
    R[n] = np.ones((1, 1))
    for k in range(n - 1, -1, -1):
        A = mps.tensors[k]
        R[k] = np.einsum("asb,bc,dsc->ad", A, R[k + 1], A)
    return mps.tensors, R


def einsum_single_density_matrix(mps, q: int) -> np.ndarray:
    ts, R = _einsum_canonical_envs(mps)
    return np.einsum("asb,bc,atc->st", ts[q], R[q + 1], ts[q])


def einsum_pair_density_matrix(mps, i: int, j: int) -> np.ndarray:
    ts, R = _einsum_canonical_envs(mps)
    i, j = min(i, j), max(i, j)
    E = np.einsum("asb,atc->stbc", ts[i], ts[i])
    for k in range(i + 1, j):
        E = np.einsum("stbc,bud,cue->stde", E, ts[k], ts[k])
    rho4 = np.einsum("stbc,bud,de,cve->sutv", E, ts[j], R[j + 1], ts[j])
    return rho4.reshape(4, 4, order="F").astype(complex)


def single_density_matrix(mps, q: int) -> np.ndarray:
    return mps.local_densities().single(q)


def pair_density_matrix(mps, i: int, j: int) -> np.ndarray:
    """2-qubit RDM with index s_i + 2*s_j, by transfer contraction only."""
    return mps.local_densities().pair(i, j)


def per_call_mutual_information(mps) -> np.ndarray:
    """MI entries of an MPSState, each RDM from its own canonical form."""
    n = mps.n_qubits
    singles = [entropy(single_density_matrix(mps, q)) for q in range(n)]
    entries = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            s_ij = entropy(pair_density_matrix(mps, i, j))
            entries[i, j] = entries[j, i] = max(0.5 * (singles[i] + singles[j] - s_ij), 0.0)
    return entries


def mpo_to_dense(mpo) -> np.ndarray:
    """Dense matrix of an MPO; bit q of the index is site q."""
    acc = mpo.tensors[0][0]  # (Dr, 2, 2)
    for W in mpo.tensors[1:]:
        # the new site's physical index becomes the high bit
        acc = np.einsum("bkl,bcij->cikjl", acc, W)
        d = acc.shape[1] * acc.shape[2]
        acc = acc.reshape(acc.shape[0], d, d)
    return acc[0]


def mps_to_statevector(mps) -> np.ndarray:
    T = np.ones((1, 1))
    dim = 1
    for A in mps.tensors:
        T = np.einsum("pb,bsc->spc", T, A).reshape(2 * dim, A.shape[2])
        dim *= 2
    return T[:, 0].astype(complex)


def score_entangler(state: np.ndarray, H: PauliSum, word: PauliWord) -> tuple[float, float]:
    """(descent, tau*) of one entangler trial via the exact sinusoid fit.

    Three evaluations pin E(tau) = A + B cos 2tau + C sin 2tau:
    A = (E(pi/4) + E(-pi/4)) / 2, C = (E(pi/4) - E(-pi/4)) / 2, B = E(0) - A.
    """
    e0 = expectation(state, H)
    e_plus = expectation(apply_pauli_exponential(state, word, np.pi / 4), H)
    e_minus = expectation(apply_pauli_exponential(state, word, -np.pi / 4), H)
    a = 0.5 * (e_plus + e_minus)
    c = 0.5 * (e_plus - e_minus)
    b = e0 - a
    minimum = a - np.hypot(b, c)
    return e0 - minimum, _tau_minimum(b, c)


def fwht_radix2(a: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard transform along the last axis, one in-place radix-2
    level at a time (h = 1, 2, 4, ...): each output is the same chain of
    additions as in adaptive._fwht, which runs along the first axis."""
    out = np.array(a, dtype=np.float64)
    size = out.shape[-1]
    h = 1
    while h < size:
        v = out.reshape(*out.shape[:-1], size // (2 * h), 2, h)
        lo = v[..., 0, :].copy()
        hi = v[..., 1, :]
        v[..., 0, :] += hi
        np.subtract(lo, hi, out=hi)
        h *= 2
    return out


def term_sum_scores(scorer: PoolScorer, state: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(descents, taus) of the scorer's whole pool by its exact term sum."""
    T, f = scorer._word_table(scorer._real(state))
    return scorer._term_sum(T, f, np.arange(len(scorer.px)))


def gather_index_scores(
    scorer: PoolScorer, state: np.ndarray, strength_table: np.ndarray, descent_fraction: float
) -> tuple[np.ndarray, np.ndarray, float]:
    """PoolScorer.scores built on a 2^n x 2^n gather index k ^ x.

    s[k ^ x] and sigma[k ^ x] are read through that index, word indices are
    intp, C's sign is a +-1.0 factor, the sign matrix is built from bit
    parities, the 4^n transforms run over whole tables, and every word's
    strength is gathered from the table up front; the refine reuses the
    scorer's own term sum.
    """
    k = np.arange(1 << scorer.n)
    kx = k[:, None] ^ k[None, :]
    ku = k.astype(np.uint64)
    signs = 1.0 - 2.0 * (
        np.bitwise_count(ku[:, None] & ku[None, :]) & np.uint64(1)
    ).astype(np.float64)
    s = scorer._real(state)
    T = (s[kx] * s[None, :]) @ signs
    term_signs = np.where(scorer.ty % 4 == 0, 1.0, -1.0)
    f = scorer.coeffs * (term_signs * T[scorer.tx.astype(np.intp), scorer.tz.astype(np.intp)])
    e0 = float(f.sum())
    shift = np.uint64(scorer.n)
    word_xz = ((scorer.px << shift) | scorer.pz).astype(np.intp)
    word_zx = ((scorer.pz << shift) | scorer.px).astype(np.intp)
    py = np.bitwise_count(scorer.px & scorer.pz).astype(np.int64)
    F = np.zeros((len(k), len(k)))
    F.ravel()[scorer._term_slot] = f
    G = _fwht(np.ascontiguousarray(_fwht(F).T))
    b = 0.5 * (e0 - G.ravel()[word_xz])
    sigma = scorer._h_action(s)
    T_sigma = _fwht(sigma[kx] * s[:, None])
    c = np.where(py % 4 == 1, 1.0, -1.0) * T_sigma.ravel()[word_zx]
    descents = b + np.hypot(b, c)
    taus = _tau_minimum(b, c)

    band = 2.0 * scorer.slack
    strengths = np.asarray(strength_table, dtype=float)[scorer.px | scorer.pz]

    def refine(mask):
        idx = np.flatnonzero(mask)
        descents[idx], taus[idx] = scorer._term_sum(T, f, idx)

    top = descents.max()
    refine((descents >= top - band) | (np.abs(descents - descent_fraction * top) <= band))
    top = descents.max()
    if top > 0.0:
        acceptable = descents >= descent_fraction * top
        group = acceptable & (strengths == strengths[acceptable].max())
        refine(group & (descents >= descents[group].max() - band))
    return descents, taus, e0


def tiled_pool_masks(n_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """(x, z) of the odd-Y pool, filtered out of all 4^n (x, z) pairs."""
    size = 1 << n_qubits
    z = np.repeat(np.arange(size, dtype=np.uint64), size)
    x = np.tile(np.arange(size, dtype=np.uint64), size)
    odd = (np.bitwise_count(x & z) & np.uint64(1)).astype(bool)
    return x[odd], z[odd]


def screen_after_build(n_qubits: int, table: np.ndarray, p_cut: float) -> EntanglerPool:
    """The screened pool built then filtered: the whole pool, one kept flag
    per word gathered from the percentile table, and the kept words copied
    out. generate_pool(n, *screen_pool(table, p_cut)) must match it bit for bit."""
    pool = generate_pool(n_qubits)
    kept = (percentile_of_strengths(table, table) <= p_cut)[pool.x | pool.z]
    if not kept.any():
        raise ScreeningError(f"screening at p_cut={p_cut} leaves an empty pool")
    return EntanglerPool(n_qubits, pool.x[kept], pool.z[kept], f"screened(p_cut={p_cut:.12g})")


def support_strength(entries: np.ndarray, support: list[int]) -> float:
    """Average MI over the qubit pairs of support; 0 with fewer than two qubits."""
    L = len(support)
    if L < 2:
        return 0.0
    total = 0.0
    for a in range(L):
        for b in range(a + 1, L):
            total += entries[support[a], support[b]]
    return 2.0 * total / (L * (L - 1))


def per_mask_support_strengths(n_qubits: int, mi) -> np.ndarray:
    """support_strengths as one support_strength call per mask."""
    entries = _mi_entries(mi)
    return np.array(
        [
            support_strength(entries, [q for q in range(n_qubits) if (mask >> q) & 1])
            for mask in range(1 << n_qubits)
        ]
    )


def correlation_strength(word: PauliWord, mi) -> float:
    """Average MI over ordered qubit pairs in the word's support.

    Single-qubit words have no pairs; their strength is defined as 0 so they
    rank last.
    """
    entries = _mi_entries(mi)
    support = [q for q in range(word.n_qubits) if (word.support >> q) & 1]
    if max(support, default=-1) >= entries.shape[0]:
        raise ScreeningError("word support outside MI matrix range")
    return support_strength(entries, support)


def commutes(a: PauliWord, b: PauliWord) -> bool:
    """True iff a*b = b*a (symplectic product has even parity)."""
    check_same_size(a, b)
    anti = (a.x_mask & b.z_mask).bit_count() + (a.z_mask & b.x_mask).bit_count()
    return anti % 2 == 0


def is_identity(word: PauliWord) -> bool:
    return word.x_mask == 0 and word.z_mask == 0


def sort_key(word: PauliWord) -> tuple[int, int]:
    """The canonical (z_mask, x_mask) order of PauliSum terms and of the pool."""
    return (word.z_mask, word.x_mask)


def per_word_percentiles(strengths, baseline_strengths) -> np.ndarray:
    """percentile(c) = |{baseline word strengths >= c}| / |baseline|, ties inclusive.

    The count over one strength per baseline word that the support-table
    percentile_of_strengths must reproduce bit for bit.
    """
    baseline = np.sort(np.asarray(baseline_strengths, dtype=float), kind="stable")
    at_least = len(baseline) - np.searchsorted(baseline, strengths, side="left")
    return at_least / len(baseline)


def conjugate_sum(H: PauliSum, P: PauliWord) -> PauliSum:
    """P H P for a Pauli word P: flips the sign of terms anticommuting with P."""
    if H.n_qubits != P.n_qubits:
        raise PauliError("qubit-count mismatch between sum and word")
    return pauli_sum(H.n_qubits, [(c if commutes(w, P) else -c, w) for c, w in sum_terms(H)])


def adjoint_is_hermitian(op: FermionOperator) -> bool:
    """Whether op equals its adjoint operator within 1e-10, string by string."""
    adj = op.adjoint().terms
    keys = set(op.terms) | set(adj)
    return all(abs(op.terms.get(k, 0.0) - adj.get(k, 0.0)) <= 1e-10 for k in keys)


def dict_encode(op: FermionOperator, mapping: str, n_modes: int) -> PauliSum:
    """encode as Python dicts: each ladder string multiplied out one factor
    at a time with mask_product, merging a string's colliding words in
    first-occurrence order at every factor, then every word's contributions
    added from 0.0 in op.terms order; the order of additions the array
    encoder must keep bit for bit."""
    if not adjoint_is_hermitian(op):
        raise EncodingError("refusing to encode a non-Hermitian operator")
    n_used = 1 + max((mode for ladder in op.terms for mode, _ in ladder), default=-1)
    if n_used > n_modes:
        raise EncodingError(f"mode {n_used - 1} is beyond the {n_modes}-mode register")

    coeffs, xs, zs = _ladder_factors(mapping, n_modes)
    factors = {
        (mode, creation): tuple(
            (complex(coeffs[row, w]), int(xs[row, w]), int(zs[row, w])) for w in (0, 1)
        )
        for mode in range(n_modes)
        for creation in (False, True)
        for row in [2 * mode + creation]
    }
    acc: dict[tuple[int, int], complex] = {}
    for ladder, coeff in op.terms.items():
        term: dict[tuple[int, int], complex] = {(0, 0): complex(coeff)}
        for mode_op in ladder:
            product: dict[tuple[int, int], complex] = {}
            for (xa, za), ca in term.items():
                for cb, xb, zb in factors[mode_op]:
                    phase, x, z = mask_product(xa, za, xb, zb)
                    product[x, z] = product.get((x, z), 0.0) + ca * cb * (1j**phase)
            term = product
        for key, c in term.items():
            acc[key] = acc.get(key, 0.0) + c

    masks = np.array(list(acc), dtype=np.uint64).reshape(-1, 2)
    values = np.array(list(acc.values()), dtype=complex)
    bad = np.flatnonzero(np.abs(values.imag) > 1e-9)
    if len(bad):
        raise EncodingError(
            f"non-real coefficient {values[bad[0]]} survived encoding a Hermitian operator"
        )
    return PauliSum(n_modes, values.real, masks[:, 0], masks[:, 1])


def number_operator(n_modes: int) -> FermionOperator:
    return FermionOperator({((m, True), (m, False)): 1.0 for m in range(n_modes)})


def pool_index(pool: EntanglerPool, word: PauliWord) -> int:
    """Position of word in the pool; ScreeningError if it is absent."""
    hits = np.flatnonzero((pool.x == np.uint64(word.x_mask)) & (pool.z == np.uint64(word.z_mask)))
    if not len(hits):
        raise ScreeningError(f"word {format_pauli_factors(word)!r} is not in the pool")
    return int(hits[0])


def pool_from_text(text: str, provenance: str = "imported") -> EntanglerPool:
    """Parse EntanglerPool.to_text output: a 'qubits: <n>' header, one odd-Y word a line."""
    n_qubits = None
    words = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.lower().startswith("qubits:"):
            try:
                n_qubits = int(line.split(":", 1)[1])
            except ValueError:
                raise ScreeningError(f"invalid qubits header {line!r}") from None
            if not 1 <= n_qubits <= POOL_MAX_QUBITS:
                raise ScreeningError(
                    f"pool masks hold 1 to {POOL_MAX_QUBITS} qubits, got {n_qubits}"
                )
            continue
        if n_qubits is None:
            raise ScreeningError("missing 'qubits: <n>' header")
        word = PauliWord(n_qubits, *parse_pauli_factors(line, n_qubits))
        if word.y_count % 2 == 0:
            raise ScreeningError(f"pool word {line!r} has an even Y count")
        words.append(word)
    if n_qubits is None:
        raise ScreeningError("missing 'qubits: <n>' header")
    if len(set(words)) != len(words):
        raise ScreeningError("pool contains duplicate words")
    return pool_from_words(n_qubits, words, provenance)


def format_fcidump(ints: MolecularIntegrals, threshold: float = 0.0) -> str:
    """Write integrals back out as FCIDUMP text (unique elements only)."""
    n = ints.n_orbitals
    lines = [f"&FCI NORB={n},NELEC={ints.n_electrons},MS2={ints.ms2},", " /"]
    for i in range(n):
        for j in range(i + 1):
            for k in range(i + 1):
                lmax = j + 1 if k == i else k + 1
                for l in range(lmax):
                    v = ints.two_body[i, j, k, l]
                    if abs(v) > threshold:
                        lines.append(f"{v:.16e} {i + 1} {j + 1} {k + 1} {l + 1}")
    for i in range(n):
        for j in range(i + 1):
            v = ints.one_body[i, j]
            if abs(v) > threshold:
                lines.append(f"{v:.16e} {i + 1} {j + 1} 0 0")
    lines.append(f"{ints.core_energy:.16e} 0 0 0 0")
    return "\n".join(lines) + "\n"


def max_bond(mps) -> int:
    """Largest bond dimension of an MPSState (1 for a single site)."""
    return max(mps.bond_dimensions(), default=1)
