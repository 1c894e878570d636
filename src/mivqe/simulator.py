"""Dense statevector engine.

States are numpy complex vectors of length 2^n with qubit q on bit q of the
basis index. A Pauli word never becomes a matrix: its action is an index XOR
with a sign/phase lookup computed from the (x, z) masks, and exponentials use
exp(-i P t) = cos(t) I - i sin(t) P since P^2 = I.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .pauli import PauliSum, PauliWord

_I_POW = np.array([1, 1j, -1, -1j])


class SimulatorError(ValueError):
    pass


def basis_state(n_qubits: int, bits) -> np.ndarray:
    """Computational-basis state |bits>, bit q of the index = bits[q]."""
    bits = list(bits)
    if len(bits) != n_qubits:
        raise SimulatorError("bit count differs from qubit count")
    index = sum((1 << q) for q, b in enumerate(bits) if b)
    state = np.zeros(2**n_qubits, dtype=complex)
    state[index] = 1.0
    return state


def _signs_and_gather(word: PauliWord) -> tuple[np.ndarray, np.ndarray | None]:
    """(-1)^{|k & z|} for every basis index k, and the gather k -> k ^ x.

    The gather is None for a diagonal word (x = 0).
    """
    dim = 2**word.n_qubits
    k = np.arange(dim, dtype=np.uint64)
    parity = np.bitwise_count(k & np.uint64(word.z_mask)) & np.uint64(1)
    signs = 1.0 - 2.0 * parity.astype(np.float64)
    gather = np.arange(dim, dtype=np.intp) ^ word.x_mask if word.x_mask else None
    return signs, gather


def apply_pauli_word(state: np.ndarray, word: PauliWord) -> np.ndarray:
    """P |state> via index XOR and phase lookup; no matrix materialized."""
    signs, gather = _signs_and_gather(word)
    out = _I_POW[word.y_count % 4] * (signs * state)
    return out if gather is None else out[gather]


def apply_pauli_exponential(state: np.ndarray, word: PauliWord, tau: float) -> np.ndarray:
    """exp(-i * word * tau) |state>."""
    return np.cos(tau) * state - 1j * np.sin(tau) * apply_pauli_word(state, word)


def expectation(state: np.ndarray, H: PauliSum) -> float:
    """<state| H |state> as a real number (imaginary residue discarded)."""
    if len(state) != 2**H.n_qubits:
        raise SimulatorError("state length does not match Hamiltonian qubit count")
    action, _ = compile_sum_action(H)
    acc = np.vdot(state, action(state))
    if abs(acc.imag) > 1e-8:
        raise SimulatorError(f"expectation has imaginary residue {acc.imag}")
    return float(acc.real)


def compile_sum_action(H: PauliSum):
    """Precompute per-term sign vectors and gathers for repeated H*v products.

    This is the one place a PauliSum acts on a state: Lanczos, expectation
    and the adjoint gradient all use it. Terms accumulate in H.terms order;
    that order is part of the run's float behaviour and stays fixed.

    Returns (action, real_valued): action works on real or complex vectors;
    real_valued reports whether every term has an even Y count, i.e. the
    matrix is real in the computational basis.
    """
    real_valued = all(w.y_count % 2 == 0 for _, w in H.terms)
    compiled = []
    for coeff, word in H.terms:
        phase = (1j**word.y_count) * coeff
        if real_valued:
            phase = phase.real
        compiled.append((phase, *_signs_and_gather(word)))

    def action(v: np.ndarray) -> np.ndarray:
        out = np.zeros_like(v)
        for phase, signs, gather in compiled:
            term = signs * v
            if gather is not None:
                term = term[gather]
            out += phase * term
        return out

    return action, real_valued


@dataclass
class Ansatz:
    """Ordered product of Pauli-word exponentials applied to a basis reference.

    Layer i is applied first; parameters are the rotation angles tau.
    """

    n_qubits: int
    reference_bits: list[int]
    words: list[PauliWord] = field(default_factory=list)
    parameters: list[float] = field(default_factory=list)

    def __post_init__(self):
        if len(self.words) != len(self.parameters):
            raise SimulatorError("words and parameters length mismatch")

    def __len__(self) -> int:
        return len(self.words)

    def with_layer(self, word: PauliWord, tau: float) -> "Ansatz":
        return Ansatz(
            self.n_qubits,
            list(self.reference_bits),
            self.words + [word],
            self.parameters + [tau],
        )

    def reference_state(self) -> np.ndarray:
        return basis_state(self.n_qubits, self.reference_bits)

    def prepare(self, parameters=None) -> np.ndarray:
        params = self.parameters if parameters is None else list(parameters)
        if len(params) != len(self.words):
            raise SimulatorError("parameter count mismatch")
        state = self.reference_state()
        for word, tau in zip(self.words, params):
            state = apply_pauli_exponential(state, word, tau)
        return state


def evaluate_ansatz(ansatz: Ansatz, H: PauliSum, parameters=None):
    """Energy and final state of the ansatz circuit."""
    state = ansatz.prepare(parameters)
    return expectation(state, H), state


def gradient(ansatz: Ansatz, H: PauliSum, parameters=None) -> np.ndarray:
    """Analytic dE/dtau; see energy_and_gradient."""
    params = ansatz.parameters if parameters is None else list(parameters)
    action, _ = compile_sum_action(H)
    return energy_and_gradient(ansatz, action, params)[1]


def energy_and_gradient(ansatz: Ansatz, h_action, parameters) -> tuple[float, np.ndarray]:
    """E(params) and dE/dtau by one forward and one reverse sweep (adjoint method).

    h_action is the compiled H product from compile_sum_action. With psi_k
    the state after layer k and lam_k = (U_{k+1..N})^dag H psi_N,
    dE/dtau_k = 2 Im <lam_k| P_k |psi_k>. Cost is O(layers * 2^n * terms),
    not quadratic in the layer count.
    """
    params = list(parameters)
    psi = ansatz.prepare(params)
    lam = h_action(psi)
    energy = float(np.real(np.vdot(psi, lam)))
    grads = np.zeros(len(params))
    for k in range(len(params) - 1, -1, -1):
        word, tau = ansatz.words[k], params[k]
        grads[k] = 2.0 * np.imag(np.vdot(lam, apply_pauli_word(psi, word)))
        psi = apply_pauli_exponential(psi, word, -tau)
        lam = apply_pauli_exponential(lam, word, -tau)
    return energy, grads


def rdm(state: np.ndarray, qubits) -> np.ndarray:
    """1- or 2-qubit reduced density matrix by partial trace.

    For a pair (i, j) the row/column index is b_i + 2*b_j: qubit order in the
    subsystem follows the order given, lowest bit first.
    """
    qubits = list(qubits)
    n = int(np.log2(len(state)))
    if len(qubits) not in (1, 2):
        raise SimulatorError("only 1- and 2-qubit reduced density matrices supported")
    if len(set(qubits)) != len(qubits):
        raise SimulatorError("duplicate qubit in subset")
    if any(q < 0 or q >= n for q in qubits):
        raise SimulatorError("qubit index out of range")
    psi = state.reshape([2] * n)
    # numpy axis 0 is the most significant bit, i.e. qubit n-1
    axes_keep = [n - 1 - q for q in qubits]
    axes_rest = [ax for ax in range(n) if ax not in axes_keep]
    # order kept axes so the first requested qubit is the fastest index
    perm = axes_rest + list(reversed(axes_keep))
    psi = np.transpose(psi, perm)
    d = 2 ** len(qubits)
    psi = psi.reshape(-1, d)
    return psi.T @ psi.conj()
