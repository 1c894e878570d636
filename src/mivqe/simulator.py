"""Dense statevector engine.

States are numpy complex vectors of length 2^n with qubit q on bit q of the
basis index. A Pauli word never becomes a matrix: its action is an index XOR
with a sign/phase lookup computed from the (x, z) masks, and exponentials use
exp(-i P t) = cos(t) I - i sin(t) P since P^2 = I.

Both are compiled for repeated use, without changing a single float
operation: compile_sum_action turns a PauliSum into one pair of
(terms x 2^n) gather and phase-sign tables, and Ansatz.compile keeps each
layer's (i^y factor, signs, gather) for the many energy-and-gradient
evaluations of one reoptimization.
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


def _word_tables(word: PauliWord) -> tuple[complex, np.ndarray, np.ndarray | None]:
    """(i^y factor, signs, gather) of a Pauli word: P v = factor (signs v)[gather].

    signs[k] = (-1)^{|k & z|}; the gather k -> k ^ x is None for a diagonal
    word (x = 0).
    """
    dim = 2**word.n_qubits
    k = np.arange(dim, dtype=np.uint64)
    parity = np.bitwise_count(k & np.uint64(word.z_mask)) & np.uint64(1)
    signs = 1.0 - 2.0 * parity.astype(np.float64)
    gather = np.arange(dim, dtype=np.intp) ^ word.x_mask if word.x_mask else None
    return _I_POW[word.y_count % 4], signs, gather


def _apply_tables(state: np.ndarray, tables) -> np.ndarray:
    factor, signs, gather = tables
    out = factor * (signs * state)
    return out if gather is None else out[gather]


def _rotate(state: np.ndarray, tables, tau: float) -> np.ndarray:
    return np.cos(tau) * state - 1j * np.sin(tau) * _apply_tables(state, tables)


def expectation(state: np.ndarray, H: PauliSum) -> float:
    """<state| H |state> as a real number (imaginary residue discarded)."""
    if len(state) != 2**H.n_qubits:
        raise SimulatorError("state length does not match Hamiltonian qubit count")
    action, _ = compile_sum_action(H)
    acc = np.vdot(state, action(state))
    if abs(acc.imag) > 1e-8:
        raise SimulatorError(f"expectation has imaginary residue {acc.imag}")
    return float(acc.real)


# Table entries (terms x columns) per block of the compiled H action.
_BLOCK_ENTRIES = 1 << 15


def compile_sum_action(H: PauliSum):
    """Compile H into gather and phase-sign tables for repeated H*v products.

    This is the one place a PauliSum acts on a state: Lanczos, expectation,
    the pool scorer's sigma = H s and the adjoint gradient all use it. With
    term t = c_t P_t, G[t, k] = k ^ x_t and
    PS[t, k] = c_t i^{y_t} (-1)^{|G[t, k] & z_t|}, so (H v)[k] is the sum
    over t of PS[t, k] v[G[t, k]]. The sum runs over power-of-two column
    blocks of at least two columns: numpy then adds the rows of a block in
    H.terms order, starting from 0, exactly as a term-by-term loop does
    (a lone column would be summed pairwise). That order is part of the
    run's float behaviour and stays fixed.

    Returns (action, real_valued): action works on real or complex vectors;
    real_valued reports whether every term has an even Y count, i.e. the
    matrix is real in the computational basis (PS is then float64).
    """
    dim = 2**H.n_qubits
    real_valued = all(w.y_count % 2 == 0 for _, w in H.terms)
    phase = np.array([(1j**w.y_count) * c for c, w in H.terms], dtype=complex)
    if real_valued:
        phase = phase.real
    x = np.array([w.x_mask for _, w in H.terms], dtype=np.int32)
    z = np.array([w.z_mask for _, w in H.terms], dtype=np.int32)
    width = 2
    while 2 * width <= dim and 2 * width * len(phase) <= _BLOCK_ENTRIES:
        width *= 2
    # (blocks, terms, width): every block is one contiguous table
    G = np.arange(dim, dtype=np.int32).reshape(-1, 1, width) ^ x[:, None]
    # a select, not phase * (1 - 2 parity): no float temporaries of the
    # table's size, which would set the peak memory of small runs
    PS = np.where(np.bitwise_count(G & z[:, None]) & 1, -phase[:, None], phase[:, None])

    def action(v: np.ndarray) -> np.ndarray:
        out = np.empty(dim, dtype=np.result_type(PS, v))
        for g, ps, block in zip(G, PS, out.reshape(-1, width)):
            np.sum(ps * v[g], axis=0, out=block)
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

    def compile(self) -> "CompiledAnsatz":
        return CompiledAnsatz(
            self.reference_state(), tuple(_word_tables(w) for w in self.words)
        )

    def prepare(self, parameters=None) -> np.ndarray:
        params = self.parameters if parameters is None else list(parameters)
        if len(params) != len(self.words):
            raise SimulatorError("parameter count mismatch")
        return self.compile().prepare(params)


@dataclass(frozen=True)
class CompiledAnsatz:
    """An ansatz's reference state and per-layer word tables, built once for
    the many evaluations of one optimization."""

    reference: np.ndarray
    layers: tuple

    def prepare(self, parameters) -> np.ndarray:
        state = self.reference
        for tables, tau in zip(self.layers, parameters):
            state = _rotate(state, tables, tau)
        return state


def energy_and_gradient(
    ansatz: CompiledAnsatz, h_action, parameters
) -> tuple[float, np.ndarray]:
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
        tables, tau = ansatz.layers[k], params[k]
        grads[k] = 2.0 * np.imag(np.vdot(lam, _apply_tables(psi, tables)))
        psi = _rotate(psi, tables, -tau)
        lam = _rotate(lam, tables, -tau)
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
