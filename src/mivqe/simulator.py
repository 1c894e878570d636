"""Dense statevector engine.

States are numpy complex vectors of length 2^n with qubit q on bit q of the
basis index. A Pauli word never becomes a matrix: its action is an index XOR
with a sign/phase lookup computed from the (x, z) masks, and exponentials use
exp(-i P t) = cos(t) I - i sin(t) P since P^2 = I.

Both are built once for repeated use, without changing a single float
operation: compile_sum_action turns a PauliSum into one CSR matrix that
keeps every term's entry apart, in term order, so each product adds the
terms as a term-by-term loop does; an Ansatz folds each layer's i^y factor
and signs into two complex tables on the gathered index when the layer is
added, and keeps them for every later state preparation and
energy-and-gradient evaluation.

merged_sum_matrix builds the same H from the same entry rule with the
entries that share a column added first: one entry per row and distinct X
mask, so a product costs several times less, with other roundings. Only
the stationary-sector check's ground energy uses it: its 1e-9 comparison
needs no fixed bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.sparse import csr_array

from .pauli import PauliSum

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


def _word_tables(n_qubits: int, x: int, z: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(gather, w, r) of the Pauli word (x, z), folded: P v = w * v[gather]
    and -i P v = r * v[gather].

    With signs[k] = (-1)^{|k & z|}, w = i^y signs[gather] and
    r = (1j i^y) signs[gather]; the gather is k -> k ^ x, the identity for
    a diagonal word (x = 0). Every folded factor is +-1 or +-i, so
    w * v[gather] has the nonzero bits of i^y (signs v)[gather], and
    sin * r * v[gather] those of 1j sin i^y (signs v)[gather]; only the
    signs of zero parts may differ, and neither an H product nor a vdot
    lets those reach a nonzero result. Both tables are complex: a real
    times complex array product runs a mixed-type loop that costs more than
    the complex one.
    """
    gather = np.arange(2**n_qubits, dtype=np.intp) ^ x
    parity = np.bitwise_count(gather.astype(np.uint64) & np.uint64(z)) & np.uint64(1)
    signs = 1.0 - 2.0 * parity.astype(np.float64)
    factor = _I_POW[(x & z).bit_count() % 4]
    return gather, factor * signs, (1j * factor) * signs


# Largest len(H) * 2^n a compiled H action may store, and the merged matrix
# may build before it merges: 2^27 entries, 1.5 GiB for a real H at 12 B per
# entry (int32 column, float64 value). The bound also keeps every CSR index
# within int32.
MAX_ACTION_ENTRIES = 1 << 27


def action_entries(H: PauliSum) -> int:
    """Entries the compiled action of H stores: one per term and basis state."""
    return len(H) * 2**H.n_qubits


def _check_entries(H: PauliSum) -> None:
    entries = action_entries(H)
    if entries > MAX_ACTION_ENTRIES:
        raise SimulatorError(
            f"compiled H action needs {entries} entries, above the "
            f"{MAX_ACTION_ENTRIES}-entry limit"
        )


def _term_entries(H: PauliSum, order=slice(None)) -> tuple[np.ndarray, np.ndarray]:
    """(columns, values) of H's entries, each of shape (2^n, terms), with the
    terms in the given order (H's term order by default).

    Term t = c_t P_t has entry (k, t) at column k ^ x_t with value
    c_t i^{y_t} (-1)^{|(k ^ x_t) & z_t|}. The values are float64 when every
    term has an even Y count, i.e. H is real in the computational basis, and
    complex128 otherwise.
    """
    y = H.y[order]
    phase = _I_POW[y % 4] * H.coeffs[order]
    if not (y % 2).any():
        phase = phase.real
    # (dim, terms) in row-major order: row k's entries in the terms' order
    columns = np.arange(2**H.n_qubits, dtype=np.int32)[:, None] ^ H.x[order].astype(np.int32)
    # a select, not phase * (1 - 2 parity): no float temporaries of the
    # matrix's size, which would set the peak memory of small runs
    values = np.where(np.bitwise_count(columns & H.z[order].astype(np.int32)) & 1, -phase, phase)
    return columns, values


def _csr(columns: np.ndarray, values: np.ndarray) -> csr_array:
    """The square CSR matrix whose row k holds row k of columns and values."""
    dim, per_row = columns.shape
    indptr = np.arange(0, dim * per_row + 1, per_row, dtype=np.int32)
    return csr_array((values.ravel(), columns.ravel(), indptr), shape=(dim, dim))


def compile_sum_action(H: PauliSum):
    """Compile H into one unmerged CSR matrix for repeated H*v products.

    This is the one place a PauliSum acts on a state in an adaptive run:
    Lanczos, the HF energy, the pool scorer's sigma = H s and the adjoint
    gradient all use it. Row k stores len(H) entries in H's term order, by
    _term_entries' rule. Entries that share a column are not merged and the
    row is not sorted, so scipy's CSR product starts each row at 0.0 and adds
    one rounded product per term, in term order, exactly as a term-by-term
    loop does. That order is part of the run's float behaviour and stays
    fixed: merged_sum_matrix would move H v by a few ulp.

    Returns (action, real_valued): action works on real or complex vectors;
    real_valued reports whether every term has an even Y count, i.e. the
    matrix is real in the computational basis (its values are then float64,
    and a complex vector's real and imaginary parts are multiplied
    separately, which is what the term loop's products amount to; an
    all-zero imaginary part gives +0.0 without a product).
    Raises SimulatorError above MAX_ACTION_ENTRIES, before any allocation.
    """
    _check_entries(H)
    dim = 2**H.n_qubits
    matrix = _csr(*_term_entries(H))
    real_valued = matrix.dtype == np.float64

    def action(v: np.ndarray) -> np.ndarray:
        if real_valued and np.iscomplexobj(v):
            out = np.zeros(dim, dtype=complex)
            out.real = matrix @ v.real
            # A real state held as complex (what odd-Y layers leave) has an
            # all-zero imaginary part. Its product is +0.0 in every entry,
            # also for -0.0 inputs: the row sum starts at +0.0 and adds only
            # signed zeros. So the second product is skipped, bit for bit.
            if v.imag.any():
                out.imag = matrix @ v.imag
            return out
        return matrix @ v

    return action, real_valued


def merged_sum_matrix(H: PauliSum) -> csr_array:
    """H as a CSR matrix with one entry per row and distinct X mask.

    Row k holds, for each distinct x_g among H's terms, one entry at column
    k ^ x_g with value sum_{t: x_t = x_g} c_t i^{y_t} (-1)^{|(k ^ x_g) & z_t|}
    (entries whose terms cancel stay stored as zeros). The values are float64
    for an even-Y H and complex128 otherwise. The terms are sorted stably by
    x and each group's entries are added by np.add.reduceat, so a product
    costs one entry per distinct x instead of one per term, but rounds
    differently from compile_sum_action's term-order sums; only a caller
    whose result reaches no recorded bit uses it.
    Raises SimulatorError above MAX_ACTION_ENTRIES, before any allocation:
    the unmerged entries are built first.
    """
    _check_entries(H)
    order = np.argsort(H.x, kind="stable")
    x = H.x[order]
    starts = np.flatnonzero(np.r_[True, x[1:] != x[:-1]])
    columns, values = _term_entries(H, order)
    return _csr(columns[:, starts], np.add.reduceat(values, starts, axis=1))


@dataclass(eq=False)
class Ansatz:
    """Ordered product of Pauli-word exponentials applied to a basis reference.

    Layer i is applied first; parameters are the rotation angles tau. layers
    holds each word's folded (gather, w, r) tables, built once from the
    word's (x, z) masks when it joins: with_layer builds only the new
    word's tables and with_parameters builds none, so an adaptive run
    builds one table set per adopted word. The tables are all the ansatz
    keeps of its words.
    """

    n_qubits: int
    reference_bits: list[int]
    parameters: list[float] = field(default_factory=list)
    layers: tuple = field(default=(), repr=False)

    def __post_init__(self):
        if len(self.layers) != len(self.parameters):
            raise SimulatorError("layers and parameters length mismatch")
        self._reference = self.reference_state()

    def __len__(self) -> int:
        return len(self.layers)

    def with_layer(self, x: int, z: int, tau: float) -> "Ansatz":
        """This ansatz with the word (x, z) appended as its last layer, at angle tau."""
        return replace(
            self,
            parameters=self.parameters + [tau],
            layers=self.layers + (_word_tables(self.n_qubits, x, z),),
        )

    def with_parameters(self, parameters) -> "Ansatz":
        return replace(self, parameters=list(parameters))

    def reference_state(self) -> np.ndarray:
        return basis_state(self.n_qubits, self.reference_bits)

    def prepare(self, parameters=None) -> np.ndarray:
        params = self.parameters if parameters is None else parameters
        if len(params) != len(self.layers):
            raise SimulatorError("parameter count mismatch")
        taus = np.asarray(params, dtype=float)
        state = self._reference
        for (gather, _, r), cos, sin in zip(self.layers, np.cos(taus), np.sin(taus)):
            state = cos * state - (sin * r) * state.take(gather)
        return state


def energy_and_gradient(
    ansatz: Ansatz, h_action, parameters
) -> tuple[float, np.ndarray]:
    """E(params) and dE/dtau by one forward and one reverse sweep (adjoint method).

    h_action is the compiled H product from compile_sum_action. With psi_k
    the state after layer k and lam_k = (U_{k+1..N})^dag H psi_N,
    dE/dtau_k = 2 Im <lam_k| P_k |psi_k>. Cost is O(layers * 2^n * terms),
    not quadratic in the layer count. The reverse sweep un-rotates psi and
    lam as the two rows of one C-contiguous array, so each layer costs one
    gather, one P product for the gradient and one rotation; every entry
    gets the float operations of rotating the two states one at a time.
    """
    taus = np.array(parameters, dtype=float)
    psi = ansatz.prepare(taus)
    lam = h_action(psi)
    energy = float(np.vdot(psi, lam).real)
    grads = np.zeros(len(taus))
    pair = np.empty((2, len(psi)), dtype=complex)
    pair[0], pair[1] = psi, lam
    cosines, sines = np.cos(-taus), np.sin(-taus)
    for k in range(len(taus) - 1, -1, -1):
        gather, w, r = ansatz.layers[k]
        # ndarray.take along the last axis keeps each row C-contiguous;
        # fancy indexing would not, and np.vdot then sums such a row in
        # another order (a gradient entry moved from 5.123975187357405e-05
        # to 5.123975187356437e-05)
        moved = pair.take(gather, axis=1)
        grads[k] = 2.0 * np.vdot(pair[1], w * moved[0]).imag
        if k:
            pair = cosines[k] * pair - (sines[k] * r) * moved
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
