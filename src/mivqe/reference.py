"""Classically approximated ground states and qubit-pair mutual information.

The exact backend is a Lanczos eigensolver with full reorthogonalization whose
matrix-vector product is the compiled PauliSum action (no dense matrix). Its
state fixes the MI, so its float operations stay fixed. A check that needs
only an energy uses ARPACK's Lanczos on the merged H matrix instead (one
entry per row and distinct X mask), which is faster but whose bits differ by
a few ulp and may vary with the scipy build. Mutual information is
I_ij = (S_i + S_j - S_ij) / 2 in bits, so a maximally entangled pair scores
exactly 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from .pauli import PauliSum
from .simulator import compile_sum_action, merged_sum_matrix, rdm

ENTROPY_EIGENVALUE_FLOOR = 1e-12

# Largest register the exact backend accepts.
EXACT_MAX_QUBITS = 16

# Eigenpair residual ||H x - E x|| below which a solver's answer is accepted.
RESIDUAL_TOL = 1e-9
# Lanczos iterations exact_ground_state runs, over all restarts, before it
# gives up.
LANCZOS_MAX_ITERATIONS = 2000


class ReferenceError(RuntimeError):
    pass


class LanczosConvergenceError(ReferenceError):
    def __init__(self, residual: float, iterations: int):
        super().__init__(
            f"Lanczos did not converge after {iterations} iterations "
            f"(residual {residual:.3e})"
        )
        self.residual = residual
        self.iterations = iterations


def _seeded_start(H: PauliSum, real_valued: bool, seed: int) -> np.ndarray:
    """A random start vector for H drawn from seed: float64 for a real H,
    complex128 otherwise."""
    dim = 2**H.n_qubits
    dtype = np.float64 if real_valued else np.complex128
    rng = np.random.default_rng(seed)
    v = rng.normal(size=dim).astype(dtype)
    if not real_valued:
        v = v + 1j * rng.normal(size=dim)
    return v


def _check_exact_size(H: PauliSum) -> None:
    if H.n_qubits > EXACT_MAX_QUBITS:
        raise ReferenceError(f"exact backend limited to {EXACT_MAX_QUBITS} qubits")


def exact_ground_state(H: PauliSum, seed: int = 7) -> tuple[float, np.ndarray]:
    """Lowest eigenpair of H by Lanczos with full reorthogonalization.

    The matvec is the PauliSum action; the returned state satisfies
    ||H v - E v|| < RESIDUAL_TOL within LANCZOS_MAX_ITERATIONS iterations.
    Raises LanczosConvergenceError otherwise.
    """
    _check_exact_size(H)
    action, real_valued = compile_sum_action(H)
    v = _seeded_start(H, real_valued, seed)
    dim, dtype = len(v), v.dtype
    v /= np.linalg.norm(v)

    max_krylov = min(dim, 120)
    tmp = np.empty(dim, dtype=dtype)
    iterations = 0
    residual = np.inf
    for _restart in range(LANCZOS_MAX_ITERATIONS // max_krylov + 1):
        basis = [v]
        alphas: list[float] = []
        betas: list[float] = []
        w = action(v)
        while True:
            iterations += 1
            alpha = float(np.real(np.vdot(basis[-1], w)))
            alphas.append(alpha)
            if len(basis) == max_krylov:
                break
            w = w - alpha * basis[-1]
            if len(basis) > 1:
                w = w - betas[-1] * basis[-2]
            # full reorthogonalization, two passes of modified Gram-Schmidt,
            # updating w in place (w is a fresh array here)
            for _pass in range(2):
                for b in basis:
                    np.multiply(np.vdot(b, w), b, out=tmp)
                    np.subtract(w, tmp, out=w)
            beta = float(np.linalg.norm(w))
            if beta < 1e-13:
                break
            betas.append(beta)
            basis.append(w / beta)
            w = action(basis[-1])

        tri = np.diag(alphas)
        for i, b in enumerate(betas[: len(alphas) - 1]):
            tri[i, i + 1] = tri[i + 1, i] = b
        evals, evecs = np.linalg.eigh(tri)
        ground = evecs[:, 0]
        v_new = np.zeros(dim, dtype=dtype)
        for c, b in zip(ground, basis[: len(alphas)]):
            v_new += c * b
        v_new /= np.linalg.norm(v_new)
        energy = float(evals[0])
        residual = float(np.linalg.norm(action(v_new) - energy * v_new))
        v = v_new
        if residual < RESIDUAL_TOL:
            state = v.astype(np.complex128)
            # deterministic global phase: largest amplitude real positive
            pivot = int(np.argmax(np.abs(state)))
            phase = state[pivot] / abs(state[pivot])
            state = state / phase
            return energy, state
        if iterations >= LANCZOS_MAX_ITERATIONS:
            break
    raise LanczosConvergenceError(residual, iterations)


def ground_energy(H: PauliSum, seed: int = 7) -> float:
    """Lowest eigenvalue of H by ARPACK's Lanczos (scipy eigsh) on
    merged_sum_matrix(H), started from exact_ground_state's seeded vector.

    exact_ground_state's contract without its state: the eigenvector x
    satisfies ||H x - E x|| < RESIDUAL_TOL, and a residual above it or an ARPACK run
    that does not converge raises LanczosConvergenceError, whose iteration
    count is the number of H products. The merged matrix rounds H x
    differently from the compiled action, so the energy may differ from
    exact_ground_state's by a few ulp: fine for the sector check's 1e-9
    margin, not for anything whose bits are recorded.
    """
    _check_exact_size(H)
    matrix = merged_sum_matrix(H)
    v0 = _seeded_start(H, matrix.dtype == np.float64, seed)
    products = 0

    def matvec(v):
        nonlocal products
        products += 1
        return matrix @ v

    operator = LinearOperator(matrix.shape, matvec=matvec, dtype=matrix.dtype)
    try:
        evals, evecs = eigsh(operator, k=1, which="SA", v0=v0)
    except ArpackNoConvergence:
        raise LanczosConvergenceError(np.inf, products) from None
    energy, x = float(evals[0]), evecs[:, 0]
    residual = float(np.linalg.norm(matrix @ x - energy * x))
    if not residual < RESIDUAL_TOL:
        raise LanczosConvergenceError(residual, products)
    return energy


def entropy(rho: np.ndarray) -> float:
    """Von Neumann entropy in bits; eigenvalues at or below 1e-12 contribute 0."""
    if not np.allclose(rho, rho.conj().T, atol=1e-8):
        raise ReferenceError("density matrix is not Hermitian")
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > 1e-8:
        raise ReferenceError(f"density matrix trace {tr} deviates from 1")
    eigs = np.linalg.eigvalsh(rho)
    if eigs.min() < -1e-8:
        raise ReferenceError(f"density matrix has negative eigenvalue {eigs.min()}")
    eigs = np.clip(eigs, 0.0, 1.0)
    keep = eigs > ENTROPY_EIGENVALUE_FLOOR
    p = eigs[keep]
    return float(-(p * np.log2(p)).sum())


@dataclass
class MIMatrix:
    """Pairwise qubit mutual information in bits: symmetric, zero diagonal."""

    entries: np.ndarray

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=float)
        n = self.entries.shape[0]
        if self.entries.shape != (n, n):
            raise ReferenceError("MI matrix must be square")
        if not np.allclose(self.entries, self.entries.T, atol=1e-9):
            raise ReferenceError("MI matrix must be symmetric")
        if np.abs(np.diag(self.entries)).max(initial=0.0) > 1e-12:
            raise ReferenceError("MI matrix diagonal must be zero")
        if self.entries.min(initial=0.0) < -1e-9 or self.entries.max(initial=0.0) > 1.0 + 1e-9:
            raise ReferenceError("MI entries must lie in [0, 1] bits")
        self.entries = np.clip(0.5 * (self.entries + self.entries.T), 0.0, 1.0)
        np.fill_diagonal(self.entries, 0.0)

    @property
    def n_qubits(self) -> int:
        return self.entries.shape[0]

    def __getitem__(self, key):
        return self.entries[key]

    def embedded(self, index_map: dict[int, int], n_total: int) -> "MIMatrix":
        """Lift into a larger register; absent qubits get zero MI everywhere."""
        big = np.zeros((n_total, n_total))
        for old_i, new_i in index_map.items():
            for old_j, new_j in index_map.items():
                big[old_i, old_j] = self.entries[new_i, new_j]
        return MIMatrix(big)

    def to_csv(self) -> str:
        n = self.n_qubits
        lines = ["qubit," + ",".join(str(q) for q in range(n))]
        for i in range(n):
            lines.append(
                f"{i}," + ",".join(f"{self.entries[i, j]:.12g}" for j in range(n))
            )
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "MIMatrix":
        rows = [r.strip() for r in text.strip().splitlines() if r.strip()]
        header = rows[0].split(",") if rows else [""]
        n = len(header) - 1
        if header != ["qubit", *map(str, range(n))]:
            raise ReferenceError("MI CSV must start with the header row 'qubit,0,1,...'")
        if len(rows) != n + 1:
            raise ReferenceError("MI CSV row count does not match header")
        # one full row per qubit, collected before any n x n allocation
        entries: list = [None] * n
        for row in rows[1:]:
            parts = row.split(",")
            try:
                q, values = int(parts[0]), [float(x) for x in parts[1:]]
            except ValueError:
                raise ReferenceError(f"malformed MI CSV row {row!r}") from None
            if not 0 <= q < n or entries[q] is not None or len(values) != n:
                raise ReferenceError(f"malformed MI CSV row {row!r}")
            entries[q] = values
        return cls(np.array(entries, dtype=float).reshape(n, n))


def mutual_information(state) -> MIMatrix:
    """MI matrix of a StateVector (numpy array) or MPSState."""
    if hasattr(state, "local_densities"):
        n = state.n_qubits
        densities = state.local_densities()  # one canonical form for all RDMs
        single, pair = densities.single, densities.pair
    else:
        state = np.asarray(state)
        n = int(np.log2(len(state)))

        def single(q):
            return rdm(state, [q])

        def pair(i, j):
            return rdm(state, [i, j])

    singles = [entropy(single(q)) for q in range(n)]
    entries = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            s_ij = entropy(pair(i, j))
            mi = 0.5 * (singles[i] + singles[j] - s_ij)
            entries[i, j] = entries[j, i] = max(mi, 0.0)
    return MIMatrix(entries)
