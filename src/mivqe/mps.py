"""Matrix-product-state backend: MPO construction, two-site DMRG, local RDMs.

Real Hamiltonians only: every term must have an even Y count, which lets each
Pauli word factor into real per-site matrices (Y pairs become i*Y = XZ with a
sign folded into the coefficient), so MPO, MPS and all contractions stay in
float64.

Site q of the chain is qubit q; a dense basis index puts site q on bit q.
MPS site tensors have shape (left_bond, 2, right_bond); MPO site tensors
(left_bond, right_bond, 2, 2) with (out, in) physical legs. Environments are
indexed (bra bond, MPO bond, ket bond).

``build_mpo`` reads H's Pauli coefficients as a sparse tensor over the
sites and factors it in one left-to-right sweep of truncated SVDs, one per
bond (tensor-train SVD). DMRG takes only an MPO:
``mps_ground_state(build_mpo(H), chi, sweeps, seed, bits)``.

Every network is contracted as a fixed sequence of pairwise ``tensordot``
steps: one environment step, one effective-Hamiltonian matvec or one
``mpo_expectation`` site costs O(chi^3 D + chi^2 D^2) for MPS bond chi and
MPO bond D, where a single multi-operand ``einsum`` loops over all indices
at once (O(chi^4 D^2)). Several DMRG settings on one Hamiltonian share a
single ``build_mpo``, and ``MPSState.local_densities`` canonicalizes once for
all RDMs of a state.
The sweeps stop early once two sweep energies agree to SWEEP_RTOL relative
to max(1, |E|), so the stop does not depend on the energy's scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import LinearOperator, eigsh

from .pauli import PauliSum

# the real site matrix (out, in) of the factor X^x Z^z, indexed x + 2z: I, X,
# Z and X @ Z; the word convention i^y X^x Z^z makes i*Y = -(XZ) bookkeeping
# exact
_SITE = np.array([
    [[1.0, 0.0], [0.0, 1.0]],
    [[0.0, 1.0], [1.0, 0.0]],
    [[1.0, 0.0], [0.0, -1.0]],
    [[0.0, -1.0], [1.0, 0.0]],
])

_DENSE_SOLVE_CUTOFF = 400
# DMRG stops once two sweep energies differ by less than this fraction of
# max(1, |E|): an absolute tolerance sits within float summation noise of
# energies near -75 hartree
SWEEP_RTOL = 1e-12


class MpsError(RuntimeError):
    pass


@dataclass
class MPO:
    tensors: list[np.ndarray]

    @property
    def n_sites(self) -> int:
        return len(self.tensors)

    def bond_dimensions(self) -> list[int]:
        return [t.shape[1] for t in self.tensors[:-1]]



# build_mpo truncates singular values at or below this share of a bond's largest
MPO_COMPRESSION_TOL = 1e-12


def build_mpo(H: PauliSum) -> MPO:
    """H's MPO by one left-to-right SVD sweep over its Pauli coefficients.

    H is the tensor C[p_0, ..., p_{n-1}], p = x + 2z indexing _SITE, whose
    entries are the coefficients times i^y. At site q the carried factor has
    one column per distinct suffix of the terms (sites q..n-1); each suffix
    is placed at row (left bond, its letter p) and the column of its tail
    (sites q+1..n-1), so no entry is a sum. One SVD per bond keeps the
    singular values above MPO_COMPRESSION_TOL * s_max, and always the
    largest, so that no bond closes; site q's tensor is U contracted with
    _SITE over p.
    """
    if len(H) == 0:
        raise MpsError("cannot build an MPO from an empty sum")
    n = H.n_qubits
    if n < 2:
        raise MpsError("MPO backend needs at least 2 sites")
    if (H.y % 2).any():
        raise MpsError("MPO construction requires even-Y (real) terms")
    # numpy shifts a uint64 by 64 to 0, so the tail past site n-1 is empty
    shifts = np.arange(n + 1, dtype=np.uint64)
    # (term, site) -> _SITE index
    letter = (((H.x[:, None] >> shifts[:n]) & 1) + 2 * ((H.z[:, None] >> shifts[:n]) & 1))
    letter = letter.astype(np.intp)
    # a term of each distinct suffix: at site 0 every term, as the masks are
    # distinct
    first = np.arange(len(H))
    carry = (H.coeffs * np.where(H.y % 4 == 0, 1.0, -1.0))[None, :]
    tensors = []
    for q in range(n):
        tails = np.stack([H.x >> shifts[q + 1], H.z >> shifts[q + 1]], axis=1)
        # the tails are site q+1's suffixes; some numpy 2.0 releases shape
        # the inverse (terms, 1), so it is ravelled
        _, next_first, tail = np.unique(tails, axis=0, return_index=True, return_inverse=True)
        tail = tail.ravel()
        dl = len(carry)
        U = np.zeros((dl, 4, tail.max() + 1))
        U[:, letter[first, q], tail[first]] = carry
        if q < n - 1:
            u, s, vt = np.linalg.svd(U.reshape(4 * dl, -1), full_matrices=False)
            keep = s > MPO_COMPRESSION_TOL * s[0]
            keep[0] = True
            U = u[:, keep].reshape(dl, 4, -1)
            carry = s[keep, None] * vt[keep]
        tensors.append(np.einsum("apb,pij->abij", U, _SITE))
        first = next_first
    return MPO(tensors)


@dataclass
class MPSState:
    """Bond-limited matrix product state."""

    tensors: list[np.ndarray]

    @property
    def n_qubits(self) -> int:
        return len(self.tensors)

    def bond_dimensions(self) -> list[int]:
        return [t.shape[2] for t in self.tensors[:-1]]

    def norm(self) -> float:
        env = np.ones((1, 1))
        for A in self.tensors:
            env = _transfer(env, A)
        return float(np.sqrt(env[0, 0]))

    def left_canonicalize(self) -> "MPSState":
        ts = [t.copy() for t in self.tensors]
        for i in range(len(ts) - 1):
            dl, d, dr = ts[i].shape
            q, r = np.linalg.qr(ts[i].reshape(dl * d, dr))
            ts[i] = q.reshape(dl, d, q.shape[1])
            ts[i + 1] = np.einsum("ab,bsc->asc", r, ts[i + 1])
        last = ts[-1]
        nrm = np.linalg.norm(last)
        ts[-1] = last / nrm
        return MPSState(ts)

    def right_canonicalize(self) -> "MPSState":
        ts = [t.copy() for t in self.tensors]
        for i in range(len(ts) - 1, 0, -1):
            dl, d, dr = ts[i].shape
            q, r = np.linalg.qr(ts[i].reshape(dl, d * dr).T)
            k = q.shape[1]
            ts[i] = q.T.reshape(k, d, dr)
            ts[i - 1] = np.einsum("asb,cb->asc", ts[i - 1], r)
        nrm = np.linalg.norm(ts[0])
        ts[0] = ts[0] / nrm
        return MPSState(ts)

    def local_densities(self) -> "LocalDensities":
        """One- and two-site RDMs, sharing one canonical form of this state."""
        mps = self.left_canonicalize()
        n = len(mps.tensors)
        R = [None] * (n + 1)
        R[n] = np.ones((1, 1))
        for k in range(n - 1, -1, -1):
            A = mps.tensors[k]
            R[k] = np.tensordot(np.tensordot(A, R[k + 1], ([2], [0])), A, ([1, 2], [1, 2]))
        return LocalDensities(mps.tensors, R)



def _transfer(E: np.ndarray, A: np.ndarray) -> np.ndarray:
    """E[..., b, c] -> E[..., d, e]: one site of <psi|psi> on the last two legs."""
    T = np.tensordot(E, A, ([E.ndim - 2], [0]))  # (..., c, u, d)
    return np.tensordot(T, A, ([E.ndim - 2, E.ndim - 1], [0, 1]))  # (..., d, e)


@dataclass
class LocalDensities:
    """RDMs of a left-canonical MPS; R[k] contracts sites k..n-1 (bra, ket)."""

    tensors: list[np.ndarray]
    R: list[np.ndarray]

    def single(self, q: int) -> np.ndarray:
        A = self.tensors[q]
        return np.tensordot(np.tensordot(A, self.R[q + 1], ([2], [0])), A, ([0, 2], [0, 2]))

    def pair(self, i: int, j: int) -> np.ndarray:
        if i == j:
            raise MpsError("pair needs two distinct sites")
        if i > j:
            i, j = j, i
        A = self.tensors[i]
        # E[s, t, b, c] with identity left environment (left-canonical)
        E = np.tensordot(A, A, ([0], [0])).transpose(0, 2, 1, 3)
        for k in range(i + 1, j):
            E = _transfer(E, self.tensors[k])
        Aj = self.tensors[j]
        T = np.tensordot(np.tensordot(E, Aj, ([2], [0])), self.R[j + 1], ([4], [0]))
        rho4 = np.tensordot(T, Aj, ([2, 4], [0, 2])).transpose(0, 2, 1, 3)  # (s, u, t, v)
        # index order (s_i, s_j): fastest index is the first site
        return rho4.reshape(4, 4, order="F").astype(complex)


def _left_env_step(L: np.ndarray, A: np.ndarray, W: np.ndarray) -> np.ndarray:
    """L[a, m, b] -> L[c, n, d] across one site (bra A[a, s, c], ket A[b, t, d])."""
    T = np.tensordot(L, A, ([0], [0]))  # (m, b, s, c)
    T = np.tensordot(T, W, ([0, 2], [0, 2]))  # (b, c, n, t)
    return np.tensordot(T, A, ([0, 3], [0, 1]))  # (c, n, d)


def _right_env_step(R: np.ndarray, A: np.ndarray, W: np.ndarray) -> np.ndarray:
    """R[b, n, d] -> R[a, m, c] across one site (bra A[a, s, b], ket A[c, t, d])."""
    T = np.tensordot(A, R, ([2], [2]))  # (c, t, b, n)
    T = np.tensordot(T, W, ([1, 3], [3, 1]))  # (c, b, m, s)
    return np.tensordot(T, A, ([1, 3], [2, 1])).transpose(2, 1, 0)  # (a, m, c)


def _heff_matvec(L, W1, W2, R, theta: np.ndarray) -> np.ndarray:
    """Two-site effective Hamiltonian on theta[a, s, t, b] -> out[c, u, v, d]."""
    T = np.tensordot(L, theta, ([2], [0]))  # (c, m, s, t, b)
    T = np.tensordot(T, W1, ([1, 2], [0, 3]))  # (c, t, b, n, u)
    T = np.tensordot(T, W2, ([1, 3], [3, 0]))  # (c, b, u, p, v)
    return np.tensordot(T, R, ([1, 3], [2, 1]))  # (c, u, v, d)


def _heff_dense(L, W1, W2, R) -> np.ndarray:
    """The same operator as a (c u v d) x (a s t b) matrix, symmetrized."""
    LW = np.tensordot(L, W1, ([1], [0]))  # (c, a, n, u, s)
    WR = np.tensordot(W2, R, ([1], [1]))  # (n, v, t, d, b)
    M = np.tensordot(LW, WR, ([2], [0]))  # (c, a, u, s, v, t, d, b)
    dim = L.shape[0] * 4 * R.shape[0]
    M = M.transpose(0, 2, 4, 6, 1, 3, 5, 7).reshape(dim, dim)
    return 0.5 * (M + M.T)


def mpo_expectation(mps: MPSState, mpo: MPO) -> float:
    env = np.ones((1, 1, 1))
    for A, W in zip(mps.tensors, mpo.tensors):
        env = _left_env_step(env, A, W)
    return float(env[0, 0, 0])


def _initial_mps(n: int, chi: int, rng: np.random.Generator, bits=None):
    tensors = []
    for q in range(n):
        dl = min(chi, 2**q, 2 ** (n - q))
        dr = min(chi, 2 ** (q + 1), 2 ** (n - q - 1))
        T = 0.05 * rng.normal(size=(dl, 2, dr))
        if bits is not None:
            T[0, bits[q], 0] += 1.0
        tensors.append(T)
    return MPSState(tensors).right_canonicalize()


def _solve_local(h_eff_matvec, dim: int, v0: np.ndarray | None, dense_builder):
    if dim <= _DENSE_SOLVE_CUTOFF:
        M = dense_builder()
        evals, evecs = np.linalg.eigh(M)
        return float(evals[0]), evecs[:, 0]
    if v0 is None:
        v0 = np.zeros(dim)
        v0[0] = 1.0  # deterministic fallback start
    op = LinearOperator((dim, dim), matvec=h_eff_matvec, dtype=np.float64)
    evals, evecs = eigsh(op, k=1, which="SA", v0=v0, maxiter=6000)
    return float(evals[0]), evecs[:, 0]


def mps_ground_state(
    mpo: MPO, chi: int, n_sweeps: int, seed: int = 7, init_bits=None
) -> tuple[float, MPSState, list[float]]:
    """Two-site DMRG ground-state search over a Hamiltonian's MPO.

    Returns the final Rayleigh-quotient energy (variational: never below the
    true ground energy), the state, and the per-sweep energy trace. Fewer
    sweeps or a smaller chi give a controlled de-converged state for MI
    robustness experiments. The sweeps stop early once two sweep energies
    differ by less than SWEEP_RTOL * max(1, |E|).
    """
    if chi < 1:
        raise MpsError("chi must be at least 1")
    if n_sweeps < 1:
        raise MpsError("need at least one sweep")
    n = mpo.n_sites
    rng = np.random.default_rng(seed)
    # one extra unit of bond freedom during the search helps chi=1 escape
    # the initial product manifold; truncation enforces chi on the result
    mps = _initial_mps(n, max(chi, 2), rng, bits=init_bits)
    tensors = [t.copy() for t in mps.tensors]

    # R[k] contracts sites k..n-1; L[k] contracts sites 0..k-1
    R = [None] * (n + 1)
    R[n] = np.ones((1, 1, 1))
    for k in range(n - 1, 0, -1):
        R[k] = _right_env_step(R[k + 1], tensors[k], mpo.tensors[k])
    L = [None] * (n + 1)
    L[0] = np.ones((1, 1, 1))

    def solve_bond(i: int, move_right: bool):
        Lenv, Renv = L[i], R[i + 2]
        W1, W2 = mpo.tensors[i], mpo.tensors[i + 1]
        dl, dr = Lenv.shape[0], Renv.shape[0]
        dim = dl * 2 * 2 * dr
        theta0 = np.einsum("asb,btc->astc", tensors[i], tensors[i + 1]).reshape(dim)
        nrm = np.linalg.norm(theta0)
        theta0 = theta0 / nrm if nrm > 0 else None

        # W[m, n, out, in]; environments are NOT bra/ket symmetric once an
        # antisymmetric site matrix (the real i*Y) sits inside them, so the
        # legs matter
        def matvec(v):
            return _heff_matvec(Lenv, W1, W2, Renv, v.reshape(dl, 2, 2, dr)).reshape(dim)

        def dense_builder():
            return _heff_dense(Lenv, W1, W2, Renv)

        _, theta = _solve_local(matvec, dim, theta0, dense_builder)
        th = theta.reshape(dl * 2, 2 * dr)
        u, s, vt = np.linalg.svd(th, full_matrices=False)
        rank = int((s > s[0] * 1e-14).sum()) if s[0] > 0 else 1
        keep = max(1, min(chi, rank))
        u, s, vt = u[:, :keep], s[:keep], vt[:keep]
        s = s / np.linalg.norm(s)
        if move_right:
            tensors[i] = u.reshape(dl, 2, keep)
            tensors[i + 1] = (s[:, None] * vt).reshape(keep, 2, dr)
            L[i + 1] = _left_env_step(L[i], tensors[i], mpo.tensors[i])
        else:
            tensors[i] = (u * s).reshape(dl, 2, keep)
            tensors[i + 1] = vt.reshape(keep, 2, dr)
            R[i + 1] = _right_env_step(R[i + 2], tensors[i + 1], mpo.tensors[i + 1])

    energies: list[float] = []
    for _sweep in range(n_sweeps):
        for i in range(n - 1):
            solve_bond(i, move_right=True)
        for i in range(n - 2, -1, -1):
            solve_bond(i, move_right=False)
        state = MPSState([t.copy() for t in tensors])
        nrm2 = state.norm() ** 2
        energies.append(mpo_expectation(state, mpo) / nrm2)
        tol = SWEEP_RTOL * max(1.0, abs(energies[-1]))
        if len(energies) > 1 and abs(energies[-2] - energies[-1]) < tol:
            break

    final = MPSState([t.copy() for t in tensors])
    return energies[-1], final, energies
