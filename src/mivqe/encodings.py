"""Fermion-to-qubit encodings and stationary-qubit elimination.

All three supported mappings are linear GF(2) encodings of the occupation
vector, b = A n mod 2: Jordan-Wigner (A = identity), parity (A = inclusive
prefix-sum matrix) and Bravyi-Kitaev (the binary-tree partial-sum matrix,
built for the next power of two and truncated). The encoded ladder operators
come from the Majorana pair

    c_j = X[flip col j] * Z[prefix-parity weights],
    d_j = i * c_j * Z[occupation weights],
    a_j = (c_j + i d_j) / 2,   a+_j = (c_j - i d_j) / 2,

where the weight sets are solved from A over GF(2). Phases from overlapping
X/Z factors are handled by the symplectic word product, so the construction
is valid for any invertible A.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fermion import FermionOperator, grouping_permutation
from .pauli import COEFF_CUTOFF, PauliSum, PauliWord, multiply

MAPPINGS = ("jordan_wigner", "parity", "bravyi_kitaev")

_MAPPING_ALIASES = {
    "jw": "jordan_wigner",
    "jordan_wigner": "jordan_wigner",
    "jordan-wigner": "jordan_wigner",
    "parity": "parity",
    "bk": "bravyi_kitaev",
    "bravyi_kitaev": "bravyi_kitaev",
    "bravyi-kitaev": "bravyi_kitaev",
}


class EncodingError(ValueError):
    pass


def canonical_mapping(name: str) -> str:
    try:
        return _MAPPING_ALIASES[name.strip().lower()]
    except KeyError:
        raise EncodingError(f"unknown mapping {name!r}") from None


@dataclass(frozen=True)
class EncodingSpec:
    mapping: str = "jordan_wigner"
    grouping: str = "abab"

    def __post_init__(self):
        object.__setattr__(self, "mapping", canonical_mapping(self.mapping))
        if self.grouping not in ("abab", "aabb"):
            raise EncodingError(f"unknown grouping {self.grouping!r}")


def bravyi_kitaev_matrix(n: int) -> np.ndarray:
    """BK partial-sum matrix for n modes (next power of two, truncated)."""
    size = 1
    mat = np.ones((1, 1), dtype=np.uint8)
    while size < n:
        top = np.hstack([mat, np.zeros((size, size), dtype=np.uint8)])
        bottom = np.hstack([np.zeros((size, size), dtype=np.uint8), mat])
        bottom[-1, :size] = 1
        mat = np.vstack([top, bottom])
        size *= 2
    return mat[:n, :n]


def encoding_matrix(mapping: str, n: int) -> np.ndarray:
    mapping = canonical_mapping(mapping)
    if mapping == "jordan_wigner":
        return np.eye(n, dtype=np.uint8)
    if mapping == "parity":
        return np.tril(np.ones((n, n), dtype=np.uint8))
    return bravyi_kitaev_matrix(n)


def _gf2_solve(A: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve A x = rhs over GF(2) by Gaussian elimination (A invertible)."""
    n = A.shape[0]
    aug = np.concatenate([A.copy() % 2, rhs.reshape(n, 1) % 2], axis=1).astype(np.uint8)
    row = 0
    for col in range(n):
        pivot = None
        for r in range(row, n):
            if aug[r, col]:
                pivot = r
                break
        if pivot is None:
            raise EncodingError("encoding matrix is singular over GF(2)")
        aug[[row, pivot]] = aug[[pivot, row]]
        for r in range(n):
            if r != row and aug[r, col]:
                aug[r] ^= aug[row]
        row += 1
    return aug[:, n]


def _mask(bits) -> int:
    out = 0
    for q, b in enumerate(bits):
        if b:
            out |= 1 << q
    return out


class _LadderTables:
    """Per-mode Pauli factors of the encoded ladder operators for one mapping."""

    def __init__(self, mapping: str, n: int):
        A = encoding_matrix(mapping, n)
        At = A.T % 2
        self.n = n
        self.c_ops: list[list[tuple[complex, PauliWord]]] = []
        self.d_ops: list[list[tuple[complex, PauliWord]]] = []
        for j in range(n):
            flip = _mask(A[:, j])
            prefix = np.zeros(n, dtype=np.uint8)
            prefix[:j] = 1
            parity_mask = _mask(_gf2_solve(At, prefix))
            occ_vec = np.zeros(n, dtype=np.uint8)
            occ_vec[j] = 1
            occ_mask = _mask(_gf2_solve(At, occ_vec))

            x_word = PauliWord(n, flip, 0)
            zp_word = PauliWord(n, 0, parity_mask)
            zo_word = PauliWord(n, 0, occ_mask)

            ph_c, c_word = multiply(x_word, zp_word)
            c_j = [(1j**ph_c, c_word)]
            ph_d, d_word = multiply(c_word, zo_word)
            d_j = [(1j * (1j**ph_c) * (1j**ph_d), d_word)]
            self.c_ops.append(c_j)
            self.d_ops.append(d_j)

    def ladder(self, mode: int, creation: bool) -> list[tuple[complex, PauliWord]]:
        """a+_j = (c_j - i d_j)/2, a_j = (c_j + i d_j)/2."""
        sign = -1j if creation else 1j
        out = [(0.5 * coeff, word) for coeff, word in self.c_ops[mode]]
        out += [(0.5 * sign * coeff, word) for coeff, word in self.d_ops[mode]]
        return out


def _multiply_termdicts(
    a: dict[tuple[int, int], complex],
    factors: list[tuple[complex, PauliWord]],
    n: int,
) -> dict[tuple[int, int], complex]:
    out: dict[tuple[int, int], complex] = {}
    for (xa, za), ca in a.items():
        wa = PauliWord(n, xa, za)
        for cb, wb in factors:
            phase, word = multiply(wa, wb)
            key = (word.x_mask, word.z_mask)
            out[key] = out.get(key, 0.0) + ca * cb * (1j**phase)
    return out


def encode(op: FermionOperator, spec: EncodingSpec) -> PauliSum:
    """Encode a Hermitian FermionOperator as a real-coefficient PauliSum.

    The operator arrives in the alternating spin-orbital convention; the
    grouping relabels modes first, then the mapping's ladder tables are
    multiplied out term by term.
    """
    if not op.is_hermitian():
        raise EncodingError("refusing to encode a non-Hermitian operator")
    n_modes = op.n_modes()
    if n_modes == 0:
        raise EncodingError("operator acts on no modes")
    if n_modes % 2:
        n_modes += 1  # odd top mode: still a 2*n_orbitals register
    n_orbitals = n_modes // 2
    perm = grouping_permutation(n_orbitals, spec.grouping)
    grouped = op.relabeled({i: perm[i] for i in range(n_modes)})

    tables = _LadderTables(spec.mapping, n_modes)
    acc: dict[tuple[int, int], complex] = {}
    for ladder, coeff in grouped.terms.items():
        term: dict[tuple[int, int], complex] = {(0, 0): complex(coeff)}
        for mode, creation in ladder:
            term = _multiply_termdicts(term, tables.ladder(mode, creation), n_modes)
        for key, c in term.items():
            acc[key] = acc.get(key, 0.0) + c

    terms = []
    for (x, z), c in acc.items():
        if abs(c) <= COEFF_CUTOFF:
            continue
        if abs(c.imag) > 1e-9:
            raise EncodingError(
                f"non-real coefficient {c} survived encoding a Hermitian operator"
            )
        terms.append((c.real, PauliWord(n_modes, x, z)))
    return PauliSum(n_modes, terms)


def hf_reference(spec: EncodingSpec, occupations) -> list[int]:
    """Computational-basis bits of an occupation bit vector under the mapping.

    The occupation vector is given in the grouped order; the result is simply
    b = A n mod 2 for the mapping's encoding matrix.
    """
    occ = np.asarray(list(occupations), dtype=np.uint8)
    A = encoding_matrix(spec.mapping, len(occ))
    return [int(b) for b in (A @ occ) % 2]


def reduce_stationary_qubits(
    H: PauliSum, reference_bits
) -> tuple[PauliSum, list[tuple[int, int]], dict[int, int]]:
    """Delete qubits every term touches only with I or Z.

    Each stationary qubit's Z is replaced by its eigenvalue (-1)^bit in the
    supplied reference state. Returns the reduced sum, the removed qubits
    with their eigenvalues, and the old->new index map for survivors.
    Zero stationary qubits is a valid no-op.
    """
    n = H.n_qubits
    bits = list(reference_bits)
    if len(bits) != n:
        raise EncodingError("reference bit count differs from qubit count")
    x_union = 0
    for _, word in H.terms:
        x_union |= word.x_mask
    stationary = [q for q in range(n) if not (x_union >> q) & 1]
    if not stationary:
        return H, [], {q: q for q in range(n)}

    removed = [(q, +1 if bits[q] == 0 else -1) for q in stationary]
    survivors = [q for q in range(n) if q not in stationary]
    index_map = {old: new for new, old in enumerate(survivors)}
    n_new = len(survivors)
    if n_new == 0:
        raise EncodingError("reduction would remove every qubit")

    terms = []
    for coeff, word in H.terms:
        sign = 1
        for q, eig in removed:
            if (word.z_mask >> q) & 1:
                sign *= eig
        x = z = 0
        for old, new in index_map.items():
            x |= ((word.x_mask >> old) & 1) << new
            z |= ((word.z_mask >> old) & 1) << new
        terms.append((sign * coeff, PauliWord(n_new, x, z)))
    return PauliSum(n_new, terms), removed, index_map
