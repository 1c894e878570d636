"""Fermion-to-qubit encodings and stationary-qubit elimination.

All three supported mappings are linear GF(2) encodings of the occupation
vector, b = A n mod 2: Jordan-Wigner (A = identity), parity (A = inclusive
prefix-sum matrix) and Bravyi-Kitaev (the binary-tree partial-sum matrix,
built for the next power of two and truncated). The encoded ladder operators
come from the Majorana pair

    c_j = X[flip col j] * Z[prefix-parity weights],
    d_j = i * c_j * Z[occupation weights],
    a_j = (c_j + i d_j) / 2,   a+_j = (c_j - i d_j) / 2,

where both weight sets are read off one GF(2) inverse of A. Phases from
overlapping X/Z factors are handled by the symplectic word product, so the
construction is valid for any invertible A.

Operators arrive with their modes already in the run's spin-orbital grouping
(``mivqe.fermion`` builds them so), so the encoder takes only the mapping.
"""

from __future__ import annotations

import numpy as np

from .fermion import FermionOperator
from .pauli import PauliSum, mask_product

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


def _mask(bits) -> int:
    out = 0
    for q, b in enumerate(bits):
        if b:
            out |= 1 << q
    return out


def _gf2_inverse_rows(A: np.ndarray) -> list[int]:
    """Rows of A^-1 over GF(2) as bit masks (bit q is column q), by Gauss-Jordan."""
    n = A.shape[0]
    rows = [_mask(A[r]) | 1 << (n + r) for r in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r] >> col & 1), None)
        if pivot is None:
            raise EncodingError("encoding matrix is singular over GF(2)")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(n):
            if r != col and rows[r] >> col & 1:
                rows[r] ^= rows[col]
    return [row >> n for row in rows]


def _ladder_factors(mapping: str, n: int) -> dict:
    """(mode, creation) -> the two (coefficient, x, z) words of the ladder operator.

    a+_j = (c_j - i d_j)/2 and a_j = (c_j + i d_j)/2. The occupation weights
    of mode j solve A^T w = e_j, so they are column j of (A^T)^-1, i.e. row j
    of A^-1; the prefix-parity weights solve A^T w = e_0 + ... + e_{j-1}, so
    they are the running XOR of the occupation weights of modes below j.
    """
    A = encoding_matrix(mapping, n)
    occupation = _gf2_inverse_rows(A)
    factors = {}
    parity = 0
    for j in range(n):
        ph_c, xc, zc = mask_product(_mask(A[:, j]), 0, 0, parity)
        ph_d, xd, zd = mask_product(xc, zc, 0, occupation[j])
        c = 1j**ph_c
        d = 1j * (1j**ph_c) * (1j**ph_d)
        for creation, sign in ((False, 1j), (True, -1j)):
            factors[j, creation] = ((0.5 * c, xc, zc), (0.5 * sign * d, xd, zd))
        parity ^= occupation[j]
    return factors


def encode(op: FermionOperator, mapping: str, n_modes: int) -> PauliSum:
    """Encode a Hermitian FermionOperator as a real-coefficient PauliSum.

    The register has one qubit per spin-orbital, n_modes in all (twice the
    FCIDUMP's NORB), whether or not every mode appears in op. The operator's
    modes are already in the run's spin-orbital order. Each ladder string is
    multiplied out on (x, z) masks, one two-word ladder factor at a time.
    """
    if not op.is_hermitian():
        raise EncodingError("refusing to encode a non-Hermitian operator")
    if op.n_modes() > n_modes:
        raise EncodingError(f"mode {op.n_modes() - 1} is beyond the {n_modes}-mode register")

    factors = _ladder_factors(mapping, n_modes)
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
    coeffs = np.array(list(acc.values()), dtype=complex)
    # |imag| > 1e-9 implies |c| > COEFF_CUTOFF: such a term is never dropped
    bad = np.flatnonzero(np.abs(coeffs.imag) > 1e-9)
    if len(bad):
        raise EncodingError(
            f"non-real coefficient {coeffs[bad[0]]} survived encoding a Hermitian operator"
        )
    return PauliSum(n_modes, coeffs.real, masks[:, 0], masks[:, 1])


def hf_reference(mapping: str, occupations) -> list[int]:
    """Computational-basis bits of an occupation bit vector under the mapping.

    The occupation vector is given in the run's spin-orbital order; the result
    is simply b = A n mod 2 for the mapping's encoding matrix.
    """
    occ = np.asarray(list(occupations), dtype=np.uint8)
    A = encoding_matrix(mapping, len(occ))
    return [int(b) for b in (A @ occ) % 2]


def reduce_stationary_qubits(
    H: PauliSum, reference_bits
) -> tuple[PauliSum, list[tuple[int, int]], dict[int, int]]:
    """Delete qubits every term touches only with I or Z.

    Each stationary qubit's Z is replaced by its eigenvalue (-1)^bit in the
    supplied reference state; terms that then coincide are merged, in H's
    order. Returns the reduced sum, the removed qubits with their
    eigenvalues, and the old->new index map for survivors. Zero stationary
    qubits is a valid no-op.
    """
    n = H.n_qubits
    bits = list(reference_bits)
    if len(bits) != n:
        raise EncodingError("reference bit count differs from qubit count")
    x_union = int(np.bitwise_or.reduce(H.x, initial=np.uint64(0)))
    stationary = [q for q in range(n) if not (x_union >> q) & 1]
    if not stationary:
        return H, [], {q: q for q in range(n)}

    removed = [(q, +1 if bits[q] == 0 else -1) for q in stationary]
    survivors = [q for q in range(n) if (x_union >> q) & 1]
    index_map = {old: new for new, old in enumerate(survivors)}
    n_new = len(survivors)
    if n_new == 0:
        raise EncodingError("reduction would remove every qubit")

    # a term's Z on a stationary qubit in state 1 is its eigenvalue -1
    flipped = np.uint64(sum(1 << q for q, eig in removed if eig < 0))
    coeffs = np.where(np.bitwise_count(H.z & flipped) & 1, -H.coeffs, H.coeffs)
    x = np.zeros(len(H), dtype=np.uint64)
    z = np.zeros(len(H), dtype=np.uint64)
    for old, new in index_map.items():
        x |= (H.x >> old & 1) << new
        z |= (H.z >> old & 1) << new
    return PauliSum(n_new, coeffs, x, z), removed, index_map
