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

``encode`` multiplies the ladder strings out on numpy arrays, all strings of
one length together: per ladder position, one gather of the factor's two
words, one XOR of the masks, the phase from ``np.bitwise_count``, and one
complex product, which is exact. The additions follow a dict encoder's
order (``tests/helpers.py::dict_encode``), so every bit is its.

Operators arrive with their modes already in the run's spin-orbital grouping
(``mivqe.fermion`` builds them so), so the encoder takes only the mapping.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .fermion import FermionOperator
from .pauli import PauliSum, mask_product

MAPPINGS = ("jordan_wigner", "parity", "bravyi_kitaev")

_I_POWERS = np.array([1, 1j, -1, -1j])  # i^phase

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


def _ladder_factors(mapping: str, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The two (coefficient, x, z) words of every ladder operator, as arrays.

    Row 2 * j + creation of each (2n, 2) array is a_j (creation 0) or a+_j
    (creation 1): a+_j = (c_j - i d_j)/2 and a_j = (c_j + i d_j)/2, word 0
    from c_j and word 1 from d_j. The occupation weights of mode j solve
    A^T w = e_j, so they are column j of (A^T)^-1, i.e. row j of A^-1; the
    prefix-parity weights solve A^T w = e_0 + ... + e_{j-1}, so they are the
    running XOR of the occupation weights of modes below j.
    """
    A = encoding_matrix(mapping, n)
    occupation = _gf2_inverse_rows(A)
    coeffs = np.empty((2 * n, 2), dtype=complex)
    x = np.empty((2 * n, 2), dtype=np.uint64)
    z = np.empty((2 * n, 2), dtype=np.uint64)
    parity = 0
    for j in range(n):
        ph_c, xc, zc = mask_product(_mask(A[:, j]), 0, 0, parity)
        ph_d, xd, zd = mask_product(xc, zc, 0, occupation[j])
        c = 1j**ph_c
        d = 1j * (1j**ph_c) * (1j**ph_d)
        for creation, sign in ((False, 1j), (True, -1j)):
            row = 2 * j + creation
            coeffs[row] = 0.5 * c, 0.5 * sign * d
            x[row] = xc, xd
            z[row] = zc, zd
        parity ^= occupation[j]
    return coeffs, x, z


def _merge_in_order(keys: tuple[np.ndarray, ...], values: np.ndarray):
    """Merge the values that share every key, as a dict filled in input order.

    Returns (first, merged): the input index of each distinct key's first
    occurrence, increasing, and that key's values added from 0 in input
    order by np.add.at, as `acc[k] = acc.get(k, 0.0) + v` adds them.
    """
    order = np.lexsort(keys)  # stable: a key's first occurrence leads its run
    head = np.zeros(len(order), dtype=bool)
    head[:1] = True
    for key in keys:
        k = key[order]
        head[1:] |= k[1:] != k[:-1]
    is_first = np.zeros(len(order), dtype=bool)
    is_first[order[head]] = True
    rank = np.cumsum(is_first) - 1  # a first occurrence's place among them
    slot = np.empty(len(order), dtype=np.intp)
    slot[order] = rank[order[head]][np.cumsum(head) - 1]
    merged = np.zeros(np.count_nonzero(head), dtype=values.dtype)
    np.add.at(merged, slot, values)
    return np.flatnonzero(is_first), merged


def _multiply_out(rows: np.ndarray, coeffs: np.ndarray, factors):
    """Multiply out ladder strings of one length, one ladder position at a time.

    rows[s, k] is the factor row (2 * mode + creation) of string s at
    position k. Each position takes every word of every string times the
    factor's two words, word-major as the dict loop iterates, and merges a
    string's colliding words in first-occurrence order. Two words of one
    string collide only when the position's mode stood earlier in it (the
    Majorana words of distinct modes are independent), so other positions
    skip the merge. Returns (string, x, z, value) of every merged word,
    string-major.
    """
    fc, fx, fz = (a.ravel() for a in factors)
    fy = np.bitwise_count(fx & fz)
    modes = rows >> 1
    string = np.arange(len(rows))
    x = np.zeros(len(rows), dtype=np.uint64)
    z = np.zeros(len(rows), dtype=np.uint64)
    value = coeffs.astype(complex)
    for k in range(rows.shape[1]):
        string = np.repeat(string, 2)
        w = 2 * rows[string, k] + (np.arange(len(string)) & 1)
        xa, za, ca = np.repeat(x, 2), np.repeat(z, 2), np.repeat(value, 2)
        x, z = xa ^ fx[w], za ^ fz[w]
        # mask_product's phase; uint8 wraps mod 256, a multiple of 4
        phase = (
            np.bitwise_count(xa & za) + fy[w] - np.bitwise_count(x & z)
            + 2 * np.bitwise_count(za & fx[w])
        ) & 3
        value = ca * fc[w] * _I_POWERS[phase]
        repeats = np.flatnonzero((modes[string, :k] == modes[string, k, None]).any(axis=1))
        if len(repeats):
            first, merged = _merge_in_order((x[repeats], z[repeats], string[repeats]),
                                            value[repeats])
            keep = np.ones(len(string), dtype=bool)
            keep[repeats] = False
            keep[repeats[first]] = True
            value[repeats[first]] = merged
            string, x, z, value = string[keep], x[keep], z[keep], value[keep]
    return string, x, z, value


def encode(op: FermionOperator, mapping: str, n_modes: int) -> PauliSum:
    """Encode a Hermitian FermionOperator as a real-coefficient PauliSum.

    The register has one qubit per spin-orbital, n_modes in all (twice the
    FCIDUMP's NORB), whether or not every mode appears in op. The operator's
    modes are already in the run's spin-orbital order. The ladder strings
    are read into arrays once and multiplied out on (x, z) masks, all
    strings of one length together, one two-word ladder factor at a time.

    Every product is exact: a factor's coefficient is 0.5 times {+-1, +-i}
    and the phase a power of i, so a product only scales by 0.5 and swaps or
    negates parts. Only the order of the additions can move a bit, and it
    is a dict encoder's: a string's colliding words merge position by
    position in first-occurrence order, then each word's contributions add
    from 0 in op.terms order, string by string.
    """
    if not op.is_hermitian():
        raise EncodingError("refusing to encode a non-Hermitian operator")
    ladders = list(op.terms)
    lengths = np.fromiter(map(len, ladders), dtype=np.intp, count=len(ladders))
    flat = np.fromiter(chain.from_iterable(chain.from_iterable(ladders)), dtype=np.intp)
    modes = flat[0::2]
    if len(modes) and modes.max() >= n_modes:
        raise EncodingError(f"mode {modes.max()} is beyond the {n_modes}-mode register")
    if len(modes) and modes.min() < 0:
        raise EncodingError(f"mode {modes.min()} is negative")

    factors = _ladder_factors(mapping, n_modes)
    rows = 2 * modes + flat[1::2]  # (mode, creation) -> factor row
    starts = np.cumsum(lengths) - lengths
    coeffs = np.fromiter(op.terms.values(), dtype=float, count=len(ladders))
    parts = [(np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.uint64),
              np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=complex))]
    for length in np.unique(lengths):
        strings = np.flatnonzero(lengths == length)
        string, x, z, value = _multiply_out(
            rows[starts[strings, None] + np.arange(length)], coeffs[strings], factors
        )
        parts.append((strings[string], x, z, value))
    owner, x, z, value = (np.concatenate(a) for a in zip(*parts))
    order = np.argsort(owner, kind="stable")  # op.terms order, each string's words in order
    x, z = x[order], z[order]
    first, merged = _merge_in_order((x, z), value[order])
    # |imag| > 1e-9 implies |c| > COEFF_CUTOFF: such a term is never dropped
    bad = np.flatnonzero(np.abs(merged.imag) > 1e-9)
    if len(bad):
        raise EncodingError(
            f"non-real coefficient {merged[bad[0]]} survived encoding a Hermitian operator"
        )
    return PauliSum(n_modes, merged.real, x[first], z[first])


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
