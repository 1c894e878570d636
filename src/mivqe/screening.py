"""Entangler pools and mutual-information screening.

The pool is every Pauli word with an odd number of Y factors (the even-Y
words commute with a real Hamiltonian and can never lower the energy), in
the canonical (z_mask, x_mask) order. A word's correlation strength is the
average pair MI over its support, and its percentile is the fraction of the
baseline pool at least as strong, ties counted inclusively.

Both depend only on the word's support mask, so every percentile is counted
on one table of 2^m support strengths (support_strengths): the baseline pool
is the whole odd-Y pool of an m-qubit register, with (3^L - 1)/2 words on
each support of L qubits. percentile_of_strengths maps a support table of
strengths to a support table of percentiles, and that table is the only
form a percentile takes outside this module: a word reads its entry by its
support mask x | z. A run gathers a table only for the words it needs (the
acceptable ones of a step), so it holds no float per pool word. Screening
turns a table into a keep table of supports, and only the kept words are built.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .pauli import format_factor_lists


# (z, x) mask pairs per block of generate_pool
POOL_BLOCK = 1 << 16
# words per block of pool text: a block's string arrays take a few MB
TEXT_BLOCK = 1 << 13
# pool masks are uint16: one bit per qubit
POOL_MASK_DTYPE = np.uint16
POOL_MAX_QUBITS = np.iinfo(POOL_MASK_DTYPE).bits


class ScreeningError(ValueError):
    pass


def pool_size(n_qubits: int) -> int:
    """Closed form (4^n - 2^n) / 2 for the odd-Y pool."""
    return (4**n_qubits - 2**n_qubits) // 2


def _check_pool_register(n_qubits: int) -> None:
    if not 1 <= n_qubits <= POOL_MAX_QUBITS:
        raise ScreeningError(
            f"pool masks hold 1 to {POOL_MAX_QUBITS} qubits, got {n_qubits}"
        )


@dataclass(frozen=True, eq=False)
class EntanglerPool:
    """Pool words as parallel uint16 x/z mask arrays, in pool order (n <= 16).

    The arrays are all that scoring, selection, screening and pool text
    read; a word's strength and percentile are read from 2^n support tables
    at x | z, so the pool holds 4 bytes per word. Word i is the mask pair
    (x[i], z[i]); no word becomes an object.
    """

    n_qubits: int
    x: np.ndarray
    z: np.ndarray
    provenance: str = "original"

    def __post_init__(self):
        _check_pool_register(self.n_qubits)
        if self.x.dtype != POOL_MASK_DTYPE or self.z.dtype != POOL_MASK_DTYPE:
            raise ScreeningError(
                f"pool masks must be uint16, got {self.x.dtype} and {self.z.dtype}"
            )
        if self.x.ndim != 1 or self.x.shape != self.z.shape:
            raise ScreeningError("pool x and z masks must be 1-D arrays of equal length")

    def __len__(self) -> int:
        return len(self.x)

    def blocks(self) -> Iterator["EntanglerPool"]:
        """The pool as consecutive sub-pools of TEXT_BLOCK words."""
        for start in range(0, len(self), TEXT_BLOCK):
            end = start + TEXT_BLOCK
            yield EntanglerPool(self.n_qubits, self.x[start:end], self.z[start:end])

    def to_text(self) -> Iterator[str]:
        """The pool file, a block of words at a time: two header lines, then a word a line."""
        yield f"# pool provenance: {self.provenance}\nqubits: {self.n_qubits}\n"
        for block in self.blocks():
            factors = format_factor_lists(block.n_qubits, block.x, block.z)
            yield "\n".join(factors.tolist()) + "\n"


def generate_pool(n_qubits: int, keep=None, provenance: str = "original") -> EntanglerPool:
    """The odd-Y Pauli words on n qubits on the supports keep holds, in canonical order.

    keep is screen_pool's 2^n boolean support table; None keeps all, the
    whole pool. The Y count of (x, z) is |x & z|, so row z > 0 holds the x
    with odd[z & x] and keep[z | x], found POOL_BLOCK (z, x) pairs at a time
    into masks of the exact size sum keep * (3^L - 1) / 2.
    """
    _check_pool_register(n_qubits)
    size = 1 << n_qubits
    k = np.arange(size, dtype=POOL_MASK_DTYPE)
    odd = (np.bitwise_count(k) & 1).astype(bool)
    counts = odd_y_multiplicities(n_qubits)
    x = np.empty(counts.sum() if keep is None else counts[keep].sum(), dtype=POOL_MASK_DTYPE)
    z = np.empty_like(x)
    step = max(1, POOL_BLOCK // size)
    filled = 0
    for start in range(1, size, step):
        zs = k[start : start + step]
        kept = odd[zs[:, None] & k]
        if keep is not None:
            kept &= keep[zs[:, None] | k]
        end = filled + np.count_nonzero(kept)
        x[filled:end] = np.broadcast_to(k, kept.shape)[kept]
        z[filled:end] = np.repeat(zs, np.count_nonzero(kept, axis=1))
        filled = end
    return EntanglerPool(n_qubits, x, z, provenance)


def odd_y_multiplicities(n_qubits: int) -> np.ndarray:
    """Odd-Y words per support mask: (3^L - 1) / 2 for a support of L qubits.

    Each support qubit carries X, Y or Z, and half of the 3^L - 1 non-balanced
    choices have an odd Y count; the entries sum to pool_size(n_qubits).
    """
    weights = np.bitwise_count(np.arange(1 << n_qubits, dtype=np.uint64)).astype(np.int64)
    return (3**weights - 1) // 2


def _mi_entries(mi) -> np.ndarray:
    entries = getattr(mi, "entries", mi)
    return np.asarray(entries, dtype=float)


def support_strengths(n_qubits: int, mi) -> np.ndarray:
    """Correlation strength of every support mask on n qubits (2^n entries).

    A support of L >= 2 qubits averages the MI over its L(L-1)/2 pairs: each
    mask's sum starts at 0.0 and adds its pairs (a < b) in lexicographic
    order, then doubles and divides by L(L-1). Supports of fewer than two
    qubits have strength 0. mi must be an n x n matrix.
    """
    entries = _mi_entries(mi)
    n = n_qubits
    if entries.shape[0] != n:
        raise ScreeningError(f"MI matrix is for {entries.shape[0]} qubits, the pool needs {n}")
    masks = np.arange(1 << n)
    on = [((masks >> q) & 1).astype(bool) for q in range(n)]
    total = np.zeros(1 << n)
    for a in range(n):
        for b in range(a + 1, n):
            total[on[a] & on[b]] += entries[a, b]
    weights = np.bitwise_count(masks)
    return 2.0 * total / np.maximum(weights * (weights - 1), 1)


def pool_strengths(pool: EntanglerPool, table: np.ndarray) -> np.ndarray:
    """Each word's entry in a 2^n support table, read by its support mask.

    With table = support_strengths(pool.n_qubits, mi) these are the words'
    strengths; with a percentile table, their percentiles. The result has
    one entry per pool word, so a run never calls this: it gathers a table
    for the words it needs (see adaptive.select_entangler).
    """
    if len(table) != 1 << pool.n_qubits:
        raise ScreeningError(f"a {pool.n_qubits}-qubit pool needs a 2^{pool.n_qubits}-entry table")
    return table[pool.x | pool.z]


def percentile_of_strengths(table: np.ndarray, baseline_table: np.ndarray) -> np.ndarray:
    """percentile(c) = |{baseline words with strength >= c}| / pool_size(m), ties inclusive.

    Both arguments are support tables: the percentile of each of table's
    supports is counted against baseline_table, the 2^m table of the
    baseline register, whose pool has odd_y_multiplicities(m) words on each
    support.
    """
    m = len(baseline_table).bit_length() - 1
    order = np.argsort(baseline_table, kind="stable")
    baseline = baseline_table[order]
    # at_least[i] = words with strength >= baseline[i]; at_least[2^m] = 0
    at_least = np.concatenate([np.cumsum(odd_y_multiplicities(m)[order][::-1])[::-1], [0]])
    counts = at_least[np.searchsorted(baseline, table, side="left")]
    return counts / pool_size(m)


def _average_ranks(table: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Each entry's 1-based average rank among its table's words.

    The words are table[i] repeated weights[i] times; tied words share the
    mean of the ranks they span.
    """
    values, group = np.unique(table, return_inverse=True)
    counts = np.bincount(group, weights=weights, minlength=len(values))
    return (np.cumsum(counts) - (counts - 1.0) / 2.0)[group]


def pool_spearman(table_a: np.ndarray, table_b: np.ndarray, n_qubits: int) -> float | None:
    """Spearman rank correlation of two support tables over the odd-Y pool.

    Each support stands for its odd_y_multiplicities(n_qubits) words, so this
    is the correlation of the two per-word strength vectors, with average
    ranks for ties, computed on 2^n entries instead of pool_size(n). None
    when either side is constant over the pool (no rank correlation).
    """
    weights = odd_y_multiplicities(n_qubits)
    words = weights > 0
    a, b, weights = table_a[words], table_b[words], weights[words]
    if np.ptp(a) == 0.0 or np.ptp(b) == 0.0:
        return None
    # the average ranks of any pool of N words have mean (N + 1) / 2
    middle = (weights.sum() + 1) / 2.0
    da = _average_ranks(a, weights) - middle
    db = _average_ranks(b, weights) - middle
    return float(
        np.sum(weights * da * db)
        / np.sqrt(np.sum(weights * da * da) * np.sum(weights * db * db))
    )


def screen_pool(table: np.ndarray, p_cut: float) -> tuple[np.ndarray, str]:
    """generate_pool's keep table and provenance for the words whose percentile <= p_cut.

    table is the register's support table of strengths, so the percentile
    counts the register's whole odd-Y pool. Boundary ties are all kept. A
    cut that keeps no word is refused before any pool is built.
    """
    if not (0.0 < p_cut <= 1.0):
        raise ScreeningError("p_cut must lie in (0, 1]")
    pct = percentile_of_strengths(table, table)
    keep = pct <= p_cut
    # every support but 0 holds a word
    if not keep[1:].any():
        raise ScreeningError(
            f"screening at p_cut={p_cut} leaves an empty pool "
            f"(minimum achievable percentile is {pct.min():.3g})"
        )
    return keep, f"screened(p_cut={p_cut:.12g})"


def screening_report_csv(
    pool: EntanglerPool, table: np.ndarray, p_cut: float | None = None
) -> Iterator[str]:
    """One row per pool word: strength, percentile within the register's pool, kept flag.

    The three columns depend only on the word's support, so they are
    formatted once per support mask and gathered by each word's. The text
    comes a block of words at a time.
    """
    pct = percentile_of_strengths(table, table)
    columns = np.array([
        f",{c:.12g},{p:.12g},{'' if p_cut is None else int(p <= p_cut)}"
        for c, p in zip(table, pct)
    ])
    yield "word,strength,percentile,kept\n"
    for block in pool.blocks():
        factors = format_factor_lists(block.n_qubits, block.x, block.z)
        rows = np.strings.add(factors, pool_strengths(block, columns))
        yield "\n".join(rows.tolist()) + "\n"
