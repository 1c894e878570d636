"""Entangler pool generation, correlation strengths, percentiles, screening."""

import tracemalloc

import numpy as np
import pytest

import mivqe.screening
from mivqe.pauli import PauliError, parse_pauli_sum
from mivqe.reference import MIMatrix
from mivqe.screening import (
    POOL_MAX_QUBITS,
    TEXT_BLOCK,
    EntanglerPool,
    ScreeningError,
    generate_pool,
    odd_y_multiplicities,
    percentile_of_strengths,
    pool_size,
    pool_spearman,
    pool_strengths,
    screen_pool,
    screening_report_csv,
    support_strengths,
)

from helpers import (
    PauliWord,
    correlation_strength,
    is_identity,
    per_factor_factor_list,
    per_mask_support_strengths,
    per_word_percentiles,
    pool_from_text,
    pool_word,
    pool_words,
    screen_after_build,
    sort_key,
    tiled_pool_masks,
)


def mi_from_entries(entries):
    return MIMatrix(np.asarray(entries, dtype=float))


def random_mi(rng, n, high=1.0):
    entries = rng.uniform(0, high, size=(n, n))
    entries = 0.5 * (entries + entries.T)
    np.fill_diagonal(entries, 0.0)
    return mi_from_entries(entries)


def test_pool_size_closed_form():
    for n in range(1, 9):
        pool = generate_pool(n)
        assert len(pool) == pool_size(n) == (4**n - 2**n) // 2


def test_pool_n1_is_just_y():
    pool = generate_pool(1)
    assert len(pool) == 1
    assert pool_word(pool, 0) == PauliWord.from_label("Y")


def test_paper_pool_sizes():
    assert pool_size(4) == 120
    assert pool_size(5) == 496
    assert pool_size(6) == 2016
    assert pool_size(7) == 8128
    assert pool_size(8) == 32640


def test_pool_words_all_odd_y_unique_canonical():
    pool = generate_pool(3)
    assert all(w.y_count % 2 == 1 for w in pool_words(pool))
    assert len(set(pool_words(pool))) == len(pool)
    keys = [sort_key(w) for w in pool_words(pool)]
    assert keys == sorted(keys)
    assert not any(is_identity(w) for w in pool_words(pool))


@pytest.mark.parametrize("n", range(1, 11))
def test_pool_equals_the_filtered_tiled_masks(n):
    """generate_pool keeps the order of the pool filtered out of all 4^n
    (x, z) pairs, as uint16 masks, also when its blocks split the z rows."""
    pool = generate_pool(n)
    x, z = tiled_pool_masks(n)
    assert pool.x.dtype == pool.z.dtype == np.uint16
    assert np.array_equal(pool.x, x) and np.array_equal(pool.z, z)


def test_pool_registers_beyond_the_uint16_masks_are_refused_before_allocation(monkeypatch):
    """n > 16 (or n < 1) is refused before generate_pool sizes anything by
    n; a 17-qubit pool would hold 2^33 words."""

    def refuse(*args, **kwargs):
        raise AssertionError("generate_pool allocated before its register check")

    monkeypatch.setattr(np, "arange", refuse)
    for n in (0, POOL_MAX_QUBITS + 1):
        with pytest.raises(ScreeningError, match="pool masks hold 1 to 16 qubits"):
            generate_pool(n)
    empty = np.zeros(0, dtype=np.uint16)
    with pytest.raises(ScreeningError, match="pool masks hold 1 to 16 qubits"):
        EntanglerPool(POOL_MAX_QUBITS + 1, empty, empty)


@pytest.mark.parametrize("dtype", [np.uint64, np.int64, np.uint32, np.int16, np.uint8])
def test_pool_masks_must_be_uint16(dtype):
    masks = np.array([1, 3], dtype=np.uint16)
    with pytest.raises(ScreeningError, match="pool masks must be uint16"):
        EntanglerPool(2, masks.astype(dtype), masks)
    with pytest.raises(ScreeningError, match="pool masks must be uint16"):
        EntanglerPool(2, masks, masks.astype(dtype))


def screened(n, table, p_cut):
    return generate_pool(n, *screen_pool(table, p_cut))


def test_screened_pool_memory_at_12_qubits():
    """A screened build allocates the kept words' masks at their exact size
    and one block of (z, x) pairs besides: ~1.9 MiB traced for 416,305 words
    at p_cut = 0.05, where building the whole pool and filtering it peaked
    at ~56 MiB."""
    n = 12
    rng = np.random.default_rng(74)
    entries = np.triu(rng.random((n, n)), 1)
    table = support_strengths(n, entries + entries.T)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        pool = screened(n, table, 0.05)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(pool) == 416_305
    assert peak < 4 * len(pool) + 2**20, f"{peak / 2**20:.2f} MiB"


@pytest.mark.parametrize("n", range(1, 13))
def test_screen_first_equals_build_then_filter(n):
    """generate_pool on screen_pool's keep table gives the words, order,
    provenance and exact up-front count of the whole pool filtered word by
    word. Cuts are random, at a percentile (a boundary tie) and at 1; MI
    entries from a few levels make strengths tie at the cut."""
    rng = np.random.default_rng(80 + n)
    for levels in (rng.random(6), rng.choice([0.125, 0.25, 0.5], size=3)):
        entries = np.triu(rng.choice(levels, size=(n, n)), 1)
        table = support_strengths(n, entries + entries.T)
        pct = percentile_of_strengths(table, table)
        for p_cut in (*rng.uniform(0, 0.3, size=2), rng.choice(pct), 1.0):
            try:
                expected = screen_after_build(n, table, p_cut)
            except ScreeningError:
                with pytest.raises(ScreeningError, match="leaves an empty pool"):
                    screen_pool(table, p_cut)
                continue
            keep, provenance = screen_pool(table, p_cut)
            pool = generate_pool(n, keep, provenance)
            assert pool.x.tobytes() == expected.x.tobytes()
            assert pool.z.tobytes() == expected.z.tobytes()
            assert pool.provenance == expected.provenance
            assert len(pool) == odd_y_multiplicities(n)[keep].sum()


def test_whole_pool_is_the_keep_none_case():
    n = 6
    keep = np.ones(1 << n, dtype=bool)
    full, kept_all = generate_pool(n), generate_pool(n, keep, "all")
    assert np.array_equal(full.x, kept_all.x) and np.array_equal(full.z, kept_all.z)
    assert (full.provenance, kept_all.provenance) == ("original", "all")
    assert len(generate_pool(n, ~keep)) == 0


@pytest.mark.parametrize("p_cut", [0.0, -0.1, 1.5, float("nan")])
def test_screen_pool_refuses_a_cut_outside_the_unit_interval(p_cut):
    with pytest.raises(ScreeningError, match="p_cut must lie in"):
        screen_pool(np.zeros(8), p_cut)


def test_correlation_strength_single_pair():
    mi = mi_from_entries([[0.0, 0.8], [0.8, 0.0]])
    word = PauliWord.from_label("XY")
    assert abs(correlation_strength(word, mi) - 0.8) < 1e-15


def test_correlation_strength_three_qubits():
    entries = np.zeros((3, 3))
    entries[0, 1] = entries[1, 0] = 0.2
    entries[0, 2] = entries[2, 0] = 0.4
    entries[1, 2] = entries[2, 1] = 0.6
    mi = mi_from_entries(entries)
    word = PauliWord.from_label("XYZ")
    assert abs(correlation_strength(word, mi) - 0.4) < 1e-15


def test_correlation_strength_single_qubit_is_zero():
    mi = mi_from_entries(np.zeros((2, 2)))
    assert correlation_strength(PauliWord.from_label("YI"), mi) == 0.0


def test_pool_strengths_match_scalar_path():
    rng = np.random.default_rng(61)
    n = 4
    mi = random_mi(rng, n)
    pool = generate_pool(n)
    fast = pool_strengths(pool, support_strengths(n, mi))
    slow = np.array([correlation_strength(w, mi) for w in pool_words(pool)])
    assert np.array_equal(fast, slow)


@pytest.mark.parametrize("n", range(1, 13))
def test_support_table_equals_per_mask_sum(n):
    """The vectorized table adds each mask's pairs in the per-mask order, bit
    for bit, also when 3-digit MI entries make strengths tie across supports."""
    rng = np.random.default_rng(70 + n)
    for entries in (rng.random((n, n)), rng.choice([0.125, 0.25, 0.5], size=(n, n))):
        entries = np.round(np.triu(entries, 1), 3)
        entries = entries + entries.T
        assert support_strengths(n, entries).tobytes() == per_mask_support_strengths(
            n, entries
        ).tobytes()


def test_support_table_size_is_checked():
    pool = generate_pool(3)
    for size in (4, 16):
        with pytest.raises(ScreeningError, match="2\\^3-entry table"):
            pool_strengths(pool, np.zeros(size))


def test_multiplicities_count_the_pool():
    for n in range(1, 7):
        pool = generate_pool(n)
        support = (pool.x | pool.z).astype(np.intp)
        assert np.array_equal(np.bincount(support, minlength=1 << n), odd_y_multiplicities(n))


def test_percentile_example():
    # 2 qubits: Y0 and Y1 alone on supports 1 and 2, four words on support 3;
    # support 0 holds no word, so its entry never counts
    table = np.array([5.0, 0.9, 0.5, 0.1])
    pct = percentile_of_strengths(np.array([0.9, 0.5, 0.3, 0.1, 0.0]), table)
    assert np.array_equal(pct, np.array([1, 2, 2, 6, 6]) / 6)


def test_percentile_full_tie():
    table = np.full(1 << 4, 0.3)
    pool = generate_pool(4)
    pct = percentile_of_strengths(pool_strengths(pool, table), table)
    assert np.array_equal(pct, np.ones(len(pool)))


def test_percentile_monotonicity_random():
    rng = np.random.default_rng(62)
    pool = generate_pool(3)
    for _ in range(50):
        table = rng.uniform(0, 1, size=1 << 3)
        strengths = pool_strengths(pool, table)
        pct = percentile_of_strengths(strengths, table)
        order = np.argsort(-strengths)
        for a, b in zip(order[:-1], order[1:]):
            if strengths[a] > strengths[b]:
                assert pct[a] < pct[b]
            else:
                assert pct[a] == pct[b]


def test_percentile_of_maximum():
    rng = np.random.default_rng(63)
    n = 5
    table = rng.uniform(0, 1, size=1 << n)
    top = [3, 17, 29]
    table[top] = 2.0
    pct = percentile_of_strengths(table[top], table)
    expected = odd_y_multiplicities(n)[top].sum() / pool_size(n)
    assert np.array_equal(pct, np.full(3, expected))


def test_screen_pool_noop_and_top_word():
    rng = np.random.default_rng(64)
    n = 3
    mi = random_mi(rng, n)
    pool = generate_pool(n)
    table = support_strengths(n, mi)

    strengths = pool_strengths(pool, table)
    assert pool_words(screened(n, table, 1.0)) == pool_words(pool)

    top = strengths.max()
    n_top = int((strengths == top).sum())
    top_words = screened(n, table, n_top / len(pool))
    assert all(
        correlation_strength(w, mi) == top for w in pool_words(top_words)
    )
    assert len(top_words) == n_top


def test_screen_pool_brute_force_set():
    rng = np.random.default_rng(65)
    n = 4
    mi = random_mi(rng, n, high=0.9)
    pool = generate_pool(n)
    slow = [correlation_strength(w, mi) for w in pool_words(pool)]
    # percentile by direct count: share of the pool at least as strong
    pct = {w: sum(s >= c for s in slow) / len(pool) for w, c in zip(pool_words(pool), slow)}
    for p_cut in (0.05, 0.2, 0.5, 0.9):
        words = pool_words(screened(n, support_strengths(n, mi), p_cut))
        kept = [i for i, w in enumerate(pool_words(pool)) if pct[w] <= p_cut]
        assert words == tuple(pool_word(pool, i) for i in kept)
        # canonical order preserved
        keys = [sort_key(w) for w in words]
        assert keys == sorted(keys)


def test_screening_monotonicity():
    rng = np.random.default_rng(66)
    n = 3
    pool = generate_pool(n)
    table = support_strengths(n, random_mi(rng, n, high=0.9))
    p_min = percentile_of_strengths(pool_strengths(pool, table), table).min()
    previous: set = set()
    for p_cut in (p_min, 0.3, 0.6, 1.0):
        kept = set(pool_words(screened(n, table, p_cut)))
        assert previous <= kept
        previous = kept


def test_mi_scaling_covariance():
    rng = np.random.default_rng(67)
    n = 4
    entries = random_mi(rng, n, high=0.5).entries
    pool = generate_pool(n)
    base_table = support_strengths(n, entries)
    base = pool_strengths(pool, base_table)
    for factor in (0.25, 2.0):
        table = support_strengths(n, entries * factor)
        scaled = pool_strengths(pool, table)
        assert np.allclose(scaled, base * factor, rtol=1e-12)
        pct_base = percentile_of_strengths(base, base_table)
        pct_scaled = percentile_of_strengths(scaled, table)
        assert np.array_equal(pct_base, pct_scaled)


@pytest.mark.parametrize("seed", range(24))
def test_table_percentiles_equal_per_word_count(seed):
    """Support-table percentiles and screening equal a count over one
    strength per word, bit for bit, for both baselines. MI entries drawn
    from three levels rounded to 3 digits make strengths tie across
    supports."""
    rng = np.random.default_rng(seed)
    n_encoded = int(rng.integers(2, 7))
    n = int(rng.integers(2, n_encoded + 1))
    stationary = set(rng.choice(n_encoded, n_encoded - n, replace=False).tolist())
    index_map = {q: i for i, q in enumerate(q for q in range(n_encoded) if q not in stationary)}
    entries = rng.choice(np.round(rng.uniform(0, 1, size=3), 3), size=(n, n))
    entries = np.triu(entries, 1) + np.triu(entries, 1).T
    mi = mi_from_entries(entries)
    pool = generate_pool(n)
    table = support_strengths(n, mi)
    strengths = pool_strengths(pool, table)
    word_strengths = np.array([correlation_strength(w, mi) for w in pool_words(pool)])
    assert np.array_equal(strengths, word_strengths)

    pct = percentile_of_strengths(strengths, table)
    assert np.array_equal(pct, per_word_percentiles(word_strengths, word_strengths))

    lifted = mi.embedded(index_map, n_encoded)
    encoded_pool = pool_words(generate_pool(n_encoded))
    encoded_words = [correlation_strength(w, lifted) for w in encoded_pool]
    pct_unreduced = percentile_of_strengths(strengths, support_strengths(n_encoded, lifted))
    assert np.array_equal(pct_unreduced, per_word_percentiles(word_strengths, encoded_words))

    # every distinct percentile is a boundary p_cut, plus a cut between two
    for p_cut in [*np.unique(pct), float(np.mean(np.unique(pct)[:2]))]:
        expected = np.flatnonzero(per_word_percentiles(word_strengths, word_strengths) <= p_cut)
        if not len(expected):
            with pytest.raises(ScreeningError):
                screen_pool(table, p_cut)
            continue
        assert pool_words(screened(n, table, p_cut)) == tuple(pool_word(pool, i) for i in expected)


def test_pool_spearman_equals_spearmanr_over_the_repeated_pool():
    """Average ranks weighted by the odd-Y multiplicities give the Spearman
    correlation of the per-word strengths (each support's entry repeated
    once per word on it) without building them."""
    from scipy.stats import spearmanr

    rng = np.random.default_rng(33)
    undefined = 0
    for _ in range(120):
        n = int(rng.integers(1, 9))
        # few levels, so that strengths tie within and across supports
        a = rng.integers(0, int(rng.integers(1, 6)) + 1, size=2**n) / 7.0
        noise = rng.normal(size=2**n) * rng.choice([0.0, 0.1, 1.0])
        b = np.round(a + noise, int(rng.integers(0, 3)))
        repeats = odd_y_multiplicities(n)
        A, B = np.repeat(a, repeats), np.repeat(b, repeats)
        got = pool_spearman(a, b, n)
        if np.ptp(A) == 0.0 or np.ptp(B) == 0.0:
            assert got is None
            undefined += 1
        else:
            assert abs(got - spearmanr(A, B).statistic) <= 1e-12
    assert undefined
    # the empty support holds no word, so its entry never counts
    a = np.zeros(8)
    a[0] = 1.0
    assert pool_spearman(a, np.arange(8.0), 3) is None


def test_screen_pool_empty_raises():
    mi = mi_from_entries(np.zeros((2, 2)))
    # all strengths tie at 0, so every percentile is 1.0
    with pytest.raises(ScreeningError, match="minimum achievable percentile is 1"):
        screen_pool(support_strengths(2, mi), 0.5)


def test_pool_text_round_trip():
    pool = generate_pool(3)
    back = pool_from_text("".join(pool.to_text()))
    assert pool_words(back) == pool_words(pool)
    assert back.n_qubits == 3


def test_pool_import_rejects_invalid_words():
    with pytest.raises(ScreeningError):
        pool_from_text("qubits: 2\nX0 X1\n")  # even Y count
    with pytest.raises(ScreeningError):
        pool_from_text("qubits: 2\nY0\nY0\n")  # duplicate


@pytest.mark.parametrize("parse, error", [
    (parse_pauli_sum, PauliError),
    (pool_from_text, ScreeningError),
], ids=["pauli_sum", "pool"])
def test_non_integer_qubits_header_raises_typed_error(parse, error):
    with pytest.raises(error, match="qubits header"):
        parse("qubits: abc\n")


def test_screening_report_csv():
    rng = np.random.default_rng(68)
    n = 2
    entries = np.array([[0.0, 0.4], [0.4, 0.0]])
    pool = generate_pool(n)
    csv = "".join(
        screening_report_csv(pool, support_strengths(n, mi_from_entries(entries)), p_cut=0.5)
    )
    lines = csv.strip().splitlines()
    assert lines[0] == "word,strength,percentile,kept"
    assert len(lines) == len(pool) + 1


@pytest.mark.parametrize("block", [TEXT_BLOCK, 7])
@pytest.mark.parametrize("p_cut", [None, 0.3])
def test_pool_text_and_report_stream_from_masks(block, p_cut, monkeypatch):
    """Pool text and the report come from the mask arrays a block at a time;
    each line is the per-word text of one word."""
    rng = np.random.default_rng(69)
    n = 5
    pool = generate_pool(n)
    table = support_strengths(n, random_mi(rng, n, high=0.9))
    monkeypatch.setattr(mivqe.screening, "TEXT_BLOCK", block)
    text = list(pool.to_text())
    report = list(screening_report_csv(pool, table, p_cut))
    assert len(text) == len(report) == 1 + -(-len(pool) // block)
    words = pool_words(pool)
    factors = [per_factor_factor_list(w) for w in words]
    assert "".join(text) == "\n".join(
        [f"# pool provenance: {pool.provenance}", f"qubits: {n}", *factors]
    ) + "\n"
    strengths = pool_strengths(pool, table)
    pct = pool_strengths(pool, percentile_of_strengths(table, table))
    rows = [
        f"{f},{c:.12g},{p:.12g},{'' if p_cut is None else str(int(p <= p_cut))}"
        for f, c, p in zip(factors, strengths, pct)
    ]
    assert "".join(report) == "\n".join(["word,strength,percentile,kept", *rows]) + "\n"
