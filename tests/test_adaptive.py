"""Entangler scoring, selection rule, joint optimization, adaptive loop."""

import tracemalloc

import numpy as np
import pytest
from scipy.optimize import OptimizeResult, minimize_scalar

from mivqe.adaptive import (
    SCORER_MAX_QUBITS,
    AdaptiveConfig,
    AdaptiveError,
    NoImprovingEntangler,
    PoolScorer,
    _fwht,
    _fwht_columns,
    _fwht_rows,
    _hadamard_signs,
    _tau_minimum,
    _xor_shifts,
    joint_optimize,
    run_adaptive,
    select_entangler,
)
from mivqe.encodings import encode, hf_reference
from mivqe.fcidump import load_fcidump
from mivqe.fermion import build_hamiltonian, hf_occupations
from mivqe.reference import exact_ground_state, mutual_information
from mivqe.screening import (
    EntanglerPool,
    generate_pool,
    percentile_of_strengths,
    support_strengths,
)
from mivqe.simulator import Ansatz, basis_state, compile_sum_action, energy_and_gradient

from helpers import (
    PauliWord,
    add_layer,
    apply_pauli_exponential,
    commutes,
    dense_sum,
    dense_word,
    expectation,
    fwht_radix2,
    gather_index_scores,
    pauli_sum,
    pool_from_words,
    pool_index,
    pool_scorer,
    pool_word,
    pool_words,
    random_state,
    random_word,
    score_entangler,
    sum_terms,
    term_sum_scores,
    weight,
    word_ansatz,
)
from conftest import FIXTURE_DIR
from test_encodings import hydrogen_like_integrals


def random_even_sum(rng, n, n_terms):
    terms = []
    while len(terms) < n_terms:
        w = random_word(rng, n)
        if w.y_count % 2 == 0:
            terms.append((float(rng.normal()), w))
    return pauli_sum(n, terms)


def real_random_state(rng, n):
    v = rng.normal(size=2**n)
    return (v / np.linalg.norm(v)).astype(complex)


def test_score_commuting_word_zero_descent():
    H = pauli_sum(2, [(0.7, PauliWord.from_label("ZZ"))])
    state = basis_state(2, [0, 0])
    word = PauliWord.from_label("YX")  # commutes with ZZ
    descent, _ = score_entangler(state, H, word)
    assert abs(descent) < 1e-12


def test_score_z_hamiltonian_y_word():
    H = pauli_sum(1, [(1.0, PauliWord.from_label("Z"))])
    descent, tau = score_entangler(basis_state(1, [0]), H, PauliWord.from_label("Y"))
    assert abs(descent - 2.0) < 1e-12
    assert abs(tau - np.pi / 2) < 1e-12


def test_score_matches_grid_scan_oracle():
    """Sinusoid-fit minimum vs a 1e4-point grid scan plus local refinement.

    The grid energies come from the explicitly rotated states
    cos(t) s - i sin(t) P s against the dense H, all in one product, so the
    scan shares neither the scorer nor the library's H action.
    """
    rng = np.random.default_rng(81)
    grid = np.linspace(-np.pi / 2, np.pi / 2, 10_001)
    for _ in range(60):
        n = int(rng.integers(1, 5))
        H = pauli_sum(n, [(rng.normal(), random_word(rng, n)) for _ in range(6)])
        if len(H) == 0:
            continue
        state = random_state(rng, n)
        word = random_word(rng, n, nontrivial=True)
        descent, tau_star = score_entangler(state, H, word)

        def energy_at(t):
            return expectation(apply_pauli_exponential(state, word, t), H)

        e0 = energy_at(0.0)
        rotated = (np.cos(grid)[:, None] * state
                   - 1j * np.sin(grid)[:, None] * (dense_word(word) @ state))
        grid_vals = np.einsum("gi,gi->g", rotated.conj(), rotated @ dense_sum(H).T).real
        k = int(np.argmin(grid_vals))
        lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, len(grid) - 1)]
        refined = minimize_scalar(energy_at, bounds=(lo, hi), method="bounded",
                                  options={"xatol": 1e-12})
        fitted_min = e0 - descent
        assert fitted_min <= grid_vals[k] + 1e-9
        assert abs(fitted_min - refined.fun) < 1e-9
        assert abs(energy_at(tau_star) - fitted_min) < 1e-9


def test_pool_scorer_matches_score_entangler():
    rng = np.random.default_rng(82)
    for n in (3, 4):
        H = random_even_sum(rng, n, 10)
        pool = generate_pool(n)
        scorer = pool_scorer(H, pool)
        state = real_random_state(rng, n)
        descents, taus, e0 = scorer.scores(state, np.zeros(1 << n), 0.3)
        assert abs(e0 - expectation(state, H)) < 1e-10
        for idx in rng.choice(len(pool), size=25, replace=False):
            d_ref, t_ref = score_entangler(state, H, pool_word(pool, idx))
            assert abs(descents[idx] - d_ref) < 1e-9
            assert abs(taus[idx] - t_ref) < 1e-9


def select_by_word_strengths(descents, strengths, descent_fraction):
    """select_entangler on a pool whose word i alone has support i + 1, so
    that the strength table gives word i strengths[i]."""
    m = len(strengths)
    n = m.bit_length()
    pool = EntanglerPool(
        n, np.arange(1, m + 1, dtype=np.uint16), np.zeros(m, dtype=np.uint16)
    )
    table = np.zeros(1 << n)
    table[1 : m + 1] = strengths
    return select_entangler(descents, pool, table, descent_fraction)


def test_select_entangler_rule():
    descents = np.array([1.0, 0.4, 0.2])
    strengths = np.array([0.1, 0.9, 0.99])
    chosen, count = select_by_word_strengths(descents, strengths, 0.3)
    assert chosen == 1  # 0.2 < 0.3 excludes the strongest word
    assert count == 2


def test_select_single_acceptable():
    chosen, count = select_by_word_strengths(np.array([1.0, 0.1]), np.array([0.2, 0.9]), 0.3)
    assert chosen == 0 and count == 1


def test_select_tie_breaking():
    # equal strengths: larger descent wins
    chosen, _ = select_by_word_strengths(
        np.array([0.5, 0.8, 0.8]), np.array([0.7, 0.7, 0.5]), 0.3
    )
    assert chosen == 1
    # full tie on strength and descent: canonical (lowest index) order
    chosen, _ = select_by_word_strengths(
        np.array([0.8, 0.8]), np.array([0.7, 0.7]), 0.3
    )
    assert chosen == 0


def test_select_brute_force_oracle():
    rng = np.random.default_rng(83)
    for _ in range(200):
        m = int(rng.integers(2, 40))
        descents = rng.normal(size=m)
        strengths = rng.uniform(0, 1, size=m)
        if descents.max() <= 0:
            with pytest.raises(NoImprovingEntangler):
                select_by_word_strengths(descents, strengths, 0.3)
            continue
        chosen, count = select_by_word_strengths(descents, strengths, 0.3)
        acceptable = [i for i in range(m) if descents[i] >= 0.3 * descents.max()]
        assert count == len(acceptable)
        best = max(acceptable, key=lambda i: (strengths[i], descents[i], -i))
        assert chosen == best


def test_select_raises_without_positive_descent():
    with pytest.raises(NoImprovingEntangler):
        select_by_word_strengths(np.array([0.0, -0.5]), np.array([0.3, 0.4]), 0.3)


def test_joint_optimize_single_layer_closed_form():
    rng = np.random.default_rng(84)
    n = 3
    H = random_even_sum(rng, n, 8)
    state = basis_state(n, [1, 0, 1])
    pool = generate_pool(n)
    scorer = pool_scorer(H, pool)
    descents, taus, e0 = scorer.scores(state, np.zeros(1 << n), 0.3)
    idx = int(np.argmax(descents))
    ansatz = word_ansatz(n, [1, 0, 1], [pool_word(pool, idx)], [taus[idx]])
    params, energy = joint_optimize(ansatz, compile_sum_action(H)[0], np.random.default_rng(1))
    assert abs(energy - (e0 - descents[idx])) < 1e-8


def test_joint_optimize_multi_layer_never_rises():
    rng = np.random.default_rng(85)
    n = 3
    H = random_even_sum(rng, n, 8)
    ansatz = Ansatz(n, [0, 1, 0])
    for _ in range(3):
        w = random_word(rng, n)
        while w.y_count % 2 == 0:
            w = random_word(rng, n)
        ansatz = add_layer(ansatz, w, float(rng.normal() * 0.1))
    e_start = expectation(ansatz.prepare(), H)
    params, energy = joint_optimize(ansatz, compile_sum_action(H)[0], np.random.default_rng(2))
    assert energy <= e_start + 1e-12


def test_joint_optimize_deterministic():
    rng = np.random.default_rng(86)
    n = 3
    H = random_even_sum(rng, n, 8)
    w = next(w for w in pool_words(generate_pool(n)) if weight(w) > 1)
    ansatz = word_ansatz(n, [0, 1, 0], [w], [0.3])
    h_action, _ = compile_sum_action(H)
    out1 = joint_optimize(ansatz, h_action, np.random.default_rng(5))
    out2 = joint_optimize(ansatz, h_action, np.random.default_rng(5))
    assert np.array_equal(out1[0], out2[0])
    assert out1[1] == out2[1]


def _molecule_problem(grouping="abab", mapping="jordan_wigner"):
    ints = hydrogen_like_integrals()
    op = build_hamiltonian(ints, grouping)
    H = encode(op, mapping, 2 * ints.n_orbitals)
    occ = hf_occupations(ints.n_orbitals, ints.n_electrons, ints.ms2, grouping)
    bits = hf_reference(mapping, occ)
    e_ref, state = exact_ground_state(H)
    mi = mutual_information(state)
    pool = generate_pool(H.n_qubits)
    table = support_strengths(H.n_qubits, mi)
    pct = percentile_of_strengths(table, table)
    return H, pool, table, pct, bits, e_ref, mi


def test_run_adaptive_converges_and_monotone():
    H, pool, table, pct, bits, e_ref, _ = _molecule_problem()
    report, ansatz = run_adaptive(
        H, pool, table, pct, bits, AdaptiveConfig(seed=11), reference_energy=e_ref
    )
    assert report.converged
    assert abs(report.final_energy - e_ref) <= 1e-3
    energies = [report.hf_energy] + report.energies
    assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))
    assert all(s.descent > 0 for s in report.steps)
    assert report.p_avg <= report.p_max <= 1.0
    assert 0.0 < report.p_avg
    # recorded taus match the returned ansatz
    assert [s.tau for s in report.steps] == ansatz.parameters


def test_run_adaptive_compiles_h_once_and_each_layer_once(monkeypatch):
    """One compiled H serves the HF energy, the scorer and every
    reoptimization; each adopted word's tables are built once, as its layer
    joins the ansatz, and reused by every later step."""
    import mivqe.adaptive
    import mivqe.simulator

    calls = {"compile_sum_action": 0, "_word_tables": 0}

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(module, name, counted)

    count(mivqe.adaptive, "compile_sum_action")
    count(mivqe.simulator, "_word_tables")
    n = 4
    H = random_even_sum(np.random.default_rng(91), n, 24)
    pool = generate_pool(n)
    cfg = AdaptiveConfig(max_steps=4)
    report, _ = run_adaptive(
        H, pool, np.zeros(1 << n), np.ones(1 << n), [1, 0, 1, 0], cfg
    )
    assert report.n_ent == 4
    assert calls == {"compile_sum_action": 1, "_word_tables": report.n_ent}


def test_run_adaptive_zero_steps_when_reference_is_ground():
    # diagonal H: the basis reference already is the ground state
    n = 3
    H = pauli_sum(n, [(1.0, PauliWord(n, 0, 1 << q)) for q in range(n)])
    pool = generate_pool(n)
    strengths = np.zeros(1 << n)
    pct = np.ones(1 << n)
    e_ref, _ = exact_ground_state(H)
    report, ansatz = run_adaptive(
        H, pool, strengths, pct, [1, 1, 1], AdaptiveConfig(), reference_energy=e_ref
    )
    assert report.converged
    assert report.n_ent == 0
    assert report.p_max is None and report.p_avg is None
    assert report.stop_reason == "reference state within tolerance"


def test_run_adaptive_no_improving_entangler():
    # the only pool word commutes with H: zero descent everywhere, and the
    # reference sits far from the ground energy
    n = 2
    H = pauli_sum(n, [(1.0, PauliWord(n, 0, 0b01))])  # Z0
    pool = pool_from_words(n, [PauliWord.from_label("IY")], "custom")
    report, _ = run_adaptive(
        H,
        pool,
        np.zeros(1 << n),
        np.ones(1 << n),
        [0, 0],
        AdaptiveConfig(),
        reference_energy=exact_ground_state(H)[0],
    )
    assert report.stop_reason == "no improving entangler"
    assert not report.converged


def test_run_adaptive_deterministic():
    H, pool, table, pct, bits, e_ref, _ = _molecule_problem("aabb", "parity")
    kwargs = dict(reference_energy=e_ref)
    r1, a1 = run_adaptive(H, pool, table, pct, bits, AdaptiveConfig(seed=4), **kwargs)
    r2, a2 = run_adaptive(H, pool, table, pct, bits, AdaptiveConfig(seed=4), **kwargs)
    assert r1.steps == r2.steps
    assert a1.parameters == a2.parameters


def test_run_adaptive_descent_stall_without_reference():
    H, pool, table, pct, bits, e_ref, _ = _molecule_problem()
    cfg = AdaptiveConfig(seed=11, max_steps=30)
    report, _ = run_adaptive(H, pool, table, pct, bits, cfg, reference_energy=None)
    assert report.converged
    assert report.stop_reason in ("descent stalled", "no improving entangler")
    # it should have reached (essentially) the ground state anyway
    assert report.final_energy - e_ref < 1e-4


def test_screening_equivalence_small_molecule():
    """Rerun with the screened pool at p_cut = p_max: identical step sequence."""
    from mivqe.screening import screen_pool

    H, pool, table, pct, bits, e_ref, mi = _molecule_problem()
    cfg = AdaptiveConfig(seed=9)
    full_report, _ = run_adaptive(
        H, pool, table, pct, bits, cfg, reference_energy=e_ref
    )
    assert full_report.converged
    p_cut = full_report.p_max + 1e-9
    screened = generate_pool(pool.n_qubits, *screen_pool(table, p_cut))
    scr_report, _ = run_adaptive(
        H, screened, table, pct, bits, cfg, reference_energy=e_ref
    )
    assert full_report.words == scr_report.words
    for a, b in zip(full_report.steps, scr_report.steps):
        assert abs(a.energy - b.energy) < 1e-8
        assert abs(a.tau - b.tau) < 1e-6


def _swap01(word):
    """word with the factors of qubits 0 and 1 exchanged."""

    def swap(m):
        return m ^ 0b11 if (m ^ (m >> 1)) & 1 else m

    return PauliWord(word.n_qubits, swap(word.x_mask), swap(word.z_mask))


def _mirrored_problem(rng, n, basis):
    """Even-Y H, real state and strength table all symmetric under swapping qubits
    0 and 1, so every word and its mirror image tie exactly in descent and
    strength; only float noise could order them."""
    half = random_even_sum(rng, n, 3 * n)
    H = pauli_sum(n, list(sum_terms(half)) + [(c, _swap01(w)) for c, w in sum_terms(half)])
    k = np.arange(2**n)
    mirror = k ^ (((k ^ (k >> 1)) & 1) * 0b11)
    if basis:
        bits = [int(b) for b in rng.integers(0, 2, size=n)]
        bits[1] = bits[0]
        state = basis_state(n, bits)
    else:
        v = rng.normal(size=2**n)
        v = v + v[mirror]
        state = (v / np.linalg.norm(v)).astype(complex)
    entries = rng.uniform(0, 1, size=(n, n))
    entries = entries + entries.T
    p = [1, 0, *range(2, n)]
    entries = entries + entries[p][:, p]
    return H, generate_pool(n), state, support_strengths(n, entries)


def _scores_and_refined(scorer, state, table, fraction=0.3):
    """scorer.scores plus the pool indices it recomputed by the term sum."""
    calls = []
    term_sum = scorer._term_sum

    def spy(T, f, idx):
        calls.append(np.array(idx))
        return term_sum(T, f, idx)

    scorer._term_sum = spy
    try:
        descents, taus, _ = scorer.scores(state, table, fraction)
    finally:
        del scorer._term_sum
    refined = np.concatenate([np.empty(0, dtype=np.intp), *calls])
    return descents, taus, np.unique(refined)


def _assert_selection_is_term_sum(scorer, pool, state, table, fraction=0.3):
    exact_d, exact_t = term_sum_scores(scorer, state)
    descents, taus, refined = _scores_and_refined(scorer, state, table, fraction)
    chosen, count = select_entangler(descents, pool, table, fraction)
    assert (chosen, count) == select_entangler(exact_d, pool, table, fraction)
    assert taus[chosen] == exact_t[chosen]
    assert descents[chosen] == exact_d[chosen]
    assert np.array_equal(descents[refined], exact_d[refined])
    # every word the refine left alone is within the slack of the term sum
    assert np.abs(descents - exact_d).max() <= scorer.slack
    return chosen, refined


@pytest.mark.parametrize("basis", [True, False], ids=["basis", "random"])
def test_pool_scorer_selection_equals_term_sum_on_mirror_ties(basis):
    rng = np.random.default_rng(87 + basis)
    twins = 0
    for n in (3, 4, 5, 6):
        for _ in range(4):
            H, pool, state, table = _mirrored_problem(rng, n, basis)
            scorer = pool_scorer(H, pool)
            chosen, _ = _assert_selection_is_term_sum(scorer, pool, state, table)
            twins += pool_index(pool, _swap01(pool_word(pool, chosen))) != chosen
    assert twins  # some winners do have a tied mirror image


def test_pool_scorer_single_refined_word_keeps_term_order():
    """A lone refined word must be summed term by term, as it is among many
    words; numpy would sum a single column pairwise and change its bits."""
    rng = np.random.default_rng(89)
    n = 4
    H = random_even_sum(rng, n, 60)
    pool = generate_pool(n)
    scorer = pool_scorer(H, pool)
    state = real_random_state(rng, n)
    _, refined = _assert_selection_is_term_sum(scorer, pool, state, np.zeros(1 << n))
    assert len(refined) == 1


def test_pool_scorer_recomputes_the_whole_pool_at_an_eigenstate():
    """At an eigenstate every descent is 0, so the whole pool lies in the
    refine band: every word is recomputed by the term sum, including the
    words that commute with every term of H, and every value equals the
    term sum bit for bit."""
    n = 4
    H = pauli_sum(n, [
        (0.7, PauliWord.from_label("ZIII")),
        (-0.4, PauliWord.from_label("IZZI")),
        (0.2, PauliWord.from_label("ZIIZ")),
    ])
    state = np.zeros(2**n, dtype=complex)
    state[int(np.argmin(np.diag(dense_sum(H)).real))] = 1.0
    pool = generate_pool(n)
    scorer = pool_scorer(H, pool)
    inert = np.array([all(commutes(w, t) for _, t in sum_terms(H)) for w in pool_words(pool)])
    assert inert.any() and not inert.all()

    exact_d, exact_t = term_sum_scores(scorer, state)
    descents, taus, refined = _scores_and_refined(scorer, state, np.zeros(1 << n))
    assert np.array_equal(refined, np.arange(len(pool)))
    assert np.array_equal(descents, exact_d) and np.array_equal(taus, exact_t)
    assert not descents.any()
    with pytest.raises(NoImprovingEntangler):
        select_entangler(descents, pool, np.zeros(1 << n), 0.3)

    # at a random state the transforms leave ~1e-16 on such a word (here
    # Y3, with H on qubits 0-2); the refine alone keeps the selection exact
    rng = np.random.default_rng(90)
    H = pauli_sum(n, [(c, PauliWord(n, w.x_mask, w.z_mask))
                     for c, w in sum_terms(random_even_sum(rng, 3, 12))])
    state = real_random_state(rng, n)
    scorer = pool_scorer(H, pool)
    inert = np.array([all(commutes(w, t) for _, t in sum_terms(H)) for w in pool_words(pool)])
    assert inert.any()
    _assert_selection_is_term_sum(scorer, pool, state, np.zeros(1 << n))


@pytest.mark.parametrize("shape", [(1,), (2,), (2**7,), (2**8,), (2**11,), (2, 5),
                                   (2**5, 3), (2**7, 2**7), (2**9, 2**9), (2**10, 2**10)])
def test_fwht_is_the_radix2_transform_bit_for_bit(shape):
    """_fwht runs along the first axis, each level from one buffer into the
    other; every output must keep the radix-2 transform's bits, also for a
    transposed (non-contiguous) input, as the scorer's 4^n transform has."""
    rng = np.random.default_rng(len(shape) * 1000 + shape[0])
    a = rng.normal(size=shape)
    want = fwht_radix2(a.T).T.view(np.uint64)
    for given in (a.copy(), np.ascontiguousarray(a.T).T):
        assert np.array_equal(_fwht(given).view(np.uint64), want)


@pytest.mark.parametrize("n", range(1, 11))
def test_xor_shifts_equals_the_index_gather_bit_for_bit(n):
    """The half-swap table is the gather v[k ^ x], also from a strided view
    such as the real part of a complex state, and C-contiguous."""
    d = 1 << n
    rng = np.random.default_rng(95 + n)
    v = (rng.normal(size=d) + 1j * rng.normal(size=d)).real
    k = np.arange(d)
    want = v[k[:, None] ^ k].view(np.uint64)
    got = _xor_shifts(v)
    assert got.flags.c_contiguous and got.dtype == np.float64
    assert np.array_equal(got.view(np.uint64), want)


def test_xor_shifts_carries_leading_axes():
    """Each row of a 2-D input gets its own XOR table, as T_sigma's blocks
    read it: out[q, r, t] = v[q, r ^ t]."""
    rng = np.random.default_rng(94)
    v = rng.normal(size=(4, 8))
    r = np.arange(8)
    want = v[:, r[:, None] ^ r].view(np.uint64)
    assert np.array_equal(_xor_shifts(v).view(np.uint64), want)


@pytest.mark.parametrize("n", range(11))
def test_hadamard_signs_equal_the_parity_signs_bit_for_bit(n):
    """The doubled Sylvester matrix is 1 - 2 (|k & z| mod 2), entry for entry."""
    k = np.arange(1 << n, dtype=np.uint64)
    want = 1.0 - 2.0 * (np.bitwise_count(k[:, None] & k[None, :]) & np.uint64(1)).astype(np.float64)
    got = _hadamard_signs(1 << n)
    assert got.flags.c_contiguous and got.dtype == np.float64
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("n,width", [(1, 64), (3, 64), (6, 64), (7, 64), (10, 64),
                                     (5, 4), (5, 3), (4, 1)])
def test_block_transforms_equal_the_whole_table_fwht(n, width, monkeypatch):
    """The column blocks over the columns that hold an entry, and the row
    blocks written back transposed, keep the bits of _fwht over the whole
    table; so do all-zero columns (+0.0) and tables of one block (2^n at
    most the width)."""
    import mivqe.adaptive

    monkeypatch.setattr(mivqe.adaptive, "FWHT_BLOCK", width)
    d = 1 << n
    rng = np.random.default_rng(98 + n + width)
    table = rng.normal(size=(d, d))
    held = np.flatnonzero(rng.uniform(size=d) < 0.3) if d > 2 else np.array([1])
    table[:, np.setdiff1d(np.arange(d), held)] = 0.0
    want = _fwht(table.copy()).view(np.uint64)
    got = _fwht_columns(table.copy(), held)
    assert got.shape == (d, d) and np.array_equal(got.view(np.uint64), want)
    rows = table.copy()
    _fwht_rows(rows)
    assert np.array_equal(rows.view(np.uint64), _fwht(table.T.copy()).T.view(np.uint64))


def test_tau_minimum_in_place_keeps_the_bits():
    """Written into c, the angles are those of 0.5 atan2(c, b) + pi/2, less
    pi above pi/2, formed in new arrays; a scalar pair gives a scalar."""
    rng = np.random.default_rng(99)
    b = np.concatenate([rng.normal(size=1000), [0.0, -0.0, 0.0, -0.0, 1.0, -1.0]])
    c = np.concatenate([rng.normal(size=1000), [0.0, 0.0, -0.0, -0.0, -0.0, -0.0]])
    tau = 0.5 * np.arctan2(c, b) + np.pi / 2
    want = np.where(tau > np.pi / 2, tau - np.pi, tau).view(np.uint64)
    assert np.array_equal(_tau_minimum(b, c).view(np.uint64), want)
    out = c.copy()
    _tau_minimum(b, out, out=out)
    assert np.array_equal(out.view(np.uint64), want)
    scalar = _tau_minimum(1.0, -0.0)
    assert isinstance(scalar, np.float64) and scalar == np.pi / 2


@pytest.mark.parametrize("n", range(2, 9))
def test_pool_scorer_equals_the_gather_index_scorer_bit_for_bit(n):
    """Descents, taus and E0 keep every bit of the scorer built on a k ^ x
    gather index with a +-1.0 C sign, at a random real state and at a basis
    state (where exact ties fill the refine bands), with support-table
    strengths that tie across each support."""
    rng = np.random.default_rng(96 + n)
    H = random_even_sum(rng, n, 6 * n)
    pool = generate_pool(n)
    scorer = pool_scorer(H, pool)
    mi = np.triu(rng.uniform(size=(n, n)), 1)
    strengths = support_strengths(n, mi + mi.T)
    basis = np.zeros(2**n, dtype=complex)
    basis[rng.integers(2**n)] = 1.0
    for state in (real_random_state(rng, n), basis):
        descents, taus, e0 = scorer.scores(state, strengths, 0.3)
        want_d, want_t, want_e0 = gather_index_scores(scorer, state, strengths, 0.3)
        assert np.array_equal(descents.view(np.uint64), want_d.view(np.uint64))
        assert np.array_equal(taus.view(np.uint64), want_t.view(np.uint64))
        assert e0 == want_e0


@pytest.mark.parametrize("width", [1, 2, 8])
def test_pool_scorer_bits_do_not_depend_on_the_transform_block_width(width, monkeypatch):
    """Narrow transform blocks, many per table (T_sigma's XOR rows among
    them), give the gather-index scorer's bits."""
    import mivqe.adaptive

    monkeypatch.setattr(mivqe.adaptive, "FWHT_BLOCK", width)
    rng = np.random.default_rng(100 + width)
    n = 6
    H = random_even_sum(rng, n, 30)
    pool = generate_pool(n)
    scorer = pool_scorer(H, pool)
    strengths = support_strengths(n, np.ones((n, n)) - np.eye(n))
    state = real_random_state(rng, n)
    got = scorer.scores(state, strengths, 0.3)
    want = gather_index_scores(scorer, state, strengths, 0.3)
    for g, w in zip(got[:2], want[:2]):
        assert np.array_equal(g.view(np.uint64), w.view(np.uint64))
    assert got[2] == want[2]


def test_term_sum_bits_do_not_depend_on_the_block_width(monkeypatch):
    """Blocks of 2, 3 and 7 words give the bits of one block over the whole
    pool and over an odd-sized subset (whose last block of one word is
    padded to two): a block of two or more columns sums term by term."""
    import mivqe.adaptive

    rng = np.random.default_rng(97)
    n = 5
    H = random_even_sum(rng, n, 40)
    pool = generate_pool(n)
    scorer = pool_scorer(H, pool)
    T, f = scorer._word_table(scorer._real(real_random_state(rng, n)))
    subsets = (np.arange(len(pool)), np.sort(rng.choice(len(pool), 11, replace=False)))

    def blocks_of(width):
        monkeypatch.setattr(mivqe.adaptive, "TERM_SUM_ENTRIES", width * len(H))
        return [np.concatenate(scorer._term_sum(T, f, idx)).view(np.uint64) for idx in subsets]

    whole = blocks_of(len(pool))
    for width in (2, 3, 7):
        for got, want in zip(blocks_of(width), whole):
            assert np.array_equal(got, want)


def test_pool_scorer_word_index_at_10_qubits_equals_python_int_arithmetic():
    """The packed index (z << n) | x of each word of the 10-qubit pool, as
    Python ints. With uint16 masks and a Python-int shift NEP 50 keeps the
    shift in uint16, which would drop z's top bits; the scorer widens z to
    int32 first."""
    n = 10
    pool = generate_pool(n)
    scorer = pool_scorer(pauli_sum(n, [(1.0, PauliWord(n, 0, 1))]), pool)
    want = [(z << n) | x for x, z in zip(pool.x.tolist(), pool.z.tolist())]
    assert scorer._word_zx.dtype == np.int32
    assert scorer._word_zx.tolist() == want
    assert max(want) > np.iinfo(np.uint16).max


# Traced bytes that PoolScorer construction plus one scores() may allocate on
# the 10-qubit water HF state: four 4^10-entry float64 tables. T's product
# with the sign matrix built for it (three tables), with the int32 word
# indices, C's sign mask and the Y counts kept from construction, measures
# ~27.6 MiB; later T, one transform table and the pool-length B and C reach
# about the same. With a stored sign matrix and two transform buffers the
# scorer measured ~45.5 MiB, and with a 4^n intp gather index ~82 MiB.
SCORER_TRACED_CEILING = 4 * 8 * 2**20


def test_pool_scorer_memory_on_the_10_qubit_water_hf_state():
    ints = load_fcidump(FIXTURE_DIR / "h2o_1.80.fcidump")
    H = encode(build_hamiltonian(ints, "abab"), "jordan_wigner", 2 * ints.n_orbitals)
    occupations = hf_occupations(ints.n_orbitals, ints.n_electrons, ints.ms2, "abab")
    state = basis_state(H.n_qubits, hf_reference("jordan_wigner", occupations))
    pool = generate_pool(H.n_qubits)
    assert H.n_qubits == 10 and len(pool) == 523_776
    h_action = compile_sum_action(H)[0]
    strengths = np.zeros(1 << H.n_qubits)

    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        scorer = PoolScorer(H, pool, h_action)
        scorer.scores(state, strengths, 0.3)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < SCORER_TRACED_CEILING, f"{peak / 2**20:.1f} MiB"


def test_pool_scorer_rejects_bad_inputs_with_typed_errors():
    H3 = pauli_sum(3, [(1.0, PauliWord.from_label("ZZI"))])
    with pytest.raises(AdaptiveError, match="qubit counts differ"):
        pool_scorer(H3, generate_pool(2))
    # an empty pool, so nothing of the 11-qubit scorer's size is built
    H11 = pauli_sum(11, [(1.0, PauliWord(11, 0, 1))])
    with pytest.raises(AdaptiveError, match=f"limited to {SCORER_MAX_QUBITS} qubits"):
        pool_scorer(H11, pool_from_words(11, []))
    odd_y = pauli_sum(2, [(1.0, PauliWord.from_label("XY"))])
    with pytest.raises(AdaptiveError, match="even-Y"):
        pool_scorer(odd_y, generate_pool(2))
    even_y_pool = pool_from_words(2, [PauliWord.from_label("XY"),
                                               PauliWord.from_label("XX")])
    with pytest.raises(AdaptiveError, match="odd Y count"):
        pool_scorer(pauli_sum(2, [(1.0, PauliWord.from_label("ZZ"))]), even_y_pool)


def test_pool_scorer_rejects_a_non_real_state():
    rng = np.random.default_rng(93)
    n = 3
    pool = generate_pool(n)
    scorer = pool_scorer(random_even_sum(rng, n, 6), pool)
    state = real_random_state(rng, n) * np.exp(0.3j)
    with pytest.raises(AdaptiveError, match="imaginary amplitudes"):
        scorer.scores(state, np.zeros(1 << n), 0.3)


def test_run_adaptive_rejects_mismatched_inputs(monkeypatch):
    import mivqe.adaptive

    n = 3
    H = random_even_sum(np.random.default_rng(94), n, 8)
    pool = generate_pool(n)
    strengths, table = np.zeros(1 << n), np.ones(1 << n)
    cfg = AdaptiveConfig(max_steps=1)
    with pytest.raises(AdaptiveError, match="strength table"):
        run_adaptive(H, pool, strengths[:-1], table, [1, 0, 0], cfg)
    with pytest.raises(AdaptiveError, match="percentile table"):
        run_adaptive(H, pool, strengths, table[:-1], [1, 0, 0], cfg)

    scores = mivqe.adaptive.PoolScorer.scores

    def shifted(self, *args):
        descents, taus, e0 = scores(self, *args)
        return descents, taus, e0 + 1e-6

    monkeypatch.setattr(mivqe.adaptive.PoolScorer, "scores", shifted)
    with pytest.raises(AdaptiveError, match="disagrees with tracked energy"):
        run_adaptive(H, pool, strengths, table, [1, 0, 0], cfg)


def test_joint_optimize_rejects_an_empty_ansatz():
    H = pauli_sum(2, [(1.0, PauliWord.from_label("ZZ"))])
    with pytest.raises(AdaptiveError, match="at least one layer"):
        joint_optimize(Ansatz(2, [0, 1]), compile_sum_action(H)[0], np.random.default_rng(0))


def test_joint_optimize_never_returns_a_worse_energy(monkeypatch):
    """If basin hopping ends above the incoming energy, the incoming
    parameters and energy come back unchanged."""
    import mivqe.adaptive

    rng = np.random.default_rng(95)
    n = 3
    H = random_even_sum(rng, n, 8)
    w = next(w for w in pool_words(generate_pool(n)) if weight(w) > 1)
    ansatz = word_ansatz(n, [0, 1, 0], [w], [0.3])
    h_action, _ = compile_sum_action(H)

    def worse(objective, x0, **kwargs):
        return OptimizeResult(x=x0 + 0.5, fun=objective(x0)[0] + 1.0)

    monkeypatch.setattr(mivqe.adaptive, "basinhopping", worse)
    params, energy = joint_optimize(ansatz, h_action, np.random.default_rng(0))
    assert params.tolist() == [0.3]
    assert energy == energy_and_gradient(ansatz, h_action, np.array([0.3]))[0]
