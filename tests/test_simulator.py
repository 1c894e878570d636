"""Statevector engine: exponentials, expectations, adjoint gradients, RDMs."""

import numpy as np
import pytest

from mivqe.simulator import (
    Ansatz,
    SimulatorError,
    basis_state,
    compile_sum_action,
    energy_and_gradient,
    merged_sum_matrix,
    rdm,
)

from helpers import (
    PauliWord,
    add_layer,
    apply_pauli_exponential,
    apply_pauli_word,
    dense_sum,
    dense_word,
    evaluate_ansatz,
    expectation,
    gradient,
    identity,
    pauli_sum,
    per_word_energy_and_gradient,
    per_word_tables,
    random_state,
    random_word,
    sum_terms,
    term_by_term_action,
    word_ansatz,
)


def test_apply_word_matches_dense():
    rng = np.random.default_rng(41)
    for _ in range(200):
        n = int(rng.integers(1, 6))
        word = random_word(rng, n)
        state = random_state(rng, n)
        assert np.allclose(apply_pauli_word(state, word), dense_word(word) @ state, atol=1e-12)


def test_exponential_z_is_global_phase_on_zero():
    Z = PauliWord.from_label("Z")
    state = basis_state(1, [0])
    tau = 0.37
    out = apply_pauli_exponential(state, Z, tau)
    assert np.allclose(out, np.exp(-1j * tau) * state, atol=1e-12)


def test_exponential_y_half_pi_flips():
    Y = PauliWord.from_label("Y")
    out = apply_pauli_exponential(basis_state(1, [0]), Y, np.pi / 2)
    assert np.allclose(out, basis_state(1, [1]), atol=1e-12)


def test_unitarity_and_reversibility_random():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        n = int(rng.integers(1, 5))
        word = random_word(rng, n)
        tau = float(rng.normal())
        state = random_state(rng, n)
        out = apply_pauli_exponential(state, word, tau)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12
        back = apply_pauli_exponential(out, word, -tau)
        assert np.linalg.norm(back - state) < 1e-12


def test_exponential_locality():
    """Diagonal words only rephase; flipping words mix amplitudes in XOR pairs."""
    rng = np.random.default_rng(43)
    n = 4
    state = random_state(rng, n)
    zword = PauliWord(n, 0, int(rng.integers(1, 16)))
    out = apply_pauli_exponential(state, zword, 0.7)
    assert np.allclose(np.abs(out), np.abs(state), atol=1e-12)

    xword = random_word(rng, n)
    while xword.x_mask == 0:
        xword = random_word(rng, n)
    out = apply_pauli_exponential(state, xword, 0.7)
    k = np.arange(2**n)
    pair_before = np.abs(state) ** 2 + np.abs(state[k ^ xword.x_mask]) ** 2
    pair_after = np.abs(out) ** 2 + np.abs(out[k ^ xword.x_mask]) ** 2
    assert np.allclose(pair_before, pair_after, atol=1e-12)


def test_expectation_basics():
    Z = pauli_sum(1, [(1.0, PauliWord.from_label("Z"))])
    assert abs(expectation(basis_state(1, [0]), Z) - 1.0) < 1e-14
    X = pauli_sum(1, [(1.0, PauliWord.from_label("X"))])
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    assert abs(expectation(plus.astype(complex), X) - 1.0) < 1e-14


def test_expectation_matches_dense_quadratic_form():
    rng = np.random.default_rng(44)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        H = pauli_sum(n, [(rng.normal(), random_word(rng, n)) for _ in range(8)])
        state = random_state(rng, n)
        dense = float(np.real(state.conj() @ dense_sum(H) @ state))
        assert abs(expectation(state, H) - dense) < 1e-10


def test_expectation_rejects_mismatch():
    H = pauli_sum(2, [(1.0, identity(2))])
    with pytest.raises(SimulatorError):
        expectation(np.ones(2, dtype=complex), H)


def test_evaluate_ansatz_identity_cases():
    rng = np.random.default_rng(45)
    n = 3
    H = pauli_sum(n, [(rng.normal(), random_word(rng, n)) for _ in range(10)])
    ref = [1, 0, 1]
    empty = Ansatz(n, ref)
    e_ref = expectation(basis_state(n, ref), H)
    e0, _ = evaluate_ansatz(empty, H)
    assert abs(e0 - e_ref) < 1e-14

    zero_angle = add_layer(empty, random_word(rng, n), 0.0)
    e1, _ = evaluate_ansatz(zero_angle, H)
    assert abs(e1 - e_ref) < 1e-14


def test_evaluate_ansatz_decomposition():
    rng = np.random.default_rng(46)
    n = 3
    H = pauli_sum(n, [(rng.normal(), random_word(rng, n)) for _ in range(10)])
    ansatz = Ansatz(n, [0, 1, 0])
    for _ in range(4):
        ansatz = add_layer(ansatz, random_word(rng, n), float(rng.normal()))
    energy, state = evaluate_ansatz(ansatz, H)
    manual = sum(
        c * np.real(np.vdot(state, apply_pauli_word(state, w))) for c, w in sum_terms(H)
    )
    assert abs(energy - manual) < 1e-12


def finite_difference_gradient(ansatz, H, h=1e-5):
    params = np.array(ansatz.parameters, dtype=float)
    out = np.zeros_like(params)
    for k in range(len(params)):
        up, down = params.copy(), params.copy()
        up[k] += h
        down[k] -= h
        e_up, _ = evaluate_ansatz(ansatz, H, up)
        e_down, _ = evaluate_ansatz(ansatz, H, down)
        out[k] = (e_up - e_down) / (2 * h)
    return out


def test_layer_tables_from_masks_are_the_word_path_bit_for_bit():
    """with_layer(x, z, tau) builds each layer's tables from the masks alone;
    they are the tables the PauliWord path built, dtype and bits."""
    rng = np.random.default_rng(48)
    for n in range(1, 9):
        words = [PauliWord(n, 0, 0), PauliWord(n, 2**n - 1, 2**n - 1)]
        words += [random_word(rng, n) for _ in range(6)]
        ansatz = Ansatz(n, [int(b) for b in rng.integers(0, 2, size=n)])
        for word in words:
            ansatz = ansatz.with_layer(word.x_mask, word.z_mask, float(rng.normal()))
        assert len(ansatz) == len(ansatz.parameters) == len(words)
        for tables, word in zip(ansatz.layers, words):
            for got, want in zip(tables, per_word_tables(word), strict=True):
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()


def test_ansatz_refuses_parameters_without_layers():
    with pytest.raises(SimulatorError, match="layers and parameters length mismatch"):
        Ansatz(2, [0, 1], [0.3])


def test_gradient_single_layer_closed_form():
    # H = Z, reference |0>, layer Y: E(tau) = cos 2tau, dE/dtau = -2 sin 2tau
    H = pauli_sum(1, [(1.0, PauliWord.from_label("Z"))])
    for tau in [0.0, 0.3, -1.1, 2.0]:
        ansatz = word_ansatz(1, [0], [PauliWord.from_label("Y")], [tau])
        g = gradient(ansatz, H)
        assert abs(g[0] - (-2.0 * np.sin(2 * tau))) < 1e-12


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(47)
    for trial in range(12):
        n = int(rng.integers(2, 9))
        layers = int(rng.integers(1, 21))
        H = pauli_sum(n, [(rng.normal(), random_word(rng, n)) for _ in range(12)])
        ref = [int(b) for b in rng.integers(0, 2, size=n)]
        ansatz = Ansatz(n, ref)
        for _ in range(layers):
            ansatz = add_layer(ansatz, random_word(rng, n), float(rng.normal()))
        g_adj = gradient(ansatz, H)
        g_fd = finite_difference_gradient(ansatz, H)
        denom = max(1.0, float(np.linalg.norm(g_fd)))
        assert np.linalg.norm(g_adj - g_fd) / denom < 1e-6


def test_gradient_zero_at_stationary_point():
    # optimum of E(tau) = cos 2tau is tau = pi/2
    H = pauli_sum(1, [(1.0, PauliWord.from_label("Z"))])
    ansatz = word_ansatz(1, [0], [PauliWord.from_label("Y")], [np.pi / 2])
    assert abs(gradient(ansatz, H)[0]) < 1e-12


def random_sum(rng, n, n_terms, real_valued):
    """A sum of exactly n_terms distinct words; even-Y words only if real_valued."""
    if real_valued:
        n_terms = min(n_terms, (4**n + 2**n) // 2)
    terms = {}
    while len(terms) < n_terms:
        word = random_word(rng, n)
        if real_valued and word.y_count % 2:
            continue
        terms[word] = float(rng.normal())
    return pauli_sum(n, [(c, w) for w, c in terms.items()])


def ansatz_states(rng, n, layers=3):
    """Real amplitudes with signed-zero imaginary parts, as the reoptimizer sees."""
    ansatz = Ansatz(n, [int(b) for b in rng.integers(0, 2, size=n)])
    while len(ansatz) < layers:
        word = random_word(rng, n)
        if word.y_count % 2:
            ansatz = add_layer(ansatz, word, float(rng.normal()))
    psi = ansatz.prepare()
    return [psi, -psi]


def sample_vectors(rng, n, real_valued):
    dim = 2**n
    vectors = [random_state(rng, n), basis_state(n, [1] * n), *ansatz_states(rng, n)]
    # real states held as complex128 with -0.0 imaginary parts
    for real in (rng.normal(size=dim), basis_state(n, [0] * n).real):
        v = np.empty(dim, dtype=complex)
        v.real, v.imag = real, -0.0
        vectors.append(v)
    if real_valued:
        # the term loop cannot add a complex H into a real vector
        basis = np.zeros(dim)
        basis[int(rng.integers(dim))] = -1.0
        vectors += [rng.normal(size=dim), basis, ansatz_states(rng, n)[0].real.copy()]
    return vectors


def assert_same_action(H, vectors):
    compiled, _ = compile_sum_action(H)
    reference = term_by_term_action(H)
    for v in vectors:
        got, want = compiled(v), reference(v)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("real_valued", [True, False])
def test_compiled_action_is_term_loop_bit_for_bit(real_valued):
    rng = np.random.default_rng(49 + real_valued)
    for _ in range(60):
        n = int(rng.integers(1, 9))
        n_terms = int(rng.integers(1, min(4**n, 300) + 1))
        H = random_sum(rng, n, n_terms, real_valued)
        real = compile_sum_action(H)[1]
        assert real == all(w.y_count % 2 == 0 for _, w in sum_terms(H))
        assert_same_action(H, sample_vectors(rng, n, real))


@pytest.mark.parametrize("label, coeff", [("I", -1.5), ("III", 0.25), ("Z", -1.0),
                                          ("XZ", 2.0), ("YI", 0.7)])
def test_compiled_action_single_term_and_identity(label, coeff):
    rng = np.random.default_rng(51)
    H = pauli_sum(len(label), [(coeff, PauliWord.from_label(label))])
    assert_same_action(H, sample_vectors(rng, len(label), "Y" not in label))


def test_compiled_action_keeps_term_order_without_a_lone_column():
    # 968 terms on 1024 amplitudes: a case that once split the action into
    # single-column blocks, which numpy summed pairwise instead of term by term
    rng = np.random.default_rng(52)
    H = random_sum(rng, 10, 968, real_valued=True)
    assert_same_action(H, [rng.normal(size=1024), random_state(rng, 10)])


def test_compiled_action_is_not_the_merged_matrix():
    # summing the entries that share a column first gives the same matrix
    # with other roundings: on this pinned case the merged matrix's bytes
    # differ from the term loop's, while the compiled action's equal them
    rng = np.random.default_rng(54)
    H = random_sum(rng, 6, 200, real_valued=True)
    for v in (rng.normal(size=64), random_state(rng, 6)):
        want = term_by_term_action(H)(v)
        merged = merged_sum_matrix(H) @ v
        assert np.allclose(merged, want, rtol=0, atol=1e-12)
        assert merged.tobytes() != want.tobytes()
        assert compile_sum_action(H)[0](v).tobytes() == want.tobytes()


def grouped_sum(rng, n, real_valued):
    """A random sum with repeated X masks, plus a pair of words that share an
    X mask and a Y count but differ in one Z bit off that mask, with one
    coefficient: their entries cancel in every row whose column has that bit.
    Unless real_valued, a Y0 term makes the sum odd-Y."""
    H = random_sum(rng, n, int(rng.integers(1, min(4**n, 40) + 1)), real_valued)
    x = int(rng.integers(0, 2**n - 1))  # never every qubit: one bit stays free
    q = int(rng.choice([b for b in range(n) if not x >> b & 1]))
    z = int(rng.integers(0, 2**n))
    if real_valued:
        z &= ~x  # no Y: an even Y count
    coeff = float(rng.normal())
    odd_y = [] if real_valued else [(float(rng.normal()), PauliWord(n, 1, 1))]
    return pauli_sum(n, [*sum_terms(H), (coeff, PauliWord(n, x, z)),
                         (coeff, PauliWord(n, x, z ^ (1 << q))), *odd_y])


@pytest.mark.parametrize("real_valued", [True, False])
def test_merged_matrix_products_match_the_compiled_action(real_valued):
    rng = np.random.default_rng(55 + real_valued)
    for _ in range(40):
        n = int(rng.integers(1, 9))
        H = grouped_sum(rng, n, real_valued)
        matrix = merged_sum_matrix(H)
        compiled, real = compile_sum_action(H)
        assert real == real_valued
        assert matrix.dtype == (np.float64 if real_valued else np.complex128)
        # one entry per row and distinct X mask, at column k ^ x
        x = np.unique(H.x).astype(np.int64)
        assert (np.diff(matrix.indptr) == len(x)).all()
        rows = np.repeat(np.arange(2**n), len(x))
        assert (np.sort(matrix.indices.reshape(-1, len(x)), axis=1)
                == np.sort((rows ^ np.tile(x, 2**n)).reshape(-1, len(x)), axis=1)).all()
        tol = 1e-12 * (1 + np.abs(H.coeffs).sum())
        for v in sample_vectors(rng, n, real_valued):
            assert np.abs(matrix @ v - compiled(v)).max() <= tol
        if n <= 4:
            assert np.abs(matrix.toarray() - dense_sum(H)).max() <= tol


def test_merged_matrix_keeps_cancelled_entries_as_zeros():
    # 0.5 XX + 0.5 YY: rows 0 and 3 cancel, rows 1 and 2 add to 1
    H = pauli_sum(2, [(0.5, PauliWord.from_label("XX")), (0.5, PauliWord.from_label("YY"))])
    matrix = merged_sum_matrix(H)
    assert matrix.dtype == np.float64
    assert matrix.indptr.tolist() == [0, 1, 2, 3, 4]
    assert matrix.indices.tolist() == [3, 2, 1, 0]
    assert matrix.data.tolist() == [0.0, 1.0, 1.0, 0.0]


class _SizedSum:
    """Just the size of a PauliSum: n_qubits and a term count."""

    def __init__(self, n_qubits, n_terms):
        self.n_qubits, self.n_terms = n_qubits, n_terms

    def __len__(self):
        return self.n_terms

    def __getattr__(self, name):
        raise AssertionError(f"{name} read past the size check")


def test_compile_rejects_sums_above_the_entry_limit(monkeypatch):
    import mivqe.simulator as simulator

    # the bound keeps every CSR index within int32
    assert simulator.MAX_ACTION_ENTRIES < 2**31
    n_terms = simulator.MAX_ACTION_ENTRIES // 2**10 + 1
    H = pauli_sum(2, [(1.0, PauliWord.from_label("XZ")), (0.5, PauliWord.from_label("ZI"))])
    for build in (compile_sum_action, merged_sum_matrix):
        # the smallest 10-qubit sum above the limit is rejected before its
        # terms are read or any table allocated
        monkeypatch.setattr(simulator, "np", None)
        with pytest.raises(SimulatorError, match="entry limit"):
            build(_SizedSum(10, n_terms))
        monkeypatch.undo()
        # at the limit a sum compiles: a small limit keeps it small
        monkeypatch.setattr(simulator, "MAX_ACTION_ENTRIES", 8)
        build(H)
        monkeypatch.setattr(simulator, "MAX_ACTION_ENTRIES", 7)
        with pytest.raises(SimulatorError, match="8 entries, above the 7-entry limit"):
            build(H)
        monkeypatch.undo()


def test_compiled_ansatz_energy_and_gradient_bit_for_bit():
    rng = np.random.default_rng(53)
    for trial in range(20):
        n = int(rng.integers(1, 8))
        H = random_sum(rng, n, int(rng.integers(1, min(4**n, 60) + 1)), trial % 2 == 0)
        ansatz = Ansatz(n, [int(b) for b in rng.integers(0, 2, size=n)])
        words = []
        for _ in range(int(rng.integers(1, 12))):
            words.append(random_word(rng, n))
            ansatz = add_layer(ansatz, words[-1], float(rng.normal()))
        params = rng.normal(size=len(ansatz))
        action, _ = compile_sum_action(H)
        energy, grads = energy_and_gradient(ansatz, action, params)
        want_e, want_g = per_word_energy_and_gradient(
            ansatz, words, term_by_term_action(H), params
        )
        assert np.float64(energy).tobytes() == np.float64(want_e).tobytes()
        assert grads.tobytes() == want_g.tobytes()


def _bits(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("n", range(2, 11))
def test_stacked_adjoint_sweep_is_the_one_state_loop_bit_for_bit(n):
    # the run's case (real H, odd-Y words: every imaginary part is a signed
    # zero), then a real and a complex H with diagonal and even-Y words too
    rng = np.random.default_rng(60 + n)
    for real_valued, odd_y_only in ((True, True), (True, False), (False, False)):
        H = random_sum(rng, n, int(rng.integers(1, min(4**n, 80) + 1)), real_valued)
        words = [] if odd_y_only else [
            PauliWord(n, 0, int(rng.integers(1, 2**n))),  # diagonal: identity gather
            PauliWord(n, 2**n - 1, 0),  # X on every qubit: no Y
        ]
        while len(words) < 8:
            word = random_word(rng, n, nontrivial=True)
            if word.y_count % 2 or not odd_y_only:
                words.append(word)
        ansatz = Ansatz(n, [int(b) for b in rng.integers(0, 2, size=n)])
        layer_words = [words[i] for i in rng.permutation(len(words))]
        for word in layer_words:
            ansatz = add_layer(ansatz, word, 0.0)
        params = rng.normal(size=len(ansatz))
        action, _ = compile_sum_action(H)
        energy, grads = energy_and_gradient(ansatz, action, params)
        want_e, want_g = per_word_energy_and_gradient(ansatz, layer_words, action, params)
        assert _bits(energy) == _bits(want_e)
        assert np.array_equal(_bits(grads), _bits(want_g))


SPECIAL_ANGLES = (0.0, -0.0, np.pi / 2, -np.pi / 2, np.pi, 1e-300)


@pytest.mark.parametrize("n", range(1, 11))
def test_folded_tables_are_the_per_word_loop_bit_for_bit_at_special_angles(n):
    """A layer's i^y factor and signs are folded into one complex table.
    The zero parts of a state then get other signs than the per-word loop
    gives them, most of all at angles whose cos or sin is 0, 1 or tiny; the
    energy and the gradient must still be the loop's bits."""
    rng = np.random.default_rng(90 + n)
    for real_valued in (True, False):
        H = random_sum(rng, n, int(rng.integers(1, min(4**n, 40) + 1)), real_valued)
        words = [
            PauliWord(n, 0, int(rng.integers(0, 2**n))),  # diagonal: identity gather
            PauliWord(n, 2**n - 1, 0),  # X on every qubit: no Y
        ]
        while len(words) < 6:
            words.append(random_word(rng, n, nontrivial=True))
        ansatz = Ansatz(n, [int(b) for b in rng.integers(0, 2, size=n)])
        layer_words = [words[i] for i in rng.permutation(len(words))]
        for word in layer_words:
            ansatz = add_layer(ansatz, word, 0.0)
        action, _ = compile_sum_action(H)
        params = [np.full(len(ansatz), angle) for angle in SPECIAL_ANGLES]
        params += [rng.choice(SPECIAL_ANGLES, size=len(ansatz)) for _ in range(4)]
        for p in params:
            energy, grads = energy_and_gradient(ansatz, action, p)
            want_e, want_g = per_word_energy_and_gradient(ansatz, layer_words, action, p)
            assert _bits(energy) == _bits(want_e), (real_valued, p)
            assert np.array_equal(_bits(grads), _bits(want_g)), (real_valued, p)


def test_vectorized_cos_and_sin_equal_scalar_calls():
    # prepare and energy_and_gradient take cos and sin of all angles in one
    # call each; that keeps the bits only while numpy's array loops round as
    # the per-layer scalar calls do (checked for SIMD tails of every length)
    rng = np.random.default_rng(57)
    specials = np.array([0.0, -0.0, np.pi / 2, np.pi, 1e-300, 5e-324, 1e300])
    for length in range(1, 41):
        for scale in (1e-8, 1e-3, 1.0, 1e3):
            taus = np.concatenate((rng.normal(size=length) * scale, specials[: length % 8]))
            for x in (taus, -taus):
                assert np.array_equal(_bits(np.cos(x)), _bits([np.cos(t) for t in x]))
                assert np.array_equal(_bits(np.sin(x)), _bits([np.sin(t) for t in x]))


def test_action_skips_a_zero_imaginary_part_bit_for_bit():
    """A real H multiplies a complex vector's parts one at a time. An all-zero
    imaginary part, +0.0 or -0.0, gives +0.0 without a product, which is what
    the product gives; any nonzero entry gets both products."""
    rng = np.random.default_rng(58)
    for n in (1, 3, 6, 10):
        H = random_sum(rng, n, int(rng.integers(1, min(4**n, 60) + 1)), real_valued=True)
        action, real_valued = compile_sum_action(H)
        assert real_valued
        real = rng.normal(size=2**n)
        v = np.empty(2**n, dtype=complex)
        v.real = real
        for zero in (0.0, -0.0):
            v.imag = zero
            got = action(v)
            assert np.array_equal(_bits(got.real), _bits(action(real)))
            assert np.array_equal(_bits(got.imag), _bits(action(v.imag.copy())))
            assert np.array_equal(_bits(got.imag), _bits(np.zeros(2**n)))
        v.imag[int(rng.integers(2**n))] = 1.0
        got = action(v)
        assert got.imag.any()
        assert np.array_equal(_bits(got.imag), _bits(action(v.imag.copy())))
        assert np.array_equal(_bits(got.real), _bits(action(real)))


def test_rdm_product_state():
    state = basis_state(2, [0, 1])  # qubit 0 in |0>, qubit 1 in |1>
    assert np.allclose(rdm(state, [0]), np.diag([1.0, 0.0]), atol=1e-14)
    assert np.allclose(rdm(state, [1]), np.diag([0.0, 1.0]), atol=1e-14)


def test_rdm_bell_pair():
    bell = np.zeros(4, dtype=complex)
    bell[0b00] = bell[0b11] = 1 / np.sqrt(2)
    for q in (0, 1):
        assert np.allclose(rdm(bell, [q]), np.eye(2) / 2, atol=1e-14)


def test_rdm_pair_ordering():
    state = basis_state(2, [1, 0])  # qubit 0 occupied
    rho = rdm(state, [0, 1])
    # index = b_first + 2*b_second; (1,0) -> 1
    assert abs(rho[1, 1] - 1.0) < 1e-14
    rho_swapped = rdm(state, [1, 0])
    assert abs(rho_swapped[2, 2] - 1.0) < 1e-14


def test_rdm_properties_random():
    rng = np.random.default_rng(48)
    for _ in range(200):
        n = int(rng.integers(2, 6))
        state = random_state(rng, n)
        qubits = list(rng.choice(n, size=2, replace=False))
        rho = rdm(state, [int(q) for q in qubits])
        assert abs(np.trace(rho).real - 1.0) < 1e-12
        assert np.allclose(rho, rho.conj().T, atol=1e-12)
        assert np.linalg.eigvalsh(rho).min() > -1e-10


def test_rdm_rejects_bad_subsets():
    state = basis_state(3, [0, 0, 0])
    with pytest.raises(SimulatorError):
        rdm(state, [0, 1, 2])
    with pytest.raises(SimulatorError):
        rdm(state, [1, 1])
    with pytest.raises(SimulatorError):
        rdm(state, [5])
