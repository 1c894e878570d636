"""Unit and property tests for the symplectic Pauli algebra."""

import numpy as np
import pytest

from mivqe.pauli import (
    MAX_QUBITS,
    PauliError,
    PauliSum,
    format_factor_lists,
    format_pauli_sum,
    mask_product,
    parse_pauli_sum,
    parse_pauli_text,
)

from helpers import (
    PauliWord,
    add_sums,
    coefficient,
    commutes,
    conjugate_sum,
    dense_sum,
    dense_word,
    dict_merged_terms,
    format_pauli_factors,
    format_pauli_text,
    identity,
    multiply,
    pauli_sum,
    per_factor_factor_list,
    random_word,
    scale_sum,
    sum_terms,
    sums_equal,
    weight,
    word_label,
)


def test_single_qubit_products():
    X = PauliWord.from_label("X")
    Y = PauliWord.from_label("Y")
    Z = PauliWord.from_label("Z")
    I = identity(1)

    assert multiply(X, Y) == (1, Z)  # X*Y = i Z
    assert multiply(X, X) == (0, I)  # involution
    assert multiply(Z, X) == (1, Y)  # Z*X = i Y
    # the same table on (x, z) masks: X = (1, 0), Z = (0, 1), Y = (1, 1)
    assert mask_product(1, 0, 1, 1) == (1, 0, 1)
    assert mask_product(1, 0, 1, 0) == (0, 0, 0)
    assert mask_product(0, 1, 1, 0) == (1, 1, 1)
    assert mask_product(1, 1, 1, 0) == (3, 0, 1)  # Y*X = -i Z


def test_multiply_rejects_size_mismatch():
    with pytest.raises(PauliError):
        multiply(identity(2), identity(3))


def test_commutes_basics():
    X = PauliWord.from_label("X")
    Z = PauliWord.from_label("Z")
    assert not commutes(X, Z)
    assert commutes(PauliWord.from_label("XX"), PauliWord.from_label("ZZ"))
    assert commutes(PauliWord.from_label("YZ"), identity(2))


def test_multiply_matches_dense_matrices():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(1, 5))
        a, b = random_word(rng, n), random_word(rng, n)
        phase, prod = multiply(a, b)
        lhs = dense_word(a) @ dense_word(b)
        rhs = (1j**phase) * dense_word(prod)
        assert np.allclose(lhs, rhs, atol=1e-12)
        # the mask product on its own, against the same matrices
        m_phase, x, z = mask_product(a.x_mask, a.z_mask, b.x_mask, b.z_mask)
        assert 0 <= m_phase < 4
        assert np.allclose(lhs, (1j**m_phase) * dense_word(PauliWord(n, x, z)), atol=1e-12)


def test_multiply_associative_with_phases():
    rng = np.random.default_rng(12)
    for _ in range(300):
        n = int(rng.integers(1, 6))
        a, b, c = (random_word(rng, n) for _ in range(3))
        p1, ab = multiply(a, b)
        p2, ab_c = multiply(ab, c)
        q1, bc = multiply(b, c)
        q2, a_bc = multiply(a, bc)
        assert ab_c == a_bc
        assert (p1 + p2) % 4 == (q1 + q2) % 4
        # (a b) c = a (b c) on masks alone
        m1, x_ab, z_ab = mask_product(a.x_mask, a.z_mask, b.x_mask, b.z_mask)
        m2, x_left, z_left = mask_product(x_ab, z_ab, c.x_mask, c.z_mask)
        n1, x_bc, z_bc = mask_product(b.x_mask, b.z_mask, c.x_mask, c.z_mask)
        n2, x_right, z_right = mask_product(a.x_mask, a.z_mask, x_bc, z_bc)
        assert (x_left, z_left) == (x_right, z_right) == (ab_c.x_mask, ab_c.z_mask)
        assert (m1 + m2) % 4 == (n1 + n2) % 4 == (p1 + p2) % 4


def test_commutes_agrees_with_multiply():
    rng = np.random.default_rng(13)
    for _ in range(300):
        n = int(rng.integers(1, 6))
        a, b = random_word(rng, n), random_word(rng, n)
        pab, _ = multiply(a, b)
        pba, _ = multiply(b, a)
        assert pab == mask_product(a.x_mask, a.z_mask, b.x_mask, b.z_mask)[0]
        assert pba == mask_product(b.x_mask, b.z_mask, a.x_mask, a.z_mask)[0]
        # phases differ by (-1)^(1-commutes): equal iff commuting
        if commutes(a, b):
            assert pab == pba
        else:
            assert (pab - pba) % 4 == 2


def test_conjugate_sum_examples():
    Z = PauliWord.from_label("Z")
    X = PauliWord.from_label("X")
    H = pauli_sum(1, [(1.0, Z)])
    assert sum_terms(conjugate_sum(H, X)) == ((-1.0, Z),)

    ZZ = PauliWord.from_label("ZZ")
    XX = PauliWord.from_label("XX")
    H2 = pauli_sum(2, [(0.7, ZZ)])
    assert sum_terms(conjugate_sum(H2, XX)) == ((0.7, ZZ),)


def test_conjugate_by_identity_and_involution():
    rng = np.random.default_rng(14)
    n = 4
    H = pauli_sum(n, [(rng.normal(), random_word(rng, n)) for _ in range(20)])
    assert sums_equal(conjugate_sum(H, identity(n)), H)
    P = random_word(rng, n)
    assert sums_equal(conjugate_sum(conjugate_sum(H, P), P), H)


def test_conjugation_preserves_masks_and_term_count():
    rng = np.random.default_rng(15)
    n = 5
    H = pauli_sum(n, [(1.0 + rng.random(), random_word(rng, n)) for _ in range(30)])
    P = random_word(rng, n)
    G = conjugate_sum(H, P)
    assert len(G) == len(H)
    assert [w for _, w in sum_terms(G)] == [w for _, w in sum_terms(H)]
    assert [w.y_count for _, w in sum_terms(G)] == [w.y_count for _, w in sum_terms(H)]


def test_word_properties():
    w = PauliWord.from_label("XIZY")
    assert w.support == 0b1101
    assert weight(w) == 3
    assert w.y_count == 1
    assert word_label(w) == "XIZY"


def test_pauli_sum_merges_and_sorts():
    n = 2
    w1 = PauliWord.from_label("XI")
    w2 = PauliWord.from_label("ZI")
    s = pauli_sum(n, [(0.5, w1), (0.25, w2), (0.5, w1), (1e-14, identity(n))])
    # merged duplicate, dropped tiny term, sorted by (z_mask, x_mask)
    assert sum_terms(s) == ((1.0, w1), (0.25, w2))


@pytest.mark.parametrize("coeffs", [(np.nan,), (np.inf,), (np.inf, -np.inf)],
                         ids=["nan", "inf", "inf_minus_inf"])
def test_pauli_sum_rejects_non_finite_coefficients(coeffs):
    # NaN once vanished here (abs(nan) > cutoff is False), and inf - inf
    # becomes NaN only in the merge
    XX = PauliWord.from_label("XX")
    with pytest.raises(PauliError, match="non-finite"):
        pauli_sum(2, [*((c, XX) for c in coeffs), (0.5, PauliWord.from_label("ZI"))])


def test_sum_add_and_scale():
    n = 1
    X = PauliWord.from_label("X")
    Z = PauliWord.from_label("Z")
    s = add_sums(pauli_sum(n, [(1.0, X)]), pauli_sum(n, [(2.0, Z)]))
    assert coefficient(s, X) == 1.0 and coefficient(s, Z) == 2.0
    assert coefficient(scale_sum(s, 2.0), Z) == 4.0


def test_parse_pauli_text_example():
    assert parse_pauli_text("0.5 X0 Y2", n_qubits=3) == (0.5, 0b101, 0b100)


def test_parse_identity_term():
    assert parse_pauli_text("1.0", n_qubits=3) == (1.0, 0, 0)


@pytest.mark.parametrize(
    "line",
    ["0.5 W0", "0.5 X0 X0", "0.5 X9", "abc X0", "0.5 Xq", "nan X0 X1", "inf Z0", "-inf"],
)
def test_parse_rejects_malformed(line):
    with pytest.raises(PauliError):
        parse_pauli_text(line, n_qubits=3)


def test_text_round_trip_random_words():
    rng = np.random.default_rng(16)
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        coeff = float(rng.normal())
        word = random_word(rng, n)
        c2, x, z = parse_pauli_text(format_pauli_text(coeff, word), n)
        assert c2 == coeff and PauliWord(n, x, z) == word


@pytest.mark.parametrize("n", [*range(1, 17), MAX_QUBITS])
def test_factor_lists_equal_the_per_factor_rule(n):
    """Formatting whole mask arrays gives each word's factor list, as the
    rule one factor at a time does; the identity is the empty string."""
    rng = np.random.default_rng(n)
    x = rng.integers(0, 1 << n, size=300, dtype=np.uint64, endpoint=False)
    z = rng.integers(0, 1 << n, size=300, dtype=np.uint64, endpoint=False)
    full = (1 << n) - 1
    x[:3], z[:3] = [0, full, full], [0, 0, full]  # I...I, X...X, Y...Y
    words = [PauliWord(n, int(a), int(b)) for a, b in zip(x, z)]
    expected = [per_factor_factor_list(w) for w in words]
    assert expected[0] == ""
    assert format_factor_lists(n, x, z).tolist() == expected
    assert [format_pauli_factors(w) for w in words] == expected


def test_sum_text_round_trip():
    rng = np.random.default_rng(17)
    n = 5
    H = pauli_sum(n, [(rng.normal(), random_word(rng, n)) for _ in range(40)])
    text = format_pauli_sum(H, comment="fixture\nsecond line")
    assert sums_equal(parse_pauli_sum(text), H)


def test_sum_text_round_trip_at_the_qubit_limit():
    rng = np.random.default_rng(17)
    n = MAX_QUBITS
    masks = rng.integers(0, 1 << n, size=(40, 2), dtype=np.uint64)
    H = pauli_sum(n, [(rng.normal(), PauliWord(n, int(x), int(z))) for x, z in masks])
    text = format_pauli_sum(H, comment="fixture\nsecond line")
    assert sums_equal(parse_pauli_sum(text), H)


def test_parse_sum_reads_masks_on_both_sides_of_bit_63():
    """A term on qubit 63 next to one without it: the masks stay integers
    (Python ints at and below 2^63 together would make a float64 array)."""
    H = parse_pauli_sum(f"qubits: {MAX_QUBITS}\n0.5 X63\n0.25 Z0\n")
    assert sum_terms(H) == (
        (0.5, PauliWord(MAX_QUBITS, 1 << 63, 0)),
        (0.25, PauliWord(MAX_QUBITS, 0, 1)),
    )


def test_parse_sum_requires_header():
    with pytest.raises(PauliError):
        parse_pauli_sum("0.5 X0\n")


@pytest.mark.parametrize("n", [MAX_QUBITS + 1, 8000, 1000000])
def test_parse_sum_rejects_qubits_header_above_limit(n):
    # refused at the header, before any term or register is sized by it
    with pytest.raises(PauliError, match=f"exceeds the {MAX_QUBITS}-qubit limit"):
        parse_pauli_sum(f"qubits: {n}\n0.5 X0 X1\n")


def test_parse_sum_takes_qubits_header_at_limit():
    H = parse_pauli_sum(f"qubits: {MAX_QUBITS}\n0.5 X0 X{MAX_QUBITS - 1}\n")
    assert H.n_qubits == MAX_QUBITS


def test_dense_sum_is_hermitian():
    rng = np.random.default_rng(18)
    n = 3
    H = pauli_sum(n, [(rng.normal(), random_word(rng, n)) for _ in range(15)])
    M = dense_sum(H)
    assert np.allclose(M, M.conj().T, atol=1e-12)


@pytest.mark.parametrize("n", [1, 3, 7, 20, MAX_QUBITS])
def test_array_constructor_equals_the_dict_merge_bit_for_bit(n):
    """Random term lists that repeat a few words many times, with
    coefficients from 1e-14 to 10, exact cancellations, signed zeros and
    the cutoff itself: the array constructor's merge adds each word's
    coefficients in input order from 0.0, as the dict merge does, and
    keeps, sorts and drops the same terms with every bit."""
    rng = np.random.default_rng(n)
    cut = 1e-12
    for _ in range(20):
        masks = rng.integers(0, 1 << n, size=(int(rng.integers(1, 8)), 2), dtype=np.uint64)
        words = [PauliWord(n, int(x), int(z)) for x, z in masks]
        if n == MAX_QUBITS:  # masks beyond int64, ordered as unsigned
            words.append(PauliWord(n, 1 << 63, (1 << 64) - 1))
        terms = [
            (float(rng.normal() * 10.0 ** rng.integers(-14, 2)), words[rng.integers(len(words))])
            for _ in range(int(rng.integers(0, 60)))
        ]
        terms += [(-c, w) for c, w in terms[:3]] + [(-0.0, words[0]), (cut, words[-1])]
        rng.shuffle(terms)
        got = sum_terms(pauli_sum(n, terms))
        want = dict_merged_terms(n, terms)
        assert [w for _, w in got] == [w for _, w in want]
        assert np.array([c for c, _ in got]).tobytes() == np.array([c for c, _ in want]).tobytes()


def test_array_constructor_takes_arrays_and_refuses_bad_masks():
    s = PauliSum(2, np.array([0.5, 0.25, 0.5]), np.array([1, 0, 1]), np.array([0, 1, 0]))
    assert (s.coeffs.tolist(), s.x.tolist(), s.z.tolist(), s.y.tolist()) == (
        [1.0, 0.25], [1, 0], [0, 1], [0, 0]
    )
    assert s.x.dtype == s.z.dtype == np.uint64 and not s.coeffs.flags.writeable
    for x, z in [([4], [0]), ([0], [-1]), ([0.0], [1]), ([0, 1], [0])]:
        with pytest.raises(PauliError):
            PauliSum(2, [1.0], x, z)
