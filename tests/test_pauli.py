"""Unit and property tests for the symplectic Pauli algebra."""

import numpy as np
import pytest

from mivqe.pauli import (
    MAX_QUBITS,
    PauliError,
    PauliSum,
    PauliWord,
    format_factor_lists,
    format_pauli_factors,
    format_pauli_sum,
    mask_product,
    multiply,
    parse_pauli_sum,
    parse_pauli_text,
)

from helpers import (
    commutes,
    conjugate_sum,
    dense_sum,
    dense_word,
    format_pauli_text,
    is_identity,
    per_factor_factor_list,
    random_word,
    word_label,
)


def test_single_qubit_products():
    X = PauliWord.from_label("X")
    Y = PauliWord.from_label("Y")
    Z = PauliWord.from_label("Z")
    I = PauliWord.identity(1)

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
        multiply(PauliWord.identity(2), PauliWord.identity(3))


def test_commutes_basics():
    X = PauliWord.from_label("X")
    Z = PauliWord.from_label("Z")
    assert not commutes(X, Z)
    assert commutes(PauliWord.from_label("XX"), PauliWord.from_label("ZZ"))
    assert commutes(PauliWord.from_label("YZ"), PauliWord.identity(2))


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
    H = PauliSum(1, [(1.0, Z)])
    assert conjugate_sum(H, X).terms == ((-1.0, Z),)

    ZZ = PauliWord.from_label("ZZ")
    XX = PauliWord.from_label("XX")
    H2 = PauliSum(2, [(0.7, ZZ)])
    assert conjugate_sum(H2, XX).terms == ((0.7, ZZ),)


def test_conjugate_by_identity_and_involution():
    rng = np.random.default_rng(14)
    n = 4
    H = PauliSum(n, [(rng.normal(), random_word(rng, n)) for _ in range(20)])
    assert conjugate_sum(H, PauliWord.identity(n)) == H
    P = random_word(rng, n)
    assert conjugate_sum(conjugate_sum(H, P), P) == H


def test_conjugation_preserves_masks_and_term_count():
    rng = np.random.default_rng(15)
    n = 5
    H = PauliSum(n, [(1.0 + rng.random(), random_word(rng, n)) for _ in range(30)])
    P = random_word(rng, n)
    G = conjugate_sum(H, P)
    assert len(G) == len(H)
    assert [w for _, w in G.terms] == [w for _, w in H.terms]
    assert [w.y_count for _, w in G.terms] == [w.y_count for _, w in H.terms]


def test_word_properties():
    w = PauliWord.from_label("XIZY")
    assert w.support == 0b1101
    assert w.weight == 3
    assert w.y_count == 1
    assert word_label(w) == "XIZY"


def test_pauli_sum_merges_and_sorts():
    n = 2
    w1 = PauliWord.from_label("XI")
    w2 = PauliWord.from_label("ZI")
    s = PauliSum(n, [(0.5, w1), (0.25, w2), (0.5, w1), (1e-14, PauliWord.identity(n))])
    # merged duplicate, dropped tiny term, sorted by (z_mask, x_mask)
    assert s.terms == ((1.0, w1), (0.25, w2))


@pytest.mark.parametrize("coeffs", [(np.nan,), (np.inf,), (np.inf, -np.inf)],
                         ids=["nan", "inf", "inf_minus_inf"])
def test_pauli_sum_rejects_non_finite_coefficients(coeffs):
    # NaN once vanished here (abs(nan) > cutoff is False), and inf - inf
    # becomes NaN only in the merge
    XX = PauliWord.from_label("XX")
    with pytest.raises(PauliError, match="non-finite"):
        PauliSum(2, [*((c, XX) for c in coeffs), (0.5, PauliWord.from_label("ZI"))])


def test_sum_add_and_scale():
    n = 1
    X = PauliWord.from_label("X")
    Z = PauliWord.from_label("Z")
    s = PauliSum(n, [(1.0, X)]) + PauliSum(n, [(2.0, Z)])
    assert s.coefficient(X) == 1.0 and s.coefficient(Z) == 2.0
    assert (2.0 * s).coefficient(Z) == 4.0


def test_parse_pauli_text_example():
    coeff, word = parse_pauli_text("0.5 X0 Y2", n_qubits=3)
    assert coeff == 0.5
    assert word.x_mask == 0b101
    assert word.z_mask == 0b100


def test_parse_identity_term():
    coeff, word = parse_pauli_text("1.0", n_qubits=3)
    assert coeff == 1.0
    assert is_identity(word)


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
        c2, w2 = parse_pauli_text(format_pauli_text(coeff, word), n)
        assert c2 == coeff and w2 == word


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
    H = PauliSum(n, [(rng.normal(), random_word(rng, n)) for _ in range(40)])
    text = format_pauli_sum(H, comment="fixture\nsecond line")
    assert parse_pauli_sum(text) == H


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
    H = PauliSum(n, [(rng.normal(), random_word(rng, n)) for _ in range(15)])
    M = dense_sum(H)
    assert np.allclose(M, M.conj().T, atol=1e-12)
