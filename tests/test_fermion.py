"""Fermion-operator normal ordering, Hamiltonian assembly, spin operator, groupings."""

from types import SimpleNamespace

import numpy as np
import pytest

import mivqe.fermion
from mivqe.fcidump import MolecularIntegrals, load_fcidump
from mivqe.fermion import (
    FermionError,
    FermionOperator,
    _normal_order,
    build_hamiltonian,
    grouping_permutation,
    hf_occupations,
    s_squared_operator,
)

from conftest import FIXTURE_DIR
from helpers import adjoint_is_hermitian, fermion_dense, number_operator


def det_state(n_modes, occupied):
    state = np.zeros(2**n_modes)
    state[sum(1 << m for m in occupied)] = 1.0
    return state


def test_normal_ordering_anticommutation():
    # a_0 a+_0 = 1 - a+_0 a_0 needs a contraction: only creation-first strings are taken
    with pytest.raises(FermionError):
        FermionOperator({((0, False), (0, True)): 1.0})
    with pytest.raises(FermionError):
        FermionOperator({((0, True), (0, True), (1, False), (2, True)): 1.0})


def test_normal_ordering_kills_repeats():
    op = FermionOperator({((0, True), (0, True)): 1.0})
    assert op.terms == {}


@pytest.mark.parametrize("terms", [
    {((0, True), (0, False)): float("nan")},
    {((0, True), (0, False)): float("inf")},
    # a+_1 a+_0 = -a+_0 a+_1, so the merge adds inf and -inf
    {((0, True), (1, True)): float("inf"), ((1, True), (0, True)): float("inf")},
], ids=["nan", "inf", "inf_minus_inf"])
def test_fermion_operator_rejects_non_finite_coefficients(terms):
    with pytest.raises(FermionError, match="non-finite"):
        FermionOperator(terms)


def test_normal_ordering_sign():
    # a+_1 a+_0 = -a+_0 a+_1
    op = FermionOperator({((1, True), (0, True)): 1.0})
    assert op.terms == {((0, True), (1, True)): -1.0}


def test_normal_ordering_matches_dense_raw_strings():
    """Creation-first strings, repeated modes included, keep their operator."""
    rng = np.random.default_rng(21)
    n = 3
    for _ in range(30):
        raw = {}
        for _ in range(4):
            k = int(rng.integers(0, 5))
            n_create = int(rng.integers(0, k + 1))
            ladder = tuple((int(rng.integers(0, n)), f < n_create) for f in range(k))
            raw[ladder] = raw.get(ladder, 0.0) + float(rng.normal())
        lhs = fermion_dense(FermionOperator(raw), n)
        rhs = fermion_dense(SimpleNamespace(terms=raw), n)
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_single_orbital_hamiltonian():
    eps, core = -0.47, 0.31
    ints = MolecularIntegrals(
        1, 2, 0, core, np.array([[eps]]), np.zeros((1, 1, 1, 1))
    )
    H = build_hamiltonian(ints, "abab")
    expected = {
        (): core,
        ((0, True), (0, False)): eps,
        ((1, True), (1, False)): eps,
    }
    assert set(H.terms) == set(expected)
    for k, v in expected.items():
        assert abs(H.terms[k] - v) < 1e-14


def test_hamiltonian_is_hermitian_and_number_conserving():
    rng = np.random.default_rng(22)
    n = 2
    h = rng.normal(size=(n, n))
    h = 0.5 * (h + h.T)
    g = np.zeros((n, n, n, n))
    g[0, 0, 1, 1] = g[1, 1, 0, 0] = 0.4
    g[0, 1, 0, 1] = g[1, 0, 0, 1] = g[0, 1, 1, 0] = g[1, 0, 1, 0] = 0.1
    ints = MolecularIntegrals(n, 2, 0, 0.0, h, g)
    H = build_hamiltonian(ints, "abab")
    assert H.is_hermitian()
    Hd = fermion_dense(H, 2 * n)
    Nd = fermion_dense(number_operator(2 * n), 2 * n)
    assert np.allclose(Hd @ Nd, Nd @ Hd, atol=1e-12)


def test_particle_number_in_hf_determinant():
    occ = hf_occupations(2, 2, 0, "abab")
    assert occ == [1, 1, 0, 0]
    N = fermion_dense(number_operator(4), 4)
    state = det_state(4, [m for m, o in enumerate(occ) if o])
    assert abs(state @ N @ state - 2.0) < 1e-14


def test_s_squared_singlet_doublet_triplet():
    S2 = fermion_dense(s_squared_operator(2, "abab"), 4)
    closed_shell = det_state(4, [0, 1])  # alpha and beta of orbital 0
    single = det_state(4, [0])
    triplet = det_state(4, [0, 2])  # two alpha electrons
    assert abs(closed_shell @ S2 @ closed_shell - 0.0) < 1e-12
    assert abs(single @ S2 @ single - 0.75) < 1e-12
    assert abs(triplet @ S2 @ triplet - 2.0) < 1e-12


def test_grouping_permutations():
    assert grouping_permutation(2, "abab") == [0, 1, 2, 3]
    assert grouping_permutation(2, "aabb") == [0, 2, 1, 3]
    perm = grouping_permutation(5, "aabb")
    inverse = [0] * len(perm)
    for i, p in enumerate(perm):
        inverse[p] = i
    assert [perm[inverse[i]] for i in range(10)] == list(range(10))


def test_hf_occupations_groupings():
    assert hf_occupations(3, 2, 0, "abab") == [1, 1, 0, 0, 0, 0]
    assert hf_occupations(3, 2, 0, "aabb") == [1, 0, 0, 1, 0, 0]
    assert hf_occupations(3, 3, 1, "aabb") == [1, 1, 0, 1, 0, 0]


def test_hf_occupations_rejects_negative_alpha_count():
    # NELEC=1 with MS2=-3 once gave n_alpha = -1 and two beta electrons
    with pytest.raises(FermionError):
        hf_occupations(3, 1, -3, "abab")


@pytest.mark.parametrize("grouping", ["abab", "aabb"])
@pytest.mark.parametrize("n_orbitals", [1, 2, 3])
def test_s_squared_matches_dense_spin_algebra(grouping, n_orbitals):
    perm = grouping_permutation(n_orbitals, grouping)
    n = 2 * n_orbitals

    def one_body(pairs):
        terms = {((perm[i], True), (perm[j], False)): c for i, j, c in pairs}
        return fermion_dense(FermionOperator(terms), n)

    orbitals = range(n_orbitals)
    sz = one_body([(2 * p + s, 2 * p + s, 0.5 - s) for p in orbitals for s in (0, 1)])
    s_plus = one_body([(2 * p, 2 * p + 1, 1.0) for p in orbitals])
    s_minus = one_body([(2 * p + 1, 2 * p, 1.0) for p in orbitals])
    expected = sz @ sz + 0.5 * (s_plus @ s_minus + s_minus @ s_plus)
    S2 = fermion_dense(s_squared_operator(n_orbitals, grouping), n)
    assert np.allclose(S2, expected, atol=1e-12)


def test_groupings_differ_by_exact_signs():
    """aabb's H and S^2 are abab's term for term, relabeled, each with a
    common sign: no coefficient moves by a single bit."""
    rng = np.random.default_rng(23)
    n = 3
    h = rng.normal(size=(n, n))
    h = h + h.T
    g = rng.normal(size=(n, n, n, n))
    g = g + g.transpose(1, 0, 2, 3)
    g = g + g.transpose(0, 1, 3, 2)
    g = g + g.transpose(2, 3, 0, 1)
    ints = MolecularIntegrals(n, 2, 0, 0.5, h, g)
    perm = grouping_permutation(n, "aabb")
    for abab, aabb in [
        (build_hamiltonian(ints, "abab"), build_hamiltonian(ints, "aabb")),
        (s_squared_operator(n, "abab"), s_squared_operator(n, "aabb")),
    ]:
        relabeled = {}
        for ladder, coeff in abab.terms.items():
            sign, key = _normal_order(tuple((perm[m], c) for m, c in ladder))
            relabeled[key] = sign * coeff
        assert aabb.terms == relabeled


def _same_terms(got: FermionOperator, want: FermionOperator) -> None:
    assert list(got.terms.items()) == list(want.terms.items())
    assert np.array(list(got.terms.values())).tobytes() == np.array(
        list(want.terms.values())
    ).tobytes()


def test_sum_scale_and_adjoint_skip_normal_ordering_bit_for_bit(monkeypatch):
    """Sums, scalings and adjoints of normal-ordered operators give the
    terms of the constructor that normal-ordered their strings again, key
    for key and bit for bit, without calling the normal ordering."""
    ints = load_fcidump(FIXTURE_DIR / "h2o_1.80.fcidump")
    H = build_hamiltonian(ints, "aabb")
    S2 = s_squared_operator(ints.n_orbitals, "aabb")
    rng = np.random.default_rng(24)
    raw = {}
    for _ in range(40):
        n_create = int(rng.integers(0, 3))
        modes = rng.choice(10, 4, replace=False)
        ladder = tuple((int(m), f < n_create) for f, m in enumerate(modes))
        raw[ladder] = float(rng.normal() * 10.0 ** rng.integers(-14, 2))
    R = FermionOperator(raw)

    def reordered(terms):  # the construction the operations used to call
        return FermionOperator(dict(terms))

    def added(a, b):
        out = dict(a.terms)
        for ladder, coeff in b.terms.items():
            out[ladder] = out.get(ladder, 0.0) + coeff
        return out

    want = [
        reordered(added(H, 0.5 * S2 * 1.0)),
        reordered(added(R, H)),
        reordered({l: c * -1e-3 for l, c in R.terms.items()}),
        reordered({tuple((m, not c) for m, c in reversed(l)): c for l, c in R.terms.items()}),
    ]
    half_S2 = 0.5 * S2

    def refuse(ladder):
        raise AssertionError(f"{ladder} normal-ordered again")

    monkeypatch.setattr(mivqe.fermion, "_normal_order", refuse)
    got = [H + half_S2, R + H, -1e-3 * R, R.adjoint()]
    for g, w in zip(got, want):
        _same_terms(g, w)


def test_is_hermitian_agrees_with_the_adjoint_operator_at_its_tolerance():
    """Coefficients 1e-10 apart, one ulp either side of it, and a string
    whose adjoint is absent with a coefficient at, just below and just
    above 1e-10: the direct partner comparison gives the adjoint
    operator's answer, and both answers occur."""
    hop, pah = ((0, True), (2, False)), ((2, True), (0, False))
    pair, partnerless = ((1, True), (3, True), (3, False), (0, False)), ((4, True), (5, False))
    answers = set()
    for a in (0.3, -2.5, 1e-3):
        for gap in (1e-10, 1.5e-10, 0.5e-10):
            b0 = a + gap
            for b in (np.nextafter(b0, -np.inf), b0, np.nextafter(b0, np.inf)):
                for c in (1e-10, np.nextafter(1e-10, 0.0), np.nextafter(1e-10, 1.0)):
                    op = FermionOperator({hop: a, pah: float(b), partnerless: float(c),
                                          pair: 0.7, tuple((m, not k) for m, k in pair[::-1]): 0.7})
                    answer = op.is_hermitian()
                    assert answer == adjoint_is_hermitian(op), (a, b, c)
                    answers.add(answer)
    assert answers == {True, False}
