"""Second-quantized operators over spin-orbitals and their assembly from integrals.

Spin-orbitals are indexed in the alternating convention internally: orbital p
with alpha spin sits at 2p, beta at 2p+1. Regrouping to the alpha-block/
beta-block layout is a relabeling applied at encoding time.

A FermionOperator is kept in normal-ordered canonical form: creations first
in increasing mode order, then annihilations in decreasing mode order, with
anticommutation signs and contractions applied during reordering.
"""

from __future__ import annotations

from .fcidump import MolecularIntegrals

# a ladder factor is (mode, is_creation); a ladder string is a tuple of factors
LadderString = tuple[tuple[int, bool], ...]

TERM_CUTOFF = 1e-12


class FermionError(ValueError):
    pass


class FermionOperator:
    """Linear combination of normal-ordered ladder strings with real coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[LadderString, float] | None = None, normalize: bool = True):
        raw = terms or {}
        if normalize:
            merged: dict[LadderString, float] = {}
            for ladder, coeff in raw.items():
                for nl, nc in _normal_order_term(ladder, coeff):
                    merged[nl] = merged.get(nl, 0.0) + nc
            raw = merged
        self.terms: dict[LadderString, float] = {
            l: c for l, c in sorted(raw.items()) if abs(c) > TERM_CUTOFF
        }

    def n_modes(self) -> int:
        return 1 + max(
            (mode for ladder in self.terms for mode, _ in ladder), default=-1
        )

    def __add__(self, other: "FermionOperator") -> "FermionOperator":
        out = dict(self.terms)
        for ladder, coeff in other.terms.items():
            out[ladder] = out.get(ladder, 0.0) + coeff
        return FermionOperator(out, normalize=False)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return FermionOperator(
                {l: c * other for l, c in self.terms.items()}, normalize=False
            )
        product: dict[LadderString, float] = {}
        for la, ca in self.terms.items():
            for lb, cb in other.terms.items():
                ladder = la + lb
                product[ladder] = product.get(ladder, 0.0) + ca * cb
        return FermionOperator(product, normalize=True)

    __rmul__ = __mul__

    def relabeled(self, index_map: dict[int, int]) -> "FermionOperator":
        """Apply a mode permutation, re-normal-ordering afterwards."""
        out: dict[LadderString, float] = {}
        for ladder, coeff in self.terms.items():
            new = tuple((index_map[m], c) for m, c in ladder)
            out[new] = out.get(new, 0.0) + coeff
        return FermionOperator(out, normalize=True)

    def adjoint(self) -> "FermionOperator":
        out: dict[LadderString, float] = {}
        for ladder, coeff in self.terms.items():
            adj = tuple((m, not c) for m, c in reversed(ladder))
            out[adj] = out.get(adj, 0.0) + coeff
        return FermionOperator(out, normalize=True)

    def is_hermitian(self) -> bool:
        adj = self.adjoint().terms
        keys = set(self.terms) | set(adj)
        return all(abs(self.terms.get(k, 0.0) - adj.get(k, 0.0)) <= 1e-10 for k in keys)

    def __repr__(self) -> str:
        return f"FermionOperator({len(self.terms)} terms)"


def _normal_order_term(ladder: LadderString, coeff: float) -> list[tuple[LadderString, float]]:
    """Normal-order one ladder string, producing contraction offspring.

    Worklist bubble sort on the anticommutation rules: a_p a+_q = d_pq - a+_q a_p,
    like-type factors anticommute freely, and a repeated creation (or
    annihilation) on the same mode kills the term.
    """
    results: list[tuple[LadderString, float]] = []
    stack = [(list(ladder), coeff)]
    while stack:
        ops, c = stack.pop()
        swapped = True
        dead = False
        while swapped and not dead:
            swapped = False
            for i in range(len(ops) - 1):
                (m1, c1), (m2, c2) = ops[i], ops[i + 1]
                if not c1 and c2:
                    # a_m1 a+_m2 -> d - a+_m2 a_m1
                    if m1 == m2:
                        rest = ops[:i] + ops[i + 2:]
                        stack.append((rest, c))
                    ops[i], ops[i + 1] = ops[i + 1], ops[i]
                    c = -c
                    swapped = True
                    break
                if c1 == c2:
                    if m1 == m2:
                        dead = True
                        break
                    wrong = (m1 > m2) if c1 else (m1 < m2)
                    if wrong:
                        ops[i], ops[i + 1] = ops[i + 1], ops[i]
                        c = -c
                        swapped = True
                        break
        if not dead:
            results.append((tuple(ops), c))
    return results


def build_hamiltonian(ints: MolecularIntegrals) -> FermionOperator:
    """Second-quantized molecular Hamiltonian over alternating spin-orbitals.

    E_core + sum_pq h_pq a+_p a_q + 1/2 sum (pq|rs) a+_{p,s1} a+_{r,s2}
    a_{s,s2} a_{q,s1}; only spin-conserving terms appear by construction.
    """
    n = ints.n_orbitals
    terms: dict[LadderString, float] = {(): ints.core_energy}

    def so(p: int, spin: int) -> int:
        return 2 * p + spin

    h = ints.one_body
    for p in range(n):
        for q in range(n):
            if abs(h[p, q]) <= TERM_CUTOFF:
                continue
            for s in (0, 1):
                ladder = ((so(p, s), True), (so(q, s), False))
                terms[ladder] = terms.get(ladder, 0.0) + h[p, q]

    g = ints.two_body
    for p in range(n):
        for q in range(n):
            for r in range(n):
                for s in range(n):
                    v = g[p, q, r, s]
                    if abs(v) <= TERM_CUTOFF:
                        continue
                    for s1 in (0, 1):
                        for s2 in (0, 1):
                            ladder = (
                                (so(p, s1), True),
                                (so(r, s2), True),
                                (so(s, s2), False),
                                (so(q, s1), False),
                            )
                            terms[ladder] = terms.get(ladder, 0.0) + 0.5 * v
    return FermionOperator(terms, normalize=True)


def s_squared_operator(n_orbitals: int) -> FermionOperator:
    """Total-spin operator S^2 = S_z^2 + (S+S- + S-S+)/2 over alternating spin-orbitals."""
    sz = FermionOperator(
        {
            ((2 * p + spin, True), (2 * p + spin, False)): (0.5 if spin == 0 else -0.5)
            for p in range(n_orbitals)
            for spin in (0, 1)
        },
        normalize=False,
    )
    s_plus = FermionOperator(
        {((2 * p, True), (2 * p + 1, False)): 1.0 for p in range(n_orbitals)},
        normalize=False,
    )
    s_minus = FermionOperator(
        {((2 * p + 1, True), (2 * p, False)): 1.0 for p in range(n_orbitals)},
        normalize=False,
    )
    return sz * sz + 0.5 * (s_plus * s_minus + s_minus * s_plus)


def grouping_permutation(n_orbitals: int, grouping: str) -> list[int]:
    """Map alternating spin-orbital indices to the requested grouping's indices.

    abab keeps (a0, b0, a1, b1, ...); aabb sends alpha of orbital p to p and
    beta to n_orbitals + p. Entry i of the result is where alternating index i
    lands.
    """
    if grouping == "abab":
        return list(range(2 * n_orbitals))
    if grouping == "aabb":
        perm = [0] * (2 * n_orbitals)
        for p in range(n_orbitals):
            perm[2 * p] = p
            perm[2 * p + 1] = n_orbitals + p
        return perm
    raise FermionError(f"unknown grouping {grouping!r}")


def hf_occupations(n_orbitals: int, n_electrons: int, ms2: int, grouping: str) -> list[int]:
    """Occupation bits of the aufbau determinant in the grouped index order."""
    n_alpha = (n_electrons + ms2) // 2
    n_beta = n_electrons - n_alpha
    if min(n_alpha, n_beta) < 0 or max(n_alpha, n_beta) > n_orbitals:
        raise FermionError("invalid electron count / ms2 combination")
    perm = grouping_permutation(n_orbitals, grouping)
    occ = [0] * (2 * n_orbitals)
    for p in range(n_alpha):
        occ[perm[2 * p]] = 1
    for p in range(n_beta):
        occ[perm[2 * p + 1]] = 1
    return occ
