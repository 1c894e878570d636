"""Second-quantized operators over spin-orbitals and their assembly from integrals.

Spin-orbital indices are the run's grouping from the start: abab puts orbital
p's alpha at 2p and beta at 2p+1, aabb puts them at p and n_orbitals + p.
``build_hamiltonian`` and ``s_squared_operator`` write each ladder string
straight into that order through ``grouping_permutation``, so nothing
downstream knows the grouping.

A FermionOperator holds creation-first ladder strings in normal order:
creations in increasing mode order, then annihilations in decreasing mode
order. Its constructor sorts each string by adjacent swaps, one sign flip per
swap, and drops a string that repeats a mode within either block. A string
with an annihilation left of a creation would need contractions, which no
operator here produces, so it is refused. Sums, multiples and adjoints of
operators hold normal-ordered strings already, so they skip the sort and
share only the constructor's last step: the finite check, the sort of the
strings and the cutoff.
"""

from __future__ import annotations

import math

from .fcidump import MolecularIntegrals

# a ladder factor is (mode, is_creation); a ladder string is a tuple of factors
LadderString = tuple[tuple[int, bool], ...]

TERM_CUTOFF = 1e-12


class FermionError(ValueError):
    pass


class FermionOperator:
    """Linear combination of normal-ordered ladder strings with finite real coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[LadderString, float] | None = None):
        merged: dict[LadderString, float] = {}
        for ladder, coeff in (terms or {}).items():
            ordered = _normal_order(ladder)
            if ordered is not None:
                sign, nl = ordered
                merged[nl] = merged.get(nl, 0.0) + sign * coeff
        self.terms = _settled(merged)

    @classmethod
    def _from_normal_ordered(cls, terms: dict[LadderString, float]) -> "FermionOperator":
        """The operator of distinct strings already in normal order.

        Normal-ordering such a string is the identity with sign +1, so this
        skips it and gives the constructor's terms, bit for bit.
        """
        op = cls.__new__(cls)
        op.terms = _settled(terms)
        return op

    def __add__(self, other: "FermionOperator") -> "FermionOperator":
        out = dict(self.terms)
        for ladder, coeff in other.terms.items():
            out[ladder] = out.get(ladder, 0.0) + coeff
        return FermionOperator._from_normal_ordered(out)

    def __mul__(self, scalar: float) -> "FermionOperator":
        return FermionOperator._from_normal_ordered(
            {l: c * scalar for l, c in self.terms.items()}
        )

    __rmul__ = __mul__

    def adjoint(self) -> "FermionOperator":
        # no two strings share an adjoint, so no key collides and no sign flips
        return FermionOperator._from_normal_ordered(
            {_adjoint_string(l): c for l, c in self.terms.items()}
        )

    def is_hermitian(self) -> bool:
        """Each coefficient within 1e-10 of its adjoint string's (0 if absent)."""
        terms = self.terms
        return all(
            abs(c - terms.get(_adjoint_string(l), 0.0)) <= 1e-10 for l, c in terms.items()
        )

    def __repr__(self) -> str:
        return f"FermionOperator({len(self.terms)} terms)"


def _settled(merged: dict[LadderString, float]) -> dict[LadderString, float]:
    """Merged normal-ordered terms, sorted, without those at or below TERM_CUTOFF."""
    if not all(map(math.isfinite, merged.values())):  # else the cutoff drops a NaN
        raise FermionError("non-finite coefficient after merging terms")
    return {l: c for l, c in sorted(merged.items()) if abs(c) > TERM_CUTOFF}


def _adjoint_string(ladder: LadderString) -> LadderString:
    """The adjoint of a ladder string: reversed, each factor's type swapped.

    The adjoint of a normal-ordered string is normal-ordered.
    """
    return tuple([(m, not c) for m, c in ladder[::-1]])


def _normal_order(ladder: LadderString) -> tuple[float, LadderString] | None:
    """(sign, normal-ordered string) of a creation-first string; None if it vanishes.

    Bubble sort of each block, flipping the sign on every swap; a mode repeated
    within a block makes the string zero. FermionError if an annihilation
    stands left of a creation.
    """
    ops = list(ladder)
    sign = 1.0
    swapped = True
    while swapped:
        swapped = dead = False
        for i in range(len(ops) - 1):
            (m1, c1), (m2, c2) = ops[i], ops[i + 1]
            if c1 != c2:
                if c2:
                    raise FermionError(
                        f"ladder string {ladder} has an annihilation left of a creation"
                    )
            elif m1 == m2:
                dead = True
            elif (m1 > m2) == c1:
                ops[i], ops[i + 1] = ops[i + 1], ops[i]
                sign = -sign
                swapped = True
        if dead:
            return None
    return sign, tuple(ops)


def build_hamiltonian(ints: MolecularIntegrals, grouping: str) -> FermionOperator:
    """Second-quantized molecular Hamiltonian over the grouping's spin-orbitals.

    E_core + sum_pq h_pq a+_p a_q + 1/2 sum (pq|rs) a+_{p,s1} a+_{r,s2}
    a_{s,s2} a_{q,s1}; only spin-conserving terms appear by construction.
    """
    n = ints.n_orbitals
    perm = grouping_permutation(n, grouping)
    terms: dict[LadderString, float] = {(): ints.core_energy}

    def so(p: int, spin: int) -> int:
        return perm[2 * p + spin]

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
    return FermionOperator(terms)


def s_squared_operator(n_orbitals: int, grouping: str) -> FermionOperator:
    """Total spin S^2 = S_z^2 + (S+S- + S-S+)/2 over the grouping's spin-orbitals.

    In normal order, with s_i = +-1/2 the spin of spin-orbital i:
    sum_i 3/4 n_i + sum_{i != j} s_i s_j a+_i a+_j a_j a_i
    - 1/2 sum_pq (a+_pa a+_qb a_pb a_qa + a+_pb a+_qa a_pa a_qb).
    Every coefficient is a dyadic sum, so the merge order cannot round.
    """
    perm = grouping_permutation(n_orbitals, grouping)
    terms: dict[LadderString, float] = {}

    def add(modes: tuple[int, ...], coeff: float) -> None:
        # modes in the alternating order, creations first
        ladder = tuple((perm[m], 2 * k < len(modes)) for k, m in enumerate(modes))
        terms[ladder] = terms.get(ladder, 0.0) + coeff

    for i in range(2 * n_orbitals):
        add((i, i), 0.75)
        for j in range(2 * n_orbitals):
            if j != i:
                add((i, j, j, i), 0.25 * (-1) ** (i + j))
    for p in range(n_orbitals):
        for q in range(n_orbitals):
            add((2 * p, 2 * q + 1, 2 * p + 1, 2 * q), -0.5)
            add((2 * p + 1, 2 * q, 2 * p, 2 * q + 1), -0.5)
    return FermionOperator(terms)


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
