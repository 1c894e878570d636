"""Symplectic-bitmask Pauli words and real-coefficient Hermitian Pauli sums.

An n-qubit Pauli word is stored as two integer bitmasks (x_mask, z_mask):
qubit q carries I/X/Z/Y according to the bit pair (x, z) = (0,0)/(1,0)/(0,1)/(1,1).
As an operator, a word is i^y_count * (X-part) * (Z-part), which makes every
word Hermitian. Products and commutation checks are O(1) integer arithmetic,
which is what keeps 32k-entangler pools cheap to manipulate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

_BITS_FOR_LETTER = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}

COEFF_CUTOFF = 1e-12  # merged terms below this magnitude (hartree) are dropped
# the width of the uint64 term masks (the pool scorer's and the MPO
# builder's); a larger ``qubits:`` header is refused before anything is sized
# by it
MAX_QUBITS = 64


class PauliError(ValueError):
    """Malformed Pauli data: bad masks, mismatched sizes, or unparsable text."""


def _check_same_size(a: "PauliWord", b: "PauliWord") -> None:
    if a.n_qubits != b.n_qubits:
        raise PauliError(
            f"qubit-count mismatch: {a.n_qubits} vs {b.n_qubits}"
        )


@dataclass(frozen=True)
class PauliWord:
    """Tensor product of single-qubit Paulis in symplectic (x, z) encoding."""

    n_qubits: int
    x_mask: int
    z_mask: int

    def __post_init__(self):
        if self.n_qubits < 1:
            raise PauliError("n_qubits must be positive")
        full = (1 << self.n_qubits) - 1
        if self.x_mask & ~full or self.z_mask & ~full:
            raise PauliError("mask bits outside qubit range")
        if self.x_mask < 0 or self.z_mask < 0:
            raise PauliError("masks must be non-negative")

    @classmethod
    def identity(cls, n_qubits: int) -> "PauliWord":
        return cls(n_qubits, 0, 0)

    @classmethod
    def from_label(cls, label: str, n_qubits: int | None = None) -> "PauliWord":
        """Build from a dense letter string, e.g. ``"XIZY"`` (qubit 0 first)."""
        if n_qubits is None:
            n_qubits = len(label)
        x = z = 0
        for q, letter in enumerate(label):
            try:
                xb, zb = _BITS_FOR_LETTER[letter]
            except KeyError:
                raise PauliError(f"invalid Pauli letter {letter!r}") from None
            x |= xb << q
            z |= zb << q
        return cls(n_qubits, x, z)

    @property
    def support(self) -> int:
        """Bitmask of qubits carrying a non-identity factor."""
        return self.x_mask | self.z_mask

    @property
    def weight(self) -> int:
        """Number of non-identity factors, L(word)."""
        return (self.x_mask | self.z_mask).bit_count()

    @property
    def y_count(self) -> int:
        return (self.x_mask & self.z_mask).bit_count()

    def __str__(self) -> str:
        return format_pauli_factors(self)


def mask_product(xa: int, za: int, xb: int, zb: int) -> tuple[int, int, int]:
    """Product of the words (xa, za) * (xb, zb) as (phase, x, z): i^phase * (x, z).

    Each word is i^y X^x Z^z; commuting Z^za past X^xb costs
    (-1)^{|za & xb|}, and the i^y bookkeeping of the inputs/output gives the
    remaining exponent. phase is reduced mod 4.
    """
    x = xa ^ xb
    z = za ^ zb
    phase = (
        (xa & za).bit_count()
        + (xb & zb).bit_count()
        - (x & z).bit_count()
        + 2 * (za & xb).bit_count()
    ) % 4
    return phase, x, z


def multiply(a: PauliWord, b: PauliWord) -> tuple[int, PauliWord]:
    """Operator product a*b as (phase_exponent, word): a*b = i^phase * word."""
    _check_same_size(a, b)
    phase, x, z = mask_product(a.x_mask, a.z_mask, b.x_mask, b.z_mask)
    return phase, PauliWord(a.n_qubits, x, z)


class PauliSum:
    """Hermitian sum of Pauli words with real coefficients, in canonical form.

    Terms are merged, sorted lexicographically on (z_mask, x_mask), and
    coefficients smaller than COEFF_CUTOFF in magnitude are dropped; a
    non-finite one raises PauliError. Instances are immutable values; all
    algebra returns new sums.
    """

    __slots__ = ("n_qubits", "_terms")

    def __init__(self, n_qubits: int, terms: Iterable[tuple[float, PauliWord]]):
        if n_qubits < 1:
            raise PauliError("n_qubits must be positive")
        merged: dict[tuple[int, int], float] = {}
        for coeff, word in terms:
            if word.n_qubits != n_qubits:
                raise PauliError("term qubit count differs from sum qubit count")
            key = (word.z_mask, word.x_mask)
            merged[key] = merged.get(key, 0.0) + float(coeff)
        if not all(map(math.isfinite, merged.values())):  # else the cutoff drops a NaN
            raise PauliError("non-finite coefficient after merging terms")
        self.n_qubits = n_qubits
        self._terms: tuple[tuple[float, PauliWord], ...] = tuple(
            (c, PauliWord(n_qubits, key[1], key[0]))
            for key, c in sorted(merged.items())
            if abs(c) > COEFF_CUTOFF
        )

    @property
    def terms(self) -> tuple[tuple[float, PauliWord], ...]:
        return self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self) -> Iterator[tuple[float, PauliWord]]:
        return iter(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PauliSum):
            return NotImplemented
        return self.n_qubits == other.n_qubits and self._terms == other._terms

    def __add__(self, other: "PauliSum") -> "PauliSum":
        if self.n_qubits != other.n_qubits:
            raise PauliError("cannot add sums on different qubit counts")
        return PauliSum(self.n_qubits, list(self._terms) + list(other._terms))

    def __mul__(self, scalar: float) -> "PauliSum":
        return PauliSum(self.n_qubits, [(c * scalar, w) for c, w in self._terms])

    __rmul__ = __mul__

    def coefficient(self, word: PauliWord) -> float:
        for c, w in self._terms:
            if w == word:
                return c
        return 0.0

    def __repr__(self) -> str:
        return f"PauliSum(n_qubits={self.n_qubits}, terms={len(self._terms)})"


def format_factor_lists(n_qubits: int, x, z) -> np.ndarray:
    """Factor lists like ``"X0 Z2"`` of the words (x[i], z[i]), as a string array.

    Qubit q adds the token its bit pair (x, z) picks from a 4-entry table:
    nothing for I, else the letter, q and a space; the last space is then
    stripped, so the identity gives the empty string.
    """
    x = np.asarray(x, dtype=np.uint64)
    z = np.asarray(z, dtype=np.uint64)
    text = np.zeros(x.shape, dtype=np.str_)
    for q in range(n_qubits):
        tokens = np.array(["", f"X{q} ", f"Z{q} ", f"Y{q} "])
        text = np.strings.add(text, tokens[(x >> q & 1) | (z >> q & 1) << 1])
    return np.strings.rstrip(text, " ")


def format_pauli_factors(word: PauliWord) -> str:
    """Factor list like ``"X0 Z2"``; empty string for the identity."""
    return str(format_factor_lists(word.n_qubits, [word.x_mask], [word.z_mask])[0])


def parse_pauli_factors(text: str, n_qubits: int) -> PauliWord:
    """Inverse of format_pauli_factors for a given qubit count."""
    x = z = 0
    seen: set[int] = set()
    for token in text.split():
        letter, idx_text = token[0].upper(), token[1:]
        if letter not in "XYZ":
            raise PauliError(f"invalid factor letter in {token!r}")
        try:
            q = int(idx_text)
        except ValueError:
            raise PauliError(f"invalid qubit index in {token!r}") from None
        if q < 0 or q >= n_qubits:
            raise PauliError(f"qubit index {q} out of range 0..{n_qubits - 1}")
        if q in seen:
            raise PauliError(f"duplicate qubit index {q}")
        seen.add(q)
        xb, zb = _BITS_FOR_LETTER[letter]
        x |= xb << q
        z |= zb << q
    return PauliWord(n_qubits, x, z)


def parse_pauli_text(line: str, n_qubits: int) -> tuple[float, PauliWord]:
    """Parse one term line ``<coefficient> [<letter><index> ...]``."""
    parts = line.split(None, 1)
    if not parts:
        raise PauliError("empty term line")
    try:
        coeff = float(parts[0])
    except ValueError:
        raise PauliError(f"invalid coefficient {parts[0]!r}") from None
    if not math.isfinite(coeff):
        raise PauliError(f"non-finite coefficient {parts[0]!r}")
    word = parse_pauli_factors(parts[1] if len(parts) > 1 else "", n_qubits)
    return coeff, word


def format_pauli_sum(H: PauliSum, comment: str | None = None) -> str:
    """Canonical text format: optional comments, a qubits header, one term per line."""
    lines = []
    if comment:
        for row in comment.splitlines():
            lines.append(f"# {row}")
    lines.append(f"qubits: {H.n_qubits}")
    factors = format_factor_lists(
        H.n_qubits, [w.x_mask for _, w in H.terms], [w.z_mask for _, w in H.terms]
    )
    lines += [f"{c:.17g} {f}".rstrip() for (c, _), f in zip(H.terms, factors.tolist())]
    return "\n".join(lines) + "\n"


def parse_pauli_sum(text: str) -> PauliSum:
    """Parse the canonical Pauli-sum text format produced by format_pauli_sum."""
    n_qubits = None
    terms: list[tuple[float, PauliWord]] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.lower().startswith("qubits:"):
            if n_qubits is not None:
                raise PauliError("duplicate qubits header")
            try:
                n_qubits = int(line.split(":", 1)[1])
            except ValueError:
                raise PauliError(f"invalid qubits header {line!r}") from None
            if n_qubits > MAX_QUBITS:
                raise PauliError(f"qubits: {n_qubits} exceeds the {MAX_QUBITS}-qubit limit")
            continue
        if n_qubits is None:
            raise PauliError("missing 'qubits: <n>' header before first term")
        terms.append(parse_pauli_text(line, n_qubits))
    if n_qubits is None:
        raise PauliError("missing 'qubits: <n>' header")
    return PauliSum(n_qubits, terms)
