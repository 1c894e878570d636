"""Symplectic-bitmask Pauli words and real-coefficient Hermitian Pauli sums.

An n-qubit Pauli word is two integer bitmasks (x, z): qubit q carries
I/X/Z/Y according to the bit pair (x, z) = (0,0)/(1,0)/(0,1)/(1,1). As an
operator, a word is i^y * (X-part) * (Z-part), with y = |x & z| its Y count,
which makes every word Hermitian. No word becomes an object: a PauliSum's
terms are a coefficient array and two uint64 mask arrays, a pool's words two
uint16 mask arrays, and format_factor_lists writes the factor lists of any
number of words from their masks in one call.
"""

from __future__ import annotations

import math

import numpy as np

_BITS_FOR_LETTER = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}

COEFF_CUTOFF = 1e-12  # merged terms below this magnitude (hartree) are dropped
# the width of the uint64 term masks (the pool scorer's and the MPO
# builder's); a larger ``qubits:`` header is refused before anything is sized
# by it
MAX_QUBITS = 64


class PauliError(ValueError):
    """Malformed Pauli data: bad masks, mismatched sizes, or unparsable text."""


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


class PauliSum:
    """Hermitian sum of Pauli words with real coefficients, in canonical form.

    Three parallel arrays hold the terms, sorted lexicographically on (z, x):
    coeffs (float64) and the x and z masks (uint64); y is each term's Y
    count. The constructor takes the same three arrays in any order, with
    repeats: equal masks are merged by np.add.at, which adds each group's
    coefficients from 0.0 in input order; then a non-finite coefficient
    raises PauliError and those smaller than COEFF_CUTOFF in magnitude are
    dropped. Instances are immutable.
    """

    __slots__ = ("n_qubits", "coeffs", "x", "z")

    def __init__(self, n_qubits: int, coeffs, x, z):
        if n_qubits < 1:
            raise PauliError("n_qubits must be positive")
        coeffs = np.asarray(coeffs, dtype=np.float64)
        x, z = np.asarray(x), np.asarray(z)
        if coeffs.ndim != 1 or x.shape != coeffs.shape or z.shape != coeffs.shape:
            raise PauliError("coeffs, x and z must be 1-d arrays of one length")
        for masks in (x, z):
            if masks.size and (
                masks.dtype.kind not in "iu" or masks.min() < 0 or int(masks.max()) >> n_qubits
            ):
                raise PauliError("mask bits outside qubit range")
        x, z = x.astype(np.uint64), z.astype(np.uint64)
        order = np.lexsort((x, z))  # stable: each group keeps its input order
        x, z = x[order], z[order]
        first = np.ones(len(order), dtype=bool)
        first[1:] = (x[1:] != x[:-1]) | (z[1:] != z[:-1])
        merged = np.zeros(np.count_nonzero(first))
        with np.errstate(invalid="ignore"):  # inf - inf is refused just below
            np.add.at(merged, np.cumsum(first) - 1, coeffs[order])
        if not np.isfinite(merged).all():  # else the cutoff drops a NaN
            raise PauliError("non-finite coefficient after merging terms")
        keep = np.abs(merged) > COEFF_CUTOFF
        self.n_qubits = n_qubits
        self.coeffs, self.x, self.z = merged[keep], x[first][keep], z[first][keep]
        for array in (self.coeffs, self.x, self.z):
            array.flags.writeable = False

    @property
    def y(self) -> np.ndarray:
        """Each term's Y count."""
        return np.bitwise_count(self.x & self.z)

    def __len__(self) -> int:
        return len(self.coeffs)

    def __repr__(self) -> str:
        return f"PauliSum(n_qubits={self.n_qubits}, terms={len(self)})"


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


def parse_pauli_factors(text: str, n_qubits: int) -> tuple[int, int]:
    """The (x, z) masks of a factor list: the inverse of format_factor_lists."""
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
    return x, z


def parse_pauli_text(line: str, n_qubits: int) -> tuple[float, int, int]:
    """Parse one term line ``<coefficient> [<letter><index> ...]`` as (coeff, x, z)."""
    parts = line.split(None, 1)
    if not parts:
        raise PauliError("empty term line")
    try:
        coeff = float(parts[0])
    except ValueError:
        raise PauliError(f"invalid coefficient {parts[0]!r}") from None
    if not math.isfinite(coeff):
        raise PauliError(f"non-finite coefficient {parts[0]!r}")
    return coeff, *parse_pauli_factors(parts[1] if len(parts) > 1 else "", n_qubits)


def format_pauli_sum(H: PauliSum, comment: str | None = None) -> str:
    """Canonical text format: optional comments, a qubits header, one term per line."""
    lines = []
    if comment:
        for row in comment.splitlines():
            lines.append(f"# {row}")
    lines.append(f"qubits: {H.n_qubits}")
    # "<coefficient> <factors>"; the identity's line drops the trailing space
    terms = np.strings.add(
        np.strings.mod("%.17g ", H.coeffs), format_factor_lists(H.n_qubits, H.x, H.z)
    )
    return "\n".join(lines + np.strings.rstrip(terms).tolist()) + "\n"


def parse_pauli_sum(text: str) -> PauliSum:
    """Parse the canonical Pauli-sum text format produced by format_pauli_sum."""
    n_qubits = None
    terms: list[tuple[float, int, int]] = []
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
    coeffs, x, z = zip(*terms) if terms else ((), (), ())
    # uint64 from the start: a list mixing masks at and below 2^63 would
    # otherwise become float64
    return PauliSum(n_qubits, coeffs, np.array(x, np.uint64), np.array(z, np.uint64))
