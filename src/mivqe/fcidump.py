"""FCIDUMP ingestion: active-space one-/two-electron integrals in chemist notation.

Only the plain-text FCIDUMP dialect is supported: a ``&FCI ... /`` namelist
header carrying NORB/NELEC/MS2, then whitespace-separated records
``value i j k l`` with 1-based indices. Integrals are assumed to be already
restricted to the active space; no frozen-core arithmetic happens here.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .pauli import MAX_QUBITS

DUPLICATE_TOLERANCE = 1e-10
# 32 spatial orbitals are 64 spin-orbital qubits, the width of the uint64
# term masks; the limit is checked before the NORB^4 integral tensors exist
MAX_ORBITALS = MAX_QUBITS // 2


class FcidumpError(ValueError):
    """Raised on malformed FCIDUMP content."""


@dataclass
class MolecularIntegrals:
    """Active-space integrals: h_pq and chemist-notation g_pqrs = (pq|rs)."""

    n_orbitals: int
    n_electrons: int
    ms2: int
    core_energy: float
    one_body: np.ndarray
    two_body: np.ndarray

    def __post_init__(self):
        n = self.n_orbitals
        if self.one_body.shape != (n, n):
            raise FcidumpError("one_body shape mismatch")
        if self.two_body.shape != (n, n, n, n):
            raise FcidumpError("two_body shape mismatch")
        for name in ("core_energy", "one_body", "two_body"):
            if not np.isfinite(getattr(self, name)).all():
                raise FcidumpError(f"{name} holds a non-finite value")
        nelec, ms2 = self.n_electrons, self.ms2
        if nelec < 0:
            raise FcidumpError(f"NELEC must be non-negative, got {nelec}")
        if nelec > 2 * n:
            raise FcidumpError("more electrons than spin-orbitals")
        # MS2 = n_alpha - n_beta with n_alpha + n_beta = NELEC
        if (nelec + ms2) % 2:
            raise FcidumpError(f"NELEC={nelec} and MS2={ms2} differ in parity")
        if abs(ms2) > nelec:
            raise FcidumpError(f"|MS2|={abs(ms2)} exceeds NELEC={nelec}")


def _parse_header(text: str) -> tuple[int, int, int, str]:
    """(NORB, NELEC, MS2, record text) from the ``&FCI ... /`` namelist."""
    m = re.search(r"&FCI(.*?)(?:/|&END)", text, re.S | re.I)
    if not m:
        raise FcidumpError("missing &FCI ... / header")
    body = m.group(1)
    keys = {}
    for kv in re.finditer(r"([A-Za-z0-9_]+)\s*=\s*([^=]*?)(?=(?:,?\s*[A-Za-z0-9_]+\s*=)|$)", body, re.S):
        keys[kv.group(1).upper()] = kv.group(2).strip().rstrip(",").strip()
    try:
        n, nelec = int(keys["NORB"]), int(keys["NELEC"])
        ms2 = int(keys.get("MS2", 0))
    except KeyError as missing:
        raise FcidumpError(f"header missing {missing}") from None
    except ValueError as exc:
        raise FcidumpError(f"non-integer header value: {exc}") from None
    if n < 1:
        raise FcidumpError(f"NORB must be positive, got {n}")
    if n > MAX_ORBITALS:
        raise FcidumpError(f"NORB={n} exceeds the {MAX_ORBITALS}-orbital limit")
    return n, nelec, ms2, text[m.end():]


_EIGHTFOLD = (
    lambda i, j, k, l: (i, j, k, l),
    lambda i, j, k, l: (j, i, k, l),
    lambda i, j, k, l: (i, j, l, k),
    lambda i, j, k, l: (j, i, l, k),
    lambda i, j, k, l: (k, l, i, j),
    lambda i, j, k, l: (l, k, i, j),
    lambda i, j, k, l: (k, l, j, i),
    lambda i, j, k, l: (l, k, j, i),
)


def parse_fcidump(text: str) -> MolecularIntegrals:
    """Parse FCIDUMP text into fully symmetrized integral tensors.

    Record dispatch: all indices zero is the core energy, k = l = 0 is a
    one-body element, anything else a two-body element. Each stored unique
    element populates its full symmetry orbit; re-stating an element with a
    value differing by more than DUPLICATE_TOLERANCE is an error.
    """
    n, nelec, ms2, rest = _parse_header(text)

    core = 0.0
    have_core = False
    h = np.zeros((n, n))
    h_set = np.zeros((n, n), dtype=bool)
    g = np.zeros((n, n, n, n))
    g_set = np.zeros((n, n, n, n), dtype=bool)

    tokens = rest.split()
    if len(tokens) % 5:
        raise FcidumpError("record stream is not a multiple of 5 tokens")
    for pos in range(0, len(tokens), 5):
        try:
            value = float(tokens[pos])
            i, j, k, l = (int(t) for t in tokens[pos + 1 : pos + 5])
        except ValueError:
            raise FcidumpError(f"malformed record {' '.join(tokens[pos : pos + 5])!r}") from None
        if not math.isfinite(value):
            raise FcidumpError(f"non-finite value in record {' '.join(tokens[pos : pos + 5])!r}")
        if i == j == k == l == 0:
            if have_core and abs(core - value) > DUPLICATE_TOLERANCE:
                raise FcidumpError("conflicting core-energy records")
            core, have_core = value, True
            continue
        if k == 0 and l == 0:
            if not (1 <= i <= n and 1 <= j <= n):
                raise FcidumpError(f"one-body indices out of range: {i} {j}")
            a, b = i - 1, j - 1
            for p, q in ((a, b), (b, a)):
                if h_set[p, q] and abs(h[p, q] - value) > DUPLICATE_TOLERANCE:
                    raise FcidumpError(f"conflicting one-body records at {i} {j}")
                h[p, q], h_set[p, q] = value, True
            continue
        if not all(1 <= t <= n for t in (i, j, k, l)):
            raise FcidumpError(f"two-body indices out of range: {i} {j} {k} {l}")
        a, b, c, d = i - 1, j - 1, k - 1, l - 1
        for image in _EIGHTFOLD:
            p, q, r, s = image(a, b, c, d)
            if g_set[p, q, r, s] and abs(g[p, q, r, s] - value) > DUPLICATE_TOLERANCE:
                raise FcidumpError(f"conflicting two-body records at {i} {j} {k} {l}")
            g[p, q, r, s], g_set[p, q, r, s] = value, True

    return MolecularIntegrals(
        n_orbitals=n,
        n_electrons=nelec,
        ms2=ms2,
        core_energy=core,
        one_body=h,
        two_body=g,
    )


def load_fcidump(path) -> MolecularIntegrals:
    with open(path) as fh:
        return parse_fcidump(fh.read())

