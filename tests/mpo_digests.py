"""sha256 of mivqe.mps.build_mpo on fixture Hamiltonians, one line per MPO.

    grep -v '^#' tests/mpo_sha256.txt | cut -d' ' -f3- | python tests/mpo_digests.py

reads settings lines `stem mapping grouping penalty register` on stdin and
prints `digest  stem mapping grouping penalty register` for each, the format
of tests/mpo_sha256.txt, so the command above diffed against that file
checks all 156 recorded MPOs. H is the fixture's Hamiltonian in the given
grouping plus penalty * S^2 (none: no S^2 term), on the full encoded register
or reduced against the HF reference, as `run` reduces it by default. Every
site tensor in order feeds the hash repr(shape), then its float64 bytes in C
order.

build_mpo factors H's Pauli coefficients in one sweep of SVDs, one per bond.
They run in LAPACK, whose BLAS calls give other bits on another thread
count, so as a script this pins BLAS to one thread, as the benchmark harness
does, before numpy loads. Imported, it leaves the thread count alone and
lends fixture_hamiltonian to the tests.
"""

import os

if __name__ == "__main__":
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import hashlib  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from mivqe.encodings import encode, hf_reference, reduce_stationary_qubits  # noqa: E402
from mivqe.fcidump import load_fcidump  # noqa: E402
from mivqe.fermion import build_hamiltonian, hf_occupations, s_squared_operator  # noqa: E402
from mivqe.mps import build_mpo  # noqa: E402


def fixture_hamiltonian(stem, mapping, grouping, penalty, register):
    """The H of one settings row."""
    ints = load_fcidump(ROOT / "fixtures" / f"{stem}.fcidump")
    op = build_hamiltonian(ints, grouping)
    if penalty != "none":
        op = op + float(penalty) * s_squared_operator(ints.n_orbitals, grouping)
    H = encode(op, mapping, 2 * ints.n_orbitals)
    if register == "reduced":
        occ = hf_occupations(ints.n_orbitals, ints.n_electrons, ints.ms2, grouping)
        H, _, _ = reduce_stationary_qubits(H, hf_reference(mapping, occ))
    return H


def fixture_mpo_digest(*setting) -> str:
    sha = hashlib.sha256()
    for t in build_mpo(fixture_hamiltonian(*setting)).tensors:
        sha.update(repr(t.shape).encode())
        sha.update(t.tobytes())
    return sha.hexdigest()


if __name__ == "__main__":
    for line in sys.stdin:
        if line.strip():
            setting = line.split()
            print(f"{fixture_mpo_digest(*setting)}  {' '.join(setting)}", flush=True)
