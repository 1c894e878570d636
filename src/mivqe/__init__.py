"""Mutual-information-assisted adaptive VQE on a classical statevector simulator."""

import os

# One BLAS/OpenMP thread unless the caller set a count: on more threads the
# MPS route's SVDs and dense solves change their last bits, and its artifacts
# with them. This runs before .pauli first imports numpy; a caller that
# loaded numpy earlier keeps the count it started with.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

__version__ = "0.1.0"

from .pauli import PauliSum  # noqa: E402

__all__ = ["PauliSum", "__version__"]
