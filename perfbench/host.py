"""Host record: the machine and library versions a measurement was made on."""

from __future__ import annotations

import os
import platform
import resource
import time


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_version() -> str:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = deps["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def record() -> dict:
    import numpy as np
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_version(),
        "threads": {v: os.environ.get(v) for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def speed_probe_ms() -> float:
    """Median wall time of a fixed mix of interpreter and BLAS work (~0.1 s).

    Taken before and after a workload: on a shared host it shows how fast
    the machine was running, which the load average inside a VM does not.
    """
    import numpy as np

    a = np.random.default_rng(0).normal(size=(200, 200))
    a @ a  # the first BLAS call pays one-off set-up
    times = []
    for _ in range(5):
        t = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i
        for _ in range(20):
            a @ a
        times.append(time.perf_counter() - t)
    return 1e3 * sorted(times)[2]
