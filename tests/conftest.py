"""Shared test setup.

BLAS thread pools are pinned to one thread before numpy loads: the regression
digests assert bitwise-identical results run to run, and threaded reductions
can reorder floating-point sums. The digests also depend on the BLAS kernel,
so the report header names the running one and the one they were recorded
under. Hypothesis runs derandomized so the suite is reproducible in CI.
"""

import json
import os
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(var, "1")

from hypothesis import settings

settings.register_profile("repro", deadline=None, max_examples=50, derandomize=True)
settings.load_profile("repro")


def pytest_report_header(config):
    from refguide import kernels

    kernel, threads = kernels.blas_kernel(), kernels.blas_threads()
    recorded = json.loads((Path(__file__).parent / "data" / "baselines.json").read_text())["blas_kernel"]
    return f"BLAS kernel: {kernel} at {threads} thread(s); tests/data digests recorded under {recorded}"
