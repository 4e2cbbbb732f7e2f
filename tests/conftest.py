"""Shared test setup.

Tests run BLAS the way users do: the kernels and ``generate_batch`` pin
OpenBLAS to one thread themselves where numpy's build exports the setter
(``kernels.one_blas_thread``), so no thread variable is set here. The
regression digests assert bitwise-identical results run to run, and depend on
the BLAS kernel, so the report header names the running one, its thread
count, and the one they were recorded under. Hypothesis runs derandomized so
the suite is reproducible in CI.
"""

import json
from pathlib import Path

from hypothesis import settings

settings.register_profile("repro", deadline=None, max_examples=50, derandomize=True)
settings.load_profile("repro")


def pytest_report_header(config):
    from refguide import kernels

    kernel, threads = kernels.blas_kernel(), kernels.blas_threads()
    recorded = json.loads((Path(__file__).parent / "data" / "baselines.json").read_text())["blas_kernel"]
    return f"BLAS kernel: {kernel} at {threads} thread(s); tests/data digests recorded under {recorded}"
