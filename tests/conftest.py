"""Shared test setup.

Tests run BLAS the way users do: the kernels and ``generate_batch`` pin
OpenBLAS to one thread themselves where numpy's build exports the setter
(``kernels.one_blas_thread``), so no thread variable is set here. The
regression digests assert bitwise-identical results run to run, and depend on
the BLAS kernel, so the report header names the running one, its thread
count, and the one they were recorded under; the oracle's digests also
depend on the interpreter's float ``sum``, so the header says whether it is
plain. Hypothesis runs derandomized so the suite is reproducible in CI.
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
    # CPython 3.12 and later compensate float sums, and the oracle's digests assume plain left-to-right ones.
    plain = sum([1e16, 1.0, -1e16]) == 0.0
    return [
        f"BLAS kernel: {kernel} at {threads} thread(s); tests/data digests recorded under {recorded}",
        f"float sum(): {'plain left to right' if plain else 'compensated'}; the oracle and check-report digests "
        "assume plain (CPython 3.10 and 3.11)",
    ]
