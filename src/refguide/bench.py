"""Microbenchmark for the attention kernels under each batch policy.

One iteration processes a full batch at one (L, d, d_v, B) cell: the
reference sample runs plain attention (publishing its K/V), each remaining
sample runs the policy under test. Iterations are timed individually after a
warmup and the median is reported, so a stray scheduler hiccup does not move
the number. Throughput is attention calls per second (B calls per
iteration). The cache accounting counts the reference K/V bytes each guided
sample reads instead of recomputing: (B - 1) times the per-sample reference
K/V size for the reference-conditioned policies, zero for plain.
"""

import platform
import statistics
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .kernels import attention, concat_attention, rfg_attention
from .linalg import PRECISION_DTYPES
from .rng import stream

DEFAULT_BENCH_GRID = ((64, 64, 64, 8), (256, 64, 64, 8))
BENCH_POLICIES = ("plain", "concat", "rfg")
_BENCH_STRENGTH = 0.35


@dataclass
class BenchReport:
    precision: str
    iterations: int
    warmup: int
    seed: int
    build: str
    cells: list = field(default_factory=list)
    expectation_violations: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


def _draw_batch(gen, length, d, d_v, batch, dtype):
    samples = []
    for _ in range(batch):
        q = gen.uniform(-1.0, 1.0, (length, d)).astype(dtype)
        k = gen.uniform(-1.0, 1.0, (length, d)).astype(dtype)
        v = gen.uniform(-1.0, 1.0, (length, d_v)).astype(dtype)
        samples.append((q, k, v))
    return samples


def _run_iteration(policy: str, samples) -> None:
    q0, k0, v0 = samples[0]
    attention(q0, k0, v0)
    for q, k, v in samples[1:]:
        if policy == "plain":
            attention(q, k, v)
        elif policy == "concat":
            concat_attention(q, k0, v0, k, v)
        else:
            rfg_attention(q, k0, v0, k, v, _BENCH_STRENGTH)


def run_bench(
    grid=DEFAULT_BENCH_GRID,
    iterations: int = 100,
    warmup: int = 10,
    precision: str = "f32",
    seed: int = 0,
) -> BenchReport:
    """Time every policy at every grid cell and report medians."""
    if precision not in PRECISION_DTYPES:
        raise ValueError(f"precision must be 'f32' or 'f64', got {precision!r}")
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    dtype = PRECISION_DTYPES[precision]
    report = BenchReport(
        precision=precision,
        iterations=int(iterations),
        warmup=int(warmup),
        seed=int(seed),
        build=f"python {platform.python_version()}, numpy {np.__version__}",
    )

    for cell_index, (length, d, d_v, batch) in enumerate(grid):
        samples = _draw_batch(stream(seed, cell_index), length, d, d_v, batch, dtype)
        k0, v0 = samples[0][1], samples[0][2]
        per_sample_cache = k0.nbytes + v0.nbytes
        throughput = {}
        for policy in BENCH_POLICIES:
            for _ in range(warmup):
                _run_iteration(policy, samples)
            times = []
            for _ in range(iterations):
                start = time.perf_counter()
                _run_iteration(policy, samples)
                times.append(time.perf_counter() - start)
            median = statistics.median(times)
            calls_per_second = batch / median if median > 0 else float("inf")
            throughput[policy] = calls_per_second
            report.cells.append(
                {
                    "policy": policy,
                    "length": length,
                    "d": d,
                    "d_v": d_v,
                    "batch": batch,
                    "median_seconds": median,
                    "calls_per_second": calls_per_second,
                    "cache_reused_bytes": 0 if policy == "plain" else (batch - 1) * per_sample_cache,
                }
            )
        if throughput["plain"] < throughput["concat"]:
            report.expectation_violations.append(
                f"concat outpaced plain at cell {length}x{d}x{d_v}x{batch}; "
                "unexpected since concat does strictly more work"
            )
    return report
