"""Microbenchmark for the attention kernels under each batch policy.

One iteration processes a full batch at one (L, d, d_v, B) cell through
``apply_policy``, as the denoiser calls it: the reference sample runs the
plain policy, and each remaining sample runs the policy under test against the
reference's ``(k, v)`` pair. Each sample's ``AttentionInputs`` is built once
per cell, outside the timed loop; each timed ``apply_policy`` call runs the
operand rule, finiteness scan included. Iterations are timed singly after a
warmup and the median is reported, so a stray scheduler hiccup does not move
the number. Throughput is attention calls per second (B calls per iteration).
The cache accounting counts the reference K/V bytes each guided sample reads
instead of recomputing: (B - 1) times the per-sample reference K/V size for
the reference-conditioned policies, zero for plain.
"""

import platform
import statistics
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .kernels import AttentionInputs, AttentionPolicy, apply_policy, held_logits
from .linalg import PRECISION_DTYPES
from .rng import stream, uniform_matrix

DEFAULT_BENCH_GRID = ((64, 64, 64, 8), (256, 64, 64, 8))
BENCH_POLICIES = (AttentionPolicy.plain(), AttentionPolicy.concat(), AttentionPolicy.rfg(0.35))


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


def bench_nbytes(grid, precision: str) -> list:
    """Bytes ``run_bench`` holds at each cell of ``grid``: B samples' q, k and v, and the logits of concat over 2L
    keys or of rfg over two partitions of L."""
    itemsize = np.dtype(PRECISION_DTYPES[precision]).itemsize
    return [(batch * length * (2 * d + d_v) + held_logits(length, 2 * length, 2)) * itemsize
            for length, d, d_v, batch in grid]


def _run_iteration(policy: AttentionPolicy, samples, ref: tuple) -> None:
    apply_policy(samples[0], AttentionPolicy.plain())
    for inputs in samples[1:]:
        apply_policy(inputs, policy, (ref,))


def run_bench(
    grid=DEFAULT_BENCH_GRID,
    iterations: int = 100,
    warmup: int = 10,
    precision: str = "f32",
    seed: int = 0,
) -> BenchReport:
    """Time every policy at every grid cell and report medians."""
    if precision not in PRECISION_DTYPES:
        raise ValueError(f"precision must be one of {sorted(PRECISION_DTYPES)}, got {precision!r}")
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
        gen = stream(seed, cell_index)
        samples = [AttentionInputs(*(uniform_matrix(gen, length, width, dtype=dtype) for width in (d, d, d_v)))
                   for _ in range(batch)]
        ref = (samples[0].k, samples[0].v)
        per_sample_cache = samples[0].k.nbytes + samples[0].v.nbytes
        throughput = {}
        for policy in BENCH_POLICIES:
            for _ in range(warmup):
                _run_iteration(policy, samples, ref)
            times = []
            for _ in range(iterations):
                start = time.perf_counter()
                _run_iteration(policy, samples, ref)
                times.append(time.perf_counter() - start)
            median = statistics.median(times)
            calls_per_second = batch / median if median > 0 else float("inf")
            throughput[policy.kind] = calls_per_second
            report.cells.append(
                {
                    "policy": policy.kind,
                    "length": length,
                    "d": d,
                    "d_v": d_v,
                    "batch": batch,
                    "median_seconds": median,
                    "calls_per_second": calls_per_second,
                    "cache_reused_bytes": 0 if policy.kind == "plain" else (batch - 1) * per_sample_cache,
                }
            )
        if throughput["plain"] < throughput["concat"]:
            report.expectation_violations.append(
                f"concat outpaced plain at cell {length}x{d}x{d_v}x{batch}; "
                "unexpected since concat does strictly more work"
            )
    return report
