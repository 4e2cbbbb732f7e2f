"""Brute-force attention oracle and the kernel equivalence suite.

The naive functions here recompute attention with explicit Python loops over
``math.exp`` in 64-bit floats. Every dot product is a ``sum`` of products,
``sum(map(mul, ...))``, and V is read by column; the recorded digests pin
those bits, so do not reorder or compensate the sums. That ``sum`` is plain
left to right on CPython 3.10 and 3.11 only: from 3.12 on it compensates
float sums (``sum([1e16, 1.0, -1e16])`` is 1.0, not 0.0), so the recorded
oracle and check-report digests hold on 3.10 and 3.11. The sums stay
builtin: ``functools.reduce(operator.add, ...)`` measured 1.4-1.65x slower
per dot product. They share no arithmetic code with the numpy kernels in
:mod:`refguide.kernels`; that independence is the point, so keep numpy
expressions out of the naive paths.

``run_equivalence_suite`` draws seeded random inputs over a grid of shapes.
Per trial it makes the call the "rfg-matrix" policy makes, ``partitions``
over the reference and self partitions, once, derives the coefficient, both
branches, the matrix blend and the guidance form from it, and checks:

* rank-1 matrix blend vs brute-force concatenated attention (the headline
  equivalence, reported as ``max_rel_error``),
* fast concatenated attention vs the brute-force oracle,
* matrix blend vs fast concatenated attention,
* guidance (residual) form vs the matrix blend,
* bitwise identities of the scalar blend: strength 0 and strength 1 give
  the self and reference branch, and strength 0.35 is the scalar blend vs
  ``blend`` of the trial's branches,
* coefficient entries strictly inside (0, 1).

Each cell also runs trials with queries scaled by ``STRESS_SCALE`` to push
logits far from the origin; those are held to a proportionally looser bound
and accounted separately, since the error of the exponential-ratio
coefficient grows with logit magnitude. The bounds are
``PRECISION_THRESHOLDS[precision]`` and ``STRESS_SCALE`` times it.

Trials are independent, each drawn from ``stream(seed, cell, trial)``. Where
``os.fork`` exists, they run in one process per usable CPU (``kernels.CPUS``),
the caller and forked children, whatever threads BLAS runs. The caller
queues every chunk of consecutive trials in one pipe before the first fork
(on Linux a chunk is one trial while trials outnumber processes by at most
2048), and each process claims the next chunk whenever it finishes one, so a
faster process runs more. The records are folded in (cell, trial) order, so
the report is byte-identical at any worker count.

Per-trial errors are normalized by the largest magnitude among the compared
outputs and the two branch attentions. Rounding error of every identity is
bounded by a small multiple of machine epsilon times that branch scale,
whereas the blended output itself can cancel arbitrarily close to zero (a
single-entry output hits this a few times per thousand draws), which would
turn an ulp-level absolute deviation into an unbounded ratio and fail
correct kernels at random.
"""

import math
import os
import pickle
import select
import struct
from dataclasses import asdict, dataclass, field
from operator import mul

import numpy as np

from . import kernels
from .kernels import blend, build_rank1_coefficient, concat_attention, guidance, partitions, rfg_attention

# Not called here any more; the benchmark's span recorder (perfbench/spans.py)
# wraps these names in ``refguide.oracle`` too, so they stay importable.
from .kernels import attention, concat_coefficient_vector, guidance_form, rfg_matrix, rfg_multi  # noqa: F401
from .linalg import PRECISION_DTYPES, ShapeError
from .rng import stream, uniform_matrix

DEFAULT_GRID = tuple(
    (length, d, d_v)
    for length in (1, 2, 4, 8, 16, 64)
    for d in (1, 4, 32)
    for d_v in (1, 4, 32)
)

PRECISION_THRESHOLDS = {"f32": 1e-5, "f64": 1e-10}
STRESS_SCALE = 100.0


def _as_rows(a) -> list:
    return np.asarray(a, dtype=np.float64).tolist()


def _attention_rows(q_rows: list, k_rows: list, v_rows: list) -> np.ndarray:
    """Attention over row lists: each sum runs left to right, V read by column."""
    width = len(q_rows[0])
    if len(k_rows[0]) != width:
        raise ShapeError(f"q width {width} does not match k width {len(k_rows[0])}")
    if len(v_rows) != len(k_rows):
        raise ShapeError(f"k has {len(k_rows)} rows but v has {len(v_rows)}")
    scale = 1.0 / math.sqrt(width)
    v_cols = list(zip(*v_rows))
    out = []
    for q_row in q_rows:
        logits = [sum(map(mul, q_row, k_row)) * scale for k_row in k_rows]
        m = max(logits)
        weights = [math.exp(x - m) for x in logits]
        total = sum(weights)
        probs = [w / total for w in weights]
        out.append([sum(map(mul, probs, col)) for col in v_cols])
    return np.array(out, dtype=np.float64)


def naive_attention(q, k, v) -> np.ndarray:
    """Loop-based scaled dot-product attention in 64-bit Python floats; d is the width of q."""
    return _attention_rows(_as_rows(q), _as_rows(k), _as_rows(v))


def naive_concat_attention(q, k_ref, v_ref, k_self, v_self) -> np.ndarray:
    """Brute-force attention over reference keys/values stacked ahead of self."""
    k_rows = _as_rows(k_ref) + _as_rows(k_self)
    v_rows = _as_rows(v_ref) + _as_rows(v_self)
    return _attention_rows(_as_rows(q), k_rows, v_rows)


def naive_coefficient_vector(q, k_ref, k_self) -> np.ndarray:
    """Loop-based reference-partition weight per query row, unclipped."""
    q_rows, ref_rows, self_rows = _as_rows(q), _as_rows(k_ref), _as_rows(k_self)
    scale = 1.0 / math.sqrt(len(q_rows[0]))
    out = []
    for q_row in q_rows:
        ref_logits = [sum(map(mul, q_row, k_row)) * scale for k_row in ref_rows]
        self_logits = [sum(map(mul, q_row, k_row)) * scale for k_row in self_rows]
        m = max(max(ref_logits), max(self_logits))
        num = sum(math.exp(x - m) for x in ref_logits)
        den = num + sum(math.exp(x - m) for x in self_logits)
        out.append(num / den)
    return np.array(out, dtype=np.float64)


def max_rel_error(a, b) -> float:
    """Worst entrywise deviation, relative to the larger matrix magnitude.

    max |a - b| divided by max(max|a|, max|b|, 1e-12); the floor makes the
    all-zero comparison return 0 instead of dividing by zero.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeError(f"cannot compare shapes {a.shape} and {b.shape}")
    scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))), 1e-12)
    return float(np.max(np.abs(a - b))) / scale


IDENTITY_NAMES = (
    "matrix_vs_oracle",
    "concat_vs_oracle",
    "matrix_vs_concat",
    "guidance_vs_matrix",
)


@dataclass
class EquivalenceReport:
    """Deterministic summary of one equivalence-suite run (no timings)."""

    precision: str
    seed: int
    grid: tuple
    trials_per_cell: int
    stress_trials_per_cell: int
    stress_scale: float
    threshold: float
    stress_threshold: float
    total_trials: int = 0
    max_rel_error: float = 0.0
    stress_max_rel_error: float = 0.0
    identity_errors: dict = field(default_factory=dict)
    exact_failures: int = 0
    range_violations: int = 0
    coefficient_min: float = math.inf
    coefficient_max: float = -math.inf
    worst: dict | None = None
    passed: bool = False

    def to_dict(self) -> dict:
        return {**asdict(self), "grid": [list(cell) for cell in self.grid]}


def _draw_inputs(gen, length, d, d_v, dtype, scale):
    return tuple(uniform_matrix(gen, length, width, scale=s, dtype=dtype)
                 for width, s in ((d, scale), (d, 1.0), (d_v, 1.0), (d, 1.0), (d_v, 1.0)))


def _processes(trials: int) -> int:
    """Processes ``_run_trials`` runs ``trials`` trials in: the caller and its forked children, one per usable CPU."""
    return min(kernels.CPUS if hasattr(os, "fork") else 1, trials)


def suite_nbytes(grid, precision: str, per_cell: int) -> list:
    """Bytes held while trials run at each cell of ``grid``: one trial in each process ``_run_trials`` uses.

    A trial: the logits of concat over 2L keys or of ``partitions`` over two partitions of L, 48 B per drawn value
    (array, f64 draw, naive Python float) and 160 per L x d_v output entry (some sixteen arrays at up to 8 B, and a
    naive Python float).
    """
    itemsize, processes = np.dtype(PRECISION_DTYPES[precision]).itemsize, _processes(len(grid) * per_cell)
    return [(kernels.held_logits(length, 2 * length, 2) * itemsize + length * (48 * (3 * d + 2 * d_v) + 160 * d_v))
            * processes for length, d, d_v in grid]


_RECORD = struct.Struct("=H")  # one queued chunk index


def _run_share(run_trial, keys, position, queue, chunks) -> tuple:
    """``(records, error)`` of ``run_trial`` at ``position``, then at each chunk of ``chunks`` whose index it reads
    from ``queue``, once the chunk before has run, until EOF or the first error.

    The queue's write end is closed before any process reads it, so a ``_RECORD.size`` read returns a whole record or
    EOF, and never blocks. ``records`` maps each position run to its record; ``error`` is the first
    ``(position, exception)``, or None.
    """
    records, positions = {}, [position]
    while positions:
        for position in positions:
            try:
                records[position] = run_trial(keys[position])
            except Exception as exc:
                return records, (position, exc)
        record = os.read(queue, _RECORD.size)
        positions = chunks[_RECORD.unpack(record)[0]] if record else ()
    return records, None


def _run_trials(run_trial, keys) -> list:
    """``[run_trial(key) for key in keys]``, run by ``_processes(len(keys))`` processes that claim keys as they free up.

    That is one process per usable CPU, at most one per key, where
    ``os.fork`` exists, however many threads BLAS runs. Before the first
    fork, the caller cuts the positions from the process count on into at
    most ``PIPE_BUF // _RECORD.size`` chunks of consecutive positions (on
    Linux, one position each while there are at most 2048 more keys than
    processes) and queues every chunk index in one pipe, in one write, then
    closes its write end. Process w runs position w first, then reads the
    next chunk index each time it finishes a chunk, so a faster process runs
    more trials; the caller is process 0. ``keys`` is only indexed and
    measured, so a ``range`` stays lazy. Every other process is a forked
    child that pickles its ``_run_share`` result back through a pipe and
    always leaves through ``os._exit``. A process stops at its first error,
    the others run on; once the caller stops, it drains the queue, so the
    chunks no process claimed are dropped. All children are reaped before
    this returns or raises. Chunks are claimed in increasing order and each
    runs in order, so the exception of the lowest key is raised, the one a
    serial loop would raise; a child that exits without a result counts as a
    ``ChildProcessError`` at the lowest position no process returned.
    """
    workers = _processes(len(keys))
    rest = range(workers, len(keys))
    size = max(-(-len(rest) // (select.PIPE_BUF // _RECORD.size)), 1)
    chunks = [rest[i:i + size] for i in range(0, len(rest), size)]
    queue, write_fd = os.pipe()
    os.write(write_fd, b"".join(map(_RECORD.pack, range(len(chunks)))))  # one atomic write into an empty pipe
    os.close(write_fd)
    shares, children, reaped = [], [], []
    try:
        for w in range(1, workers):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    os.close(read_fd)
                    payload = pickle.dumps(_run_share(run_trial, keys, w, queue, chunks))
                    with open(write_fd, "wb") as pipe:
                        pipe.write(payload)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write_fd)
            children.append((pid, read_fd))
        shares.append(_run_share(run_trial, keys, 0, queue, chunks))
    finally:
        while os.read(queue, select.PIPE_BUF):  # drop the chunks no process claimed, so the children stop
            pass
        os.close(queue)
        for pid, read_fd in children:
            with open(read_fd, "rb") as pipe:
                payload = pipe.read()
            reaped.append((pid, payload, os.waitpid(pid, 0)[1]))
    records, errors = {}, []
    for records_of, error in shares + [pickle.loads(payload) for _, payload, status in reaped if status == 0]:
        records.update(records_of)
        errors += [error] if error else []
    for pid, _, status in reaped:  # a child exits 0 only after its whole payload is written
        if status != 0:
            done = records.keys() | {position for position, _ in errors}
            missing = next(p for p in range(len(keys)) if p not in done)
            errors.append((missing, ChildProcessError(
                f"suite worker {pid} exited without a result (wait status {status})")))
    if errors:
        raise min(errors, key=lambda error: error[0])[1]
    return [records[p] for p in range(len(keys))]


def run_equivalence_suite(
    seed: int = 0,
    grid=DEFAULT_GRID,
    trials_per_cell: int = 20,
    precision: str = "f32",
    stress_trials_per_cell: int = 5,
    corrupt_coefficient: float = 0.0,
) -> EquivalenceReport:
    """Certify the blend kernels against the brute-force oracle.

    ``corrupt_coefficient`` is a test hook: it is added to one coefficient
    entry before the matrix blend. A value that changes that entry in the
    working dtype must make the suite fail and record the offending trial in
    ``report.worst``; one below about half an ulp of the entry changes nothing.
    """
    if precision not in PRECISION_DTYPES:
        raise ValueError(f"precision must be one of {sorted(PRECISION_DTYPES)}, got {precision!r}")
    if trials_per_cell < 1:
        raise ValueError("trials_per_cell must be at least 1")
    if stress_trials_per_cell < 0:
        raise ValueError("stress_trials_per_cell must be nonnegative")
    grid = tuple((int(l), int(d), int(d_v)) for l, d, d_v in grid)
    if not grid:
        raise ValueError("grid must contain at least one (L, d, d_v) cell")
    dtype = PRECISION_DTYPES[precision]
    threshold = PRECISION_THRESHOLDS[precision]
    per_cell = trials_per_cell + stress_trials_per_cell

    report = EquivalenceReport(
        precision=precision,
        seed=int(seed),
        grid=grid,
        trials_per_cell=int(trials_per_cell),
        stress_trials_per_cell=int(stress_trials_per_cell),
        stress_scale=STRESS_SCALE,
        threshold=threshold,
        stress_threshold=threshold * STRESS_SCALE,
        identity_errors={
            name: {"standard": 0.0, "stress": 0.0} for name in IDENTITY_NAMES
        },
    )

    def run_trial(index) -> tuple:
        """Trial ``index``'s ``(errors in IDENTITY_NAMES order, c_vec min, max, range violations, exact failures)``."""
        cell_index, trial = divmod(index, per_cell)
        length, d, d_v = grid[cell_index]
        gen = stream(seed, cell_index, trial)
        scale = STRESS_SCALE if trial >= trials_per_cell else 1.0
        q, k_ref, v_ref, k_self, v_self = _draw_inputs(gen, length, d, d_v, dtype, scale)

        # The rfg-matrix policy's own call: both branches and the
        # coefficient from one pass over each partition.
        (ref_branch, self_branch), (c_vec, _) = partitions(q, [(k_ref, v_ref), (k_self, v_self)])
        coeff = build_rank1_coefficient(c_vec, d_v)
        if corrupt_coefficient:
            coeff = coeff.copy()
            coeff[0, 0] += dtype(corrupt_coefficient)

        fast_concat = concat_attention(q, k_ref, v_ref, k_self, v_self)
        blended = blend(coeff, ref_branch, self_branch)
        guided = guidance(coeff, ref_branch, self_branch)
        oracle = naive_concat_attention(q, k_ref, v_ref, k_self, v_self)

        guard = max(*(float(np.max(np.abs(a))) for a in (ref_branch, self_branch, oracle)), 1e-12)

        def deviation(a, b):
            # A NaN would vanish from every max() below and pass the trial.
            err = float(np.max(np.abs(np.asarray(a, np.float64) - np.asarray(b, np.float64)))) / guard
            return err if math.isfinite(err) else math.inf

        exact_failures = sum(not np.array_equal(a, b) for a, b in (
            (rfg_attention(q, k_ref, v_ref, k_self, v_self, 0.0), self_branch),
            (rfg_attention(q, k_ref, v_ref, k_self, v_self, 1.0), ref_branch),
            (rfg_attention(q, k_ref, v_ref, k_self, v_self, 0.35), blend(0.35, ref_branch, self_branch)),
        ))
        errors = (deviation(blended, oracle), deviation(fast_concat, oracle),
                  deviation(blended, fast_concat), deviation(guided, blended))
        violations = int(np.count_nonzero(~((c_vec > 0.0) & (c_vec < 1.0))))
        return errors, float(c_vec.min()), float(c_vec.max()), violations, exact_failures

    keys = range(len(grid) * per_cell)
    worst_ratio = -math.inf
    for index, (errors, c_min, c_max, violations, failures) in zip(keys, _run_trials(run_trial, keys)):
        cell_index, trial = divmod(index, per_cell)
        stressed = trial >= trials_per_cell
        report.total_trials += 1
        report.coefficient_min = min(report.coefficient_min, c_min)
        report.coefficient_max = max(report.coefficient_max, c_max)
        report.range_violations += violations
        report.exact_failures += failures
        bucket = "stress" if stressed else "standard"
        limit = report.stress_threshold if stressed else report.threshold
        for name, err in zip(IDENTITY_NAMES, errors):
            report.identity_errors[name][bucket] = max(report.identity_errors[name][bucket], err)
            ratio = err / limit
            if ratio > worst_ratio:
                worst_ratio = ratio
                report.worst = {
                    "identity": name,
                    "error": err,
                    "cell": list(grid[cell_index]),
                    "trial": trial,
                    "stressed": stressed,
                    "stream_key": [int(seed), cell_index, trial],
                    "threshold": limit,
                }

    report.max_rel_error = max(
        report.identity_errors[name]["standard"] for name in IDENTITY_NAMES
    )
    report.stress_max_rel_error = max(
        report.identity_errors[name]["stress"] for name in IDENTITY_NAMES
    )
    report.passed = (
        report.max_rel_error <= report.threshold
        and report.stress_max_rel_error <= report.stress_threshold
        and report.exact_failures == 0
        and report.range_violations == 0
    )
    return report
