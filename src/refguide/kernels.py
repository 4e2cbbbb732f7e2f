"""Attention kernels that condition a sample on reference keys and values.

All kernels share one working dtype per call (float32 or float64) and never
upcast internally; callers pick the precision by casting their inputs.

Every route runs ``_branches``: one query's attention over each of several
key/value partitions, with each row's logit maximum ``m`` and sum ``s`` of
``exp(logit - m)``. Only ``partitions`` (so ``concat_coefficient_vector`` and
the "rfg-matrix" policy) merges them into each partition's softmax mass, the
weights by which concatenated attention blends the partitions' outputs. A
logits buffer is scaled by ``1 / sqrt(d)``, ``d`` the query width, then
shifted, exponentiated and normalised in place; a row whose maximum logit is
not finite raises (``row_softmax_inplace``), as finite operands can overflow.
``attention`` is the one-partition case; the routes to reference conditioning:

* ``concat_attention`` appends the reference keys/values to the sample's own,
  so reference tokens compete with self tokens inside one softmax.
* ``rfg_multi`` (``rfg_attention``: one reference) mixes the branch outputs
  with scalar strengths, without the masses; negative ones push away.
* ``rfg_matrix`` mixes the two outputs entrywise with a coefficient matrix.
  With the reference partition's mass as the per-row coefficient it
  reproduces ``concat_attention`` up to rounding, which is what the
  equivalence oracle certifies. The "rfg-matrix" policy and the oracle's
  suite get both branches and that mass from ``partitions``; ``rfg_matrix``
  and ``guidance_form`` take the coefficient and run ``_branches``.

Each public route checks once, at entry, with one rule, ``_operands``: dtypes,
shapes, every entry of ``q``, ``k``, ``v`` and any coefficient finite;
``_branches`` trusts its caller. It runs BLAS at one thread wherever numpy's
OpenBLAS exports the setter, in commands and library calls alike, restoring
the count on return or raise (``one_blas_thread``). A call tiles when its
largest partition meets ``tile_rows``' rule, and every partition then runs
256-row tiles dealt to shares: the caller runs share 0, a pool of ``CPUS - 1``
threads the rest (at one worker, the same code). Each thread reuses one logits
scratch, so every call's logits stay within ``held_logits(L, largest S)``. The
bytes depend on the shape and the BLAS kernel only, never on the worker count.

``apply_policy`` runs an ``AttentionPolicy``, a kind plus one strength per
reference the scalar blend reads, over each reference's ``(k, v)``, so
pipeline code never branches on kernel names itself; every policy with
strengths is one ``rfg_multi`` call.
"""

import contextlib
import contextvars
import ctypes
import functools
import math
import os
import threading
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .linalg import PRECISION_DTYPES, ShapeError, row_softmax_inplace, stack_rows

# Not called here; the benchmark's span recorder (perfbench/spans.py) wraps
# ``refguide.kernels.matmul`` and ``row_softmax`` by name, so they stay importable.
from .linalg import matmul, row_softmax  # noqa: F401

POLICY_KINDS = ("plain", "concat", "cross-frame", "rfg", "rfg-multi", "rfg-matrix")

# Rows per query tile and the least L * S worth tiling (see ``tile_rows``).
TILE_ROWS = 256
POOL_MIN_WORK = 1 << 19
CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
_scratch = threading.local()  # per thread and dtype, one tile logits buffer grown to the largest tile
_UNPINNED = contextlib.nullcontext()  # ``one_blas_thread`` without the setter or at one thread: a shared no-op


@functools.cache
def _openblas():
    """``(get_threads, set_threads, kernel_name)`` of the OpenBLAS numpy loaded, or None if it lacks them."""
    home = Path(np.__file__).parent
    for path in [*home.parent.glob(f"{home.name}.libs/*openblas*"), *home.glob(".dylibs/*openblas*")]:
        with contextlib.suppress(OSError, AttributeError):  # RTLD_NOLOAD: numpy's copy, never a second one
            lib = ctypes.CDLL(str(path), getattr(os, "RTLD_NOLOAD", 0))
            funcs = [lib[f"scipy_openblas_{f}64_"] for f in ("get_num_threads", "set_num_threads", "get_corename")]
            for f, args, result in zip(funcs, ([], [ctypes.c_int], []), (ctypes.c_int, None, ctypes.c_char_p)):
                f.argtypes, f.restype = args, result
            return tuple(funcs)
    return None


def blas_threads():
    """OpenBLAS's thread count; without its exports, 1 if the first nonempty thread variable is "1", else None."""
    if lib := _openblas():
        return lib[0]()
    env = (os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"))
    return 1 if next(filter(None, env), None) == "1" else None


def blas_kernel():
    """The kernel OpenBLAS picked for this CPU (such as "SkylakeX"), or None without its exports."""
    return (lib := _openblas()) and lib[2]().decode()


def pool_workers() -> int:
    """Tile shares, the caller's included: ``CPUS`` while BLAS runs one thread (as ``_branches`` sets it), else 1."""
    return CPUS if blas_threads() == 1 else 1


def one_blas_thread() -> contextlib.AbstractContextManager:
    """Set OpenBLAS to one thread until the returned context exits, then restore its count, on return or raise.

    The count is the process's: other threads' BLAS runs at one thread meanwhile; concurrent pins can undo each other.
    """
    if not (lib := _openblas()) or (threads := lib[0]()) == 1:
        return _UNPINNED
    lib[1](1)
    restore = contextlib.ExitStack()
    restore.callback(lib[1], threads)
    return restore


@functools.cache
def _tile_pool(pid: int):
    """Process ``pid``'s tile pool: ``CPUS - 1`` threads (one at least) beside the caller; a fork inherits none."""
    # Imported on first use: concurrent.futures imports logging, 1 MiB a process that never pools should not carry.
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(max(CPUS - 1, 1), thread_name_prefix="refguide-tile")


@dataclass(frozen=True, eq=False)
class AttentionInputs:
    """Projected q (L, d), k (S, d) and v (S, d_v) for one attention call; the kernels check them (``_operands``)."""

    q: np.ndarray
    k: np.ndarray
    v: np.ndarray


@dataclass(frozen=True)
class AttentionPolicy:
    """A kind of attention plus one strength per reference its scalar blend reads.

    ``strengths`` holds one entry for "rfg", one or more for "rfg-multi",
    ``(1.0,)`` for "cross-frame" (the blend at c = 1) and none otherwise;
    any other combination, or a strength that is not finite, raises. A
    total magnitude above 1 is allowed but warned about: outputs then leave
    the convex hull of the branch outputs.
    """

    kind: str
    strengths: tuple = ()

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}, expected one of {POLICY_KINDS}")
        strengths = tuple(float(c) for c in self.strengths)
        object.__setattr__(self, "strengths", strengths)
        ok, want = {
            "rfg": (len(strengths) == 1, "exactly one strength"),
            "rfg-multi": (len(strengths) >= 1, "at least one strength"),
            "cross-frame": (strengths == (1.0,), "the one strength 1.0"),
        }.get(self.kind, (not strengths, "no strength"))
        if not ok:
            raise ValueError(f"policy kind {self.kind!r} takes {want}, got {strengths}")
        if not all(map(math.isfinite, strengths)):
            raise ValueError(f"policy kind {self.kind!r} takes finite strengths, got {strengths}")
        total = sum(abs(c) for c in strengths)
        if total > 1.0:
            warnings.warn(f"total reference strength magnitude {total} exceeds 1; outputs leave the convex hull "
                          "of the branch outputs")

    @classmethod
    def plain(cls) -> "AttentionPolicy":
        return cls("plain")

    @classmethod
    def concat(cls) -> "AttentionPolicy":
        return cls("concat")

    @classmethod
    def cross_frame(cls) -> "AttentionPolicy":
        return cls("cross-frame", (1.0,))

    @classmethod
    def rfg(cls, strength: float) -> "AttentionPolicy":
        return cls("rfg", (strength,))

    @classmethod
    def rfg_multi(cls, strengths) -> "AttentionPolicy":
        return cls("rfg-multi", strengths)

    @classmethod
    def rfg_matrix(cls) -> "AttentionPolicy":
        return cls("rfg-matrix")

    @property
    def strength(self) -> float:
        """The "rfg" policy's one strength; 0.0 for every other kind."""
        return self.strengths[0] if self.kind == "rfg" else 0.0

    @property
    def reference_count(self) -> int:
        return 1 if self.kind in ("concat", "rfg-matrix") else len(self.strengths)


def _tile(q, k, v, scale, out=None) -> tuple:
    """``(out, m, s)`` of attention for one tile of query rows, logits scaled by ``scale``.

    Given ``out``, its rows of the partition's output, the logits go to this
    thread's scratch. Pool threads run it, so it calls numpy and
    ``row_softmax_inplace`` only: the span recorder is single-threaded.
    """
    size = q.shape[0] * k.shape[0]
    if out is not None and getattr(_scratch, q.dtype.name, np.empty(0)).size < size:
        setattr(_scratch, q.dtype.name, np.empty(size, q.dtype))
    logits = None if out is None else getattr(_scratch, q.dtype.name)[:size].reshape(q.shape[0], k.shape[0])
    p = np.matmul(q, k.T, out=logits)
    p *= scale
    m, s = row_softmax_inplace(p)
    return np.matmul(p, v, out=out), m, s


def tile_rows(length: int, keys: int) -> int:
    """Query rows per tile of a call of L queries whose largest partition has S keys: ``TILE_ROWS``, or all L.

    It tiles if L exceeds ``TILE_ROWS`` and L rounded up to a multiple of ``TILE_ROWS``, times S rounded up to one of
    64, is at least ``POOL_MIN_WORK``: every shape the tile grid of that size covers (484 x 968 tiles as 512 x 1024
    would), the last tile shorter if L is not a multiple of ``TILE_ROWS``. Under OpenBLAS's SkylakeX kernel (not
    Haswell's) tiles of ``TILE_ROWS`` rows over a multiple of 64 keys are bitwise the single tile; a ragged shape may
    differ from it by a few ulps. No byte depends on the worker count.
    """
    padded = -(-length // TILE_ROWS) * TILE_ROWS * -(-keys // 64) * 64
    return TILE_ROWS if length > TILE_ROWS and padded >= POOL_MIN_WORK else length


def held_logits(length: int, keys: int) -> int:
    """Logits an L x L and an L x S call, S their largest partition's ``keys``, hold at most; each caller runs both.

    An untiled call holds its L x S logits until it returns; a tiled one leaves each thread's scratch of one full tile
    held after it, on as many threads as there are tiles at most. So where L x L does not tile and L x S does (for
    S = 2L, L from 481 to 640), both count.
    """
    rows = min(-(-length // TILE_ROWS), CPUS) * TILE_ROWS
    tiled = [rows * s for s in (length, keys) if tile_rows(length, s) < length]
    untiled = [length * s for s in (length, keys) if tile_rows(length, s) == length]
    return max(tiled, default=0) + max(untiled, default=0)


def _operands(q, kvs, keyless=(), coeff=None) -> None:
    """Raise unless ``q``, the ``(k, v)`` partitions and any ``coeff`` obey every route's one operand rule.

    ``kvs`` is nonempty; all share one dtype, float32 or float64; ``q`` is 2-D of positive width; each
    partition's ``k`` is 2-D, as wide as ``q``, with a key unless the partition's index is in ``keyless`` (its own
    softmax needs one), and then its ``v`` is 2-D with as many rows, as wide as partition 0's; ``coeff`` has the
    output's shape; every entry is finite. An error names ``q``, the partition's ``k`` or ``v``, or the coefficient.
    """
    if not kvs:
        raise ValueError("a kernel call needs at least one (k, v) partition, got none")
    named = [("q", q), *((f"partition {i}'s {n}", a) for i, kv in enumerate(kvs) for n, a in zip("kv", kv)),
             *([("coefficient", coeff)] if coeff is not None else [])]
    if other := {a.dtype for _, a in named} - {q.dtype}:
        raise ValueError(f"mixed dtypes in one kernel call: {q.dtype} vs {other.pop()}")
    if q.dtype not in PRECISION_DTYPES.values():
        raise ValueError(f"kernels work in float32 or float64, got {q.dtype}")
    if q.ndim != 2 or q.shape[1] == 0:
        raise ShapeError(f"q must be 2-D and of positive width, got shape {q.shape}")
    for i, (k, v) in enumerate(kvs):
        if k.ndim != 2:
            raise ShapeError(f"partition {i}'s k must be 2-D, got shape {k.shape}")
        if k.shape[0] == 0 and i not in keyless:
            raise ShapeError(f"partition {i} has no keys: its k has shape {k.shape}")
        if k.shape[1] != q.shape[1]:
            raise ShapeError(f"q of shape {q.shape} and partition {i}'s k of shape {k.shape} differ in width")
        if v.ndim != 2 or v.shape[0] != k.shape[0]:
            raise ShapeError(f"partition {i}'s v must be 2-D with the {k.shape[0]} rows of its k, got shape {v.shape}")
        if v.shape[1] != kvs[0][1].shape[1]:
            raise ShapeError(f"partition {i}'s v of shape {v.shape} and partition 0's v of shape {kvs[0][1].shape} "
                             "differ in width")
    if coeff is not None and coeff.shape != (shape := (q.shape[0], kvs[0][1].shape[1])):
        raise ShapeError(f"coefficient shape {coeff.shape} does not match output shape {shape}")
    for name, a in named:
        if not np.isfinite(a).all():
            raise ValueError(f"{name} has non-finite entries")


def _branches(q, kvs) -> list:
    """``(out, m, s)`` of ``_tile`` over each ``(k, v)`` partition of one query, in partition order.

    Each public route checks once, at entry (``_operands``); ``_branches`` trusts its caller. It holds BLAS at one
    thread throughout (``one_blas_thread``) and asks ``tile_rows`` once, for its largest partition. If that tiles,
    every partition's tiles of that height, in order, are dealt to ``W = min(pool_workers(), tiles)`` shares: share
    ``w`` writes tiles ``w``, ``w + W``, ... into ``out``, ``m`` and ``s``. The caller runs share 0, the pool the
    rest, each in a copy of the caller's context (so ``np.errstate`` reaches it). Once no share runs, it returns or
    raises the first error in share order, such as a softmax's on a row whose maximum is not finite.
    """
    with one_blas_thread():
        length = q.shape[0]
        scale = 1.0 / float(np.sqrt(q.shape[1]))
        if (rows := tile_rows(length, max(k.shape[0] for k, _ in kvs))) == length:
            return [_tile(q, k, v, scale) for k, v in kvs]
        parts = [(np.empty((length, v.shape[1]), q.dtype), *np.empty((2, length), q.dtype)) for _, v in kvs]
        tiles = [(slice(i, i + rows), *kv, *p) for kv, p in zip(kvs, parts) for i in range(0, length, rows)]
        workers = min(pool_workers(), len(tiles))

        def share(w):
            for r, k, v, out, m, s in tiles[w::workers]:
                _, m[r], s[r] = _tile(q[r], k, v, scale, out[r])

        helpers = [_tile_pool(os.getpid()).submit(contextvars.copy_context().run, share, w) for w in range(1, workers)]
        try:
            share(0)
        finally:
            errors = [helper.exception() for helper in helpers]  # waits: nothing raises while a share still runs
        for error in filter(None, errors):
            raise error
        return parts


def partitions(q, kvs) -> tuple:
    """One query's attention over each ``(k, v)`` partition, and each partition's softmax mass.

    Returns ``(outs, masses)`` in partition order: each output is
    ``row_softmax(q k^T / sqrt(d)) v``, and each mass is the weight
    concatenated attention over all the partitions gives it per row,
    ``w_j / sum(w)`` with ``w_j = s_j * exp(m_j - M)`` under the common row
    maximum ``M``, summed left to right. With two partitions or more, the
    exact mass lies strictly inside (0, 1); at extreme logit gaps the
    quotient rounds to 0.0 or 1.0, and a clip at the working dtype's
    resolution restores the invariant without moving any other value. A pair
    of identical partitions gets exactly 0.5; ``_branches`` runs the tiles.
    """
    _operands(q, kvs)
    parts = _branches(q, kvs)
    outs = [out for out, _, _ in parts]
    top = functools.reduce(np.maximum, [m for _, m, _ in parts])
    weights = [s * np.exp(m - top) for _, m, s in parts]
    total = sum(weights[1:], weights[0])
    info = np.finfo(total.dtype)
    return outs, list(np.minimum(np.maximum(np.divide(weights, total), info.tiny), 1 - info.epsneg))


def blend(coeff, a_ref, a_self) -> np.ndarray:
    """``coeff * a_ref + (1 - coeff) * a_self``.

    ``coeff`` is a scalar, a per-row column of shape (L, 1), or a full
    (L, d_v) matrix; every form is the same entrywise arithmetic.
    """
    return coeff * a_ref + (1.0 - coeff) * a_self


def guidance(coeff, a_ref, a_self) -> np.ndarray:
    """``a_self + coeff * (a_ref - a_self)``: ``blend`` as a residual update."""
    return a_self + coeff * (a_ref - a_self)


def attention(q: np.ndarray, k: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Scaled dot-product attention: row_softmax(q k^T / sqrt(d)) v, d the width of q."""
    _operands(q, [(k, v)])
    return _branches(q, [(k, v)])[0][0]


def concat_attention(q, k_ref, v_ref, k_self, v_self) -> np.ndarray:
    """Attention over the reference's tokens, if any, stacked ahead of the sample's own."""
    _operands(q, [(k_ref, v_ref), (k_self, v_self)], keyless=(0,))
    return _branches(q, [(stack_rows(k_ref, k_self), stack_rows(v_ref, v_self))])[0][0]


def rfg_attention(q, k_ref, v_ref, k_self, v_self, c: float) -> np.ndarray:
    """Blend of reference and self attention: ``rfg_multi`` with the one reference ``(c, k_ref, v_ref)``."""
    return rfg_multi(q, [(c, k_ref, v_ref)], k_self, v_self)


def rfg_multi(q, refs, k_self, v_self) -> np.ndarray:
    """Multi-reference blend: sum_j c_j * A_j + (1 - sum_j c_j) * A_self.

    ``refs`` is a sequence of (c_j, k_j, v_j) triples, every strength and partition checked first. A
    lone reference at c == 0 or c == 1 returns the self or reference branch exactly (no arithmetic
    on the other branch), so those settings are bitwise equal to plain and cross-frame attention.
    """
    refs = [(float(c), k, v) for c, k, v in refs]
    if not refs:
        raise ValueError("rfg_multi needs at least one reference")
    if not all(math.isfinite(c) for c, _, _ in refs):
        raise ValueError(f"rfg_multi takes finite strengths, got {[c for c, _, _ in refs]}")
    kvs = [*((k, v) for _, k, v in refs), (k_self, v_self)]
    _operands(q, kvs)
    if len(refs) == 1 and refs[0][0] in (0.0, 1.0):
        return _branches(q, [kvs[0 if refs[0][0] == 1.0 else 1]])[0][0]
    *a_refs, a_self = [out for out, _, _ in _branches(q, kvs)]
    out = (1.0 - sum(c for c, _, _ in refs)) * a_self
    for (c, _, _), a_ref in zip(refs, a_refs):
        out += c * a_ref
    return out


def concat_coefficient_vector(q, k_ref, k_self) -> np.ndarray:
    """Per-row weight of the reference partition inside concatenated attention.

    Row l gets sum_ref exp(logit) / sum_all exp(logit), merged from each partition's
    row maximum and row sum: ``partitions`` over zero-width values, so no output product runs.
    """
    return partitions(q, [(k_ref, k_ref[..., :0]), (k_self, k_self[..., :0])])[1][0]


def build_rank1_coefficient(c_vec: np.ndarray, d_v: int) -> np.ndarray:
    """Broadcast a per-row coefficient vector across d_v output columns."""
    c_vec = np.asarray(c_vec)
    if c_vec.ndim != 1:
        raise ShapeError(f"coefficient vector must be 1-D, got shape {c_vec.shape}")
    if d_v < 1:
        raise ValueError(f"d_v must be at least 1, got {d_v}")
    return np.repeat(c_vec[:, None], d_v, axis=1)


def _coefficient_branches(q, k_ref, v_ref, k_self, v_self, coeff) -> list:
    """``[a_ref, a_self]`` from ``_branches``, once ``_operands`` passes the two partitions and ``coeff``."""
    kvs = [(k_ref, v_ref), (k_self, v_self)]
    _operands(q, kvs, coeff=coeff)
    return [out for out, _, _ in _branches(q, kvs)]


def rfg_matrix(q, k_ref, v_ref, k_self, v_self, coeff: np.ndarray) -> np.ndarray:
    """Entrywise blend of the two branch outputs: C * A_ref + (1 - C) * A_self."""
    return blend(coeff, *_coefficient_branches(q, k_ref, v_ref, k_self, v_self, coeff))


def guidance_form(q, k_ref, v_ref, k_self, v_self, coeff: np.ndarray) -> np.ndarray:
    """Self output plus a coefficient-gated correction toward the reference.

    A_self + C * (A_ref - A_self); the same blend as ``rfg_matrix`` written
    as a residual update.
    """
    return guidance(coeff, *_coefficient_branches(q, k_ref, v_ref, k_self, v_self, coeff))


def apply_policy(inputs: AttentionInputs, policy: AttentionPolicy, refs=()) -> np.ndarray:
    """Run one attention block under ``policy``.

    ``refs`` holds this block's ``(k, v)`` for each reference the policy
    reads (one per strength, in order; "plain" reads none). Every policy
    with strengths is the scalar blend ``rfg_multi``. Reference-conditioned
    kinds raise ValueError when the count does not match the policy.
    """
    q, k, v = inputs.q, inputs.k, inputs.v
    if policy.kind == "plain":
        return attention(q, k, v)
    if len(refs) != policy.reference_count:
        raise ValueError(f"policy {policy.kind!r} needs {policy.reference_count} reference (k, v) pair(s), got {len(refs)}")
    if policy.strengths:
        return rfg_multi(q, [(c, *ref) for c, ref in zip(policy.strengths, refs)], k, v)
    if policy.kind == "concat":
        return concat_attention(q, *refs[0], k, v)
    (a_ref, a_self), (c_vec, _) = partitions(q, [refs[0], (k, v)])
    return blend(c_vec[:, None], a_ref, a_self)
