"""Attention kernels that condition a sample on reference keys and values.

All kernels share one working dtype per call (float32 or float64) and never
upcast internally; callers pick the precision by casting their inputs.

Every route is built on one primitive, ``partitions``: one query's
attention over each of several key/value partitions, plus each partition's
softmax mass, merged from each row's logit maximum ``m`` and sum ``s`` of
``exp(logit - m)``. Concatenated attention over the partitions is their
outputs blended by these masses, for one reference or several. A logits
buffer is scaled by ``1 / sqrt(d)``, ``d`` the query width, then shifted,
exponentiated and normalised in place. ``attention`` is the one-partition
case; the routes to reference conditioning:

* ``concat_attention`` appends the reference keys/values to the sample's own,
  so reference tokens compete with self tokens inside one softmax.
* ``rfg_multi`` (``rfg_attention``: one reference) mixes the branch outputs
  with scalar strengths, without the masses; negative ones push away.
* ``rfg_matrix`` mixes the two outputs entrywise with a coefficient matrix.
  With the reference partition's mass as the per-row coefficient it
  reproduces ``concat_attention`` up to rounding, which is what the
  equivalence oracle certifies. ``reference_branches`` returns both
  branches and that mass; the "rfg-matrix" policy, the oracle's suite,
  ``rfg_matrix`` and ``guidance_form`` all run it.

A call checks once that its operands share a dtype, then runs each
partition as one ``_tile`` of query rows, or a large one as ``TILE_ROWS``-row
tiles on a thread pool (one thread per usable CPU, when BLAS runs one
thread) with the same bytes. It submits every partition's tiles before it
awaits any, so a query waits once. The pool starts with its first use.

``apply_policy`` dispatches on a declarative ``AttentionPolicy`` so pipeline
code never branches on kernel names itself.
"""

import contextvars
import functools
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from .linalg import ShapeError, row_softmax_inplace, stack_rows

# Not called here; the benchmark's span recorder (perfbench/spans.py) wraps
# ``refguide.kernels.matmul`` and ``row_softmax`` by name, so they stay importable.
from .linalg import matmul, row_softmax  # noqa: F401

POLICY_KINDS = ("plain", "concat", "cross-frame", "rfg", "rfg-multi", "rfg-matrix")

# Rows per pooled query tile and the least L * S worth the pool (see
# ``partitions``). The pool gets one thread per usable CPU when OpenBLAS runs
# one thread (its first nonempty thread variable is "1"), else no pool runs.
TILE_ROWS = 256
POOL_MIN_WORK = 1 << 19
_BLAS_THREADS = next((os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
                      if os.environ.get(v)), None)
POOL_WORKERS = len(os.sched_getaffinity(0)) if _BLAS_THREADS == "1" and hasattr(os, "sched_getaffinity") else 1


@functools.cache
def _tile_pool(workers: int, pid: int):
    """The tile pool of process ``pid``: a forked child has none of its parent's threads."""
    # Imported on first use: concurrent.futures imports logging, about 1 MiB
    # that a process which never pools (``refguide check``) should not carry.
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(workers, thread_name_prefix="refguide-tile")


def _same_dtype(*arrays: np.ndarray) -> np.dtype:
    dt = arrays[0].dtype
    for a in arrays[1:]:
        if a.dtype != dt:
            raise ValueError(f"mixed dtypes in one kernel call: {dt} vs {a.dtype}")
    return dt


@dataclass(frozen=True, eq=False)
class AttentionInputs:
    """Projected query/key/value matrices for one attention call.

    q is (L, d), k is (S, d), v is (S, d_v); all finite, same dtype.
    """

    q: np.ndarray
    k: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        for name, a in (("q", self.q), ("k", self.k), ("v", self.v)):
            if a.ndim != 2:
                raise ShapeError(f"{name} must be 2-D, got shape {a.shape}")
            if not np.isfinite(a).all():
                raise ValueError(f"{name} has non-finite entries")
        if self.q.shape[1] != self.k.shape[1]:
            raise ShapeError(f"q and k widths differ: {self.q.shape} vs {self.k.shape}")
        if self.k.shape[0] != self.v.shape[0]:
            raise ShapeError(f"k and v row counts differ: {self.k.shape} vs {self.v.shape}")
        _same_dtype(self.q, self.k, self.v)


@dataclass(frozen=True)
class AttentionPolicy:
    """Declarative choice of attention kernel plus its strengths.

    ``strength`` is meaningful for kind "rfg"; ``strengths`` (one entry per
    reference) for kind "rfg-multi". Strength magnitudes above 1, or a
    multi-reference total above 1, are allowed but warned about: the self
    branch then gets a negative weight and outputs leave the convex hull of
    the branch outputs.
    """

    kind: str
    strength: float = 0.0
    strengths: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}, expected one of {POLICY_KINDS}")
        if self.kind == "rfg-multi":
            if not self.strengths:
                raise ValueError("rfg-multi policy needs at least one reference strength")
            if sum(abs(float(c)) for c in self.strengths) > 1.0:
                warnings.warn("total reference strength exceeds 1; self branch weight is negative")
        elif self.kind == "rfg" and abs(self.strength) > 1.0:
            warnings.warn(f"reference strength {self.strength} lies outside [-1, 1]")

    @classmethod
    def plain(cls) -> "AttentionPolicy":
        return cls("plain")

    @classmethod
    def concat(cls) -> "AttentionPolicy":
        return cls("concat")

    @classmethod
    def cross_frame(cls) -> "AttentionPolicy":
        return cls("cross-frame")

    @classmethod
    def rfg(cls, strength: float) -> "AttentionPolicy":
        return cls("rfg", strength=float(strength))

    @classmethod
    def rfg_multi(cls, strengths) -> "AttentionPolicy":
        return cls("rfg-multi", strengths=tuple(float(c) for c in strengths))

    @classmethod
    def rfg_matrix(cls) -> "AttentionPolicy":
        return cls("rfg-matrix")

    @property
    def reference_count(self) -> int:
        if self.kind == "plain":
            return 0
        if self.kind == "rfg-multi":
            return len(self.strengths)
        return 1


class ReferenceKV:
    """Per-layer (K, V) pairs captured from a reference forward pass."""

    def __init__(self, layers):
        self._layers = [(k, v) for k, v in layers]
        for i, (k, v) in enumerate(self._layers):
            if k.ndim != 2 or v.ndim != 2 or k.shape[0] != v.shape[0]:
                raise ShapeError(f"layer {i} cache has mismatched shapes {k.shape} and {v.shape}")

    def __len__(self) -> int:
        return len(self._layers)

    def layer(self, index: int):
        """(K, V) for block ``index``; LookupError if the block was never cached."""
        if not 0 <= index < len(self._layers):
            raise LookupError(f"no cached keys/values for layer {index}; cache holds {len(self._layers)} layers")
        return self._layers[index]


def _tile(q, k, v, scale) -> tuple:
    """``(out, m, s)`` of attention for one tile of query rows, logits scaled by ``scale``.

    Pool threads run it, so it calls numpy and ``row_softmax_inplace`` only:
    the span recorder that wraps the other module names is single-threaded.
    """
    p = q @ k.T
    p *= scale
    m, s = row_softmax_inplace(p)
    return p @ v, m, s


def _branches(q, kvs) -> list:
    """``(out, m, s)`` of ``_tile`` over each ``(k, v)`` partition of one query, in partition order.

    Mixed dtypes and a zero-width query raise before any tile runs. With
    ``POOL_WORKERS >= 2``, L a multiple of ``TILE_ROWS`` (two tiles at
    least), S a multiple of 64 and ``L * S >= POOL_MIN_WORK``, a partition
    runs as ``TILE_ROWS``-row tiles on the thread pool, each in a copy of the
    caller's context (so ``np.errstate`` reaches it); row softmaxes are
    independent, so the tiles are bitwise the single tile. Every tile is
    submitted before any is awaited; the call returns, or raises the first
    tile's error, once every tile is done.
    """
    _same_dtype(q, *(a for kv in kvs for a in kv))
    if q.shape[1] == 0:
        raise ValueError("attention needs queries of positive width, got 0")
    length = q.shape[0]
    scale = 1.0 / float(np.sqrt(q.shape[1]))
    tiled = POOL_WORKERS >= 2 and not length % TILE_ROWS and length >= 2 * TILE_ROWS
    rows = [TILE_ROWS if tiled and not k.shape[0] % 64 and length * k.shape[0] >= POOL_MIN_WORK else length
            for k, _ in kvs]
    if not tiled or TILE_ROWS not in rows:
        return [_tile(q, k, v, scale) for k, v in kvs]
    pool = _tile_pool(POOL_WORKERS, os.getpid())
    tiles = [[pool.submit(contextvars.copy_context().run, _tile, q[lo:lo + step], k, v, scale)
              for lo in range(0, length, step)] for (k, v), step in zip(kvs, rows)]
    for error in [done.exception() for run in tiles for done in run]:
        if error is not None:
            raise error
    return [[np.concatenate(a) for a in zip(*(done.result() for done in run))] for run in tiles]


def partitions(q, kvs) -> tuple:
    """One query's attention over each ``(k, v)`` partition, and each partition's softmax mass.

    Returns ``(outs, masses)`` in partition order: each output is
    ``row_softmax(q k^T / sqrt(d)) v``, and each mass is the weight
    concatenated attention over all the partitions gives it per row,
    ``w_j / sum(w)`` with ``w_j = s_j * exp(m_j - M)`` under the common row
    maximum ``M``, summed left to right. A lone partition's mass is 1.
    Otherwise the exact mass lies strictly inside (0, 1); at extreme logit
    gaps the quotient rounds to 0.0 or 1.0, and a clip at the working
    dtype's resolution restores the invariant without moving any other
    value. A pair of identical partitions gets exactly 0.5; ``_branches`` runs the tiles.
    """
    parts = _branches(q, kvs)
    outs = [out for out, _, _ in parts]
    if len(parts) == 1:
        return outs, [np.ones_like(parts[0][2])]
    top = functools.reduce(np.maximum, [m for _, m, _ in parts])
    weights = [s * np.exp(m - top) for _, m, s in parts]
    total = sum(weights[1:], weights[0])
    info = np.finfo(total.dtype)
    return outs, list(np.minimum(np.maximum(np.divide(weights, total), info.tiny), 1 - info.epsneg))


def _partition(q, k, v) -> tuple:
    """``(out, mass)`` of ``partitions`` over the single partition ``(k, v)``."""
    (out,), (mass,) = partitions(q, [(k, v)])
    return out, mass


def reference_branches(q, k_ref, v_ref, k_self, v_self) -> tuple:
    """``(a_ref, a_self, c_vec)``: both branch attentions and the reference partition's mass.

    Each branch is bitwise ``attention`` over its partition; ``c_vec`` is
    ``concat_coefficient_vector``.
    """
    (a_ref, a_self), (c_vec, _) = partitions(q, [(k_ref, v_ref), (k_self, v_self)])
    return a_ref, a_self, c_vec


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
    return partitions(q, [(k, v)])[0][0]


def concat_attention(q, k_ref, v_ref, k_self, v_self) -> np.ndarray:
    """Attention over reference tokens stacked ahead of the sample's own."""
    _same_dtype(q, k_ref, v_ref, k_self, v_self)
    return attention(q, stack_rows(k_ref, k_self), stack_rows(v_ref, v_self))


def rfg_attention(q, k_ref, v_ref, k_self, v_self, c: float) -> np.ndarray:
    """Blend of reference and self attention: ``rfg_multi`` with the one reference ``(c, k_ref, v_ref)``."""
    return rfg_multi(q, [(c, k_ref, v_ref)], k_self, v_self)


def rfg_multi(q, refs, k_self, v_self) -> np.ndarray:
    """Multi-reference blend: sum_j c_j * A_j + (1 - sum_j c_j) * A_self.

    ``refs`` is a sequence of (c_j, k_j, v_j) triples. A lone reference at
    c == 0 or c == 1 returns the self or reference branch exactly (no
    arithmetic on the other branch), so those settings are bitwise equal to
    plain and cross-frame attention.
    """
    refs = [(float(c), k, v) for c, k, v in refs]
    if not refs:
        raise ValueError("rfg_multi needs at least one reference")
    if len(refs) == 1 and refs[0][0] in (0.0, 1.0):
        c, k_ref, v_ref = refs[0]
        return attention(q, k_ref, v_ref) if c == 1.0 else attention(q, k_self, v_self)
    *a_refs, a_self = [out for out, _, _ in _branches(q, [*((k, v) for _, k, v in refs), (k_self, v_self)])]
    out = (1.0 - sum(c for c, _, _ in refs)) * a_self
    for (c, _, _), a_ref in zip(refs, a_refs):
        out += c * a_ref
    return out


def concat_coefficient_vector(q, k_ref, k_self) -> np.ndarray:
    """Per-row weight of the reference partition inside concatenated attention.

    Row l gets sum_ref exp(logit) / sum_all exp(logit), merged from each
    partition's row maximum and row sum: ``partitions`` over zero-width
    values, so no output product runs.
    """
    return partitions(q, [(k_ref, k_ref[:, :0]), (k_self, k_self[:, :0])])[1][0]


def build_rank1_coefficient(c_vec: np.ndarray, d_v: int) -> np.ndarray:
    """Broadcast a per-row coefficient vector across d_v output columns."""
    c_vec = np.asarray(c_vec)
    if c_vec.ndim != 1:
        raise ShapeError(f"coefficient vector must be 1-D, got shape {c_vec.shape}")
    if d_v < 1:
        raise ValueError(f"d_v must be at least 1, got {d_v}")
    return np.repeat(c_vec[:, None], d_v, axis=1)


def _coefficient_branches(q, k_ref, v_ref, k_self, v_self, coeff) -> tuple:
    """``reference_branches``' two outputs, once ``coeff`` matches their shape and dtype."""
    a_ref, a_self, _ = reference_branches(q, k_ref, v_ref, k_self, v_self)
    if coeff.shape != a_ref.shape:
        raise ShapeError(f"coefficient shape {coeff.shape} does not match output shape {a_ref.shape}")
    _same_dtype(a_ref, coeff)
    return a_ref, a_self


def rfg_matrix(q, k_ref, v_ref, k_self, v_self, coeff: np.ndarray) -> np.ndarray:
    """Entrywise blend of the two branch outputs: C * A_ref + (1 - C) * A_self."""
    return blend(coeff, *_coefficient_branches(q, k_ref, v_ref, k_self, v_self, coeff))


def guidance_form(q, k_ref, v_ref, k_self, v_self, coeff: np.ndarray) -> np.ndarray:
    """Self output plus a coefficient-gated correction toward the reference.

    A_self + C * (A_ref - A_self); the same blend as ``rfg_matrix`` written
    as a residual update.
    """
    return guidance(coeff, *_coefficient_branches(q, k_ref, v_ref, k_self, v_self, coeff))


def apply_policy(inputs: AttentionInputs, policy: AttentionPolicy, caches=(), layer: int = 0) -> np.ndarray:
    """Run one attention block under ``policy``.

    ``caches`` holds one ReferenceKV per reference the policy reads (for
    "rfg-multi", one per strength, in order; "plain" reads none).
    Reference-conditioned kinds raise ValueError when the count does not
    match the policy.
    """
    q, k, v = inputs.q, inputs.k, inputs.v
    if policy.kind == "plain":
        return attention(q, k, v)
    if len(caches) != policy.reference_count:
        raise ValueError(
            f"policy {policy.kind!r} needs {policy.reference_count} reference cache(s), got {len(caches)}"
        )

    if policy.kind == "rfg-multi":
        return rfg_multi(q, [(c, *ref.layer(layer)) for c, ref in zip(policy.strengths, caches)], k, v)

    k_ref, v_ref = caches[0].layer(layer)
    if policy.kind == "concat":
        return concat_attention(q, k_ref, v_ref, k, v)
    if policy.kind == "cross-frame":
        return rfg_attention(q, k_ref, v_ref, k, v, 1.0)
    if policy.kind == "rfg":
        return rfg_attention(q, k_ref, v_ref, k, v, policy.strength)
    if policy.kind == "rfg-matrix":
        a_ref, a_self, c_vec = reference_branches(q, k_ref, v_ref, k, v)
        return blend(c_vec[:, None], a_ref, a_self)
    raise ValueError(f"unknown policy kind {policy.kind!r}")
