"""Attention kernels that condition a sample on reference keys and values.

All kernels share one working dtype per call (float32 or float64) and never
upcast internally; callers pick the precision by casting their inputs.

Every route is built on one primitive, attention over a single key/value
partition, which also returns each query row's softmax statistics: the
logit maximum ``m`` and the sum ``s`` of ``exp(logit - m)``. The logits
buffer it allocates is scaled, shifted, exponentiated and normalised in
place. ``attention`` is that primitive's output. Three routes to reference
conditioning derive from it:

* ``concat_attention`` appends the reference keys/values to the sample's own,
  so reference tokens compete with self tokens inside one softmax.
* ``rfg_attention`` runs two separate attentions and mixes the outputs with a
  scalar strength ``c``; negative ``c`` pushes away from the reference.
* ``rfg_matrix`` mixes the two outputs entrywise with a coefficient matrix.
  With the per-row coefficient that concatenated attention implies -- the
  reference partition's softmax mass, a log-sum-exp merge of the two
  partitions' ``(m, s)`` -- it reproduces ``concat_attention`` up to
  rounding, which is what the equivalence oracle certifies.
  ``reference_branches`` returns both branches and that coefficient from
  one pass over each partition; the "rfg-matrix" policy and the oracle's
  suite both run it.

``apply_policy`` dispatches on a declarative ``AttentionPolicy`` so pipeline
code never branches on kernel names itself.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .linalg import ShapeError, matmul, row_softmax_inplace, stack_rows

# Not called here any more; the benchmark's span recorder (perfbench/spans.py)
# wraps ``refguide.kernels.row_softmax`` by name, so the name stays importable.
from .linalg import row_softmax  # noqa: F401

POLICY_KINDS = ("plain", "concat", "cross-frame", "rfg", "rfg-multi", "rfg-matrix")


def _same_dtype(*arrays: np.ndarray) -> np.dtype:
    dt = arrays[0].dtype
    for a in arrays[1:]:
        if a.dtype != dt:
            raise ValueError(f"mixed dtypes in one kernel call: {dt} vs {a.dtype}")
    return dt


def _scale(q: np.ndarray, d) -> float:
    if d is None:
        d = q.shape[1]
    if d <= 0:
        raise ValueError(f"attention scale dimension must be positive, got {d}")
    return 1.0 / float(np.sqrt(d))


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

    @property
    def length(self) -> int:
        return self.q.shape[0]

    @property
    def d(self) -> int:
        return self.q.shape[1]

    @property
    def d_v(self) -> int:
        return self.v.shape[1]


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
    def needs_reference(self) -> bool:
        return self.kind != "plain"

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

    @property
    def nbytes(self) -> int:
        return sum(k.nbytes + v.nbytes for k, v in self._layers)


def _softmax(q, k, d) -> tuple:
    """``(p, m, s)``: row softmax ``p`` of q k^T / sqrt(d), with its row statistics.

    The scale and the softmax run in place on the logits buffer this function
    owns; ``m`` and ``s`` are as ``row_softmax_inplace`` returns them.
    """
    logits = matmul(q, k.T)
    logits *= _scale(q, d)
    return (logits, *row_softmax_inplace(logits))


def _partition(q, k, v, d=None) -> tuple:
    """Attention over one key/value partition, with its softmax row statistics.

    Returns ``(out, m, s)``: the normalised output ``row_softmax(q k^T /
    sqrt(d)) v``, each row's logit maximum ``m``, and the row sum ``s`` of
    ``exp(logits - m)``. Every policy derives from this call: the outputs of
    several partitions combine through ``(m, s)`` alone.
    """
    p, m, s = _softmax(q, k, d)
    return matmul(p, v), m, s


def _reference_mass(m_ref, s_ref, m_self, s_self) -> np.ndarray:
    """Reference partition's share of each row's softmax mass, a / (a + b).

    The log-sum-exp merge: ``a = s_ref * exp(m_ref - M)`` and ``b = s_self *
    exp(m_self - M)`` under the common row maximum ``M``. Values are clipped
    into the open interval (0, 1) at the working dtype's resolution: the
    exact ratio is strictly inside (0, 1), but at extreme logit gaps the
    quotient rounds to 0.0 or 1.0 and the clip restores the invariant without
    moving any non-degenerate value. Identical partitions give exactly 0.5
    (``a == b``, and ``a / (a + a)`` is exact).
    """
    top = np.maximum(m_ref, m_self)
    a = s_ref * np.exp(m_ref - top)
    b = s_self * np.exp(m_self - top)
    c = a / (a + b)
    dt = c.dtype.type
    return np.clip(c, np.finfo(dt).tiny, np.nextafter(dt(1.0), dt(0.0)))


def reference_branches(q, k_ref, v_ref, k_self, v_self) -> tuple:
    """Both branch attentions and the reference's softmax mass, in one pass.

    Returns ``(a_ref, a_self, c_vec)``. Each branch is bitwise
    ``attention`` over its partition, and ``c_vec[l]`` is the weight
    concatenated attention would give the reference partition in row ``l``,
    as ``concat_coefficient_vector`` returns it. The branches' logits are
    computed once; the coefficient comes from their row statistics.
    """
    _same_dtype(q, k_ref, v_ref, k_self, v_self)
    a_ref, m_ref, s_ref = _partition(q, k_ref, v_ref)
    a_self, m_self, s_self = _partition(q, k_self, v_self)
    return a_ref, a_self, _reference_mass(m_ref, s_ref, m_self, s_self)


def blend(coeff, a_ref, a_self) -> np.ndarray:
    """``coeff * a_ref + (1 - coeff) * a_self``.

    ``coeff`` is a scalar, a per-row column of shape (L, 1), or a full
    (L, d_v) matrix; every form is the same entrywise arithmetic.
    """
    return coeff * a_ref + (1.0 - coeff) * a_self


def guidance(coeff, a_ref, a_self) -> np.ndarray:
    """``a_self + coeff * (a_ref - a_self)``: ``blend`` as a residual update."""
    return a_self + coeff * (a_ref - a_self)


def attention(q: np.ndarray, k: np.ndarray, v: np.ndarray, d=None) -> np.ndarray:
    """Scaled dot-product attention: row_softmax(q k^T / sqrt(d)) v.

    ``d`` overrides the scale dimension (default: width of q) so split and
    concatenated calls can share one temperature.
    """
    _same_dtype(q, k, v)
    return _partition(q, k, v, d)[0]


def concat_attention(q, k_ref, v_ref, k_self, v_self, d=None) -> np.ndarray:
    """Attention over reference tokens stacked ahead of the sample's own."""
    _same_dtype(q, k_ref, v_ref, k_self, v_self)
    return attention(q, stack_rows(k_ref, k_self), stack_rows(v_ref, v_self), d=d)


def rfg_attention(q, k_ref, v_ref, k_self, v_self, c: float, d=None) -> np.ndarray:
    """Blend of reference and self attention: c * A_ref + (1 - c) * A_self.

    c == 0 and c == 1 return the self or reference branch exactly (no
    arithmetic on the other branch), so those settings are bitwise equal to
    plain and cross-frame attention.
    """
    c = float(c)
    if c == 0.0:
        return attention(q, k_self, v_self, d=d)
    if c == 1.0:
        return attention(q, k_ref, v_ref, d=d)
    _same_dtype(q, k_ref, v_ref, k_self, v_self)
    return blend(c, attention(q, k_ref, v_ref, d=d), attention(q, k_self, v_self, d=d))


def rfg_multi(q, refs, k_self, v_self, d=None) -> np.ndarray:
    """Multi-reference blend: sum_j c_j * A_j + (1 - sum_j c_j) * A_self.

    ``refs`` is a sequence of (c_j, k_j, v_j) triples. With a single
    reference this is bitwise identical to ``rfg_attention``.
    """
    refs = list(refs)
    if not refs:
        raise ValueError("rfg_multi needs at least one reference")
    if len(refs) == 1:
        c, k_ref, v_ref = refs[0]
        return rfg_attention(q, k_ref, v_ref, k_self, v_self, c, d=d)
    total = float(sum(float(c) for c, _, _ in refs))
    out = (1.0 - total) * attention(q, k_self, v_self, d=d)
    for c, k_ref, v_ref in refs:
        out += float(c) * attention(q, k_ref, v_ref, d=d)
    return out


def concat_coefficient_vector(q, k_ref, k_self, d=None) -> np.ndarray:
    """Per-row weight of the reference partition inside concatenated attention.

    Row l gets sum_ref exp(logit) / sum_all exp(logit), merged from each
    partition's row maximum and row sum (see ``reference_branches``, which
    returns the same vector along with both branch outputs).
    """
    _same_dtype(q, k_ref, k_self)
    _, m_ref, s_ref = _softmax(q, k_ref, d)
    _, m_self, s_self = _softmax(q, k_self, d)
    return _reference_mass(m_ref, s_ref, m_self, s_self)


def build_rank1_coefficient(c_vec: np.ndarray, d_v: int) -> np.ndarray:
    """Broadcast a per-row coefficient vector across d_v output columns."""
    c_vec = np.asarray(c_vec)
    if c_vec.ndim != 1:
        raise ShapeError(f"coefficient vector must be 1-D, got shape {c_vec.shape}")
    if d_v < 1:
        raise ValueError(f"d_v must be at least 1, got {d_v}")
    return np.repeat(c_vec[:, None], d_v, axis=1)


def _branches(q, k_ref, v_ref, k_self, v_self, coeff, d):
    _same_dtype(q, k_ref, v_ref, k_self, v_self)
    a_ref = attention(q, k_ref, v_ref, d=d)
    a_self = attention(q, k_self, v_self, d=d)
    if coeff.shape != a_ref.shape:
        raise ShapeError(f"coefficient shape {coeff.shape} does not match output shape {a_ref.shape}")
    return a_ref, a_self


def rfg_matrix(q, k_ref, v_ref, k_self, v_self, coeff: np.ndarray, d=None) -> np.ndarray:
    """Entrywise blend of the two branch outputs: C * A_ref + (1 - C) * A_self."""
    return blend(coeff, *_branches(q, k_ref, v_ref, k_self, v_self, coeff, d))


def guidance_form(q, k_ref, v_ref, k_self, v_self, coeff: np.ndarray, d=None) -> np.ndarray:
    """Self output plus a coefficient-gated correction toward the reference.

    A_self + C * (A_ref - A_self); the same blend as ``rfg_matrix`` written
    as a residual update.
    """
    return guidance(coeff, *_branches(q, k_ref, v_ref, k_self, v_self, coeff, d))


def apply_policy(inputs: AttentionInputs, policy: AttentionPolicy, cache=None, layer: int = 0) -> np.ndarray:
    """Run one attention block under ``policy``.

    ``cache`` is a ReferenceKV (or a sequence of them for "rfg-multi", one
    per strength, in order). Reference-conditioned kinds raise ValueError
    when the cache is missing or its count does not match the policy.
    """
    q, k, v = inputs.q, inputs.k, inputs.v
    if policy.kind == "plain":
        return attention(q, k, v)

    if cache is None:
        caches = []
    elif isinstance(cache, ReferenceKV):
        caches = [cache]
    else:
        caches = list(cache)
    if len(caches) != policy.reference_count:
        raise ValueError(
            f"policy {policy.kind!r} needs {policy.reference_count} reference cache(s), got {len(caches)}"
        )

    if policy.kind == "rfg-multi":
        refs = []
        for c, ref in zip(policy.strengths, caches):
            k_ref, v_ref = ref.layer(layer)
            refs.append((c, k_ref, v_ref))
        return rfg_multi(q, refs, k, v)

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
