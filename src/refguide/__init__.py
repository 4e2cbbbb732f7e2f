"""Reference-guided attention numerics.

Core pieces:

* :mod:`refguide.linalg` -- small dense-matrix helpers (matmul, a stable
  row softmax that works in place and returns each row's max and sum,
  norms, row stacking) and the precision-to-dtype table.
* :mod:`refguide.kernels` -- one primitive, attention over N key/value
  partitions with each partition's softmax mass, and the variants derived
  from it: plain self-attention, concatenated attention over a reference's
  keys/values, the scalar- and multi-reference guided blends, and the
  per-token coefficient -- the reference partition's mass -- that makes the
  blend reproduce concatenated attention exactly.
* :mod:`refguide.oracle` -- slow, loop-based 64-bit reference kernels and the
  randomized suite that certifies the fast path against them.
* :mod:`refguide.pipeline` -- a deterministic toy batch-denoising loop where
  batch element 0 acts as the reference for the rest.
* :mod:`refguide.cli` -- the ``refguide`` command (check / sweep / generate /
  bench).
"""

from .kernels import (
    AttentionInputs,
    AttentionPolicy,
    ReferenceKV,
    apply_policy,
    attention,
    concat_attention,
    concat_coefficient_vector,
    build_rank1_coefficient,
    guidance_form,
    rfg_attention,
    rfg_matrix,
    rfg_multi,
)
from .oracle import EquivalenceReport, max_rel_error, run_equivalence_suite
from .pipeline import (
    DenoiserWeights,
    PipelineConfig,
    Trajectory,
    generate_batch,
    init_denoiser,
    trajectory_distance,
)

__version__ = "0.1.0"

__all__ = [
    "AttentionInputs",
    "AttentionPolicy",
    "ReferenceKV",
    "apply_policy",
    "attention",
    "concat_attention",
    "concat_coefficient_vector",
    "build_rank1_coefficient",
    "guidance_form",
    "rfg_attention",
    "rfg_matrix",
    "rfg_multi",
    "EquivalenceReport",
    "max_rel_error",
    "run_equivalence_suite",
    "DenoiserWeights",
    "PipelineConfig",
    "Trajectory",
    "generate_batch",
    "init_denoiser",
    "trajectory_distance",
    "__version__",
]
