"""Reference-guided attention numerics, in nine modules:

* :mod:`refguide.linalg` -- dense-matrix helpers (matmul, an in-place row
  softmax that returns each row's max and sum, norms, row stacking) and the
  precision-to-dtype table.
* :mod:`refguide.kernels` -- the attention routes (self, concatenated, the
  scalar-, multi-reference and matrix blends), each checking its operands
  once at entry, and ``partitions``, whose reference partition's softmax
  mass is the coefficient under which the matrix blend reproduces
  concatenated attention.
* :mod:`refguide.oracle` -- slow, loop-based 64-bit reference kernels and the
  randomized suite that certifies the fast path against them.
* :mod:`refguide.pipeline` -- a deterministic toy batch-denoising loop where
  the first sample(s) guide the rest.
* :mod:`refguide.rng` -- seeded random streams; :mod:`refguide.config` --
  presets, JSON config files and flag overrides, checked by one schema.
* :mod:`refguide.artifacts` -- raw latents, PGM previews, sweep CSV and JSON
  writers; :mod:`refguide.bench` -- the per-policy kernel microbenchmark.
* :mod:`refguide.cli` -- the ``refguide`` command (check / sweep / generate / bench).
"""

from .kernels import (
    AttentionInputs,
    AttentionPolicy,
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
