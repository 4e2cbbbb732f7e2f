"""Dense 2-D matrix operations for the attention kernels and the denoiser.

Matrices are plain numpy arrays: 2-D, float32 or float64, all entries
finite. ``PRECISION_DTYPES`` maps each precision name to its working dtype;
it is the one such table the package reads. Values, finiteness included,
are validated once where they enter (the run config and the kernels' operand
rule), so these operations do not re-check them; numpy raises on bad shapes.
The row softmax is written once, in ``row_softmax_inplace``, which works in
its argument's buffer and returns the per-row statistics that let partial
softmaxes merge; ``row_softmax`` is its copying form. It checks each row's
maximum, the one finiteness rule for logits (finite inputs can overflow).
Arithmetic is numpy's, which is deterministic run-to-run on a fixed build --
the property the reproducibility tests pin down. ``matmul`` serves
``pipeline``; ``kernels`` imports it only for the benchmark's span recorder.
"""

import numpy as np

PRECISION_DTYPES = {"f32": np.float32, "f64": np.float64}


class ShapeError(ValueError):
    """Operand shapes are incompatible; the message names both shapes."""


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product ``a @ b``."""
    return a @ b


def row_softmax_inplace(a: np.ndarray) -> tuple:
    """Overwrite ``a`` with its row softmax; return the row statistics.

    Each row is shifted by its maximum ``m``, exponentiated and divided by
    its sum ``s`` of ``exp(a - m)``, all in ``a``'s own buffer, so no
    temporary of ``a``'s size is made. The shift keeps ``exp`` bounded by 1
    regardless of logit magnitude and cancels exactly in the normalization.
    Every row then sums to 1 and every entry lies in [0, 1]. Returns ``(m,
    s)`` as 1-D arrays of ``a``'s dtype: two partitions' softmax masses merge
    through them alone (``s * exp(m - M)`` under a common maximum ``M``).
    A row whose ``m`` is NaN or infinite raises before ``a`` changes; any
    other -inf logit (finite inputs can overflow) gets weight 0.
    """
    m = a.max(axis=1, keepdims=True)
    if not np.isfinite(m).all():
        raise ValueError("row_softmax requires finite logits")
    a -= m
    np.exp(a, out=a)
    s = a.sum(axis=1, keepdims=True)
    a /= s
    return m[:, 0], s[:, 0]


def row_softmax(a: np.ndarray) -> np.ndarray:
    """Softmax over each row, as a new array; ``a`` is left unchanged."""
    out = a.copy(order="K")
    row_softmax_inplace(out)
    return out


def frobenius_norm(a: np.ndarray) -> float:
    """sqrt of the sum of squared entries, accumulated in float64."""
    return float(np.sqrt(np.sum(np.square(a, dtype=np.float64))))


def stack_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rows of ``a`` followed by rows of ``b``; the caller checks that their column counts match."""
    return np.concatenate([a, b], axis=0)
