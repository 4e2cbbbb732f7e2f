"""Dense 2-D matrix operations shared by the attention kernels.

Matrices are plain numpy arrays: 2-D, float32 or float64, all entries
finite. ``PRECISION_DTYPES`` maps each precision name to its working dtype;
it is the one such table the package reads. Values are validated once where
they enter (the run config and ``AttentionInputs``), so these operations do
not re-check their operands; numpy itself raises on mismatched shapes.
``row_softmax`` keeps its finiteness check because finite inputs can still
overflow into its logits. Arithmetic is numpy's, which is deterministic
run-to-run on a fixed build -- the property the reproducibility tests pin
down.
"""

import numpy as np

PRECISION_DTYPES = {"f32": np.float32, "f64": np.float64}


class ShapeError(ValueError):
    """Operand shapes are incompatible; the message names both shapes."""


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product ``a @ b``."""
    return a @ b


def row_softmax(a: np.ndarray) -> np.ndarray:
    """Softmax over each row, stabilized by subtracting the row maximum.

    The shift keeps ``exp`` bounded by 1 regardless of logit magnitude and
    cancels exactly in the normalization, so the result is the textbook
    softmax without its overflow. Every row sums to 1 and every entry lies
    in (0, 1].
    """
    if not np.isfinite(a).all():
        raise ValueError("row_softmax requires finite logits")
    shifted = a - a.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def frobenius_norm(a: np.ndarray) -> float:
    """sqrt of the sum of squared entries, accumulated in float64."""
    return float(np.sqrt(np.sum(np.square(a, dtype=np.float64))))


def stack_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rows of ``a`` followed by rows of ``b``; column counts must match."""
    if a.shape[1] != b.shape[1]:
        raise ShapeError(f"cannot stack rows of {a.shape} on top of {b.shape}: column counts differ")
    return np.concatenate([a, b], axis=0)
