"""Helpers the test modules share: loading a repository file as a module, strict JSON, a child's environment, and
seeded attention operands."""

import importlib.util
import json
import os
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def load_file(relative, name):
    """The Python file at ``relative`` under the repository root, run as a module named ``name``."""
    spec = importlib.util.spec_from_file_location(name, ROOT / relative)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def strict_loads(text):
    """``json.loads`` that fails on the non-standard NaN, Infinity and -Infinity tokens."""
    def reject(token):
        raise AssertionError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=reject)


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def child_env(**extra):
    """This process's environment without the BLAS thread variables, plus ``extra``, for a child Python process.

    The child imports refguide from where this process did, PYTHONPATH set or not.
    """
    import refguide

    env = {key: value for key, value in os.environ.items() if key not in BLAS_VARS}
    src = str(Path(refguide.__file__).parents[1])
    return {**env, "PYTHONPATH": os.pathsep.join(filter(None, (src, env.get("PYTHONPATH")))), **extra}


def partition_inputs(seed, length, keys, d, d_v, dtype):
    """Seeded ``q`` (length, d), ``k`` (keys, d) and ``v`` (keys, d_v), uniform in [-1, 1)."""
    from refguide.rng import stream

    gen = stream(seed)
    shapes = ((length, d), (keys, d), (keys, d_v))
    return [gen.uniform(-1, 1, shape).astype(dtype) for shape in shapes]


def overflowing_tile_inputs(tile):
    """f32 inputs of four pooled tiles whose tile ``tile`` overflows its logits."""
    from refguide import kernels

    q, k, v = partition_inputs(7, 4 * kernels.TILE_ROWS, 512, 8, 8, np.float32)
    rows = slice(tile * kernels.TILE_ROWS, (tile + 1) * kernels.TILE_ROWS)
    q[rows] = np.float32(3e38)  # finite, but q k^T overflows
    return q, k, v
