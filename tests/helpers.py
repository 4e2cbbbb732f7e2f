"""Helpers the test modules share: loading a repository file as a module, strict JSON, and a child's environment."""

import importlib.util
import json
import os
from pathlib import Path

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
