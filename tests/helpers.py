"""Helpers the test modules share: loading a repository file as a module, and strict JSON."""

import importlib.util
import json
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
