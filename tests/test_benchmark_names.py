"""The names the benchmark's span recorder wraps must exist in the package.

``perfbench/spans.py`` installs its timing wrappers with ``getattr`` on the
``refguide`` modules, so a refactor that drops or renames one of those
attributes breaks the benchmark only when it runs. These tests read the
recorder's own tables, unchanged, resolve every name, and check the one
signature the recorder reads: it names each ``apply_policy`` span from its
second positional argument's ``kind``.
"""

import importlib
import inspect

from helpers import load_file


def _load_spans():
    return load_file("perfbench/spans.py", "perfbench_spans")


def test_every_wrap_point_resolves():
    spans = _load_spans()
    points = [(module, attr) for module, attr, *_ in spans.WRAP_POINTS]
    points.append(spans.POLICY_WRAP_POINT)
    missing = [
        f"refguide.{module}.{attr}"
        for module, attr in points
        if not hasattr(importlib.import_module(f"refguide.{module}"), attr)
    ]
    assert not missing, f"perfbench/spans.py wraps names the package lacks: {missing}"


def test_apply_policy_takes_the_policy_second():
    module, attr = _load_spans().POLICY_WRAP_POINT
    apply_policy = getattr(importlib.import_module(f"refguide.{module}"), attr)
    params = [p for p in inspect.signature(apply_policy).parameters.values()
              if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
    policy = importlib.import_module("refguide.kernels").AttentionPolicy
    assert len(params) >= 2 and (params[1].name, params[1].annotation) == ("policy", policy), params
