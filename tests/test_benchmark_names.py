"""The names the benchmark's span recorder wraps must exist in the package.

``perfbench/spans.py`` installs its timing wrappers with ``getattr`` on the
``refguide`` modules, so a refactor that drops or renames one of those
attributes breaks the benchmark only when it runs. This test reads the
recorder's own tables, unchanged, and resolves every name.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
