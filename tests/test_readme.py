"""The README's code examples run against the package as it is."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_kernel_api_example_runs():
    section = README.read_text(encoding="utf-8").split("\n## Kernel API\n", 1)[1].split("\n## ", 1)[0]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace = {}
    exec(compile(code, f"{README}: Kernel API", "exec"), namespace)
    assert namespace["block"].shape == (16, 8)
