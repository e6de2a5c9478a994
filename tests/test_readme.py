"""README's code blocks run as written (at smoke scale)."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _section_python_block(heading: str) -> str:
    """The first ```python block under the ``## heading`` section of README."""
    text = README.read_text()
    section = text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match is not None, f"README section {heading!r} has no python block"
    return match.group(1)


def test_quickstart_block_runs(capsys):
    code = _section_python_block("Quickstart")
    # Run at smoke scale: swap the preset and shrink the population, and
    # fail loudly if the block no longer has the spots this test rewrites.
    assert "fast_preset" in code and "num_chips=24" in code
    code = code.replace("fast_preset", "smoke_preset").replace("num_chips=24", "num_chips=3")
    namespace: dict = {}
    exec(compile(code, str(README), "exec"), namespace)
    campaign = namespace["campaign"]
    assert campaign.policy_name == "reduce-max"
    assert campaign.num_chips == 3
    assert "reduce-max" in capsys.readouterr().out
