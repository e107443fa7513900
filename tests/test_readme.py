"""The README's library example runs as written against the package root."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_runs(capsys):
    exec(compile(library_example(), str(README), "exec"), {})
    mean_product, fraction_below = (float(v) for v in capsys.readouterr().out.split())
    assert mean_product == pytest.approx(2.0426, abs=1e-4)
    assert fraction_below == pytest.approx(0.9067, abs=1e-4)
