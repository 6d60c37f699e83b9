"""Every demo runs in-process, under the suite's warning filters, and prints."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("demo", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_prints(demo, capsys):
    runpy.run_path(str(DEMOS / demo), run_name="__main__")
    assert capsys.readouterr().out.strip()
