"""The scalar path stays free of numpy, and the public names and demos work."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import econlife
import econlife.cost_model

ROOT = Path(__file__).resolve().parent.parent


def run_python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)


def test_scalar_path_imports_no_numpy():
    code = "import sys, econlife, econlife.cli; sys.exit('numpy' in sys.modules)"
    done = run_python("-c", code)
    assert done.returncode == 0, done.stderr or "numpy was imported"


def test_public_names_resolve():
    for name in econlife.__all__:
        assert getattr(econlife, name) is not None, name
    assert econlife.cost_model.AssetParams is econlife.AssetParams


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo):
    done = run_python(str(ROOT / "demos" / demo))
    assert done.returncode == 0, done.stderr


def test_cli_names_resolve():
    # bench/fleetloop.py and bench/tracer.py rebind these module-level names
    import econlife.cli
    import econlife.oracle

    for name in econlife.cli.__all__:
        assert getattr(econlife.cli, name) is not None, name
    assert callable(econlife.cli.economic_life)
    assert callable(econlife.cli.check_against_search)
    assert callable(econlife.oracle.property_cost)
