"""The scalar path stays free of numpy, and the public names and the README example work."""

import ast
import io
import os
import re
import subprocess
import sys
import tokenize
from pathlib import Path

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


def test_fleet_without_verify_imports_no_numpy(tmp_path):
    # only --verify needs the oracle; fleet's start-up time and memory count on it
    source, output = tmp_path / "fleet.csv", tmp_path / "out.csv"
    source.write_text(
        "id,acquisition_cost,maint_slope,depreciation_rate,interest_rate\n"
        "a,100,5,20,0.1\nb,40,5,20,0.1\nc,100,1,20,0.1\nbad,100,5,0,0.1\n",
        encoding="utf-8",
    )
    code = (
        "import sys; from econlife.cli import main; "
        f"code = main(['fleet', '--input', {str(source)!r}, '--output', {str(output)!r}]); "
        "sys.exit(code or 'numpy' in sys.modules)"
    )
    done = run_python("-c", code)
    assert done.returncode == 0, done.stderr or "numpy was imported"
    assert output.read_text(encoding="utf-8").count("\n") == 5


def test_public_names_resolve():
    for name in econlife.__all__:
        assert getattr(econlife, name) is not None, name
    assert econlife.cost_model.AssetParams is econlife.AssetParams


def test_lazy_names_are_looked_up_in_their_layer():
    code = """if True:
        import sys, econlife, econlife.cost_model, econlife.oracle
        lazy = [name for name in econlife.__all__ if name not in vars(econlife)]
        assert lazy, "no name is resolved lazily"
        for name in lazy:
            homes = [m for m in (econlife.cost_model, econlife.oracle) if name in m.__all__]
            assert len(homes) == 1, name
    """
    done = run_python("-c", code)
    assert done.returncode == 0, done.stderr
    fresh = [
        ("econlife.property_cost", "'econlife.cost_model' in sys.modules and 'econlife.oracle' not in sys.modules"),
        ("econlife.check_against_search", "'econlife.oracle' in sys.modules"),
        ("not hasattr(econlife, 'no_such_name')", "'numpy' not in sys.modules"),
    ]
    for expression, loaded in fresh:
        code = f"import sys, econlife; assert {expression}; sys.exit(not ({loaded}))"
        done = run_python("-c", code)
        assert done.returncode == 0, done.stderr or f"{expression}: not {loaded}"


def test_readme_library_example():
    # README's python block runs, and the comment on each expression line
    # starts with the repr of that expression's value
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    comments = {
        tok.start[0]: tok.string.lstrip("#").strip().split("  ")[0]
        for tok in tokenize.generate_tokens(io.StringIO(block).readline)
        if tok.type == tokenize.COMMENT
    }
    namespace, checked = {}, 0
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr) and stmt.lineno in comments:
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            assert repr(value) == comments[stmt.lineno], ast.unparse(stmt)
            checked += 1
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    assert checked


def test_cli_names_resolve():
    # bench/fleetloop.py and bench/tracer.py rebind these module-level names
    import econlife.cli

    for name in econlife.cli.__all__:
        assert getattr(econlife.cli, name) is not None, name
    assert callable(econlife.cli.economic_life)
    assert callable(econlife.cli.check_against_search)
