"""The package: its public names, its imports and what importing it loads."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import flowcde


def test_every_name_in_each_all_exists():
    modules = [flowcde] + [
        importlib.import_module(f"flowcde.{info.name}")
        for info in pkgutil.iter_modules(flowcde.__path__)
    ]
    assert len(modules) > 10
    for module in modules:
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, (module.__name__, missing)


@pytest.mark.filterwarnings("ignore:Support for `\\[tool.setuptools\\]`")
def test_pyproject_version_is_the_package_version():
    # pyproject.toml declares the version dynamic, read from flowcde.__version__
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    assert pyprojecttoml.read_configuration(pyproject)["project"]["version"] == flowcde.__version__


def test_only_the_heads_module_names_a_heads_output_groups():
    # each head owns its output layout and prior, so no other module spells
    # one of their group names outside a docstring
    groups = {"alpha_hat", "beta_hat", "gamma", "shift", "mu", "sigma_hat", "logit", "mean"}
    found = []
    for path in sorted(Path(flowcde.__file__).parent.glob("*.py")):
        if path.name == "heads.py":
            continue
        tree = ast.parse(path.read_text())
        docstrings = {
            id(node.body[0].value)
            for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and node.body and isinstance(node.body[0], ast.Expr)
        }
        found += [
            (path.name, node.lineno, node.value)
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and node.value in groups and id(node) not in docstrings
        ]
    assert not found


def test_only_training_and_the_heads_call_a_heads_density():
    # the network layer stays below the heads: a density grid, the prior's
    # included, is scored through training's prediction loop
    calls = []
    for path in sorted(Path(flowcde.__file__).parent.glob("*.py")):
        if path.name in ("training.py", "heads.py"):
            continue
        calls += [
            (path.name, node.lineno)
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None)) == "log_density_rows_np"
        ]
    assert not calls


def test_runtime_imports_are_numpy_and_the_standard_library():
    allowed = set(sys.stdlib_module_names) | {"numpy", "flowcde"}
    outside = []
    for path in sorted(Path(flowcde.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            outside += [(path.name, n) for n in names if n.split(".")[0] not in allowed]
    assert not outside


def test_importing_the_cli_loads_no_pool_module():
    # prediction runs its blocks on plain threads; sample and train start no
    # pool, so no command pays to import one (concurrent.futures costs ~6 ms)
    pools = ("concurrent.futures", "multiprocessing", "multiprocessing.pool",
             "multiprocessing.dummy", "queue")
    code = f"import sys, flowcde.cli; print([m for m in {pools!r} if m in sys.modules])"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(flowcde.__file__).parents[1]), *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
