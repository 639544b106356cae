"""Smoke test of the example scripts at tiny sizes, and of how they reach the
pipeline: only through `cli.main`, so each grid they write carries a
manifest that re-runs it and each failure exits with the CLI's code."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from flowcde import cli

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))

# what a script may import from flowcde: the CLI, and read-side helpers for
# what the CLI does not print
ALLOWED_IMPORTS = {
    "flowcde": {"cli"},
    "flowcde.autoreg": {"grid_mass", "top_decile_coverage"},
    "flowcde.data": {"toy_true_log_density"},
    "flowcde.bnn": {"MLPArchitecture", "prior_outputs"},
    "flowcde.heads": {"make_head"},
}


def run_script(script, args, out):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args, "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=300,
    )


@pytest.mark.parametrize("script, args, grids", [
    ("bimodal_experiment.py", ["--n-train", "400", "--n-test", "200", "--iterations", "5"],
     ["nf_heatmap/heatmap.csv"]),
    ("prior_manifold.py", ["--lambdas", "0.5", "2", "--sigma-betas", "0", "1"],
     ["prior_seed7_lambda0.5_beta0.csv", "prior_seed7_lambda2_beta1.csv"]),
    ("spatial_experiment.py", ["--n", "400", "--iterations", "5", "--slices", "0.5"],
     ["density_x0.5/heatmap.csv"]),
])
def test_script_writes_finite_grids(tmp_path, script, args, grids):
    proc = run_script(script, args, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "nan" not in proc.stdout and "RuntimeWarning" not in proc.stderr, proc.stdout
    for name in grids:
        table = np.loadtxt(tmp_path / name, delimiter=",", skiprows=1, ndmin=2)
        assert table.shape[1] == 3 and table.shape[0] > 1
        assert np.isfinite(table).all(), name
        assert (tmp_path / name).with_name("manifest.cfg").is_file(), name


def test_a_failing_command_ends_the_script_with_its_exit_code(tmp_path):
    # sigma_beta 800 overflows the flow head's prior draws to NaN densities,
    # which prior-sample refuses with exit 4 before it writes anything
    proc = run_script("prior_manifold.py", ["--lambdas", "1", "--sigma-betas", "800"],
                      tmp_path / "prior")
    assert proc.returncode == 4, proc.stderr
    assert "numeric error" in proc.stderr
    assert not list(tmp_path.rglob("prior_*.csv"))


def test_a_script_heatmap_reruns_from_its_manifest(tmp_path):
    proc = run_script("spatial_experiment.py",
                      ["--n", "400", "--iterations", "5", "--slices", "0.5"], tmp_path / "run")
    assert proc.returncode == 0, proc.stderr
    written = tmp_path / "run" / "density_x0.5"
    assert cli.main(["heatmap", "--config", str(written / "manifest.cfg"),
                     f"out={tmp_path / 'rerun'}"]) == 0
    assert ((tmp_path / "rerun" / "heatmap.csv").read_bytes()
            == (written / "heatmap.csv").read_bytes())


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_scripts_reach_the_pipeline_only_through_cli_main(script):
    tree = ast.parse(script.read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
            assert not any(n == "flowcde" or n.startswith("flowcde.") for n in names), names
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("flowcde"):
            imported = {a.name for a in node.names}
            assert imported <= ALLOWED_IMPORTS.get(node.module, set()), (node.module, imported)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "cli"):
            assert node.attr == "main", node.attr
