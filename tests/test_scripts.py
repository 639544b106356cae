"""Smoke test of the example scripts at tiny sizes."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args, grids", [
    ("bimodal_experiment.py", ["--n-train", "400", "--n-test", "200", "--iterations", "5"],
     ["nf_heatmap.csv"]),
    ("prior_manifold.py", ["--lambdas", "0.5", "2", "--sigma-betas", "0", "1"],
     ["prior_lambda0.5_beta0.csv", "prior_lambda2_beta1.csv"]),
    ("spatial_experiment.py", ["--n", "400", "--iterations", "5", "--slices", "0.5"],
     ["density_x0.5.csv"]),
])
def test_script_writes_finite_grids(tmp_path, script, args, grids):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args, "--out", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "nan" not in proc.stdout and "RuntimeWarning" not in proc.stderr, proc.stdout
    for name in grids:
        table = np.loadtxt(tmp_path / name, delimiter=",", skiprows=1, ndmin=2)
        assert table.shape[1] == 3 and table.shape[0] > 1
        assert np.isfinite(table).all(), name
