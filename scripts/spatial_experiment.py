#!/usr/bin/env python3
"""Two-dimensional target demo on the spatial-two-cluster generator.

`flowcde gen-toy` draws the data and `flowcde train targets=y1,y2` fits the
autoregressive factorization p(y1,y2|x) = p(y1|x) p(y2|x,y1) with flow heads
on both stages; one 2D `heatmap` per conditioning slice then writes the joint
density grid.  The script checks the two defining properties on each grid:
the joint density integrates to one, and the top decile of grid cells
captures most held-out points near the slice.  A failing run exits with the
CLI's exit code.

Example:
    python3 scripts/spatial_experiment.py --out out/spatial --n 20000
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from flowcde import cli
from flowcde.autoreg import grid_mass, top_decile_coverage

POINTS = 81  # nodes per target axis


def run(*argv):
    """cli.main(argv); a failing command ends the script with its exit code."""
    code = cli.main(list(argv))
    if code:
        sys.exit(code)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=20000)
    ap.add_argument("--iterations", type=int, default=500)
    ap.add_argument("--hidden", type=int, default=30)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--slices", type=float, nargs="+", default=[0.25, 0.5, 0.75])
    ap.add_argument("--out", type=Path, default=Path("out/spatial"))
    args = ap.parse_args()
    out = args.out.resolve()

    run("gen-toy", "name=spatial-two-cluster", f"n={args.n}", "seed=21", f"out={out / 'data'}")
    run("train", f"data={out / 'data' / 'data.csv'}", "targets=y1,y2", "split=0.9,0,0.1",
        "head=nf", "n_stages=2", f"hidden={args.hidden}", f"iterations={args.iterations}",
        "batch_size=128", "mc_train=5", f"seed={args.seed}", f"out={out / 'model'}")

    # each target axis spans its mean +- 4 standard deviations over all rows
    data = np.loadtxt(out / "data" / "data.csv", delimiter=",", skiprows=1, ndmin=2)
    lo, hi = data[:, 1:].mean(axis=0) + np.outer([-4.0, 4.0], data[:, 1:].std(axis=0))
    axes = [f"{key}={float(v)!r}" for key, v in
            zip(("y_min", "y2_min", "y_max", "y2_max"), [*lo, *hi])]
    test = np.loadtxt(out / "model" / "test.csv", delimiter=",", skiprows=1, ndmin=2)
    covered = total = 0
    for x0 in args.slices:
        run("heatmap", f"checkpoint={out / 'model' / 'checkpoint.ckpt'}", f"condition={x0!r}",
            *axes, f"y_points={POINTS}", f"y2_points={POINTS}", "mc=10", "seed=7",
            f"out={out / f'density_x{x0:g}'}")
        grid = np.loadtxt(out / f"density_x{x0:g}" / "heatmap.csv", delimiter=",",
                          skiprows=1).reshape(-1, POINTS, 3)
        g1, g2, dens = grid[:, 0, 0], grid[0, :, 1], grid[:, :, 2]
        mass = grid_mass(dens, g1, g2)
        sel = np.abs(test[:, 0] - x0) <= 0.05
        if sel.any():
            cov = top_decile_coverage(dens, g1, g2, test[sel, 1:])
            covered += cov * sel.sum()
            total += sel.sum()
            report = f"top-decile coverage {cov:.3f} over {sel.sum()} held-out points"
        else:
            report = "no held-out points within 0.05"
        print(f"x={x0:.2f}: quadrature mass {mass:.4f}, {report}")
    pooled = f"{covered / total:.3f}" if total else "n/a"
    print(f"pooled top-decile coverage: {pooled}")


if __name__ == "__main__":
    main()
