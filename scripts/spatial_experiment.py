#!/usr/bin/env python3
"""Two-dimensional target demo on the spatial-two-cluster generator.

Fits the autoregressive factorization p(y1,y2|x) = p(y1|x) p(y2|x,y1) with
flow heads on both stages, then checks the two defining properties at a few
conditioning slices: the joint density integrates to one, and the top decile
of grid cells captures most held-out points.  Density grids are written as
CSVs for plotting.

Example:
    python3 scripts/spatial_experiment.py --out out/spatial --n 20000
"""

import argparse
import time
from pathlib import Path

import numpy as np

from flowcde.autoreg import density_grid, fit_chain, grid_mass, top_decile_coverage
from flowcde.data import (apply_stats, denormalize_targets, normalize, normalize_features,
                          split, toy_generator, write_grid)
from flowcde.heads import make_head
from flowcde.training import CdeModel, TrainConfig


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=20000)
    ap.add_argument("--iterations", type=int, default=500)
    ap.add_argument("--hidden", type=int, default=30)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--slices", type=float, nargs="+", default=[0.25, 0.5, 0.75])
    ap.add_argument("--out", type=Path, default=Path("out/spatial"))
    args = ap.parse_args()

    t0 = time.perf_counter()
    ds, _ = toy_generator("spatial-two-cluster", args.n, seed=21)
    (train_ds, _, test_ds), _ = split(ds, (0.9, 0.0, 0.1), seed=0)
    ntrain, stats = normalize(train_ds)
    ntest = apply_stats(stats, test_ds)

    cfg = TrainConfig(
        learning_rate=0.005,
        iterations=args.iterations,
        batch_size=128,
        mc_samples_train=5,
        seed=args.seed,
    )
    head = make_head("nf", n_stages=2)
    model, _ = fit_chain(
        lambda n_inputs, seed: CdeModel.build(head, n_inputs, (args.hidden,), seed, 0.01),
        ntrain.x, ntrain.y, cfg, (0, 1), ("y1", "y2"),
    )
    print(f"trained both stages in {time.perf_counter() - t0:.0f}s")

    g1 = np.linspace(-4.0, 4.0, 81)
    g2 = np.linspace(-4.0, 4.0, 81)
    args.out.mkdir(parents=True, exist_ok=True)
    covered = total = 0
    for x0 in args.slices:
        xn = normalize_features(stats, [x0], train_ds.feature_names)[0]
        dens = density_grid(model, xn, g1, g2, mc=10, rng=np.random.default_rng(7))
        mass = grid_mass(dens, g1, g2)
        sel = np.abs(test_ds.x[:, 0] - x0) <= 0.05
        if sel.any():
            cov = top_decile_coverage(dens, g1, g2, ntest.y[sel])
            covered += cov * sel.sum()
            total += sel.sum()
            report = f"top-decile coverage {cov:.3f} over {sel.sum()} held-out points"
        else:
            report = "no held-out points within 0.05"
        print(f"x={x0:.2f}: quadrature mass {mass:.4f}, {report}")
        path = args.out / f"density_x{x0:g}.csv"
        with open(path, "w") as fh:
            fh.write("y1,y2,density\n")
            write_grid(
                fh,
                denormalize_targets(stats, g1, 0),
                denormalize_targets(stats, g2, 1),
                dens / (stats.y_std[0] * stats.y_std[1]),
            )
    pooled = f"{covered / total:.3f}" if total else "n/a"
    print(f"pooled top-decile coverage: {pooled}")
    print(f"density grids written to {args.out}")


if __name__ == "__main__":
    main()
