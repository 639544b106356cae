#!/usr/bin/env python3
"""Heteroscedastic-bimodal benchmark: flow head against the baselines.

Three `flowcde` runs: `gen-toy` draws the heteroscedastic-bimodal data, one
`grid-search` trains a 5-stage flow head, a 5-component mixture head, a
latent-variable head and the homoscedastic Gaussian baseline on its train
split, and `heatmap` writes the flow model's density grid.  The script then
prints each head's held-out log-likelihood in raw units (the `test_ll` of
`results.csv`) next to the generator's oracle on the same test rows.  A
failing run exits with the CLI's exit code.

Example:
    python3 scripts/bimodal_experiment.py --out out/bimodal --iterations 600
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from flowcde import cli
from flowcde.data import toy_true_log_density

HEADS = ("nf", "mdn", "lv", "gauss")


def run(*argv):
    """cli.main(argv); a failing command ends the script with its exit code."""
    code = cli.main(list(argv))
    if code:
        sys.exit(code)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n-train", type=int, default=5000)
    ap.add_argument("--n-test", type=int, default=1000,
                    help="test rows; as many validation rows rank the heads")
    ap.add_argument("--iterations", type=int, default=600)
    ap.add_argument("--batch-size", type=int, default=100)
    ap.add_argument("--hidden", type=int, default=50)
    ap.add_argument("--mc-train", type=int, default=5)
    ap.add_argument("--mc-test", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", type=Path, default=Path("out/bimodal"))
    args = ap.parse_args()
    out = args.out.resolve()

    n = args.n_train + 2 * args.n_test
    run("gen-toy", "name=heteroscedastic-bimodal", f"n={n}", "seed=11", f"out={out / 'data'}")
    # the split takes floor(f * n) train and validation rows and leaves the
    # rest as test rows; half a row keeps rounding from flooring one short
    split = [(args.n_train + 0.5) / n, (args.n_test + 0.5) / n, (args.n_test - 1) / n]
    run("grid-search", f"data={out / 'data' / 'data.csv'}",
        "split=" + ",".join(map(repr, split)), "grid.head=" + ";".join(HEADS),
        f"iterations={args.iterations}", f"batch_size={args.batch_size}",
        f"hidden={args.hidden}", f"mc_train={args.mc_train}", f"mc_test={args.mc_test}",
        f"seed={args.seed}", f"out={out / 'search'}")

    results = np.genfromtxt(out / "search" / "results.csv", delimiter=",", names=True,
                            dtype=None, encoding="utf-8")
    test = np.loadtxt(out / "search" / "combo_000" / "test.csv", delimiter=",", skiprows=1,
                      ndmin=2)
    oracle = toy_true_log_density("heteroscedastic-bimodal", test[:, 0], test[:, 1]).mean()
    print(f"oracle held-out LL: {oracle:+.4f} nats (raw units, {len(test)} test rows)")
    for name in HEADS:
        ll = float(results["test_ll"][results["head"] == name][0])
        print(f"{name:>5}: held-out LL {ll:+.4f}  (oracle gap {oracle - ll:+.4f})")

    # combo_000 trained HEADS[0], the flow head
    run("heatmap", f"checkpoint={out / 'search' / 'combo_000' / 'checkpoint.ckpt'}",
        "x_min=-2", "x_max=2", "x_points=60", f"y_min={float(test[:, 1].min()) - 0.3!r}",
        f"y_max={float(test[:, 1].max()) + 0.3!r}", "y_points=121", f"mc={args.mc_test}",
        f"seed={args.seed}", f"out={out / 'nf_heatmap'}")


if __name__ == "__main__":
    main()
