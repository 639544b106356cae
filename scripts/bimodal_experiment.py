#!/usr/bin/env python3
"""Heteroscedastic-bimodal benchmark: flow head against the baselines.

Trains a 5-stage flow head, a 5-component mixture head, a latent-variable
head, and the homoscedastic Gaussian baseline on the same draw of the
heteroscedastic-bimodal generator, then prints held-out log-likelihood in
raw units next to the generator's oracle.  A density heatmap CSV for the
flow model is written alongside.

Example:
    python3 scripts/bimodal_experiment.py --out out/bimodal --iterations 600
"""

import argparse
import time
from pathlib import Path

import numpy as np

from flowcde.bnn import BayesianMLP, MLPArchitecture, init_posterior
from flowcde.data import apply_stats, normalize, toy_generator, toy_true_log_density
from flowcde.heads import make_head
from flowcde.training import (
    CdeModel,
    TrainConfig,
    predictive_curve,
    predictive_log_density,
    train,
)


def build_model(head_name, hidden, sigma_q, seed):
    head = make_head(head_name, n_stages=5, n_components=5, n_noise=5)
    arch = MLPArchitecture(1 + head.extra_input_dim, hidden, head.output_dim)
    post = init_posterior(arch, seed=seed, sigma_init=sigma_q, mode="fixed")
    net = BayesianMLP(arch, post, head.default_prior(), head.group_map())
    return CdeModel(net, head, head.init_extras())


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n-train", type=int, default=5000)
    ap.add_argument("--n-test", type=int, default=1000)
    ap.add_argument("--iterations", type=int, default=600)
    ap.add_argument("--batch-size", type=int, default=100)
    ap.add_argument("--hidden", type=int, default=50)
    ap.add_argument("--mc-train", type=int, default=5)
    ap.add_argument("--mc-test", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", type=Path, default=Path("out/bimodal"))
    args = ap.parse_args()

    train_ds, _ = toy_generator("heteroscedastic-bimodal", args.n_train, seed=11)
    test_ds, _ = toy_generator("heteroscedastic-bimodal", args.n_test, seed=12)
    ntrain, stats = normalize(train_ds)
    ntest = apply_stats(stats, test_ds)
    oracle = toy_true_log_density(
        "heteroscedastic-bimodal", test_ds.x, test_ds.y
    ).mean()

    cfg = TrainConfig(
        learning_rate=0.005,
        iterations=args.iterations,
        batch_size=args.batch_size,
        mc_samples_train=args.mc_train,
        seed=args.seed,
    )
    print(f"oracle held-out LL: {oracle:+.4f} nats (raw units)")
    results = {}
    for name in ("nf", "mdn", "lv", "gauss"):
        t0 = time.perf_counter()
        model = build_model(name, (args.hidden,), 0.01, args.seed)
        train(model, ntrain.x, ntrain.y[:, 0], cfg)
        ll = predictive_log_density(
            model, ntest.x, ntest.y[:, 0], args.mc_test, np.random.default_rng(1)
        ).mean() + stats.log_jacobian
        results[name] = (model, ll)
        print(
            f"{name:>5}: held-out LL {ll:+.4f}  (oracle gap {oracle - ll:+.4f},"
            f" {time.perf_counter() - t0:.0f}s)"
        )

    args.out.mkdir(parents=True, exist_ok=True)
    nf_model = results["nf"][0]
    x_grid = np.linspace(-2.0, 2.0, 60)
    y_grid = np.linspace(
        float(test_ds.y.min()) - 0.3, float(test_ds.y.max()) + 0.3, 121
    )
    xn = ((x_grid - stats.x_mean[0]) / stats.x_std[0])[:, None]
    yn = (y_grid - stats.y_mean[0]) / stats.y_std[0]
    curves = predictive_curve(nf_model, xn, yn, args.mc_test, np.random.default_rng(2))
    dens = np.exp(curves) / stats.y_std[0]
    path = args.out / "nf_heatmap.csv"
    with open(path, "w") as fh:
        fh.write("x,y,density\n")
        for a in range(x_grid.size):
            for b in range(y_grid.size):
                fh.write(f"{x_grid[a]:.6g},{y_grid[b]:.6g},{dens[a, b]:.6g}\n")
    print(f"flow-density heatmap written to {path}")


if __name__ == "__main__":
    main()
