"""Binding acceptance checks, one test per criterion.

Each test prints a single [PASS]/[FAIL] line with the measured numbers (run
pytest with -s to see them; under plain -v the test name itself carries the
verdict).  Tolerances and runtime ceilings are asserted exactly as stated,
never loosened: a failure here means the package does not meet its contract.

The slow criteria (6, 7, 8) train real models; deselect them with
`-m "not slow"`.  On 2 CPUs criterion 6 took 2.5-3.3 s and criterion 8
2.1-2.5 s; criterion 7 needs scikit-learn's diabetes data, and where
scikit-learn is absent it is skipped.
"""

import csv
import hashlib
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from flowcde.autoreg import (
    AutoregModel,
    density_grid,
    grid_mass,
    top_decile_coverage,
)
from flowcde.bnn import (
    BayesianMLP,
    GroupPrior,
    MLPArchitecture,
    PriorConfig,
    init_posterior,
    sample_prior_cde,
    sample_prior_parameters,
)
from flowcde.cli import main
from flowcde.data import (
    apply_stats,
    load_csv,
    normalize,
    split,
    toy_generator,
    toy_true_log_density,
)
from flowcde.flows import log_density_batch, sample, stage_apply
from flowcde.heads import make_head
from flowcde.training import (
    CdeModel,
    TrainConfig,
    free_energy,
    free_energy_value,
    predictive_log_density,
    train,
)
from mlp_reference import mlp_forward


def report(num, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    print(line)
    assert ok, line


def build_cde(head_name, n_inputs, hidden, seed, n_stages=5, sigma_q=0.01,
              lambda_=1.0, sigma_beta=1.0):
    head = make_head(head_name, n_stages=n_stages, n_components=5, n_noise=3)
    prior = head.default_prior(1.0, lambda_, sigma_beta)
    return CdeModel.build(head, n_inputs, hidden, seed, sigma_q, prior=prior)


# -- criterion 1 --------------------------------------------------------------------


def test_criterion_01_flow_density_normalizes():
    # deep stacks can compose spikes ~1e-3 wide, so the trapezoid grid must be
    # much finer for them; shallow stacks get away with a coarser one
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    worst = 0.0
    chunk = 16_000
    for k, n_pts in ((1, 240_001), (2, 240_001), (5, 960_001), (10, 960_001)):
        grid = np.linspace(-30.0, 30.0, n_pts)
        theta = rng.standard_normal((50, 3 * k + 1))
        mass = np.zeros(50)
        for j in range(0, n_pts - 1, chunk):
            seg = grid[j : j + chunk + 1]
            dens = np.exp(log_density_batch(theta[:, None, :], seg[None, :]))
            mass += np.trapezoid(dens, seg, axis=1)
        worst = max(worst, float(np.abs(mass - 1.0).max()))
    elapsed = time.perf_counter() - t0
    report(
        1,
        worst <= 1e-3 and elapsed < 30.0,
        f"200 random stacks, max |quadrature mass - 1| = {worst:.2e} "
        f"(tol 1e-3), {elapsed:.1f}s (limit 30s)",
    )


# -- criterion 2 --------------------------------------------------------------------


def test_criterion_02_free_energy_gradients_match_finite_differences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    x = rng.standard_normal((3, 2))
    y = rng.standard_normal(3)
    worst = 0.0
    for name in ("nf", "mdn", "lv"):
        model = build_cde(name, 2, (5,), seed=3, sigma_q=0.35)
        vec = model.trainable_vector() + 0.1 * rng.standard_normal(
            model.trainable_vector().size
        )
        model.set_trainable(vec)
        seed = 77
        _, grad = free_energy(model, x, y, 3, 2, np.random.default_rng(seed))
        h = 1e-5
        for c in range(vec.size):
            two = []
            for sign in (+1.0, -1.0):
                v = vec.copy()
                v[c] += sign * h
                model.set_trainable(v)
                two.append(
                    free_energy_value(model, x, y, 3, 2, np.random.default_rng(seed))
                )
            fd = (two[0] - two[1]) / (2 * h)
            rel = abs(grad[c] - fd) / max(abs(grad[c]), abs(fd), 1e-8)
            worst = max(worst, rel)
        model.set_trainable(vec)
    elapsed = time.perf_counter() - t0
    report(
        2,
        worst < 1e-5 and elapsed < 60.0,
        f"nf/mdn/lv full-gradient check, max relative error = {worst:.2e} "
        f"(tol 1e-5), {elapsed:.1f}s (limit 60s)",
    )


# -- criterion 3 --------------------------------------------------------------------


def test_criterion_03_max_distortion_identity():
    rng = np.random.default_rng(3)
    n = 100_000
    alpha_hat = rng.standard_normal(n)
    beta_hat = rng.standard_normal(n)
    gamma = rng.standard_normal(n)
    worst = float(
        np.abs(stage_apply(gamma, alpha_hat, beta_hat, gamma)[1] - beta_hat).max()
    )
    report(
        3,
        worst <= 1e-12,
        f"log f'(z) at z = gamma equals beta_hat, max |error| = {worst:.2e} "
        f"over 1e5 draws (tol 1e-12)",
    )


# -- criterion 4 --------------------------------------------------------------------


def test_criterion_04_sampler_matches_quadrature_cdf():
    rng = np.random.default_rng(4)
    grid = np.linspace(-30.0, 30.0, 24001)
    n = 10_000
    worst = 0.0
    for i in range(20):
        k = (1, 2, 5, 10)[i % 4]
        ah, bh, g = rng.standard_normal(k), rng.standard_normal(k), rng.standard_normal(k)
        stack = np.append(np.column_stack([ah, bh, g]).ravel(), rng.standard_normal())
        pdf = np.exp(log_density_batch(stack, grid))
        cdf = np.concatenate(
            [[0.0], np.cumsum(np.diff(grid) * 0.5 * (pdf[1:] + pdf[:-1]))]
        )
        cdf /= cdf[-1]
        draws = np.sort(sample(stack, n, rng))
        at = np.interp(draws, grid, cdf)
        steps = np.arange(1, n + 1) / n
        d = float(np.maximum(np.abs(steps - at), np.abs(steps - 1.0 / n - at)).max())
        worst = max(worst, d)
    report(
        4,
        worst < 0.02,
        f"20 stacks, 1e4 samples each, max KS D = {worst:.4f} (tol 0.02)",
    )


# -- criterion 5 --------------------------------------------------------------------


def test_criterion_05_analytic_kl_matches_monte_carlo():
    rng = np.random.default_rng(5)
    worst_z = 0.0
    for i in range(20):
        input_dim = int(rng.integers(1, 3))
        hidden = [(3,), (4,), (3, 2)][i % 3]
        output_dim = int(rng.integers(2, 5))
        arch = MLPArchitecture(input_dim, hidden, output_dim)
        mode = "fixed" if i % 2 == 0 else "learned"
        sigma_q = float(rng.uniform(0.2, 0.6))
        post = init_posterior(arch, seed=i, sigma_init=sigma_q, mode=mode)
        post = replace(post, vector=post.vector + 0.3 * rng.standard_normal(post.vector.size))
        half = output_dim // 2
        groups = {"low": tuple(range(half)), "high": tuple(range(half, output_dim))}
        prior = PriorConfig(
            sigma_w=float(rng.uniform(0.5, 1.5)),
            lambda_=1.0,
            groups={
                name: GroupPrior(float(rng.normal()), float(rng.uniform(0.4, 1.6)))
                for name in groups
            },
        )
        net = BayesianMLP(arch, post, prior, groups)
        analytic = net.kl_to_prior()

        mu_p, sd_p = net.prior_mean_std_vectors()
        mu_q = np.concatenate(
            [
                np.concatenate([post.w_means[l].ravel(), post.b_means[l]])
                for l in range(arch.n_layers)
            ]
        )
        if mode == "fixed":
            sd_q = np.full(mu_q.shape, post.sigma_q)
        else:
            sd_q = np.concatenate(
                [
                    np.concatenate(
                        [
                            np.exp(0.5 * post.w_logvars[l]).ravel(),
                            np.exp(0.5 * post.b_logvars[l]),
                        ]
                    )
                    for l in range(arch.n_layers)
                ]
            )
        total = sumsq = 0.0
        n_draws, chunk = 1_000_000, 100_000
        mc_rng = np.random.default_rng(1000 + i)
        for _ in range(n_draws // chunk):
            eps = mc_rng.standard_normal((chunk, mu_q.size))
            theta = mu_q + sd_q * eps
            per = (
                -np.log(sd_q) - 0.5 * eps**2
                + np.log(sd_p) + 0.5 * ((theta - mu_p) / sd_p) ** 2
            ).sum(axis=1)
            total += per.sum()
            sumsq += (per**2).sum()
        mean = total / n_draws
        se = math.sqrt((sumsq / n_draws - mean**2) / (n_draws - 1))
        worst_z = max(worst_z, abs(analytic - mean) / se)

    # posterior placed exactly on the prior: the KL must vanish identically
    arch = MLPArchitecture(2, (3,), 4)
    groups = {"low": (0, 1), "high": (2, 3)}
    prior = PriorConfig(
        sigma_w=0.7,
        groups={"low": GroupPrior(0.4, 0.7), "high": GroupPrior(-1.2, 0.7)},
    )
    post = init_posterior(arch, seed=0, sigma_init=0.7, mode="fixed")
    net = BayesianMLP(arch, post, prior, groups)
    mu_p, _ = net.prior_mean_std_vectors()
    net.posterior = replace(post, vector=mu_p)
    kl_zero = net.kl_to_prior()

    report(
        5,
        worst_z <= 3.0 and kl_zero == 0.0,
        f"20 networks, max |analytic - MC| = {worst_z:.2f} standard errors "
        f"(limit 3); KL(q=p) = {kl_zero} (must be exactly 0)",
    )


# -- criterion 6 --------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_06_bimodal_flow_beats_gaussian_baseline():
    t0 = time.perf_counter()
    train_ds, _ = toy_generator("heteroscedastic-bimodal", 5000, seed=11)
    test_ds, _ = toy_generator("heteroscedastic-bimodal", 1000, seed=12)
    ntrain, stats = normalize(train_ds)
    ntest = apply_stats(stats, test_ds)
    oracle = toy_true_log_density(
        "heteroscedastic-bimodal", test_ds.x, test_ds.y
    ).mean()

    def fit(head_name, iterations):
        model = build_cde(head_name, 1, (50,), seed=0)
        cfg = TrainConfig(
            learning_rate=0.005,
            iterations=iterations,
            batch_size=100,
            mc_samples_train=5,
            seed=0,
        )
        train(model, ntrain.x, ntrain.y[:, 0], cfg)
        ll = predictive_log_density(
            model, ntest.x, ntest.y[:, 0], 20, np.random.default_rng(1)
        )
        return float(ll.mean()) + stats.log_jacobian

    nf_ll = fit("nf", 600)
    gauss_ll = fit("gauss", 300)
    elapsed = time.perf_counter() - t0
    report(
        6,
        nf_ll - gauss_ll >= 0.1 and oracle - nf_ll <= 0.3 and elapsed < 900.0,
        f"NF-5 {nf_ll:+.4f} vs Gaussian baseline {gauss_ll:+.4f} "
        f"(margin {nf_ll - gauss_ll:+.4f}, need >= 0.1); oracle gap "
        f"{oracle - nf_ll:+.4f} (need <= 0.3); {elapsed:.0f}s (limit 900s)",
    )


# -- criterion 7 --------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_07_grid_search_beats_unconditional_gaussian(tmp_path):
    sklearn_datasets = pytest.importorskip("sklearn.datasets")
    t0 = time.perf_counter()
    data = sklearn_datasets.load_diabetes()
    names = [f"f{i}" for i in range(data.data.shape[1])]
    csv_path = tmp_path / "diabetes.csv"
    with open(csv_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(names + ["y"])
        for xr, yv in zip(data.data, data.target):
            w.writerow([f"{v:.17g}" for v in xr] + [f"{yv:.17g}"])

    # 90/10 overall: 80% fits each combo, 10% ranks them, 10% stays held out
    code = main([
        "grid-search", f"data={csv_path}", "targets=y",
        "n_stages=2", "iterations=600", "batch_size=128", "mc_train=5",
        "split=0.8,0.1,0.1", "seed=0",
        "grid.learning_rate=0.005;0.01", "grid.hidden=4;8",
        "grid.sigma_beta=0.5;1",
        f"out={tmp_path / 'gs'}",
    ])
    assert code == 0
    rows = (tmp_path / "gs" / "results.csv").read_text().splitlines()
    assert len(rows) == 9  # header + 8 combinations
    best_test_ll = float(rows[1].split(",")[-1])

    ds = load_csv(csv_path, tuple(names), ("y",))
    (train_split, _, test_split), _ = split(ds, (0.8, 0.1, 0.1), seed=0)
    mu = train_split.y[:, 0].mean()
    sd = train_split.y[:, 0].std()
    gauss_ll = float(
        np.mean(
            -0.5 * math.log(2 * math.pi) - math.log(sd)
            - 0.5 * ((test_split.y[:, 0] - mu) / sd) ** 2
        )
    )
    elapsed = time.perf_counter() - t0
    report(
        7,
        best_test_ll > gauss_ll and elapsed < 3600.0,
        f"8-combination grid search on diabetes: best held-out LL "
        f"{best_test_ll:+.4f} vs unconditional Gaussian {gauss_ll:+.4f} "
        f"(margin {best_test_ll - gauss_ll:+.4f}, must be > 0); "
        f"{elapsed:.0f}s (limit 3600s)",
    )


# -- criterion 8 --------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_08_autoregressive_mass_and_coverage():
    t0 = time.perf_counter()
    ds, _ = toy_generator("spatial-two-cluster", 20000, seed=21)
    (train_ds, _, test_ds), _ = split(ds, (0.9, 0.0, 0.1), seed=0)
    ntrain, stats = normalize(train_ds)
    ntest = apply_stats(stats, test_ds)

    def cfg(seed):
        return TrainConfig(
            learning_rate=0.005,
            iterations=500,
            batch_size=128,
            mc_samples_train=5,
            seed=seed,
        )

    stage1 = build_cde("nf", 1, (30,), seed=0, n_stages=2)
    train(stage1, ntrain.x, ntrain.y[:, 0], cfg(0))
    stage2 = build_cde("nf", 2, (30,), seed=1, n_stages=2)
    train(stage2, np.column_stack([ntrain.x, ntrain.y[:, 0]]), ntrain.y[:, 1], cfg(1))
    model = AutoregModel(stage1, stage2, (0, 1), ("y1", "y2"))

    g1 = np.linspace(-4.0, 4.0, 81)
    g2 = np.linspace(-4.0, 4.0, 81)
    worst_mass = 0.0
    covered = total = 0
    for x0 in (0.25, 0.5, 0.75):
        xn = (x0 - stats.x_mean[0]) / stats.x_std[0]
        dens = density_grid(
            model, np.array([xn]), g1, g2, mc=10, rng=np.random.default_rng(7)
        )
        worst_mass = max(worst_mass, abs(grid_mass(dens, g1, g2) - 1.0))
        sel = np.abs(test_ds.x[:, 0] - x0) <= 0.05
        cov = top_decile_coverage(dens, g1, g2, ntest.y[sel])
        covered += cov * sel.sum()
        total += sel.sum()
    coverage = covered / total
    elapsed = time.perf_counter() - t0
    report(
        8,
        worst_mass <= 2e-2 and coverage >= 0.80 and elapsed < 1200.0,
        f"N=20000 two-cluster fit: max |2D mass - 1| = {worst_mass:.4f} "
        f"(tol 2e-2), top-decile coverage {coverage:.3f} over {total} held-out "
        f"points (need >= 0.80); {elapsed:.0f}s (limit 1200s)",
    )


# -- criterion 9 --------------------------------------------------------------------


def test_criterion_09_prior_manifold_gaussian_columns_and_lambda_spread():
    t0 = time.perf_counter()
    head = make_head("nf", n_stages=5)
    arch = MLPArchitecture(1, (50,), head.output_dim)
    x_grid = np.linspace(-2.0, 2.0, 6)
    y_grid = np.linspace(-12.0, 12.0, 961)

    # zero beta-hat prior scale: every column must be an exact unit Gaussian
    dens = sample_prior_cde(arch, head.default_prior(1.0, 1.0, 0.0), head, 7, x_grid, y_grid)
    worst_ks = 0.0
    for col in dens:
        mass = np.trapezoid(col, y_grid)
        mu = np.trapezoid(y_grid * col, y_grid) / mass
        cdf = np.concatenate(
            [[0.0], np.cumsum(np.diff(y_grid) * 0.5 * (col[1:] + col[:-1]))]
        )
        gauss = 0.5 * (
            1.0 + np.vectorize(math.erf)((y_grid - mu) / math.sqrt(2.0))
        )
        worst_ks = max(worst_ks, float(np.abs(cdf / mass - gauss).max()))

    # same draw, growing lambda: across-x spread of every output must rise
    xs = np.linspace(-2.0, 2.0, 40)[:, None]
    prior = head.default_prior(1.0, 1.0, 1.0)
    post = sample_prior_parameters(arch, prior, head.group_map(), 7)
    spreads = np.array(
        [mlp_forward(post.w_means, post.b_means, xs, lam).std(axis=0)
         for lam in (0.5, 1.0, 2.0, 4.0)]
    )
    strictly_rising = bool(np.all(np.diff(spreads, axis=0) > 0))
    elapsed = time.perf_counter() - t0
    report(
        9,
        worst_ks < 0.01 and strictly_rising and elapsed < 120.0,
        f"sigma-beta 0 columns: max KS vs Gaussian = {worst_ks:.4f} (tol 0.01); "
        f"across-x spread strictly increasing in lambda for all "
        f"{spreads.shape[1]} outputs: {strictly_rising}; {elapsed:.1f}s (limit 120s)",
    )


# -- criterion 10 -------------------------------------------------------------------


def _dir_digest(root):
    out = {}
    for p in sorted(Path(root).rglob("*")):
        if p.is_file():
            out[str(p.relative_to(root))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


def test_criterion_10_manifest_reruns_are_bit_identical(tmp_path):
    toy = tmp_path / "toy"
    runs = [
        ("gen-toy", [f"out={toy}", "name=gaussian-shift", "n=80", "seed=1"]),
        (
            "train",
            [
                f"out={tmp_path / 'train'}", f"data={toy / 'data.csv'}",
                "features=x", "hidden=4", "iterations=40", "mc_train=3", "seed=0",
            ],
        ),
        (
            "eval",
            [
                f"out={tmp_path / 'eval'}",
                f"checkpoint={tmp_path / 'train' / 'checkpoint.ckpt'}",
                f"data={tmp_path / 'train' / 'test.csv'}", "mc=4",
            ],
        ),
        (
            "sample",
            [
                f"out={tmp_path / 'sample'}",
                f"checkpoint={tmp_path / 'train' / 'checkpoint.ckpt'}",
                "condition=0.5", "n=20", "mc=4",
            ],
        ),
        (
            "heatmap",
            [
                f"out={tmp_path / 'heatmap'}",
                f"checkpoint={tmp_path / 'train' / 'checkpoint.ckpt'}",
                "condition=nan", "x_points=3", "y_points=21", "mc=3",
            ],
        ),
        (
            "prior-sample",
            [
                f"out={tmp_path / 'prior'}", "hidden=6", "seeds=0",
                "x_points=3", "y_points=11",
            ],
        ),
        (
            "grid-search",
            [
                f"out={tmp_path / 'gs'}", f"data={toy / 'data.csv'}",
                "features=x", "hidden=4", "iterations=30", "mc_train=3",
                "grid.n_stages=1",
            ],
        ),
    ]
    mismatched = []
    for command, args in runs:
        out_dir = Path(args[0].split("=", 1)[1])
        assert main([command] + args) == 0
        before = _dir_digest(out_dir)
        assert main([command, "--config", str(out_dir / "manifest.cfg")]) == 0
        after = _dir_digest(out_dir)
        if before != after:
            mismatched.append(command)
    report(
        10,
        not mismatched,
        "all 7 commands re-run from their manifests bit-identically"
        + (f" EXCEPT {mismatched}" if mismatched else ""),
    )
