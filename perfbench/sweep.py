"""Layer sweep: every head in both posterior modes at one fixed shape.

The workloads train only the nf head.  The sweep times ``free_energy``
(tape gradient) and ``free_energy_value`` (NumPy value) for all four heads
in fixed and learned mode, each head's ``curve_log_density``, and a small
autoregressive chain, so that layers no workload reaches still have a
measured cost.  It runs inside the traced run, with the tracer installed.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from flowcde import autoreg, bnn, heads, training
from workloads import bimodal_sample

HEADS = ("nf", "mdn", "lv", "gauss")
MODES = ("fixed", "learned")
BATCH, MC, HIDDEN, N_TOTAL = 32, 5, 50, 800
GRID, CURVE_CALLS = 401, 50


def _model(name, mode, n_inputs=1):
    head = heads.make_head(name, n_stages=5, n_components=5, n_noise=5, noise_dim=1)
    dim = n_inputs + (head.noise_dim if name == "lv" else 0)
    arch = bnn.MLPArchitecture(dim, (HIDDEN,), head.output_dim)
    post = bnn.init_posterior(arch, seed=0, sigma_init=0.01, mode=mode)
    net = bnn.BayesianMLP(arch, post, head.default_prior(), head.group_map())
    return training.CdeModel(net, head, head.init_extras())


def _median_time(fn, reps):
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def layer_sweep():
    """{metric: (unit, value)}; module functions are looked up at call time,
    so the calls pass through the tracer's wrappers."""
    rng = np.random.default_rng(0)
    x = rng.uniform(-2.0, 2.0, (BATCH, 1))
    y = bimodal_sample(rng, x[:, 0])
    out = {}
    draws = BATCH * MC
    for name in HEADS:
        for mode in MODES:
            model = _model(name, mode)
            grad = _median_time(lambda: training.free_energy(
                model, x, y, N_TOTAL, MC, np.random.default_rng(1)), 3)
            value = _median_time(lambda: training.free_energy_value(
                model, x, y, N_TOTAL, MC, np.random.default_rng(1)), 20)
            out[f"training.free_energy.{name}.{mode}.us_per_datum_draw"] = (
                "us", 1e6 * grad / draws)
            out[f"training.free_energy_value.{name}.{mode}.us_per_datum_draw"] = (
                "us", 1e6 * value / draws)
        model = _model(name, "fixed")
        rows, per = model.head.prepare_inputs(x[:1], rng)
        omega = model.net.forward_np(rows, bnn.draw_eps(model.net.arch, rng, MC, rows.shape[0]))
        grid = np.linspace(-4.0, 4.0, GRID)

        def curves():
            for m in range(CURVE_CALLS):
                model.head.curve_log_density(omega[m % MC, :per], model.extras, grid)

        t = _median_time(curves, 3)
        out[f"heads.curve_log_density.{name}.ns_per_cell"] = (
            "ns", 1e9 * t / (CURVE_CALLS * GRID))

    chain = autoreg.AutoregModel(_model("nf", "fixed", 1), _model("nf", "fixed", 2))
    g1 = np.linspace(-3.0, 3.0, 21)
    autoreg.density_grid(chain, [np.nan], g1, g1, marginal_samples=2, mc=MC,
                         rng=np.random.default_rng(2))
    xs = rng.uniform(0.0, 1.0, (200, 1))
    autoreg.joint_log_density(chain, xs, rng.standard_normal((200, 2)), MC,
                              np.random.default_rng(3))
    return out
