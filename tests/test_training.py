"""Free energy, its gradients (against finite differences under common
random numbers), Adam, and the training loop."""

import math
import os
import platform
import subprocess
import sys
import threading
import tracemalloc
import warnings
from dataclasses import replace
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowcde import training
from flowcde.autoreg import AutoregModel, joint_log_density
from flowcde.bnn import BayesianMLP, MLPArchitecture, draw_eps, init_posterior
from flowcde.errors import NumericError, StructuralError
from flowcde.heads import GaussHead, LVHead, MDNHead, NFHead, logsumexp, make_head
from flowcde.training import (
    BLOCK_DRAW_CELLS,
    BLOCK_DRAW_UNITS,
    AdamState,
    CdeModel,
    FreeEnergyReport,
    TrainConfig,
    adam_step,
    free_energy,
    free_energy_value,
    model_sample,
    predictive_curve,
    predictive_log_density,
    train,
)
from mlp_reference import mlp_forward

HALF_LOG_2PI = 0.9189385332046727


def build_model(head, x_dim=2, hidden=(5,), mode="fixed", sigma_q=0.35, seed=3):
    return CdeModel.build(head, x_dim, hidden, seed, sigma_q, mode)


def small_batch(x_dim=2, n=3, seed=10):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, x_dim)), rng.standard_normal(n)


# -- config and report ------------------------------------------------------


def test_train_config_defaults():
    cfg = TrainConfig()
    assert cfg.learning_rate == 0.005
    assert cfg.adam_beta1 == 0.9
    assert cfg.adam_beta2 == 0.99
    assert cfg.adam_eps == 1e-8
    assert cfg.iterations == 5000
    assert cfg.batch_size is None
    assert cfg.mc_samples_train == 20


@pytest.mark.parametrize(
    "kwargs",
    [
        {"learning_rate": 0.0},
        {"learning_rate": -1.0},
        {"adam_beta1": 1.0},
        {"adam_beta2": -0.1},
        {"mc_samples_train": 0},
        {"adam_beta2": 1.0},
        {"iterations": -1},
        {"batch_size": 0},
    ],
)
def test_train_config_rejects_bad_values(kwargs):
    with pytest.raises(StructuralError):
        TrainConfig(**kwargs)


def test_report_identity_is_exact():
    model = build_model(GaussHead())
    x, y = small_batch()
    r, _ = free_energy(model, x, y, 3, 2, np.random.default_rng(0), iteration=7)
    assert r.free_energy == r.expected_nll + r.kl
    assert r.iteration == 7


@pytest.mark.parametrize("mode", ["fixed", "learned"])
@pytest.mark.parametrize("name", ["nf", "mdn", "lv", "gauss"])
def test_build_is_the_hand_recipe(name, mode):
    head = make_head(name, n_stages=2, n_components=2, n_noise=3, noise_dim=2)
    arch = MLPArchitecture(3 + head.extra_input_dim, (5, 4), head.output_dim)
    post = init_posterior(arch, seed=11, sigma_init=0.2, mode=mode)
    chosen = head.default_prior(0.7, 1.3, 0.4)
    for prior, want in ((None, head.default_prior()), (chosen, chosen)):
        model = CdeModel.build(head, 3, (5, 4), 11, 0.2, mode, prior)
        assert model.net.arch == arch and model.head is head and model.n_features == 3
        assert model.net.output_groups == head.group_map() and model.net.prior == want
        assert model.net.posterior.mode == mode and model.net.posterior.sigma_q == post.sigma_q
        assert np.array_equal(model.trainable_vector(),
                              np.concatenate([post.vector, head.init_extras()]))


# -- free energy values ------------------------------------------------------


def test_zero_stage_flow_nll_is_half_log_2pi_per_point():
    model = CdeModel.build(NFHead(0), 1, (3,), 0, 1e-12)
    model.set_trainable(np.zeros(model.trainable_vector().size))
    x = np.zeros((3, 1))
    y = np.zeros(3)
    r, _ = free_energy(model, x, y, 3, 4, np.random.default_rng(5))
    assert abs(r.expected_nll / 3 - HALF_LOG_2PI) < 1e-9


@pytest.mark.parametrize("name", ["nf", "mdn", "lv", "gauss"])
@pytest.mark.parametrize("mode", ["fixed", "learned"])
def test_tape_and_numpy_objectives_agree_under_crn(name, mode):
    head = make_head(name, n_stages=2, n_components=2, n_noise=3)
    model = build_model(head, mode=mode)
    x, y = small_batch()
    for seed in range(11, 16):
        r, g = free_energy(model, x, y, 9, 3, np.random.default_rng(seed))
        v = free_energy_value(model, x, y, 9, 3, np.random.default_rng(seed))
        assert v == r.free_energy  # one density expression on both paths
        assert g.shape == model.trainable_vector().shape
        assert np.isfinite(g).all()


def test_minibatch_estimator_is_unbiased_over_all_batches():
    # with (near-)deterministic weights the rescaled two-point batch
    # estimates must average exactly to the full-data value
    model = build_model(NFHead(1), x_dim=1, hidden=(4,), sigma_q=1e-12)
    x, y = small_batch(x_dim=1, n=6, seed=20)
    full, _ = free_energy(model, x, y, 6, 1, np.random.default_rng(0))
    batch_nll = [
        free_energy(model, x[list(c)], y[list(c)], 6, 1, np.random.default_rng(0))[
            0
        ].expected_nll
        for c in combinations(range(6), 2)
    ]
    assert np.mean(batch_nll) == pytest.approx(full.expected_nll, rel=1e-9)


def test_free_energy_input_validation():
    model = build_model(GaussHead())
    x, y = small_batch()
    rng = np.random.default_rng(0)
    with pytest.raises(StructuralError):
        free_energy(model, x[:0], y[:0], 3, 1, rng)
    with pytest.raises(StructuralError):
        free_energy(model, x, y[:2], 3, 1, rng)
    with pytest.raises(StructuralError):
        free_energy(model, x, y, 2, 1, rng)  # n_total < batch


def test_non_finite_likelihood_reports_datum_index():
    model = build_model(GaussHead())
    x, _ = small_batch()
    y = np.array([0.1, np.inf, -0.3])
    errors = []
    for fn in (free_energy, free_energy_value):
        with pytest.raises(NumericError, match=r"datum 1 \(mc draw 0\)") as ei:
            fn(model, x, y, 3, 2, np.random.default_rng(0))
        assert ei.value.index == 1
        errors.append(str(ei.value))
    assert errors[0] == errors[1]


# -- gradients vs finite differences -----------------------------------------


def numeric_grad(model, x, y, n_total, mc, seed, coords, h=1e-5):
    base = model.trainable_vector()
    out = {}
    for c in coords:
        two = []
        for sign in (+1.0, -1.0):
            v = base.copy()
            v[c] += sign * h
            model.set_trainable(v)
            two.append(
                free_energy_value(model, x, y, n_total, mc, np.random.default_rng(seed))
            )
        out[c] = (two[0] - two[1]) / (2 * h)
    model.set_trainable(base)
    return out


@pytest.mark.parametrize("name", ["nf", "mdn", "lv", "gauss"])
@pytest.mark.parametrize("mode", ["fixed", "learned"])
def test_gradients_match_finite_differences(name, mode):
    head = make_head(name, n_stages=2, n_components=2, n_noise=3)
    model = build_model(head, mode=mode)
    rng = np.random.default_rng(42)
    vec = model.trainable_vector()
    vec = vec + 0.1 * rng.standard_normal(vec.size)
    model.set_trainable(vec)
    x, y = small_batch()

    seed = 77
    _, grad = free_energy(model, x, y, 9, 2, np.random.default_rng(seed))
    coords = sorted(set(rng.choice(vec.size, size=min(10, vec.size), replace=False)))
    coords += list(range(vec.size - model.head.n_extras, vec.size))
    fd = numeric_grad(model, x, y, 9, 2, seed, coords)
    for c, f in fd.items():
        rel = abs(grad[c] - f) / max(abs(grad[c]), abs(f), 1e-8)
        assert rel < 1e-6, (name, mode, c, grad[c], f)


# -- adam ---------------------------------------------------------------------


def test_adam_zero_gradient_leaves_params_unchanged():
    cfg = TrainConfig()
    p = np.array([1.0, -2.0, 0.5])
    state, new = adam_step(AdamState.zeros(3), p, np.zeros(3), cfg)
    assert np.array_equal(new, p)
    assert state.step == 1


def test_adam_first_step_size_is_learning_rate():
    cfg = TrainConfig(learning_rate=0.01)
    g = np.array([3.0, -0.2, 1e-3])
    _, new = adam_step(AdamState.zeros(3), np.zeros(3), g, cfg)
    assert np.allclose(new, -cfg.learning_rate * np.sign(g), rtol=1e-4)


def test_adam_is_deterministic_and_pure():
    cfg = TrainConfig()
    p = np.array([0.3, 0.7])
    g = np.array([1.0, -1.5])
    s0 = AdamState.zeros(2)
    s1, p1 = adam_step(s0, p, g, cfg)
    s2, p2 = adam_step(s0, p, g, cfg)
    assert np.array_equal(p1, p2) and np.array_equal(s1.m, s2.m)
    assert s0.step == 0 and np.all(s0.m == 0)  # inputs untouched


def test_adam_shape_mismatch_raises():
    cfg = TrainConfig()
    with pytest.raises(StructuralError):
        adam_step(AdamState.zeros(2), np.zeros(3), np.zeros(3), cfg)


# -- training loop ------------------------------------------------------------


def shift_data(n=60, seed=4):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2.0, 2.0, (n, 1))
    y = 0.6 * x[:, 0] + 0.25 * rng.standard_normal(n)
    return x, y


def test_training_decreases_free_energy():
    model = build_model(GaussHead(), x_dim=1, hidden=(6,), sigma_q=0.05)
    x, y = shift_data()
    cfg = TrainConfig(learning_rate=0.01, iterations=250, mc_samples_train=3, seed=1)
    trace = train(model, x, y, cfg)
    assert len(trace) == 250
    assert [r.iteration for r in trace[:3]] == [0, 1, 2]
    first = np.median([r.free_energy for r in trace[:25]])
    last = np.median([r.free_energy for r in trace[-25:]])
    assert last < first - 1.0


def test_training_is_reproducible_with_minibatches():
    cfg = TrainConfig(learning_rate=0.01, iterations=60, batch_size=16,
                      mc_samples_train=2, seed=9)
    x, y = shift_data()
    finals = []
    for _ in range(2):
        model = build_model(GaussHead(), x_dim=1, hidden=(6,), sigma_q=0.05)
        trace = train(model, x, y, cfg)
        finals.append(model.trainable_vector())
        assert all(np.isfinite(r.free_energy) for r in trace)
    assert np.array_equal(finals[0], finals[1])


def test_training_rejects_oversized_batch():
    model = build_model(GaussHead(), x_dim=1)
    x, y = shift_data(n=10)
    with pytest.raises(StructuralError):
        train(model, x, y, TrainConfig(iterations=1, batch_size=11))


def test_training_wraps_numeric_error_with_iteration():
    model = build_model(GaussHead(), x_dim=1)
    x, y = shift_data(n=8)
    y[4] = np.inf
    with pytest.raises(NumericError) as ei:
        train(model, x, y, TrainConfig(iterations=3, mc_samples_train=1))
    assert "iteration 0" in str(ei.value)
    assert ei.value.index == 4


def test_fit_standard_normal_with_zero_stage_flow():
    # ten draws, an uninformative covariate: the fitted shift must sit near
    # zero and held-out quality near the true entropy
    rng = np.random.default_rng(7)
    y = rng.standard_normal(10)
    x = np.zeros((10, 1))
    model = build_model(NFHead(0), x_dim=1, hidden=(3,), sigma_q=0.1, seed=0)
    cfg = TrainConfig(learning_rate=0.02, iterations=600, mc_samples_train=5, seed=2)
    train(model, x, y, cfg)

    post = model.net.posterior
    x_test = np.zeros((200, 1))
    y_test = np.random.default_rng(8).standard_normal(200)
    shifts = mlp_forward(post.w_means, post.b_means, x_test)[:, 0]
    assert np.abs(shifts).mean() < 0.5
    ll = predictive_log_density(model, x_test, y_test, 20, np.random.default_rng(3))
    truth = (-HALF_LOG_2PI - 0.5 * y_test**2).mean()  # true density, same sample
    assert abs(ll.mean() - truth) < 0.2


# -- predictive density and sampling ------------------------------------------


def test_predictive_matches_plain_forward_when_noiseless():
    model = build_model(GaussHead(), x_dim=2, sigma_q=1e-12)
    x, y = small_batch(n=5, seed=30)
    ll = predictive_log_density(model, x, y, 9, np.random.default_rng(0))
    post = model.net.posterior
    mean = mlp_forward(post.w_means, post.b_means, x)[:, 0]
    sigma = np.logaddexp(0.0, model.extras[0])
    direct = -0.5 * math.log(2 * math.pi) - np.log(sigma) - 0.5 * ((y - mean) / sigma) ** 2
    assert np.allclose(ll, direct, rtol=1e-9)


def test_predictive_noise_shrinks_with_more_draws():
    model = build_model(GaussHead(), x_dim=2, sigma_q=0.6)
    x, y = small_batch(n=1, seed=31)
    ll = {}
    for m in (4, 64):
        reps = [
            predictive_log_density(model, x, y, m, np.random.default_rng(1000 + r))[0]
            for r in range(50)
        ]
        ll[m] = np.var(reps)
    assert ll[64] < ll[4]


def test_model_sample_moments_for_gaussian_head():
    model = build_model(GaussHead(), x_dim=2, sigma_q=1e-12)
    model.extras = np.array([math.log(math.expm1(0.7))])  # sigma_out = 0.7
    x = np.array([0.4, -1.0])
    post = model.net.posterior
    mean = mlp_forward(post.w_means, post.b_means, x.reshape(1, -1))[0, 0]
    draws = model_sample(model, x, 4000, 3, np.random.default_rng(6))
    assert draws.shape == (4000,)
    assert abs(draws.mean() - mean) < 0.05
    assert abs(draws.std() - 0.7) < 0.05


def test_model_sample_runs_for_every_head():
    for name in ("nf", "mdn", "lv", "gauss"):
        head = make_head(name, n_stages=1, n_components=2, n_noise=3)
        model = build_model(head)
        draws = model_sample(model, np.zeros(2), 7, 3, np.random.default_rng(2))
        assert draws.shape == (7,)
        assert np.isfinite(draws).all()
        block = model_sample(model, np.ones((5, 2)), 5, 3, np.random.default_rng(2))
        assert block.shape == (5,)
        with pytest.raises(StructuralError):
            model_sample(model, np.ones((4, 2)), 5, 3, np.random.default_rng(2))
    with pytest.raises(StructuralError):
        model_sample(model, np.zeros(2), 0, 3, np.random.default_rng(2))


@pytest.mark.parametrize("name", ["nf", "mdn", "lv", "gauss"])
def test_model_sample_rejects_non_finite_draws(name):
    model = build_model(make_head(name, n_stages=1, n_components=2, n_noise=3))
    model.set_trainable(np.full(model.trainable_vector().size, np.nan))
    for x in (np.zeros(2), np.zeros((4, 2))):
        with pytest.raises(NumericError), pytest.warns(RuntimeWarning, match="invalid value"):
            model_sample(model, x, 4, 3, np.random.default_rng(0))


@pytest.mark.parametrize("name", ["nf", "mdn", "lv", "gauss"])
def test_model_sample_block_matches_predictive_cdf_per_condition(name):
    # one network draw per row: each half of an alternating block follows the
    # posterior predictive at its own condition (KS bound of criterion 04).
    # The reference averages 20 curves: one curve holds the lv head's noise
    # inputs fixed, so a single call is a poor estimate of its predictive.
    head = make_head(name, n_stages=2, n_components=2, n_noise=16)
    model = build_model(head, x_dim=1, hidden=(5,), sigma_q=0.2, seed=4)
    conds = np.array([[-1.0], [1.0]])
    n = 20_000
    draws = model_sample(model, conds[np.arange(2 * n) % 2], 2 * n, 1,
                         np.random.default_rng(7))
    grid = np.linspace(-20.0, 20.0, 8001)
    rng = np.random.default_rng(8)
    pdf = np.mean([np.exp(predictive_curve(model, conds, grid, 50, rng)) for _ in range(20)],
                  axis=0)
    for i in range(2):
        cdf = np.concatenate(
            [[0.0], np.cumsum(np.diff(grid) * 0.5 * (pdf[i, 1:] + pdf[i, :-1]))]
        )
        cdf /= cdf[-1]
        at = np.interp(np.sort(draws[i::2]), grid, cdf)
        steps = np.arange(1, n + 1) / n
        d = float(np.maximum(np.abs(steps - at), np.abs(steps - 1.0 / n - at)).max())
        assert d < 0.02


@pytest.mark.parametrize("name", ["nf", "mdn", "lv", "gauss"])
def test_predictive_density_at_far_out_targets_is_minus_inf(name):
    model = build_model(make_head(name, n_stages=2, n_components=2, n_noise=3), x_dim=1)
    x = np.zeros((3, 1))
    ll = predictive_log_density(model, x, np.array([0.0, 1e200, -1e200]), 5,
                                np.random.default_rng(0))
    assert np.isfinite(ll[0]) and (ll[1:] == -np.inf).all()
    curve = predictive_curve(model, x[:1], np.array([0.0, 1e200]), 5, np.random.default_rng(0))
    assert np.isfinite(curve[0, 0]) and curve[0, 1] == -np.inf


@pytest.mark.parametrize("name", ["nf", "mdn", "lv", "gauss"])
def test_predictive_curve_equals_one_target_vector_per_grid_value(name):
    # the (B, G) grid path reproduces G calls on (B,) target vectors, on the
    # same network outputs; the lv head has 3 output rows per datum
    head = make_head(name, n_stages=2, n_components=3, n_noise=3)
    model = build_model(head, mode="learned", seed=6)
    x = np.random.default_rng(1).standard_normal((4, 2))
    grid = np.linspace(-3.0, 3.0, 13)
    mc = 5
    curve = predictive_curve(model, x, grid, mc, np.random.default_rng(2))
    rng = np.random.default_rng(2)
    shared = draw_eps(model.net.arch, rng, mc, 1)  # one draw for every row, first
    rows, per = head.prepare_inputs(x, rng)
    eps = [np.broadcast_to(z, (mc, rows.shape[0], z.shape[2])) for z in shared]
    omega = model.net.forward_np(rows, eps)
    want = np.column_stack([
        logsumexp(head.log_density_rows_np(omega, np.full(x.shape[0], g), model.extras),
                  axis=0, mean=True)
        for g in grid
    ])
    assert per == (3 if name == "lv" else 1)
    assert curve.shape == (4, grid.size)
    np.testing.assert_array_equal(curve, want)


# -- blocked prediction: the noise convention ------------------------------------


def _predict(model, x, y, grid, mc, rng):
    """predictive_curve on grid, or predictive_log_density when grid is None."""
    if grid is None:
        return predictive_log_density(model, x, y, mc, rng)
    return predictive_curve(model, x, grid, mc, rng)


def _block_rows(model, mc, grid):
    return training._block_rows(model, mc, 1 if grid is None else grid.size)


def _targets(y, grid, n):
    return y if grid is None else np.broadcast_to(grid, (n, grid.size))


def _draws(model, x, y, mc, rng, shared=None):
    """(mc, rows, ...) log densities of one block: its head rows, then the
    call's shared activation noise broadcast over them, or per-row noise
    drawn from rng when ``shared`` is None."""
    rows, _ = model.head.prepare_inputs(x, rng)
    if shared is None:
        eps = draw_eps(model.net.arch, rng, mc, rows.shape[0])
    else:
        eps = [np.broadcast_to(z, (mc, rows.shape[0], z.shape[2])) for z in shared]
    return training._score(model, rows, y, eps)


@pytest.mark.parametrize("name", ["nf", "lv"])
@pytest.mark.parametrize("curve", [False, True], ids=["targets", "curve"])
def test_three_block_call_equals_three_one_block_calls(name, curve):
    # the call draws the shared activation noise first, then each block's
    # head noise: three blocks are three head draws under that one noise
    head = make_head(name, n_stages=2, n_noise=4)
    model = build_model(head, mode="learned", seed=6)
    mc = 64
    grid = np.linspace(-2.0, 2.0, 32) if curve else None
    step = _block_rows(model, mc, grid)
    n = 2 * step + step // 2 + 1  # two full blocks and a partial one
    x, y = small_batch(n=n, seed=12)
    targets = _targets(y, grid, n)
    whole = _predict(model, x, y, grid, mc, np.random.default_rng(4))
    rng = np.random.default_rng(4)
    shared = draw_eps(model.net.arch, rng, mc, 1)
    parts = [logsumexp(_draws(model, x[i : i + step], targets[i : i + step], mc, rng, shared),
                       axis=0, mean=True)
             for i in range(0, n, step)]
    assert len(parts) == 3
    assert np.array_equal(whole, np.concatenate(parts))
    # three calls draw their activation noise three times: other digits
    rng = np.random.default_rng(4)
    calls = [_predict(model, x[i : i + step], y[i : i + step], grid, mc, rng)
             for i in range(0, n, step)]
    assert not np.array_equal(whole, np.concatenate(calls))


@pytest.mark.parametrize("name", ["nf", "mdn", "lv", "gauss"])
@pytest.mark.parametrize("curve", [False, True], ids=["targets", "curve"])
def test_one_block_call_is_one_log_mean_exp_of_the_draws(name, curve):
    head = make_head(name, n_stages=2, n_components=2, n_noise=3)
    model = build_model(head, mode="learned", seed=7)
    mc = 20
    grid = np.linspace(-3.0, 3.0, 41) if curve else None
    n = _block_rows(model, mc, grid)  # exactly one full block
    x, y = small_batch(n=n, seed=13)
    got = _predict(model, x, y, grid, mc, np.random.default_rng(5))
    rng = np.random.default_rng(5)
    shared = draw_eps(model.net.arch, rng, mc, 1)
    draws = _draws(model, x, _targets(y, grid, n), mc, rng, shared)
    assert np.array_equal(got, logsumexp(draws, axis=0, mean=True))
    # rows share the draw: per-row noise gives other digits
    per_row = _draws(model, x, _targets(y, grid, n), mc, np.random.default_rng(5))
    assert not np.array_equal(got, logsumexp(per_row, axis=0, mean=True))


@pytest.mark.parametrize("name", ["nf", "mdn", "gauss"])
@pytest.mark.parametrize("curve", [False, True], ids=["targets", "curve"])
def test_one_row_call_keeps_the_per_row_draw(name, curve):
    # draw_eps(mc, 1) is the per-row draw of a one-row batch, so for heads
    # without noise inputs a one-row call has the digits of per-row noise
    head = make_head(name, n_stages=2, n_components=2)
    model = build_model(head, mode="learned", seed=8)
    mc = 20
    grid = np.linspace(-3.0, 3.0, 41) if curve else None
    x, y = small_batch(n=1, seed=14)
    got = _predict(model, x, y, grid, mc, np.random.default_rng(6))
    draws = _draws(model, x, _targets(y, grid, 1), mc, np.random.default_rng(6))
    assert np.array_equal(got, logsumexp(draws, axis=0, mean=True))


@settings(max_examples=30, deadline=None)
@given(
    name=st.sampled_from(["nf", "mdn", "gauss"]),
    n=st.integers(1, 50),
    mc=st.sampled_from([1, 3, 700]),
    width=st.sampled_from([0, 4, 30]),  # 0 scores a target vector
    seed=st.integers(0, 2**16),
)
def test_noiseless_rows_score_as_if_alone(name, n, mc, width, seed):
    # at sigma_q = 0 every draw is the posterior mean, so a row's value does
    # not depend on which block it lands in; mc 700 over 30 cells exceeds the
    # budget and gives one row per block.  Not bit for bit: a matrix product's
    # last bits can change with its row count.
    head = make_head(name, n_stages=2, n_components=2)
    model = build_model(head, seed=seed % 7)
    model.net.posterior = replace(model.net.posterior, sigma_q=0.0)
    grid = np.linspace(-2.0, 2.0, width) if width else None
    x, y = small_batch(n=n, seed=seed)
    whole = _predict(model, x, y, grid, mc, np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    alone = np.concatenate([_predict(model, x[i : i + 1], y[i : i + 1], grid, mc, rng)
                            for i in range(n)])
    np.testing.assert_allclose(whole, alone, rtol=1e-12, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    name=st.sampled_from(["nf", "mdn", "gauss"]),
    mode=st.sampled_from(["fixed", "learned"]),
    sigma_q=st.sampled_from([0.05, 0.35, 1.0]),
    n=st.integers(24, 40),
    mc=st.sampled_from([700, 1500]),
    width=st.sampled_from([0, 4, 30]),  # 0 scores a target vector
    seed=st.integers(0, 2**16),
)
def test_noisy_rows_score_as_if_alone(name, mode, sigma_q, n, mc, width, seed):
    # every row reads the call's one activation-noise draw, so a row's value
    # does not depend on its block or its neighbours: each row of a
    # multi-block call equals a one-row call with the same seed.  Not bit for
    # bit: a matrix product's last bits can change with its row count.
    head = make_head(name, n_stages=2, n_components=2)
    model = build_model(head, mode=mode, sigma_q=sigma_q, seed=seed % 7)
    grid = np.linspace(-2.0, 2.0, width) if width else None
    assert _block_rows(model, mc, grid) < n  # at least two blocks
    x, y = small_batch(n=n, seed=seed)
    whole = _predict(model, x, y, grid, mc, np.random.default_rng(seed))
    alone = np.concatenate([
        _predict(model, x[i : i + 1], y[i : i + 1], grid, mc, np.random.default_rng(seed))
        for i in range(n)
    ])
    np.testing.assert_allclose(whole, alone, rtol=1e-12, atol=1e-12)


# -- blocked prediction: the block rule -------------------------------------------


@pytest.mark.parametrize("name", ["nf", "mdn", "lv", "gauss"])
@pytest.mark.parametrize("curve", [False, True], ids=["targets", "curve"])
@pytest.mark.parametrize("mc", [20, 3000])
def test_every_block_fits_both_budgets_or_holds_one_row(monkeypatch, name, curve, mc):
    # at hidden 50 the units budget cuts target blocks and the cells budget
    # cuts grid blocks; at mc 3000 the units budget admits no row, so every
    # block holds one
    head = make_head(name, n_stages=5, n_components=3, n_noise=3)
    model = build_model(head, x_dim=1, hidden=(50,), mode="learned", seed=2)
    grid = np.linspace(-3.0, 3.0, 41) if curve else None
    cells, per_row = (1 if grid is None else grid.size), mc * head.rows_per_datum
    units = max(model.net.arch.widths[1:])
    n = 2 * _block_rows(model, mc, grid) + 1
    blocks = []
    prepare = type(head).prepare_inputs

    def spy(self, x, rng):
        blocks.append(x.shape[0])
        return prepare(self, x, rng)

    monkeypatch.setattr(type(head), "prepare_inputs", spy)
    x, y = small_batch(x_dim=1, n=n, seed=15)
    out = _predict(model, x, y, grid, mc, np.random.default_rng(3))
    assert len(blocks) == 3 and sum(blocks) == n and np.isfinite(out).all()
    for rows in blocks:
        assert rows == 1 or (rows <= BLOCK_DRAW_UNITS // (per_row * units)
                             and rows <= BLOCK_DRAW_CELLS // (per_row * cells))


@pytest.mark.parametrize("name", ["nf", "mdn", "lv", "gauss"])
@pytest.mark.parametrize("curve", [False, True], ids=["targets", "curve"])
@pytest.mark.parametrize("x_dim", [1, 2])
def test_the_units_budget_moves_values_by_rounding_only(monkeypatch, name, curve, x_dim):
    # the budget sets only each block's row count, which reaches a value
    # through a matrix product's summation order
    head = make_head(name, n_stages=5, n_components=3, n_noise=3)
    model = build_model(head, x_dim=x_dim, hidden=(50,), mode="learned", seed=4)
    grid = np.linspace(-3.0, 3.0, 41) if curve else None
    x, y = small_batch(x_dim=x_dim, n=150, seed=16)
    runs = []
    for budget in (10**9, BLOCK_DRAW_UNITS, 1 << 11):
        monkeypatch.setattr(training, "BLOCK_DRAW_UNITS", budget)
        runs.append(_predict(model, x, y, grid, 20, np.random.default_rng(5)))
    assert np.isfinite(runs[0]).all()
    for other in runs[1:]:
        np.testing.assert_allclose(other, runs[0], rtol=1e-13, atol=0)


def _peak_bytes(model, x, y):
    tracemalloc.start()
    try:
        predictive_log_density(model, x, y, 20, np.random.default_rng(0))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_predictive_memory_does_not_grow_with_rows():
    model = build_model(NFHead(5), x_dim=1, hidden=(50,), sigma_q=0.1)
    assert _block_rows(model, 20, None) < 4000  # both calls span several blocks
    rng = np.random.default_rng(9)
    x, y = rng.standard_normal((40_000, 1)), rng.standard_normal(40_000)
    small = _peak_bytes(model, x[:4000], y[:4000])
    large = _peak_bytes(model, x, y)
    assert large <= 1.25 * small


def test_predictive_memory_peak_is_a_few_blocks():
    # 20 000 rows at mc 20 and hidden 50: the units budget keeps each
    # (mc, rows, units) array within 1 MiB, where an 819-row block's took 6.5 MB
    model = build_model(NFHead(5), x_dim=1, hidden=(50,), sigma_q=0.1)
    rng = np.random.default_rng(9)
    x, y = rng.standard_normal((20_000, 1)), rng.standard_normal(20_000)
    small = _peak_bytes(model, x[:5000], y[:5000])
    large = _peak_bytes(model, x, y)
    assert large < 4_000_000  # 15.5 MB with blocks sized by draws x cells alone
    assert large - small < 1_000_000


# -- blocked prediction: the workspace ---------------------------------------------


def _without_workspace(monkeypatch):
    """Make every forward_np call take fresh arrays, as the tape path does."""
    monkeypatch.setattr(BayesianMLP, "forward_np",
                        lambda self, x, eps, work=None: self._forward(x, eps, self.posterior))


@pytest.mark.parametrize("name", ["nf", "mdn", "lv", "gauss"])
@pytest.mark.parametrize("mode", ["fixed", "learned"])
@pytest.mark.parametrize("curve", [False, True], ids=["targets", "curve"])
def test_workspace_pass_is_bit_identical_to_fresh_arrays(monkeypatch, name, mode, curve):
    # two hidden layers square each one's input over the layer before; a
    # lambda other than 1 runs the output layer's in-place scaling; the row
    # counts give one row, one full block, a full and a one-row block, and
    # three blocks whose last is one row short
    head = make_head(name, n_stages=5, n_components=3, n_noise=3)
    model = CdeModel.build(head, 1, (50, 20), 2, 0.2, mode, head.default_prior(lambda_=0.7))
    grid = np.linspace(-3.0, 3.0, 41) if curve else None
    step = _block_rows(model, 20, grid)
    counts = (1, step, step + 1, 3 * step - 1)
    x, y = small_batch(x_dim=1, n=counts[-1], seed=17)
    with_work = [_predict(model, x[:n], y[:n], grid, 20, np.random.default_rng(n))
                 for n in counts]
    _without_workspace(monkeypatch)
    for n, got in zip(counts, with_work):
        assert np.isfinite(got).all()
        assert np.array_equal(got, _predict(model, x[:n], y[:n], grid, 20,
                                            np.random.default_rng(n)))


def test_workspace_joint_density_is_bit_identical_to_fresh_arrays(monkeypatch):
    head = NFHead(3)
    stages = [CdeModel.build(head, d, (50,), 5 + d, 0.2, "learned") for d in (1, 2)]
    model = AutoregModel(*stages)
    step = _block_rows(stages[0], 20, None)
    x, y = small_batch(x_dim=1, n=2 * step + 7, seed=18)
    ys = np.column_stack([y, y[::-1]])
    got = joint_log_density(model, x, ys, 20, np.random.default_rng(3))
    _without_workspace(monkeypatch)
    assert np.isfinite(got).all()
    assert np.array_equal(got, joint_log_density(model, x, ys, 20, np.random.default_rng(3)))


@pytest.mark.parametrize("name", ["nf", "mdn", "lv", "gauss"])
def test_prediction_writes_no_array_it_returned_before(name):
    # model_sample takes no workspace, and each prediction call its own
    head = make_head(name, n_stages=2, n_components=2, n_noise=3)
    model = build_model(head, x_dim=1, hidden=(50,), mode="learned")
    x, y = small_batch(x_dim=1, n=300, seed=19)
    draws = [model_sample(model, np.zeros(1), 50, 20, np.random.default_rng(1)),
             model_sample(model, x[:50], 50, 20, np.random.default_rng(2))]
    first = predictive_log_density(model, x, y, 20, np.random.default_rng(3))
    kept = [a.copy() for a in (*draws, first)]
    predictive_log_density(model, x[::-1], y, 20, np.random.default_rng(4))
    predictive_curve(model, x, np.linspace(-2.0, 2.0, 9), 20, np.random.default_rng(5))
    for before, now in zip(kept, (*draws, first)):
        assert np.array_equal(before, now)


# -- blocked prediction: the worker threads ----------------------------------------


def _workers(monkeypatch, n):
    monkeypatch.setattr(training, "_cpus", lambda: n)


def _started_threads(monkeypatch):
    """The threads started from now on."""
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self) or start(self))
    return started


def _pooled_blocks(model, step):
    """How many blocks of ``step`` rows, the last one row short, a call needs
    to run on threads: three or more, over more than one units budget."""
    rows = BLOCK_DRAW_UNITS // training._row_units(model, 20) + 1
    return max(3, -(-rows // step) + 1)


@pytest.mark.parametrize("name", ["nf", "mdn", "lv", "gauss"])
@pytest.mark.parametrize("mode", ["fixed", "learned"])
@pytest.mark.parametrize("curve", [False, True], ids=["targets", "curve"])
def test_pooled_blocks_equal_the_one_worker_path(monkeypatch, name, mode, curve):
    # one row, one full block, and three or more blocks whose last is one row
    # short, which two workers take in any order
    head = make_head(name, n_stages=5, n_components=3, n_noise=3)
    model = CdeModel.build(head, 1, (50, 20), 2, 0.2, mode, head.default_prior(lambda_=0.7))
    grid = np.linspace(-3.0, 3.0, 41) if curve else None
    step = _block_rows(model, 20, grid)
    counts = (1, step, _pooled_blocks(model, step) * step - 1)
    x, y = small_batch(x_dim=1, n=counts[-1], seed=21)
    started = _started_threads(monkeypatch)
    runs = []
    for workers in (1, 4):
        _workers(monkeypatch, workers)
        runs.append([_predict(model, x[:n], y[:n], grid, 20, np.random.default_rng(n))
                     for n in counts])
    assert len(started) == 1
    for one, pooled in zip(*runs):
        assert np.isfinite(one).all()
        assert np.array_equal(one, pooled)


def test_pooled_joint_density_equals_the_one_worker_path(monkeypatch):
    head = NFHead(3)
    stages = [CdeModel.build(head, d, (50,), 5 + d, 0.2, "learned") for d in (1, 2)]
    model = AutoregModel(*stages)
    step = _block_rows(stages[0], 20, None)
    x, y = small_batch(x_dim=1, n=2 * step + 7, seed=22)
    ys = np.column_stack([y, y[::-1]])
    runs = []
    for workers in (1, 2):
        _workers(monkeypatch, workers)
        runs.append(joint_log_density(model, x, ys, 20, np.random.default_rng(3)))
    assert np.isfinite(runs[0]).all()
    assert np.array_equal(*runs)


def test_workers_are_the_cpus_capped_at_two_and_at_the_blocks(monkeypatch):
    # the caller is one of the workers; a one-block call starts no thread,
    # and nor do grid blocks whose layer arrays fit one units budget
    if hasattr(os, "sched_getaffinity"):
        assert training._cpus() == len(os.sched_getaffinity(0))
    assert training.MAX_WORKERS == 2
    started = _started_threads(monkeypatch)
    model = build_model(NFHead(2), x_dim=1, hidden=(50,))
    step = _block_rows(model, 20, None)
    x, y = small_batch(x_dim=1, n=3 * step, seed=23)
    for cpus, n, threads in ((4, step, 0), (4, 3 * step, 1), (2, 3 * step, 1), (1, 3 * step, 0)):
        _workers(monkeypatch, cpus)
        started.clear()
        predictive_log_density(model, x[:n], y[:n], 20, np.random.default_rng(0))
        assert len(started) == threads
    _workers(monkeypatch, 4)
    grid = np.linspace(-3.0, 3.0, 41)
    fits = BLOCK_DRAW_UNITS // training._row_units(model, 20)
    for n, threads in ((fits, 0), (fits + 1, 1)):
        assert n > 3 * _block_rows(model, 20, grid)
        started.clear()
        predictive_curve(model, x[:n], grid, 20, np.random.default_rng(0))
        assert len(started) == threads


@pytest.mark.parametrize("name", ["nf", "lv"])
def test_predictive_memory_peak_is_a_few_blocks_on_many_cpus(monkeypatch, name):
    # at most two workers, each holding one workspace and one block's head
    # rows, so four CPUs meet the bounds of one; lv's head rows are fresh
    # arrays, n_noise per datum
    _workers(monkeypatch, 4)
    head = make_head(name, n_stages=5, n_noise=5)
    model = build_model(head, x_dim=1, hidden=(50,), sigma_q=0.1)
    rng = np.random.default_rng(9)
    x, y = rng.standard_normal((20_000, 1)), rng.standard_normal(20_000)
    small = _peak_bytes(model, x[:5000], y[:5000])
    large = _peak_bytes(model, x, y)
    assert large < 4_000_000
    assert large - small < 1_000_000


def test_many_workers_score_each_block_once(monkeypatch):
    # more workers than cores, switching threads as often as the interpreter
    # allows: a block taken twice or never breaks the count or the values
    model = build_model(NFHead(2), x_dim=1, hidden=(50,))
    step = _block_rows(model, 20, None)
    x, y = small_batch(x_dim=1, n=40 * step + 3, seed=27)
    _workers(monkeypatch, 1)
    want = predictive_log_density(model, x, y, 20, np.random.default_rng(0))
    scored = []
    score = training._score
    monkeypatch.setattr(training, "_score", lambda model, rows, y, *args:
                        scored.append(y.shape[0]) or score(model, rows, y, *args))
    _workers(monkeypatch, 8)
    monkeypatch.setattr(training, "MAX_WORKERS", 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = predictive_log_density(model, x, y, 20, np.random.default_rng(0))
    finally:
        sys.setswitchinterval(interval)
    assert len(scored) == 41 and sum(scored) == x.shape[0]
    assert np.array_equal(got, want)


def _on_a_worker(monkeypatch, model, action):
    """Score on two threads with ``action()`` run first in a worker's block:
    the calling thread's block waits until it has run."""
    cls = type(model.head)
    density = vars(cls)["log_density_rows_np"]
    ran = threading.Event()
    caller = threading.get_ident()

    def patched(self, *args):
        if threading.get_ident() == caller:
            assert ran.wait(30)
        else:
            try:
                action()
            finally:
                ran.set()
        return density(self, *args)

    _workers(monkeypatch, 2)
    monkeypatch.setattr(cls, "log_density_rows_np", patched)


def _overflow():
    np.exp(np.full(1, 1e3))


@pytest.mark.parametrize("kind", ["numeric", "warning"])
def test_a_workers_error_is_raised_in_the_caller(monkeypatch, kind):
    def fail():
        if kind == "numeric":
            raise NumericError("worker failed")
        _overflow()  # a RuntimeWarning, an error under the filter below

    model = build_model(NFHead(2), x_dim=1, hidden=(50,))
    x, y = small_batch(x_dim=1, n=3 * _block_rows(model, 20, None), seed=24)
    _on_a_worker(monkeypatch, model, fail)
    want = (NumericError, "worker failed") if kind == "numeric" else (RuntimeWarning, "overflow")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(want[0], match=want[1]):
            predictive_log_density(model, x, y, 20, np.random.default_rng(0))


def test_a_failing_draw_is_raised_and_stops_the_blocks_after_it(monkeypatch):
    # head noise is drawn with the pool's lock held, blocks in file order
    model = build_model(NFHead(2), x_dim=1, hidden=(50,))
    x, y = small_batch(x_dim=1, n=3 * _block_rows(model, 20, None), seed=28)
    drawn = []
    prepare = NFHead.prepare_inputs

    def failing(self, rows, rng):
        drawn.append(rows[0, 0])
        if len(drawn) == 2:
            raise NumericError("block 1's draw")
        return prepare(self, rows, rng)

    _workers(monkeypatch, 2)
    monkeypatch.setattr(NFHead, "prepare_inputs", failing)
    with pytest.raises(NumericError, match="block 1's draw"):
        predictive_log_density(model, x, y, 20, np.random.default_rng(0))
    assert drawn == [x[0, 0], x[len(x) // 3, 0]]


def test_the_callers_errstate_holds_in_workers(monkeypatch):
    model = build_model(NFHead(2), x_dim=1, hidden=(50,))
    x, y = small_batch(x_dim=1, n=3 * _block_rows(model, 20, None), seed=25)
    _on_a_worker(monkeypatch, model, _overflow)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
        predictive_log_density(model, x, y, 20, np.random.default_rng(0))


def test_the_first_failing_block_in_file_order_is_raised(monkeypatch):
    # block 0 waits until block 1 has failed, so the two run on two threads
    # and fail in reverse order; the caller raises block 0's error, and no
    # thread takes block 2 after a block has failed
    model = build_model(NFHead(2), x_dim=1, hidden=(50,))
    step = _block_rows(model, 20, None)
    x, y = small_batch(x_dim=1, n=3 * step, seed=26)
    y[0], y[step] = 100.0, 200.0
    failed = threading.Event()
    threads, calls = set(), []

    def poisoned(self, omega, ys, extras):
        threads.add(threading.get_ident())
        calls.append(ys[0])
        if ys[0] == 100.0:
            failed.wait(30)
            raise NumericError("block 0")
        failed.set()
        raise NumericError("block 1")

    _workers(monkeypatch, 2)
    monkeypatch.setattr(NFHead, "log_density_rows_np", poisoned)
    with pytest.raises(NumericError, match="block 0"):
        predictive_log_density(model, x, y, 20, np.random.default_rng(0))
    assert failed.is_set() and len(threads) == 2
    assert sorted(calls) == [100.0, 200.0]


_FAULTS = """
import resource
import numpy as np
from flowcde.heads import NFHead
from flowcde.training import CdeModel, _block_rows, predictive_log_density
model = CdeModel.build(NFHead(5), 1, (50,), 3, 0.1)
rng = np.random.default_rng(9)
x, y = rng.standard_normal((20_000, 1)), rng.standard_normal(20_000)
assert 20_000 / _block_rows(model, 20, 1) >= 100
predictive_log_density(model, x, y, 20, np.random.default_rng(0))
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
predictive_log_density(model, x, y, 20, np.random.default_rng(0))
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="counts glibc's page faults")
def test_warm_prediction_call_does_not_fault_its_blocks_in_again():
    # 153 blocks at mc 20 and hidden 50.  With fresh arrays glibc handed each
    # block's memory back and the next block faulted it in again: about
    # 85 000 minor faults a call.  A fresh process keeps the count free of
    # what earlier tests did to the heap.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(training.__file__).parents[1]), *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run([sys.executable, "-c", _FAULTS], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 5000


# -- invariants ----------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(
    name=st.sampled_from(["nf", "mdn", "lv", "gauss"]),
    mode=st.sampled_from(["fixed", "learned"]),
    mc=st.integers(1, 3),
    n=st.integers(1, 4),
    seed=st.integers(0, 999),
)
def test_free_energy_identity_and_finiteness(name, mode, mc, n, seed):
    head = make_head(name, n_stages=1, n_components=2, n_noise=2)
    model = build_model(head, x_dim=1, hidden=(3,), mode=mode, sigma_q=0.3, seed=seed)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 1))
    y = rng.standard_normal(n)
    r, g = free_energy(model, x, y, n + 5, mc, np.random.default_rng(seed + 1))
    assert r.free_energy == r.expected_nll + r.kl
    assert r.kl >= 0.0
    assert np.isfinite(g).all()


# -- array tape: robustness and the names the benchmark tracer wraps -----------


@settings(max_examples=60, deadline=None)
@given(
    head=st.sampled_from([NFHead(0), NFHead(2), MDNHead(2), LVHead(n_noise=2), GaussHead()]),
    mode=st.sampled_from(["fixed", "learned"]),
    y=st.lists(
        st.one_of(
            st.floats(-3.0, 3.0),
            st.sampled_from([1e8, -1e8, 1e150, -1e150, 1e300, -np.finfo(float).max]),
        ),
        min_size=1,
        max_size=3,
    ),
    beta_hat=st.sampled_from([None, -40.0]),
    seed=st.integers(0, 999),
)
def test_free_energy_gradient_is_finite_or_numeric_error(head, mode, y, beta_hat, seed):
    # one-row batches, K=0 flows, beta_hat = -40 stages and far-out targets:
    # a finite gradient or a NumericError, never NaN
    model = build_model(head, x_dim=1, hidden=(3,), mode=mode, sigma_q=0.3, seed=seed)
    if beta_hat is not None and "beta_hat" in head.group_map():
        post = model.net.posterior
        post.b_means[-1][list(head.group_map()["beta_hat"])] = beta_hat
    rng = np.random.default_rng(seed)
    y = np.array(y)
    x = rng.standard_normal((y.size, 1))
    with np.errstate(all="ignore"):
        try:
            r, g = free_energy(model, x, y, y.size + 2, 2, np.random.default_rng(seed + 1))
        except NumericError:
            return
    assert np.isfinite(g).all()
    assert math.isfinite(r.free_energy)


def test_non_finite_gradient_names_its_coordinate(monkeypatch):
    from flowcde.tape import Tape

    real = Tape.backward

    def poisoned(self, output):
        adj = real(self, output)
        adj[0] = np.full_like(adj[0], np.inf)
        return adj

    monkeypatch.setattr(Tape, "backward", poisoned)
    model = build_model(GaussHead())
    x, y = small_batch()
    with pytest.raises(NumericError, match="non-finite gradient inf at coordinate 0"):
        free_energy(model, x, y, 3, 1, np.random.default_rng(0))


WRAPPED_HEAD_METHODS = ("log_density_rows_np", "log_density_rows_tape", "curve_log_density",
                        "sample_np", "prepare_inputs")


def test_benchmark_wrapped_names_exist_on_their_own_classes():
    # the benchmark's tracer looks these up by name (methods in their class's
    # own __dict__) and reads per-layer costs off their spans
    from flowcde import bnn, flows, heads, tape

    assert "backward" in vars(tape.Tape)
    assert "__init__" in vars(bnn.TapeParams)
    assert {"forward_np", "forward_tape", "kl_to_prior", "kl_gradients"} <= set(
        vars(bnn.BayesianMLP))
    for cls in (heads.NFHead, heads.MDNHead, heads.LVHead, heads.GaussHead):
        for name in WRAPPED_HEAD_METHODS:
            assert name in vars(cls), (cls.__name__, name)
    for name in ("log_density_params", "log_density_batch", "sample"):
        assert callable(getattr(flows, name))


@pytest.mark.parametrize("name", ["nf", "mdn", "lv", "gauss"])
def test_free_energy_step_runs_through_the_wrapped_names(name, monkeypatch):
    from flowcde import bnn, heads, tape

    head = make_head(name, n_stages=2, n_components=2, n_noise=2)
    calls = {}

    def count(owner, attr, key):
        original = vars(owner)[attr]

        def counted(*args, **kwargs):
            calls[key] = calls.get(key, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)

    count(tape.Tape, "backward", "backward")
    count(bnn.TapeParams, "__init__", "tape_params")
    count(bnn.BayesianMLP, "forward_tape", "forward_tape")
    count(bnn.BayesianMLP, "kl_to_prior", "kl_to_prior")
    count(bnn.BayesianMLP, "kl_gradients", "kl_gradients")
    count(type(head), "log_density_rows_tape", "log_density_rows_tape")
    if name == "nf":
        count(heads, "log_density_params", "log_density_params")
    model = build_model(head)
    x, y = small_batch()
    free_energy(model, x, y, 3, 2, np.random.default_rng(0))
    want = {"backward": 1, "tape_params": 1, "forward_tape": 1, "kl_to_prior": 1,
            "kl_gradients": 1, "log_density_rows_tape": 1}
    if name == "nf":
        want["log_density_params"] = 1
    assert calls == want
