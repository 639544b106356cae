"""Free energy, its gradients (against finite differences under common
random numbers), Adam, and the training loop."""

import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowcde.bnn import BayesianMLP, MLPArchitecture, draw_eps, init_posterior, mlp_forward
from flowcde.errors import NumericError, StructuralError
from flowcde.heads import GaussHead, LVHead, MDNHead, NFHead, logsumexp, make_head
from flowcde.training import (
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

HALF_LOG_2PI = 0.9189385332046727


def build_model(head, x_dim=2, hidden=(5,), mode="fixed", sigma_q=0.35, seed=3):
    arch = MLPArchitecture(x_dim + head.extra_input_dim, hidden, head.output_dim)
    post = init_posterior(arch, seed=seed, sigma_init=sigma_q, mode=mode)
    net = BayesianMLP(arch, post, head.default_prior(), head.group_map())
    return CdeModel(net, head, head.init_extras())


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
    assert cfg.mc_samples_test == 20


@pytest.mark.parametrize(
    "kwargs",
    [
        {"learning_rate": 0.0},
        {"learning_rate": -1.0},
        {"adam_beta1": 1.0},
        {"adam_beta2": -0.1},
        {"mc_samples_train": 0},
        {"mc_samples_test": 0},
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


# -- free energy values ------------------------------------------------------


def test_zero_stage_flow_nll_is_half_log_2pi_per_point():
    head = NFHead(0)
    arch = MLPArchitecture(1, (3,), 1)
    post = init_posterior(arch, 0, sigma_init=1e-12, mode="fixed")
    post = post.replace_from_vector(np.zeros(post.n_trainable))
    net = BayesianMLP(arch, post, head.default_prior(), head.group_map())
    model = CdeModel(net, head, head.init_extras())
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
    r, g = free_energy(model, x, y, 9, 3, np.random.default_rng(11))
    v = free_energy_value(model, x, y, 9, 3, np.random.default_rng(11))
    assert v == pytest.approx(r.free_energy, rel=1e-10)
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
    with pytest.raises(NumericError) as ei:
        free_energy(model, x, y, 3, 2, np.random.default_rng(0))
    assert ei.value.index == 1
    with pytest.raises(NumericError) as ei:
        free_energy_value(model, x, y, 3, 2, np.random.default_rng(0))
    assert ei.value.index == 1


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
        with pytest.raises(NumericError):
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
    rows, per = head.prepare_inputs(x, rng)
    omega = model.net.forward_np(rows, draw_eps(model.net.arch, rng, mc, rows.shape[0]))
    want = np.column_stack([
        logsumexp(head.log_density_rows_np(omega, np.full(x.shape[0], g), model.extras),
                  axis=0, mean=True)
        for g in grid
    ])
    assert per == (3 if name == "lv" else 1)
    assert curve.shape == (4, grid.size)
    np.testing.assert_array_equal(curve, want)


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
