"""Variational MLP: forward passes, priors, KL, and prior sampling."""

from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowcde.bnn import (
    BayesianMLP,
    GroupPrior,
    MLPArchitecture,
    PriorConfig,
    TapeParams,
    VariationalPosterior,
    draw_eps,
    init_posterior,
    prior_outputs,
    sample_prior_cde,
    sample_prior_parameters,
)
from flowcde.errors import ConfigError, NumericError, StructuralError
from flowcde.heads import NFHead, make_head
from flowcde.tape import Tape
from mlp_reference import mlp_forward


def small_net(
    arch=None,
    mode="fixed",
    sigma_q=0.3,
    seed=0,
    lambda_=1.0,
    sigma_w=1.0,
    groups=None,
    group_map=None,
):
    arch = arch or MLPArchitecture(2, (3,), 4)
    if mode == "fixed":
        post = init_posterior(arch, seed, sigma_init=max(sigma_q, 1e-9), mode="fixed")
        post.sigma_q = sigma_q  # zero is legal post-init (deterministic nets)
    else:
        post = init_posterior(arch, seed, sigma_init=sigma_q, mode="learned")
    head = NFHead((arch.output_dim - 1) // 3)
    group_map = group_map or head.group_map()
    prior = PriorConfig(sigma_w, lambda_, groups) if groups else head.default_prior(
        sigma_w, lambda_)
    return BayesianMLP(arch, post, prior, group_map)


def randomized(net, seed=5, spread=0.8):
    rng = np.random.default_rng(seed)
    post = net.posterior
    # written through the per-layer views, so into post.vector
    for w in post.w_means:
        w[...] = rng.normal(0, spread, w.shape)
    for b in post.b_means:
        b[...] = rng.normal(0, spread, b.shape)
    if post.mode == "learned":
        for w in post.w_logvars:
            w[...] = rng.normal(-2.0, 0.5, w.shape)
        for b in post.b_logvars:
            b[...] = rng.normal(-2.0, 0.5, b.shape)
    return net


def test_architecture_validation():
    with pytest.raises(StructuralError):
        MLPArchitecture(0, (3,), 2)
    with pytest.raises(StructuralError):
        MLPArchitecture(1, (0,), 2)
    arch = MLPArchitecture(2, (5, 7), 3)
    assert arch.widths == (2, 5, 7, 3)
    assert arch.layer_shapes() == [((2, 5), (5,)), ((5, 7), (7,)), ((7, 3), (3,))]


def test_posterior_mode_validation():
    arch = MLPArchitecture(1, (), 1)  # one weight and one bias
    with pytest.raises(StructuralError):
        VariationalPosterior(arch, np.zeros(2))  # learned mode lacks log-variances
    with pytest.raises(StructuralError):
        VariationalPosterior(arch, np.zeros(4), sigma_q=0.1)  # fixed mode has means only
    with pytest.raises(StructuralError):
        VariationalPosterior(arch, np.zeros(2), sigma_q=-0.1)
    learned = VariationalPosterior(arch, np.zeros(4))
    for bad in (np.zeros(3), np.zeros(5), np.zeros((2, 2))):  # too short, too long, 2-D
        with pytest.raises(StructuralError, match="layout needs"):
            replace(learned, vector=bad)


def test_group_map_must_partition():
    arch = MLPArchitecture(2, (3,), 4)
    post = init_posterior(arch, 0)
    with pytest.raises(StructuralError):
        BayesianMLP(arch, post, NFHead(1).default_prior(), {"shift": (0, 1, 2)})
    with pytest.raises(StructuralError):
        BayesianMLP(arch, post, NFHead(1).default_prior(), {"a": (0, 1), "b": (1, 2, 3)})
    with pytest.raises(ConfigError):
        BayesianMLP(arch, post, PriorConfig(groups={"a": GroupPrior(0, 1)}),
                    NFHead(1).group_map())


def test_init_posterior_properties():
    arch = MLPArchitecture(3, (8,), 5)
    a = init_posterior(arch, 42, sigma_init=1e-5)
    b = init_posterior(arch, 42, sigma_init=1e-5)
    for wa, wb in zip(a.w_means, b.w_means):
        assert np.array_equal(wa, wb)
    assert a.sigma_q == 1e-5
    assert np.abs(a.w_means[0]).max() <= np.sqrt(6.0 / (3 + 8))
    assert np.abs(a.w_means[1]).max() <= np.sqrt(6.0 / (8 + 5))
    assert all(np.all(bm == 0) for bm in a.b_means)
    # the means are drawn layer by layer, each weight matrix in one call
    rng = np.random.default_rng(42)
    for w, (fan_in, fan_out) in zip(a.w_means, [(3, 8), (8, 5)]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        assert np.array_equal(w, rng.uniform(-bound, bound, size=(fan_in, fan_out)))
    learned = init_posterior(arch, 1, sigma_init=1e-5, mode="learned")
    assert np.allclose(np.exp(learned.w_logvars[0]), 1e-10, rtol=1e-12)
    with pytest.raises(StructuralError):
        init_posterior(arch, 0, sigma_init=0.0)
    with pytest.raises(ConfigError):
        init_posterior(arch, 0, mode="bogus")


def test_vector_round_trip():
    for mode in ("fixed", "learned"):
        net = randomized(small_net(mode=mode))
        vec = net.posterior.vector.copy()
        again = replace(net.posterior, vector=vec)
        assert again.vector is vec
        for a, b in zip([*again.w_means, *again.b_means],
                        [*net.posterior.w_means, *net.posterior.b_means]):
            assert np.array_equal(a, b)


def test_posterior_fields_are_the_flat_store():
    assert [f.name for f in fields(VariationalPosterior)] == ["arch", "vector", "sigma_q"]


def test_views_share_the_flat_vector():
    rng = np.random.default_rng(11)
    for trial in range(20):
        hidden = tuple(int(h) for h in rng.integers(1, 6, size=rng.integers(0, 3)))
        arch = MLPArchitecture(int(rng.integers(1, 4)), hidden, int(rng.integers(1, 5)))
        for mode in ("fixed", "learned"):
            post = init_posterior(arch, trial, sigma_init=0.1, mode=mode)
            v = rng.normal(size=post.vector.size)
            again = replace(post, vector=v)
            assert again.vector is v
            views = [*again.w_means, *again.b_means]
            if mode == "learned":
                views += [*again.w_logvars, *again.b_logvars]
            else:
                assert again.w_logvars is None and again.b_logvars is None
            assert len(views) == (4 if mode == "learned" else 2) * arch.n_layers
            assert all(np.shares_memory(view, again.vector) for view in views)
            # tape leaves: one per chunk, pushed first and in canonical order
            tape = Tape()
            tp = TapeParams(tape, again)
            assert [leaf.id for leaf in tp.leaves] == list(range(len(views)))
            assert np.array_equal(np.concatenate([leaf.value.ravel() for leaf in tp.leaves]), v)


def test_zero_variance_forward_equals_plain_mlp():
    net = randomized(small_net(sigma_q=0.0, lambda_=1.7))
    x = np.random.default_rng(3).normal(size=(6, 2))
    eps = draw_eps(net.arch, np.random.default_rng(0), 4, 6)
    out = net.forward_np(x, eps)
    want = mlp_forward(net.posterior.w_means, net.posterior.b_means, x, 1.7)
    for m in range(4):
        assert np.array_equal(out[m], want)


def test_single_linear_unit_pre_activation():
    arch = MLPArchitecture(1, (), 1)
    post = VariationalPosterior(arch, np.array([1.0, 0.0]), sigma_q=0.0)
    net = BayesianMLP(arch, post, NFHead(1).default_prior(), {"shift": (0,)})
    eps = draw_eps(arch, np.random.default_rng(0), 1, 1)
    out = net.forward_np(np.array([[2.0]]), eps)
    assert out[0, 0, 0] == 2.0


def test_lambda_zero_outputs_are_bias_pathway():
    net = randomized(small_net(sigma_q=0.0, lambda_=0.0))
    rng = np.random.default_rng(1)
    x = rng.normal(size=(5, 2))
    eps = draw_eps(net.arch, rng, 2, 5)
    out = net.forward_np(x, eps)
    bias = net.posterior.b_means[-1]
    assert np.allclose(out, bias[None, None, :], atol=0.0)


def test_lambda_scales_weight_pathway_linearly():
    base = randomized(small_net(sigma_q=0.0, lambda_=0.4))
    base.posterior.b_means[-1][...] = 0.0
    x = np.random.default_rng(2).normal(size=(3, 2))
    eps = draw_eps(base.arch, np.random.default_rng(0), 1, 3)
    out1 = base.forward_np(x, eps)[0]
    base.prior = PriorConfig(1.0, 0.8, base.prior.groups)
    out2 = base.forward_np(x, eps)[0]
    assert np.array_equal(out2, 2.0 * out1)


def test_local_reparam_moments():
    # one linear layer, learned variances: sampled pre-activations should
    # match the analytic mean and variance within 3 standard errors
    arch = MLPArchitecture(3, (), 2)
    rng = np.random.default_rng(8)
    w = rng.normal(size=(3, 2))
    b = rng.normal(size=2)
    wlv = rng.normal(-1.0, 0.3, size=(3, 2))
    blv = rng.normal(-1.0, 0.3, size=2)
    post = VariationalPosterior(arch, np.concatenate([w.ravel(), b, wlv.ravel(), blv]))
    net = BayesianMLP(
        arch, post, PriorConfig(groups={"out": GroupPrior(0, 1)}), {"out": (0, 1)}
    )
    x = np.array([[0.7, -1.2, 0.4]])
    n = 100_000
    eps = draw_eps(arch, rng, n, 1)
    draws = net.forward_np(x, eps)[:, 0, :]
    mean_want = x[0] @ w + b
    var_want = (x[0] ** 2) @ np.exp(wlv) + np.exp(blv)
    se_mean = draws.std(axis=0, ddof=1) / np.sqrt(n)
    assert np.all(np.abs(draws.mean(axis=0) - mean_want) < 3 * se_mean)
    se_var = draws.var(axis=0, ddof=1) * np.sqrt(2.0 / (n - 1))
    assert np.all(np.abs(draws.var(axis=0, ddof=1) - var_want) < 3 * se_var)


def test_forward_variance_uses_squared_activations():
    # fixed mode: var = sigma_q^2 (lambda^2 sum h^2 + 1) exactly
    net = randomized(small_net(sigma_q=0.5, lambda_=2.0))
    x = np.array([[0.3, -0.4]])
    eps = draw_eps(net.arch, np.random.default_rng(0), 1, 1)
    h = np.tanh(
        x @ net.posterior.w_means[0]
        + net.posterior.b_means[0]
        + eps[0][0] * 0.5 * np.sqrt((x**2).sum() + 1.0)
    )
    want_std = 0.5 * np.sqrt(4.0 * (h**2).sum() + 1.0)
    out = net.forward_np(x, eps)[0, 0]
    mean = 2.0 * (h @ net.posterior.w_means[1]) + net.posterior.b_means[1]
    assert np.allclose(out, mean + eps[1][0, 0] * want_std, rtol=1e-12)


@pytest.mark.parametrize("mode", ["fixed", "learned"])
@pytest.mark.parametrize("lam", [1.0, 0.6])
def test_tape_forward_matches_numpy(mode, lam):
    arch = MLPArchitecture(2, (4, 3), 4)
    net = randomized(small_net(arch=arch, mode=mode, sigma_q=0.3, lambda_=lam))
    rng = np.random.default_rng(17)
    x = rng.normal(size=(3, 2))
    eps = draw_eps(arch, rng, 2, 3)
    want = net.forward_np(x, eps)
    tape = Tape()
    tp = TapeParams(tape, net.posterior)
    got = net.forward_tape(tape, tp, x, eps).value
    assert np.array_equal(got, want)


def test_tape_forward_zero_variance():
    net = randomized(small_net(sigma_q=0.0, lambda_=1.3))
    x = np.random.default_rng(0).normal(size=(2, 2))
    eps = draw_eps(net.arch, np.random.default_rng(1), 1, 2)
    tape = Tape()
    tp = TapeParams(tape, net.posterior)
    got = net.forward_tape(tape, tp, x, eps).value[0]
    want = mlp_forward(net.posterior.w_means, net.posterior.b_means, x, 1.3)
    assert np.allclose(got, want, rtol=1e-12)


def per_draw_forward(net, x, eps):
    """The pass with x broadcast to one copy per draw, so layer 0's mean and
    variance are computed mc times, and lambda multiplied into every layer
    (1.0 below the output): the reference forward_np must reproduce."""
    post = net.posterior
    last = net.arch.n_layers - 1
    h = np.broadcast_to(x, (eps[0].shape[0],) + x.shape)
    for layer in range(net.arch.n_layers):
        lam = net.prior.lambda_ if layer == last else 1.0
        a = lam * (h @ post.w_means[layer]) + post.b_means[layer]
        if post.mode == "learned":
            var = lam * lam * ((h * h) @ np.exp(post.w_logvars[layer])) + np.exp(
                post.b_logvars[layer]
            )
            a = a + eps[layer] * np.sqrt(var)
        elif post.sigma_q > 0.0:
            var = post.sigma_q**2 * (lam * lam * (h * h).sum(axis=-1, keepdims=True) + 1.0)
            a = a + eps[layer] * np.sqrt(var)
        h = np.tanh(a) if layer != last else a
    return h


@settings(max_examples=120, deadline=None)
@given(
    n_in=st.integers(1, 3),
    hidden=st.lists(st.integers(1, 5), min_size=1, max_size=2),
    stages=st.integers(0, 2),
    mode=st.sampled_from(["fixed", "learned"]),
    sigma_q=st.sampled_from([0.0, 0.05, 0.3, 1.0]),
    lam=st.sampled_from([0.0, 0.6, 1.0, 1.7]),
    mc=st.integers(1, 4),
    rows=st.integers(1, 6),
    seed=st.integers(0, 10_000),
)
def test_forward_equals_the_per_draw_pass(n_in, hidden, stages, mode, sigma_q, lam, mc, rows,
                                          seed):
    arch = MLPArchitecture(n_in, tuple(hidden), 3 * stages + 1)
    sigma_q = sigma_q if mode == "fixed" else max(sigma_q, 0.05)
    net = randomized(small_net(arch=arch, mode=mode, sigma_q=sigma_q, lambda_=lam), seed=seed)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(rows, n_in))
    eps = draw_eps(arch, rng, mc, rows)
    got = net.forward_np(x, eps)
    want = per_draw_forward(net, x, eps)
    assert got.shape == want.shape == (mc, rows, arch.output_dim)
    if n_in == 1:
        # one input: every layer-0 product is one multiplication either way
        assert np.array_equal(got, want)
    else:
        # a matrix product's summation order may differ per row and per draw
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
    tape = Tape()
    assert np.array_equal(net.forward_tape(tape, TapeParams(tape, net.posterior), x, eps).value,
                          got)


def test_noiseless_forward_returns_one_equal_copy_per_draw():
    arch = MLPArchitecture(2, (4, 3), 4)
    net = randomized(small_net(arch=arch, sigma_q=0.0, lambda_=1.3))
    x = np.random.default_rng(0).normal(size=(5, 2))
    eps = draw_eps(arch, np.random.default_rng(1), 3, 5)
    tape = Tape()
    tp = TapeParams(tape, net.posterior)
    for out in (net.forward_np(x, eps), net.forward_tape(tape, tp, x, eps).value):
        assert out.shape == (3, 5, 4)
        assert all(np.array_equal(out[m], out[0]) for m in range(3))


def test_kl_zero_iff_posterior_equals_prior():
    arch = MLPArchitecture(2, (3,), 4)
    prior = NFHead(1).default_prior(sigma_w=0.7, sigma_beta=0.4)
    net = small_net(arch=arch, mode="learned", groups=prior.groups, sigma_w=0.7)
    net.prior = prior
    mu_p, sd_p = net.prior_mean_std_vectors()
    net.posterior = VariationalPosterior(arch, np.concatenate([mu_p, 2.0 * np.log(sd_p)]))
    assert net.kl_to_prior() == 0.0
    assert np.all(net.kl_gradients() == 0.0)


def test_kl_single_parameter_half():
    arch = MLPArchitecture(1, (), 1)
    post = VariationalPosterior(arch, np.array([0.0, 1.0, 0.0, 0.0]))  # w, b, then log-variances
    prior = PriorConfig(1.0, 1.0, {"out": GroupPrior(0.0, 1.0)})
    net = BayesianMLP(arch, post, prior, {"out": (0,)})
    # weight matches its prior exactly; bias is N(1,1) vs N(0,1)
    assert net.kl_to_prior() == pytest.approx(0.5, abs=1e-15)


def test_kl_matches_monte_carlo():
    net = randomized(small_net(mode="learned", sigma_w=0.8), seed=23)
    analytic = net.kl_to_prior()
    post = net.posterior
    layers = range(net.arch.n_layers)
    mu_q = np.concatenate([np.concatenate([post.w_means[l].ravel(), post.b_means[l]]) for l in layers])
    sd_q = np.concatenate(
        [np.sqrt(np.exp(np.concatenate([post.w_logvars[l].ravel(), post.b_logvars[l]])))
         for l in layers]
    )
    mu_p, sd_p = net.prior_mean_std_vectors()
    n = 1_000_000
    z = np.random.default_rng(0).standard_normal((n, mu_q.size))
    theta = mu_q + sd_q * z
    log_q = (-0.5 * z**2 - np.log(sd_q)).sum(axis=1)
    log_p = (-0.5 * ((theta - mu_p) / sd_p) ** 2 - np.log(sd_p)).sum(axis=1)
    diffs = log_q - log_p
    se = diffs.std(ddof=1) / np.sqrt(n)
    assert abs(analytic - diffs.mean()) < 3 * se
    assert analytic >= 0.0


def test_kl_gradients_match_finite_differences():
    net = randomized(small_net(mode="learned"), seed=31)
    vec = net.posterior.vector
    grad = net.kl_gradients()

    def kl_at(v):
        net.posterior = replace(net.posterior, vector=v)
        return net.kl_to_prior()

    h = 1e-6
    for i in range(0, vec.size, 7):
        bump = vec.copy()
        bump[i] += h
        up = kl_at(bump)
        bump[i] -= 2 * h
        dn = kl_at(bump)
        fd = (up - dn) / (2 * h)
        denom = max(abs(grad[i]), abs(fd), 1e-8)
        assert abs(grad[i] - fd) / denom < 1e-6
    net.posterior = replace(net.posterior, vector=vec)


def test_kl_rejects_zero_stds():
    net = randomized(small_net(sigma_q=0.0))
    net2 = small_net(groups={
        "alpha_hat": GroupPrior(1.0, 1.0),
        "beta_hat": GroupPrior(0.0, 0.0),
        "gamma": GroupPrior(0.0, 1.0),
        "shift": GroupPrior(0.0, 1.0),
    })
    for kl in (net.kl_to_prior, net.kl_gradients, net2.kl_to_prior, net2.kl_gradients):
        with pytest.raises(NumericError):
            kl()


def test_prior_vectors_layout():
    arch = MLPArchitecture(2, (3,), 4)
    prior = NFHead(1).default_prior(sigma_w=0.5, sigma_beta=2.0)
    net = small_net(arch=arch, sigma_w=0.5, groups=prior.groups)
    net.prior = prior
    mu, sd = net.prior_mean_std_vectors()
    n_hidden = 2 * 3 + 3
    assert np.all(mu[:n_hidden] == 0) and np.all(sd[:n_hidden] == 0.5)
    out_w = sd[n_hidden : n_hidden + 12].reshape(3, 4)
    assert np.all(out_w == np.array([1.0, 2.0, 1.0, 1.0]))
    assert np.all(mu[-4:] == np.array([1.0, 0.0, 0.0, 0.0]))
    assert np.all(sd[-4:] == np.array([1.0, 2.0, 1.0, 1.0]))


def test_sample_prior_parameters_formula():
    arch = MLPArchitecture(1, (2,), 4)
    prior = NFHead(1).default_prior(sigma_w=0.3, lambda_=1.0, sigma_beta=0.7)
    post = sample_prior_parameters(arch, prior, NFHead(1).group_map(), seed=99)
    ws, bs = post.w_means, post.b_means
    net = small_net(arch=arch)
    net.prior = prior
    mu, sd = net.prior_mean_std_vectors()
    eps = np.random.default_rng(99).standard_normal(mu.size)
    theta = mu + sd * eps
    got = np.concatenate([ws[0].ravel(), bs[0], ws[1].ravel(), bs[1]])
    assert np.array_equal(got, theta) and np.array_equal(post.vector, theta)
    assert post.sigma_q == 0.0


def test_prior_cde_zero_beta_is_gaussian():
    arch = MLPArchitecture(1, (10,), 4)
    prior = NFHead(1).default_prior(sigma_w=1.0, lambda_=1.0, sigma_beta=0.0)
    xg = np.linspace(-2, 2, 9)
    yg = np.linspace(-6, 6, 121)
    grid = sample_prior_cde(arch, prior, NFHead(1), 3, xg, yg)
    post = sample_prior_parameters(arch, prior, NFHead(1).group_map(), 3)
    omega = mlp_forward(post.w_means, post.b_means, xg.reshape(-1, 1), 1.0)
    for i in range(xg.size):
        want = np.exp(-0.5 * (np.log(2 * np.pi) + (yg - omega[i, 3]) ** 2))
        assert np.allclose(grid[i], want, atol=1e-10)


@pytest.mark.parametrize("name", ["nf", "mdn", "gauss"])
def test_prior_draw_runs_the_network_pass_bit_for_bit_like_the_reference(name):
    rng = np.random.default_rng(17)
    head = make_head(name, n_stages=2, n_components=3)
    yg = np.linspace(-4.0, 4.0, 9)
    for trial in range(20):
        hidden = tuple(int(h) for h in rng.integers(1, 9, size=rng.integers(1, 4)))
        arch = MLPArchitecture(int(rng.integers(1, 4)), hidden, head.output_dim)
        prior = head.default_prior(float(rng.uniform(0.1, 3.0)), float(rng.uniform(0.0, 5.0)),
                                   float(rng.uniform(0.0, 2.0)))
        x = rng.uniform(-3.0, 3.0, size=(6, arch.input_dim))
        post = sample_prior_parameters(arch, prior, head.group_map(), trial)
        want = mlp_forward(post.w_means, post.b_means, x, prior.lambda_)
        assert np.array_equal(prior_outputs(arch, prior, head.group_map(), trial, x), want)
        if arch.input_dim == 1:
            dens = np.exp(head.log_density_rows_np(
                want[None], np.broadcast_to(yg, (6, yg.size)), head.init_extras())[0])
            assert np.array_equal(sample_prior_cde(arch, prior, head, trial, x[:, 0], yg), dens)


def test_prior_vectors_need_a_partition_and_every_group_prior():
    arch = MLPArchitecture(1, (2,), 4)
    with pytest.raises(StructuralError, match="partition"):
        sample_prior_parameters(arch, NFHead(1).default_prior(), {"shift": (3,)}, 0)
    with pytest.raises(ConfigError, match="lacks"):
        sample_prior_parameters(arch, PriorConfig(groups={}), NFHead(1).group_map(), 0)


def test_prior_cde_columns_normalized():
    arch = MLPArchitecture(1, (10,), 7)
    prior = NFHead(1).default_prior(sigma_w=1.0, lambda_=2.0, sigma_beta=1.0)
    xg = np.linspace(-2, 2, 5)
    yg = np.linspace(-12, 12, 2401)
    grid = sample_prior_cde(arch, prior, NFHead(2), 11, xg, yg)
    masses = np.trapezoid(grid, yg, axis=1)
    assert np.all(np.abs(masses - 1.0) < 1e-2)


def test_prior_cde_lambda_orders_output_spread():
    arch = MLPArchitecture(1, (10,), 7)
    xg = np.linspace(-2, 2, 21)
    spreads = []
    for lam in (0.2, 2.0):
        prior = NFHead(1).default_prior(sigma_w=1.0, lambda_=lam, sigma_beta=1.0)
        post = sample_prior_parameters(arch, prior, NFHead(2).group_map(), seed=7)
        omega = mlp_forward(post.w_means, post.b_means, xg.reshape(-1, 1), lam)
        spreads.append(omega.std(axis=0))
    assert np.all(spreads[1] > spreads[0])


def test_forward_rejects_bad_shapes():
    net = small_net()
    eps = draw_eps(net.arch, np.random.default_rng(0), 1, 2)
    with pytest.raises(StructuralError):
        net.forward_np(np.zeros((2, 3)), eps)
    with pytest.raises(StructuralError):
        draw_eps(net.arch, np.random.default_rng(0), 0, 2)
