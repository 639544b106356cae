"""Variational MLP: forward passes, priors, KL, and prior sampling."""

import numpy as np
import pytest

from flowcde.bnn import (
    BayesianMLP,
    GroupPrior,
    MLPArchitecture,
    PriorConfig,
    TapeParams,
    VariationalPosterior,
    draw_eps,
    init_posterior,
    mlp_forward,
    nf_group_map,
    nf_prior,
    sample_prior_cde,
    sample_prior_parameters,
)
from flowcde.errors import ConfigError, NumericError, StructuralError
from flowcde.heads import NFHead
from flowcde.tape import Tape


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
    group_map = group_map or nf_group_map((arch.output_dim - 1) // 3)
    prior = PriorConfig(sigma_w, lambda_, groups) if groups else nf_prior(sigma_w, lambda_)
    return BayesianMLP(arch, post, prior, group_map)


def randomized(net, seed=5, spread=0.8):
    rng = np.random.default_rng(seed)
    post = net.posterior
    post.w_means = [rng.normal(0, spread, w.shape) for w in post.w_means]
    post.b_means = [rng.normal(0, spread, b.shape) for b in post.b_means]
    if post.mode == "learned":
        post.w_logvars = [rng.normal(-2.0, 0.5, w.shape) for w in post.w_logvars]
        post.b_logvars = [rng.normal(-2.0, 0.5, b.shape) for b in post.b_logvars]
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
    arch = MLPArchitecture(1, (), 1)
    w = [np.zeros((1, 1))]
    b = [np.zeros(1)]
    with pytest.raises(StructuralError):
        VariationalPosterior(arch, w, b)  # neither mode
    with pytest.raises(StructuralError):
        VariationalPosterior(arch, w, b, sigma_q=0.1, w_logvars=w, b_logvars=b)


def test_group_map_must_partition():
    arch = MLPArchitecture(2, (3,), 4)
    post = init_posterior(arch, 0)
    with pytest.raises(StructuralError):
        BayesianMLP(arch, post, nf_prior(), {"shift": (0, 1, 2)})
    with pytest.raises(StructuralError):
        BayesianMLP(arch, post, nf_prior(), {"a": (0, 1), "b": (1, 2, 3)})
    with pytest.raises(ConfigError):
        BayesianMLP(arch, post, PriorConfig(groups={"a": GroupPrior(0, 1)}),
                    nf_group_map(1))


def test_init_posterior_properties():
    arch = MLPArchitecture(3, (8,), 5)
    a = init_posterior(arch, 42, sigma_init=1e-5)
    b = init_posterior(arch, 42, sigma_init=1e-5)
    for wa, wb in zip(a.w_means, b.w_means):
        assert np.array_equal(wa, wb)
    assert a.sigma_q == 1e-5
    assert np.allclose(a.w_var(0), 1e-10, rtol=1e-15)
    assert np.abs(a.w_means[0]).max() <= np.sqrt(6.0 / (3 + 8))
    assert np.abs(a.w_means[1]).max() <= np.sqrt(6.0 / (8 + 5))
    assert all(np.all(bm == 0) for bm in a.b_means)
    learned = init_posterior(arch, 1, sigma_init=1e-5, mode="learned")
    assert np.allclose(learned.w_var(0), 1e-10, rtol=1e-12)
    with pytest.raises(StructuralError):
        init_posterior(arch, 0, sigma_init=0.0)
    with pytest.raises(ConfigError):
        init_posterior(arch, 0, mode="bogus")


def test_vector_round_trip():
    for mode in ("fixed", "learned"):
        net = randomized(small_net(mode=mode))
        vec = net.posterior.to_vector()
        assert vec.size == net.posterior.n_trainable
        again = net.posterior.replace_from_vector(vec)
        assert np.array_equal(again.to_vector(), vec)


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
    post = VariationalPosterior(arch, [np.ones((1, 1))], [np.zeros(1)], sigma_q=0.0)
    net = BayesianMLP(arch, post, nf_prior(), {"shift": (0,)})
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
    base.posterior.b_means[-1] = np.zeros_like(base.posterior.b_means[-1])
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
    post = VariationalPosterior(arch, [w], [b], w_logvars=[wlv], b_logvars=[blv])
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


def test_kl_zero_iff_posterior_equals_prior():
    arch = MLPArchitecture(2, (3,), 4)
    prior = nf_prior(sigma_w=0.7, sigma_beta=0.4)
    net = small_net(arch=arch, mode="learned", groups=prior.groups, sigma_w=0.7)
    net.prior = prior
    mu_p, sd_p = net.prior_mean_std_vectors()
    from flowcde.bnn import split_flat

    means = split_flat(arch, mu_p, learned=False)
    lvs = split_flat(arch, 2.0 * np.log(sd_p), learned=False)
    net.posterior = VariationalPosterior(
        arch, means["w_mean"], means["b_mean"],
        w_logvars=lvs["w_mean"], b_logvars=lvs["b_mean"],
    )
    assert net.kl_to_prior() == 0.0
    assert np.all(net.kl_gradients() == 0.0)


def test_kl_single_parameter_half():
    arch = MLPArchitecture(1, (), 1)
    post = VariationalPosterior(
        arch, [np.array([[0.0]])], [np.array([1.0])],
        w_logvars=[np.zeros((1, 1))], b_logvars=[np.zeros(1)],
    )
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
        [np.concatenate([np.sqrt(post.w_var(l)).ravel(), np.sqrt(post.b_var(l))]) for l in layers]
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
    vec = net.posterior.to_vector()
    grad = net.kl_gradients()

    def kl_at(v):
        net.posterior = net.posterior.replace_from_vector(v)
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
    net.posterior = net.posterior.replace_from_vector(vec)


def test_kl_rejects_zero_stds():
    net = randomized(small_net(sigma_q=0.0))
    with pytest.raises(NumericError):
        net.kl_to_prior()
    net2 = small_net(groups={
        "alpha_hat": GroupPrior(1.0, 1.0),
        "beta_hat": GroupPrior(0.0, 0.0),
        "gamma": GroupPrior(0.0, 1.0),
        "shift": GroupPrior(0.0, 1.0),
    })
    with pytest.raises(NumericError):
        net2.kl_to_prior()


def test_prior_vectors_layout():
    arch = MLPArchitecture(2, (3,), 4)
    prior = nf_prior(sigma_w=0.5, sigma_beta=2.0)
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
    prior = nf_prior(sigma_w=0.3, lambda_=1.0, sigma_beta=0.7)
    ws, bs = sample_prior_parameters(arch, prior, nf_group_map(1), seed=99)
    net = small_net(arch=arch)
    net.prior = prior
    mu, sd = net.prior_mean_std_vectors()
    eps = np.random.default_rng(99).standard_normal(mu.size)
    theta = mu + sd * eps
    got = np.concatenate([ws[0].ravel(), bs[0], ws[1].ravel(), bs[1]])
    assert np.array_equal(got, theta)


def test_prior_cde_zero_beta_is_gaussian():
    arch = MLPArchitecture(1, (10,), 4)
    prior = nf_prior(sigma_w=1.0, lambda_=1.0, sigma_beta=0.0)
    xg = np.linspace(-2, 2, 9)
    yg = np.linspace(-6, 6, 121)
    grid = sample_prior_cde(arch, prior, NFHead(1), 3, xg, yg)
    ws, bs = sample_prior_parameters(arch, prior, nf_group_map(1), 3)
    omega = mlp_forward(ws, bs, xg.reshape(-1, 1), 1.0)
    for i in range(xg.size):
        want = np.exp(-0.5 * (np.log(2 * np.pi) + (yg - omega[i, 3]) ** 2))
        assert np.allclose(grid[i], want, atol=1e-10)


def test_prior_cde_columns_normalized():
    arch = MLPArchitecture(1, (10,), 7)
    prior = nf_prior(sigma_w=1.0, lambda_=2.0, sigma_beta=1.0)
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
        prior = nf_prior(sigma_w=1.0, lambda_=lam, sigma_beta=1.0)
        ws, bs = sample_prior_parameters(arch, prior, nf_group_map(2), seed=7)
        omega = mlp_forward(ws, bs, xg.reshape(-1, 1), lam)
        spreads.append(omega.std(axis=0))
    assert np.all(spreads[1] > spreads[0])


def test_forward_rejects_bad_shapes():
    net = small_net()
    eps = draw_eps(net.arch, np.random.default_rng(0), 1, 2)
    with pytest.raises(StructuralError):
        net.forward_np(np.zeros((2, 3)), eps)
    with pytest.raises(StructuralError):
        draw_eps(net.arch, np.random.default_rng(0), 0, 2)
