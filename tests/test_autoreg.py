"""Chain-rule joint densities, grid evaluation, and marginalization."""

import math

import numpy as np
import pytest

from flowcde.autoreg import (
    AutoregModel,
    density_grid,
    grid_mass,
    joint_log_density,
    top_decile_coverage,
)
from flowcde.bnn import BayesianMLP, MLPArchitecture, init_posterior
from flowcde.data import toy_true_log_density
from flowcde.errors import ConfigError, StructuralError
from flowcde.heads import LVHead, NFHead
from flowcde.training import (
    CdeModel,
    TrainConfig,
    predictive_curve,
    predictive_log_density,
    train,
)

TWO_HALF_LOG_2PI = 1.8378770664093453


def nf_model(in_dim, n_stages, sigma_q=0.2, seed=0, hidden=(6,), zero=False):
    head = NFHead(n_stages)
    arch = MLPArchitecture(in_dim, hidden, head.output_dim)
    post = init_posterior(arch, seed=seed, sigma_init=sigma_q, mode="fixed")
    if zero:
        post = post.replace_from_vector(np.zeros(post.n_trainable))
    net = BayesianMLP(arch, post, head.default_prior(), head.group_map())
    return CdeModel(net, head, head.init_extras())


def autoreg(n_stages=0, sigma_q=1e-12, zero=True, order=(0, 1), hidden=(6,)):
    return AutoregModel(
        nf_model(1, n_stages, sigma_q, seed=3, hidden=hidden, zero=zero),
        nf_model(2, n_stages, sigma_q, seed=4, hidden=hidden, zero=zero),
        order=order,
    )


def test_lv_stages_count_features_without_their_noise_inputs():
    def lv_model(in_dim, seed):
        head = LVHead(n_noise=2, noise_dim=3)
        arch = MLPArchitecture(in_dim + head.extra_input_dim, (4,), head.output_dim)
        post = init_posterior(arch, seed=seed, sigma_init=0.1, mode="fixed")
        net = BayesianMLP(arch, post, head.default_prior(), head.group_map())
        return CdeModel(net, head, head.init_extras())

    model = AutoregModel(lv_model(2, 0), lv_model(3, 1))
    assert model.n_features == 2 and model.stage2_features == 3
    grid = np.linspace(-2.0, 2.0, 5)
    dens = density_grid(model, [0.1, np.nan], grid, grid, mc=2, rng=np.random.default_rng(0))
    assert dens.shape == (5, 5) and np.isfinite(dens).all()
    with pytest.raises(StructuralError):
        AutoregModel(lv_model(2, 0), lv_model(2, 1))


def test_deterministic_zero_flow_joint_value():
    model = autoreg()
    ll = joint_log_density(
        model, np.array([[0.3]]), np.array([[0.0, 0.0]]), 1, np.random.default_rng(0)
    )
    assert ll[0] == pytest.approx(-TWO_HALF_LOG_2PI, abs=1e-9)


def test_joint_is_exactly_the_sum_of_stage_predictives():
    model = autoreg(n_stages=1, sigma_q=0.3, zero=False)
    rng = np.random.default_rng(5)
    x = np.array([[0.4], [-1.0]])
    y = np.array([[0.2, -0.5], [1.0, 0.3]])
    joint = joint_log_density(model, x, y, 3, np.random.default_rng(5))
    ll1 = predictive_log_density(model.stage1, x, y[:, 0], 3, rng)
    ll2 = predictive_log_density(
        model.stage2, np.column_stack([x, y[:, 0]]), y[:, 1], 3, rng
    )
    assert np.array_equal(joint, ll1 + ll2)


def test_mixed_chain_order_is_refused():
    model = autoreg()
    x = np.array([[0.0]])
    y = np.zeros((1, 2))
    rng = np.random.default_rng(0)
    with pytest.raises(ConfigError, match="refusing"):
        joint_log_density(model, x, y, 1, rng, order=(1, 0))
    with pytest.raises(ConfigError, match="refusing"):
        density_grid(model, [0.0], [0.0], [0.0], rng=rng, order=(1, 0))
    # the model's own ordering is accepted
    joint_log_density(model, x, y, 1, rng, order=(0, 1))
    swapped = autoreg(order=(1, 0))
    assert swapped.chain_names == ("y2", "y1")
    joint_log_density(swapped, x, y, 1, rng, order=(1, 0))


def test_swapped_order_reads_target_columns_in_chain_order():
    model = autoreg(order=(1, 0))
    rng = np.random.default_rng(2)
    y = np.array([[0.7, -0.4]])
    x = np.array([[0.1]])
    joint = joint_log_density(model, x, y, 1, np.random.default_rng(7))
    ll1 = predictive_log_density(model.stage1, x, y[:, 1], 1, np.random.default_rng(7))
    # deterministic model: stage order is what matters, not rng state
    ll2 = predictive_log_density(
        model.stage2, np.array([[0.1, -0.4]]), y[:, 0], 1, np.random.default_rng(7)
    )
    assert joint[0] == pytest.approx(ll1[0] + ll2[0], rel=1e-12)


def test_stage_shapes_are_validated():
    with pytest.raises(StructuralError):
        AutoregModel(nf_model(1, 0), nf_model(3, 0))
    with pytest.raises(StructuralError):
        AutoregModel(nf_model(1, 0), nf_model(2, 0), order=(0, 2))
    with pytest.raises(StructuralError):
        AutoregModel(nf_model(1, 0), nf_model(2, 0), target_names=("a",))


def test_random_model_joint_mass_by_quadrature():
    model = autoreg(n_stages=2, sigma_q=0.2, zero=False)
    g = np.linspace(-10.0, 10.0, 301)
    dens = density_grid(
        model, [0.45], g, g, marginal_samples=1, mc=3, rng=np.random.default_rng(8)
    )
    assert grid_mass(dens, g, g) == pytest.approx(1.0, abs=1e-2)


def test_grid_equals_pointwise_joint_when_deterministic():
    model = autoreg(n_stages=1, sigma_q=1e-12, zero=False)
    g1 = np.linspace(-1.0, 1.0, 7)
    g2 = np.linspace(-0.5, 1.5, 5)
    dens = density_grid(model, [0.2], g1, g2, mc=1, rng=np.random.default_rng(1))
    for i, a in enumerate(g1):
        for j, b in enumerate(g2):
            ll = joint_log_density(
                model,
                np.array([[0.2]]),
                np.array([[a, b]]),
                1,
                np.random.default_rng(2),
            )
            assert dens[i, j] == pytest.approx(math.exp(ll[0]), rel=1e-9)


def test_grid_cap_and_validation():
    model = autoreg()
    g = np.linspace(-2, 2, 11)
    dens = density_grid(model, [0.0], g, g, cap=0.01, rng=np.random.default_rng(0))
    assert dens.max() <= 0.01
    assert dens.shape == (11, 11)
    with pytest.raises(StructuralError):
        density_grid(model, [0.0, 1.0], g, g)
    with pytest.raises(StructuralError):
        density_grid(model, [0.0], [], g)
    with pytest.raises(StructuralError):
        density_grid(model, [0.0], g, g, marginal_samples=0)


def test_marginalizing_an_ignored_feature_changes_nothing():
    # all-zero weights: the feature column is irrelevant, so averaging over
    # draws of it must equal conditioning on any value, and the density is
    # the unit normal in each coordinate
    model = autoreg(n_stages=1, zero=True)
    g1 = np.linspace(-1.5, 1.5, 9)
    g2 = np.linspace(-1.0, 2.0, 8)
    a = density_grid(model, [np.nan], g1, g2, marginal_samples=4,
                     mc=1, rng=np.random.default_rng(3))
    b = density_grid(model, [0.77], g1, g2, marginal_samples=1,
                     mc=1, rng=np.random.default_rng(4))
    assert np.allclose(a, b, rtol=1e-9)
    phi = lambda v: np.exp(-0.5 * v**2) / math.sqrt(2 * math.pi)
    assert np.allclose(a, np.outer(phi(g1), phi(g2)), rtol=1e-9)


def test_true_two_cluster_grid_mass_and_coverage():
    xv = 0.5
    g = np.linspace(-3.5, 3.5, 141)
    yy1, yy2 = np.meshgrid(g, g, indexing="ij")
    pts = np.column_stack([yy1.ravel(), yy2.ravel()])
    dens = np.exp(
        toy_true_log_density("spatial-two-cluster", np.full(pts.shape[0], xv), pts)
    ).reshape(141, 141)
    assert grid_mass(dens, g, g) == pytest.approx(1.0, abs=1e-3)

    # draw from the same conditional mixture the truth describes
    rng = np.random.default_rng(10)
    n = 2000
    w = 0.35 + 0.3 * xv
    c1 = np.array([-1.0 - 0.5 * xv, -0.5 + 0.2 * xv])
    c2 = np.array([0.8 + 0.4 * xv, 0.6 - 0.3 * xv])
    pick = rng.random(n) < w
    centers = np.where(pick[:, None], c1, c2)
    scales = np.where(pick, 0.25, 0.35)
    draws = centers + scales[:, None] * rng.standard_normal((n, 2))
    assert top_decile_coverage(dens, g, g, draws) >= 0.8


def test_top_decile_geometry():
    g = np.linspace(0.0, 1.0, 11)
    dens = np.zeros((11, 11))
    dens[5, 5] = 1.0
    cov = top_decile_coverage(dens, g, g, np.array([[0.5, 0.5]]))
    assert cov == 1.0
    assert top_decile_coverage(dens, g, g, np.array([[5.0, 5.0]])) == 0.0


def test_factorized_truth_gives_matching_conditional_slices():
    # y2 depends on x only; a fitted second stage should produce nearly the
    # same p(y2 | x, y1) whatever y1 value it is handed
    rng = np.random.default_rng(12)
    n = 240
    x = rng.uniform(-1.0, 1.0, n)
    y1 = rng.standard_normal(n)
    y2 = 0.4 * x + 0.25 * rng.standard_normal(n)
    model = nf_model(2, 1, sigma_q=0.05, seed=1, hidden=(8,))
    cfg = TrainConfig(learning_rate=0.02, iterations=350, batch_size=60,
                      mc_samples_train=2, seed=6)
    train(model, np.column_stack([x, y1]), y2, cfg)
    grid = np.linspace(-1.2, 1.5, 61)
    lo = predictive_curve(model, [[0.2, -1.2]], grid, 10, np.random.default_rng(0))[0]
    hi = predictive_curve(model, [[0.2, 1.2]], grid, 10, np.random.default_rng(0))[0]
    true_p = np.exp(-0.5 * ((grid - 0.08) / 0.25) ** 2)
    mask = true_p > 0.2 * true_p.max()
    assert np.abs(lo[mask] - hi[mask]).mean() < 0.4
