"""Chain-rule joint densities, grid evaluation, and marginalization."""

import math

import numpy as np
import pytest

from flowcde.autoreg import (
    AutoregModel,
    density_grid,
    fit_chain,
    grid_mass,
    joint_log_density,
    sample_chain,
    top_decile_coverage,
)
from flowcde.data import toy_true_log_density
from flowcde.errors import StructuralError
from flowcde.heads import LVHead, NFHead
from flowcde.training import (
    CdeModel,
    TrainConfig,
    model_sample,
    predictive_curve,
    predictive_log_density,
    train,
)

TWO_HALF_LOG_2PI = 1.8378770664093453


def nf_model(in_dim, n_stages, sigma_q=0.2, seed=0, hidden=(6,), zero=False):
    model = CdeModel.build(NFHead(n_stages), in_dim, hidden, seed, sigma_q)
    if zero:
        model.set_trainable(np.zeros(model.trainable_vector().size))
    return model


def autoreg(n_stages=0, sigma_q=1e-12, zero=True, order=(0, 1), hidden=(6,)):
    return AutoregModel(
        nf_model(1, n_stages, sigma_q, seed=3, hidden=hidden, zero=zero),
        nf_model(2, n_stages, sigma_q, seed=4, hidden=hidden, zero=zero),
        order=order,
    )


def test_lv_stages_count_features_without_their_noise_inputs():
    def lv_model(in_dim, seed):
        return CdeModel.build(LVHead(n_noise=2, noise_dim=3), in_dim, (4,), seed, 0.1)

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
    # the chain order is fixed when the model is built: anything but a
    # permutation of the two target columns is refused there
    for order in [(0, 0), (1, 1), (0, 2)]:
        with pytest.raises(StructuralError, match="permutation"):
            autoreg(order=order)
    x = np.array([[0.0]])
    y = np.zeros((1, 2))
    rng = np.random.default_rng(0)
    joint_log_density(autoreg(), x, y, 1, rng)
    swapped = autoreg(order=(1, 0))
    assert swapped.chain_names == ("y2", "y1")
    joint_log_density(swapped, x, y, 1, rng)


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


def test_grid_validation():
    model = autoreg()
    g = np.linspace(-2, 2, 11)
    dens = density_grid(model, [0.0], g, g, rng=np.random.default_rng(0))
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


def test_an_observed_condition_takes_one_pass():
    # with no feature to marginalize there is nothing to average: one pass,
    # on the network draws joint_log_density takes at the same seed and mc
    model = autoreg(n_stages=2, sigma_q=0.3, zero=False)
    g1 = np.linspace(-1.5, 1.5, 9)
    g2 = np.linspace(-1.0, 2.0, 8)
    one, ten = (density_grid(model, [0.4], g1, g2, marginal_samples=m, mc=5,
                             rng=np.random.default_rng(6)) for m in (1, 10))
    assert np.array_equal(one, ten)
    nodes = np.array([(a, b) for a in g1 for b in g2])
    ll = joint_log_density(model, np.full((nodes.shape[0], 1), 0.4), nodes, 5,
                           np.random.default_rng(6))
    np.testing.assert_allclose(one, np.exp(ll).reshape(g1.size, g2.size), rtol=1e-12, atol=0)


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
    with pytest.raises(StructuralError, match="at least one point"):
        top_decile_coverage(dens, g, g, np.empty((0, 2)))


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


# -- fit_chain and sample_chain ---------------------------------------------------


def chain_data(n=60, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 1))
    y = np.column_stack([x[:, 0] + 0.3 * rng.standard_normal(n), rng.standard_normal(n)])
    return x, y


CHAIN_CFG = TrainConfig(iterations=3, mc_samples_train=2, seed=5)


def test_fit_chain_of_one_target_is_a_cde_model():
    x, y = chain_data()
    model, traces = fit_chain(lambda d, seed: nf_model(d, 1, seed=seed), x, y[:, :1], CHAIN_CFG,
                              order=(7, 7))
    assert isinstance(model, CdeModel) and len(traces) == 1 and len(traces[0]) == 3
    want = nf_model(1, 1, seed=5)
    assert train(want, x, y[:, 0], CHAIN_CFG) == traces[0]
    assert np.array_equal(want.trainable_vector(), model.trainable_vector())


def test_fit_chain_stage_k_uses_seed_plus_k_and_reads_targets_in_chain_order():
    x, y = chain_data()
    calls = []

    def make_stage(n_inputs, seed):
        calls.append((n_inputs, seed))
        return nf_model(n_inputs, 1, seed=seed)

    model, traces = fit_chain(make_stage, x, y, CHAIN_CFG, order=(1, 0), target_names=("a", "b"))
    assert calls == [(1, 5), (2, 6)]
    assert isinstance(model, AutoregModel)
    assert model.order == (1, 0) and model.target_names == ("a", "b")
    first, second = nf_model(1, 1, seed=5), nf_model(2, 1, seed=6)
    assert train(first, x, y[:, 1], CHAIN_CFG) == traces[0]
    cfg2 = TrainConfig(iterations=3, mc_samples_train=2, seed=6)
    assert train(second, np.column_stack([x, y[:, 1]]), y[:, 0], cfg2) == traces[1]
    assert np.array_equal(model.stage2.trainable_vector(), second.trainable_vector())


@pytest.mark.parametrize("order", [(0, 0), (0, 2), (1,)])
def test_fit_chain_refuses_a_bad_order_before_building_a_stage(order):
    x, y = chain_data()
    calls = []
    with pytest.raises(StructuralError, match="order"):
        fit_chain(lambda d, seed: calls.append(d), x, y, CHAIN_CFG, order=order)
    assert calls == []


def test_sample_chain_of_one_target_is_model_sample():
    model = nf_model(2, 2, seed=1)
    x_row = np.array([0.3, -1.2])
    got = sample_chain(model, x_row, 40, 3, np.random.default_rng(9))
    want = model_sample(model, x_row, 40, 3, np.random.default_rng(9))[:, None]
    assert got.shape == (40, 1) and np.array_equal(got, want)


def test_sample_chain_returns_columns_in_data_order():
    model = autoreg(n_stages=1, sigma_q=0.3, zero=False, order=(1, 0))
    x_row = np.array([0.4])
    got = sample_chain(model, x_row, 30, 4, np.random.default_rng(2))
    rng = np.random.default_rng(2)
    first = model_sample(model.stage1, x_row, 30, 4, rng)
    second = model_sample(model.stage2, np.column_stack([np.full(30, 0.4), first]), 30, 4, rng)
    assert np.array_equal(got, np.column_stack([second, first]))
