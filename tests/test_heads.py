"""Likelihood heads: densities, sampling, and tape/numpy agreement."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowcde.errors import ConfigError, StructuralError
from flowcde.heads import GaussHead, LVHead, MDNHead, NFHead, logsumexp, make_head
from flowcde.tape import Tape, Var, grad_check

INV_SP1 = math.log(math.expm1(1.0))  # softplus -> 1


def head_scalar_fn(head, mc, n_rows, y):
    """Sum of all per-datum log densities, callable on an array or a Var.

    Layout: mc*n_rows*output_dim omega values, then the head extras.
    """
    p = head.output_dim
    n_omega = mc * n_rows * p

    def f(v):
        omega = v[:n_omega].reshape(mc, n_rows, p)
        if isinstance(v, Var):
            return head.log_density_rows_tape(v.tape, omega, y, v[n_omega:]).sum()
        return head.log_density_rows_np(omega, y, v[n_omega:]).sum()

    return f


def test_make_head_dispatch():
    assert make_head("nf", n_stages=3).output_dim == 10
    assert make_head("mdn", n_components=4).output_dim == 13
    assert make_head("lv").output_dim == 1
    assert make_head("gauss").output_dim == 1
    with pytest.raises(ConfigError):
        make_head("tree")


def test_head_constructor_validation():
    with pytest.raises(StructuralError):
        NFHead(-1)
    with pytest.raises(StructuralError):
        MDNHead(0)
    with pytest.raises(StructuralError):
        LVHead(0)


def test_nf_head_zero_stages_is_gaussian():
    head = NFHead(0)
    omega = np.zeros((1, 1, 1))
    ld = head.log_density_rows_np(omega, np.array([0.0]), np.empty(0))
    assert ld[0, 0] == pytest.approx(-0.9189385332046727, abs=1e-15)


def test_nf_group_map_partitions():
    head = NFHead(2)
    gm = head.group_map()
    assert gm == {
        "alpha_hat": (0, 3),
        "beta_hat": (1, 4),
        "gamma": (2, 5),
        "shift": (6,),
    }


def test_mdn_single_component_standard_normal():
    head = MDNHead(1)
    omega = np.array([[[0.0, INV_SP1, 0.7]]])  # mu, sigma_hat, logit
    omega = np.concatenate([omega, np.zeros((1, 1, 1))], axis=-1)  # s = 0
    ld = head.log_density_rows_np(omega, np.array([0.0]), np.empty(0))
    assert ld[0, 0] == pytest.approx(-0.9189385332046727, abs=1e-12)


def test_mdn_equal_logits_uniform_weights():
    # shifting every logit by a constant leaves the density unchanged,
    # and equal logits weight each component 1/C
    head = MDNHead(4)
    rng = np.random.default_rng(0)
    mu = rng.normal(size=4)
    base = np.concatenate(
        [np.stack([mu, np.full(4, INV_SP1), np.zeros(4)], axis=1).ravel(), [0.0]]
    )
    y = np.array([0.3])
    ld = head.log_density_rows_np(base[None, None, :], y, np.empty(0))
    dens = sum(0.25 * np.exp(-0.5 * (0.3 - m) ** 2) / np.sqrt(2 * np.pi) for m in mu)
    assert ld[0, 0] == pytest.approx(np.log(dens), rel=1e-12)
    shifted = base.copy()
    shifted[2:-1:3] += 5.0
    ld2 = head.log_density_rows_np(shifted[None, None, :], y, np.empty(0))
    assert ld2[0, 0] == pytest.approx(ld[0, 0], rel=1e-12)


def test_mdn_shift_equivariance_exact():
    head = MDNHead(3)
    rng = np.random.default_rng(1)
    omega = rng.normal(size=10)
    omega[-1] = 1.3
    y = np.array([0.9])
    with_s = head.log_density_rows_np(omega[None, None, :], y, np.empty(0))
    zeroed = omega.copy()
    zeroed[-1] = 0.0
    shifted_y = np.array([0.9 - 1.3])
    without = head.log_density_rows_np(zeroed[None, None, :], shifted_y, np.empty(0))
    assert with_s[0, 0] == without[0, 0]


def test_mdn_quadrature_mass():
    head = MDNHead(3)
    rng = np.random.default_rng(7)
    for _ in range(5):
        omega = np.concatenate(
            [
                np.stack(
                    [rng.normal(0, 2, 3), rng.normal(0, 1, 3), rng.normal(0, 1, 3)],
                    axis=1,
                ).ravel(),
                rng.normal(0, 1, 1),
            ]
        )
        sig_max = np.logaddexp(0.0, omega[1:-1:3]).max()
        centers = omega[0:-1:3] + omega[-1]
        grid = np.linspace(centers.min() - 30 * sig_max, centers.max() + 30 * sig_max, 200_001)
        ld = head.log_density_rows_np(
            np.broadcast_to(omega, (1, grid.size, 10)), grid, np.empty(0)
        )
        mass = np.trapezoid(np.exp(ld[0]), grid)
        assert mass == pytest.approx(1.0, abs=1e-3)


def test_mdn_sampling_matches_density():
    head = MDNHead(2)
    omega = np.array([-2.0, INV_SP1, 0.4, 2.0, INV_SP1, -0.4, 0.5])
    rng = np.random.default_rng(3)
    draws = head.sample_np(np.broadcast_to(omega, (40_000, 1, 7)), np.empty(0), 40_000, rng)
    grid = np.linspace(-40, 40, 400_001)
    dens = np.exp(
        head.log_density_rows_np(np.broadcast_to(omega, (1, grid.size, 7)), grid, np.empty(0))[0]
    )
    h = grid[1] - grid[0]
    cdf_grid = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) * 0.5 * h)])
    cdf_grid /= cdf_grid[-1]
    draws = np.sort(draws)
    cdf = np.interp(draws, grid, cdf_grid)
    n = draws.size
    d_stat = max(
        np.max(np.abs(np.arange(1, n + 1) / n - cdf)),
        np.max(np.abs(cdf - np.arange(0, n) / n)),
    )
    assert d_stat < 0.02


def test_lv_ignoring_noise_collapses_to_gaussian():
    head = LVHead(n_noise=7)
    mean = 0.42
    omega = np.full((3, 7, 1), mean)  # same mean every noise draw
    extras = np.array([INV_SP1])
    ld = head.log_density_rows_np(omega, np.array([1.0]), extras)
    want = -0.5 * math.log(2 * math.pi) - 0.5 * (1.0 - mean) ** 2
    assert np.allclose(ld, want, rtol=1e-15)


def test_lv_single_noise_draw_is_gaussian():
    head = LVHead(n_noise=1)
    omega = np.array([[[0.3]]])
    extras = np.array([math.log(math.expm1(0.5))])  # sigma_out = 0.5
    ld = head.log_density_rows_np(omega, np.array([0.2]), extras)
    want = -0.5 * math.log(2 * math.pi * 0.25) - 0.5 * (0.1 / 0.5) ** 2
    assert ld[0, 0] == pytest.approx(want, rel=1e-12)


def test_lv_identity_net_approximates_base_density():
    # means = z_j ~ N(0,1), small sigma_out: the mixture approximates N(0,1);
    # the MC average of p(0) should sit within 3 SE of N(0|0,1+sigma^2)
    k = 10_000
    head = LVHead(n_noise=k)
    rng = np.random.default_rng(11)
    z = rng.standard_normal((1, k, 1))
    sigma = 0.05
    extras = np.array([math.log(math.expm1(sigma))])
    comp = np.exp(-0.5 * (z[0, :, 0] / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))
    se = comp.std(ddof=1) / math.sqrt(k)
    target = math.exp(-0.5 * math.log(2 * math.pi * (1 + sigma**2)))
    ld = head.log_density_rows_np(z, np.array([0.0]), extras)
    assert abs(math.exp(ld[0, 0]) - target) < 3 * se
    assert ld[0, 0] == pytest.approx(-0.919, abs=0.05)


def test_lv_estimator_variance_decreases_with_k():
    rng = np.random.default_rng(5)
    variances = []
    for k in (1, 5, 15, 100):
        head = LVHead(n_noise=k)
        extras = np.array([INV_SP1])
        estimates = [
            float(
                head.log_density_rows_np(
                    rng.standard_normal((1, k, 1)), np.array([0.5]), extras
                )[0, 0]
            )
            for _ in range(400)
        ]
        variances.append(np.var(estimates))
    assert variances == sorted(variances, reverse=True)


def test_lv_prepare_inputs_layout():
    head = LVHead(n_noise=3, noise_dim=2)
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    rows, per = head.prepare_inputs(x, np.random.default_rng(0))
    assert per == 3
    assert rows.shape == (6, 4)
    assert np.array_equal(rows[:3, :2], np.tile(x[0], (3, 1)))
    assert np.array_equal(rows[3:, :2], np.tile(x[1], (3, 1)))
    z = rows[:, 2:]
    assert np.unique(z, axis=0).shape[0] == 6  # fresh noise everywhere


def test_gauss_head_density():
    head = GaussHead()
    extras = np.array([math.log(math.expm1(2.0))])
    omega = np.array([[[1.0]]])
    ld = head.log_density_rows_np(omega, np.array([0.0]), extras)
    want = -0.5 * math.log(2 * math.pi * 4.0) - 0.5 * (1.0 / 2.0) ** 2
    assert ld[0, 0] == pytest.approx(want, rel=1e-14)


def test_gauss_sampling_moments():
    head = GaussHead()
    extras = np.array([math.log(math.expm1(0.7))])
    omega = np.full((200_000, 1, 1), 2.0)
    draws = head.sample_np(omega, extras, 200_000, np.random.default_rng(0))
    assert draws.mean() == pytest.approx(2.0, abs=0.01)
    assert draws.std() == pytest.approx(0.7, abs=0.01)


@pytest.mark.parametrize(
    "head,n_rows",
    [
        (NFHead(2), 3),
        (NFHead(0), 2),
        (MDNHead(3), 3),
        (LVHead(n_noise=4), 8),  # 2 data x 4 noise rows
        (GaussHead(), 3),
    ],
)
def test_tape_rows_match_numpy_rows(head, n_rows):
    rng = np.random.default_rng(13)
    mc = 2
    n_data = n_rows // (head.n_noise if isinstance(head, LVHead) else 1)
    omega = rng.normal(size=(mc, n_rows, head.output_dim))
    y = rng.normal(size=n_data)
    extras = head.init_extras()
    want = head.log_density_rows_np(omega, y, extras)
    tape = Tape()
    got = head.log_density_rows_tape(
        tape, Var(tape, tape.leaf(omega)), y, Var(tape, tape.leaf(extras))
    )
    assert got.shape == want.shape
    assert np.allclose(got.value, want, rtol=1e-12, atol=1e-13)


@pytest.mark.parametrize(
    "head,n_rows",
    [
        (NFHead(2), 2),
        (MDNHead(2), 2),
        (LVHead(n_noise=3), 3),
        (GaussHead(), 2),
    ],
)
def test_head_gradients_match_finite_differences(head, n_rows):
    rng = np.random.default_rng(29)
    mc = 1
    n_data = n_rows // (head.n_noise if isinstance(head, LVHead) else 1)
    y = rng.normal(size=n_data)
    point = list(rng.normal(size=mc * n_rows * head.output_dim)) + list(head.init_extras())
    f = head_scalar_fn(head, mc, n_rows, y)
    assert grad_check(f, point, step=1e-6) < 1e-6


@pytest.mark.parametrize("head,extra_inputs", [
    (NFHead(0), 0), (NFHead(3), 0), (MDNHead(4), 0),
    (LVHead(n_noise=2, noise_dim=3), 3), (GaussHead(), 0),
])
def test_settings_rebuild_an_equal_head(head, extra_inputs):
    back = make_head(head.name, **head.settings())
    assert type(back) is type(head) and vars(back) == vars(head)
    assert back.extra_input_dim == extra_inputs


def test_logsumexp_all_minus_inf_is_minus_inf():
    v = np.array([[-np.inf, -np.inf], [0.0, -np.inf], [1.0, 2.0]])
    got = logsumexp(v)
    assert got[0] == -np.inf
    assert got[1] == 0.0
    assert got[2] == pytest.approx(2.0 + math.log1p(math.exp(-1.0)), rel=1e-15)
    assert logsumexp(v, axis=0, mean=True)[1] == pytest.approx(2.0 - math.log(3.0), rel=1e-15)


FLOAT_MAX = np.finfo(float).max

extreme_targets = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([1e200, -1e200, 1e300, -1e300, 1e-300, FLOAT_MAX, -FLOAT_MAX]),
)


@settings(max_examples=40, deadline=None)
@given(
    head=st.sampled_from([NFHead(2), NFHead(0), MDNHead(3), LVHead(n_noise=3), GaussHead()]),
    y=st.lists(extreme_targets, min_size=1, max_size=4),
    seed=st.integers(0, 999),
)
def test_log_density_at_extreme_targets_is_never_nan(head, y, seed):
    rng = np.random.default_rng(seed)
    y = np.array(y)
    per = head.n_noise if isinstance(head, LVHead) else 1
    omega = rng.normal(0.0, 2.0, size=(2, y.size * per, head.output_dim))
    extras = head.init_extras() + rng.normal(size=head.n_extras)
    ld = head.log_density_rows_np(omega, y, extras)
    curve = head.curve_log_density(omega[0, :per], extras, y)
    for out in (ld, curve):
        assert not np.isnan(out).any()
        assert (np.isfinite(out) | (out == -np.inf)).all()
