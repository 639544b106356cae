"""Radial stage math, stack densities, and closed-form inversion.

Reference log-density values were frozen from a 40-digit mpmath evaluation
of the same closed forms; normalisation and sampling checks use trapezoid
quadrature of exp(log_density) as the oracle.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowcde.errors import StructuralError
from flowcde.flows import (
    constrain,
    log_density_batch,
    log_density_params,
    sample,
    stage_apply,
    stage_inverse,
)
from flowcde.tape import Tape, Var, grad_check

finite_param = st.floats(-6.0, 6.0)


def pack(alpha_hat, beta_hat, gamma, shift):
    """One stack in the packed layout [ah_1, bh_1, g_1, ..., ah_K, bh_K, g_K, s]."""
    return np.append(np.column_stack([alpha_hat, beta_hat, gamma]).ravel(), shift)


def quadrature_mass(stack, half_width=30.0, n_points=200_001):
    grid = np.linspace(stack[-1] - half_width, stack[-1] + half_width, n_points)
    dens = np.exp(log_density_batch(stack, grid))
    return np.trapezoid(dens, grid)


def quadrature_cdf(stack, grid):
    dens = np.exp(log_density_batch(stack, grid))
    h = grid[1] - grid[0]
    cum = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) * 0.5 * h)])
    return cum / cum[-1]


def random_stack(rng, k):
    return pack(
        alpha_hat=rng.normal(1.0, 1.0, size=k),
        beta_hat=rng.normal(0.0, 1.0, size=k),
        gamma=rng.normal(0.0, 1.0, size=k),
        shift=rng.normal(0.0, 1.0),
    )


def test_constrain_ranges():
    ah = np.array([-8.0, 0.0, 3.0])
    bh = np.array([-9.0, 0.0, 2.0])
    alpha, beta = constrain(ah, bh)
    assert (alpha > 0).all()
    assert (beta >= -1).all()
    assert beta[1] == 0.0
    assert alpha[1] == pytest.approx(math.log(2.0), rel=1e-15)


def test_zero_beta_is_identity():
    z = np.linspace(-4, 4, 41)
    out = stage_apply(z, 0.7, 0.0, 0.3)[0]
    assert np.allclose(out, z, atol=0.0)
    assert np.allclose(stage_apply(z, 0.7, 0.0, 0.3)[1], 0.0, atol=0.0)


def test_log_grad_at_centre_equals_beta_hat():
    rng = np.random.default_rng(7)
    bh = rng.normal(0.0, 2.0, size=1000)
    ah = rng.normal(1.0, 1.0, size=1000)
    g = rng.normal(0.0, 3.0, size=1000)
    got = stage_apply(g, ah, bh, g)[1]
    assert np.max(np.abs(got - bh)) < 1e-12


def test_stage_apply_matches_separate_calls():
    # each half against its closed form from the module docstring
    z = np.linspace(-3, 3, 17)
    z2, lg = stage_apply(z, 0.4, -0.9, 0.8)
    alpha, beta = math.log1p(math.exp(0.4)), math.expm1(-0.9)
    r = alpha / (alpha + np.abs(z - 0.8))
    assert np.allclose(z2, z + alpha * beta * (z - 0.8) / (alpha + np.abs(z - 0.8)), rtol=1e-15)
    assert np.allclose(lg, np.log1p(beta * r * r), rtol=1e-15)


def test_log_density_frozen_references():
    one = [0.5, 0.8, 0.3, 0.1]
    assert log_density_params(one, 1.2) == pytest.approx(
        -1.9465631442365149, abs=1e-14
    )
    three = [0.2, -0.6, 0.4, 1.1, 0.9, -0.8, -0.3, 0.25, 1.5, -0.7]
    assert log_density_params(three, 0.55) == pytest.approx(
        -2.9000358505521192, abs=1e-14
    )


def test_identity_stack_is_shifted_normal():
    # beta_hat = 0 throughout: density is N(y - s | 0, 1)
    ld = log_density_params([-30.0, 0.0, 0.0, 2.0], 2.0)
    assert ld == pytest.approx(-0.9189385332046727, abs=1e-15)
    grid = np.linspace(-3, 7, 101)
    want = -0.5 * (np.log(2 * np.pi) + (grid - 2.0) ** 2)
    assert np.allclose(log_density_batch([0.5, 0.0, 1.0, 2.0], grid), want, atol=1e-14)


def test_batch_matches_scalar_path():
    rng = np.random.default_rng(3)
    theta = rng.normal(size=(5, 10))
    ys = rng.normal(size=5)
    batch = log_density_batch(theta, ys)
    for r in range(5):
        assert batch[r] == pytest.approx(
            float(log_density_params(list(theta[r]), ys[r])), rel=1e-14
        )


def test_batch_broadcasting_shapes():
    rng = np.random.default_rng(4)
    theta = rng.normal(size=(6, 1, 7))
    y = np.linspace(-2, 2, 9)
    out = log_density_batch(theta, y)
    assert out.shape == (6, 9)
    assert np.isfinite(out).all()


def test_bad_packed_widths_rejected():
    with pytest.raises(StructuralError):
        log_density_params([1.0, 2.0, 3.0], 0.0)
    with pytest.raises(StructuralError):
        log_density_batch(np.zeros((3, 6)), 0.0)
    with pytest.raises(StructuralError):
        sample(np.zeros(9), 1, np.random.default_rng(0))


@pytest.mark.parametrize("k", [1, 2, 5])
def test_density_integrates_to_one(k):
    rng = np.random.default_rng(100 + k)
    for _ in range(3):
        stack = random_stack(rng, k)
        assert quadrature_mass(stack) == pytest.approx(1.0, abs=1e-6)


def test_tape_gradient_of_log_density():
    theta = [0.2, -0.6, 0.4, 1.1, 0.9, -0.8, -0.3, 0.25, 1.5, -0.7]

    def f(v):
        return log_density_params(v[:-1], v[-1])

    assert grad_check(f, theta + [0.55], step=1e-6) < 1e-7


def test_tape_value_matches_numpy_value():
    theta = [0.5, 0.8, 0.3, 0.1]
    for y in np.linspace(-3.0, 3.0, 13):
        t = Tape()
        params = [Var(t, t.leaf(p)) for p in theta]
        out = log_density_params(params, Var(t, t.leaf(y)))
        assert float(out) == float(log_density_batch(theta, y))


def test_invert_stage_round_trip():
    val = stage_apply(0.9, 0.5, 0.8, 0.3)[0]
    assert val == pytest.approx(1.3550366558737404, rel=1e-15)
    back = stage_inverse(val, 0.5, 0.8, 0.3)
    assert back == pytest.approx(0.9, abs=1e-12)


@pytest.mark.parametrize("bh", [0.8, -2.0, -40.0])  # -40: beta rounds to -1
def test_invert_stage_extremes(bh):
    ah, g = 0.5, 0.3
    assert stage_inverse(g, ah, bh, g) == g
    for t in (1e200, -1e200):
        z = stage_inverse(t, ah, bh, g)
        assert np.isfinite(z) and z == pytest.approx(t, rel=1e-15)
    for z in (-2.0, 0.29, 0.8, 7.0):
        t = stage_apply(z, ah, bh, g)[0]
        assert stage_inverse(t, ah, bh, g) == pytest.approx(z, abs=1e-12)


def test_sample_broadcasts_one_stack_per_draw():
    rng = np.random.default_rng(8)
    stacks = [random_stack(rng, 3) for _ in range(2)]
    theta = np.stack([stacks[i % 2] for i in range(6)])
    got = sample(theta, 6, np.random.default_rng(1))
    for i, stack in enumerate(stacks):
        want = sample(stack, 6, np.random.default_rng(1))
        assert np.array_equal(got[i::2], want[i::2])
    with pytest.raises(StructuralError):
        sample(theta, 5, np.random.default_rng(1))


def test_sample_shapes_and_determinism():
    stack = pack([0.2, 1.1], [0.5, -0.4], [0.0, 0.7], 1.5)
    a = sample(stack, 64, np.random.default_rng(11))
    b = sample(stack, 64, np.random.default_rng(11))
    assert a.shape == (64,)
    assert np.array_equal(a, b)
    with pytest.raises(StructuralError):
        sample(stack, 0, np.random.default_rng(0))


def test_samples_match_density_by_ks():
    rng = np.random.default_rng(42)
    stack = random_stack(rng, 3)
    draws = np.sort(sample(stack, 20_000, rng))
    grid = np.linspace(stack[-1] - 30.0, stack[-1] + 30.0, 200_001)
    cdf = np.interp(draws, grid, quadrature_cdf(stack, grid))
    n = draws.size
    ecdf_hi = np.arange(1, n + 1) / n
    ecdf_lo = np.arange(0, n) / n
    d_stat = max(np.max(np.abs(ecdf_hi - cdf)), np.max(np.abs(cdf - ecdf_lo)))
    assert d_stat < 0.02


def test_identity_stack_samples_are_shifted_base():
    # beta = 0 stages leave the base draws untouched apart from the shift
    stack = pack([0.3, -1.0], [0.0, 0.0], [0.4, -0.2], 3.0)
    rng = np.random.default_rng(5)
    got = sample(stack, 100, rng)
    want = np.random.default_rng(5).standard_normal(100) + 3.0
    assert np.allclose(got, want, atol=1e-11)


def test_zero_stage_stack_is_pure_shift():
    stack = pack(np.empty(0), np.empty(0), np.empty(0), 1.5)
    assert stack.tolist() == [1.5]
    assert log_density_batch(stack, 1.5) == pytest.approx(-0.9189385332046727, abs=1e-15)
    draws = sample(stack, 50, np.random.default_rng(2))
    base = np.random.default_rng(2).standard_normal(50)
    assert np.array_equal(draws, base + 1.5)


def test_tape_stage_derivative_matches_log_grad():
    # d f / dz on the tape agrees with exp(log f'), both from stage_apply
    rng = np.random.default_rng(21)
    for _ in range(25):
        ah, bh, g = rng.normal(size=3)
        z0 = rng.normal() * 3.0
        if abs(z0 - g) < 1e-6:
            continue
        t = Tape()
        z = Var(t, t.leaf(z0))
        out = stage_apply(z, ah, bh, g)[0]
        dz = t.backward(out.id)[z.id]
        want = np.exp(stage_apply(z0, ah, bh, g)[1])
        assert dz == pytest.approx(want, rel=1e-10)


@settings(max_examples=120, deadline=None)
@given(finite_param, finite_param, finite_param, finite_param, finite_param)
def test_stage_forward_strictly_increasing(ah, bh, g, z1, z2):
    if abs(z1 - z2) < 1e-9:
        return
    lo, hi = sorted((z1, z2))
    assert stage_apply(lo, ah, bh, g)[0] < stage_apply(hi, ah, bh, g)[0]


@settings(max_examples=80, deadline=None)
@given(finite_param, finite_param, finite_param, st.floats(-8.0, 8.0))
def test_round_trip_property(ah, bh, g, z):
    t = stage_apply(z, ah, bh, g)[0]
    assert stage_inverse(t, ah, bh, g) == pytest.approx(z, abs=1e-10)


@settings(max_examples=80, deadline=None)
@given(finite_param, finite_param, finite_param, st.floats(-8.0, 8.0))
def test_log_grad_matches_finite_difference(ah, bh, g, z):
    if abs(z - g) < 1e-3:
        return  # kink of |.| breaks the symmetric difference
    h = 1e-6
    fd = (stage_apply(z + h, ah, bh, g)[0] - stage_apply(z - h, ah, bh, g)[0]) / (2 * h)
    assert math.log(fd) == pytest.approx(
        float(stage_apply(z, ah, bh, g)[1]), abs=1e-4
    )
