"""Stacks of invertible radial transforms over a scalar variable.

One stage is ``f(z) = z + alpha * beta * (z - gamma) / (alpha + |z - gamma|)``
with ``alpha = softplus(alpha_hat) > 0`` and ``beta = exp(beta_hat) - 1 >= -1``,
which keeps ``f`` strictly increasing (its derivative has infimum
``1 + beta > 0`` at ``z = gamma``).  A stack composes K stages plus a final
output shift ``s``.

Densities run in the inverted direction: the observation is pulled back to a
standard normal base variable, so evaluating ``log p(y)`` needs no root
finding.  Sampling inverts each stage, and in 1D a stage has a closed-form
inverse: the root of a quadratic in |z - gamma| (see ``stage_inverse``).
The "no closed-form inverse" of radial flows (Rezende & Mohamed 2015,
arXiv:1505.05770) holds for D > 1 only.

The log-derivative of a stage at its centre equals ``beta_hat`` exactly,
which gives both a cheap test oracle and a direct reading of each stage's
maximum density distortion.

All math helpers here are generic: they accept floats, numpy arrays, or
:class:`~flowcde.tape.Var` tape arrays, so the training path records the
same expressions the evaluation path vectorises.  Each stage moves z by
``beta * r * d`` with ``r = alpha / (alpha + |d|) <= 1``, a term bounded by
``|beta| * alpha``, so targets out to the largest float give a finite
density or -inf, never NaN.
"""

from __future__ import annotations

import numpy as np

from .errors import StructuralError
from .tape import expm1, log1p, softplus

__all__ = [
    "constrain",
    "stage_apply",
    "log_density_params",
    "log_density_batch",
    "stage_inverse",
    "sample",
]

LOG_2PI = 1.8378770664093453


def constrain(alpha_hat, beta_hat):
    """Map unconstrained stage parameters to (alpha > 0, beta >= -1)."""
    return softplus(alpha_hat), expm1(beta_hat)


def stage_apply(z, alpha_hat, beta_hat, gamma):
    """(f(z), log f'(z)) sharing the constrained parameters and radius.

    log f'(z) = log1p(beta * r^2) with r = alpha / (alpha + |z - gamma|); the
    ratio form makes its value at z == gamma exactly beta_hat up to one
    rounding of log1p(expm1(.)).
    """
    alpha, beta = constrain(alpha_hat, beta_hat)
    d = z - gamma
    r = alpha / (alpha + abs(d))
    br = beta * r
    return z + br * d, log1p(br * r)


def log_density_params(params, y):
    """Log density at y for one packed parameter vector: the flow density.

    ``params`` is a flat sequence ``[ah_1, bh_1, g_1, ..., ah_K, bh_K, g_K, s]``
    of floats, or of same-shape arrays or tape Vars holding one stack per
    element (``log_density_batch`` and the flow head pass column views).
    The observation is shifted by -s, pushed through stages K..1 (stage K
    touches it first), and scored under the unit normal base.  Stage
    log-derivatives accumulate from zero, in place on arrays (every stage
    yields the same shape) and as new nodes on a tape, so arrays and Vars
    give the same value bit for bit.
    """
    n = len(params)
    if n < 1 or (n - 1) % 3 != 0:
        raise StructuralError(f"packed flow vector has bad length {n}")
    k = (n - 1) // 3
    z = y - params[-1]
    total = 0.0
    for i in range(k - 1, -1, -1):
        z, lg = stage_apply(z, params[3 * i], params[3 * i + 1], params[3 * i + 2])
        total += lg
    with np.errstate(over="ignore"):  # a far-out target: z * z = inf, density -inf
        return total - 0.5 * (LOG_2PI + z * z)


def log_density_batch(theta, y):
    """Vectorised log density: theta (..., 3K+1) against y broadcastable.

    Rows of theta are independent packed stacks; this adapts the packed
    layout to ``log_density_params`` through the column views theta[..., j].
    """
    theta = np.asarray(theta, dtype=float)
    columns = [theta[..., j] for j in range(theta.shape[-1])]
    return log_density_params(columns, np.asarray(y, dtype=float))


def stage_inverse(t, alpha_hat, beta_hat, gamma):
    """Solve f(z) = t for one stage in closed form; broadcasts.

    With u = t - gamma, z = gamma + sign(u) * r, where r >= 0 is the root of
    r^2 + c r - alpha |u| = 0 and c = alpha (1 + beta) - |u|.  Each branch
    picks the form without cancellation, and hypot keeps |t| near 1e200
    finite.
    """
    alpha, beta = constrain(alpha_hat, beta_hat)
    u = np.asarray(t, dtype=float) - gamma
    a = np.abs(u)
    c = alpha * (1.0 + beta) - a
    h = np.hypot(c, 2.0 * np.sqrt(alpha * a))
    pos = c > 0
    r = np.where(pos, 2.0 * alpha * a, 0.5 * (h - c)) / np.where(pos, c + h, 1.0)
    return gamma + np.copysign(r, u)


def sample(theta, n, rng):
    """Draw n samples: unit-normal base variables pushed through the
    inverse stages (stage 1 first) and shifted by s.

    ``theta`` is one packed vector (3K+1,) shared by every draw, or
    (n, 3K+1) packed vectors, one stack per draw.
    """
    if n < 1:
        raise StructuralError("need at least one sample")
    theta = np.asarray(theta, dtype=float)
    width = theta.shape[-1]
    if (width - 1) % 3 != 0 or theta.shape[:-1] not in ((), (n,)):
        raise StructuralError(f"packed flow vectors have bad shape {theta.shape}")
    z = rng.standard_normal(n)
    for i in range(width // 3):
        z = stage_inverse(z, theta[..., 3 * i], theta[..., 3 * i + 1], theta[..., 3 * i + 2])
    return z + theta[..., -1]
