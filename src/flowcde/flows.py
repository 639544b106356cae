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

from dataclasses import dataclass

import numpy as np

from .errors import StructuralError
from .tape import expm1, log1p, softplus

__all__ = [
    "FlowStack",
    "constrain",
    "stage_forward",
    "stage_log_grad",
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


def stage_forward(z, alpha_hat, beta_hat, gamma):
    """Apply one radial stage to z."""
    return stage_apply(z, alpha_hat, beta_hat, gamma)[0]


def stage_log_grad(z, alpha_hat, beta_hat, gamma):
    """log f'(z) = log1p(beta * (alpha / (alpha + |z - gamma|))^2).

    The ratio form makes the value at z == gamma exactly beta_hat up to one
    rounding of log1p(expm1(.)).
    """
    alpha, beta = constrain(alpha_hat, beta_hat)
    r = alpha / (alpha + abs(z - gamma))
    return log1p(beta * r * r)


def stage_apply(z, alpha_hat, beta_hat, gamma):
    """(f(z), log f'(z)) sharing the constrained parameters and radius."""
    alpha, beta = constrain(alpha_hat, beta_hat)
    d = z - gamma
    denom = alpha + abs(d)
    r = alpha / denom
    return z + beta * r * d, log1p(beta * r * r)


def log_density_params(params, y):
    """Log density at y for one packed parameter vector.

    ``params`` is a flat sequence ``[ah_1, bh_1, g_1, ..., ah_K, bh_K, g_K, s]``
    of floats, or of same-shape arrays or tape Vars holding one stack per
    element (the training path passes column views of the network output).
    The observation is shifted by -s, pushed through stages K..1 (stage K
    touches it first), and scored under the unit normal base; stage
    log-derivatives accumulate along the way.
    """
    n = len(params)
    if n < 1 or (n - 1) % 3 != 0:
        raise StructuralError(f"packed flow vector has bad length {n}")
    k = (n - 1) // 3
    z = y - params[-1]
    total = -0.5 * LOG_2PI
    for i in range(k - 1, -1, -1):
        z, lg = stage_apply(z, params[3 * i], params[3 * i + 1], params[3 * i + 2])
        total = total + lg
    return total - 0.5 * z * z


def log_density_batch(theta, y):
    """Vectorised log density: theta (..., 3K+1) against y broadcastable.

    Rows of theta are independent packed stacks; the K-stage loop is the only
    Python-level iteration.
    """
    theta = np.asarray(theta, dtype=float)
    n = theta.shape[-1]
    if n < 1 or (n - 1) % 3 != 0:
        raise StructuralError(f"packed flow vectors have bad width {n}")
    k = (n - 1) // 3
    z = np.asarray(y, dtype=float) - theta[..., -1]
    total = np.zeros(np.broadcast_shapes(z.shape, theta.shape[:-1]))
    z = np.broadcast_to(z, total.shape).copy()
    for i in range(k - 1, -1, -1):
        alpha = np.logaddexp(0.0, theta[..., 3 * i])
        beta = np.expm1(theta[..., 3 * i + 1])
        d = z - theta[..., 3 * i + 2]
        denom = alpha + np.abs(d)
        r = alpha / denom
        total += np.log1p(beta * r * r)
        z += beta * r * d
    return total - 0.5 * (LOG_2PI + z * z)


@dataclass(frozen=True)
class FlowStack:
    """K radial stages plus an output shift, as plain arrays.

    K = 0 is legal and reduces to a unit normal centred at the shift.
    """

    alpha_hat: np.ndarray
    beta_hat: np.ndarray
    gamma: np.ndarray
    shift: float

    def __post_init__(self):
        for name in ("alpha_hat", "beta_hat", "gamma"):
            arr = np.atleast_1d(np.asarray(getattr(self, name), dtype=float))
            object.__setattr__(self, name, arr)
        k = self.alpha_hat.shape[0]
        if self.beta_hat.shape != (k,) or self.gamma.shape != (k,):
            raise StructuralError("stage parameter arrays must share one length")
        object.__setattr__(self, "shift", float(self.shift))
        if not (
            np.isfinite(self.alpha_hat).all()
            and np.isfinite(self.beta_hat).all()
            and np.isfinite(self.gamma).all()
            and np.isfinite(self.shift)
        ):
            raise StructuralError("flow parameters must be finite")

    @property
    def n_stages(self):
        return self.alpha_hat.shape[0]

    def to_vector(self):
        """Packed layout [ah_1, bh_1, g_1, ..., s], width 3K+1."""
        out = np.empty(3 * self.n_stages + 1)
        out[0:-1:3] = self.alpha_hat
        out[1:-1:3] = self.beta_hat
        out[2:-1:3] = self.gamma
        out[-1] = self.shift
        return out

    @classmethod
    def from_vector(cls, vec, n_stages=None):
        vec = np.asarray(vec, dtype=float)
        if vec.ndim != 1 or vec.shape[0] < 1 or (vec.shape[0] - 1) % 3 != 0:
            raise StructuralError(f"packed flow vector has bad shape {vec.shape}")
        if n_stages is not None and vec.shape[0] != 3 * n_stages + 1:
            raise StructuralError(
                f"expected {3 * n_stages + 1} packed values for {n_stages} stages, "
                f"got {vec.shape[0]}"
            )
        return cls(vec[0:-1:3], vec[1:-1:3], vec[2:-1:3], vec[-1])

    def to_line(self):
        """'K s ah_1 bh_1 g_1 ...' with full float round-trip precision."""
        parts = [str(self.n_stages), f"{self.shift:.17g}"]
        for i in range(self.n_stages):
            parts.append(f"{self.alpha_hat[i]:.17g}")
            parts.append(f"{self.beta_hat[i]:.17g}")
            parts.append(f"{self.gamma[i]:.17g}")
        return " ".join(parts)

    @classmethod
    def from_line(cls, line):
        parts = line.split()
        if not parts:
            raise StructuralError("empty flow line")
        try:
            k = int(parts[0])
            nums = [float(p) for p in parts[1:]]
        except ValueError as err:
            raise StructuralError(f"bad flow line: {err}") from None
        if k < 0 or len(nums) != 3 * k + 1:
            raise StructuralError(
                f"flow line declares {k} stages but carries {len(nums)} numbers"
            )
        vals = np.array(nums[1:]).reshape(k, 3)
        return cls(vals[:, 0], vals[:, 1], vals[:, 2], nums[0])

    def log_density(self, y):
        return log_density_batch(self.to_vector(), y)


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

    ``theta`` is a FlowStack, one packed vector (3K+1,) shared by every draw,
    or (n, 3K+1) packed vectors, one stack per draw.
    """
    if n < 1:
        raise StructuralError("need at least one sample")
    if isinstance(theta, FlowStack):
        theta = theta.to_vector()
    theta = np.asarray(theta, dtype=float)
    width = theta.shape[-1]
    if (width - 1) % 3 != 0 or theta.shape[:-1] not in ((), (n,)):
        raise StructuralError(f"packed flow vectors have bad shape {theta.shape}")
    z = rng.standard_normal(n)
    for i in range(width // 3):
        z = stage_inverse(z, theta[..., 3 * i], theta[..., 3 * i + 1], theta[..., 3 * i + 2])
    return z + theta[..., -1]
