"""Likelihood heads turning network outputs into conditional densities.

Every head exposes the same duck-typed surface, so no module outside this
one branches on a head's name or type:

- ``output_dim``: how many network outputs the head consumes per datum;
- ``group_map()`` / ``default_prior(sigma_w, lambda_, sigma_beta)``: the
  head's own named partition of its outputs and its PriorConfig over them;
- ``n_extras`` / ``init_extras()``: trainable scalars owned by the head
  itself (the latent-variable and Gaussian heads carry a global observation
  noise parameter);
- ``extra_input_dim``: network inputs the head adds to each feature row;
- ``rows_per_datum``: network rows ``prepare_inputs`` makes per datum;
- ``settings()``: the ``make_head`` keyword arguments that rebuild the head;
- ``prepare_inputs(x, rng)``: feature rows to push through the network
  (the latent-variable head appends fresh noise columns and replicates each
  datum once per noise sample);
- ``log_density_rows_np(omega, y, extras)``: the one NumPy density, on
  network outputs omega (mc, B * rows_per_datum, outputs).  Targets y (B,)
  give (mc, B) log densities; a grid y (B, G) gives (mc, B, G);
- ``log_density_rows_tape(tape, omega, y, extras)``: the same density
  recorded on a tape from Vars (omega (mc, rows, outputs), extras
  (n_extras,)) against targets y (B,); returns a (mc, B) Var.  Each head
  runs one ``_log_density`` expression on arrays or Vars, so both paths
  give the same value bit for bit (the flow head's is
  ``flows.log_density_params`` on column views of omega);
- ``curve_log_density(omega_rows, extras, y_grid)``: one datum's (G,) curve,
  a one-line call into ``log_density_rows_np``.  Each class keeps it in its
  own ``__dict__`` because ``perfbench`` looks it up there by name;
- ``sample_np(omega, extras, n, rng)``: n draws, one per output block.
  ``omega`` has shape (n, rows_per_datum, outputs): block i holds the
  network outputs (one network draw) of the datum that draw i conditions
  on, so each draw may see its own condition and its own network draw.

Heads:

- ``NFHead(K)``: K-stage radial flow, 3K+1 outputs; K=0 degenerates to a
  unit-variance Gaussian at the shift output.
- ``MDNHead(C)``: mixture of C Gaussians with a global offset s, 3C+1
  outputs [mu_c, sigma_hat_c, logit_c]*C + [s]; sigma through softplus,
  weights through softmax.
- ``LVHead(n_noise, noise_dim)``: the network sees [x, z] with z standard
  normal, outputs one mean; the density is the noise-mixture
  (1/K) sum_j N(y | mean_j, sigma_out^2) with a learned global sigma_out.
- ``GaussHead()``: homoscedastic Gaussian, one mean output and a learned
  global sigma_out (the mean-field baseline).

The observation-noise parameters of LVHead/GaussHead are learned point
estimates with no prior (they sit outside the weight posterior).
"""

from __future__ import annotations

import math

import numpy as np

from .bnn import GroupPrior, PriorConfig
from .errors import ConfigError, StructuralError
from .flows import LOG_2PI, log_density_params, sample
from .tape import log, logsumexp, softplus, square

__all__ = ["NFHead", "MDNHead", "LVHead", "GaussHead", "make_head", "logsumexp"]

_INV_SOFTPLUS_1 = math.log(math.expm1(1.0))  # softplus(x) = 1


def _interleaved(names, k):
    """Output groups of k interleaved triples, one index of each per name,
    then a final shift output at index 3k."""
    groups = {name: tuple(range(j, 3 * k, 3)) for j, name in enumerate(names)}
    groups["shift"] = (3 * k,)
    return groups


def _per_target(a, y):
    """Insert one axis after the (mc, B) axes of ``a`` per grid axis of y."""
    return a.reshape(a.shape[:2] + (1,) * (np.ndim(y) - 1) + a.shape[2:])


class NFHead:
    """Radial-flow head: network outputs are the packed stack parameters."""

    name = "nf"
    n_extras = 0
    extra_input_dim = 0
    rows_per_datum = 1

    def __init__(self, n_stages):
        if n_stages < 0:
            raise StructuralError("n_stages must be >= 0")
        self.n_stages = int(n_stages)
        self.output_dim = 3 * self.n_stages + 1

    def settings(self):
        return {"n_stages": self.n_stages}

    def group_map(self):
        return _interleaved(("alpha_hat", "beta_hat", "gamma"), self.n_stages)

    def default_prior(self, sigma_w=1.0, lambda_=1.0, sigma_beta=1.0):
        """sigma_beta, the beta_hat std, sets how far from Gaussian a draw bends."""
        unit = GroupPrior(0.0, 1.0)
        groups = {"alpha_hat": GroupPrior(1.0, 1.0), "beta_hat": GroupPrior(0.0, sigma_beta),
                  "gamma": unit, "shift": unit}
        return PriorConfig(sigma_w, lambda_, groups)

    def init_extras(self):
        return np.empty(0)

    def prepare_inputs(self, x, rng):
        return np.asarray(x, dtype=float), 1

    def log_density_rows_np(self, omega, y, extras):
        return self._log_density(np.asarray(omega, dtype=float), y)

    def log_density_rows_tape(self, tape, omega, y, extras):
        return self._log_density(omega, y)

    def _log_density(self, omega, y):
        theta = _per_target(omega, y)
        columns = [theta[..., j] for j in range(self.output_dim)]
        return log_density_params(columns, np.asarray(y, dtype=float))

    def curve_log_density(self, omega_rows, extras, y_grid):
        return self.log_density_rows_np(omega_rows[None], np.asarray(y_grid)[None], extras)[0, 0]

    def sample_np(self, omega, extras, n, rng):
        return sample(omega[:, 0], n, rng)


class MDNHead:
    """Mixture-of-Gaussians head with a global offset."""

    name = "mdn"
    n_extras = 0
    extra_input_dim = 0
    rows_per_datum = 1

    def __init__(self, n_components):
        if n_components < 1:
            raise StructuralError("n_components must be >= 1")
        self.n_components = int(n_components)
        self.output_dim = 3 * self.n_components + 1

    def settings(self):
        return {"n_components": self.n_components}

    def group_map(self):
        return _interleaved(("mu", "sigma_hat", "logit"), self.n_components)

    def default_prior(self, sigma_w=1.0, lambda_=1.0, sigma_beta=1.0):
        return PriorConfig(sigma_w, lambda_, dict.fromkeys(self.group_map(), GroupPrior(0.0, 1.0)))

    def init_extras(self):
        return np.empty(0)

    def prepare_inputs(self, x, rng):
        return np.asarray(x, dtype=float), 1

    def _split(self, omega):
        return (
            omega[..., 0:-1:3],
            omega[..., 1:-1:3],
            omega[..., 2:-1:3],
            omega[..., -1:],
        )

    def log_density_rows_np(self, omega, y, extras):
        return self._log_density(np.asarray(omega, dtype=float), y)

    def log_density_rows_tape(self, tape, omega, y, extras):
        return self._log_density(omega, y)

    def _log_density(self, omega, y):
        mu, sig_hat, logit, s = self._split(_per_target(omega, y))
        sigma = softplus(sig_hat)
        y = np.asarray(y, dtype=float)[..., None]
        # (y - s) first: shift equivariance then holds bit-exactly
        with np.errstate(over="ignore"):  # a far-out target: inf square, density -inf
            comp = -0.5 * LOG_2PI - log(sigma) - 0.5 * square(((y - s) - mu) / sigma)
        return logsumexp(logit + comp) - logsumexp(logit)

    def curve_log_density(self, omega_rows, extras, y_grid):
        return self.log_density_rows_np(omega_rows[None], np.asarray(y_grid)[None], extras)[0, 0]

    def sample_np(self, omega, extras, n, rng):
        mu, sig_hat, logit, s = self._split(np.asarray(omega, dtype=float)[:, 0])
        # inverse-CDF pick of one component per draw, each with its own weights
        cdf = np.cumsum(np.exp(logit - logit.max(axis=1, keepdims=True)), axis=1)
        picks = (cdf < rng.random((n, 1)) * cdf[:, -1:]).sum(axis=1)
        rows = np.arange(n)
        sigma = softplus(sig_hat[rows, picks])
        return mu[rows, picks] + s[:, 0] + sigma * rng.standard_normal(n)


class _MeanHead:
    """One mean output per network row and a learned global noise scale
    sigma_out = softplus(extras[0])."""

    output_dim = 1
    n_extras = 1
    rows_per_datum = 1

    def group_map(self):
        return {"mean": (0,)}

    def default_prior(self, sigma_w=1.0, lambda_=1.0, sigma_beta=1.0):
        return PriorConfig(sigma_w, lambda_, {"mean": GroupPrior(0.0, 1.0)})

    def init_extras(self):
        return np.array([_INV_SOFTPLUS_1])


class LVHead(_MeanHead):
    """Latent-variable head: noise inputs in, Gaussian mixture over draws out."""

    name = "lv"

    def __init__(self, n_noise=5, noise_dim=1):
        if n_noise < 1 or noise_dim < 1:
            raise StructuralError("n_noise and noise_dim must be >= 1")
        self.n_noise = int(n_noise)
        self.noise_dim = int(noise_dim)
        self.extra_input_dim = self.noise_dim
        self.rows_per_datum = self.n_noise

    def settings(self):
        return {"n_noise": self.n_noise, "noise_dim": self.noise_dim}

    def prepare_inputs(self, x, rng):
        """Each datum becomes n_noise rows [x, z_j], z fresh per call."""
        x = np.asarray(x, dtype=float)
        b = x.shape[0]
        z = rng.standard_normal((b, self.n_noise, self.noise_dim))
        rows = np.concatenate(
            [np.repeat(x, self.n_noise, axis=0), z.reshape(b * self.n_noise, self.noise_dim)],
            axis=1,
        )
        return rows, self.n_noise

    def log_density_rows_np(self, omega, y, extras):
        return self._log_density(omega, y, extras)

    def log_density_rows_tape(self, tape, omega, y, extras):
        return self._log_density(omega, y, extras)

    def _log_density(self, omega, y, extras):
        k = self.n_noise
        mc = omega.shape[0]
        b = omega.shape[1] // k
        means = _per_target(omega[..., 0].reshape(mc, b, k), y)
        sigma = softplus(extras[0])
        y = np.asarray(y, dtype=float)[..., None]
        with np.errstate(over="ignore"):  # a far-out target: inf square, density -inf
            comp = -0.5 * LOG_2PI - log(sigma) - 0.5 * square((y - means) / sigma)
        return logsumexp(comp) - math.log(k)

    def curve_log_density(self, omega_rows, extras, y_grid):
        return self.log_density_rows_np(omega_rows[None], np.asarray(y_grid)[None], extras)[0, 0]

    def sample_np(self, omega, extras, n, rng):
        """Each block holds the per-noise-draw means of one datum; a draw
        picks one of them."""
        means = np.asarray(omega, dtype=float)[..., 0]
        sigma = float(softplus(extras[0]))
        picks = rng.integers(means.shape[1], size=n)
        return means[np.arange(n), picks] + sigma * rng.standard_normal(n)


class GaussHead(_MeanHead):
    """Homoscedastic Gaussian: network mean, learned global noise scale."""

    name = "gauss"
    extra_input_dim = 0

    def settings(self):
        return {}

    def prepare_inputs(self, x, rng):
        return np.asarray(x, dtype=float), 1

    def log_density_rows_np(self, omega, y, extras):
        return self._log_density(omega, y, extras)

    def log_density_rows_tape(self, tape, omega, y, extras):
        return self._log_density(omega, y, extras)

    def _log_density(self, omega, y, extras):
        mean = _per_target(omega[..., 0], y)
        sigma = softplus(extras[0])
        y = np.asarray(y, dtype=float)
        with np.errstate(over="ignore"):  # a far-out target: inf square, density -inf
            return -0.5 * LOG_2PI - log(sigma) - 0.5 * square((y - mean) / sigma)

    def curve_log_density(self, omega_rows, extras, y_grid):
        return self.log_density_rows_np(omega_rows[None], np.asarray(y_grid)[None], extras)[0, 0]

    def sample_np(self, omega, extras, n, rng):
        sigma = float(softplus(extras[0]))
        return np.asarray(omega, dtype=float)[:, 0, 0] + sigma * rng.standard_normal(n)


def make_head(name, n_stages=5, n_components=5, n_noise=5, noise_dim=1):
    """Head factory used by the CLI (`--head {nf,mdn,lv,gauss}`)."""
    if name == "nf":
        return NFHead(n_stages)
    if name == "mdn":
        return MDNHead(n_components)
    if name == "lv":
        return LVHead(n_noise, noise_dim)
    if name == "gauss":
        return GaussHead()
    raise ConfigError(f"unknown head {name!r} (expected nf, mdn, lv, or gauss)")
