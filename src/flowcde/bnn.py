"""Mean-field variational Bayesian MLP producing likelihood-head parameters.

The network maps conditioning features to the packed parameter vector of a
likelihood head (flow stages, mixture components, ...).  Every weight and
bias has an independent Gaussian posterior; forward passes use the local
reparameterization trick, sampling pre-activations

    a ~ N(h.M + m_b, (h*h).V + v_b)

element-wise rather than sampling weights.  Posterior variances are either
tied and fixed (one shared sigma_q, not trained) or trained per parameter
through an unconstrained log-variance.

Hidden-to-output weight means and variances are scaled by lambda and
lambda^2 at forward time only; priors, posteriors, and the KL term always
see the unscaled weights, so lambda trades functional variability against
nothing else.  Output units are partitioned into named groups, each with its
own bias prior (mean, std) and a zero-mean weight prior of the same std;
all earlier layers share the zero-mean sigma_w prior.

One forward pass serves evaluation and training: written with the generic
math of :mod:`flowcde.tape`, it runs on posterior arrays (``forward_np``) or
records itself on a tape from tape-leaf parameters (``forward_tape``).  Both
take one standard-normal noise array of shape (mc, batch, units) per layer,
so common-random-number comparisons between them are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, NumericError, StructuralError
from .tape import Var, exp, sqrt, tanh

__all__ = [
    "MLPArchitecture",
    "VariationalPosterior",
    "GroupPrior",
    "PriorConfig",
    "BayesianMLP",
    "TapeParams",
    "draw_eps",
    "init_posterior",
    "nf_group_map",
    "nf_prior",
    "mlp_forward",
    "sample_prior_parameters",
    "sample_prior_cde",
]


@dataclass(frozen=True)
class MLPArchitecture:
    """Layer shapes; the activation is tanh throughout, outputs are linear."""

    input_dim: int
    hidden_layers: tuple[int, ...]
    output_dim: int

    def __post_init__(self):
        object.__setattr__(self, "hidden_layers", tuple(int(h) for h in self.hidden_layers))
        if self.input_dim < 1 or self.output_dim < 1:
            raise StructuralError("input_dim and output_dim must be >= 1")
        if any(h < 1 for h in self.hidden_layers):
            raise StructuralError("hidden layer widths must be >= 1")

    @property
    def widths(self):
        """[input, hidden..., output]."""
        return (self.input_dim, *self.hidden_layers, self.output_dim)

    @property
    def n_layers(self):
        return len(self.hidden_layers) + 1

    def layer_shapes(self):
        w = self.widths
        return [((w[i], w[i + 1]), (w[i + 1],)) for i in range(self.n_layers)]


def _layout(arch, learned):
    """Canonical flat packing: all means layer by layer (W then b), then all
    log-variances in the same order when learned."""
    chunks = []
    for layer, (ws, bs) in enumerate(arch.layer_shapes()):
        chunks.append(("w_mean", layer, ws))
        chunks.append(("b_mean", layer, bs))
    if learned:
        for layer, (ws, bs) in enumerate(arch.layer_shapes()):
            chunks.append(("w_lv", layer, ws))
            chunks.append(("b_lv", layer, bs))
    return chunks


@dataclass
class VariationalPosterior:
    """Per-parameter Gaussian posterior q(theta).

    Fixed mode: sigma_q set, log-variance lists None; every variance equals
    sigma_q**2 and only the means train.  sigma_q = 0 is allowed and makes
    forward passes deterministic (handy for oracle checks), though the KL is
    undefined there.  Learned mode: per-parameter log-variances train
    alongside the means.
    """

    arch: MLPArchitecture
    w_means: list
    b_means: list
    sigma_q: float | None = None
    w_logvars: list | None = None
    b_logvars: list | None = None

    def __post_init__(self):
        learned = self.w_logvars is not None
        if learned != (self.b_logvars is not None) or learned == (self.sigma_q is not None):
            raise StructuralError("set exactly one of sigma_q or log-variance lists")
        if self.sigma_q is not None and self.sigma_q < 0:
            raise StructuralError("sigma_q must be >= 0")
        for layer, (ws, bs) in enumerate(self.arch.layer_shapes()):
            if self.w_means[layer].shape != ws or self.b_means[layer].shape != bs:
                raise StructuralError(f"posterior mean shapes wrong at layer {layer}")
            if learned and (
                self.w_logvars[layer].shape != ws or self.b_logvars[layer].shape != bs
            ):
                raise StructuralError(f"posterior log-variance shapes wrong at layer {layer}")

    @property
    def mode(self):
        return "fixed" if self.sigma_q is not None else "learned"

    def _chunk_array(self, kind, layer):
        return {
            "w_mean": self.w_means,
            "b_mean": self.b_means,
            "w_lv": self.w_logvars,
            "b_lv": self.b_logvars,
        }[kind][layer]

    def to_vector(self):
        """Flat trainable parameters in canonical layout."""
        parts = [
            self._chunk_array(kind, layer).ravel()
            for kind, layer, _ in _layout(self.arch, self.mode == "learned")
        ]
        return np.concatenate(parts)

    def replace_from_vector(self, vec):
        """New posterior with trainable parameters taken from a flat vector."""
        vec = np.asarray(vec, dtype=float)
        split = split_flat(self.arch, vec, self.mode == "learned")
        if self.mode == "learned":
            return replace(
                self,
                w_means=split["w_mean"],
                b_means=split["b_mean"],
                w_logvars=split["w_lv"],
                b_logvars=split["b_lv"],
            )
        return replace(self, w_means=split["w_mean"], b_means=split["b_mean"])

    def w_var(self, layer):
        if self.sigma_q is not None:
            return np.full_like(self.w_means[layer], self.sigma_q**2)
        return np.exp(self.w_logvars[layer])

    def b_var(self, layer):
        if self.sigma_q is not None:
            return np.full_like(self.b_means[layer], self.sigma_q**2)
        return np.exp(self.b_logvars[layer])

    @property
    def n_trainable(self):
        n = sum(w.size + b.size for w, b in zip(self.w_means, self.b_means))
        return 2 * n if self.mode == "learned" else n


def split_flat(arch, flat, learned):
    """Cut a flat canonical-layout array into shaped chunks by kind."""
    flat = np.asarray(flat)
    out = {"w_mean": [], "b_mean": [], "w_lv": [], "b_lv": []}
    pos = 0
    for kind, _layer, shape in _layout(arch, learned):
        size = int(np.prod(shape))
        out[kind].append(flat[pos : pos + size].reshape(shape))
        pos += size
    if pos != flat.size:
        raise StructuralError(f"flat vector has {flat.size} entries, layout needs {pos}")
    return out


@dataclass(frozen=True)
class GroupPrior:
    """Bias prior N(mean, std^2) and zero-mean weight prior N(0, std^2) for
    one named output group."""

    mean: float
    std: float

    def __post_init__(self):
        if self.std < 0:
            raise StructuralError("group prior std must be >= 0")


@dataclass(frozen=True)
class PriorConfig:
    """sigma_w sets the length scale of all pre-output layers; lambda scales
    hidden-to-output weights at forward time; groups give output priors.

    Zero group stds are accepted (they pin prior samples to the group mean,
    used by prior visualisation); the KL rejects them at training time.
    """

    sigma_w: float = 1.0
    lambda_: float = 1.0
    groups: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.sigma_w <= 0:
            raise StructuralError("sigma_w must be > 0")
        if self.lambda_ < 0:
            raise StructuralError("lambda must be >= 0")
        for name, g in self.groups.items():
            if not isinstance(g, GroupPrior):
                raise StructuralError(f"group {name!r} is not a GroupPrior")


def nf_group_map(n_stages):
    """Output-index groups for a flow head: interleaved stage params + shift."""
    k = int(n_stages)
    if k < 0:
        raise StructuralError("n_stages must be >= 0")
    return {
        "alpha_hat": tuple(range(0, 3 * k, 3)),
        "beta_hat": tuple(range(1, 3 * k, 3)),
        "gamma": tuple(range(2, 3 * k, 3)),
        "shift": (3 * k,),
    }


def nf_prior(sigma_w=1.0, lambda_=1.0, sigma_beta=1.0):
    """Default flow-head prior: alpha_hat biases N(1,1), gamma and shift unit
    normal, beta_hat std controlling non-Gaussianity."""
    return PriorConfig(
        sigma_w=sigma_w,
        lambda_=lambda_,
        groups={
            "alpha_hat": GroupPrior(1.0, 1.0),
            "beta_hat": GroupPrior(0.0, sigma_beta),
            "gamma": GroupPrior(0.0, 1.0),
            "shift": GroupPrior(0.0, 1.0),
        },
    )


@dataclass
class BayesianMLP:
    """Architecture + posterior + prior + output-group partition."""

    arch: MLPArchitecture
    posterior: VariationalPosterior
    prior: PriorConfig
    output_groups: dict

    def __post_init__(self):
        if self.posterior.arch != self.arch:
            raise StructuralError("posterior was built for a different architecture")
        claimed = sorted(i for idx in self.output_groups.values() for i in idx)
        if claimed != list(range(self.arch.output_dim)):
            raise StructuralError(
                "output groups must partition output indices "
                f"0..{self.arch.output_dim - 1}, got {claimed}"
            )
        missing = [g for g in self.output_groups if g not in self.prior.groups]
        if missing:
            raise ConfigError(f"prior lacks output groups: {missing}")

    # -- prior bookkeeping -------------------------------------------------

    def prior_mean_std_vectors(self):
        """(mu_p, sigma_p) aligned with the canonical MEANS layout."""
        sw = self.prior.sigma_w
        out_w_std = np.empty(self.arch.output_dim)
        out_b_mean = np.empty(self.arch.output_dim)
        out_b_std = np.empty(self.arch.output_dim)
        for name, idx in self.output_groups.items():
            g = self.prior.groups[name]
            for i in idx:
                out_w_std[i] = g.std
                out_b_mean[i] = g.mean
                out_b_std[i] = g.std
        mus, stds = [], []
        last = self.arch.n_layers - 1
        for layer, (ws, bs) in enumerate(self.arch.layer_shapes()):
            if layer == last:
                mus.append(np.zeros(ws).ravel())
                stds.append(np.broadcast_to(out_w_std, ws).ravel())
                mus.append(out_b_mean)
                stds.append(out_b_std)
            else:
                mus.append(np.zeros(int(np.prod(ws)) + bs[0]))
                stds.append(np.full(int(np.prod(ws)) + bs[0], sw))
        return np.concatenate(mus), np.concatenate(stds)

    def kl_to_prior(self):
        """Analytic KL(q || p) summed over every weight and bias."""
        mu_p, sd_p = self.prior_mean_std_vectors()
        if (sd_p <= 0).any():
            raise NumericError("KL undefined: prior has a zero/negative std")
        post = self.posterior
        means = np.concatenate(
            [np.concatenate([post.w_means[l].ravel(), post.b_means[l]]) for l in range(self.arch.n_layers)]
        )
        if post.mode == "fixed":
            if post.sigma_q <= 0:
                raise NumericError("KL undefined: posterior sigma_q is zero")
            var_q = np.full(means.shape, post.sigma_q**2)
        else:
            var_q = np.concatenate(
                [
                    np.concatenate([np.exp(post.w_logvars[l]).ravel(), np.exp(post.b_logvars[l])])
                    for l in range(self.arch.n_layers)
                ]
            )
        var_p = sd_p**2
        kl = 0.5 * (np.log(var_p) - np.log(var_q) + (var_q + (means - mu_p) ** 2) / var_p - 1.0)
        return float(kl.sum())

    def kl_gradients(self):
        """d KL / d(trainable vector), analytic, in canonical layout."""
        mu_p, sd_p = self.prior_mean_std_vectors()
        if (sd_p <= 0).any():
            raise NumericError("KL undefined: prior has a zero/negative std")
        post = self.posterior
        means = np.concatenate(
            [np.concatenate([post.w_means[l].ravel(), post.b_means[l]]) for l in range(self.arch.n_layers)]
        )
        d_mean = (means - mu_p) / sd_p**2
        if post.mode == "fixed":
            return d_mean
        var_q = np.concatenate(
            [
                np.concatenate([np.exp(post.w_logvars[l]).ravel(), np.exp(post.b_logvars[l])])
                for l in range(self.arch.n_layers)
            ]
        )
        d_logvar = 0.5 * (var_q / sd_p**2 - 1.0)
        return np.concatenate([d_mean, d_logvar])

    # -- forward passes ----------------------------------------------------

    def forward_np(self, x, eps):
        """Vectorised local-reparameterization pass.

        x is (batch, input_dim); eps a per-layer list of (mc, batch, units)
        standard-normal draws.  Returns (mc, batch, output_dim).
        """
        return self._forward(x, eps, self.posterior)

    def forward_tape(self, tape, params, x, eps):
        """forward_np recorded on a tape, a few nodes per layer.

        params is a TapeParams built on ``tape``; each layer records its
        matrix products and elementwise ops once over the whole (mc, batch,
        units) block.  Returns a Var of shape (mc, batch, output_dim) whose
        value equals forward_np's for the same eps, bit for bit.
        """
        return self._forward(x, eps, params)

    def _forward(self, x, eps, p):
        """The pass itself; ``p`` is a VariationalPosterior (arrays) or a
        TapeParams (Vars), which share attribute names."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.arch.input_dim:
            raise StructuralError(f"x must be (batch, {self.arch.input_dim}), got {x.shape}")
        last = self.arch.n_layers - 1
        mc = eps[0].shape[0]
        h = np.broadcast_to(x, (mc,) + x.shape)
        for layer in range(self.arch.n_layers):
            lam = self.prior.lambda_ if layer == last else 1.0
            a = lam * (h @ p.w_means[layer]) + p.b_means[layer]
            if p.w_logvars is not None:
                var_pre = lam * lam * ((h * h) @ exp(p.w_logvars[layer])) + exp(p.b_logvars[layer])
            elif p.sigma_q > 0.0:
                sq = p.sigma_q**2
                var_pre = sq * (lam * lam * (h * h).sum(axis=-1, keepdims=True) + 1.0)
            else:
                var_pre = None  # sigma_q = 0: noiseless, and no NaN from sqrt'(0) on a tape
            if var_pre is not None:
                a = a + eps[layer] * sqrt(var_pre)
            h = tanh(a) if layer != last else a
        return h


class TapeParams:
    """Trainable posterior chunks registered as tape leaves, one per weight
    matrix or bias vector.

    Attribute names mirror VariationalPosterior (``w_means``, ``b_means``,
    ``w_logvars``, ``b_logvars``, ``sigma_q``), holding Vars instead of
    arrays.  ``leaves`` lists the chunks in canonical flat layout, so the
    raveled adjoints concatenate in the order the optimizer packs them.
    """

    def __init__(self, tape, posterior):
        learned = posterior.mode == "learned"
        chunks = {"w_mean": [], "b_mean": [], "w_lv": [], "b_lv": []}
        self.leaves = []
        for kind, layer, _shape in _layout(posterior.arch, learned):
            leaf = Var(tape, tape.leaf(posterior._chunk_array(kind, layer)))
            chunks[kind].append(leaf)
            self.leaves.append(leaf)
        self.w_means = chunks["w_mean"]
        self.b_means = chunks["b_mean"]
        self.w_logvars = chunks["w_lv"] if learned else None
        self.b_logvars = chunks["b_lv"] if learned else None
        self.sigma_q = posterior.sigma_q


def draw_eps(arch, rng, mc, n_rows):
    """One activation-noise array per layer: (mc, n_rows, units)."""
    if mc < 1 or n_rows < 1:
        raise StructuralError("mc and n_rows must be >= 1")
    return [rng.standard_normal((mc, n_rows, u)) for u in arch.widths[1:]]


def init_posterior(arch, seed, sigma_init=1e-5, mode="fixed"):
    """Xavier-uniform weight means, zero bias means, variances sigma_init^2."""
    if sigma_init <= 0:
        raise StructuralError("sigma_init must be > 0")
    rng = np.random.default_rng(seed)
    w_means, b_means = [], []
    for (fan_in, fan_out), _ in arch.layer_shapes():
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        w_means.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        b_means.append(np.zeros(fan_out))
    if mode == "fixed":
        return VariationalPosterior(arch, w_means, b_means, sigma_q=float(sigma_init))
    if mode == "learned":
        lv = 2.0 * math.log(sigma_init)
        return VariationalPosterior(
            arch,
            w_means,
            b_means,
            w_logvars=[np.full(w.shape, lv) for w in w_means],
            b_logvars=[np.full(b.shape, lv) for b in b_means],
        )
    raise ConfigError(f"unknown posterior mode {mode!r}")


def mlp_forward(weights, biases, x, lambda_=1.0):
    """Plain deterministic MLP pass (tanh hidden, linear output, lambda on
    the final weight matrix)."""
    h = np.asarray(x, dtype=float)
    last = len(weights) - 1
    for layer, (w, b) in enumerate(zip(weights, biases)):
        lam = lambda_ if layer == last else 1.0
        a = lam * (h @ w) + b
        h = np.tanh(a) if layer != last else a
    return h


def sample_prior_parameters(net_or_arch, prior, output_groups, seed):
    """One network drawn from the prior: theta = mu_p + sigma_p * eps with a
    fixed-seed eps, so varying the prior with the same seed interpolates."""
    arch = net_or_arch.arch if isinstance(net_or_arch, BayesianMLP) else net_or_arch
    stub = BayesianMLP(
        arch,
        init_posterior(arch, 0, sigma_init=1.0),
        prior,
        output_groups,
    )
    mu_p, sd_p = stub.prior_mean_std_vectors()
    eps = np.random.default_rng(seed).standard_normal(mu_p.size)
    theta = mu_p + sd_p * eps
    split = split_flat(arch, theta, learned=False)
    return split["w_mean"], split["b_mean"]


def sample_prior_cde(arch, prior, head, seed, x_grid, y_grid):
    """Density grid (len(x_grid), len(y_grid)) of one prior-sampled CDE.

    The head scores the whole grid in one call, at its initial extras; it
    must add no network inputs of its own (``head.extra_input_dim == 0``).
    """
    x_grid = np.atleast_1d(np.asarray(x_grid, dtype=float))
    y_grid = np.atleast_1d(np.asarray(y_grid, dtype=float))
    if x_grid.size == 0 or y_grid.size == 0:
        raise StructuralError("grids must be non-empty")
    ws, bs = sample_prior_parameters(arch, prior, head.group_map(), seed)
    xs = x_grid.reshape(-1, 1) if x_grid.ndim == 1 else x_grid
    omega = mlp_forward(ws, bs, xs, prior.lambda_)
    y = np.broadcast_to(y_grid, (xs.shape[0], y_grid.size))
    return np.exp(head.log_density_rows_np(omega[None], y, head.init_extras())[0])
