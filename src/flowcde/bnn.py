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

Two forward implementations share one noise-draw convention (per layer, one
standard-normal array of shape (mc, batch, units)): a vectorised numpy pass
for evaluation and a tape pass for training, so common-random-number
comparisons between them are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, NumericError, StructuralError
from .tape import Tape

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
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.arch.input_dim:
            raise StructuralError(f"x must be (batch, {self.arch.input_dim}), got {x.shape}")
        post = self.posterior
        last = self.arch.n_layers - 1
        mc = eps[0].shape[0]
        h = np.broadcast_to(x, (mc,) + x.shape)
        for layer in range(self.arch.n_layers):
            m_w = post.w_means[layer]
            m_b = post.b_means[layer]
            lam = self.prior.lambda_ if layer == last else 1.0
            mean_pre = lam * (h @ m_w) + m_b
            if post.mode == "fixed":
                sq = post.sigma_q**2
                var_pre = sq * (lam * lam * (h * h).sum(axis=-1, keepdims=True) + 1.0)
            else:
                v_w = np.exp(post.w_logvars[layer])
                v_b = np.exp(post.b_logvars[layer])
                var_pre = lam * lam * ((h * h) @ v_w) + v_b
            if (var_pre < 0).any():
                raise NumericError("negative pre-activation variance")
            a = mean_pre + eps[layer] * np.sqrt(var_pre)
            h = np.tanh(a) if layer != last else a
        return h

    def forward_tape(self, tape, params, x, eps):
        """Tape-recorded twin of forward_np.

        params is a TapeParams built on the same tape; returns an
        (mc, batch, output_dim) int array of node ids.  Given the same eps
        the values agree with forward_np to floating-point rounding (the
        two paths sum in different orders).
        """
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.arch.input_dim:
            raise StructuralError(f"x must be (batch, {self.arch.input_dim}), got {x.shape}")
        post = self.posterior
        learned = post.mode == "learned"
        lam = self.prior.lambda_
        last = self.arch.n_layers - 1
        mc, batch = eps[0].shape[0], eps[0].shape[1]
        t = tape

        w_cols = [
            [[int(i) for i in params.w_mean_ids[l][:, u]] for u in range(params.w_mean_ids[l].shape[1])]
            for l in range(self.arch.n_layers)
        ]
        b_ids = [[int(i) for i in params.b_mean_ids[l]] for l in range(self.arch.n_layers)]
        if learned:
            # exp(logvar) nodes are shared by every datum on this tape
            ev_w_cols = []
            ev_b = []
            for l in range(self.arch.n_layers):
                mat = [[t.exp(int(i)) for i in row] for row in params.w_lv_ids[l]]
                ev_w_cols.append([[row[u] for row in mat] for u in range(len(mat[0]))])
                ev_b.append([t.exp(int(i)) for i in params.b_lv_ids[l]])
        sq = None if learned else post.sigma_q**2

        out = np.empty((mc, batch, self.arch.output_dim), dtype=np.int64)
        for b in range(batch):
            xb = [float(v) for v in x[b]]
            xb2 = [v * v for v in xb]
            for m in range(mc):
                h_ids = None
                for layer in range(self.arch.n_layers):
                    lam_l = lam if layer == last else 1.0
                    n_units = len(b_ids[layer])
                    e = eps[layer][m, b]
                    if h_ids is None:
                        # input layer: x is data, so the mean is one fused
                        # node per unit with the noise folded into the const
                        mean_coeffs = [c * lam_l for c in xb] + [1.0]
                        if learned:
                            var_coeffs = [c * lam_l * lam_l for c in xb2] + [1.0]
                            acts = []
                            for u in range(n_units):
                                mean_id = t.lincomb(
                                    w_cols[layer][u] + [b_ids[layer][u]], mean_coeffs
                                )
                                var_id = t.lincomb(
                                    ev_w_cols[layer][u] + [ev_b[layer][u]], var_coeffs
                                )
                                std_id = t.exp(t.mulc(t.log(var_id), 0.5))
                                acts.append(t.lincomb([mean_id, std_id], [1.0, float(e[u])]))
                        else:
                            noise = np.sqrt(sq * (lam_l * lam_l * sum(xb2) + 1.0)) * e
                            acts = [
                                t.lincomb(
                                    w_cols[layer][u] + [b_ids[layer][u]],
                                    mean_coeffs,
                                    float(noise[u]),
                                )
                                for u in range(n_units)
                            ]
                    elif learned:
                        h2_ids = [t.square(i) for i in h_ids]
                        acts = []
                        for u in range(n_units):
                            vq = t.vdot(ev_w_cols[layer][u], h2_ids)
                            var_id = t.lincomb([vq, ev_b[layer][u]], [lam_l * lam_l, 1.0])
                            std_id = t.exp(t.mulc(t.log(var_id), 0.5))
                            wv = t.vdot(w_cols[layer][u], h_ids)
                            acts.append(
                                t.lincomb(
                                    [wv, b_ids[layer][u], std_id],
                                    [lam_l, 1.0, float(e[u])],
                                )
                            )
                    elif sq == 0.0:
                        # degenerate posterior: noiseless pass
                        acts = [
                            t.lincomb(
                                [t.vdot(w_cols[layer][u], h_ids), b_ids[layer][u]],
                                [lam_l, 1.0],
                            )
                            for u in range(n_units)
                        ]
                    else:
                        # tied fixed variance: one std node serves the layer
                        sumsq = t.vdot(h_ids, h_ids)
                        var_id = t.addc(t.mulc(sumsq, sq * lam_l * lam_l), sq)
                        std_id = t.exp(t.mulc(t.log(var_id), 0.5))
                        acts = [
                            t.lincomb(
                                [t.vdot(w_cols[layer][u], h_ids), b_ids[layer][u], std_id],
                                [lam_l, 1.0, float(e[u])],
                            )
                            for u in range(n_units)
                        ]
                    if layer != last:
                        h_ids = [t.tanh(a) for a in acts]
                    else:
                        out[m, b] = acts
        return out


class TapeParams:
    """Trainable posterior scalars registered as tape leaves.

    Leaf order equals the canonical flat layout, so adjoints read back in the
    same order the optimizer packs parameters.
    """

    def __init__(self, tape, posterior):
        vec = posterior.to_vector()
        first = len(tape)
        for v in vec:
            tape.leaf(v)
        self.flat_ids = np.arange(first, first + vec.size, dtype=np.int64)
        split = split_flat(posterior.arch, self.flat_ids, posterior.mode == "learned")
        self.w_mean_ids = split["w_mean"]
        self.b_mean_ids = split["b_mean"]
        self.w_lv_ids = split["w_lv"] if posterior.mode == "learned" else None
        self.b_lv_ids = split["b_lv"] if posterior.mode == "learned" else None


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
