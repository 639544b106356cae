"""Mean-field variational Bayesian MLP producing likelihood-head parameters.

The network maps conditioning features to the packed parameter vector of a
likelihood head (flow stages, mixture components, ...).  Every weight and
bias has an independent Gaussian posterior; forward passes use the local
reparameterization trick, sampling pre-activations

    a ~ N(h.M + m_b, (h*h).V + v_b)

element-wise rather than sampling weights.  Posterior variances are either
tied and fixed (one shared sigma_q, not trained) or trained per parameter
through an unconstrained log-variance.

The posterior is stored once, as the flat vector in canonical layout (every
mean layer by layer, W then b, then the log-variances when learned) that
Adam, the KL, its gradient and the prior vectors all read.  Its per-layer
weight and bias arrays are views of that vector.

Hidden-to-output weight means and variances are scaled by lambda and
lambda^2 at forward time only; priors, posteriors, and the KL term always
see the unscaled weights, so lambda trades functional variability against
nothing else.  Output units are partitioned into named groups, each with its
own bias prior (mean, std) and a zero-mean weight prior of the same std;
all earlier layers share the zero-mean sigma_w prior.  The groups and their
priors are the head's (``group_map()``, ``default_prior()``).

This module is the network alone: it scores no head density.  A prior draw
(``sample_prior_parameters``) is a sigma_q = 0 posterior; under a head
(``training.CdeModel.prior_draw``) its density grid goes through
``training.predictive_curve`` like every other grid.

One forward pass serves evaluation and training: written with the generic
math of :mod:`flowcde.tape`, it runs on posterior arrays (``forward_np``) or
records itself on a tape from tape-leaf parameters (``forward_tape``).  Both
take one standard-normal noise array of shape (mc, batch, units) per layer,
so common-random-number comparisons between them are exact.  Training draws
that noise per row.  Prediction shares one (mc, units) draw across rows: it
passes a broadcast view of a (mc, 1, units) array, so each row's marginal is
unchanged, and a one-row call keeps the digits of a per-row draw.  Layer
0's input is the same for every draw, so its pre-activation mean and
variance are computed once per row, as (batch, units) arrays, and reach
(mc, batch, units) only when its noise is added.  Each thread of a
prediction call hands the passes of the blocks it scores one Workspace,
whose buffers take each layer's arrays in place of fresh ones; the tape
always gets fresh arrays, since its VJPs keep the forward values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import add, matmul, mul

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
    "Workspace",
    "draw_eps",
    "init_posterior",
    "prior_mean_std_vectors",
    "sample_prior_parameters",
    "prior_outputs",
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
    log-variances in the same order when learned.  Each chunk is named by
    the VariationalPosterior attribute that views it."""
    chunks = []
    for layer, (ws, bs) in enumerate(arch.layer_shapes()):
        chunks.append(("w_means", layer, ws))
        chunks.append(("b_means", layer, bs))
    if learned:
        for layer, (ws, bs) in enumerate(arch.layer_shapes()):
            chunks.append(("w_logvars", layer, ws))
            chunks.append(("b_logvars", layer, bs))
    return chunks


@dataclass
class VariationalPosterior:
    """Per-parameter Gaussian posterior q(theta), stored as one flat vector
    in canonical layout: the form Adam, the KL and the prior work on.

    ``w_means``, ``b_means``, ``w_logvars`` and ``b_logvars`` are per-layer
    views of ``vector``, cut once at construction, so writing through a view
    writes the vector.  Fixed mode: sigma_q set, the vector holds the means
    only, every variance equals sigma_q**2 and the log-variance views are
    None.  sigma_q = 0 is allowed and makes forward passes deterministic
    (handy for oracle checks), though the KL is undefined there.  Learned
    mode (sigma_q None): per-parameter log-variances follow the means in the
    vector and train alongside them.
    """

    arch: MLPArchitecture
    vector: np.ndarray
    sigma_q: float | None = None

    def __post_init__(self):
        if self.sigma_q is not None and self.sigma_q < 0:
            raise StructuralError("sigma_q must be >= 0")
        self.vector = np.asarray(self.vector, dtype=float)
        views = split_flat(self.arch, self.vector, self.sigma_q is None)
        self.w_means, self.b_means = views["w_means"], views["b_means"]
        self.w_logvars, self.b_logvars = views.get("w_logvars"), views.get("b_logvars")

    @property
    def mode(self):
        return "fixed" if self.sigma_q is not None else "learned"


def split_flat(arch, flat, learned):
    """Cut a flat canonical-layout vector into shaped views, a list per
    chunk name; a vector of any other size raises StructuralError."""
    layout = _layout(arch, learned)
    need = sum(math.prod(shape) for _, _, shape in layout)
    if flat.ndim != 1 or flat.size != need:
        raise StructuralError(f"flat vector has shape {flat.shape}, layout needs ({need},)")
    out = {}
    pos = 0
    for kind, _layer, shape in layout:
        size = math.prod(shape)
        out.setdefault(kind, []).append(flat[pos : pos + size].reshape(shape))
        pos += size
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


def _check_groups(arch, prior, output_groups):
    claimed = sorted(i for idx in output_groups.values() for i in idx)
    if claimed != list(range(arch.output_dim)):
        raise StructuralError(
            "output groups must partition output indices "
            f"0..{arch.output_dim - 1}, got {claimed}"
        )
    missing = [g for g in output_groups if g not in prior.groups]
    if missing:
        raise ConfigError(f"prior lacks output groups: {missing}")


def prior_mean_std_vectors(arch, prior, output_groups):
    """(mu_p, sigma_p) aligned with the canonical MEANS layout."""
    out_w_std = np.empty(arch.output_dim)
    out_b_mean = np.empty(arch.output_dim)
    out_b_std = np.empty(arch.output_dim)
    for name, idx in output_groups.items():
        g = prior.groups[name]
        for i in idx:
            out_w_std[i] = g.std
            out_b_mean[i] = g.mean
            out_b_std[i] = g.std
    mus, stds = [], []
    last = arch.n_layers - 1
    for layer, (ws, bs) in enumerate(arch.layer_shapes()):
        if layer == last:
            mus.append(np.zeros(ws).ravel())
            stds.append(np.broadcast_to(out_w_std, ws).ravel())
            mus.append(out_b_mean)
            stds.append(out_b_std)
        else:
            mus.append(np.zeros(int(np.prod(ws)) + bs[0]))
            stds.append(np.full(int(np.prod(ws)) + bs[0], prior.sigma_w))
    return np.concatenate(mus), np.concatenate(stds)


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
        _check_groups(self.arch, self.prior, self.output_groups)

    # -- prior bookkeeping -------------------------------------------------

    def prior_mean_std_vectors(self):
        """(mu_p, sigma_p) aligned with the canonical MEANS layout."""
        return prior_mean_std_vectors(self.arch, self.prior, self.output_groups)

    def _kl_terms(self):
        """(means, var_q, mu_p, var_p) over the canonical means layout."""
        mu_p, sd_p = self.prior_mean_std_vectors()
        if (sd_p <= 0).any():
            raise NumericError("KL undefined: prior has a zero/negative std")
        post = self.posterior
        means = post.vector[: mu_p.size]
        if post.mode == "fixed":
            if post.sigma_q <= 0:
                raise NumericError("KL undefined: posterior sigma_q is zero")
            var_q = np.full(means.shape, post.sigma_q**2)
        else:
            var_q = np.exp(post.vector[mu_p.size :])
        return means, var_q, mu_p, sd_p**2

    def kl_to_prior(self):
        """Analytic KL(q || p) summed over every weight and bias."""
        means, var_q, mu_p, var_p = self._kl_terms()
        kl = 0.5 * (np.log(var_p) - np.log(var_q) + (var_q + (means - mu_p) ** 2) / var_p - 1.0)
        return float(kl.sum())

    def kl_gradients(self):
        """d KL / d(trainable vector), analytic, in canonical layout."""
        means, var_q, mu_p, var_p = self._kl_terms()
        d_mean = (means - mu_p) / var_p
        if self.posterior.mode == "fixed":
            return d_mean
        return np.concatenate([d_mean, 0.5 * (var_q / var_p - 1.0)])

    # -- forward passes ----------------------------------------------------

    def forward_np(self, x, eps, work=None):
        """Vectorised local-reparameterization pass.

        x is (batch, input_dim); eps a per-layer list of (mc, batch, units)
        standard-normal draws.  Returns (mc, batch, output_dim).  With a
        Workspace, every layer array, the result included, is written into
        its buffers, so the result is only valid until the next pass given
        that workspace.
        """
        return self._forward(x, eps, self.posterior, work)

    def forward_tape(self, tape, params, x, eps):
        """forward_np recorded on a tape, a few nodes per layer.

        params is a TapeParams built on ``tape``; each layer records its
        matrix products and elementwise ops once over the whole (mc, batch,
        units) block.  Returns a Var of shape (mc, batch, output_dim) whose
        value equals forward_np's for the same eps, bit for bit.
        """
        return self._forward(x, eps, params)

    def _forward(self, x, eps, p, work=None):
        """The pass itself; ``p`` is a VariationalPosterior (arrays) or a
        TapeParams (Vars), which share attribute names.  Layer 0 works per
        row (see the module docstring); a noiseless pass (sigma_q = 0) adds
        no noise, so its (rows, out) result is copied once per draw at the end.

        Each step is ``put(layer, role, op, *args)``: ``op(*args)`` as a new
        array or tape node, or, given a Workspace, written into its (layer,
        role) buffer.  Roles: "a" the pre-activation mean, "spread" its
        variance and then that variance's root, "h" the noise product, then
        the noisy pre-activation and the activation.  The squared input
        overwrites the input, the previous layer's "h" buffer, which nothing
        reads after it; layer 0's input is the caller's x, so it squares into
        a (-1, "h") buffer of its own.  The output layer has no "h": its
        noise product overwrites its squared input, and the noisy
        pre-activation, the result, is summed into its "a".
        """
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.arch.input_dim:
            raise StructuralError(f"x must be (batch, {self.arch.input_dim}), got {x.shape}")
        put = _fresh if work is None else work
        last = self.arch.n_layers - 1
        h = x
        for layer in range(self.arch.n_layers):
            a = put(layer, "a", matmul, h, p.w_means[layer])
            spread = None  # sigma_q = 0: noiseless, and no NaN from sqrt'(0) on a tape
            if p.w_logvars is not None or p.sigma_q > 0.0:
                with np.errstate(over="ignore"):  # a far-out input: inf spread saturates the tanh
                    hh = put(layer - 1, "h", mul, h, h)  # in place over h (see above)
                    spread = (put(layer, "spread", matmul, hh, exp(p.w_logvars[layer]))
                              if p.w_logvars is not None else hh.sum(axis=-1, keepdims=True))
            if layer == last:  # lambda scales the hidden-to-output weights only
                lam = self.prior.lambda_
                a = put(layer, "a", mul, lam, a)
                if spread is not None:
                    spread = put(layer, "spread", mul, lam * lam, spread)
            a = put(layer, "a", add, a, p.b_means[layer])
            if spread is not None:
                if p.w_logvars is not None:
                    var_pre = put(layer, "spread", add, spread, exp(p.b_logvars[layer]))
                else:
                    var_pre = p.sigma_q**2 * (spread + 1.0)
                at, role = (layer - 1, "a") if layer == last else (layer, "h")
                noise = put(at, "h", mul, eps[layer], put(layer, "spread", sqrt, var_pre))
                a = put(layer, role, add, a, noise)
            h = put(layer, "h", tanh, a) if layer != last else a
        if spread is None:
            h = h * np.ones((eps[0].shape[0], 1, 1))
        return h


def _fresh(layer, role, op, *args):
    """``op(*args)`` in a new array, or a new node on a tape."""
    return op(*args)


_UFUNCS = {matmul: np.matmul, mul: np.multiply, add: np.add, tanh: np.tanh, sqrt: np.sqrt}


class Workspace:
    """Buffers that the NumPy passes of one prediction thread write into.

    One buffer per (layer, role), allocated by the first pass that asks for
    it, and again, larger, by a pass that needs more.  A pass with fewer
    rows writes into a contiguous view of the buffer's first elements.
    Reusing the buffers keeps a thread's working set resident from block to
    block, where fresh arrays were handed back to the system after each
    block and faulted in again by the next.  Values are the fresh arrays'
    bit for bit.  A Workspace is not shared between threads.
    """

    def __init__(self):
        self._buffers = {}

    def __call__(self, layer, role, op, *args):
        """``op(*args)`` written into the (layer, role) buffer."""
        if op is matmul:
            shape = args[0].shape[:-1] + args[1].shape[-1:]
        else:
            shape = np.broadcast(*args).shape
        size = math.prod(shape)
        buf = self._buffers.get((layer, role))
        if buf is None or buf.size < size:
            buf = self._buffers[layer, role] = np.empty(size)
        return _UFUNCS[op](*args, out=buf[:size].reshape(shape))


class TapeParams:
    """Trainable posterior chunks registered as tape leaves, one per weight
    matrix or bias vector.

    Attribute names mirror VariationalPosterior (``w_means``, ``b_means``,
    ``w_logvars``, ``b_logvars``, ``sigma_q``), holding Vars instead of
    arrays.  ``leaves`` lists the chunks in canonical flat layout, so the
    raveled adjoints concatenate in the order the optimizer packs them.
    """

    def __init__(self, tape, posterior):
        chunks = {}
        self.leaves = []
        for kind, layer, _shape in _layout(posterior.arch, posterior.mode == "learned"):
            leaf = Var(tape, tape.leaf(getattr(posterior, kind)[layer]))
            chunks.setdefault(kind, []).append(leaf)
            self.leaves.append(leaf)
        self.w_means, self.b_means = chunks["w_means"], chunks["b_means"]
        self.w_logvars, self.b_logvars = chunks.get("w_logvars"), chunks.get("b_logvars")
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
    if mode not in ("fixed", "learned"):
        raise ConfigError(f"unknown posterior mode {mode!r}")
    rng = np.random.default_rng(seed)
    means = []
    for (fan_in, fan_out), _ in arch.layer_shapes():
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        means += [rng.uniform(-bound, bound, size=fan_in * fan_out), np.zeros(fan_out)]
    means = np.concatenate(means)
    if mode == "fixed":
        return VariationalPosterior(arch, means, sigma_q=float(sigma_init))
    logvars = np.full(means.size, 2.0 * math.log(sigma_init))
    return VariationalPosterior(arch, np.concatenate([means, logvars]))


def sample_prior_parameters(arch, prior, output_groups, seed):
    """One network drawn from the prior, as the sigma_q = 0 posterior of its
    flat theta = mu_p + sigma_p * eps.  eps has a fixed seed, so varying the
    prior with the same seed interpolates."""
    _check_groups(arch, prior, output_groups)
    mu_p, sd_p = prior_mean_std_vectors(arch, prior, output_groups)
    eps = np.random.default_rng(seed).standard_normal(mu_p.size)
    return VariationalPosterior(arch, mu_p + sd_p * eps, sigma_q=0.0)


def prior_outputs(arch, prior, output_groups, seed, x):
    """(rows, output_dim) outputs at feature rows x of the network
    sample_prior_parameters draws, by the network's own pass at sigma_q = 0."""
    post = sample_prior_parameters(arch, prior, output_groups, seed)
    net = BayesianMLP(arch, post, prior, output_groups)
    return net.forward_np(x, [np.zeros((1, 1, u)) for u in arch.widths[1:]])[0]

