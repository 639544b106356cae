"""Self-describing text checkpoints.

A checkpoint is a flat `key = value` file (same philosophy as run configs):
scalars are printed directly, arrays as space-separated %.17g values so a
save -> load -> save cycle is byte-identical.  It carries everything needed
to evaluate a fitted model on new raw data: head configuration, architecture,
posterior, prior, head extras, the normalization statistics, the raw-column
schema, and (for two-dimensional models) the chain ordering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autoreg import AutoregModel
from .bnn import (
    BayesianMLP,
    GroupPrior,
    MLPArchitecture,
    PriorConfig,
    VariationalPosterior,
)
from .data import NormStats
from .errors import DataError
from .heads import make_head
from .training import CdeModel

__all__ = ["Checkpoint", "save_checkpoint", "load_checkpoint"]

_FORMAT = "flowcde-checkpoint-v1"


@dataclass
class Checkpoint:
    """A fitted model plus the data pipeline needed to feed it."""

    model: object  # CdeModel or AutoregModel
    stats: NormStats | None = None
    features: tuple = ()
    cyclic: tuple = ()
    targets: tuple = ("y",)

    @property
    def kind(self):
        return "autoreg" if isinstance(self.model, AutoregModel) else "single"


def _fmt(v):
    return format(float(v), ".17g")


def _fmt_array(a):
    return " ".join(_fmt(v) for v in np.asarray(a, dtype=float).ravel())


def _parse_array(s):
    return np.array([float(t) for t in s.split()]) if s else np.empty(0)


def _fmt_names(names):
    names = tuple(str(n) for n in names)
    for n in names:
        if "," in n or " " in n or "=" in n:
            raise DataError(f"column name {n!r} cannot contain ',', ' ', or '='")
    return ",".join(names)


def _parse_names(s):
    return tuple(t for t in s.split(",") if t)


def _write_model(put, prefix, model):
    head, net, post = model.head, model.net, model.net.posterior
    put(prefix + "head.name", head.name)
    for k, v in head.settings().items():
        put(prefix + "head." + k, v)
    put(prefix + "arch.input_dim", net.arch.input_dim)
    put(prefix + "arch.hidden", ",".join(str(h) for h in net.arch.hidden_layers))
    put(prefix + "arch.output_dim", net.arch.output_dim)
    put(prefix + "prior.sigma_w", _fmt(net.prior.sigma_w))
    put(prefix + "prior.lambda", _fmt(net.prior.lambda_))
    for name in sorted(net.prior.groups):
        g = net.prior.groups[name]
        put(prefix + "prior.group." + name, f"{_fmt(g.mean)} {_fmt(g.std)}")
    put(prefix + "posterior.mode", post.mode)
    if post.mode == "fixed":
        put(prefix + "posterior.sigma_q", _fmt(post.sigma_q))
    for layer in range(net.arch.n_layers):
        put(prefix + f"posterior.w_mean.{layer}", _fmt_array(post.w_means[layer]))
        put(prefix + f"posterior.b_mean.{layer}", _fmt_array(post.b_means[layer]))
        if post.mode == "learned":
            put(prefix + f"posterior.w_logvar.{layer}", _fmt_array(post.w_logvars[layer]))
            put(prefix + f"posterior.b_logvar.{layer}", _fmt_array(post.b_logvars[layer]))
    put(prefix + "extras", _fmt_array(model.extras))


def save_checkpoint(path, ckpt):
    lines = [f"format = {_FORMAT}", f"kind = {ckpt.kind}"]

    def put(key, value):
        lines.append(f"{key} = {value}")

    put("schema.features", _fmt_names(ckpt.features))
    put("schema.cyclic", _fmt_names(ckpt.cyclic))
    put("schema.targets", _fmt_names(ckpt.targets))
    if ckpt.stats is None:
        put("stats.present", "false")
    else:
        st = ckpt.stats
        put("stats.present", "true")
        put("stats.feature_names", _fmt_names(st.feature_names))
        put("stats.kinds", _fmt_names(st.kinds))
        put("stats.x_mean", _fmt_array(st.x_mean))
        put("stats.x_std", _fmt_array(st.x_std))
        put("stats.y_mean", _fmt_array(st.y_mean))
        put("stats.y_std", _fmt_array(st.y_std))
    if ckpt.kind == "autoreg":
        put("order", ",".join(str(i) for i in ckpt.model.order))
        put("target_names", _fmt_names(ckpt.model.target_names))
        _write_model(put, "stage1.", ckpt.model.stage1)
        _write_model(put, "stage2.", ckpt.model.stage2)
    else:
        _write_model(put, "", ckpt.model)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _read_kv(path):
    kv = {}
    try:
        fh = open(path)
    except OSError as err:
        raise DataError(f"cannot read checkpoint {path}: {err}") from None
    with fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            if " = " not in line:
                raise DataError(f"{path}: line {lineno} is not 'key = value'")
            key, _, value = line.partition(" = ")
            if key in kv:
                raise DataError(f"{path}: duplicate key {key!r}")
            kv[key] = value
    return kv


class _Reader:
    def __init__(self, path, kv):
        self.path = path
        self.kv = kv
        self.used = set()

    def take(self, key, default=None):
        self.used.add(key)
        if key in self.kv:
            return self.kv[key]
        if default is not None:
            return default
        raise DataError(f"{self.path}: missing checkpoint key {key!r}")

    def finish(self):
        extra = sorted(set(self.kv) - self.used)
        if extra:
            raise DataError(f"{self.path}: unrecognized checkpoint keys {extra}")


def _read_model(r, prefix):
    name = r.take(prefix + "head.name")
    settings = {}
    for k in ("n_stages", "n_components", "n_noise", "noise_dim"):
        key = prefix + "head." + k
        if key in r.kv:
            settings[k] = int(r.take(key))
    head = make_head(name, **settings)
    hidden = tuple(int(t) for t in r.take(prefix + "arch.hidden").split(",") if t)
    arch = MLPArchitecture(
        int(r.take(prefix + "arch.input_dim")), hidden, int(r.take(prefix + "arch.output_dim"))
    )
    groups = {}
    gp = prefix + "prior.group."
    for key in list(r.kv):
        if key.startswith(gp):
            mean, std = (float(t) for t in r.take(key).split())
            groups[key[len(gp):]] = GroupPrior(mean, std)
    prior = PriorConfig(
        float(r.take(prefix + "prior.sigma_w")),
        float(r.take(prefix + "prior.lambda")),
        groups,
    )
    mode = r.take(prefix + "posterior.mode")
    w_means, b_means, w_lv, b_lv = [], [], [], []
    for layer, (ws, bs) in enumerate(arch.layer_shapes()):
        w_means.append(_parse_array(r.take(prefix + f"posterior.w_mean.{layer}")).reshape(ws))
        b_means.append(_parse_array(r.take(prefix + f"posterior.b_mean.{layer}")).reshape(bs))
        if mode == "learned":
            w_lv.append(_parse_array(r.take(prefix + f"posterior.w_logvar.{layer}")).reshape(ws))
            b_lv.append(_parse_array(r.take(prefix + f"posterior.b_logvar.{layer}")).reshape(bs))
    if mode == "fixed":
        post = VariationalPosterior(
            arch, w_means, b_means, sigma_q=float(r.take(prefix + "posterior.sigma_q"))
        )
    else:
        post = VariationalPosterior(arch, w_means, b_means, w_logvars=w_lv, b_logvars=b_lv)
    net = BayesianMLP(arch, post, prior, head.group_map())
    return CdeModel(net, head, _parse_array(r.take(prefix + "extras")))


def load_checkpoint(path):
    kv = _read_kv(path)
    r = _Reader(path, kv)
    fmt = r.take("format")
    if fmt != _FORMAT:
        raise DataError(f"{path}: unknown checkpoint format {fmt!r}")
    kind = r.take("kind")
    features = _parse_names(r.take("schema.features", default=""))
    cyclic = _parse_names(r.take("schema.cyclic", default=""))
    targets = _parse_names(r.take("schema.targets", default=""))
    stats = None
    if r.take("stats.present") == "true":
        stats = NormStats(
            _parse_names(r.take("stats.feature_names")),
            _parse_names(r.take("stats.kinds")),
            _parse_array(r.take("stats.x_mean")),
            _parse_array(r.take("stats.x_std")),
            _parse_array(r.take("stats.y_mean")),
            _parse_array(r.take("stats.y_std")),
        )
    if kind == "autoreg":
        order = tuple(int(t) for t in r.take("order").split(","))
        names = _parse_names(r.take("target_names"))
        model = AutoregModel(
            _read_model(r, "stage1."), _read_model(r, "stage2."), order, names
        )
    elif kind == "single":
        model = _read_model(r, "")
    else:
        raise DataError(f"{path}: unknown checkpoint kind {kind!r}")
    r.finish()
    return Checkpoint(model, stats, features, cyclic, targets)
