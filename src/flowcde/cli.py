"""Command-line interface.

Subcommands: train, eval, sample, heatmap, prior-sample, grid-search, gen-toy.

Settings come from a flat `key = value` config file (--config) overridden by
positional key=value arguments; every key has a documented default and
unknown keys are reported exhaustively in one error.  Each artifact-writing
command emits a manifest (the fully resolved settings plus the data file's
sha256) that re-runs to bit-identical outputs on the same platform.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numeric error,
1 anything else.  The output root defaults to the working directory and can
be moved with the FLOWCDE_OUT environment variable.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import shutil
import sys
from itertools import product
from pathlib import Path

import numpy as np

from . import __version__
from .autoreg import AutoregModel, density_grid, joint_log_density
from .bnn import BayesianMLP, MLPArchitecture, init_posterior, sample_prior_cde
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .data import (
    Dataset,
    apply_stats,
    load_csv,
    normalize,
    save_csv,
    save_split_indices,
    split,
    toy_generator,
)
from .errors import ConfigError, DataError, FlowCdeError, NumericError
from .heads import make_head
from .training import (
    CdeModel,
    TrainConfig,
    model_sample,
    predictive_curve,
    predictive_log_density,
    train,
)

__all__ = ["main"]


# -- settings ------------------------------------------------------------------


def _parse_bool(s):
    if s in ("true", "false"):
        return s == "true"
    raise ValueError("expected true or false")


def _parse_names(s):
    return tuple(t.strip() for t in s.split(",") if t.strip())


def _parse_ints(s):
    return tuple(int(t) for t in s.split(",") if t.strip())


def _parse_floats(s):
    return tuple(float(t) for t in s.split(",") if t.strip())


def _parse_condition(s):
    return tuple(
        math.nan if t.strip() in ("nan", "?") else float(t)
        for t in s.split(",")
        if t.strip()
    )


_MODEL_KEYS = {
    "head": (str, "nf", "likelihood head: nf | mdn | lv | gauss"),
    "n_stages": (int, "5", "flow stages (nf head)"),
    "n_components": (int, "5", "mixture components (mdn head)"),
    "n_noise": (int, "5", "noise draws per datum (lv head)"),
    "noise_dim": (int, "1", "noise input dimension (lv head)"),
    "hidden": (_parse_ints, "50", "comma-separated hidden layer widths"),
    "mode": (str, "fixed", "posterior variance mode: fixed | learned"),
    "sigma_q": (float, "0.01", "initial posterior std"),
    "sigma_w": (float, "1.0", "prior std of hidden-layer weights"),
    "lambda": (float, "1.0", "output-weight scaling factor"),
    "sigma_beta": (float, "1.0", "prior std of the flow beta-hat outputs"),
}

_TRAIN_KEYS = {
    "learning_rate": (float, "0.005", "Adam learning rate"),
    "beta1": (float, "0.9", "Adam first-moment decay"),
    "beta2": (float, "0.99", "Adam second-moment decay"),
    "adam_eps": (float, "1e-8", "Adam denominator epsilon"),
    "iterations": (int, "5000", "training iterations"),
    "batch_size": (int, "0", "minibatch size (0 trains full-batch)"),
    "mc_train": (int, "20", "Monte Carlo draws per training step"),
    "mc_test": (int, "20", "Monte Carlo draws at evaluation time"),
    "seed": (int, "0", "seed for init and training noise"),
}

_DATA_KEYS = {
    "data": (str, "", "input CSV path (required)"),
    "features": (_parse_names, "", "feature columns (default: all non-target)"),
    "targets": (_parse_names, "y", "target column(s), 1 or 2 names"),
    "cyclic": (_parse_names, "", "feature columns encoded as hour-of-day"),
    "split": (_parse_floats, "0.8,0.1,0.1", "train/valid/test fractions"),
    "split_seed": (int, "0", "seed for the shuffled split"),
}

SETTINGS = {
    "train": {
        **_DATA_KEYS,
        **_MODEL_KEYS,
        **_TRAIN_KEYS,
        "order": (_parse_ints, "0,1", "chain order for 2-column targets"),
        "out": (str, "run", "output directory (under FLOWCDE_OUT)"),
    },
    "eval": {
        "checkpoint": (str, "", "checkpoint path (required)"),
        "data": (str, "", "held-out CSV path (required)"),
        "mc": (int, "20", "Monte Carlo draws per point"),
        "seed": (int, "0", "evaluation noise seed"),
        "raw_units": (_parse_bool, "true", "report LL in raw target units"),
        "out": (str, "eval", "output directory (under FLOWCDE_OUT)"),
    },
    "sample": {
        "checkpoint": (str, "", "checkpoint path (required)"),
        "condition": (_parse_condition, "", "feature values, raw units (required)"),
        "n": (int, "1000", "number of draws"),
        "mc": (int, "20", "network draws to mix over (a 2nd chain stage takes one per draw)"),
        "seed": (int, "0", "sampling seed"),
        "out": (str, "samples", "output directory (under FLOWCDE_OUT)"),
    },
    "heatmap": {
        "checkpoint": (str, "", "checkpoint path (required)"),
        "condition": (_parse_condition, "", "feature values; nan sweeps/marginalizes"),
        "x_min": (float, "-2.0", "swept-feature grid start (1D models)"),
        "x_max": (float, "2.0", "swept-feature grid end"),
        "x_points": (int, "40", "swept-feature grid size"),
        "y_min": (float, "-3.0", "target grid start"),
        "y_max": (float, "3.0", "target grid end"),
        "y_points": (int, "81", "target grid size"),
        "y2_min": (float, "-3.0", "second-target grid start (2D models)"),
        "y2_max": (float, "3.0", "second-target grid end"),
        "y2_points": (int, "81", "second-target grid size"),
        "marginal_samples": (int, "10", "draws for marginalized features (2D)"),
        "mc": (int, "20", "network draws to mix over"),
        "seed": (int, "0", "evaluation noise seed"),
        "cap": (float, "0", "cap emitted densities at this value (0 = uncapped)"),
        "raw_units": (_parse_bool, "true", "densities in raw target units"),
        "quantiles": (_parse_bool, "true", "also write per-x median and 95% band (1D)"),
        "out": (str, "heatmap", "output directory (under FLOWCDE_OUT)"),
    },
    "prior-sample": {
        "head": (str, "nf", "likelihood head: nf | mdn | gauss"),
        "n_stages": (int, "5", "flow stages (nf head)"),
        "n_components": (int, "5", "mixture components (mdn head)"),
        "hidden": (_parse_ints, "50", "comma-separated hidden layer widths"),
        "input_dim": (int, "1", "conditioning dimension"),
        "sigma_w": (float, "1.0", "prior std of hidden-layer weights"),
        "lambdas": (_parse_floats, "1.0", "lambda values to sweep"),
        "sigma_betas": (_parse_floats, "1.0", "beta-hat prior stds to sweep"),
        "seeds": (_parse_ints, "0", "parameter-draw seeds to sweep"),
        "x_min": (float, "-2.0", "conditioning grid start"),
        "x_max": (float, "2.0", "conditioning grid end"),
        "x_points": (int, "30", "conditioning grid size"),
        "y_min": (float, "-4.0", "target grid start"),
        "y_max": (float, "4.0", "target grid end"),
        "y_points": (int, "81", "target grid size"),
        "out": (str, "prior", "output directory (under FLOWCDE_OUT)"),
    },
    "grid-search": None,  # train keys plus grid.<key> lists; filled below
    "gen-toy": {
        "name": (str, "heteroscedastic-bimodal", "generator name"),
        "n": (int, "5000", "number of rows"),
        "seed": (int, "0", "generator seed"),
        "out": (str, "toy", "output directory (under FLOWCDE_OUT)"),
    },
}
SETTINGS["grid-search"] = dict(SETTINGS["train"])

_META_KEYS = ("command", "version", "data_sha256")


def parse_config_file(path):
    kv = {}
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}: line {lineno} is not 'key = value'")
        key, _, value = line.partition("=")
        kv[key.strip()] = value.strip()
    return kv


def resolve_settings(command, config_path, overrides):
    """(parsed values, raw strings, meta) after defaults <- file <- overrides."""
    spec = SETTINGS[command]
    provided = {}
    if config_path:
        provided.update(parse_config_file(config_path))
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not KEY=VALUE")
        key, _, value = item.partition("=")
        provided[key.strip()] = value.strip()

    meta = {k: provided.pop(k) for k in _META_KEYS if k in provided}
    if "command" in meta and meta["command"] != command:
        raise ConfigError(
            f"config file is for command {meta['command']!r}, not {command!r}"
        )

    grid = {}
    if command == "grid-search":
        for key in [k for k in provided if k.startswith("grid.")]:
            name = key[len("grid."):]
            if name not in spec:
                raise ConfigError(f"grid key {key!r} does not match a setting")
            grid[name] = provided.pop(key)

    unknown = sorted(k for k in provided if k not in spec)
    if unknown:
        raise ConfigError(
            f"unknown settings: {', '.join(unknown)} "
            f"(valid: {', '.join(sorted(spec))})"
        )

    raw = {k: default for k, (_, default, _) in spec.items()}
    raw.update(provided)
    values = {}
    for key, (parser, _, _) in spec.items():
        try:
            values[key] = parser(raw[key])
        except ValueError as err:
            raise ConfigError(f"setting {key}={raw[key]!r}: {err}") from None

    if grid:
        values["_grid_raw"] = grid
        raw.update({f"grid.{k}": v for k, v in grid.items()})
    return values, raw, meta


# -- shared plumbing -------------------------------------------------------------


def _out_dir(values):
    root = Path(os.environ.get("FLOWCDE_OUT", "."))
    out = root / values["out"]
    out.mkdir(parents=True, exist_ok=True)
    return out


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(path, command, raw, data_path=None):
    lines = [f"command = {command}", f"version = {__version__}"]
    if data_path is not None:
        lines.append(f"data_sha256 = {_sha256(data_path)}")
    for key in sorted(raw):
        lines.append(f"{key} = {raw[key]}")
    Path(path).write_text("\n".join(lines) + "\n")


def _check_data_hash(meta, data_path):
    if "data_sha256" in meta:
        actual = _sha256(data_path)
        if actual != meta["data_sha256"]:
            raise DataError(
                f"{data_path}: sha256 {actual} does not match the manifest's "
                f"{meta['data_sha256']}"
            )


def _require(values, key):
    if not values[key]:
        raise ConfigError(f"setting {key!r} is required")
    return values[key]


def _load_data(values):
    path = _require(values, "data")
    if not Path(path).exists():
        raise DataError(f"data file not found: {path}")
    targets = values["targets"]
    if len(targets) not in (1, 2):
        raise ConfigError("targets must name 1 or 2 columns")
    features = values["features"]
    if not features:
        with open(path) as fh:
            header = [h.strip() for h in fh.readline().split(",")]
        features = tuple(c for c in header if c and c not in targets)
    ds = load_csv(path, features, targets, values["cyclic"])
    if ds.rejected_rows:
        print(
            f"warning: dropped unparsable rows {list(ds.rejected_rows)}",
            file=sys.stderr,
        )
    return ds


def _train_config(values, seed):
    return TrainConfig(
        learning_rate=values["learning_rate"],
        adam_beta1=values["beta1"],
        adam_beta2=values["beta2"],
        adam_eps=values["adam_eps"],
        iterations=values["iterations"],
        batch_size=values["batch_size"] or None,
        mc_samples_train=values["mc_train"],
        mc_samples_test=values["mc_test"],
        seed=seed,
    )


def _build_model(values, n_inputs, seed):
    head = make_head(
        values["head"],
        n_stages=values["n_stages"],
        n_components=values["n_components"],
        n_noise=values["n_noise"],
        noise_dim=values["noise_dim"],
    )
    arch = MLPArchitecture(n_inputs + head.extra_input_dim, values["hidden"], head.output_dim)
    if values["mode"] not in ("fixed", "learned"):
        raise ConfigError(f"mode must be fixed or learned, got {values['mode']!r}")
    post = init_posterior(arch, seed=seed, sigma_init=values["sigma_q"], mode=values["mode"])
    prior = head.default_prior(values["sigma_w"], values["lambda"], values["sigma_beta"])
    net = BayesianMLP(arch, post, prior, head.group_map())
    return CdeModel(net, head, head.init_extras())


def _write_trace(path, traces):
    with open(path, "w") as fh:
        fh.write("stage,iteration,expected_nll,kl,free_energy\n")
        for stage, trace in enumerate(traces, start=1):
            for r in trace:
                fh.write(
                    f"{stage},{r.iteration},{r.expected_nll:.17g},"
                    f"{r.kl:.17g},{r.free_energy:.17g}\n"
                )


def _fit(values, out):
    """Load, split, normalize, train; write artifacts; return fitted pieces."""
    ds = _load_data(values)
    (train_ds, valid_ds, test_ds), parts = split(ds, values["split"], values["split_seed"])
    norm_train, stats = normalize(train_ds)
    save_split_indices(out / "split.txt", parts)
    save_csv(out / "valid.csv", valid_ds)
    save_csv(out / "test.csv", test_ds)

    seed = values["seed"]
    x = norm_train.x
    if len(values["targets"]) == 1:
        model = _build_model(values, x.shape[1], seed)
        traces = [train(model, x, norm_train.y[:, 0], _train_config(values, seed))]
        fitted = model
    else:
        order = values["order"]
        if sorted(order) != [0, 1]:
            raise ConfigError(f"order must be a permutation of 0,1, got {order}")
        y_first = norm_train.y[:, order[0]]
        y_second = norm_train.y[:, order[1]]
        stage1 = _build_model(values, x.shape[1], seed)
        stage2 = _build_model(values, x.shape[1] + 1, seed + 1)
        traces = [
            train(stage1, x, y_first, _train_config(values, seed)),
            train(
                stage2,
                np.column_stack([x, y_first]),
                y_second,
                _train_config(values, seed + 1),
            ),
        ]
        fitted = AutoregModel(stage1, stage2, order, values["targets"])
    _write_trace(out / "trace.csv", traces)
    ckpt = Checkpoint(fitted, stats, ds.feature_names, values["cyclic"], values["targets"])
    save_checkpoint(out / "checkpoint.ckpt", ckpt)
    return ckpt, valid_ds, test_ds


def _mean_ll(ckpt, raw_ds, mc, seed, raw_units):
    """Per-row log predictive densities; a non-finite row raises NumericError."""
    nds = apply_stats(ckpt.stats, raw_ds) if ckpt.stats else raw_ds
    rng = np.random.default_rng(seed)
    if ckpt.kind == "autoreg":
        ll = joint_log_density(ckpt.model, nds.x, nds.y, mc, rng)
    else:
        ll = predictive_log_density(ckpt.model, nds.x, nds.y[:, 0], mc, rng)
    if raw_units and ckpt.stats is not None:
        ll = ll + ckpt.stats.log_jacobian
    bad = np.flatnonzero(~np.isfinite(ll))
    if bad.size:
        i = int(bad[0])
        raise NumericError(
            f"row {i}: log predictive density is {ll[i]} "
            f"({bad.size} rows non-finite); refusing to report a mean",
            index=i,
        )
    return ll


def _normalize_rows(ckpt, rows):
    """Raw feature rows (no nan) -> normalized expanded feature rows."""
    if ckpt.stats is None:
        return rows
    kinds = tuple("cyclic-hour" if f in ckpt.cyclic else "numeric" for f in ckpt.features)
    probe = Dataset(rows, np.zeros((len(rows), len(ckpt.targets))),
                    feature_names=ckpt.features, target_names=ckpt.targets, kinds=kinds)
    return apply_stats(ckpt.stats, probe).x


def _normalize_condition(ckpt, condition):
    """Raw-unit condition (nan allowed) -> normalized expanded feature row."""
    n_raw = len(ckpt.features)
    if len(condition) != n_raw:
        raise ConfigError(
            f"condition needs {n_raw} values for features {ckpt.features}, "
            f"got {len(condition)}"
        )
    row = np.asarray(condition, dtype=float)
    filled = np.where(np.isnan(row), 0.0, row)  # placeholder through the pipeline
    out = _normalize_rows(ckpt, filled[None, :])[0]
    # restore nan marks on the expanded columns of missing raw features
    expanded_from = []
    for f in ckpt.features:
        expanded_from += [f, f] if f in ckpt.cyclic else [f]
    missing = {f for f, v in zip(ckpt.features, row) if math.isnan(v)}
    for j, f in enumerate(expanded_from):
        if f in missing:
            out[j] = math.nan
    return out


# -- commands -----------------------------------------------------------------------


def cmd_train(values, raw, meta):
    data = _require(values, "data")
    _check_data_hash(meta, data)
    out = _out_dir(values)
    ckpt, _, _ = _fit(values, out)
    _write_manifest(out / "manifest.cfg", "train", raw, data)
    print(f"wrote {out / 'checkpoint.ckpt'}, trace.csv, manifest.cfg")
    return 0


def cmd_eval(values, raw, meta):
    ckpt = load_checkpoint(_require(values, "checkpoint"))
    data = _require(values, "data")
    if not Path(data).exists():
        raise DataError(f"data file not found: {data}")
    _check_data_hash(meta, data)
    ds = load_csv(data, ckpt.features, ckpt.targets, ckpt.cyclic)
    ll = _mean_ll(ckpt, ds, values["mc"], values["seed"], values["raw_units"])
    n = ll.size
    mean = float(ll.mean())
    sem = float(ll.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    out = _out_dir(values)
    with open(out / "pointwise.csv", "w") as fh:
        fh.write("i,ll\n")
        for i, v in enumerate(ll):
            fh.write(f"{i},{v:.17g}\n")
    (out / "summary.txt").write_text(
        f"n = {n}\nmean_ll = {mean:.17g}\nsem = {sem:.17g}\n"
        f"raw_units = {str(values['raw_units']).lower()}\n"
    )
    _write_manifest(out / "manifest.cfg", "eval", raw, data)
    print(f"mean_ll = {mean:.6f} +- {sem:.6f} (n={n})")
    return 0


def cmd_sample(values, raw, meta):
    ckpt = load_checkpoint(_require(values, "checkpoint"))
    if not values["condition"]:
        raise ConfigError("setting 'condition' is required")
    x_row = _normalize_condition(ckpt, values["condition"])
    if np.isnan(x_row).any():
        raise ConfigError("sampling requires a fully specified condition")
    rng = np.random.default_rng(values["seed"])
    n, mc = values["n"], values["mc"]
    stats = ckpt.stats
    if ckpt.kind == "autoreg":
        model = ckpt.model
        first = model_sample(model.stage1, x_row, n, mc, rng)
        rows = np.column_stack([np.broadcast_to(x_row, (n, x_row.size)), first])
        second = model_sample(model.stage2, rows, n, mc, rng)
        cols = np.empty((n, 2))
        cols[:, model.order[0]] = first
        cols[:, model.order[1]] = second
    else:
        cols = model_sample(ckpt.model, x_row, n, mc, rng)[:, None]
    if stats is not None:
        cols = cols * stats.y_std + stats.y_mean
    out = _out_dir(values)
    with open(out / "samples.csv", "w") as fh:
        fh.write(",".join(ckpt.targets) + "\n")
        for r in cols:
            fh.write(",".join(format(v, ".17g") for v in r) + "\n")
    _write_manifest(out / "manifest.cfg", "sample", raw)
    print(f"wrote {n} draws to {out / 'samples.csv'}")
    return 0


def _invert_cdf(grid, cdf, q):
    """Bisect the linearly interpolated CDF; grid ascending, cdf normalized."""
    lo, hi = float(grid[0]), float(grid[-1])
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if np.interp(mid, grid, cdf) < q:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _refuse_nan(dens):
    bad = np.argwhere(np.isnan(dens))
    if bad.size:
        raise NumericError(
            f"density at grid cell {tuple(int(i) for i in bad[0])} is NaN "
            f"({len(bad)} cells); refusing to write a heatmap"
        )


def _quantile_row(grid, log_pdf, row):
    """(median, q025, q975) of one density row by trapezoid quadrature."""
    pdf = np.exp(log_pdf)
    cdf = np.concatenate([[0.0], np.cumsum(np.diff(grid) * 0.5 * (pdf[1:] + pdf[:-1]))])
    if not 0.0 < cdf[-1] < math.inf:
        raise NumericError(
            f"heatmap row {row}: density integrates to {cdf[-1]} over the target "
            "grid; refusing to write quantiles"
        )
    cdf /= cdf[-1]
    return [_invert_cdf(grid, cdf, q) for q in (0.5, 0.025, 0.975)]


def _heatmap_1d(values, ckpt, out):
    stats = ckpt.stats
    cond = values["condition"] or (math.nan,) * len(ckpt.features)
    sweep = [i for i, v in enumerate(cond) if math.isnan(v)]
    if len(sweep) != 1:
        raise ConfigError(
            "1D heatmaps sweep exactly one feature: mark it nan in 'condition'"
        )
    j = sweep[0]
    if ckpt.features[j] in ckpt.cyclic:
        raise ConfigError("cannot sweep a cyclic feature")
    x_grid = np.linspace(values["x_min"], values["x_max"], values["x_points"])
    rows_raw = np.tile(np.asarray(cond, dtype=float), (x_grid.size, 1))
    rows_raw[:, j] = x_grid
    xn = _normalize_rows(ckpt, rows_raw)
    y_grid = np.linspace(values["y_min"], values["y_max"], values["y_points"])
    y_mu = stats.y_mean[0] if stats else 0.0
    y_sd = stats.y_std[0] if stats else 1.0
    yn = (y_grid - y_mu) / y_sd
    rng = np.random.default_rng(values["seed"])
    curves = predictive_curve(ckpt.model, xn, yn, values["mc"], rng)  # (Gx, Gy) log
    _refuse_nan(curves)
    want_q = values["quantiles"]
    quantiles = [_quantile_row(yn, c, a) for a, c in enumerate(curves)] if want_q else []
    dens = np.exp(curves)
    if values["raw_units"]:
        dens = dens / y_sd
    emitted = np.minimum(dens, values["cap"]) if values["cap"] > 0 else dens
    with open(out / "heatmap.csv", "w") as fh:
        fh.write("x,y,density\n")
        for a in range(x_grid.size):
            for b in range(y_grid.size):
                fh.write(
                    f"{x_grid[a]:.17g},{y_grid[b]:.17g},{emitted[a, b]:.17g}\n"
                )
    if want_q:
        with open(out / "quantiles.csv", "w") as fh:
            fh.write("x,median,q025,q975\n")
            for a, row in enumerate(quantiles):
                qs = [q * y_sd + y_mu for q in row]
                fh.write(
                    f"{x_grid[a]:.17g},{qs[0]:.17g},{qs[1]:.17g},{qs[2]:.17g}\n"
                )


def _heatmap_2d(values, ckpt, out):
    stats = ckpt.stats
    model = ckpt.model
    cond = values["condition"] or (math.nan,) * len(ckpt.features)
    row = _normalize_condition(ckpt, tuple(cond))
    a_idx, b_idx = model.order
    g_a = np.linspace(values["y_min"], values["y_max"], values["y_points"])
    g_b = np.linspace(values["y2_min"], values["y2_max"], values["y2_points"])
    if stats is not None:
        gan = (g_a - stats.y_mean[a_idx]) / stats.y_std[a_idx]
        gbn = (g_b - stats.y_mean[b_idx]) / stats.y_std[b_idx]
        jac = stats.y_std[a_idx] * stats.y_std[b_idx]
    else:
        gan, gbn, jac = g_a, g_b, 1.0
    dens = density_grid(
        model,
        row,
        gan,
        gbn,
        marginal_samples=values["marginal_samples"],
        mc=values["mc"],
        rng=np.random.default_rng(values["seed"]),
    )
    _refuse_nan(dens)
    if values["raw_units"]:
        dens = dens / jac
    if values["cap"] > 0:
        dens = np.minimum(dens, values["cap"])
    names = model.chain_names
    with open(out / "heatmap.csv", "w") as fh:
        fh.write(f"{names[0]},{names[1]},density\n")
        for a in range(g_a.size):
            for b in range(g_b.size):
                fh.write(f"{g_a[a]:.17g},{g_b[b]:.17g},{dens[a, b]:.17g}\n")


def cmd_heatmap(values, raw, meta):
    ckpt = load_checkpoint(_require(values, "checkpoint"))
    out = _out_dir(values)
    if values["condition"] and len(values["condition"]) != len(ckpt.features):
        raise ConfigError(
            f"condition needs {len(ckpt.features)} values, got {len(values['condition'])}"
        )
    if ckpt.kind == "autoreg":
        _heatmap_2d(values, ckpt, out)
    else:
        _heatmap_1d(values, ckpt, out)
    _write_manifest(out / "manifest.cfg", "heatmap", raw)
    print(f"wrote {out / 'heatmap.csv'}")
    return 0


def cmd_prior_sample(values, raw, meta):
    head = make_head(
        values["head"],
        n_stages=values["n_stages"],
        n_components=values["n_components"],
    )
    if head.extra_input_dim:
        raise ConfigError(
            f"head {head.name!r} takes noise inputs of its own; it has no prior visualization"
        )
    arch = MLPArchitecture(values["input_dim"], values["hidden"], head.output_dim)
    x_grid = np.linspace(values["x_min"], values["x_max"], values["x_points"])
    y_grid = np.linspace(values["y_min"], values["y_max"], values["y_points"])
    out = _out_dir(values)
    written = []
    for seed in values["seeds"]:
        for lam in values["lambdas"]:
            for sb in values["sigma_betas"]:
                prior = head.default_prior(values["sigma_w"], lam, sb)
                dens = sample_prior_cde(arch, prior, head, seed, x_grid, y_grid)
                name = f"prior_seed{seed}_lambda{lam:g}_beta{sb:g}.csv"
                with open(out / name, "w") as fh:
                    fh.write("x,y,density\n")
                    for a in range(x_grid.size):
                        for b in range(y_grid.size):
                            fh.write(
                                f"{x_grid[a]:.17g},{y_grid[b]:.17g},{dens[a, b]:.17g}\n"
                            )
                written.append(name)
    _write_manifest(out / "manifest.cfg", "prior-sample", raw)
    print(f"wrote {len(written)} prior grids to {out}")
    return 0


def cmd_grid_search(values, raw, meta):
    data = _require(values, "data")
    _check_data_hash(meta, data)
    grid_raw = values.pop("_grid_raw", {})
    if not grid_raw:
        raise ConfigError("grid-search needs at least one grid.<setting> list")
    spec = SETTINGS["train"]
    axes = []
    for key in sorted(grid_raw):
        parser = spec[key][0]
        options = [v.strip() for v in grid_raw[key].split(";") if v.strip()]
        if not options:
            raise ConfigError(f"grid.{key} is empty")
        axes.append([(key, opt) for opt in options])
    combos = list(product(*axes))
    out = _out_dir(values)
    results = []
    for idx, combo in enumerate(combos):
        sub_raw = dict(raw)
        sub_raw.pop("out", None)
        sub_values = dict(values)
        for key, opt in combo:
            sub_values[key] = spec[key][0](opt)
            sub_raw[key] = opt
        sub_values["out"] = str(Path(values["out"]) / f"combo_{idx:03d}")
        sub_raw["out"] = sub_values["out"]
        sub_raw = {k: v for k, v in sub_raw.items() if not k.startswith("grid.")}
        combo_out = _out_dir(sub_values)
        ckpt, valid_ds, test_ds = _fit(sub_values, combo_out)
        _write_manifest(combo_out / "manifest.cfg", "train", sub_raw, data)
        valid_ll = float(
            _mean_ll(ckpt, valid_ds, values["mc_test"], values["seed"], True).mean()
        )
        test_ll = float(
            _mean_ll(ckpt, test_ds, values["mc_test"], values["seed"], True).mean()
        )
        results.append((idx, combo, valid_ll, test_ll))
    results.sort(key=lambda r: (-r[2], r[0]))
    keys = sorted(grid_raw)
    with open(out / "results.csv", "w") as fh:
        fh.write("rank,combo," + ",".join(keys) + ",valid_ll,test_ll\n")
        for rank, (idx, combo, vll, tll) in enumerate(results, start=1):
            opts = {k: o for k, o in combo}
            fh.write(
                f"{rank},{idx}," + ",".join(opts[k].replace(",", ";") for k in keys)
                + f",{vll:.17g},{tll:.17g}\n"
            )
    best_idx = results[0][0]
    best_dir = out / f"combo_{best_idx:03d}"
    shutil.copyfile(best_dir / "checkpoint.ckpt", out / "best_checkpoint.ckpt")
    shutil.copyfile(best_dir / "manifest.cfg", out / "best_manifest.cfg")
    _write_manifest(out / "manifest.cfg", "grid-search", raw, data)
    print(
        f"best combo {best_idx}: valid_ll = {results[0][2]:.6f}, "
        f"test_ll = {results[0][3]:.6f}"
    )
    return 0


def cmd_gen_toy(values, raw, meta):
    ds, truth = toy_generator(values["name"], values["n"], values["seed"])
    out = _out_dir(values)
    save_csv(out / "data.csv", ds)
    with open(out / "truth.csv", "w") as fh:
        fh.write(",".join(ds.feature_names) + ",true_ll\n")
        for i in range(ds.n):
            fh.write(
                ",".join(format(v, ".17g") for v in ds.x[i])
                + f",{truth[i]:.17g}\n"
            )
    _write_manifest(out / "manifest.cfg", "gen-toy", raw)
    print(f"wrote {ds.n} rows to {out / 'data.csv'}")
    return 0


_DISPATCH = {
    "train": cmd_train,
    "eval": cmd_eval,
    "sample": cmd_sample,
    "heatmap": cmd_heatmap,
    "prior-sample": cmd_prior_sample,
    "grid-search": cmd_grid_search,
    "gen-toy": cmd_gen_toy,
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="flowcde",
        description="Conditional density estimation with flow-headed Bayesian networks.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, spec in SETTINGS.items():
        p = sub.add_parser(name, help=f"{name} (see 'settings' below)")
        p.add_argument("--config", default=None, help="flat key = value settings file")
        p.add_argument(
            "overrides",
            nargs="*",
            metavar="KEY=VALUE",
            help="settings overriding the config file",
        )
        lines = [
            f"  {k:<18} default {d!r:<12} {h}" for k, (_, d, h) in sorted(spec.items())
        ]
        p.epilog = "settings:\n" + "\n".join(lines)
        p.formatter_class = argparse.RawDescriptionHelpFormatter
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        values, raw, meta = resolve_settings(args.command, args.config, args.overrides)
        return _DISPATCH[args.command](values, raw, meta)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except DataError as err:
        print(f"data error: {err}", file=sys.stderr)
        return 3
    except NumericError as err:
        print(f"numeric error: {err}", file=sys.stderr)
        return 4
    except FlowCdeError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
