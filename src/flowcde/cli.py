"""Command-line interface.

Subcommands: train, eval, sample, heatmap, prior-sample, grid-search, gen-toy.

Settings come from a flat `key = value` config file (--config) overridden by
positional key=value arguments; every key has a documented default and
domain (a value outside it exits 2 before the command runs), and unknown keys
are reported exhaustively in one error.  A command computes its outputs and
returns them as (name, writer) pairs; `main` alone then makes the output
directory and writes them, with a manifest (the fully resolved settings plus
the data file's sha256) that re-runs to bit-identical outputs on the same
platform.  So a command that fails leaves no file behind.

Exit codes: 0 success, 2 configuration error or invalid setting value, 3 data
error (a bad checkpoint too), 4 numeric error, 1 anything else.  The output
root defaults to the working directory and can be moved with the FLOWCDE_OUT
environment variable.

`run` is the process entry (`flowcde` and `python -m flowcde.cli`); unlike it,
an in-process `main(argv)` call leaves the garbage collector as it finds it.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import math
import os
import sys
from itertools import product
from pathlib import Path

import numpy as np

from . import __version__
from .autoreg import density_grid, fit_chain, joint_log_density, sample_chain
from .bnn import MLPArchitecture, sample_prior_cde
from .checkpoint import Checkpoint, format_names, load_checkpoint, save_checkpoint
from .data import (
    TOY_GENERATORS,
    apply_stats,
    denormalize_targets,
    load_csv,
    normalize,
    normalize_features,
    normalize_targets,
    save_csv,
    save_split_indices,
    split,
    toy_generator,
    write_grid,
    write_table,
)
from .errors import ConfigError, DataError, FlowCdeError, NumericError, StructuralError
from .heads import HEAD_SETTINGS, make_head
from .training import CdeModel, TrainConfig, predictive_curve, predictive_log_density

__all__ = ["main", "run"]


# -- settings ------------------------------------------------------------------


def _checked(parse, rule, ok):
    """`parse`, refusing a value for which `ok` is false; `rule` names the
    setting's domain in the refusal and in --help."""
    def check(s):
        value = parse(s)
        if not ok(value):
            raise ValueError(f"must be {rule}")
        return value
    check.rule = rule
    return check


def _items(parse):
    """A comma-separated list, each item through `parse`."""
    return lambda s: tuple(parse(t.strip()) for t in s.split(",") if t.strip())


def _swept(parse):
    return _checked(_items(parse), f"a non-empty list, each {parse.rule}", bool)


def _choice(*names):
    return _checked(str, "one of " + ", ".join(names), names.__contains__)


def _parse_bool(s):
    if s in ("true", "false"):
        return s == "true"
    raise ValueError("expected true or false")


_COUNT = _checked(int, "an integer >= 0", lambda v: v >= 0)
_POSITIVE_INT = _checked(int, "an integer >= 1", lambda v: v >= 1)
_FINITE = _checked(float, "a finite number", math.isfinite)
_POSITIVE = _checked(float, "a finite number > 0", lambda v: 0 < v < math.inf)
_NON_NEGATIVE = _checked(float, "a finite number >= 0", lambda v: 0 <= v < math.inf)
_DECAY = _checked(float, "a number in [0, 1)", lambda v: 0 <= v < 1)
_NAMES = _items(str)
_CONDITION = _checked(_items(lambda t: math.nan if t == "?" else float(t)),
                      "a list of finite numbers, nan or ?", lambda c: not any(map(math.isinf, c)))
_SPLIT = _checked(_items(float), "three fractions >= 0 that sum to 1",  # data.split's rule
                  lambda f: len(f) == 3 and min(f) >= 0 and abs(sum(f) - 1.0) <= 1e-9)

_MODEL_KEYS = {
    "head": (_choice("nf", "mdn", "lv", "gauss"), "nf", "likelihood head"),
    "n_stages": (_COUNT, "5", "flow stages (nf head)"),
    "n_components": (_POSITIVE_INT, "5", "mixture components (mdn head)"),
    "n_noise": (_POSITIVE_INT, "5", "noise draws per datum (lv head)"),
    "noise_dim": (_POSITIVE_INT, "1", "noise input dimension (lv head)"),
    "hidden": (_checked(_items(int), "integers >= 1", lambda w: all(h >= 1 for h in w)), "50",
               "comma-separated hidden layer widths"),
    "mode": (_choice("fixed", "learned"), "fixed", "posterior variance mode"),
    "sigma_q": (_POSITIVE, "0.01", "initial posterior std"),
    "sigma_w": (_POSITIVE, "1.0", "prior std of hidden-layer weights"),
    "lambda": (_NON_NEGATIVE, "1.0", "output-weight scaling factor"),
    "sigma_beta": (_NON_NEGATIVE, "1.0", "prior std of the flow beta-hat outputs"),
}

_TRAIN_KEYS = {
    "learning_rate": (_POSITIVE, "0.005", "Adam learning rate"),
    "beta1": (_DECAY, "0.9", "Adam first-moment decay"),
    "beta2": (_DECAY, "0.99", "Adam second-moment decay"),
    "adam_eps": (_POSITIVE, "1e-8", "Adam denominator epsilon"),
    "iterations": (_COUNT, "5000", "training iterations"),
    "batch_size": (_COUNT, "0", "minibatch size (0 trains full-batch)"),
    "mc_train": (_POSITIVE_INT, "20", "Monte Carlo draws per training step"),
    "mc_test": (_POSITIVE_INT, "20", "Monte Carlo draws at evaluation time"),
    "seed": (_COUNT, "0", "seed for init and training noise"),
}

_DATA_KEYS = {
    "data": (str, "", "input CSV path (required)"),
    "features": (_NAMES, "", "feature columns (default: all non-target)"),
    "targets": (_checked(_NAMES, "1 or 2 names", lambda t: len(t) in (1, 2)), "y",
                "target column(s)"),
    "cyclic": (_NAMES, "", "feature columns encoded as hour-of-day"),
    "split": (_SPLIT, "0.8,0.1,0.1", "train/valid/test fractions"),
    "split_seed": (_COUNT, "0", "seed for the shuffled split"),
}

SETTINGS = {
    "train": {
        **_DATA_KEYS,
        **_MODEL_KEYS,
        **_TRAIN_KEYS,
        "order": (_items(int), "0,1", "chain order for 2-column targets"),
        "out": (str, "run", "output directory (under FLOWCDE_OUT)"),
    },
    "eval": {
        "checkpoint": (str, "", "checkpoint path (required)"),
        "data": (str, "", "held-out CSV path (required)"),
        "mc": (_POSITIVE_INT, "20", "Monte Carlo draws per point"),
        "seed": (_COUNT, "0", "evaluation noise seed"),
        "raw_units": (_parse_bool, "true", "report LL in raw target units"),
        "out": (str, "eval", "output directory (under FLOWCDE_OUT)"),
    },
    "sample": {
        "checkpoint": (str, "", "checkpoint path (required)"),
        "condition": (_CONDITION, "", "feature values, raw units (required)"),
        "n": (_POSITIVE_INT, "1000", "number of draws"),
        "mc": (_POSITIVE_INT, "20",
               "network draws to mix over (a 2nd chain stage takes one per draw)"),
        "seed": (_COUNT, "0", "sampling seed"),
        "out": (str, "samples", "output directory (under FLOWCDE_OUT)"),
    },
    "heatmap": {
        "checkpoint": (str, "", "checkpoint path (required)"),
        "condition": (_CONDITION, "", "feature values; nan sweeps/marginalizes"),
        "x_min": (_FINITE, "-2.0", "swept-feature grid start (1D models)"),
        "x_max": (_FINITE, "2.0", "swept-feature grid end"),
        "x_points": (_POSITIVE_INT, "40", "swept-feature grid size"),
        "y_min": (_FINITE, "-3.0", "target grid start"),
        "y_max": (_FINITE, "3.0", "target grid end"),
        "y_points": (_POSITIVE_INT, "81", "target grid size"),
        "y2_min": (_FINITE, "-3.0", "second-target grid start (2D models)"),
        "y2_max": (_FINITE, "3.0", "second-target grid end"),
        "y2_points": (_POSITIVE_INT, "81", "second-target grid size"),
        "marginal_samples": (_POSITIVE_INT, "10",
                             "draws for the nan features of a 2D condition; unused when it "
                             "has none"),
        "mc": (_POSITIVE_INT, "20", "network draws to mix over"),
        "seed": (_COUNT, "0", "evaluation noise seed"),
        "cap": (_NON_NEGATIVE, "0", "cap emitted densities at this value (0 = uncapped)"),
        "raw_units": (_parse_bool, "true", "densities in raw target units"),
        "quantiles": (_parse_bool, "true", "also write per-x median and 95% band (1D)"),
        "out": (str, "heatmap", "output directory (under FLOWCDE_OUT)"),
    },
    "prior-sample": {
        "head": (_choice("nf", "mdn", "gauss"), "nf", "likelihood head"),
        **{k: _MODEL_KEYS[k] for k in ("n_stages", "n_components", "hidden", "sigma_w")},
        "lambdas": (_swept(_NON_NEGATIVE), "1.0", "lambda values to sweep"),
        "sigma_betas": (_swept(_NON_NEGATIVE), "1.0", "beta-hat prior stds to sweep"),
        "seeds": (_swept(_COUNT), "0", "parameter-draw seeds to sweep"),
        "x_min": (_FINITE, "-2.0", "conditioning grid start"),
        "x_max": (_FINITE, "2.0", "conditioning grid end"),
        "x_points": (_POSITIVE_INT, "30", "conditioning grid size"),
        "y_min": (_FINITE, "-4.0", "target grid start"),
        "y_max": (_FINITE, "4.0", "target grid end"),
        "y_points": (_POSITIVE_INT, "81", "target grid size"),
        "out": (str, "prior", "output directory (under FLOWCDE_OUT)"),
    },
    "grid-search": None,  # train keys plus grid.<key> lists; filled below
    "gen-toy": {
        "name": (_choice(*TOY_GENERATORS), "heteroscedastic-bimodal", "generator name"),
        "n": (_POSITIVE_INT, "5000", "number of rows"),
        "seed": (_COUNT, "0", "generator seed"),
        "out": (str, "toy", "output directory (under FLOWCDE_OUT)"),
    },
}
SETTINGS["grid-search"] = dict(SETTINGS["train"])
# every grid-search combination trains on one read of the data and is scored
# with one mc_test into one out, so none of these can vary between them
_SHARED_KEYS = (*_DATA_KEYS, "out", "mc_test")

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
            if name in _SHARED_KEYS:
                raise ConfigError(
                    f"grid key {key!r} cannot vary: every combination shares the "
                    f"settings {', '.join(_SHARED_KEYS)}"
                )
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

    raw.update({f"grid.{k}": v for k, v in grid.items()})
    return values, raw, meta


# -- shared plumbing -------------------------------------------------------------


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


# Writers: each takes the file's path and writes what it was built with.


def _manifest(command, raw, digest=None):
    lines = [f"command = {command}", f"version = {__version__}"]
    if digest is not None:
        lines.append(f"data_sha256 = {digest}")
    text = "\n".join(lines + [f"{key} = {raw[key]}" for key in sorted(raw)]) + "\n"
    return lambda path: path.write_text(text)


def _table(header, columns):
    """CSV of equal-length columns under a header line."""
    def write(path):
        with open(path, "w") as fh:
            fh.write(header + "\n")
            write_table(fh, columns)
    return write


def _grid(names, g1, g2, dens):
    """CSV of one density per (g1[a], g2[b]) cell, a-major, at %.17g."""
    def write(path):
        with open(path, "w") as fh:
            fh.write(f"{names[0]},{names[1]},density\n")
            write_grid(fh, g1, g2, dens)
    return write


def _axis(values, name):
    """The `name` grid: `name`_points nodes from `name`_min to `name`_max.
    A span that overflows a float would make NaN nodes, so it is refused."""
    lo, hi = values[f"{name}_min"], values[f"{name}_max"]
    if not math.isfinite(hi - lo):
        raise ConfigError(
            f"setting {name}_max={hi!r}: the span from {name}_min={lo!r} overflows a float"
        )
    return np.linspace(lo, hi, values[f"{name}_points"])


def _require(values, key):
    if not values[key]:
        raise ConfigError(f"setting {key!r} is required")
    return values[key]


def _data_file(values, meta):
    """The required data file; it must exist and, when the manifest records
    a sha256, match it."""
    path = _require(values, "data")
    if not Path(path).is_file():
        raise DataError(f"data file not found: {path}")
    if "data_sha256" in meta:
        actual = _sha256(path)
        if actual != meta["data_sha256"]:
            raise DataError(
                f"{path}: sha256 {actual} does not match the manifest's "
                f"{meta['data_sha256']}"
            )
    return path


def _read_csv(path, features, targets, cyclic):
    """load_csv, warning on stderr about the rows it dropped."""
    ds = load_csv(path, features, targets, cyclic)
    if ds.rejected_rows:
        print(
            f"warning: dropped unparsable rows {list(ds.rejected_rows)}",
            file=sys.stderr,
        )
    return ds


def _train_config(values):
    return TrainConfig(
        learning_rate=values["learning_rate"],
        adam_beta1=values["beta1"],
        adam_beta2=values["beta2"],
        adam_eps=values["adam_eps"],
        iterations=values["iterations"],
        batch_size=values["batch_size"] or None,
        mc_samples_train=values["mc_train"],
        seed=values["seed"],
    )


def _head(values):
    return make_head(values["head"], **{k: values[k] for k in HEAD_SETTINGS if k in values})


def _prior(values, head):
    """The head's default prior; training needs every group std > 0 (the KL
    is undefined otherwise), and only sigma_beta can make one 0."""
    prior = head.default_prior(values["sigma_w"], values["lambda"], values["sigma_beta"])
    flat = [name for name, g in prior.groups.items() if g.std <= 0]
    if flat:
        raise ConfigError(
            f"setting sigma_beta={values['sigma_beta']!r}: must be > 0 with head {head.name}, "
            f"whose prior then gives output group(s) {', '.join(flat)} a zero std"
        )
    return prior


def _load(values, meta):
    """Read, split and normalize the data file; returns (feature names, split
    indices, (train, valid, test) raw rows, normalized train rows, stats)."""
    ds = _read_csv(_data_file(values, meta), values["features"], values["targets"],
                   values["cyclic"])
    format_names(ds.feature_names + values["targets"])  # names the checkpoint can store
    parts_ds, parts = split(ds, values["split"], values["split_seed"])
    return (ds.feature_names, parts, parts_ds, *normalize(parts_ds[0]))


def _fit(values, head, prior, loaded):
    """Train on loaded data; returns the run's files and its checkpoint."""
    features, parts, (_, valid_ds, test_ds), norm_train, stats = loaded
    targets = values["targets"]
    model, traces = fit_chain(
        lambda n_inputs, seed: CdeModel.build(head, n_inputs, values["hidden"], seed,
                                              values["sigma_q"], values["mode"], prior),
        norm_train.x, norm_train.y, _train_config(values), values["order"], targets,
    )
    ckpt = Checkpoint(model, stats, features, values["cyclic"], targets)
    stages = [s for s, trace in enumerate(traces, start=1) for _ in trace]
    reports = [r for trace in traces for r in trace]
    trace = np.array([(r.expected_nll, r.kl, r.free_energy) for r in reports]).reshape(-1, 3)
    return [
        ("split.txt", lambda path: save_split_indices(path, parts)),
        ("valid.csv", lambda path: save_csv(path, valid_ds)),
        ("test.csv", lambda path: save_csv(path, test_ds)),
        ("trace.csv", _table("stage,iteration,expected_nll,kl,free_energy",
                             [stages, [r.iteration for r in reports], *trace.T])),
        ("checkpoint.ckpt", lambda path: save_checkpoint(path, ckpt)),
    ], ckpt


def _mean_ll(ckpt, raw_ds, mc, seed, raw_units):
    """Per-row log predictive densities; a non-finite row raises NumericError."""
    nds = apply_stats(ckpt.norm, raw_ds)
    rng = np.random.default_rng(seed)
    if ckpt.kind == "autoreg":
        ll = joint_log_density(ckpt.model, nds.x, nds.y, mc, rng)
    else:
        ll = predictive_log_density(ckpt.model, nds.x, nds.y[:, 0], mc, rng)
    if raw_units:
        ll = ll + ckpt.norm.log_jacobian
    bad = np.flatnonzero(~np.isfinite(ll))
    if bad.size:
        i = int(bad[0])
        raise NumericError(
            f"row {i}: log predictive density is {ll[i]} "
            f"({bad.size} rows non-finite); refusing to report a mean",
            index=i,
        )
    return ll


def _condition(ckpt, condition):
    """The raw-unit condition, all nan when unset; it needs one value per
    feature."""
    n_raw = len(ckpt.features)
    condition = condition or (math.nan,) * n_raw
    if len(condition) != n_raw:
        raise ConfigError(
            f"condition needs {n_raw} values for features {ckpt.features}, "
            f"got {len(condition)}"
        )
    return condition


def _normalize_condition(ckpt, condition):
    """Raw-unit condition (nan allowed) -> normalized expanded feature row."""
    return normalize_features(ckpt.norm, condition, ckpt.features, ckpt.cyclic)[0]


# -- commands -----------------------------------------------------------------------
#
# Each command returns (files, message): its outputs as (name relative to the
# output directory, writer) pairs, and the line to print given that directory.


def cmd_train(values, raw, meta):
    head = _head(values)
    files, _ = _fit(values, head, _prior(values, head), _load(values, meta))
    return files, lambda out: f"wrote {out / 'checkpoint.ckpt'}, trace.csv, manifest.cfg"


def cmd_eval(values, raw, meta):
    ckpt = load_checkpoint(_require(values, "checkpoint"))
    ds = _read_csv(_data_file(values, meta), ckpt.features, ckpt.targets, ckpt.cyclic)
    ll = _mean_ll(ckpt, ds, values["mc"], values["seed"], values["raw_units"])
    n = ll.size
    mean = float(ll.mean())
    sem = float(ll.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    summary = (f"n = {n}\nmean_ll = {mean:.17g}\nsem = {sem:.17g}\n"
               f"raw_units = {str(values['raw_units']).lower()}\n")
    return [
        ("pointwise.csv", _table("i,ll", [range(n), ll])),
        ("summary.txt", lambda path: path.write_text(summary)),
    ], lambda out: f"mean_ll = {mean:.6f} +- {sem:.6f} (n={n})"


def cmd_sample(values, raw, meta):
    ckpt = load_checkpoint(_require(values, "checkpoint"))
    x_row = _normalize_condition(ckpt, _condition(ckpt, _require(values, "condition")))
    if np.isnan(x_row).any():
        raise ConfigError("sampling requires a fully specified condition")
    rng = np.random.default_rng(values["seed"])
    n = values["n"]
    cols = denormalize_targets(ckpt.norm, sample_chain(ckpt.model, x_row, n, values["mc"], rng))
    return ([("samples.csv", _table(",".join(ckpt.targets), cols.T))],
            lambda out: f"wrote {n} draws to {out / 'samples.csv'}")


def _refuse_nan(dens, name="heatmap.csv"):
    bad = np.argwhere(np.isnan(dens))
    if bad.size:
        raise NumericError(
            f"density at grid cell {tuple(int(i) for i in bad[0])} of {name} is NaN "
            f"({len(bad)} cells); refusing to write it"
        )


_QUANTILE_LEVELS = np.array([0.5, 0.025, 0.975])


def _quantiles(grid, pdf):
    """(rows, 3) median, q025 and q975 of each density row (rows, G).

    The CDF is the trapezoid quadrature of each row on the ascending grid,
    normalized, and read between nodes as np.interp reads it; each level is
    found by 100 bisection halvings of [grid[0], grid[-1]], all rows at once.
    """
    steps = np.diff(grid)
    cdf = np.zeros(pdf.shape)
    np.cumsum(steps * 0.5 * (pdf[:, 1:] + pdf[:, :-1]), axis=1, out=cdf[:, 1:])
    mass = cdf[:, -1]
    bad = np.flatnonzero(~((0.0 < mass) & (mass < math.inf)))
    if bad.size:
        row = int(bad[0])
        raise NumericError(
            f"heatmap row {row}: density integrates to {mass[row]} over the target "
            "grid; refusing to write quantiles"
        )
    cdf /= cdf[:, -1:]
    first = np.arange(pdf.shape[0])[:, None] * grid.size  # flat index of each row
    lo = np.full((pdf.shape[0], _QUANTILE_LEVELS.size), grid[0])
    hi = np.full_like(lo, grid[-1])
    # A step too short for its CDF rise gives an inf slope, and inf * 0 on a
    # node; np.interp returns the node value there, and so does np.where.
    with np.errstate(over="ignore", invalid="ignore"):
        slope = np.zeros(pdf.shape)  # slope[:, j] holds on [grid[j], grid[j + 1])
        slope[:, :-1] = np.diff(cdf, axis=1) / steps
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            j = np.searchsorted(grid, mid, side="right") - 1
            left, node = grid[j], cdf.take(first + j)
            line = slope.take(first + j) * (mid - left) + node
            below = np.where(mid == left, node, line) < _QUANTILE_LEVELS
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def _heatmap_1d(values, ckpt, cond):
    stats = ckpt.norm
    want_q = values["quantiles"]
    if want_q and values["y_points"] < 2:
        raise ConfigError(
            f"setting y_points={values['y_points']}: quantiles need at least 2 target grid points"
        )
    if want_q and not values["y_max"] > values["y_min"]:
        raise ConfigError(
            f"setting y_max={values['y_max']!r}: quantiles need an ascending target grid, "
            f"so y_max must exceed y_min={values['y_min']!r}"
        )
    sweep = [i for i, v in enumerate(cond) if math.isnan(v)]
    if len(sweep) != 1:
        raise ConfigError(
            "1D heatmaps sweep exactly one feature: mark it nan in 'condition'"
        )
    j = sweep[0]
    if ckpt.features[j] in ckpt.cyclic:
        raise ConfigError("cannot sweep a cyclic feature")
    x_grid = _axis(values, "x")
    rows_raw = np.tile(np.asarray(cond, dtype=float), (x_grid.size, 1))
    rows_raw[:, j] = x_grid
    xn = normalize_features(stats, rows_raw, ckpt.features, ckpt.cyclic)
    y_grid = _axis(values, "y")
    yn = normalize_targets(stats, y_grid, 0)
    rng = np.random.default_rng(values["seed"])
    curves = predictive_curve(ckpt.model, xn, yn, values["mc"], rng)  # (Gx, Gy) log
    _refuse_nan(curves)
    dens = np.exp(curves)
    quantiles = _quantiles(yn, dens) if want_q else None
    if values["raw_units"]:
        dens = dens / stats.y_std[0]
    emitted = np.minimum(dens, values["cap"]) if values["cap"] > 0 else dens
    files = [("heatmap.csv", _grid(("x", "y"), x_grid, y_grid, emitted))]
    if want_q:
        files.append(("quantiles.csv", _table(
            "x,median,q025,q975", [x_grid, *denormalize_targets(stats, quantiles, 0).T])))
    return files


def _heatmap_2d(values, ckpt, cond):
    stats = ckpt.norm
    model = ckpt.model
    row = _normalize_condition(ckpt, cond)
    a_idx, b_idx = model.order
    g_a = _axis(values, "y")
    g_b = _axis(values, "y2")
    dens = density_grid(
        model,
        row,
        normalize_targets(stats, g_a, a_idx),
        normalize_targets(stats, g_b, b_idx),
        marginal_samples=values["marginal_samples"],
        mc=values["mc"],
        rng=np.random.default_rng(values["seed"]),
    )
    _refuse_nan(dens)
    if values["raw_units"]:
        dens = dens / (stats.y_std[a_idx] * stats.y_std[b_idx])
    if values["cap"] > 0:
        dens = np.minimum(dens, values["cap"])
    return [("heatmap.csv", _grid(model.chain_names, g_a, g_b, dens))]


def cmd_heatmap(values, raw, meta):
    ckpt = load_checkpoint(_require(values, "checkpoint"))
    draw = _heatmap_2d if ckpt.kind == "autoreg" else _heatmap_1d
    return (draw(values, ckpt, _condition(ckpt, values["condition"])),
            lambda out: f"wrote {out / 'heatmap.csv'}")


def cmd_prior_sample(values, raw, meta):
    head = _head(values)
    arch = MLPArchitecture(1, values["hidden"], head.output_dim)
    x_grid, y_grid = _axis(values, "x"), _axis(values, "y")
    grids = []
    for seed, lam, sb in product(values["seeds"], values["lambdas"], values["sigma_betas"]):
        prior = head.default_prior(values["sigma_w"], lam, sb)
        dens = sample_prior_cde(arch, prior, head, seed, x_grid, y_grid)
        name = f"prior_seed{seed}_lambda{lam:g}_beta{sb:g}.csv"
        _refuse_nan(dens, name)
        grids.append((name, _grid(("x", "y"), x_grid, y_grid, dens)))
    return grids, lambda out: f"wrote {len(grids)} prior grids to {out}"


def cmd_grid_search(values, raw, meta):
    grid = {k.removeprefix("grid."): v for k, v in raw.items() if k.startswith("grid.")}
    if not grid:
        raise ConfigError("grid-search needs at least one grid.<setting> list")
    axes = []
    for key in sorted(grid):
        options = [v.strip() for v in grid[key].split(";") if v.strip()]
        if not options:
            raise ConfigError(f"grid.{key} is empty")
        axes.append([(key, opt) for opt in options])
    # every combination resolves as its own train run would, before the data is read
    base = {k: v for k, v in raw.items() if not k.startswith("grid.")}
    runs = []
    for idx, combo in enumerate(product(*axes)):
        sub = {**base, **dict(combo), "out": str(Path(values["out"]) / f"combo_{idx:03d}")}
        overrides = [f"{k}={v}" for k, v in sub.items()]
        sub_values, sub_raw, _ = resolve_settings("train", None, overrides)
        head = _head(sub_values)
        runs.append((combo, sub_values, sub_raw, head, _prior(sub_values, head)))
    loaded = _load(values, meta)
    train_ds, valid_ds, test_ds = loaded[2]
    if not (valid_ds.n and test_ds.n):
        raise ConfigError(
            f"setting split={','.join(f'{f:g}' for f in values['split'])}: grid-search scores "
            f"each combination on its validation and test rows, but the "
            f"{train_ds.n + valid_ds.n + test_ds.n} rows split into {train_ds.n} train, "
            f"{valid_ds.n} validation and {test_ds.n} test rows"
        )
    digest = _sha256(values["data"])
    files, results = [], []
    for idx, (combo, sub_values, sub_raw, head, prior) in enumerate(runs):
        fitted, ckpt = _fit(sub_values, head, prior, loaded)
        fitted.append(("manifest.cfg", _manifest("train", sub_raw, digest)))
        files += [(f"combo_{idx:03d}/{name}", write) for name, write in fitted]
        valid_ll, test_ll = [
            float(_mean_ll(ckpt, ds, values["mc_test"], values["seed"], True).mean())
            for ds in (valid_ds, test_ds)
        ]
        results.append((idx, combo, valid_ll, test_ll))
    results.sort(key=lambda r: (-r[2], r[0]))
    keys = sorted(grid)
    options = [dict(combo) for _, combo, _, _ in results]
    best_idx, _, best_valid, best_test = results[0]
    best = dict(files)
    return files + [
        ("results.csv", _table("rank,combo," + ",".join(keys) + ",valid_ll,test_ll", [
            range(1, len(results) + 1),
            [idx for idx, _, _, _ in results],
            *([o[k].replace(",", ";") for o in options] for k in keys),
            np.array([vll for _, _, vll, _ in results]),
            np.array([tll for _, _, _, tll in results]),
        ])),
        ("best_checkpoint.ckpt", best[f"combo_{best_idx:03d}/checkpoint.ckpt"]),
        ("best_manifest.cfg", best[f"combo_{best_idx:03d}/manifest.cfg"]),
    ], lambda out: f"best combo {best_idx}: valid_ll = {best_valid:.6f}, test_ll = {best_test:.6f}"


def cmd_gen_toy(values, raw, meta):
    ds, truth = toy_generator(values["name"], values["n"], values["seed"])
    return [
        ("data.csv", lambda path: save_csv(path, ds)),
        ("truth.csv", _table(",".join(ds.feature_names) + ",true_ll", [*ds.x.T, truth])),
    ], lambda out: f"wrote {ds.n} rows to {out / 'data.csv'}"


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
            f"  {k:<18} default {d!r:<12} {h}" + (f"; {p.rule}" if hasattr(p, "rule") else "")
            for k, (p, d, h) in sorted(spec.items())
        ]
        p.epilog = "settings:\n" + "\n".join(lines)
        p.formatter_class = argparse.RawDescriptionHelpFormatter
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        values, raw, meta = resolve_settings(args.command, args.config, args.overrides)
        files, message = _DISPATCH[args.command](values, raw, meta)
        digest = _sha256(values["data"]) if "data" in values else None
        out = Path(os.environ.get("FLOWCDE_OUT", ".")) / values["out"]
        for name, write in [*files, ("manifest.cfg", _manifest(args.command, raw, digest))]:
            (out / name).parent.mkdir(parents=True, exist_ok=True)
            write(out / name)
        print(message(out))
        return 0
    except (ConfigError, StructuralError) as err:
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


def run():
    """The process entry.  gc.freeze() moves every object the imports made
    into the collector's permanent generation, which no collection walks,
    the one at interpreter exit included; outputs do not change."""
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    run()
