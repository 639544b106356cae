"""The three workloads: their seeded inputs and their command sequences.

The benchmark makes its own data from closed-form generators, so it also
knows the true conditional density of every row it writes.  The program
only ever sees the CSV files.

Every workload runs train -> eval -> sample -> heatmap through the CLI, one
process per command.  Paths in the commands are relative to a round
directory that sits next to the ``inputs`` directory, so every round, and
the traced run, writes byte-identical manifests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LOG_2PI = math.log(2.0 * math.pi)

# The far-out probe file is the same on every seed: the operation it drives
# fails on every run until the predictive log-mean-exp is guarded.
PROBE_SEED = 20180214
PROBE_ROWS = 64
PROBE_TARGET = 1e200


# -- generators with closed-form densities ----------------------------------------


def bimodal_parts(x):
    """Branch offset m(x) and noise scale s(x) of the heteroscedastic bimodal."""
    m = 0.5 + 0.25 * x**2
    s = 0.15 + 0.05 * (1.0 + np.sin(2.0 * x))
    return m, s


def bimodal_sample(rng, x):
    m, s = bimodal_parts(x)
    sign = np.where(rng.random(x.size) < 0.5, -1.0, 1.0)
    return sign * m + s * rng.standard_normal(x.size)


def bimodal_log_density(x, y):
    """log p(y | x) of the equal-weight mixture N(m, s^2) + N(-m, s^2)."""
    m, s = bimodal_parts(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float)
    base = -0.5 * LOG_2PI - np.log(s)
    return (
        np.logaddexp(base - 0.5 * ((y - m) / s) ** 2, base - 0.5 * ((y + m) / s) ** 2)
        - math.log(2.0)
    )


def cluster_parts(x):
    """Weight of cluster 1, the two centres and the two isotropic scales."""
    w = 0.35 + 0.3 * x
    c1 = np.stack([-1.0 - 0.5 * x, -0.5 + 0.2 * x], axis=-1)
    c2 = np.stack([0.8 + 0.4 * x, 0.6 - 0.3 * x], axis=-1)
    return w, c1, c2, 0.25, 0.35


def cluster_sample(rng, x):
    w, c1, c2, s1, s2 = cluster_parts(x)
    first = rng.random(x.size) < w
    centre = np.where(first[:, None], c1, c2)
    scale = np.where(first, s1, s2)
    return centre + scale[:, None] * rng.standard_normal((x.size, 2))


def cluster_log_density(x, y):
    """log p(y1, y2 | x) of the two isotropic Gaussian clusters."""
    w, c1, c2, s1, s2 = cluster_parts(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float).reshape(-1, 2)
    l1 = np.log(w) - LOG_2PI - 2 * math.log(s1) - 0.5 * ((y - c1) ** 2).sum(1) / s1**2
    l2 = np.log1p(-w) - LOG_2PI - 2 * math.log(s2) - 0.5 * ((y - c2) ** 2).sum(1) / s2**2
    return np.logaddexp(l1, l2)


def write_csv(path, header, columns):
    """Write columns with %.17g so the program reads back the exact values."""
    rows = zip(*(np.asarray(c, dtype=float) for c in columns))
    lines = [",".join(header)] + [",".join(format(v, ".17g") for v in r) for r in rows]
    path.write_text("\n".join(lines) + "\n")


# -- workloads ---------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    family: str  # "bimodal" (1 target) or "cluster" (2 targets)
    n_train: int
    n_holdout: int
    train: dict
    sample_conditions: tuple
    sample_n: int
    heatmaps: tuple  # (label, settings) pairs
    probe: bool = False
    beat_gaussian: bool = False
    holdout_at_condition: int = 0  # extra held-out rows at sample_conditions[0]
    x_range: tuple = (-2.0, 2.0)
    eval_mc: int = 20  # the CLI's default

    @property
    def targets(self):
        return ("y",) if self.family == "bimodal" else ("y1", "y2")


_TRAIN_COMMON = {
    "head": "nf",
    "n_stages": "5",
    "hidden": "50",
    "learning_rate": "0.02",
    "seed": "3",
}

# Batch 128 with one draw per datum, not batch 32 with five: the same datum x
# draw count per step, but the last iterate is steadier.  With batch 32 x 5
# draws, about one seed in fifty ended training no better than a Gaussian.
_MINIBATCH = {"batch_size": "128", "mc_train": "1", "iterations": "60"}

# Few full-batch steps on a small file: the trace then falls on every seed,
# where a few minibatch steps are lost in minibatch noise.
_FULL_BATCH = {"batch_size": "0", "mc_train": "2"}

_GRID_1D = {"condition": "nan", "x_min": "-2", "x_max": "2", "y_min": "-4", "y_max": "4"}
_GRID_2D = {
    "y_min": "-5", "y_max": "4", "y_points": "73",
    "y2_min": "-4", "y2_max": "4", "y2_points": "65",
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="train-heavy",
            why="1D bimodal nf/fixed minibatch training is most of the wall time: "
            "tape forward, head densities, backward sweep, KL and Adam",
            family="bimodal",
            n_train=1000,
            n_holdout=1000,
            train={**_TRAIN_COMMON, **_MINIBATCH, "mode": "fixed"},
            sample_conditions=(0.5,),
            sample_n=1000,
            # y to +-6, not +-4: at the edge x = 2 the trained model puts about
            # 1% of its mass in (-5, -4) on some seeds.  mc 80, not 20: the
            # eval-vs-heatmap median compares two independent MC averages, and
            # this model's network draws differ enough that at mc 20 it came
            # within 10% of its bound.
            heatmaps=(("heatmap", {**_GRID_1D, "y_min": "-6", "y_max": "6",
                                   "x_points": "41", "y_points": "241", "mc": "80"}),),
            eval_mc=80,
            beat_gaussian=True,
        ),
        Workload(
            name="query-heavy",
            why="short training, then a 20k-row eval, samples at three conditions and "
            "a dense 1D heatmap: bulk NumPy forward, head densities, curve loop, CSV I/O",
            family="bimodal",
            n_train=150,
            n_holdout=20000,
            train={**_TRAIN_COMMON, **_FULL_BATCH, "mode": "fixed", "iterations": "4"},
            sample_conditions=(-1.0, 0.5, 1.5),
            sample_n=2000,
            heatmaps=(("heatmap", {**_GRID_1D, "x_points": "201", "y_points": "401"}),),
            probe=True,
        ),
        Workload(
            name="spatial-2d",
            why="two-target autoregressive chain in learned posterior mode: joint eval, "
            "per-draw two-target sampling and 2D heatmaps, the only autoreg workload",
            family="cluster",
            n_train=100,
            n_holdout=2000,
            train={**_TRAIN_COMMON, **_FULL_BATCH, "mode": "learned", "iterations": "3"},
            sample_conditions=(0.5,),
            sample_n=1000,
            heatmaps=(
                ("heatmap", {**_GRID_2D, "condition": "nan", "marginal_samples": "4",
                             "mc": "10"}),
                ("heatmap_at", {**_GRID_2D, "condition": "0.5"}),
            ),
            holdout_at_condition=200,
            x_range=(0.0, 1.0),
        ),
    )
}


@dataclass(frozen=True)
class Op:
    """One CLI command; ``kind`` names the rate it feeds."""

    label: str
    kind: str  # train | eval | probe | sample | heatmap
    argv: tuple
    units: float = 0.0  # rows scored, draws written or cells written


def _kv(settings):
    return [f"{k}={v}" for k, v in settings.items()]


def heatmap_cells(settings, family):
    if family == "bimodal":
        return int(settings["x_points"]) * int(settings["y_points"])
    return int(settings["y_points"]) * int(settings["y2_points"])


def commands(w):
    """The workload's command sequence, in the order a user would run it."""
    ckpt = "checkpoint=train/checkpoint.ckpt"
    ops = [
        Op("train", "train", ("train", "data=../inputs/train.csv",
                              f"targets={','.join(w.targets)}", *_kv(w.train), "out=train")),
        Op("eval", "eval", ("eval", ckpt, "data=../inputs/holdout.csv", f"mc={w.eval_mc}",
                            "out=eval"),
           w.n_holdout + w.holdout_at_condition),
    ]
    if w.probe:
        ops.append(Op("probe", "probe", ("eval", ckpt, "data=../inputs/probe.csv", "out=probe")))
    for i, c in enumerate(w.sample_conditions):
        ops.append(Op(f"sample{i}", "sample", ("sample", ckpt, f"condition={c!r}",
                                              f"n={w.sample_n}", f"out=sample{i}"),
                      w.sample_n))
    for label, settings in w.heatmaps:
        ops.append(Op(label, "heatmap", ("heatmap", ckpt, *_kv(settings), f"out={label}"),
                      heatmap_cells(settings, w.family)))
    return ops


def train_rows(w):
    """Rows in the train split (the CLI's default split is 0.8, 0.1, 0.1)."""
    return int(0.8 * w.n_train)


def train_datum_draws(w):
    """Iterations x batch rows x mc_train, summed over chain stages."""
    t = w.train
    batch = int(t["batch_size"]) or train_rows(w)
    return len(w.targets) * int(t["iterations"]) * batch * int(t["mc_train"])


def write_inputs(w, seed, directory):
    """Write train.csv, holdout.csv (+ truth) and, if used, probe.csv."""
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 1])
    lo, hi = w.x_range
    header = ("x",) + w.targets
    sample = bimodal_sample if w.family == "bimodal" else cluster_sample
    density = bimodal_log_density if w.family == "bimodal" else cluster_log_density

    def columns(x, y):
        return [x] + ([y] if y.ndim == 1 else [y[:, 0], y[:, 1]])

    x = rng.uniform(lo, hi, w.n_train)
    write_csv(directory / "train.csv", header, columns(x, sample(rng, x)))

    x = np.concatenate([
        rng.uniform(lo, hi, w.n_holdout),
        np.full(w.holdout_at_condition, w.sample_conditions[0]),
    ])
    y = sample(rng, x)
    write_csv(directory / "holdout.csv", header, columns(x, y))
    write_csv(directory / "holdout_truth.csv", ("true_ll",), [density(x, y)])

    if w.probe:
        prng = np.random.default_rng(PROBE_SEED)
        x = prng.uniform(lo, hi, PROBE_ROWS)
        y = sample(prng, x)
        y[PROBE_ROWS // 2] = PROBE_TARGET
        write_csv(directory / "probe.csv", header, columns(x, y))
