"""Conditional densities by the probability chain rule.

p(y_a, y_b | x) = p(y_a | x) * p(y_b | x, y_a): two independently trained
1D models, the second seeing the first target as an extra (normalized)
input column.  The chain ordering is part of the model: swapping the chain
produces a genuinely different model, so every function here follows the
model's own order.  fit_chain, sample_chain and joint_log_density treat a
one-target CdeModel as a chain of one stage.

Grid evaluation marginalizes missing conditioning features by averaging the
predictive density over standard-normal draws for them (features are
normalized, so their marginal is approximately unit normal).  A condition
with no missing feature takes one pass, whatever the number of draws asked
for, so its grid holds exp(joint_log_density) at the same seed and mc.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import reduce

import numpy as np

from .errors import StructuralError
from .training import model_sample, predictive_curve, predictive_log_density, train

__all__ = [
    "AutoregModel",
    "fit_chain",
    "sample_chain",
    "joint_log_density",
    "density_grid",
    "grid_mass",
    "top_decile_coverage",
]


@dataclass
class AutoregModel:
    """Chain of two fitted 1D models over a 2-column target.

    order gives target column indices in chain position: order[0] is modelled
    from the features alone, order[1] from features plus the order[0] value.
    """

    stage1: object
    stage2: object
    order: tuple = (0, 1)
    target_names: tuple = ("y1", "y2")

    def __post_init__(self):
        self.order = _check_order(self.order)
        if len(self.target_names) != 2:
            raise StructuralError("need exactly two target names")
        if self.stage2_features != self.n_features + 1:
            raise StructuralError(
                f"second stage must take {self.n_features + 1} inputs "
                f"(features plus the first target), takes {self.stage2_features}"
            )

    @property
    def n_features(self):
        return self.stage1.n_features

    @property
    def stage2_features(self):
        return self.stage2.n_features

    @property
    def chain_names(self):
        return tuple(self.target_names[i] for i in self.order)


def _check_order(order):
    order = tuple(int(i) for i in order)
    if sorted(order) != [0, 1]:
        raise StructuralError(f"order must be a permutation of (0, 1), got {order}")
    return order


def _stages(model):
    """(stages, order): a CdeModel is the one-stage chain ((model,), (0,))."""
    if isinstance(model, AutoregModel):
        return (model.stage1, model.stage2), model.order
    return (model,), (0,)


def _stage_inputs(x, ys, k):
    """Stage k's inputs: the features, then the first k targets in chain order."""
    return np.column_stack([x, *ys[:k]]) if k else x


def fit_chain(make_stage, x, y, cfg, order=(0, 1), target_names=("y1", "y2")):
    """(model, one trace per stage) fitted to targets y (N, 1 or 2) in data
    order: a CdeModel for one column, an AutoregModel in ``order`` for two.
    Stage k is make_stage(n_inputs, cfg.seed + k), trained with that seed."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float).reshape(x.shape[0], -1)
    if y.shape[1] not in (1, 2):
        raise StructuralError(f"a chain models 1 or 2 targets, got {y.shape[1]}")
    order = (0,) if y.shape[1] == 1 else _check_order(order)
    ys = [y[:, c] for c in order]
    stages, traces = [], []
    for k in range(len(order)):
        stages.append(make_stage(x.shape[1] + k, cfg.seed + k))
        cfg_k = replace(cfg, seed=cfg.seed + k)
        traces.append(train(stages[k], _stage_inputs(x, ys, k), ys[k], cfg_k))
    model = stages[0] if len(stages) == 1 else AutoregModel(*stages, order, target_names)
    return model, traces


def sample_chain(model, x_row, n, mc, rng):
    """(n, targets) draws at one condition x_row (d,), columns in data order.
    Stage 1 mixes mc network draws at x_row (see model_sample); stage k + 1
    takes the (n, d + k) block of x_row and the earlier draws."""
    stages, order = _stages(model)
    x_row = np.asarray(x_row, dtype=float)
    ys = []
    for k, stage in enumerate(stages):
        rows = _stage_inputs(np.broadcast_to(x_row, (n, x_row.size)), ys, k) if k else x_row
        ys.append(model_sample(stage, rows, n, mc, rng))
    return np.column_stack(ys)[:, np.argsort(order)]


def joint_log_density(model, x, y, mc, rng):
    """Per-datum log p(y | x); y has the target columns in data order."""
    stages, order = _stages(model)
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float).reshape(-1, len(order))
    ys = [y[:, c] for c in order]
    return reduce(np.add, (
        predictive_log_density(stage, _stage_inputs(x, ys, k), ys[k], mc, rng)
        for k, stage in enumerate(stages)
    ))


def density_grid(
    model,
    condition,
    grid_first,
    grid_second,
    marginal_samples=1,
    mc=10,
    rng=None,
):
    """Predictive density on a (first, second) target grid.

    condition is one feature vector with NaN marking unobserved features;
    those are marginalized by averaging over marginal_samples standard-normal
    draws.  With no NaN there is nothing to average: one pass, the same
    network draws joint_log_density takes at the same rng, and
    marginal_samples is unused.  Axes follow the model's chain order.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    cond = np.asarray(condition, dtype=float).reshape(-1)
    if cond.size != model.n_features:
        raise StructuralError(
            f"condition has {cond.size} features, model takes {model.n_features}"
        )
    if marginal_samples < 1:
        raise StructuralError("marginal_samples must be >= 1")
    g1 = np.asarray(grid_first, dtype=float).reshape(-1)
    g2 = np.asarray(grid_second, dtype=float).reshape(-1)
    if g1.size == 0 or g2.size == 0:
        raise StructuralError("grids must be non-empty")
    missing = np.isnan(cond)
    passes = marginal_samples if missing.any() else 1
    dens = np.zeros((g1.size, g2.size))
    for _ in range(passes):
        xs = cond.copy()
        xs[missing] = rng.standard_normal(int(missing.sum()))
        l1 = predictive_curve(model.stage1, xs[None, :], g1, mc, rng)[0]
        rows2 = _stage_inputs(np.broadcast_to(xs, (g1.size, cond.size)), [g1], 1)
        l2 = predictive_curve(model.stage2, rows2, g2, mc, rng)
        dens += np.exp(l1[:, None] + l2)
    dens /= passes
    return dens


def grid_mass(dens, grid_first, grid_second):
    """Trapezoid mass of a density grid; ~1 when the grid covers the support."""
    inner = np.trapezoid(dens, np.asarray(grid_second, dtype=float), axis=1)
    return float(np.trapezoid(inner, np.asarray(grid_first, dtype=float)))


def _nearest_index(grid, values):
    """Index of the closest grid node, or -1 for values outside the range."""
    idx = np.clip(np.searchsorted(grid, values), 1, grid.size - 1)
    left = np.abs(values - grid[idx - 1])
    right = np.abs(grid[idx] - values)
    nearest = np.where(left <= right, idx - 1, idx)
    outside = (values < grid[0]) | (values > grid[-1])
    return np.where(outside, -1, nearest)


def top_decile_coverage(dens, grid_first, grid_second, points):
    """Fraction of points landing in the top 10% highest-density grid cells.

    points are (N, 2) in the same axis order as the grid, N >= 1.
    """
    g1 = np.asarray(grid_first, dtype=float).reshape(-1)
    g2 = np.asarray(grid_second, dtype=float).reshape(-1)
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if pts.shape[0] == 0:
        raise StructuralError("need at least one point")
    thr = np.quantile(dens, 0.9)
    i = _nearest_index(g1, pts[:, 0])
    j = _nearest_index(g2, pts[:, 1])
    inside = (i >= 0) & (j >= 0)
    hits = inside & (dens[np.maximum(i, 0), np.maximum(j, 0)] >= thr)
    return float(hits.mean())
