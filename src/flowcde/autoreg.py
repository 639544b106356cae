"""Two-dimensional conditional densities by the probability chain rule.

p(y_a, y_b | x) = p(y_a | x) * p(y_b | x, y_a): two independently trained
1D models, the second seeing the first target as an extra (normalized)
input column.  The chain ordering is part of the model; evaluation against
a different ordering is refused, since swapping the chain produces a
genuinely different model.

Grid evaluation marginalizes missing conditioning features by averaging the
predictive density over standard-normal draws for them (features are
normalized, so their marginal is approximately unit normal).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, StructuralError
from .training import predictive_curve, predictive_log_density

__all__ = [
    "AutoregModel",
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
        self.order = tuple(int(i) for i in self.order)
        if sorted(self.order) != [0, 1]:
            raise StructuralError(f"order must be a permutation of (0, 1), got {self.order}")
        if len(self.target_names) != 2:
            raise StructuralError("need exactly two target names")
        if self.stage2_features != self.n_features + 1:
            raise StructuralError(
                f"second stage must take {self.n_features + 1} inputs "
                f"(features plus the first target), takes {self.stage2_features}"
            )

    def _base_inputs(self, model):
        return model.net.arch.input_dim - model.head.extra_input_dim

    @property
    def n_features(self):
        return self._base_inputs(self.stage1)

    @property
    def stage2_features(self):
        return self._base_inputs(self.stage2)

    @property
    def chain_names(self):
        return tuple(self.target_names[i] for i in self.order)

    def check_order(self, order):
        if order is not None and tuple(order) != self.order:
            raise ConfigError(
                f"model was trained with chain order {self.chain_names}; "
                f"refusing evaluation with order {tuple(order)}"
            )


def joint_log_density(model, x, y, mc, rng, order=None):
    """Per-datum log p(y | x); y has the two target columns in data order."""
    model.check_order(order)
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float).reshape(-1, 2)
    y_first = y[:, model.order[0]]
    y_second = y[:, model.order[1]]
    ll1 = predictive_log_density(model.stage1, x, y_first, mc, rng)
    ll2 = predictive_log_density(
        model.stage2, np.column_stack([x, y_first]), y_second, mc, rng
    )
    return ll1 + ll2


def density_grid(
    model,
    condition,
    grid_first,
    grid_second,
    marginal_samples=1,
    mc=10,
    rng=None,
    cap=None,
    order=None,
):
    """Predictive density on a (first, second) target grid.

    condition is one feature vector with NaN marking unobserved features;
    those are marginalized by averaging over standard-normal draws.
    Axes follow the model's chain order.
    """
    model.check_order(order)
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
    dens = np.zeros((g1.size, g2.size))
    for _ in range(marginal_samples):
        xs = cond.copy()
        xs[missing] = rng.standard_normal(int(missing.sum()))
        l1 = predictive_curve(model.stage1, xs[None, :], g1, mc, rng)[0]
        rows2 = np.column_stack([np.broadcast_to(xs, (g1.size, cond.size)), g1])
        l2 = predictive_curve(model.stage2, rows2, g2, mc, rng)
        dens += np.exp(l1[:, None] + l2)
    dens /= marginal_samples
    if cap is not None:
        dens = np.minimum(dens, cap)
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

    points are (N, 2) in the same axis order as the grid.
    """
    g1 = np.asarray(grid_first, dtype=float).reshape(-1)
    g2 = np.asarray(grid_second, dtype=float).reshape(-1)
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    thr = np.quantile(dens, 0.9)
    i = _nearest_index(g1, pts[:, 0])
    j = _nearest_index(g2, pts[:, 1])
    inside = (i >= 0) & (j >= 0)
    hits = inside & (dens[np.maximum(i, 0), np.maximum(j, 0)] >= thr)
    return float(hits.mean())
