"""Output checks.

Each check compares an artifact with a computation made apart from the
program (the generator's closed-form density, a fitted Gaussian, finite
differences) or with a property the method must have (normalisation,
quantile order, Gibbs' inequality).  None compares with a stored copy of
earlier output.  A check raises CheckFailed with the reason.
"""

from __future__ import annotations

import math

import numpy as np

EPS = np.finfo(float).eps


class CheckFailed(Exception):
    pass


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


def read_table(path):
    """(header, (rows, cols) float array) of a CSV written by the program."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    require(data.shape[1] == len(header), f"{path}: ragged table")
    return header, data


# -- train ---------------------------------------------------------------------------


def check_trace(path, stages, iterations):
    """Rows finite; free energy = expected NLL + KL; it falls over training."""
    header, t = read_table(path)
    require(header == ["stage", "iteration", "expected_nll", "kl", "free_energy"],
            f"trace header {header}")
    require(t.shape[0] == stages * iterations,
            f"trace has {t.shape[0]} rows, expected {stages * iterations}")
    require(np.isfinite(t).all(), "trace has non-finite values")
    nll, kl, fe = t[:, 2], t[:, 3], t[:, 4]
    gap = np.abs(fe - (nll + kl))
    bad = np.flatnonzero(gap > 4 * EPS * np.maximum(np.abs(fe), 1.0))
    require(bad.size == 0, f"trace row {bad[:1]} has free energy != NLL + KL")
    for s in range(1, stages + 1):
        f = fe[t[:, 0] == s]
        q = max(1, f.size // 4)
        require(f[:q].mean() > f[-q:].mean(),
                f"stage {s}: free energy did not fall ({f[:q].mean():.6g} -> "
                f"{f[-q:].mean():.6g})")


def check_gradient(model, x, y, n_total, seed, free_energy, free_energy_value,
                   n_coords=64, mc=2, h=1e-5):
    """free_energy's gradient against finite differences of free_energy_value.

    Both calls get generators made from one seed, so they see the same
    noise.  The relative error bound is the unit tests' 1e-6.  Its
    denominator is floored at 2e-4 |F|: central differences at step h carry
    a rounding error near eps |F| / h, which a smaller component cannot
    resolve to 1e-6.

    The radial flow stages use |z - gamma|, so F has kinks.  A kink within h
    of the point spoils the central difference; the coordinate then passes
    if a second-order one-sided difference, whose three points lie on the
    kink-free side, matches instead.
    """
    report, grad = free_energy(model, x, y, n_total, mc, np.random.default_rng(seed))
    base = model.trainable_vector()
    pick = np.random.default_rng(seed).choice(base.size, min(n_coords, base.size), False)
    coords = sorted(set(pick.tolist()) | set(range(base.size - model.head.n_extras, base.size)))
    floor = 2e-4 * abs(report.free_energy)
    worst = 0.0

    def value_at(c, step):
        v = base.copy()
        v[c] += step
        model.set_trainable(v)
        return free_energy_value(model, x, y, n_total, mc, np.random.default_rng(seed))

    def rel(c, fd):
        return abs(grad[c] - fd) / max(abs(grad[c]), abs(fd), floor)

    try:
        f0 = None
        for c in coords:
            fd = (value_at(c, h) - value_at(c, -h)) / (2 * h)
            err = rel(c, fd)
            if err >= 1e-6:
                if f0 is None:
                    f0 = value_at(c, 0.0)
                for s in (h, -h):
                    one_sided = (4 * value_at(c, s) - value_at(c, 2 * s) - 3 * f0) / (2 * s)
                    err = min(err, rel(c, one_sided))
            worst = max(worst, err)
            require(err < 1e-6, f"gradient[{c}] = {grad[c]!r}, finite difference "
                                f"{fd!r} (rel {err:.2e})")
    finally:
        model.set_trainable(base)
    return worst


# -- eval ----------------------------------------------------------------------------


def read_pointwise(path, n_rows):
    header, t = read_table(path)
    require(header == ["i", "ll"], f"pointwise header {header}")
    require(t.shape[0] == n_rows, f"pointwise has {t.shape[0]} rows, expected {n_rows}")
    ll = t[:, 1]
    require(np.isfinite(ll).all(), "pointwise log-likelihoods are not all finite")
    return ll


def check_gibbs(ll, true_ll):
    """Mean LL may not beat the true density by more than 4 standard errors.

    E[log q - log p] = -KL(p || q) <= 0 for any normalised q (Gibbs).
    """
    d = ll - true_ll
    margin = 4.0 * d.std(ddof=1) / math.sqrt(d.size)
    require(d.mean() <= margin,
            f"mean LL exceeds the true mean log-density by {d.mean():.4g} "
            f"(margin {margin:.4g})")


def gaussian_log_density(train_y, y):
    mu, sd = float(np.mean(train_y)), float(np.std(train_y))
    return -0.5 * math.log(2 * math.pi * sd * sd) - 0.5 * ((y - mu) / sd) ** 2


def check_beats_gaussian(ll, gauss_ll):
    require(ll.mean() > gauss_ll.mean(),
            f"mean LL {ll.mean():.4f} does not beat a fitted Gaussian's "
            f"{gauss_ll.mean():.4f}")


def check_summary(path, ll):
    """summary.txt agrees with pointwise.csv and holds no nan."""
    text = path.read_text()
    require("nan" not in text, "summary.txt contains nan")
    kv = dict(line.split(" = ") for line in text.splitlines())
    require(int(kv["n"]) == ll.size, "summary n disagrees with pointwise.csv")
    require(abs(float(kv["mean_ll"]) - ll.mean()) <= 1e-9 * max(1.0, abs(ll.mean())),
            "summary mean_ll disagrees with pointwise.csv")


def probe_ok(exit_code, stdout, summary_text):
    """The exit-code contract: a numeric failure exits 4, and no command
    prints nan and exits 0."""
    if exit_code == 4:
        return True
    return exit_code == 0 and "nan" not in stdout and "nan" not in summary_text


# -- heatmaps ------------------------------------------------------------------------


def read_grid(path):
    """(axis0, axis1, density[axis0, axis1]) from a heatmap.csv."""
    _, t = read_table(path)
    a = np.unique(t[:, 0])
    b = np.unique(t[:, 1])
    require(t.shape[0] == a.size * b.size, f"{path}: not a full grid")
    dens = t[:, 2].reshape(a.size, b.size)
    require(np.isfinite(dens).all() and (dens >= 0).all(),
            f"{path}: densities not finite and non-negative")
    return a, b, dens


def every_other(n):
    """Indices of every other grid point, the last one kept."""
    return np.unique(np.r_[0:n:2, n - 1])


def trapezoid_with_error(g, dens, axis=-1):
    """Trapezoid integral along ``axis`` and an allowance for its error.

    The allowance is the change when every other grid point is dropped (the
    last point is kept).  The rule's error shrinks as h^2, so the change is
    about three times the finer rule's error on a density the grid resolves.
    The program's predictive density is an average of mc sharp flow
    densities: at the 0.05 grid step a row's trapezoid mass can be 1% off
    where a 0.005 step gives 1.0000.
    """
    keep = every_other(g.size)
    fine = np.trapezoid(dens, g, axis=axis)
    coarse = np.trapezoid(np.take(dens, keep, axis=axis), g[keep], axis=axis)
    return fine, np.abs(fine - coarse)


def check_row_mass(ys, dens, tol=0.01):
    """Every 1D row integrates to 1 over the target grid, within tol plus the
    row's quadrature allowance."""
    mass, err = trapezoid_with_error(ys, dens, axis=1)
    worst = int(np.argmax(np.abs(mass - 1.0) - err))
    require(abs(mass[worst] - 1.0) <= tol + err[worst],
            f"heatmap row {worst} has mass {mass[worst]:.5f} "
            f"(quadrature allowance {err[worst]:.5f})")


def check_grid_mass(g1, g2, dens, tol=0.02):
    """The 2D grid integrates to 1, within tol plus the quadrature allowance
    of both axes."""
    inner, err2 = trapezoid_with_error(g2, dens, axis=1)
    mass, err1 = trapezoid_with_error(g1, inner)
    err = float(err1 + np.trapezoid(err2, g1))
    require(abs(mass - 1.0) <= tol + err,
            f"2D heatmap has mass {mass:.5f} (quadrature allowance {err:.5f})")


def check_quantiles(path):
    header, t = read_table(path)
    require(header == ["x", "median", "q025", "q975"], f"quantiles header {header}")
    require(np.isfinite(t).all(), "quantiles are not finite")
    bad = np.flatnonzero(~((t[:, 2] <= t[:, 1]) & (t[:, 1] <= t[:, 3])))
    require(bad.size == 0, f"quantile row {bad[:1]} is out of order")


def grid_row(xs, x):
    i = int(np.argmin(np.abs(xs - x)))
    require(abs(xs[i] - x) <= 1e-9 * max(1.0, abs(x)), f"no heatmap row at x = {x}")
    return i


# -- samples -------------------------------------------------------------------------


def ks_distance(draws, ys, pdf):
    """Kolmogorov-Smirnov distance between draws and a gridded density."""
    cdf = np.concatenate([[0.0], np.cumsum(np.diff(ys) * 0.5 * (pdf[1:] + pdf[:-1]))])
    cdf /= cdf[-1]
    d = np.sort(draws)
    f = np.interp(d, ys, cdf)
    n = d.size
    return float(max((np.arange(1, n + 1) / n - f).max(), (f - np.arange(n) / n).max()))


def check_ks(draws, ys, pdf, alpha=1e-4, slack=0.01):
    """Bound: the one-sample KS quantile sqrt(ln(2/alpha) / 2n), plus grid slack."""
    bound = math.sqrt(math.log(2 / alpha) / (2 * draws.size)) + slack
    ks = ks_distance(draws, ys, pdf)
    require(ks <= bound, f"KS distance {ks:.4f} > {bound:.4f}")
    return ks


def tv_distance(draws, g1, g2, dens, bins=5):
    """Total variation between draws and the grid's masses over bins x bins cells
    plus one cell for everything off the grid."""
    w1 = np.gradient(g1)
    w2 = np.gradient(g2)
    mass = dens * w1[:, None] * w2[None, :]
    e1 = np.linspace(g1[0], g1[-1], bins + 1)
    e2 = np.linspace(g2[0], g2[-1], bins + 1)
    c1 = np.clip(np.searchsorted(e1, g1, side="right") - 1, 0, bins - 1)
    c2 = np.clip(np.searchsorted(e2, g2, side="right") - 1, 0, bins - 1)
    p = np.zeros((bins, bins))
    np.add.at(p, (c1[:, None], c2[None, :]), mass)
    p = p.ravel() / mass.sum()
    inside = ((draws[:, 0] >= e1[0]) & (draws[:, 0] <= e1[-1])
              & (draws[:, 1] >= e2[0]) & (draws[:, 1] <= e2[-1]))
    k1 = np.clip(np.searchsorted(e1, draws[inside, 0], side="right") - 1, 0, bins - 1)
    k2 = np.clip(np.searchsorted(e2, draws[inside, 1], side="right") - 1, 0, bins - 1)
    q = np.bincount(k1 * bins + k2, minlength=bins * bins) / draws.shape[0]
    off = 1.0 - inside.mean()
    return 0.5 * (np.abs(q - p).sum() + off), bins * bins + 1


def check_tv(draws, g1, g2, dens):
    """Bound: sqrt(K / n) for K cells, over twice the expected sampling TV."""
    tv, k = tv_distance(draws, g1, g2, dens)
    bound = math.sqrt(k / draws.shape[0]) + 0.02
    require(tv <= bound, f"total variation {tv:.4f} > {bound:.4f}")
    return tv


def read_samples(path, n, columns):
    header, t = read_table(path)
    require(len(header) == columns, f"samples header {header}")
    require(t.shape[0] == n, f"{t.shape[0]} draws written, expected {n}")
    require(np.isfinite(t).all(), "draws are not all finite")
    return t[:, 0] if columns == 1 else t


# -- eval against heatmap ------------------------------------------------------------


def _bilinear(a, b, f, pa, pb):
    i = np.clip(np.searchsorted(a, pa) - 1, 0, a.size - 2)
    j = np.clip(np.searchsorted(b, pb) - 1, 0, b.size - 2)
    ta = (pa - a[i]) / (a[i + 1] - a[i])
    tb = (pb - b[j]) / (b[j + 1] - b[j])
    return ((1 - ta) * (1 - tb) * f[i, j] + ta * (1 - tb) * f[i + 1, j]
            + (1 - ta) * tb * f[i, j + 1] + ta * tb * f[i + 1, j + 1])


def interp_log_grid(a, b, dens, pa, pb):
    """Bilinear interpolation of log density at points (pa, pb), nan off the
    grid, and an allowance for its error at each point.

    The allowance is the change when every other grid line is dropped: about
    three times the interpolation error where the grid resolves the density.
    """
    logd = np.log(np.maximum(dens, 1e-300))
    inside = (pa >= a[0]) & (pa <= a[-1]) & (pb >= b[0]) & (pb <= b[-1])
    v = _bilinear(a, b, logd, pa, pb)
    i, j = every_other(a.size), every_other(b.size)
    coarse = _bilinear(a[i], b[j], logd[np.ix_(i, j)], pa, pb)
    return np.where(inside, v, np.nan), np.abs(v - coarse)


def check_eval_vs_heatmap(ll, interp, allowance, median_tol=0.03, high_tol=0.15):
    """Pointwise LL and the interpolated log heatmap agree at the same points.

    The two commands draw different network noise, and the grid is
    interpolated, so the bounds are on the median of the absolute
    difference and on its 95th percentile beyond each point's interpolation
    allowance.  The allowance is large where the learned density is sharp;
    the median keeps none, so a shift of the whole eval still fails.
    """
    ok = np.isfinite(interp)
    require(ok.sum() >= 0.5 * ll.size, "too few held-out points on the heatmap grid")
    d = np.abs(ll[ok] - interp[ok])
    med = float(np.median(d))
    high = float(np.quantile(np.maximum(d - allowance[ok], 0.0), 0.95))
    require(med <= median_tol and high <= high_tol,
            f"eval vs heatmap |dLL|: median {med:.4f} (tol {median_tol}), "
            f"95% beyond the interpolation allowance {high:.4f} (tol {high_tol})")
    return med, high
