"""Dataset ingestion, normalization, splitting, and synthetic generators.

Conventions fixed here:

- z-scoring uses the POPULATION (1/N) standard deviation, computed on the
  training split only; validation/test are transformed with train statistics.
- a cyclic-hour feature column expands to (sin, cos) of 2*pi*h/24 and is
  never z-scored; expanded columns keep a cyclic kind so repeated
  normalization leaves them alone.
- normalized features saturate at +-FEATURE_LIMIT, so a far-out raw value
  (one whose z-score overflows) reaches the network as a large finite one;
  NaN stays NaN.
- held-out log-likelihoods on normalized targets convert to raw target units
  by adding NormStats.log_jacobian (= -sum ln std_y).
- raw and model units are mapped here alone: apply_stats for datasets,
  normalize_features / normalize_targets / denormalize_targets for bare rows
  and grids.  identity_stats stands in for a model fitted without stats: it
  only expands the cyclic columns.

CSV rows whose cells fail to parse are dropped and their 1-based row numbers
recorded on the dataset; file-level problems (missing column, ragged row,
empty file) raise DataError.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from itertools import chain, islice, repeat

import numpy as np

from .errors import ConfigError, DataError, StructuralError

__all__ = [
    "Dataset",
    "NormStats",
    "encode_cyclic_hour",
    "load_csv",
    "save_csv",
    "write_table",
    "write_grid",
    "identity_stats",
    "normalize",
    "apply_stats",
    "normalize_features",
    "normalize_targets",
    "denormalize_targets",
    "split",
    "save_split_indices",
    "load_split_indices",
    "toy_generator",
    "toy_true_log_density",
    "TOY_GENERATORS",
]

NUMERIC = "numeric"
CYCLIC_HOUR = "cyclic-hour"
CYCLIC_SIN = "cyclic-sin"
CYCLIC_COS = "cyclic-cos"
_KINDS = (NUMERIC, CYCLIC_HOUR, CYCLIC_SIN, CYCLIC_COS)
FEATURE_LIMIT = 1e150  # |normalised feature| cap: x * w and sum(x * x) stay finite


@dataclass(frozen=True)
class Dataset:
    """Feature matrix, target matrix (1 or 2 columns), and column metadata."""

    x: np.ndarray
    y: np.ndarray
    feature_names: tuple = ()
    target_names: tuple = ("y",)
    kinds: tuple = ()
    rejected_rows: tuple = ()

    def __post_init__(self):
        x = np.atleast_2d(np.asarray(self.x, dtype=float))
        y = np.asarray(self.y, dtype=float)
        if y.ndim == 1:
            y = y[:, None]
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        if not self.feature_names:
            object.__setattr__(
                self, "feature_names", tuple(f"x{i}" for i in range(x.shape[1]))
            )
        if not self.kinds:
            object.__setattr__(self, "kinds", (NUMERIC,) * x.shape[1])
        if x.shape[0] != y.shape[0]:
            raise DataError(f"{x.shape[0]} feature rows but {y.shape[0]} target rows")
        if y.shape[1] not in (1, 2):
            raise DataError(f"targets must have 1 or 2 columns, got {y.shape[1]}")
        if len(self.feature_names) != x.shape[1] or len(self.kinds) != x.shape[1]:
            raise DataError("feature names/kinds do not match the feature count")
        if len(self.target_names) != y.shape[1]:
            raise DataError("target names do not match the target count")
        bad = [k for k in self.kinds if k not in _KINDS]
        if bad:
            raise DataError(f"unknown column kinds {bad}")

    @property
    def n(self):
        return self.x.shape[0]

    def take(self, indices):
        idx = np.asarray(indices, dtype=int)
        return replace(self, x=self.x[idx], y=self.y[idx], rejected_rows=())


def encode_cyclic_hour(hours):
    """(sin, cos) of 2*pi*h/24; hour 6 maps to (1, 0)."""
    ang = 2.0 * math.pi * np.asarray(hours, dtype=float) / 24.0
    return np.sin(ang), np.cos(ang)


def _column_kinds(features, cyclic):
    """Kinds of raw feature columns: cyclic-hour for those named in cyclic."""
    return tuple(CYCLIC_HOUR if c in cyclic else NUMERIC for c in features)


def _expand(x, names, kinds):
    """(x, names, kinds) with each cyclic-hour column replaced by its (sin, cos)
    pair; a NaN hour gives a NaN pair."""
    if CYCLIC_HOUR not in kinds:
        return x, tuple(names), tuple(kinds)
    cols, out_names, out_kinds = [], [], []
    for j, (name, kind) in enumerate(zip(names, kinds)):
        if kind == CYCLIC_HOUR:
            s, c = encode_cyclic_hour(x[:, j])
            cols += [s, c]
            out_names += [f"{name}_sin", f"{name}_cos"]
            out_kinds += [CYCLIC_SIN, CYCLIC_COS]
        else:
            cols.append(x[:, j])
            out_names.append(name)
            out_kinds.append(kind)
    return np.column_stack(cols), tuple(out_names), tuple(out_kinds)


@dataclass(frozen=True)
class NormStats:
    """Train-split moments over the expanded feature columns and targets."""

    feature_names: tuple
    kinds: tuple
    x_mean: np.ndarray
    x_std: np.ndarray
    y_mean: np.ndarray
    y_std: np.ndarray

    @property
    def log_jacobian(self):
        """Add this to a normalized-units log-likelihood to get raw units."""
        return -float(np.log(self.y_std).sum())


def identity_stats(features, cyclic, targets):
    """Stats that keep raw units: zero means and unit stds over the expanded
    columns of the schema, so only the cyclic expansion applies."""
    _, names, kinds = _expand(np.empty((0, len(features))), features,
                              _column_kinds(features, cyclic))
    return NormStats(names, kinds, np.zeros(len(names)), np.ones(len(names)),
                     np.zeros(len(targets)), np.ones(len(targets)))


def normalize(train):
    """(normalized train, stats); population std from the train split only."""
    x, names, kinds = _expand(train.x, train.feature_names, train.kinds)
    x_mean = np.zeros(x.shape[1])
    x_std = np.ones(x.shape[1])
    for j, kind in enumerate(kinds):
        if kind != NUMERIC:
            continue
        x_mean[j] = x[:, j].mean()
        x_std[j] = x[:, j].std()
        if x_std[j] <= 0:
            raise DataError(f"constant feature column {names[j]!r}")
    y_mean = train.y.mean(axis=0)
    y_std = train.y.std(axis=0)
    for t, sd in enumerate(y_std):
        if sd <= 0:
            raise DataError(f"constant target column {train.target_names[t]!r}")
    stats = NormStats(names, kinds, x_mean, x_std, y_mean, y_std)
    return apply_stats(stats, train), stats


def _scale_features(stats, x, names):
    """Normalised features, saturated at +-FEATURE_LIMIT; NaN stays NaN."""
    if names != stats.feature_names:
        raise DataError(f"columns {names} do not match stats {stats.feature_names}")
    with np.errstate(over="ignore"):  # a far-out raw value overflows, then saturates
        return np.clip((x - stats.x_mean) / stats.x_std, -FEATURE_LIMIT, FEATURE_LIMIT)


def apply_stats(stats, other):
    """Transform any dataset with train statistics (no leakage by design)."""
    x, names, kinds = _expand(other.x, other.feature_names, other.kinds)
    return replace(
        other,
        x=_scale_features(stats, x, names),
        y=normalize_targets(stats, other.y),
        feature_names=names,
        kinds=kinds,
    )


def normalize_features(stats, rows, features, cyclic=()):
    """Raw feature rows (N, len(features)) in model units; NaN stays NaN."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    x, names, _ = _expand(rows, features, _column_kinds(features, cyclic))
    return _scale_features(stats, x, names)


def normalize_targets(stats, y, column=slice(None)):
    """Raw targets in model units: every column, or the one column given."""
    return (np.asarray(y, dtype=float) - stats.y_mean[column]) / stats.y_std[column]


def denormalize_targets(stats, y, column=slice(None)):
    """Model-unit targets back in raw units: every column, or the one given."""
    return np.asarray(y, dtype=float) * stats.y_std[column] + stats.y_mean[column]


# -- CSV ----------------------------------------------------------------------

BLOCK_LINES = 4096  # lines per read or write, so a table's memory stays bounded


def load_csv(path, features, targets, cyclic=()):
    """Read a numeric CSV with header; unparsable rows are dropped and their
    1-based row numbers recorded in Dataset.rejected_rows.  Empty features
    select every named non-target column of the header.

    Lines are parsed BLOCK_LINES at a time into one array sized from a count
    of the file's line endings, so the memory used beyond the result does not
    grow with the row count.  A block that does not parse in bulk is read
    again record by record, as csv reads it, to name its rejected rows.
    """
    targets = tuple(targets)
    with open(path, newline="") as fh:
        capacity = _count_lines(fh)
        fh.seek(0)
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        features = tuple(features) or tuple(c for c in header if c and c not in targets)
        unknown_cyclic = [c for c in cyclic if c not in features]
        if unknown_cyclic:
            raise ConfigError(f"cyclic columns {unknown_cyclic} are not feature columns")
        missing = [c for c in features + targets if c not in header]
        if missing:
            raise DataError(f"{path}: missing column(s) {missing}")
        pos = [header.index(c) for c in features + targets]
        mat = np.empty((capacity, len(pos)))
        n, rejected, lineno = 0, [], 2
        while lines := list(islice(fh, BLOCK_LINES)):
            block = _parse_block(lines, pos, len(header))
            if block is None:
                block, lineno = _walk_block(lines, fh, pos, len(header), path, lineno, rejected)
            else:
                lineno += len(lines)
            mat[n : n + len(block)] = block
            n += len(block)
    if not n:
        raise DataError(f"{path}: no usable data rows (rejected: {rejected})")
    mat = mat[:n]
    return Dataset(
        x=mat[:, : len(features)],
        y=mat[:, len(features):],
        feature_names=features,
        target_names=targets,
        kinds=_column_kinds(features, cyclic),
        rejected_rows=tuple(rejected),
    )


def _count_lines(fh):
    """An upper bound on the records of a file opened with newline="": one
    per line ending, plus an unterminated last line."""
    n = 1
    for chunk in iter(lambda: fh.read(1 << 16), ""):
        n += chunk.count("\n") + chunk.count("\r") - chunk.count("\r\n")
    return n


def _parse_block(lines, pos, width):
    """The cells at ``pos`` of a block of lines as a float array, blank lines
    skipped; None when a line must be read on its own: it holds a quote or a
    NUL, has other than ``width`` cells, or has a cell NumPy cannot parse."""
    text = "".join(lines)
    if '"' in text or "\0" in text:
        return None
    commas = set(map(str.count, lines, repeat(",")))
    if not commas <= {0, width - 1}:
        return None
    if 0 in commas and width > 1 and any(s.strip("\r\n") for s in lines if "," not in s):
        return None
    if not text.strip("\r\n"):
        return np.empty((0, len(pos)))
    try:
        return np.loadtxt(lines, delimiter=",", comments=None, usecols=pos, ndmin=2)
    except ValueError:
        return None


def _walk_block(lines, fh, pos, width, path, lineno, rejected):
    """Read a block record by record, as csv does: float() each used cell,
    append the 1-based number of a row that fails to ``rejected``, raise on
    a row with other than ``width`` cells.  A quoted record may run past the
    block; its remaining lines are read from fh.  Returns the parsed rows and
    the next row number."""
    reader = csv.reader(chain(lines, fh))
    rows = []
    for row in reader:
        if row:
            if len(row) != width:
                raise DataError(f"{path}: row {lineno} has {len(row)} cells, header has {width}")
            try:
                rows.append([float(row[p]) for p in pos])
            except ValueError:
                rejected.append(lineno)
        lineno += 1
        if reader.line_num >= len(lines):
            break
    return np.array(rows, dtype=float).reshape(-1, len(pos)), lineno


def save_csv(path, ds):
    """Write features then targets, %.17g so a round trip is bit-exact."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(list(ds.feature_names) + list(ds.target_names))
        write_table(fh, [*ds.x.T, *ds.y.T], newline="\r\n")


def _cells(column):
    """%.17g cells of a float NumPy column; the str of each item of any other."""
    if isinstance(column, np.ndarray):
        if column.dtype.kind != "f":
            return list(map(str, column.tolist()))
        return list(map(format, column.tolist(), repeat(".17g")))
    return map(str, column)


def _write_lines(fh, cells, newline):
    # cells is a list, not a generator: unpacking a generator into zip(*...)
    # resizes a fresh tuple per call, and CPython's free list keeps up to
    # 2000 of them, which shows as memory growing with the row count
    fh.write(newline.join(map(",".join, zip(*cells))) + newline)


def write_table(fh, columns, newline="\n"):
    """Stream equal-length columns to an open text file as CSV lines.

    A float NumPy column is written %.17g, so a round trip is bit-exact; any
    other column (row numbers, indices, option strings) is written with str.  Each write
    carries BLOCK_LINES lines.
    """
    for start in range(0, len(columns[0]), BLOCK_LINES):
        _write_lines(fh, [_cells(c[start : start + BLOCK_LINES]) for c in columns], newline)


def write_grid(fh, g1, g2, values):
    """Stream one `g1[a],g2[b],values[a, b]` line per cell, a-major, at %.17g.

    Each write carries one grid row, and each axis is formatted once.
    """
    g2_cells = _cells(g2)
    for a, row in zip(g1, values):
        _write_lines(fh, [repeat(format(a, ".17g")), g2_cells, _cells(row)], "\n")


# -- splitting ------------------------------------------------------------------


def split(ds, fractions=(0.8, 0.1, 0.1), seed=0):
    """Deterministic shuffled (train, valid, test) split.

    Sizes are floor(f * N) with the remainder joining the last split; returns
    the three datasets and their row-index arrays for persistence.
    """
    if len(fractions) != 3:
        raise ConfigError("need exactly three split fractions")
    if abs(sum(fractions) - 1.0) > 1e-9 or any(f < 0 for f in fractions):
        raise ConfigError(f"fractions must be >= 0 and sum to 1, got {fractions}")
    perm = np.random.default_rng(seed).permutation(ds.n)
    n1 = int(fractions[0] * ds.n)
    n2 = int(fractions[1] * ds.n)
    parts = (perm[:n1], perm[n1 : n1 + n2], perm[n1 + n2 :])
    return tuple(ds.take(p) for p in parts), parts


def save_split_indices(path, parts):
    train, valid, test = parts
    with open(path, "w") as fh:
        fh.write(f"# split sizes {len(train)} {len(valid)} {len(test)}\n")
        write_table(fh, [np.concatenate(parts).astype(int)])


def load_split_indices(path):
    with open(path) as fh:
        header = fh.readline().split()
        if header[:3] != ["#", "split", "sizes"]:
            raise DataError(f"{path}: not a split-index file")
        sizes = [int(s) for s in header[3:6]]
        idx = [int(line) for line in fh if line.strip()]
    if len(idx) != sum(sizes):
        raise DataError(f"{path}: expected {sum(sizes)} indices, found {len(idx)}")
    out, pos = [], 0
    for s in sizes:
        out.append(np.asarray(idx[pos : pos + s], dtype=int))
        pos += s
    return tuple(out)


# -- synthetic generators ---------------------------------------------------------

TOY_GENERATORS = ("heteroscedastic-bimodal", "gaussian-shift", "spatial-two-cluster")

_LOG_2PI = math.log(2.0 * math.pi)


def _bimodal_parts(x):
    m = 0.5 + 0.25 * x**2  # branch separation grows with |x|
    s = 0.15 + 0.05 * (1.0 + np.sin(2.0 * x))  # noise scale in [0.15, 0.25]
    return m, s


def _two_cluster_parts(x):
    w = 0.35 + 0.3 * x
    c1 = np.stack([-1.0 - 0.5 * x, -0.5 + 0.2 * x], axis=-1)
    c2 = np.stack([0.8 + 0.4 * x, 0.6 - 0.3 * x], axis=-1)
    return w, c1, c2, 0.25, 0.35


def toy_true_log_density(name, x, y):
    """Closed-form generator log density; x (N,) or (N,1); y (N,) or (N,T)."""
    x = np.asarray(x, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float)
    if name == "heteroscedastic-bimodal":
        y = y.reshape(-1)
        m, s = _bimodal_parts(x)
        lo = -0.5 * _LOG_2PI - np.log(s)
        lp = lo - 0.5 * ((y - m) / s) ** 2
        lm = lo - 0.5 * ((y + m) / s) ** 2
        return np.logaddexp(lp, lm) - math.log(2.0)
    if name == "gaussian-shift":
        y = y.reshape(-1)
        return -0.5 * _LOG_2PI - math.log(0.1) - 0.5 * ((y - np.sin(x)) / 0.1) ** 2
    if name == "spatial-two-cluster":
        y = y.reshape(-1, 2)
        w, c1, c2, s1, s2 = _two_cluster_parts(x)
        q1 = ((y - c1) ** 2).sum(axis=1)
        q2 = ((y - c2) ** 2).sum(axis=1)
        l1 = np.log(w) - _LOG_2PI - 2 * math.log(s1) - 0.5 * q1 / s1**2
        l2 = np.log1p(-w) - _LOG_2PI - 2 * math.log(s2) - 0.5 * q2 / s2**2
        return np.logaddexp(l1, l2)
    raise ConfigError(f"unknown generator {name!r} (expected one of {TOY_GENERATORS})")


def toy_generator(name, n, seed):
    """(Dataset, true per-point log density). Deterministic under seed."""
    if n < 1:
        raise StructuralError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    if name == "heteroscedastic-bimodal":
        x = rng.uniform(-2.0, 2.0, n)
        m, s = _bimodal_parts(x)
        sign = rng.choice([-1.0, 1.0], size=n)
        y = sign * m + s * rng.standard_normal(n)
        ds = Dataset(x[:, None], y, feature_names=("x",))
    elif name == "gaussian-shift":
        x = rng.uniform(-3.0, 3.0, n)
        y = np.sin(x) + 0.1 * rng.standard_normal(n)
        ds = Dataset(x[:, None], y, feature_names=("x",))
    elif name == "spatial-two-cluster":
        x = rng.uniform(0.0, 1.0, n)
        w, c1, c2, s1, s2 = _two_cluster_parts(x)
        pick = rng.random(n) < w
        centers = np.where(pick[:, None], c1, c2)
        scales = np.where(pick, s1, s2)
        y = centers + scales[:, None] * rng.standard_normal((n, 2))
        ds = Dataset(
            x[:, None], y, feature_names=("x",), target_names=("y1", "y2")
        )
    else:
        raise ConfigError(
            f"unknown generator {name!r} (expected one of {TOY_GENERATORS})"
        )
    return ds, toy_true_log_density(name, ds.x[:, 0], ds.y)
