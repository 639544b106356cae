"""CSV ingestion, normalization conventions, splits, and toy generators."""

import csv
import io
import itertools
import math
import os
import tracemalloc
import unittest.mock
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowcde import data
from flowcde.data import (
    BLOCK_LINES,
    CYCLIC_HOUR,
    CYCLIC_SIN,
    Dataset,
    apply_stats,
    denormalize_targets,
    encode_cyclic_hour,
    identity_stats,
    load_csv,
    load_split_indices,
    normalize,
    normalize_features,
    normalize_targets,
    save_csv,
    save_split_indices,
    split,
    toy_generator,
    toy_true_log_density,
    write_grid,
    write_table,
)
from flowcde.errors import ConfigError, DataError


def simple_dataset(n=12, d=2, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(rng.standard_normal((n, d)), rng.standard_normal(n))


# -- Dataset ------------------------------------------------------------------


def test_dataset_validates_shapes():
    with pytest.raises(DataError):
        Dataset(np.zeros((3, 2)), np.zeros(4))
    with pytest.raises(DataError):
        Dataset(np.zeros((3, 2)), np.zeros((3, 3)))
    with pytest.raises(DataError):
        Dataset(np.zeros((3, 2)), np.zeros(3), feature_names=("a",))
    with pytest.raises(DataError):
        Dataset(np.zeros((3, 2)), np.zeros(3), kinds=("numeric", "weird"))


def test_dataset_take_selects_rows():
    ds = simple_dataset()
    sub = ds.take([3, 5])
    assert sub.n == 2
    assert np.array_equal(sub.x, ds.x[[3, 5]])
    assert np.array_equal(sub.y, ds.y[[3, 5]])


# -- cyclic encoding ------------------------------------------------------------


def test_hour_six_maps_to_unit_sin():
    s, c = encode_cyclic_hour(6.0)
    assert s == pytest.approx(1.0, abs=1e-15)
    assert c == pytest.approx(0.0, abs=1e-15)


def test_cyclic_encoding_is_continuous_at_midnight():
    a = np.array(encode_cyclic_hour(23.99))
    b = np.array(encode_cyclic_hour(0.01))
    assert np.linalg.norm(a - b) < 0.006


def test_cyclic_column_expands_and_is_never_zscored():
    hours = np.array([0.0, 6.0, 12.0, 18.0])
    ds = Dataset(
        np.column_stack([hours, [1.0, 2.0, 3.0, 4.0]]),
        np.arange(4.0),
        feature_names=("hour", "load"),
        kinds=(CYCLIC_HOUR, "numeric"),
    )
    norm, stats = normalize(ds)
    assert norm.feature_names == ("hour_sin", "hour_cos", "load")
    assert norm.kinds[0] == CYCLIC_SIN
    s, c = encode_cyclic_hour(hours)
    assert np.allclose(norm.x[:, 0], s, atol=1e-15)  # untouched by z-scoring
    assert np.allclose(norm.x[:, 1], c, atol=1e-15)
    assert abs(norm.x[:, 2].mean()) < 1e-9 and abs(norm.x[:, 2].std() - 1) < 1e-9


def hourly_dataset():
    rng = np.random.default_rng(4)
    x = np.column_stack([rng.normal(size=20), rng.uniform(0, 24, 20), rng.normal(size=20)])
    return Dataset(x, rng.normal(size=20), feature_names=("a", "hour", "b"),
                   kinds=("numeric", CYCLIC_HOUR, "numeric"))


def test_feature_rows_map_like_a_dataset_and_nan_marks_only_its_columns():
    ds = hourly_dataset()
    norm, stats = normalize(ds)
    rows = np.array([[0.3, 7.5, -1.2], [-2.0, 23.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(
            normalize_features(stats, ds.x, ds.feature_names, ("hour",)), norm.x
        )
        full = normalize_features(stats, rows, ds.feature_names, ("hour",))
        expanded_from = (0, 1, 1, 2)  # a, hour_sin, hour_cos, b
        for row, want in zip(rows, full):
            for mask in itertools.product((False, True), repeat=3):
                raw = np.where(mask, np.nan, row)
                got = normalize_features(stats, raw, ds.feature_names, ("hour",))[0]
                missing = np.array([mask[j] for j in expanded_from])
                assert np.isnan(got[missing]).all()
                assert np.array_equal(got[~missing], want[~missing])
    with pytest.raises(DataError, match="do not match"):
        normalize_features(stats, rows, ds.feature_names, ())


def test_identity_stats_only_expand_the_cyclic_columns():
    ds = hourly_dataset()
    stats = identity_stats(ds.feature_names, ("hour",), ("y",))
    assert stats.feature_names == ("a", "hour_sin", "hour_cos", "b")
    assert stats.log_jacobian == 0.0
    mapped = apply_stats(stats, ds)
    s, c = encode_cyclic_hour(ds.x[:, 1])
    assert np.array_equal(mapped.x, np.column_stack([ds.x[:, 0], s, c, ds.x[:, 2]]))
    assert np.array_equal(mapped.y, ds.y)
    assert np.array_equal(denormalize_targets(stats, ds.y), ds.y)


def test_target_maps_take_one_column_or_all():
    ds = Dataset(np.arange(8.0)[:, None], np.column_stack([np.arange(8.0) ** 2, -np.arange(8.0)]),
                 target_names=("u", "v"))
    _, stats = normalize(ds)
    both = normalize_targets(stats, ds.y)
    for t in (0, 1):
        assert np.array_equal(normalize_targets(stats, ds.y[:, t], t), both[:, t])
        assert np.array_equal(denormalize_targets(stats, both[:, t], t),
                              denormalize_targets(stats, both)[:, t])


# -- normalization ----------------------------------------------------------------


def test_population_std_hand_example():
    ds = Dataset(np.array([[1.0], [2.0], [3.0]]), np.array([1.0, 2.0, 3.0]))
    norm, stats = normalize(ds)
    expect = np.array([-1.224744871391589, 0.0, 1.224744871391589])
    assert np.allclose(norm.x[:, 0], expect, atol=1e-12)
    assert np.allclose(norm.y[:, 0], expect, atol=1e-12)
    assert stats.x_std[0] == pytest.approx(math.sqrt(2.0 / 3.0), rel=1e-15)


def test_normalized_train_has_unit_moments():
    norm, stats = normalize(simple_dataset(n=50, d=3))
    assert np.all(np.abs(norm.x.mean(axis=0)) < 1e-9)
    assert np.all(np.abs(norm.x.std(axis=0) - 1) < 1e-9)
    assert np.all(np.abs(norm.y.mean(axis=0)) < 1e-9)
    assert np.all(np.abs(norm.y.std(axis=0) - 1) < 1e-9)


def test_constant_column_is_named_in_error():
    ds = Dataset(
        np.column_stack([np.ones(5), np.arange(5.0)]),
        np.arange(5.0),
        feature_names=("flat", "ok"),
    )
    with pytest.raises(DataError, match="flat"):
        normalize(ds)
    with pytest.raises(DataError, match="'y'"):
        normalize(Dataset(np.arange(5.0)[:, None], np.ones(5)))


def test_test_split_uses_train_statistics_only():
    train = simple_dataset(seed=1)
    test = simple_dataset(seed=2)
    _, stats = normalize(train)
    out1 = apply_stats(stats, test)
    # perturbing other test rows must not change a transformed row
    test2 = Dataset(test.x.copy(), test.y.copy())
    test2.x[1:] += 100.0
    out2 = apply_stats(stats, test2)
    assert np.array_equal(out1.x[0], out2.x[0])
    assert np.array_equal(out1.y[0], out2.y[0])


def test_normalization_is_idempotent():
    norm1, _ = normalize(simple_dataset(n=30, d=2, seed=5))
    norm2, _ = normalize(norm1)
    assert np.allclose(norm2.x, norm1.x, atol=1e-12)
    assert np.allclose(norm2.y, norm1.y, atol=1e-12)


def test_denormalize_and_jacobian():
    ds = simple_dataset(n=40)
    norm, stats = normalize(ds)
    assert np.allclose(denormalize_targets(stats, norm.y), ds.y, atol=1e-12)
    assert stats.log_jacobian == pytest.approx(-math.log(ds.y.std()), rel=1e-12)


# -- CSV ---------------------------------------------------------------------------


def test_csv_round_trip_is_exact(tmp_path):
    ds = simple_dataset(n=7, d=3, seed=9)
    p = tmp_path / "d.csv"
    save_csv(p, ds)
    back = load_csv(p, ds.feature_names, ds.target_names)
    assert np.array_equal(back.x, ds.x)
    assert np.array_equal(back.y, ds.y)


EXTREMES = np.array([-0.0, 5e-324, 1.7976931348623157e308, math.inf, 2.0])


def test_writers_match_the_per_cell_format():
    fh = io.StringIO()
    write_table(fh, [range(EXTREMES.size), EXTREMES, EXTREMES[::-1]])
    assert fh.getvalue() == "".join(
        f"{i},{a:.17g},{b:.17g}\n" for i, (a, b) in enumerate(zip(EXTREMES, EXTREMES[::-1]))
    )
    values = np.stack([np.roll(EXTREMES, k) for k in range(EXTREMES.size)])
    fh = io.StringIO()
    write_grid(fh, EXTREMES, EXTREMES[::-1], values)
    assert fh.getvalue() == "".join(
        f"{EXTREMES[a]:.17g},{EXTREMES[::-1][b]:.17g},{values[a, b]:.17g}\n"
        for a in range(EXTREMES.size)
        for b in range(EXTREMES.size)
    )


def test_save_csv_keeps_crlf_and_quotes_only_the_header(tmp_path):
    ds = Dataset(EXTREMES[:, None], EXTREMES[::-1], feature_names=("a,b",))
    p = tmp_path / "d.csv"
    save_csv(p, ds)
    assert p.read_bytes() == (
        '"a,b",y\r\n'
        + "".join(f"{a:.17g},{b:.17g}\r\n" for a, b in zip(EXTREMES, EXTREMES[::-1]))
    ).encode()


def _peak_bytes(write, *args):
    with open(os.devnull, "w") as fh:
        tracemalloc.start()
        try:
            write(fh, *args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def test_writers_stream_in_bounded_memory():
    # a whole-array .tolist() or a whole-file join grows with the row count
    rng = np.random.default_rng(0)
    g2 = np.linspace(-3.0, 3.0, 401)
    small, large = rng.random((400, 401)), rng.random((4000, 401))
    peaks = [_peak_bytes(write_grid, np.linspace(-2.0, 2.0, v.shape[0]), g2, v)
             for v in (small, large)]
    assert peaks[1] <= 1.25 * peaks[0], peaks
    # pointwise.csv: row number and log-likelihood
    small, large = rng.standard_normal(8000), rng.standard_normal(80000)
    peaks = [_peak_bytes(write_table, [range(v.size), v]) for v in (small, large)]
    assert peaks[1] <= 1.25 * peaks[0], peaks


def test_csv_missing_column_is_named(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,b\n1,2\n")
    with pytest.raises(DataError, match="target"):
        load_csv(p, ("a",), ("target",))


def test_csv_ragged_row_reports_line(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,y\n1,2\n3\n")
    with pytest.raises(DataError, match="row 3"):
        load_csv(p, ("a",), ("y",))


def test_csv_empty_file(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("")
    with pytest.raises(DataError, match="empty"):
        load_csv(p, ("a",), ("y",))


def test_csv_unparsable_rows_are_rejected_with_numbers(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,y\n1,2\nfoo,3\n4,5\n6,bar\n")
    ds = load_csv(p, ("a",), ("y",))
    assert ds.n == 2
    assert ds.rejected_rows == (3, 5)
    assert np.array_equal(ds.x[:, 0], [1.0, 4.0])


def test_csv_all_rows_rejected(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,y\nfoo,bar\n")
    with pytest.raises(DataError, match="no usable data rows"):
        load_csv(p, ("a",), ("y",))


def old_load_csv(path, features, targets):
    """The record-by-record reader load_csv replaced, kept as its oracle:
    (used cells as a float matrix, rejected row numbers)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader)]
        pos = [header.index(c) for c in features + targets]
        rows, rejected = [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(
                    f"{path}: row {lineno} has {len(row)} cells, header has {len(header)}"
                )
            try:
                rows.append([float(row[p]) for p in pos])
            except ValueError:
                rejected.append(lineno)
    return np.array(rows, dtype=float).reshape(-1, len(pos)), rejected


# spellings float() takes and a C parser may not, spellings nobody takes, and
# quoted cells, which csv reads by its own rules (a newline inside quotes
# continues the record on the next line)
CELL = st.one_of(
    st.floats().map(repr),
    st.floats(allow_nan=False).map(lambda v: format(v, ".17g")),
    st.integers(-(10**6), 10**6).map(str),
    st.sampled_from([
        "inf", "-Infinity", " nan ", "-nan", "NaN", "+1", "1_0", "\t2.5\xa0", "\u0661\u0662",
        "1e-400", "1e400", "-0.0", ".5", "1.",
        "", " ", "x", "1e", "1__0", "0x10", "1.5 2", '"3"', '"4,5"', '"6\n7"', 'a"b',
    ]),
)


@st.composite
def csv_lines(draw):
    """Data lines of a y,note,a file: mostly three cells, some blank, a few
    ragged."""
    lines = []
    for _ in range(draw(st.integers(0, 14))):
        kind = draw(st.sampled_from(["row"] * 8 + ["blank", "ragged"]))
        if kind == "blank":
            lines.append("")
        else:
            width = 3 if kind == "row" else draw(st.sampled_from([1, 2, 4]))
            lines.append(",".join(draw(st.lists(CELL, min_size=width, max_size=width))))
    return lines


@settings(max_examples=300, deadline=None)
@given(
    lines=csv_lines(),
    newline=st.sampled_from(["\n", "\r\n"]),
    last_newline=st.booleans(),
    block=st.integers(1, 5),
    # ("y",) twice: every used cell is in column 0, so a one-cell line
    # parses as a row in bulk and only the cell count shows it is ragged
    columns=st.sampled_from([(("a",), ("y",)), (("y",), ("y",)), (("note",), ("a",))]),
)
def test_load_csv_reads_as_the_record_loop_did(tmp_path_factory, lines, newline, last_newline,
                                              block, columns):
    path = tmp_path_factory.getbasetemp() / "property.csv"
    text = newline.join(["y,note,a"] + lines) + (newline if last_newline else "")
    path.write_bytes(text.encode())
    try:
        want, rejected = old_load_csv(path, *columns)
    except DataError as err:
        want, rejected = err, None
    with unittest.mock.patch.object(data, "BLOCK_LINES", block), warnings.catch_warnings():
        warnings.simplefilter("error")  # an all-blank block must not reach loadtxt's warning
        if rejected is None or not len(want):
            with pytest.raises(DataError) as err:
                load_csv(path, *columns)
            if rejected is not None:
                want = f"{path}: no usable data rows (rejected: {rejected})"
            assert str(err.value) == str(want)
            return
        ds = load_csv(path, *columns)
    got = np.column_stack([ds.x, ds.y])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert ds.rejected_rows == tuple(rejected)


def test_csv_quoted_cell_keeps_its_comma_and_newline(tmp_path):
    # each line looks like a well-formed row, but csv reads one record: 1,"u,2\n3,v",4
    p = tmp_path / "d.csv"
    p.write_text('y,note,a\n1,"u,2\n3,v",4\n5,w,6\n')
    ds = load_csv(p, ("a",), ("y",))
    assert np.array_equal(ds.x[:, 0], [4.0, 6.0])
    assert np.array_equal(ds.y[:, 0], [1.0, 5.0])


def test_csv_quoted_record_may_run_past_a_block(tmp_path, monkeypatch):
    monkeypatch.setattr(data, "BLOCK_LINES", 2)
    p = tmp_path / "d.csv"
    p.write_text('a,y,note\n1,2,"x\ny"\n3,4,z\nfoo,5,w\n\n6,7,v\n')
    ds = load_csv(p, ("a",), ("y",))
    assert np.array_equal(ds.x[:, 0], [1.0, 3.0, 6.0])
    assert ds.rejected_rows == (4,)  # a record, not a line: "x\ny" is one cell


def test_csv_parses_in_bounded_memory(tmp_path):
    # the record loop kept a list of Python floats per row
    extra = []
    rng = np.random.default_rng(0)
    for n in (3 * BLOCK_LINES, 12 * BLOCK_LINES):
        p = tmp_path / f"{n}.csv"
        save_csv(p, Dataset(rng.standard_normal((n, 2)), rng.standard_normal(n)))
        tracemalloc.start()
        try:
            ds = load_csv(p, ("x0", "x1"), ("y",))
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ds.n == n
        extra.append(peak - kept)
    assert extra[1] <= 1.25 * extra[0], extra


def test_csv_default_features_come_from_the_parsed_header(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text('"a,b", c ,,y\n1,2,3,4\n5,6,7,8\n')
    ds = load_csv(p, (), ("y",))
    assert ds.feature_names == ("a,b", "c")
    assert ds.x.tolist() == [[1.0, 2.0], [5.0, 6.0]] and ds.y[:, 0].tolist() == [4.0, 8.0]
    with pytest.raises(ConfigError, match="hour"):
        load_csv(p, (), ("y",), cyclic=("hour",))


def test_csv_cyclic_kind_marking(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("hour,y\n3,1\n9,2\n")
    ds = load_csv(p, ("hour",), ("y",), cyclic=("hour",))
    assert ds.kinds == (CYCLIC_HOUR,)
    with pytest.raises(ConfigError):
        load_csv(p, ("hour",), ("y",), cyclic=("minute",))


# -- splitting ----------------------------------------------------------------------


def test_split_sizes_and_partition():
    ds = simple_dataset(n=100)
    (train, valid, test), parts = split(ds, (0.8, 0.1, 0.1), seed=3)
    assert (train.n, valid.n, test.n) == (80, 10, 10)
    merged = np.sort(np.concatenate(parts))
    assert np.array_equal(merged, np.arange(100))


def test_split_is_deterministic_under_seed():
    ds = simple_dataset(n=37)
    _, parts1 = split(ds, seed=11)
    _, parts2 = split(ds, seed=11)
    _, parts3 = split(ds, seed=12)
    assert all(np.array_equal(a, b) for a, b in zip(parts1, parts2))
    assert not all(np.array_equal(a, b) for a, b in zip(parts1, parts3))


def test_split_fraction_validation():
    ds = simple_dataset()
    with pytest.raises(ConfigError):
        split(ds, (0.5, 0.2, 0.2))
    with pytest.raises(ConfigError):
        split(ds, (0.8, 0.2))


def test_split_indices_round_trip(tmp_path):
    ds = simple_dataset(n=23)
    _, parts = split(ds, seed=4)
    p = tmp_path / "idx.txt"
    save_split_indices(p, parts)
    back = load_split_indices(p)
    assert all(np.array_equal(a, b) for a, b in zip(parts, back))


@pytest.mark.parametrize("sizes", [(BLOCK_LINES + 3, 2, 5), (6, 0, 2)])
def test_split_indices_file_is_one_index_per_line(tmp_path, sizes):
    perm = np.random.default_rng(1).permutation(sum(sizes))
    parts = np.split(perm, np.cumsum(sizes)[:2])
    p = tmp_path / "idx.txt"
    save_split_indices(p, parts)
    assert p.read_text() == f"# split sizes {sizes[0]} {sizes[1]} {sizes[2]}\n" + "".join(
        f"{int(i)}\n" for part in parts for i in part
    )
    assert all(np.array_equal(a, b) for a, b in zip(parts, load_split_indices(p)))


def test_split_indices_reject_garbage(tmp_path):
    p = tmp_path / "idx.txt"
    p.write_text("1\n2\n")
    with pytest.raises(DataError):
        load_split_indices(p)


# -- toy generators --------------------------------------------------------------------


def test_gaussian_shift_truth_at_mode():
    x = np.array([0.4])
    ll = toy_true_log_density("gaussian-shift", x, np.sin(x))
    assert ll[0] == pytest.approx(-0.5 * math.log(2 * math.pi * 0.01), rel=1e-12)
    assert ll[0] == pytest.approx(1.3836, abs=5e-5)


def test_generators_are_deterministic():
    for name in ("heteroscedastic-bimodal", "gaussian-shift", "spatial-two-cluster"):
        a, la = toy_generator(name, 50, seed=8)
        b, lb = toy_generator(name, 50, seed=8)
        c, _ = toy_generator(name, 50, seed=9)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
        assert np.array_equal(la, lb)
        assert not np.array_equal(a.y, c.y)
        assert np.isfinite(la).all()


def test_unknown_generator_name():
    with pytest.raises(ConfigError):
        toy_generator("nope", 10, 0)
    with pytest.raises(ConfigError):
        toy_true_log_density("nope", np.zeros(1), np.zeros(1))


def test_bimodal_oracle_beats_best_gaussian_by_margin():
    ds, truth = toy_generator("heteroscedastic-bimodal", 5000, seed=1)
    y = ds.y[:, 0]
    # best homoscedastic Gaussian fit, in closed form
    gauss_ll = -0.5 * math.log(2 * math.pi * y.var()) - 0.5
    assert truth.mean() - gauss_ll >= 0.1


def test_bimodal_density_integrates_to_one():
    grid = np.linspace(-8, 8, 40001)
    for xv in (-1.7, 0.0, 0.9):
        ll = toy_true_log_density(
            "heteroscedastic-bimodal", np.full(grid.shape, xv), grid
        )
        assert np.trapezoid(np.exp(ll), grid) == pytest.approx(1.0, abs=1e-6)


def test_two_cluster_density_integrates_to_one():
    g = np.linspace(-4.0, 4.0, 401)
    yy1, yy2 = np.meshgrid(g, g, indexing="ij")
    pts = np.column_stack([yy1.ravel(), yy2.ravel()])
    for xv in (0.1, 0.8):
        ll = toy_true_log_density(
            "spatial-two-cluster", np.full(pts.shape[0], xv), pts
        )
        dens = np.exp(ll).reshape(401, 401)
        mass = np.trapezoid(np.trapezoid(dens, g, axis=1), g)
        assert mass == pytest.approx(1.0, abs=1e-4)


def test_two_cluster_dataset_shape():
    ds, ll = toy_generator("spatial-two-cluster", 64, seed=2)
    assert ds.y.shape == (64, 2)
    assert ds.target_names == ("y1", "y2")
    assert ll.shape == (64,)


# -- invariants -------------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(4, 60),
    d=st.integers(1, 4),
    seed=st.integers(0, 10_000),
)
def test_normalize_idempotence_property(n, d, seed):
    ds = simple_dataset(n=n, d=d, seed=seed)
    norm1, _ = normalize(ds)
    norm2, _ = normalize(norm1)
    assert np.allclose(norm2.x, norm1.x, atol=1e-12)
    assert np.allclose(norm2.y, norm1.y, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(3, 200), seed=st.integers(0, 10_000))
def test_split_partition_property(n, seed):
    ds = simple_dataset(n=n)
    _, parts = split(ds, seed=seed)
    merged = np.concatenate(parts)
    assert len(merged) == n
    assert len(np.unique(merged)) == n
