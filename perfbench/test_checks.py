"""Each output check passes on a sound artifact and fails on a corrupted one.

    python3 -m pytest perfbench/test_checks.py
"""

import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks as C  # noqa: E402
from tracing import SpanSet, Tracer  # noqa: E402
from verify import same_outputs  # noqa: E402

from flowcde import training  # noqa: E402
from flowcde.bnn import BayesianMLP, MLPArchitecture, init_posterior  # noqa: E402
from flowcde.heads import make_head  # noqa: E402


def normal_pdf(y, mu=0.0, sd=1.0):
    return np.exp(-0.5 * ((y - mu) / sd) ** 2) / (sd * math.sqrt(2 * math.pi))


def write(path, header, rows):
    lines = [",".join(header)] + [",".join(format(v, ".17g") for v in r) for r in rows]
    path.write_text("\n".join(lines) + "\n")
    return path


def fails(fn, *args, **kwargs):
    with pytest.raises(C.CheckFailed):
        fn(*args, **kwargs)


# -- train ---------------------------------------------------------------------------


def trace_rows(n=20):
    rows = []
    for i in range(n):
        nll, kl = 100.0 - 2.0 * i, 50.0 + 0.01 * i
        rows.append((1, i, nll, kl, nll + kl))
    return rows


def test_trace_accepts_a_sound_trace_and_rejects_corruptions(tmp_path):
    header = ("stage", "iteration", "expected_nll", "kl", "free_energy")
    rows = trace_rows()
    C.check_trace(write(tmp_path / "t.csv", header, rows), 1, 20)

    bad = [list(r) for r in rows]
    bad[7][4] += 1e-6  # free energy is no longer NLL + KL
    fails(C.check_trace, write(tmp_path / "a.csv", header, bad), 1, 20)

    bad = [list(r) for r in rows]
    bad[3][2] = math.nan
    fails(C.check_trace, write(tmp_path / "b.csv", header, bad), 1, 20)

    rising = [(1, i, 10.0 + i, 1.0, 11.0 + i) for i in range(20)]
    fails(C.check_trace, write(tmp_path / "c.csv", header, rising), 1, 20)
    fails(C.check_trace, write(tmp_path / "d.csv", header, rows[:-1]), 1, 20)


def small_model():
    head = make_head("nf", n_stages=2)
    arch = MLPArchitecture(1, (5,), head.output_dim)
    post = init_posterior(arch, seed=0, sigma_init=0.1, mode="learned")
    net = BayesianMLP(arch, post, head.default_prior(), head.group_map())
    model = training.CdeModel(net, head, head.init_extras())
    rng = np.random.default_rng(4)
    model.set_trainable(model.trainable_vector() + 0.1 * rng.standard_normal(
        model.trainable_vector().size))
    return model, rng.standard_normal((6, 1)), rng.standard_normal(6)


def test_gradient_check_passes_the_program_and_catches_a_wrong_gradient():
    model, x, y = small_model()
    C.check_gradient(model, x, y, 6, 7, training.free_energy, training.free_energy_value)

    def off_by_1e5(*args):
        report, grad = training.free_energy(*args)
        return report, grad * (1.0 + 1e-5)

    fails(C.check_gradient, model, x, y, 6, 7, off_by_1e5, training.free_energy_value)


def test_gradient_check_steps_past_a_kink_but_not_a_wrong_gradient():
    # F(v) = |v|^2 + 3 |v0 + 4e-6| has a kink 4e-6 below the point, inside
    # the central difference's step of 1e-5; F'(0) = (3, 0, 0).
    class Model:
        head = SimpleNamespace(n_extras=0)
        v = np.zeros(3)

        def trainable_vector(self):
            return self.v.copy()

        def set_trainable(self, v):
            self.v = np.asarray(v, dtype=float).copy()

    def value(model, *_):
        return float(model.v @ model.v + 3.0 * abs(model.v[0] + 4e-6))

    def gradient(scale):
        def free_energy(model, *args):
            report = SimpleNamespace(free_energy=value(model, *args))
            return report, scale * np.array([3.0, 0.0, 0.0])
        return free_energy

    C.check_gradient(Model(), None, None, 1, 0, gradient(1.0), value)
    fails(C.check_gradient, Model(), None, None, 1, 0, gradient(1.0 + 1e-5), value)


# -- eval ----------------------------------------------------------------------------


def test_pointwise_rejects_nan_and_a_wrong_count(tmp_path):
    rows = [(i, -1.0 - 0.01 * i) for i in range(10)]
    ll = C.read_pointwise(write(tmp_path / "p.csv", ("i", "ll"), rows), 10)
    assert ll.size == 10
    rows[4] = (4, math.nan)
    fails(C.read_pointwise, write(tmp_path / "q.csv", ("i", "ll"), rows), 10)
    fails(C.read_pointwise, tmp_path / "p.csv", 11)


def test_summary_must_agree_with_pointwise_and_hold_no_nan(tmp_path):
    ll = np.array([-1.0, -2.0])
    path = tmp_path / "summary.txt"
    path.write_text("n = 2\nmean_ll = -1.5\nsem = 0.5\nraw_units = true\n")
    C.check_summary(path, ll)
    path.write_text("n = 2\nmean_ll = -1.25\nsem = 0.5\nraw_units = true\n")
    fails(C.check_summary, path, ll)
    path.write_text("n = 2\nmean_ll = nan\nsem = nan\nraw_units = true\n")
    fails(C.check_summary, path, ll)


def test_gibbs_bound_and_gaussian_baseline():
    rng = np.random.default_rng(0)
    y = rng.standard_normal(5000)
    true_ll = np.log(normal_pdf(y))
    C.check_gibbs(np.log(normal_pdf(y, 0.0, 1.2)), true_ll)
    fails(C.check_gibbs, true_ll + 0.05, true_ll)

    gauss = C.gaussian_log_density(y, y)
    C.check_beats_gaussian(gauss + 0.01, gauss)
    fails(C.check_beats_gaussian, gauss - 0.01, gauss)


def test_probe_follows_the_exit_code_contract():
    assert C.probe_ok(4, "", "")
    assert C.probe_ok(0, "mean_ll = -inf +- 0 (n=64)\n", "mean_ll = -inf\n")
    assert not C.probe_ok(0, "mean_ll = nan +- nan (n=64)\n", "")
    assert not C.probe_ok(0, "mean_ll = -1.0 +- 0.1 (n=64)\n", "mean_ll = nan\n")
    assert not C.probe_ok(1, "", "")


# -- heatmaps and samples ------------------------------------------------------------


def grid_1d(tmp_path, scale=1.0):
    xs = np.linspace(-1.0, 1.0, 5)
    ys = np.linspace(-6.0, 6.0, 241)
    rows = [(x, y, scale * normal_pdf(y, 0.3 * x)) for x in xs for y in ys]
    return C.read_grid(write(tmp_path / f"h{scale}.csv", ("x", "y", "density"), rows))


def test_row_mass_rejects_a_heatmap_scaled_by_1_1(tmp_path):
    _, ys, dens = grid_1d(tmp_path)
    C.check_row_mass(ys, dens)
    _, ys, dens = grid_1d(tmp_path, 1.1)
    fails(C.check_row_mass, ys, dens)


def test_row_mass_allows_quadrature_error_but_not_a_scaled_sharp_row():
    # A smooth bimodal row with 2% of its mass in a spike of sd 0.01, on a
    # grid of step 0.05: its true mass is 1, but the trapezoid rule reads
    # it 2% high.
    ys = np.linspace(-4.0, 4.0, 161)
    smooth = 0.5 * (normal_pdf(ys, -1.2, 0.2) + normal_pdf(ys, 1.5, 0.25))
    dens = (0.98 * smooth + 0.02 * normal_pdf(ys, 1.55, 0.01))[None, :]
    assert abs(np.trapezoid(dens[0], ys) - 1.0) > 0.01
    C.check_row_mass(ys, dens)
    fails(C.check_row_mass, ys, 1.1 * dens)
    fails(C.check_row_mass, ys, 0.9 * dens)


def test_grid_rejects_negative_or_missing_cells(tmp_path):
    rows = [(0.0, 0.0, 1.0), (0.0, 1.0, -0.5), (1.0, 0.0, 1.0), (1.0, 1.0, 1.0)]
    fails(C.read_grid, write(tmp_path / "neg.csv", ("x", "y", "density"), rows))
    fails(C.read_grid, write(tmp_path / "gap.csv", ("x", "y", "density"), rows[:3]))


def test_quantile_order(tmp_path):
    header = ("x", "median", "q025", "q975")
    C.check_quantiles(write(tmp_path / "q.csv", header, [(0, 0.0, -2.0, 2.0)] * 3))
    fails(C.check_quantiles,
          write(tmp_path / "r.csv", header, [(0, 0.0, -2.0, 2.0), (1, 2.5, -2.0, 2.0)]))


def test_ks_rejects_draws_shifted_by_one_standard_deviation(tmp_path):
    xs, ys, dens = grid_1d(tmp_path)
    row = C.grid_row(xs, 0.5)
    draws = np.random.default_rng(1).normal(0.15, 1.0, 2000)
    C.check_ks(draws, ys, dens[row])
    fails(C.check_ks, draws + 1.0, ys, dens[row])
    fails(C.grid_row, xs, 0.4)


def test_tv_rejects_2d_draws_shifted_by_one_standard_deviation():
    g1 = np.linspace(-4.0, 4.0, 81)
    g2 = np.linspace(-4.0, 4.0, 81)
    dens = normal_pdf(g1, 0.0, 0.7)[:, None] * normal_pdf(g2, 0.5, 0.9)[None, :]
    draws = np.random.default_rng(2).normal([0.0, 0.5], [0.7, 0.9], (1000, 2))
    C.check_tv(draws, g1, g2, dens)
    fails(C.check_tv, draws + [0.7, 0.0], g1, g2, dens)
    C.check_grid_mass(g1, g2, dens)
    fails(C.check_grid_mass, g1, g2, 1.1 * dens)


def test_samples_count_and_finiteness(tmp_path):
    path = write(tmp_path / "s.csv", ("y",), [(0.1,), (0.2,), (math.nan,)])
    fails(C.read_samples, path, 3, 1)
    fails(C.read_samples, path, 4, 1)


def test_eval_must_agree_with_the_heatmap(tmp_path):
    xs, ys, dens = grid_1d(tmp_path)
    rng = np.random.default_rng(3)
    px = rng.uniform(-1.0, 1.0, 500)
    py = rng.normal(0.3 * px, 1.0)
    ll = np.log(normal_pdf(py, 0.3 * px))
    C.check_eval_vs_heatmap(ll, *C.interp_log_grid(xs, ys, dens, px, py))
    _, _, scaled = grid_1d(tmp_path, 1.1)
    fails(C.check_eval_vs_heatmap, ll, *C.interp_log_grid(xs, ys, scaled, px, py))


def test_eval_vs_heatmap_allows_interpolation_error_but_not_a_wrong_eval():
    # 15% of the mass in a ridge of sd 0.04, on a grid of steps 0.1 x 0.05:
    # bilinear interpolation misses the ridge's rows by more than 0.15.
    def density(x, y):
        return 0.85 * normal_pdf(y, 0.3 * x) + 0.15 * normal_pdf(y, 1.5 + 0.5 * x, 0.04)

    xs, ys = np.linspace(-1.0, 1.0, 21), np.linspace(-4.0, 4.0, 161)
    dens = np.array([density(x, ys) for x in xs])
    rng = np.random.default_rng(3)
    px = rng.uniform(-1.0, 1.0, 1000)
    ridge = rng.random(1000) < 0.15
    py = np.where(ridge, rng.normal(1.5 + 0.5 * px, 0.04), rng.normal(0.3 * px, 1.0))
    ll = np.log(density(px, py))
    interp, allowance = C.interp_log_grid(xs, ys, dens, px, py)
    assert np.quantile(np.abs(ll - interp), 0.95) > 0.15
    C.check_eval_vs_heatmap(ll, interp, allowance)
    fails(C.check_eval_vs_heatmap, ll + 0.05, interp, allowance)
    fails(C.check_eval_vs_heatmap, np.where(ridge, ll + 0.5, ll), interp, allowance)


# -- repeated rounds and tracing -----------------------------------------------------


def test_repeat_rounds_must_match_byte_for_byte(tmp_path):
    for name in ("a", "b"):
        (tmp_path / name / "eval").mkdir(parents=True)
        (tmp_path / name / "eval" / "pointwise.csv").write_text("i,ll\n0,-1.5\n")
    op = SimpleNamespace(label="eval")
    res = SimpleNamespace(code=0, stdout="mean_ll = -1.5\n")
    assert same_outputs(op, res, res, tmp_path / "a", tmp_path / "b") is None
    (tmp_path / "a" / "eval" / "pointwise.csv").write_text("i,ll\n0,-1.4\n")
    assert same_outputs(op, res, res, tmp_path / "a", tmp_path / "b")


def test_tracer_records_nested_spans_and_restores_the_program():
    from flowcde import autoreg, cli

    original = training.predictive_log_density
    model, x, y = small_model()
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.predictive_log_density is not original
        assert autoreg.predictive_log_density is cli.predictive_log_density
        training.predictive_log_density(model, x, y, 3, np.random.default_rng(0))
    finally:
        tracer.uninstall()
    assert cli.predictive_log_density is original
    assert autoreg.predictive_log_density is original

    names = [s[0] for s in tracer.spans]
    assert names[0] == "training.predictive_log_density"
    forward = tracer.spans[names.index("bnn.forward_np")]
    assert forward[3] == 0 and forward[4] == 3 * 6
    spans = SpanSet(tracer.spans, [(0, len(tracer.spans))])
    whole = tracer.spans[0][2] - tracer.spans[0][1]
    total_self = sum(spans.self_time(m) for m in ("training", "bnn", "heads", "flows"))
    assert total_self == pytest.approx(whole, rel=1e-9)
    assert spans.per_unit("training.predictive_log_density", 1.0) == pytest.approx(whole / 18)


def test_benchmark_json_names_every_metric_the_runs_print():
    import json

    from run import UNITS
    from sweep import HEADS, MODES
    from tracing import MODULES, SPAN_METRICS

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == UNITS
    layer = {f"{m}.self_s": "s" for m in MODULES}
    layer.update({name: unit for name, unit, *_ in SPAN_METRICS})
    layer.update({"tape.nodes_per_datum_draw": "count", "bnn.kl.us_per_step": "us",
                  "trace.overhead_pct": "%"})
    for head in HEADS:
        layer[f"heads.curve_log_density.{head}.ns_per_cell"] = "ns"
        for mode in MODES:
            layer[f"training.free_energy.{head}.{mode}.us_per_datum_draw"] = "us"
            layer[f"training.free_energy_value.{head}.{mode}.us_per_datum_draw"] = "us"
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layer
