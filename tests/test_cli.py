"""End-to-end tests of the command-line interface.

Heavy artifacts (a trained run on toy data) are built once per module and
shared; every command is exercised through main() so the exit-code contract
is what's under test.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from flowcde.bnn import BayesianMLP, MLPArchitecture, init_posterior
from flowcde.checkpoint import Checkpoint, save_checkpoint
from flowcde.cli import main, parse_config_file, resolve_settings
from flowcde.data import load_csv, toy_true_log_density
from flowcde.errors import ConfigError
from flowcde.heads import make_head
from flowcde.training import CdeModel


def run(*args):
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def toy(workdir):
    out = workdir / "toy"
    assert run("gen-toy", f"out={out}", "name=gaussian-shift", "n=400", "seed=1") == 0
    return out


@pytest.fixture(scope="module")
def trained(workdir, toy):
    out = workdir / "run"
    code = run(
        "train",
        f"data={toy / 'data.csv'}",
        "features=x",
        "targets=y",
        "head=nf",
        "n_stages=2",
        "hidden=8",
        "iterations=150",
        "mc_train=5",
        "seed=0",
        f"out={out}",
    )
    assert code == 0
    return out


# -- settings resolution ----------------------------------------------------------


def test_defaults_then_file_then_overrides(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("iterations = 77\nseed = 3\n")
    values, raw, _ = resolve_settings("train", str(cfg), ["seed=9"])
    assert values["iterations"] == 77  # from file
    assert values["seed"] == 9  # override wins
    assert values["learning_rate"] == 0.005  # default
    assert raw["iterations"] == "77" and raw["seed"] == "9"


def test_unknown_keys_reported_together(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("zeta = 1\n")
    with pytest.raises(ConfigError) as err:
        resolve_settings("train", str(cfg), ["alpha9=2"])
    assert "alpha9" in str(err.value) and "zeta" in str(err.value)


def test_bad_value_names_the_setting():
    with pytest.raises(ConfigError, match="iterations"):
        resolve_settings("train", None, ["iterations=soon"])


def test_meta_keys_accepted_and_command_checked():
    _, _, meta = resolve_settings("train", None, ["command=train", "version=0.0"])
    assert meta == {"command": "train", "version": "0.0"}
    with pytest.raises(ConfigError, match="command"):
        resolve_settings("eval", None, ["command=train"])


def test_config_file_parser(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("# comment\n\na = 1\nb = x = y\n")
    assert parse_config_file(str(cfg)) == {"a": "1", "b": "x = y"}
    with pytest.raises(ConfigError, match="line 1"):
        bad = tmp_path / "bad.cfg"
        bad.write_text("just words\n")
        parse_config_file(str(bad))


def test_missing_config_file_is_config_error():
    assert run("train", "--config", "/nonexistent.cfg") == 2


# -- exit codes --------------------------------------------------------------------


def test_unknown_setting_exits_2():
    assert run("train", "frobnicate=1") == 2


def test_missing_data_exits_3(tmp_path):
    assert run("train", "data=/nonexistent.csv", f"out={tmp_path / 'x'}") == 3


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_training_data_exits_4(tmp_path):
    data = tmp_path / "bad.csv"
    rows = ["x,y"] + [f"{i * 0.1},{i * 0.2}" for i in range(20)] + ["0.5,inf"]
    data.write_text("\n".join(rows) + "\n")
    code = run(
        "train",
        f"data={data}",
        "features=x",
        "iterations=5",
        "hidden=4",
        "mc_train=2",
        "split=1.0,0.0,0.0",
        f"out={tmp_path / 'run'}",
    )
    assert code == 4


def test_nan_gradient_exits_4_naming_the_iteration(toy, tmp_path, monkeypatch, capsys):
    from flowcde.tape import Tape

    real = Tape.backward

    def poisoned(self, output):
        adj = real(self, output)
        adj[0] = np.full_like(adj[0], np.nan)
        return adj

    monkeypatch.setattr(Tape, "backward", poisoned)
    out = tmp_path / "nan"
    assert run(
        "train", f"data={toy / 'data.csv'}", "features=x", "hidden=4",
        "iterations=3", "mc_train=2", f"out={out}",
    ) == 4
    printed = capsys.readouterr()
    assert "iteration 0: non-finite gradient nan at coordinate 0" in printed.err
    assert "nan" not in printed.out
    assert not (out / "checkpoint.ckpt").exists()


def test_data_hash_mismatch_exits_3(toy, tmp_path):
    code = run(
        "train",
        f"data={toy / 'data.csv'}",
        "features=x",
        "data_sha256=0000",
        f"out={tmp_path / 'x'}",
    )
    assert code == 3


# -- gen-toy -----------------------------------------------------------------------


def test_gen_toy_artifacts(toy):
    ds = load_csv(toy / "data.csv", ("x",), ("y",))
    assert ds.n == 400 and not ds.rejected_rows
    truth = np.genfromtxt(toy / "truth.csv", delimiter=",", names=True)
    recomputed = toy_true_log_density("gaussian-shift", ds.x, ds.y)
    np.testing.assert_allclose(truth["true_ll"], recomputed, rtol=1e-12)
    assert (toy / "manifest.cfg").exists()


def test_gen_toy_unknown_name_exits_2(tmp_path):
    assert run("gen-toy", "name=mystery", f"out={tmp_path / 'x'}") == 2


# -- train -------------------------------------------------------------------------


def test_train_artifacts(trained):
    for name in ("checkpoint.ckpt", "trace.csv", "manifest.cfg", "split.txt",
                 "valid.csv", "test.csv"):
        assert (trained / name).exists(), name
    trace = np.genfromtxt(trained / "trace.csv", delimiter=",", names=True)
    assert set(trace.dtype.names) == {
        "stage", "iteration", "expected_nll", "kl", "free_energy"
    }
    assert trace.shape[0] == 150
    # held-out splits re-load under the package's own reader
    assert load_csv(trained / "valid.csv", ("x",), ("y",)).n == 40
    assert load_csv(trained / "test.csv", ("x",), ("y",)).n == 40


def test_manifest_rerun_is_bit_identical(trained, tmp_path):
    out = tmp_path / "rerun"
    assert run("train", "--config", trained / "manifest.cfg", f"out={out}") == 0
    assert (out / "checkpoint.ckpt").read_bytes() == (
        trained / "checkpoint.ckpt"
    ).read_bytes()
    assert (out / "trace.csv").read_bytes() == (trained / "trace.csv").read_bytes()


def test_manifest_lists_every_setting(trained):
    manifest = parse_config_file(trained / "manifest.cfg")
    from flowcde.cli import SETTINGS

    assert set(manifest) == set(SETTINGS["train"]) | {
        "command", "version", "data_sha256"
    }


# -- eval --------------------------------------------------------------------------


def test_eval_summary_and_sem(trained, tmp_path, capsys):
    out = tmp_path / "ev"
    code = run(
        "eval",
        f"checkpoint={trained / 'checkpoint.ckpt'}",
        f"data={trained / 'test.csv'}",
        "mc=10",
        f"out={out}",
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "mean_ll" in printed
    pw = np.genfromtxt(out / "pointwise.csv", delimiter=",", names=True)
    assert pw.shape[0] == 40
    summary = dict(
        line.split(" = ") for line in (out / "summary.txt").read_text().splitlines()
    )
    ll = pw["ll"]
    assert float(summary["mean_ll"]) == pytest.approx(ll.mean(), rel=1e-12)
    assert float(summary["sem"]) == pytest.approx(
        ll.std(ddof=1) / math.sqrt(ll.size), rel=1e-12
    )


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_eval_refuses_zero_predictive_density(trained, tmp_path, capsys):
    data = tmp_path / "far.csv"
    rows = ["x,y"] + [f"{i * 0.1},{i * 0.05}" for i in range(8)] + ["0.3,1e200"]
    data.write_text("\n".join(rows) + "\n")
    out = tmp_path / "ev"
    code = run("eval", f"checkpoint={trained / 'checkpoint.ckpt'}", f"data={data}",
               "mc=5", f"out={out}")
    assert code == 4
    printed = capsys.readouterr()
    assert "nan" not in printed.out + printed.err
    assert "row 8" in printed.err
    assert not (out / "summary.txt").exists()


def test_raw_units_shift_equals_jacobian(trained, tmp_path):
    from flowcde.checkpoint import load_checkpoint

    outs = []
    for flag in ("true", "false"):
        out = tmp_path / f"ev_{flag}"
        assert run(
            "eval",
            f"checkpoint={trained / 'checkpoint.ckpt'}",
            f"data={trained / 'test.csv'}",
            "mc=5",
            f"raw_units={flag}",
            f"out={out}",
        ) == 0
        pw = np.genfromtxt(out / "pointwise.csv", delimiter=",", names=True)
        outs.append(pw["ll"])
    jac = load_checkpoint(trained / "checkpoint.ckpt").stats.log_jacobian
    np.testing.assert_allclose(outs[0] - outs[1], jac, rtol=1e-12)


# -- sample ------------------------------------------------------------------------


def test_sample_shape_and_determinism(trained, tmp_path):
    draws = []
    for rep in range(2):
        out = tmp_path / f"s{rep}"
        assert run(
            "sample",
            f"checkpoint={trained / 'checkpoint.ckpt'}",
            "condition=1.0",
            "n=64",
            "mc=8",
            "seed=5",
            f"out={out}",
        ) == 0
        draws.append(np.genfromtxt(out / "samples.csv", delimiter=",", names=True))
    assert draws[0].shape[0] == 64
    np.testing.assert_array_equal(draws[0]["y"], draws[1]["y"])
    # the generator at x=1 centres y near sin(1); raw-unit draws must sit there
    assert abs(np.median(draws[0]["y"]) - math.sin(1.0)) < 0.5


def test_sample_requires_complete_condition(trained, tmp_path):
    assert run(
        "sample",
        f"checkpoint={trained / 'checkpoint.ckpt'}",
        "condition=nan",
        f"out={tmp_path / 'x'}",
    ) == 2


# -- heatmap -----------------------------------------------------------------------


def test_heatmap_columns_integrate_to_one(trained, tmp_path):
    out = tmp_path / "hm"
    assert run(
        "heatmap",
        f"checkpoint={trained / 'checkpoint.ckpt'}",
        "condition=nan",
        "x_points=6",
        "y_min=-4", "y_max=4", "y_points=161",
        "mc=10",
        f"out={out}",
    ) == 0
    hm = np.genfromtxt(out / "heatmap.csv", delimiter=",", names=True)
    grid_x = np.unique(hm["x"])
    assert grid_x.size == 6
    for xv in grid_x:
        col = hm[hm["x"] == xv]
        mass = np.trapezoid(col["density"], col["y"])
        assert mass == pytest.approx(1.0, abs=2e-2)
    q = np.genfromtxt(out / "quantiles.csv", delimiter=",", names=True)
    assert np.all(q["q025"] < q["median"]) and np.all(q["median"] < q["q975"])
    # the emitted heatmap's own quadrature CDF recovers each reported quantile
    for row in q:
        col = hm[hm["x"] == row["x"]]
        y, p = col["y"], col["density"]
        cdf = np.concatenate([[0.0], np.cumsum(np.diff(y) * 0.5 * (p[1:] + p[:-1]))])
        cdf /= cdf[-1]
        for name, level in (("median", 0.5), ("q025", 0.025), ("q975", 0.975)):
            assert np.interp(row[name], y, cdf) == pytest.approx(level, abs=1e-6)


def test_heatmap_cap(trained, tmp_path):
    out = tmp_path / "hmcap"
    assert run(
        "heatmap",
        f"checkpoint={trained / 'checkpoint.ckpt'}",
        "condition=nan",
        "x_points=4", "y_points=41",
        "cap=0.05",
        f"out={out}",
    ) == 0
    hm = np.genfromtxt(out / "heatmap.csv", delimiter=",", names=True)
    assert hm["density"].max() <= 0.05 + 1e-15


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_heatmap_refuses_nan_density(trained, tmp_path, capsys):
    # targets near the largest float overflow the flow's stages to inf/inf
    out = tmp_path / "hmnan"
    assert run(
        "heatmap",
        f"checkpoint={trained / 'checkpoint.ckpt'}",
        "condition=nan",
        "x_points=3", "y_min=-1.7e308", "y_max=1.7e308", "y_points=5",
        "mc=3",
        f"out={out}",
    ) == 4
    printed = capsys.readouterr()
    assert "NaN" in printed.err and "nan" not in printed.out
    assert not (out / "heatmap.csv").exists()
    assert not (out / "quantiles.csv").exists()


def test_heatmap_refuses_quantiles_of_a_zero_mass_row(trained, tmp_path, capsys):
    far = ("condition=nan", "x_points=3", "y_min=1e6", "y_max=1.00001e6", "y_points=5",
           "mc=3")
    out = tmp_path / "hmzero"
    assert run("heatmap", f"checkpoint={trained / 'checkpoint.ckpt'}", *far,
               f"out={out}") == 4
    printed = capsys.readouterr()
    assert "integrates to 0" in printed.err and "nan" not in printed.out
    assert not (out / "heatmap.csv").exists()
    assert not (out / "quantiles.csv").exists()
    # the densities themselves are a valid (all-zero) heatmap
    out = tmp_path / "hmzero_noq"
    assert run("heatmap", f"checkpoint={trained / 'checkpoint.ckpt'}", *far,
               "quantiles=false", f"out={out}") == 0
    hm = np.genfromtxt(out / "heatmap.csv", delimiter=",", names=True)
    assert np.all(hm["density"] == 0.0)


def test_heatmap_needs_exactly_one_swept_feature(trained, tmp_path):
    assert run(
        "heatmap",
        f"checkpoint={trained / 'checkpoint.ckpt'}",
        "condition=1.0",
        f"out={tmp_path / 'x'}",
    ) == 2


def test_identity_flow_median_is_the_shift(tmp_path):
    # zero posterior means with a stageless flow head leave the base normal
    # untouched, so the reported median must sit at zero on a symmetric grid
    head = make_head("nf", n_stages=0)
    arch = MLPArchitecture(1, (4,), head.output_dim)
    post = init_posterior(arch, seed=0, sigma_init=1e-12)
    post = post.replace_from_vector(np.zeros(post.to_vector().size))
    net = BayesianMLP(arch, post, head.default_prior(), head.group_map())
    model = CdeModel(net, head, head.init_extras())
    ckpt_path = tmp_path / "ident.ckpt"
    save_checkpoint(ckpt_path, Checkpoint(model, None, ("x",), (), ("y",)))
    out = tmp_path / "hm"
    assert run(
        "heatmap",
        f"checkpoint={ckpt_path}",
        "condition=nan",
        "x_points=3",
        "y_min=-3", "y_max=3", "y_points=121",
        "mc=3",
        f"out={out}",
    ) == 0
    q = np.genfromtxt(out / "quantiles.csv", delimiter=",", names=True)
    assert np.all(np.abs(q["median"]) < 1e-6)


# -- prior-sample -------------------------------------------------------------------


def test_prior_sample_writes_one_grid_per_combo(tmp_path):
    out = tmp_path / "prior"
    assert run(
        "prior-sample",
        "head=nf", "n_stages=3", "hidden=10",
        "seeds=0,1", "lambdas=1,4", "sigma_betas=0,1",
        "x_points=5", "y_points=41",
        f"out={out}",
    ) == 0
    files = sorted(p.name for p in out.glob("prior_*.csv"))
    assert len(files) == 8
    assert "prior_seed0_lambda1_beta0.csv" in files


def test_prior_sample_zero_beta_gives_unit_gaussian_columns(tmp_path):
    out = tmp_path / "prior0"
    assert run(
        "prior-sample",
        "head=nf", "n_stages=5", "hidden=20",
        "seeds=3", "lambdas=1", "sigma_betas=0",
        "x_points=4", "y_min=-12", "y_max=12", "y_points=481",
        f"out={out}",
    ) == 0
    grid = np.genfromtxt(
        out / "prior_seed3_lambda1_beta0.csv", delimiter=",", names=True
    )
    for xv in np.unique(grid["x"]):
        col = grid[grid["x"] == xv]
        y, p = col["y"], col["density"]
        mass = np.trapezoid(p, y)
        assert mass == pytest.approx(1.0, abs=1e-2)
        mu = np.trapezoid(y * p, y) / mass
        cdf = np.concatenate([[0.0], np.cumsum(np.diff(y) * 0.5 * (p[1:] + p[:-1]))])
        gauss = 0.5 * (1.0 + np.vectorize(math.erf)((y - mu) / math.sqrt(2.0)))
        assert np.max(np.abs(cdf / mass - gauss)) < 0.01


def test_prior_sample_rejects_lv_head(tmp_path):
    assert run("prior-sample", "head=lv", f"out={tmp_path / 'x'}") == 2


# -- grid-search --------------------------------------------------------------------


def test_grid_search_ranks_by_validation_ll(toy, tmp_path):
    out = tmp_path / "gs"
    code = run(
        "grid-search",
        f"data={toy / 'data.csv'}",
        "features=x",
        "hidden=6",
        "iterations=80",
        "mc_train=5",
        "grid.n_stages=1;2",
        "grid.learning_rate=0.005;0.02",
        f"out={out}",
    )
    assert code == 0
    rows = (out / "results.csv").read_text().splitlines()
    assert rows[0] == "rank,combo,learning_rate,n_stages,valid_ll,test_ll"
    valid_ll = [float(r.split(",")[-2]) for r in rows[1:]]
    assert len(valid_ll) == 4
    assert valid_ll == sorted(valid_ll, reverse=True)
    assert (out / "best_checkpoint.ckpt").exists()
    best = parse_config_file(out / "best_manifest.cfg")
    assert best["command"] == "train"
    # the best manifest pins the winning grid choices
    best_row = rows[1].split(",")
    assert best["learning_rate"] == best_row[2] and best["n_stages"] == best_row[3]


def test_single_point_grid_matches_plain_train(toy, tmp_path):
    gs_out = tmp_path / "gs1"
    assert run(
        "grid-search",
        f"data={toy / 'data.csv'}",
        "features=x",
        "hidden=6",
        "iterations=60",
        "mc_train=5",
        "grid.n_stages=2",
        f"out={gs_out}",
    ) == 0
    tr_out = tmp_path / "tr"
    assert run(
        "train",
        f"data={toy / 'data.csv'}",
        "features=x",
        "hidden=6",
        "iterations=60",
        "mc_train=5",
        "n_stages=2",
        f"out={tr_out}",
    ) == 0
    assert (gs_out / "best_checkpoint.ckpt").read_bytes() == (
        tr_out / "checkpoint.ckpt"
    ).read_bytes()


def test_grid_search_refuses_non_finite_valid_ll(toy, tmp_path, monkeypatch, capsys):
    import flowcde.cli

    monkeypatch.setattr(flowcde.cli, "predictive_log_density",
                        lambda model, x, y, mc, rng: np.full(len(y), -np.inf))
    out = tmp_path / "gsinf"
    assert run(
        "grid-search", f"data={toy / 'data.csv'}", "features=x", "hidden=4",
        "iterations=2", "mc_train=2", "grid.n_stages=1;2", f"out={out}",
    ) == 4
    printed = capsys.readouterr()
    assert "non-finite" in printed.err and "nan" not in printed.out
    assert not (out / "results.csv").exists()


def test_empty_grid_exits_2(toy, tmp_path):
    assert run(
        "grid-search", f"data={toy / 'data.csv'}", "features=x",
        f"out={tmp_path / 'x'}",
    ) == 2


def test_unknown_grid_key_exits_2(toy, tmp_path):
    assert run(
        "grid-search", f"data={toy / 'data.csv'}", "features=x",
        "grid.nonsense=1;2", f"out={tmp_path / 'x'}",
    ) == 2


# -- two-target models ---------------------------------------------------------------


@pytest.fixture(scope="module")
def trained2(workdir):
    toy2 = workdir / "toy2"
    assert run(
        "gen-toy", "name=spatial-two-cluster", "n=500", "seed=2", f"out={toy2}"
    ) == 0
    out = workdir / "arun"
    code = run(
        "train",
        f"data={toy2 / 'data.csv'}",
        "features=x",
        "targets=y1,y2",
        "n_stages=2",
        "hidden=8",
        "iterations=120",
        "mc_train=5",
        f"out={out}",
    )
    assert code == 0
    return out


def test_autoreg_eval_and_sample(trained2, tmp_path):
    out = tmp_path / "ev"
    assert run(
        "eval",
        f"checkpoint={trained2 / 'checkpoint.ckpt'}",
        f"data={trained2 / 'test.csv'}",
        "mc=5",
        f"out={out}",
    ) == 0
    pw = np.genfromtxt(out / "pointwise.csv", delimiter=",", names=True)
    assert pw.shape[0] == 50 and np.all(np.isfinite(pw["ll"]))
    sout = tmp_path / "smp"
    assert run(
        "sample",
        f"checkpoint={trained2 / 'checkpoint.ckpt'}",
        "condition=0.5", "n=30", "mc=5",
        f"out={sout}",
    ) == 0
    smp = np.genfromtxt(sout / "samples.csv", delimiter=",", names=True)
    assert set(smp.dtype.names) == {"y1", "y2"} and smp.shape[0] == 30


def test_autoreg_heatmap_mass(trained2, tmp_path):
    out = tmp_path / "hm"
    assert run(
        "heatmap",
        f"checkpoint={trained2 / 'checkpoint.ckpt'}",
        "condition=0.5",
        "y_min=-8", "y_max=8", "y_points=81",
        "y2_min=-8", "y2_max=8", "y2_points=81",
        "mc=5",
        f"out={out}",
    ) == 0
    hm = np.genfromtxt(out / "heatmap.csv", delimiter=",", names=True)
    assert set(hm.dtype.names) == {"y1", "y2", "density"}
    g1 = np.unique(hm["y1"])
    dens = hm["density"].reshape(g1.size, -1)
    g2 = hm["y2"].reshape(g1.size, -1)[0]
    mass = np.trapezoid(np.trapezoid(dens, g2, axis=1), g1)
    assert mass == pytest.approx(1.0, abs=5e-2)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_autoreg_heatmap_refuses_nan_density(trained2, tmp_path):
    out = tmp_path / "hmnan"
    assert run(
        "heatmap",
        f"checkpoint={trained2 / 'checkpoint.ckpt'}",
        "condition=0.5",
        "y_points=5", "y2_min=-1.7e308", "y2_max=1.7e308", "y2_points=5",
        "marginal_samples=1", "mc=3",
        f"out={out}",
    ) == 4
    assert not (out / "heatmap.csv").exists()


# -- environment --------------------------------------------------------------------


def test_output_root_env_var(toy, tmp_path, monkeypatch):
    monkeypatch.setenv("FLOWCDE_OUT", str(tmp_path))
    assert run("gen-toy", "n=10", "out=rooted") == 0
    assert (tmp_path / "rooted" / "data.csv").exists()
