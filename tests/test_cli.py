"""End-to-end tests of the command-line interface.

Heavy artifacts (a trained run on toy data) are built once per module and
shared; every command is exercised through main() so the exit-code contract
is what's under test.
"""

import csv
import gc
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from flowcde import __version__, autoreg, cli
from flowcde.autoreg import joint_log_density, sample_chain
from flowcde.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from flowcde.cli import _quantiles, main, parse_config_file, resolve_settings
from flowcde.data import (
    TOY_GENERATORS,
    Dataset,
    NormStats,
    apply_stats,
    denormalize_targets,
    encode_cyclic_hour,
    load_csv,
    normalize_features,
    normalize_targets,
    toy_true_log_density,
)
from flowcde.errors import ConfigError, NumericError
from flowcde.heads import make_head
from flowcde.training import CdeModel, predictive_curve, predictive_log_density


def run(*args):
    return main([str(a) for a in args])


def python(*argv):
    """(exit code, stdout, stderr) of a fresh interpreter that imports this flowcde."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def run_in_subprocess(*args):
    """(exit code, stdout, stderr) of the command in a fresh interpreter, where
    NumPy's overflow warnings print instead of raising under the suite's
    RuntimeWarning filter."""
    return python("-m", "flowcde.cli", *map(str, args))


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


def test_a_config_file_with_a_duplicate_key_exits_2_naming_it(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("iterations = 1\nseed = 3\niterations = 2\n")
    assert run("train", "--config", cfg) == 2
    assert f"config error: {cfg}: duplicate key 'iterations'" in capsys.readouterr().err


@pytest.mark.parametrize("version", ["0.0", __version__], ids=["older", "current"])
def test_a_manifest_of_another_version_warns_on_one_line(toy, tmp_path, capsys, version):
    cfg = tmp_path / "manifest.cfg"
    cfg.write_text((toy / "manifest.cfg").read_text().replace(
        f"version = {__version__}\n", f"version = {version}\n"))
    assert f"version = {version}\n" in cfg.read_text()
    out = tmp_path / "toy"
    assert run("gen-toy", "--config", cfg, f"out={out}") == 0
    err = capsys.readouterr().err.splitlines()
    if version == __version__:
        assert err == []
    else:
        assert len(err) == 1 and f"flowcde {version} " in err[0] and __version__ in err[0], err
    for name in ("data.csv", "truth.csv"):
        assert (out / name).read_bytes() == (toy / name).read_bytes()


def test_missing_config_file_is_config_error():
    assert run("train", "--config", "/nonexistent.cfg") == 2


# -- the settings table -------------------------------------------------------------


def _ints(**bounds):
    return st.integers(**bounds).map(str)


def _floats(**bounds):
    return st.floats(allow_nan=False, allow_infinity=False, **bounds).map(repr)


_NEGATIVE = st.floats(max_value=-math.ulp(0.0), allow_infinity=False).map(repr)
_NOT_A_NUMBER = st.sampled_from(["x", "1e", "nan", "inf", "-inf"])
_NAME = st.from_regex(r"[a-z][a-z0-9_]{0,5}", fullmatch=True)


def _join(items):
    return ",".join(items)


def _scalar(inside, *outside):
    return inside, st.one_of(*outside, _NOT_A_NUMBER, st.just(""))


def _list(item, min_size):
    """(inside, outside) of a list whose items lie in `item`'s domain: the
    outside has a bad item, or too few items."""
    inside, bad = item
    too_few = st.lists(inside, max_size=min_size - 1).map(_join) if min_size else st.nothing()
    return (
        st.lists(inside, min_size=min_size, max_size=3).map(_join),
        st.tuples(st.lists(inside, max_size=2).map(_join), bad.filter(bool)).map(_join)
        | too_few,
    )


def _choices(*names):
    return st.sampled_from(names), st.text().filter(lambda s: s.strip() not in names)


def _fractions(ab, excess=0.0):
    """Three fractions >= 0 that sum to 1 + excess."""
    a, b = ab[0], (1.0 - ab[0]) * ab[1]
    return _join(map(repr, (a, b, 1.0 - a - b + excess)))


_UNIT = st.floats(0.0, 1.0)
_SPEC = cli.SETTINGS
_COUNT = _scalar(_ints(min_value=0), _ints(max_value=-1), st.just("1.5"))
_POSITIVE_INT = _scalar(_ints(min_value=1), _ints(max_value=0))
_NON_NEGATIVE = _scalar(_floats(min_value=0.0), _NEGATIVE)
# (inside, outside) values for every checking parser in cli.SETTINGS
_DOMAINS = {
    cli._COUNT: _COUNT,
    cli._POSITIVE_INT: _POSITIVE_INT,
    cli._FINITE: _scalar(_floats()),
    cli._POSITIVE: _scalar(_floats(min_value=0.0, exclude_min=True), _floats(max_value=0.0)),
    cli._NON_NEGATIVE: _NON_NEGATIVE,
    cli._DECAY: _scalar(_floats(min_value=0.0, max_value=1.0, exclude_max=True),
                        _floats(min_value=1.0), _NEGATIVE),
    cli._SPLIT: (
        st.tuples(_UNIT, _UNIT).map(_fractions),
        st.tuples(_UNIT, _UNIT).map(lambda ab: _fractions(ab, excess=2e-9))
        | st.lists(_floats(min_value=0.0, max_value=1.0), max_size=5)
        .filter(lambda f: len(f) != 3).map(_join)
        | st.tuples(_UNIT, _UNIT, _UNIT).filter(lambda f: abs(sum(f) - 1.0) > 1e-9)
        .map(lambda f: _join(map(repr, f)))
        | st.floats(1e-6, 1.0).map(lambda a: _join(map(repr, (-a, 1.0 + a, 0.0))))
        | st.sampled_from(["nan,0.5,0.5", "inf,0,0", "1", "0.5,0.5", "0.5,0.25,0.25,0"]),
    ),
    _SPEC["train"]["head"][0]: _choices("nf", "mdn", "lv", "gauss"),
    _SPEC["train"]["mode"][0]: _choices("fixed", "learned"),
    _SPEC["train"]["hidden"][0]: _list(_POSITIVE_INT, min_size=0),
    _SPEC["train"]["targets"][0]: (
        st.lists(_NAME, min_size=1, max_size=2).map(_join),
        st.lists(_NAME, min_size=3, max_size=4).map(_join) | st.sampled_from(["", ","]),
    ),
    _SPEC["prior-sample"]["head"][0]: _choices("nf", "mdn", "gauss"),
    _SPEC["prior-sample"]["seeds"][0]: _list(_COUNT, min_size=1),
    _SPEC["prior-sample"]["lambdas"][0]: _list(_NON_NEGATIVE, min_size=1),
    _SPEC["prior-sample"]["sigma_betas"][0]: _list(_NON_NEGATIVE, min_size=1),
    _SPEC["gen-toy"]["name"][0]: _choices(*TOY_GENERATORS),
    cli._CONDITION: (
        st.lists(_floats() | st.sampled_from(["nan", "?"]), max_size=3).map(_join),
        st.tuples(st.lists(_floats(), max_size=2).map(_join),
                  st.sampled_from(["inf", "-inf", "1e999", "x"])).map(_join),
    ),
}
_CHECKED = [
    (command, key, parser)
    for command, spec in _SPEC.items()
    for key, (parser, _, _) in spec.items()
    if hasattr(parser, "rule")
]


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_each_setting_refuses_exactly_the_values_outside_its_domain(data):
    for command in _SPEC:
        resolve_settings(command, None, [])  # no default lies outside its own domain
    assert {parser for _, _, parser in _CHECKED} <= _DOMAINS.keys()
    parser = data.draw(st.sampled_from(list(dict.fromkeys(p for _, _, p in _CHECKED))))
    command, key = data.draw(
        st.sampled_from([(c, k) for c, k, p in _CHECKED if p is parser]), label="setting"
    )
    inside, outside = _DOMAINS[parser]
    resolve_settings(command, None, [f"{key}={data.draw(inside, label='inside')}"])
    with pytest.raises(ConfigError) as err:
        resolve_settings(command, None, [f"{key}={data.draw(outside, label='outside')}"])
    assert str(err.value).startswith(f"setting {key}=")


def test_help_prints_each_settings_domain(capsys):
    for command, spec in _SPEC.items():
        with pytest.raises(SystemExit) as done:
            main([command, "--help"])
        assert done.value.code == 0
        lines = capsys.readouterr().out.splitlines()
        for key, (parser, _, _) in spec.items():
            line = next(line for line in lines if line.startswith(f"  {key:<18} default"))
            assert "|" not in line  # each domain is the table's, not hand-written
            if hasattr(parser, "rule"):
                assert line.endswith(f"; {parser.rule}"), line


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


@pytest.mark.parametrize("command", ["train", "eval", "grid-search"])
def test_rerun_with_a_missing_data_file_exits_3(trained, tmp_path, capsys, command):
    # a manifest pins the data file's sha256; the file must be found before
    # it is hashed
    first = {"train": ["--config", trained / "manifest.cfg"],
             "eval": [f"checkpoint={trained / 'checkpoint.ckpt'}", "data_sha256=0000"],
             "grid-search": ["grid.n_stages=1;2", "data_sha256=0000"]}[command]
    out = tmp_path / "out"
    assert run(command, *first, "data=nope.csv", f"out={out}") == 3
    assert "data error: data file not found: nope.csv" in capsys.readouterr().err
    assert not out.exists()


def _train_small(data, out, *settings):
    return run("train", f"data={data}", "hidden=4", "iterations=2", "mc_train=2",
               *settings, f"out={out}")


@pytest.mark.parametrize("header, settings, code, message", [
    ("a b,y", ["features=a b"], 3, "column name 'a b' cannot contain"),
    ('"a,b",y', [], 3, "column name 'a,b' cannot contain"),
    ("x,y1,y2", ["targets=y1,y2", "order=0,0"], 2, "order must be a permutation"),
], ids=["space-in-a-feature", "comma-in-a-default-feature", "repeated-order"])
def test_train_refuses_before_writing_any_file(tmp_path, capsys, header, settings, code,
                                                message):
    rng = np.random.default_rng(0)
    width = len(next(csv.reader([header])))
    rows = [",".join(repr(v) for v in r) for r in rng.standard_normal((30, width)).tolist()]
    data = tmp_path / "d.csv"
    data.write_text(header + "\n" + "\n".join(rows) + "\n")
    out = tmp_path / "out"
    assert _train_small(data, out, *settings) == code
    assert message in capsys.readouterr().err
    assert list(out.glob("*")) == []


@pytest.mark.parametrize("command", ["train-rerun", "grid-search"])
def test_a_command_hashes_its_data_file_once(trained, toy, tmp_path, monkeypatch, command):
    calls, real = [], cli._sha256

    def counting(path):
        calls.append(path)
        return real(path)

    monkeypatch.setattr(cli, "_sha256", counting)
    out = tmp_path / "out"
    argv = {"train-rerun": ["train", "--config", trained / "manifest.cfg"],
            "grid-search": ["grid-search", f"data={toy / 'data.csv'}", "features=x", "hidden=4",
                            "iterations=2", "mc_train=2", "mc_test=2", "grid.seed=0;1"]}[command]
    assert run(*argv, f"out={out}") == 0
    assert calls == [str(toy / "data.csv")]
    # every manifest the command writes records that one digest
    digest = real(toy / "data.csv")
    manifests = sorted(out.rglob("*manifest.cfg"))
    assert len(manifests) == {"train-rerun": 1, "grid-search": 4}[command]
    assert all(parse_config_file(m)["data_sha256"] == digest for m in manifests)


def test_data_hash_mismatch_exits_3(toy, tmp_path):
    code = run(
        "train",
        f"data={toy / 'data.csv'}",
        "features=x",
        "data_sha256=0000",
        f"out={tmp_path / 'x'}",
    )
    assert code == 3


_READERS = {"eval": ["data={data}", "mc=2"], "sample": ["condition=0.5", "n=5"],
            "heatmap": ["condition=nan", "x_points=3", "y_points=5", "mc=2"]}


def _run_reader(command, ckpt, data, out):
    settings = [s.format(data=data) for s in _READERS[command]]
    return run(command, f"checkpoint={ckpt}", *settings, f"out={out}")


@pytest.mark.parametrize("command", sorted(_READERS))
def test_a_rerun_after_its_checkpoint_changed_exits_3_and_writes_nothing(
        toy, tmp_path, capsys, command):
    # a manifest pins the checkpoint it read as it pins the data file
    ckpt = tmp_path / "m" / "checkpoint.ckpt"
    assert _train_small(toy / "data.csv", tmp_path / "m") == 0
    first = tmp_path / "first"
    assert _run_reader(command, ckpt, toy / "data.csv", first) == 0
    before = cli._sha256(ckpt)
    assert parse_config_file(first / "manifest.cfg")["checkpoint_sha256"] == before
    assert _train_small(toy / "data.csv", tmp_path / "m", "seed=1") == 0
    after = cli._sha256(ckpt)
    assert after != before
    capsys.readouterr()
    out = tmp_path / "rerun"
    assert run(command, "--config", first / "manifest.cfg", f"out={out}") == 3
    assert (f"data error: {ckpt}: sha256 {after} does not match the manifest's {before}"
            in capsys.readouterr().err)
    assert not out.exists()


def test_a_manifest_without_a_checkpoint_sha256_still_runs(trained, toy, tmp_path, capsys):
    # a 0.5.0 manifest pins no checkpoint: it re-runs, and its re-run pins it
    first = tmp_path / "first"
    assert _run_reader("heatmap", trained / "checkpoint.ckpt", None, first) == 0
    text = (first / "manifest.cfg").read_text()
    old = "".join(line for line in text.splitlines(keepends=True)
                  if not line.startswith("checkpoint_sha256"))
    assert old != text
    cfg = tmp_path / "old.cfg"
    cfg.write_text(old.replace(f"version = {__version__}\n", "version = 0.5.0\n"))
    out = tmp_path / "rerun"
    assert run("heatmap", "--config", cfg, f"out={out}") == 0
    assert "flowcde 0.5.0" in capsys.readouterr().err
    for name in ("heatmap.csv", "quantiles.csv"):
        assert (out / name).read_bytes() == (first / name).read_bytes()
    pinned = [parse_config_file(d / "manifest.cfg")["checkpoint_sha256"] for d in (first, out)]
    assert pinned[0] == pinned[1]


def test_a_missing_checkpoint_exits_3_naming_it(toy, tmp_path, capsys):
    out = tmp_path / "out"
    assert _run_reader("eval", tmp_path / "nope.ckpt", toy / "data.csv", out) == 3
    assert f"data error: checkpoint file not found: {tmp_path / 'nope.ckpt'}" in (
        capsys.readouterr().err)
    assert not out.exists()


_DROP_STATS = {
    f"stats.{k}": lambda v: None  # None deletes the line
    for k in ("feature_names", "kinds", "x_mean", "x_std", "y_mean", "y_std")
}


@pytest.mark.parametrize(
    "edits",
    [
        {"posterior.w_mean.0": lambda v: v.rsplit(" ", 1)[0]},  # truncated
        {"posterior.b_mean.0": lambda v: "abc " + v.split(" ", 1)[1]},  # non-numeric
        # one value moves from a weight chunk to a bias chunk: the total is right
        {"posterior.w_mean.0": lambda v: v.rsplit(" ", 1)[0],
         "posterior.b_mean.0": lambda v: v + " 0.5"},
        {"arch.input_dim": lambda v: "x"},
        {"head.n_stages": lambda v: str(int(v) + 1)},  # output groups mismatch the net
        {"head.name": lambda v: "bogus"},
        # no stats, and a schema of two features for a one-input network
        {**_DROP_STATS, "stats.present": lambda v: "false",
         "schema.features": lambda v: "x,y2"},
        # stored stats and schema both gain a column the network does not take
        {"schema.features": lambda v: v + ",z",
         "stats.feature_names": lambda v: v + ",z",
         "stats.kinds": lambda v: v + ",numeric",
         "stats.x_mean": lambda v: v + " 0",
         "stats.x_std": lambda v: v + " 1"},
    ],
    ids=["truncated", "non-numeric", "chunks-trade-lengths", "input-dim", "n-stages",
         "unknown-head", "features-without-stats", "stats-with-an-extra-column"],
)
def test_corrupt_checkpoint_exits_3(trained, tmp_path, capsys, edits):
    lines = (trained / "checkpoint.ckpt").read_text().splitlines()
    for key, corrupt in edits.items():
        hits = [i for i, line in enumerate(lines) if line.startswith(key + " = ")]
        assert len(hits) == 1
        value = corrupt(lines[hits[0]].partition(" = ")[2])
        if value is None:
            del lines[hits[0]]
        else:
            lines[hits[0]] = f"{key} = {value}"
    bad = tmp_path / "bad.ckpt"
    bad.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = run("eval", f"checkpoint={bad}", f"data={trained / 'test.csv'}",
               f"out={tmp_path / 'ev'}")
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith(f"data error: {bad}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command,setting",
    [
        ("sample", "n=0"),
        ("eval", "mc=0"),
        ("heatmap", "x_points=0"),
        ("heatmap", "x_points=-1"),
        ("heatmap", "y_points=0"),
        ("heatmap", "quantiles=false y_points=-1"),
        # quantiles bisect an ascending target grid of at least two points
        ("heatmap", "y_min=3 y_max=-3"),
        ("heatmap", "y_min=1 y_max=1"),
        ("heatmap", "y_points=1"),
        ("heatmap", "cap=-1"),
        ("heatmap", "condition=1,2"),  # the model has one feature
        ("train", "hidden=0"),
        ("train", "sigma_q=0"),
        ("train", "batch_size=401"),  # the toy data has 400 rows
        # a bad option in any combination is refused before combination 0 trains
        ("grid-search", "grid.hidden=8;abc"),
        ("grid-search", "grid.learning_rate=0.01;-1"),
        ("gen-toy", "n=0"),
        ("prior-sample", "x_points=-1"),
        ("prior-sample", "y_points=0"),
        # a 2-target checkpoint: its heatmap reads y_points and y2_points
        ("heatmap-2d", "y_points=0"),
        ("heatmap-2d", "y_points=-1"),
        ("heatmap-2d", "y2_points=0"),
        ("heatmap-2d", "y2_points=-1"),
        # y_max - y_min overflows a float, which would make NaN grid nodes
        ("heatmap", "y_min=-1.7e308 y_max=1.7e308"),
        ("heatmap-2d", "y2_min=-1.7e308 y2_max=1.7e308"),
        ("prior-sample", "x_min=-1e308 x_max=1e308"),
        # each setting's domain is checked before the command runs
        ("gen-toy", "seed=-1"),
        ("train", "seed=-1"),
        ("eval", "seed=-1"),
        ("sample", "seed=-1"),
        ("heatmap", "seed=-1"),
        ("train", "split_seed=-1"),
        ("prior-sample", "seeds=-1"),
        ("prior-sample", "lambdas="),
        ("prior-sample", "sigma_betas=-1"),
        ("prior-sample", "head=lv"),
        ("prior-sample", "input_dim=1"),  # its x grid is 1-D, so the network takes one input
        ("grid-search", "grid.sigma_q=0.01;0"),
        ("grid-search", "grid.mode=fixed;bogus"),
        ("grid-search", "grid.head=nf;bogus"),
        ("grid-search", "grid.hidden=4;0"),
        ("grid-search", "grid.seed=0;1 mc_test=0"),
        ("train", "learning_rate=nan"),
        ("heatmap", "x_min=nan"),
        # the nf head's prior gives sigma_beta to beta_hat, so 0 leaves the KL undefined
        ("train", "sigma_beta=0"),
        ("grid-search", "grid.sigma_beta=1;0"),
        ("sample", "condition=inf"),
    ],
)
def test_invalid_setting_value_exits_2(trained, toy, request, tmp_path, capsys, command,
                                       setting):
    ckpt = f"checkpoint={trained / 'checkpoint.ckpt'}"
    if command == "heatmap-2d":
        command = "heatmap"
        ckpt = f"checkpoint={request.getfixturevalue('trained2') / 'checkpoint.ckpt'}"
    args = {
        "sample": [ckpt, "condition=0.5"],
        "eval": [ckpt, f"data={trained / 'test.csv'}"],
        "heatmap": [ckpt],
        "train": [f"data={toy / 'data.csv'}", "features=x", "targets=y", "iterations=1"],
        "grid-search": [f"data={toy / 'data.csv'}", "features=x", "iterations=1", "hidden=4"],
        "gen-toy": [],
        "prior-sample": [],
    }[command]
    capsys.readouterr()
    assert run(command, *args, *setting.split(), f"out={tmp_path / 'x'}") == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert setting.split()[-1].partition("=")[0].removeprefix("grid.") in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("head", ["mdn", "lv", "gauss"])
def test_sigma_beta_zero_trains_a_head_whose_prior_does_not_use_it(toy, tmp_path, head):
    assert run("train", f"data={toy / 'data.csv'}", "features=x", f"head={head}", "hidden=4",
               "iterations=2", "sigma_beta=0", f"out={tmp_path / 'x'}") == 0


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


def test_eval_warns_about_the_rows_it_drops(trained, tmp_path, capsys):
    data = tmp_path / "one-bad.csv"
    rows = [f"{i * 0.1},{i * 0.05}" for i in range(6)]
    rows[3] = "0.3,oops"
    data.write_text("\n".join(["x,y", *rows]) + "\n")
    out = tmp_path / "ev"
    code = run("eval", f"checkpoint={trained / 'checkpoint.ckpt'}", f"data={data}",
               "mc=5", f"out={out}")
    assert code == 0
    printed = capsys.readouterr()
    assert "warning: dropped unparsable rows [5]" in printed.err
    assert "(n=5)" in printed.out
    pw = np.genfromtxt(out / "pointwise.csv", delimiter=",", names=True)
    assert np.array_equal(pw["i"], np.arange(5))  # kept rows, not file rows


def _nan_curve(model, x, y_grid, mc, rng):
    """A predictive_curve stand-in whose every log density is NaN."""
    return np.full((len(x), len(y_grid)), np.nan)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("case", ["eval-far-out-target", "heatmap-nan", "grid-search-inf-valid-ll",
                                  "prior-sample-sigma-beta-nan", "prior-sample-lambda-nan"])
def test_a_failing_command_leaves_no_output_directory(trained, toy, tmp_path, capsys,
                                                       monkeypatch, case):
    ckpt = f"checkpoint={trained / 'checkpoint.ckpt'}"
    far = tmp_path / "far.csv"
    far.write_text("x,y\n0.1,0.05\n0.3,1e200\n")
    if case == "grid-search-inf-valid-ll":
        monkeypatch.setattr(cli, "predictive_log_density",
                            lambda model, x, y, mc, rng: np.full(len(y), -np.inf))
    if case == "heatmap-nan":
        monkeypatch.setattr(cli, "predictive_curve", _nan_curve)
    args, message = {
        "eval-far-out-target": (["eval", ckpt, f"data={far}", "mc=5"],
                                "row 1: log predictive density is -inf"),
        "heatmap-nan": (["heatmap", ckpt, "condition=nan", "x_points=3", "y_points=5", "mc=3"],
                        "of heatmap.csv is NaN"),
        "grid-search-inf-valid-ll": (["grid-search", f"data={toy / 'data.csv'}", "features=x",
                                      "hidden=4", "iterations=2", "mc_train=2",
                                      "grid.n_stages=1;2"], "non-finite"),
        # the flow's expm1 overflows: valid settings whose prior gives NaN densities
        "prior-sample-sigma-beta-nan": (
            ["prior-sample", "sigma_betas=1,800", "x_points=5", "y_points=9"],
            "density at grid cell (0, 0) of prior_seed0_lambda1_beta800.csv is NaN"),
        "prior-sample-lambda-nan": (
            ["prior-sample", "lambdas=1e200", "x_points=5", "y_points=9"],
            "density at grid cell (0, 0) of prior_seed0_lambda1e+200_beta1.csv is NaN"),
    }[case]
    out = tmp_path / "out"
    if case.startswith("prior-sample"):
        code, stdout, err = run_in_subprocess(*args, f"out={out}")
    else:
        code = run(*args, f"out={out}")
        stdout, err = capsys.readouterr()
    assert code == 4
    assert "numeric error: " in err and message in err and "nan" not in stdout
    assert not out.exists()


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


_ANY_FLOAT = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([1e308, -1e308, np.finfo(float).max, -np.finfo(float).max, 1e150, 3.0]),
)


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(["nf", "mdn", "lv", "gauss"]),
    mode=st.sampled_from(["fixed", "learned"]),
    x_std=st.sampled_from([0.5, 0.01, 1e-200]),
    xs=st.lists(_ANY_FLOAT, min_size=1, max_size=4),
    ys=st.lists(_ANY_FLOAT, min_size=1, max_size=4),
    condition=_ANY_FLOAT,
    seed=st.integers(0, 999),
)
def test_far_out_features_give_a_finite_value_or_minus_inf(name, mode, x_std, xs, ys,
                                                            condition, seed):
    # a raw feature whose z-score overflows (x_std < 1) saturates to a large
    # finite feature: eval's rows, sample's draws and heatmap's cells are
    # finite or -inf, and eval's refusal names a row
    head = make_head(name, n_stages=2, n_components=2, n_noise=3)
    stats = NormStats(("x",), ("numeric",), np.array([0.5]), np.array([x_std]),
                      np.zeros(1), np.ones(1))
    ckpt = Checkpoint(CdeModel.build(head, 1, (8,), seed, 0.3, mode), stats, ("x",))
    xs, ys = np.array(xs), np.array(ys)
    ds = Dataset(np.repeat(xs, ys.size)[:, None], np.tile(ys, xs.size), ("x",))
    nds = apply_stats(stats, ds)
    ll = predictive_log_density(ckpt.model, nds.x, nds.y[:, 0], 5, np.random.default_rng(seed))
    assert not np.isnan(ll).any() and (ll < np.inf).all()
    try:
        cli._mean_ll(ckpt, ds, 5, seed, False)
    except NumericError as err:
        assert str(err).startswith("row ") and "nan" not in str(err)
    row = cli._normalize_condition(ckpt, (condition,))
    draws = sample_chain(ckpt.model, row, 4, 5, np.random.default_rng(seed))
    assert np.isfinite(draws).all()
    cells = predictive_curve(ckpt.model, normalize_features(stats, xs[:, None], ("x",)),
                             normalize_targets(stats, ys, 0), 5, np.random.default_rng(seed))
    cli._refuse_nan(cells)
    assert (cells < np.inf).all()


def test_raw_units_shift_equals_jacobian(trained, tmp_path):
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


def test_heatmap_refuses_nan_density(trained, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "predictive_curve", _nan_curve)
    out = tmp_path / "hmnan"
    assert run(
        "heatmap",
        f"checkpoint={trained / 'checkpoint.ckpt'}",
        "condition=nan",
        "x_points=3", "y_points=5",
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
    assert not out.exists()
    # the densities themselves are a valid (all-zero) heatmap
    out = tmp_path / "hmzero_noq"
    assert run("heatmap", f"checkpoint={trained / 'checkpoint.ckpt'}", *far,
               "quantiles=false", f"out={out}") == 0
    hm = np.genfromtxt(out / "heatmap.csv", delimiter=",", names=True)
    assert np.all(hm["density"] == 0.0)


def test_heatmap_without_quantiles_takes_any_target_grid(trained, tmp_path):
    ckpt = f"checkpoint={trained / 'checkpoint.ckpt'}"
    for n, grid in enumerate((("y_min=3", "y_max=-3"), ("y_points=1",))):
        out = tmp_path / f"hm{n}"
        assert run("heatmap", ckpt, "x_points=3", "mc=3", "quantiles=false", *grid,
                   f"out={out}") == 0
        assert not (out / "quantiles.csv").exists()


# -- heatmap quantiles against the exact crossing of their CDF -----------------------


def _exact_quantile_row(grid, log_pdf, row):
    """For each level: its exact crossing of the row's normalized float
    trapezoid CDF, read linearly between nodes, and the crossed segment's end
    nodes.  The crossing is the leftmost point where the CDF reaches the
    level, in Fractions."""
    pdf = np.exp(log_pdf)
    cdf = np.concatenate([[0.0], np.cumsum(np.diff(grid) * 0.5 * (pdf[1:] + pdf[:-1]))])
    if not 0.0 < cdf[-1] < math.inf:
        raise NumericError(
            f"heatmap row {row}: density integrates to {cdf[-1]} over the target "
            "grid; refusing to write quantiles"
        )
    cdf /= cdf[-1]
    out = []
    for q in (0.5, 0.025, 0.975):
        j = next(j for j, c in enumerate(cdf) if c >= q)
        lo, hi = Fraction(grid[j - 1]), Fraction(grid[j])
        rise = (Fraction(q) - Fraction(cdf[j - 1])) / (Fraction(cdf[j]) - Fraction(cdf[j - 1]))
        out.append((lo + rise * (hi - lo), grid[j - 1], grid[j]))
    return out


@st.composite
def _log_pdf_rows(draw):
    """(ascending non-uniform grid, (rows, G) log densities) with bumps narrow
    enough to be a spike and far enough out to underflow to flat zeros."""
    steps = draw(arrays(float, st.integers(1, 40), elements=st.floats(1e-3, 2.0)))
    grid = draw(st.floats(-5.0, 5.0)) + np.concatenate([[0.0], np.cumsum(steps)])
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        centre = draw(st.floats(grid[0] - 1.0, grid[-1] + 1.0))
        width = draw(st.sampled_from([1e-3, 0.05, 0.5, 3.0]))
        rows.append(-0.5 * ((grid - centre) / width) ** 2 + draw(st.floats(-700.0, 5.0)))
    return grid, np.array(rows)


@settings(max_examples=200, deadline=None)
@given(case=_log_pdf_rows())
# subnormal steps, whose CDF slopes overflow to inf: the flat row's median
# is 2e-310, and a slope-based search reads the CDF as a staircase
@example(case=(np.arange(5) * 1e-310, np.array([[0.0] * 5, [-1.0, 0.0, -3.0, 0.5, 0.0]])))
def test_quantiles_are_the_exact_crossing_of_the_float_cdf(case):
    grid, log_pdf = case
    try:
        exact = [_exact_quantile_row(grid, row, a) for a, row in enumerate(log_pdf)]
    except NumericError as err:
        with pytest.raises(NumericError) as new_err:
            _quantiles(grid, np.exp(log_pdf))
        assert str(new_err.value) == str(err)
        return
    got = _quantiles(grid, np.exp(log_pdf))
    assert got.shape == (len(exact), 3)
    for row, levels in zip(got, exact):
        for value, (crossing, lo, hi) in zip(row, levels):
            # the closed form rounds six times, each within an ulp of an end
            # node: |error| <= 6 u (|lo| + |hi|), u = 2**-53, with u |g| < ulp(g)
            ulps = Fraction(np.spacing(abs(lo))) + Fraction(np.spacing(abs(hi)))
            assert abs(Fraction(value) - crossing) <= 6 * ulps, (value, float(crossing))


def test_quantiles_name_the_first_zero_mass_row():
    grid = np.linspace(-3.0, 3.0, 31)
    log_pdf = np.stack([-0.5 * grid**2, np.full(31, -1e4), -0.5 * grid**2, np.full(31, -1e4)])
    with pytest.raises(NumericError) as err:
        _quantiles(grid, np.exp(log_pdf))
    assert str(err.value) == (
        "heatmap row 1: density integrates to 0.0 over the target grid; "
        "refusing to write quantiles"
    )


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
    model = CdeModel.build(make_head("nf", n_stages=0), 1, (4,), 0, 1e-12)
    model.set_trainable(np.zeros(model.trainable_vector().size))
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


def test_a_large_prior_grid_is_scored_in_bounded_memory(tmp_path):
    # 1000 x 1000 cells go through the blocked prediction loop, so the peak
    # is about the grid and its exp, not the head's arrays over every cell
    tracemalloc.start()
    try:
        assert run("prior-sample", "x_points=1000", "y_points=1000", f"out={tmp_path}") == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 30e6, peak


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


@pytest.mark.parametrize("fractions, sizes", [
    ("1,0,0", "20 train, 0 validation and 0 test"),
    ("0.9,0.1,0", "18 train, 2 validation and 0 test"),
], ids=["no-held-out-rows", "no-test-rows"])
def test_grid_search_refuses_an_empty_held_out_split_before_training(tmp_path, capsys,
                                                                     fractions, sizes):
    toy = tmp_path / "toy"
    assert run("gen-toy", f"out={toy}", "name=gaussian-shift", "n=20", "seed=1") == 0
    out = tmp_path / "gs"
    assert run(
        "grid-search", f"data={toy / 'data.csv'}", "features=x", "hidden=4",
        "iterations=2", f"split={fractions}", "grid.lambda=1;2", f"out={out}",
    ) == 2
    err = capsys.readouterr().err
    assert f"setting split={fractions}" in err and f"the 20 rows split into {sizes} rows" in err
    assert not out.exists()  # no combo_* directory, nor the grid's own
    # train keeps accepting the split
    assert run("train", f"data={toy / 'data.csv'}", "features=x", "hidden=4",
               "iterations=2", f"split={fractions}", f"out={tmp_path / 'tr'}") == 0


@pytest.mark.parametrize("key, options", [
    ("data", "a.csv;b.csv"), ("features", "x;y"), ("targets", "y;x"), ("cyclic", "x;y"),
    ("split", "0.8,0.1,0.1;1,0,0"), ("split_seed", "0;1"), ("out", "a;b"), ("mc_test", "2;40"),
])
def test_grid_search_refuses_an_axis_every_combination_shares(toy, tmp_path, capsys,
                                                               monkeypatch, key, options):
    # every combination trains on one read of the data, scored with one
    # mc_test into one out: such an axis is refused before any file is read
    reads = []
    monkeypatch.setattr(cli, "load_csv", lambda *args: reads.append(args))
    out = tmp_path / "gs"
    assert run("grid-search", f"data={toy / 'data.csv'}", "features=x", "hidden=4",
               "iterations=2", f"grid.{key}={options}", f"out={out}") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: grid key 'grid.{key}' cannot vary")
    assert reads == []
    assert not out.exists()


def test_grid_search_reads_the_data_once(toy, tmp_path, monkeypatch):
    reads = []

    def spy(*args):
        reads.append(args[0])
        return load_csv(*args)

    monkeypatch.setattr(cli, "load_csv", spy)
    out = tmp_path / "gs"
    assert run("grid-search", f"data={toy / 'data.csv'}", "features=x", "hidden=4",
               "iterations=2", "mc_train=2", "mc_test=2", "grid.n_stages=1;2",
               "grid.seed=0;1", f"out={out}") == 0
    assert reads == [str(toy / "data.csv")]
    assert len((out / "results.csv").read_text().splitlines()) == 5
    assert sorted(p.name for p in out.glob("combo_*")) == [f"combo_{i:03d}" for i in range(4)]


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


def test_autoreg_heatmap_rejects_a_negative_cap(trained2, tmp_path, capsys):
    out = tmp_path / "hmcap"
    assert run("heatmap", f"checkpoint={trained2 / 'checkpoint.ckpt'}", "cap=-1",
               f"out={out}") == 2
    assert "cap" in capsys.readouterr().err
    assert not (out / "heatmap.csv").exists()


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


def test_autoreg_heatmap_refuses_nan_density(trained2, tmp_path, monkeypatch):
    monkeypatch.setattr(autoreg, "predictive_curve", _nan_curve)
    out = tmp_path / "hmnan"
    assert run(
        "heatmap",
        f"checkpoint={trained2 / 'checkpoint.ckpt'}",
        "condition=0.5",
        "y_points=5", "y2_points=5",
        "marginal_samples=1", "mc=3",
        f"out={out}",
    ) == 4
    assert not (out / "heatmap.csv").exists()


def test_autoreg_heatmap_at_an_observed_condition_ignores_marginal_samples(trained2, tmp_path):
    # no nan feature, nothing to marginalize: one pass, whatever marginal_samples says
    grids = []
    for m in (1, 10):
        out = tmp_path / f"hm{m}"
        assert run("heatmap", f"checkpoint={trained2 / 'checkpoint.ckpt'}", "condition=0.5",
                   "y_points=9", "y2_points=7", "mc=3", f"marginal_samples={m}",
                   f"out={out}") == 0
        grids.append((out / "heatmap.csv").read_bytes())
    assert grids[0] == grids[1]


def test_swapped_chain_train_sample_eval_heatmap(tmp_path):
    assert run("gen-toy", "name=spatial-two-cluster", "n=300", "seed=3",
               f"out={tmp_path / 'toy'}") == 0
    out = tmp_path / "chain"
    assert run("train", f"data={tmp_path / 'toy' / 'data.csv'}", "targets=y1,y2", "order=1,0",
               "n_stages=1", "hidden=6", "iterations=20", "mc_train=2", f"out={out}") == 0
    ckpt = load_checkpoint(out / "checkpoint.ckpt")
    assert ckpt.model.order == (1, 0)
    trace = np.genfromtxt(out / "trace.csv", delimiter=",", names=True)
    assert trace["stage"].tolist() == [1] * 20 + [2] * 20

    sout = tmp_path / "smp"
    assert run("sample", f"checkpoint={out / 'checkpoint.ckpt'}", "condition=0.5", "n=40",
               "mc=3", "seed=4", f"out={sout}") == 0
    lines = (sout / "samples.csv").read_text().splitlines()
    assert lines[0] == "y1,y2"
    row = normalize_features(ckpt.norm, [0.5], ckpt.features)[0]
    want = denormalize_targets(
        ckpt.norm, sample_chain(ckpt.model, row, 40, 3, np.random.default_rng(4)))
    got = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert np.array_equal(got, want)

    eout = tmp_path / "ev"
    assert run("eval", f"checkpoint={out / 'checkpoint.ckpt'}", f"data={out / 'test.csv'}",
               "mc=3", "raw_units=false", f"out={eout}") == 0
    test_ds = apply_stats(ckpt.norm, load_csv(out / "test.csv", ("x",), ("y1", "y2")))
    want = joint_log_density(ckpt.model, test_ds.x, test_ds.y, 3, np.random.default_rng(0))
    pw = np.genfromtxt(eout / "pointwise.csv", delimiter=",", names=True)
    assert np.array_equal(pw["ll"], want)

    hout = tmp_path / "hm"
    assert run("heatmap", f"checkpoint={out / 'checkpoint.ckpt'}", "condition=0.5",
               "y_points=5", "y2_points=7", "mc=3", "marginal_samples=1",
               f"out={hout}") == 0
    lines = (hout / "heatmap.csv").read_text().splitlines()
    assert lines[0] == "y2,y1,density" and len(lines) == 1 + 5 * 7


# -- cyclic hour-of-day features ----------------------------------------------------


@pytest.fixture(scope="module")
def hourly(workdir):
    """A run on y = sin(2 pi hour / 24) + x / 2 + noise, hour declared cyclic."""
    rng = np.random.default_rng(6)
    x, hour = rng.uniform(-2.0, 2.0, 300), rng.uniform(0.0, 24.0, 300)
    y = np.sin(2.0 * math.pi * hour / 24.0) + 0.5 * x + 0.2 * rng.standard_normal(300)
    data = workdir / "hourly.csv"
    data.write_text("x,hour,y\n" + "".join(
        f"{a!r},{h!r},{b!r}\n" for a, h, b in zip(x.tolist(), hour.tolist(), y.tolist())))
    out = workdir / "hourly"
    assert run("train", f"data={data}", "features=x,hour", "cyclic=hour", "targets=y",
               "n_stages=2", "hidden=8", "iterations=150", "mc_train=5",
               f"out={out}") == 0
    return out


def test_cyclic_hour_feature_end_to_end(hourly, tmp_path, capsys):
    ckpt = hourly / "checkpoint.ckpt"
    loaded = load_checkpoint(ckpt)
    assert loaded.cyclic == ("hour",)
    assert loaded.stats.feature_names == ("x", "hour_sin", "hour_cos")
    assert run("eval", f"checkpoint={ckpt}", f"data={hourly / 'test.csv'}", "mc=5",
               f"out={tmp_path / 'ev'}") == 0
    pw = np.genfromtxt(tmp_path / "ev" / "pointwise.csv", delimiter=",", names=True)
    assert pw.shape[0] == 30 and np.isfinite(pw["ll"]).all()
    assert run("sample", f"checkpoint={ckpt}", "condition=0.5,7", "n=40", "mc=5",
               f"out={tmp_path / 'smp'}") == 0
    smp = np.genfromtxt(tmp_path / "smp" / "samples.csv", delimiter=",", names=True)
    assert smp.shape[0] == 40 and np.isfinite(smp["y"]).all()
    # sweep the numeric feature with the hour fixed, at two hours
    rows = {}
    for hour in (7, 19):
        out = tmp_path / f"hm{hour}"
        assert run("heatmap", f"checkpoint={ckpt}", f"condition=nan,{hour}", "x_points=5",
                   "y_min=-6", "y_max=6", "y_points=161", "mc=5", f"out={out}") == 0
        hm = np.genfromtxt(out / "heatmap.csv", delimiter=",", names=True)
        dens = hm["density"].reshape(5, 161)
        y_grid = hm["y"][:161]
        np.testing.assert_allclose(np.trapezoid(dens, y_grid, axis=1), 1.0, atol=2e-2)
        q = np.genfromtxt(out / "quantiles.csv", delimiter=",", names=True)
        assert np.all(q["q025"] < q["median"]) and np.all(q["median"] < q["q975"])
        rows[hour] = q["median"]
    # sin(2 pi h / 24) is +0.97 at 7 h and -0.97 at 19 h
    assert np.all(rows[7] - rows[19] > 1.0)
    capsys.readouterr()
    assert run("heatmap", f"checkpoint={ckpt}", "condition=0.5,nan",
               f"out={tmp_path / 'hmh'}") == 2
    assert "cyclic" in capsys.readouterr().err


def test_statsless_checkpoint_reads_raw_units_with_cyclic_columns_expanded(hourly, tmp_path):
    text = (hourly / "checkpoint.ckpt").read_text()
    text = text.replace("stats.present = true", "stats.present = false")
    lines = [line for line in text.splitlines()
             if line == "stats.present = false" or not line.startswith("stats.")]
    ckpt = tmp_path / "nostats.ckpt"
    ckpt.write_text("\n".join(lines) + "\n")
    assert run("eval", f"checkpoint={ckpt}", f"data={hourly / 'test.csv'}", "mc=5",
               "seed=3", f"out={tmp_path / 'ev'}") == 0
    pw = np.genfromtxt(tmp_path / "ev" / "pointwise.csv", delimiter=",", names=True)
    raw = np.genfromtxt(hourly / "test.csv", delimiter=",", names=True)
    x = np.column_stack([raw["x"], *encode_cyclic_hour(raw["hour"])])
    want = predictive_log_density(load_checkpoint(ckpt).model, x, raw["y"], 5,
                                  np.random.default_rng(3))
    np.testing.assert_array_equal(pw["ll"], want)
    assert run("sample", f"checkpoint={ckpt}", "condition=0.5,7", "n=20", "mc=5",
               f"out={tmp_path / 'smp'}") == 0
    smp = np.genfromtxt(tmp_path / "smp" / "samples.csv", delimiter=",", names=True)
    assert smp.shape[0] == 20 and np.isfinite(smp["y"]).all()


# -- CSV format ---------------------------------------------------------------------


def test_every_numeric_cell_is_written_at_17_significant_digits(trained, tmp_path):
    ckpt = f"checkpoint={trained / 'checkpoint.ckpt'}"
    assert run("heatmap", ckpt, "x_points=5", "y_points=31", "mc=3",
               f"out={tmp_path / 'hm'}") == 0
    assert run("eval", ckpt, f"data={trained / 'test.csv'}", "mc=3",
               f"out={tmp_path / 'ev'}") == 0
    assert run("sample", ckpt, "condition=0.5", "n=50", "mc=3",
               f"out={tmp_path / 'smp'}") == 0
    files = [tmp_path / "hm" / "heatmap.csv", tmp_path / "hm" / "quantiles.csv",
             tmp_path / "ev" / "pointwise.csv", tmp_path / "smp" / "samples.csv",
             trained / "trace.csv", trained / "valid.csv", trained / "test.csv"]
    for path in files:
        lines = path.read_text().splitlines()[1:]
        assert lines, path
        for line in lines:
            for cell in line.split(","):
                assert cell == format(float(cell), ".17g"), (path, line)
    # the splits are written by csv.writer, whose lines end in CRLF
    valid = (trained / "valid.csv").read_bytes()
    assert valid.endswith(b"\r\n") and valid.count(b"\n") == valid.count(b"\r\n")


# -- environment --------------------------------------------------------------------


def test_output_root_env_var(toy, tmp_path, monkeypatch):
    monkeypatch.setenv("FLOWCDE_OUT", str(tmp_path))
    assert run("gen-toy", "n=10", "out=rooted") == 0
    assert (tmp_path / "rooted" / "data.csv").exists()


# -- the process entry ----------------------------------------------------------------


def test_exit_codes_reach_the_shell(trained, tmp_path):
    ckpt = f"checkpoint={trained / 'checkpoint.ckpt'}"
    far = tmp_path / "far.csv"
    far.write_text("x,y\n0.1,0.05\n0.3,1e200\n")
    for code, args in [
        (0, ["sample", ckpt, "condition=0.5", "n=5", "mc=2"]),
        (2, ["sample", ckpt, "condition=0.5", "bogus=1"]),
        (3, ["eval", ckpt, f"data={tmp_path / 'missing.csv'}"]),
        (4, ["eval", ckpt, f"data={far}", "mc=2"]),
    ]:
        assert run_in_subprocess(*args, f"out={tmp_path / str(code)}")[0] == code, args


def test_a_process_writes_what_an_in_process_call_writes(trained, tmp_path, monkeypatch):
    args = ["sample", f"checkpoint={trained / 'checkpoint.ckpt'}", "condition=0.5", "n=50",
            "mc=4", "seed=3", "out=s"]
    monkeypatch.setenv("FLOWCDE_OUT", str(tmp_path / "process"))
    assert run_in_subprocess(*args)[0] == 0
    monkeypatch.setenv("FLOWCDE_OUT", str(tmp_path / "call"))
    assert run(*args) == 0
    for name in ("samples.csv", "manifest.cfg"):
        assert ((tmp_path / "process" / "s" / name).read_bytes()
                == (tmp_path / "call" / "s" / name).read_bytes())


def test_only_the_process_entry_freezes_the_heap(tmp_path):
    frozen = gc.get_freeze_count()
    assert run("gen-toy", "n=20", f"out={tmp_path / 'call'}") == 0
    assert gc.get_freeze_count() == frozen
    # run() freezes the import-time heap, which then holds thousands of objects
    out = f"out={tmp_path / 'process'}"
    code, stdout, stderr = python("-c", (
        "import atexit, gc, sys; from flowcde import cli; "
        "atexit.register(lambda: print(gc.get_freeze_count())); "
        f"sys.argv[1:] = ['gen-toy', 'n=20', {out!r}]; cli.run()"))
    assert code == 0, stderr
    assert int(stdout.split()[-1]) > 1000
