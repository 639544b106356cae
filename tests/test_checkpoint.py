"""Checkpoint round trips must be bit-exact and self-describing."""

import numpy as np
import pytest

from flowcde.autoreg import AutoregModel, joint_log_density
from flowcde.bnn import BayesianMLP, MLPArchitecture, init_posterior
from flowcde.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from flowcde.data import NormStats
from flowcde.errors import DataError
from flowcde.heads import make_head
from flowcde.training import CdeModel, predictive_log_density


def build_model(name, mode="fixed", in_dim=2, seed=5, **head_kw):
    head = make_head(name, **head_kw)
    arch = MLPArchitecture(in_dim + head.extra_input_dim, (4, 3), head.output_dim)
    post = init_posterior(arch, seed=seed, sigma_init=0.2, mode=mode)
    net = BayesianMLP(arch, post, head.default_prior(), head.group_map())
    model = CdeModel(net, head, head.init_extras())
    rng = np.random.default_rng(seed + 1)
    vec = model.trainable_vector()
    model.set_trainable(vec + 0.3 * rng.standard_normal(vec.size))
    return model


def make_stats():
    return NormStats(
        ("a", "hour_sin", "hour_cos"),
        ("numeric", "cyclic-sin", "cyclic-cos"),
        np.array([0.25, 0.0, 0.0]),
        np.array([1.75, 1.0, 1.0]),
        np.array([-0.5]),
        np.array([2.25]),
    )


@pytest.mark.parametrize("name,kw", [
    ("nf", {"n_stages": 2}),
    ("mdn", {"n_components": 3}),
    ("lv", {"n_noise": 4, "noise_dim": 1}),
    ("gauss", {}),
])
@pytest.mark.parametrize("mode", ["fixed", "learned"])
def test_single_model_round_trip_is_exact(tmp_path, name, kw, mode):
    model = build_model(name, mode=mode, **kw)
    ckpt = Checkpoint(model, make_stats(), ("a", "hour"), ("hour",), ("y",))
    p = tmp_path / "m.ckpt"
    save_checkpoint(p, ckpt)
    back = load_checkpoint(p)

    assert back.kind == "single"
    assert back.features == ("a", "hour") and back.cyclic == ("hour",)
    assert np.array_equal(back.model.trainable_vector(), model.trainable_vector())
    assert back.model.net.posterior.mode == mode
    assert back.model.head.name == name
    assert back.model.net.prior.groups == model.net.prior.groups
    assert np.array_equal(back.stats.x_mean, ckpt.stats.x_mean)
    assert np.array_equal(back.stats.y_std, ckpt.stats.y_std)
    assert back.stats.kinds == ckpt.stats.kinds

    # a second save of the loaded checkpoint is byte-identical
    p2 = tmp_path / "m2.ckpt"
    save_checkpoint(p2, back)
    assert p.read_bytes() == p2.read_bytes()


def test_loaded_model_predicts_identically(tmp_path):
    model = build_model("nf", n_stages=1)
    p = tmp_path / "m.ckpt"
    save_checkpoint(p, Checkpoint(model))
    back = load_checkpoint(p).model
    x = np.random.default_rng(0).standard_normal((4, 2))
    y = np.random.default_rng(1).standard_normal(4)
    a = predictive_log_density(model, x, y, 3, np.random.default_rng(2))
    b = predictive_log_density(back, x, y, 3, np.random.default_rng(2))
    assert np.array_equal(a, b)


def test_autoreg_round_trip(tmp_path):
    model = AutoregModel(
        build_model("nf", in_dim=1, n_stages=1),
        build_model("nf", in_dim=2, n_stages=1, seed=9),
        order=(1, 0),
        target_names=("lon", "lat"),
    )
    p = tmp_path / "m.ckpt"
    save_checkpoint(p, Checkpoint(model, None, ("a",), (), ("lon", "lat")))
    back = load_checkpoint(p)
    assert back.kind == "autoreg"
    assert back.model.order == (1, 0)
    assert back.model.target_names == ("lon", "lat")
    assert back.stats is None
    x = np.array([[0.3]])
    y = np.array([[0.2, -0.1]])
    a = joint_log_density(model, x, y, 2, np.random.default_rng(3))
    b = joint_log_density(back.model, x, y, 2, np.random.default_rng(3))
    assert np.array_equal(a, b)
    p2 = tmp_path / "m2.ckpt"
    save_checkpoint(p2, back)
    assert p.read_bytes() == p2.read_bytes()


def test_malformed_files_are_rejected(tmp_path):
    p = tmp_path / "bad.ckpt"
    p.write_text("not a checkpoint\n")
    with pytest.raises(DataError, match="key = value"):
        load_checkpoint(p)
    p.write_text("format = something-else\nkind = single\n")
    with pytest.raises(DataError, match="format"):
        load_checkpoint(p)
    p.write_text("format = flowcde-checkpoint-v1\nformat = flowcde-checkpoint-v1\n")
    with pytest.raises(DataError, match="duplicate"):
        load_checkpoint(p)


def test_missing_and_unknown_keys_are_reported(tmp_path):
    model = build_model("gauss")
    p = tmp_path / "m.ckpt"
    save_checkpoint(p, Checkpoint(model))
    text = p.read_text()
    p.write_text(text.replace("posterior.sigma_q", "posterior.sigma_oops"))
    with pytest.raises(DataError, match="sigma_q"):
        load_checkpoint(p)
    p.write_text(text + "mystery.key = 1\n")
    with pytest.raises(DataError, match="mystery.key"):
        load_checkpoint(p)


def test_column_names_with_separators_are_rejected(tmp_path):
    model = build_model("gauss")
    with pytest.raises(DataError, match="cannot contain"):
        save_checkpoint(tmp_path / "m.ckpt", Checkpoint(model, None, ("a,b",)))
