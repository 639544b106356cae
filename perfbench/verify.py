"""Apply the output checks to one round of a workload's artifacts."""

from __future__ import annotations

import traceback

import numpy as np

import checks as C
from workloads import train_rows

GRAD_ROWS, GRAD_SEED = 8, 7


def _load_inputs(inputs):
    _, train = C.read_table(inputs / "train.csv")
    _, hold = C.read_table(inputs / "holdout.csv")
    _, truth = C.read_table(inputs / "holdout_truth.csv")
    return train, hold, truth[:, 0]


def _gradient_checks(w, ckpt_path, train):
    """FD check on every chain stage at the final checkpoint, on training rows
    normalised with the checkpoint's own statistics."""
    from flowcde import training
    from flowcde.checkpoint import load_checkpoint

    ck = load_checkpoint(ckpt_path)
    st = ck.stats
    rows = train[:GRAD_ROWS]
    x = (rows[:, :1] - st.x_mean) / st.x_std
    y = (rows[:, 1:] - st.y_mean) / st.y_std
    n_total = train_rows(w)
    if ck.kind == "single":
        stages = [(ck.model, x, y[:, 0])]
    else:
        a, b = ck.model.order
        stages = [(ck.model.stage1, x, y[:, a]),
                  (ck.model.stage2, np.column_stack([x, y[:, a]]), y[:, b])]
    for model, xs, ys in stages:
        C.check_gradient(model, xs, ys, n_total, GRAD_SEED,
                         training.free_energy, training.free_energy_value)


class RoundArtifacts:
    """Lazily parsed artifacts of one round, shared by the checks."""

    def __init__(self, w, rdir, inputs):
        self.w, self.rdir, self.inputs = w, rdir, inputs
        self._cache = {}

    def get(self, key, make):
        if key not in self._cache:
            self._cache[key] = make()
        return self._cache[key]

    def data(self):
        """(train rows, held-out rows, true held-out log densities)."""
        return self.get("inputs", lambda: _load_inputs(self.inputs))

    def grid(self, label):
        return self.get(label, lambda: C.read_grid(self.rdir / label / "heatmap.csv"))


def _check_train(a, op):
    w = a.w
    C.check_trace(a.rdir / "train" / "trace.csv", len(w.targets), int(w.train["iterations"]))
    _gradient_checks(w, a.rdir / "train" / "checkpoint.ckpt", a.data()[0])


def _check_eval(a, op):
    w = a.w
    train, hold, truth = a.data()
    ll = C.read_pointwise(a.rdir / "eval" / "pointwise.csv", hold.shape[0])
    C.check_summary(a.rdir / "eval" / "summary.txt", ll)
    C.check_gibbs(ll, truth)
    if w.beat_gaussian:
        C.check_beats_gaussian(ll, C.gaussian_log_density(train[:, 1], hold[:, 1]))
    if w.family == "bimodal":
        xs, ys, dens = a.grid("heatmap")
        C.check_eval_vs_heatmap(ll, *C.interp_log_grid(xs, ys, dens, hold[:, 0], hold[:, 1]))
    else:
        g1, g2, dens = a.grid("heatmap_at")
        at = hold[:, 0] == w.sample_conditions[0]
        # the 2D grid is coarser and the learned posterior noisier: looser bounds
        C.check_eval_vs_heatmap(ll[at], *C.interp_log_grid(g1, g2, dens, hold[at, 1],
                                                           hold[at, 2]),
                                median_tol=0.05, high_tol=0.3)


def _check_sample(a, op):
    w = a.w
    i = int(op.label[len("sample"):])
    path = a.rdir / op.label / "samples.csv"
    if w.family == "bimodal":
        draws = C.read_samples(path, w.sample_n, 1)
        xs, ys, dens = a.grid("heatmap")
        C.check_ks(draws, ys, dens[C.grid_row(xs, w.sample_conditions[i])])
    else:
        draws = C.read_samples(path, w.sample_n, 2)
        C.check_tv(draws, *a.grid("heatmap_at"))


def _check_heatmap(a, op):
    g1, g2, dens = a.grid(op.label)
    if a.w.family == "bimodal":
        C.check_row_mass(g2, dens)
        C.check_quantiles(a.rdir / op.label / "quantiles.csv")
    else:
        C.check_grid_mass(g1, g2, dens)


_CHECKS = {"train": _check_train, "eval": _check_eval, "sample": _check_sample,
           "heatmap": _check_heatmap}


def probe_verdict(op, res, rdir):
    """The probe passes when the command keeps the exit-code contract."""
    summary = rdir / op.label / "summary.txt"
    text = summary.read_text() if summary.exists() else ""
    if C.probe_ok(res.code, res.stdout, text):
        return None
    return f"exit {res.code} with stdout {res.stdout.strip()!r}"


def verify_round(w, ops, results, rdir, inputs):
    """{op label: None if the operation passed, else why it failed}."""
    a = RoundArtifacts(w, rdir, inputs)
    verdicts = {}
    for op, res in zip(ops, results):
        if op.kind == "probe":
            verdicts[op.label] = probe_verdict(op, res, rdir)
            continue
        try:
            C.require(res.code == 0, f"exit code {res.code}")
            C.require("nan" not in res.stdout, "stdout contains nan")
            _CHECKS[op.kind](a, op)
            verdicts[op.label] = None
        except C.CheckFailed as err:
            verdicts[op.label] = str(err)
        except Exception:  # a check that crashes fails its operation, with the trace
            verdicts[op.label] = traceback.format_exc()
    return verdicts


def same_outputs(op, res, ref, rdir, ref_dir):
    """None when an operation repeated its reference run byte for byte."""
    if (res.code, res.stdout) != (ref.code, ref.stdout):
        return "exit code or stdout differs from the first round"
    a, b = rdir / op.label, ref_dir / op.label
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    if files_a != files_b:
        return "written files differ from the first round"
    for rel in files_a:
        if (a / rel).read_bytes() != (b / rel).read_bytes():
            return f"{op.label}/{rel} differs from the first round"
    return None
