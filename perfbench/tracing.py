"""Spans around the program's public functions, installed from outside.

``Tracer.install`` wraps each function in TARGETS and rebinds every name
under which a ``flowcde`` module looks it up (``cli`` imports ``train`` by
name, ``heads`` imports ``flows.sample``, and so on); methods are wrapped on
their class.  ``uninstall`` puts the originals back.

A span is [name, start, end, parent, units].  Spans stay in memory.  Self
time is a span's duration minus its children's; children of one parent run
one after another on one thread, so their durations simply add.

Recording a tape node costs about as much as a span would, so the tape's
node-recording methods are not wrapped: recording the graph counts to the
layer that records it (``bnn.forward_tape``, the heads, ``flows``), and
``tape`` owns the backward sweep.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

MODULES = ("cli", "data", "checkpoint", "training", "bnn", "heads", "flows", "tape",
           "autoreg")
HEAD_CLASSES = ("NFHead", "MDNHead", "LVHead", "GaussHead")


def _draws(eps):
    return eps[0].shape[0] * eps[0].shape[1]


# name -> (module, class or None, attribute, units(args, result))
TARGETS = {
    "cli.main": ("cli", None, "main", None),
    "data.load_csv": ("data", None, "load_csv", lambda a, r: r.n + len(r.rejected_rows)),
    "data.save_csv": ("data", None, "save_csv", lambda a, r: a[1].n),
    "data.split": ("data", None, "split", None),
    "data.normalize": ("data", None, "normalize", None),
    "data.apply_stats": ("data", None, "apply_stats", None),
    "data.save_split_indices": ("data", None, "save_split_indices", None),
    "checkpoint.save_checkpoint": ("checkpoint", None, "save_checkpoint", None),
    "checkpoint.load_checkpoint": ("checkpoint", None, "load_checkpoint", None),
    "training.train": ("training", None, "train", None),
    "training.free_energy": ("training", None, "free_energy",
                             lambda a, r: a[2].size * a[4]),
    "training.free_energy_value": ("training", None, "free_energy_value",
                                   lambda a, r: a[2].size * a[4]),
    "training.adam_step": ("training", None, "adam_step", lambda a, r: a[1].size),
    "training.predictive_log_density": ("training", None, "predictive_log_density",
                                        lambda a, r: len(a[2]) * a[3]),
    "training.predictive_curve": ("training", None, "predictive_curve",
                                  lambda a, r: r.size * a[3]),
    "training.model_sample": ("training", None, "model_sample", lambda a, r: a[2]),
    "bnn.draw_eps": ("bnn", None, "draw_eps", None),
    "bnn.init_posterior": ("bnn", None, "init_posterior", None),
    "bnn.TapeParams": ("bnn", "TapeParams", "__init__", None),
    "bnn.forward_np": ("bnn", "BayesianMLP", "forward_np", lambda a, r: _draws(a[2])),
    "bnn.forward_tape": ("bnn", "BayesianMLP", "forward_tape", lambda a, r: _draws(a[4])),
    "bnn.kl_to_prior": ("bnn", "BayesianMLP", "kl_to_prior", None),
    "bnn.kl_gradients": ("bnn", "BayesianMLP", "kl_gradients", None),
    "flows.sample": ("flows", None, "sample", lambda a, r: a[1]),
    "flows.log_density_batch": ("flows", None, "log_density_batch", None),
    "flows.log_density_params": ("flows", None, "log_density_params", None),
    "tape.backward": ("tape", "Tape", "backward", lambda a, r: a[1] + 1),
    "autoreg.joint_log_density": ("autoreg", None, "joint_log_density",
                                  lambda a, r: r.size),
    "autoreg.density_grid": ("autoreg", None, "density_grid", lambda a, r: r.size),
    "heads.make_head": ("heads", None, "make_head", None),
}
for _cls in HEAD_CLASSES:
    for _attr, _units in (
        ("log_density_rows_np", lambda a, r: r.size),
        ("log_density_rows_tape", lambda a, r: r.size),
        ("curve_log_density", lambda a, r: r.size),
        ("sample_np", lambda a, r: a[3]),
        ("prepare_inputs", None),
    ):
        TARGETS[f"heads.{_cls}.{_attr}"] = ("heads", _cls, _attr, _units)


def metric_name(span_name):
    """Head methods of every class share one name: heads.<method>."""
    parts = span_name.split(".")
    return f"heads.{parts[2]}" if parts[0] == "heads" and len(parts) == 3 else span_name


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn, units):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if units is not None:
                span[4] = units(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        mods = [importlib.import_module(f"flowcde.{m}") for m in MODULES]
        mods.append(sys.modules["flowcde"])
        for name, (module, cls, attr, units) in TARGETS.items():
            if cls is not None:
                owner = getattr(importlib.import_module(f"flowcde.{module}"), cls)
                original = owner.__dict__[attr]
                setattr(owner, attr, self._wrap(name, original, units))
                self._restore.append((owner, attr, original))
                continue
            original = getattr(importlib.import_module(f"flowcde.{module}"), attr)
            wrapped = self._wrap(name, original, units)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        self._restore.append((mod, key, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


# -- per-layer metrics ---------------------------------------------------------------


class SpanSet:
    """Aggregates over a subset of a tracer's spans (by index range)."""

    def __init__(self, spans, ranges):
        self.spans = spans
        self.by_metric = defaultdict(list)
        self.self_by_module = defaultdict(float)
        idx = [i for lo, hi in ranges for i in range(lo, hi)]
        child = defaultdict(float)
        for i in idx:
            s = spans[i]
            self.by_metric[metric_name(s[0])].append(s)
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        for i in idx:
            s = spans[i]
            self.self_by_module[s[0].split(".")[0]] += s[2] - s[1] - child[i]

    def of(self, metric):
        return self.by_metric.get(metric, [])

    def self_time(self, module):
        return self.self_by_module.get(module, 0.0)

    def per_unit(self, metric, scale):
        spans = self.of(metric)
        units = sum(s[4] for s in spans)
        if not units:
            return None
        return scale * sum(s[2] - s[1] for s in spans) / units

    def per_call(self, metric, scale):
        spans = self.of(metric)
        return scale * sum(s[2] - s[1] for s in spans) / len(spans) if spans else None

    def under(self, metric, parent_metric):
        """Spans of ``metric`` whose parent is a ``parent_metric`` span."""
        return [s for s in self.of(metric)
                if s[3] >= 0 and metric_name(self.spans[s[3]][0]) == parent_metric]


# (metric, unit, per_unit | per_call, span name, scale): per-unit costs divide
# the spans' inclusive time by the work their calls were given.
SPAN_METRICS = (
    ("training.free_energy.us_per_datum_draw", "us", "per_unit", "training.free_energy", 1e6),
    ("bnn.forward_tape.us_per_datum_draw", "us", "per_unit", "bnn.forward_tape", 1e6),
    ("heads.log_density_rows_tape.us_per_datum_draw", "us", "per_unit",
     "heads.log_density_rows_tape", 1e6),
    ("tape.backward.ns_per_node", "ns", "per_unit", "tape.backward", 1e9),
    ("training.adam_step.ns_per_param", "ns", "per_unit", "training.adam_step", 1e9),
    ("bnn.forward_np.ns_per_row_draw", "ns", "per_unit", "bnn.forward_np", 1e9),
    ("bnn.forward_np.us_per_call", "us", "per_call", "bnn.forward_np", 1e6),
    ("heads.log_density_rows_np.ns_per_datum_draw", "ns", "per_unit",
     "heads.log_density_rows_np", 1e9),
    ("training.predictive_log_density.ns_per_datum_draw", "ns", "per_unit",
     "training.predictive_log_density", 1e9),
    ("training.predictive_curve.ns_per_cell_draw", "ns", "per_unit",
     "training.predictive_curve", 1e9),
    ("flows.sample.us_per_draw", "us", "per_unit", "flows.sample", 1e6),
    ("training.model_sample.us_per_draw", "us", "per_unit", "training.model_sample", 1e6),
    ("autoreg.density_grid.us_per_cell", "us", "per_unit", "autoreg.density_grid", 1e6),
    ("autoreg.joint_log_density.us_per_row", "us", "per_unit",
     "autoreg.joint_log_density", 1e6),
    ("data.load_csv.us_per_row", "us", "per_unit", "data.load_csv", 1e6),
    ("data.save_csv.us_per_row", "us", "per_unit", "data.save_csv", 1e6),
    ("checkpoint.load_checkpoint.ms_per_call", "ms", "per_call",
     "checkpoint.load_checkpoint", 1e3),
)


def _derived(s):
    """Metrics that combine two span kinds; None when the spans are absent."""
    fe = s.of("training.free_energy")
    draws = sum(x[4] for x in fe)
    nodes = sum(x[4] for x in s.under("tape.backward", "training.free_energy"))
    kl = s.under("bnn.kl_to_prior", "training.free_energy") + s.under(
        "bnn.kl_gradients", "training.free_energy")
    return {
        "tape.nodes_per_datum_draw": ("count", nodes / draws if draws and nodes else None),
        "bnn.kl.us_per_step": (
            "us", 1e6 * sum(x[2] - x[1] for x in kl) / len(fe) if fe and kl else None),
    }


def layer_metrics(workload_spans, sweep_spans, rounds):
    """Per-layer metrics from the workload's spans.

    Where the workload makes no call that a metric needs (the autoreg
    functions on the 1D workloads), the metric is read off the layer
    sweep's spans instead, so every metric has a measured value.
    """
    out = {}
    for module in MODULES:
        t = workload_spans.self_time(module) / rounds
        if t == 0.0:
            t = sweep_spans.self_time(module)
        out[f"{module}.self_s"] = ("s", t)
    for name, unit, how, span, scale in SPAN_METRICS:
        v = getattr(workload_spans, how)(span, scale)
        if v is None:
            v = getattr(sweep_spans, how)(span, scale)
        out[name] = (unit, v)
    fallback = _derived(sweep_spans)
    for name, (unit, v) in _derived(workload_spans).items():
        out[name] = (unit, v if v is not None else fallback[name][1])
    return out
