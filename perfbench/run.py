#!/usr/bin/env python3
"""Benchmark of the flowcde command-line program.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from a checkout: the program is taken from ``src/`` next to this
directory and each command runs as its own process, one at a time, as a
user would run it.  A round is the workload's whole command sequence.  The
first round's outputs pass every check in ``checks.py``; later rounds must
repeat them byte for byte.  Rounds repeat while another fits in ``--seconds``
(there is always at least one), and each metric is the median over rounds.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one
reference round as processes, then the same commands in this process under
``cli.main``, alternating plain rounds and rounds under the span wrappers of
``tracing.py``, then the layer sweep, and prints the per-layer metrics.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from verify import probe_verdict, same_outputs, verify_round
from workloads import WORKLOADS, commands, train_datum_draws, write_inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
SETUP_PER_ROUND = 3


@dataclass
class Result:
    code: int
    stdout: str
    wall: float
    rss_mb: float = 0.0


def run_process(argv, cwd, log):
    """One CLI command as a child process; peak RSS comes from wait4."""
    env = dict(os.environ, FLOWCDE_OUT=".")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with open(log.with_suffix(".out"), "w+") as out, open(log.with_suffix(".err"), "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "flowcde.cli", *argv],
                                cwd=cwd, env=env, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        return Result(proc.returncode, out.read(), wall, usage.ru_maxrss / 1024.0)


def run_in_process(argv, cwd):
    """The same command through cli.main in this process."""
    from flowcde import cli

    here = os.getcwd()
    saved = os.environ.get("FLOWCDE_OUT")
    os.environ["FLOWCDE_OUT"] = "."
    buf = io.StringIO()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            t0 = time.perf_counter()
            code = cli.main(list(argv))
            wall = time.perf_counter() - t0
    finally:
        os.chdir(here)
        if saved is None:
            del os.environ["FLOWCDE_OUT"]
        else:
            os.environ["FLOWCDE_OUT"] = saved
    return Result(code, buf.getvalue(), wall)


class Tally:
    """Operations attempted and failed; any failure but the probe's is wrong."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.correct = True

    def add(self, ops, verdicts, tag):
        for op in ops:
            self.attempted += 1
            why = verdicts[op.label]
            if why is None:
                continue
            self.failed += 1
            if op.kind != "probe":
                self.correct = False
            print(f"[{tag}] {op.label} failed: {why}", file=sys.stderr)


UNITS = {"setup_s": "s", "wall_s": "s", "train.datum_draws_per_s": "1/s",
         "eval.rows_per_s": "1/s", "sample.draws_per_s": "1/s",
         "heatmap.cells_per_s": "1/s", "peak_rss_mb": "MB"}


class WorkloadRun:
    """One workload's run: its inputs, its checked first round and the tally."""

    def __init__(self, w, seed, seconds):
        self.w, self.seed, self.seconds = w, seed, seconds
        self.base = RUNS / w.name
        shutil.rmtree(self.base, ignore_errors=True)
        self.base.mkdir(parents=True)
        self.inputs = self.base / "inputs"
        self.ops = commands(w)
        self.tally = Tally()
        self.setup_times = []
        self.start = time.perf_counter()
        self.set_up()
        self.ref_dir = self.base / "round0"
        self.ref = self.process_round(self.ref_dir)
        self.ref_verdicts = verify_round(w, self.ops, self.ref, self.ref_dir, self.inputs)
        self.tally.add(self.ops, self.ref_verdicts, "round0")
        self.longest = time.perf_counter() - self.start

    def set_up(self):
        """Write the inputs afresh (the same bytes every time), timing each
        write; spreading the writes over the run evens out machine drift."""
        for _ in range(SETUP_PER_ROUND):
            shutil.rmtree(self.inputs, ignore_errors=True)
            t0 = time.perf_counter()
            write_inputs(self.w, self.seed, self.inputs)
            self.setup_times.append(time.perf_counter() - t0)

    def process_round(self, rdir):
        rdir.mkdir(parents=True)
        logs = self.base / "logs" / rdir.name
        logs.mkdir(parents=True)
        return [run_process(op.argv, rdir, logs / op.label) for op in self.ops]

    def in_process_round(self, rdir, tracer=None, ranges=None):
        """The round through cli.main; with a tracer, the span range of each
        command but the probe goes into ``ranges``."""
        rdir.mkdir(parents=True)
        results = []
        for op in self.ops:
            lo = len(tracer.spans) if tracer else 0
            results.append(run_in_process(op.argv, rdir))
            if tracer and op.kind != "probe":
                ranges.append((lo, len(tracer.spans)))
        return results

    def another_round_fits(self):
        return time.perf_counter() - self.start + self.longest <= self.seconds

    def timed_round(self, name, run):
        """Run one more round, tally it against round 0 and delete it."""
        t0 = time.perf_counter()
        rdir = self.base / name
        results = run(rdir)
        self.tally.add(self.ops, self.repeat_verdicts(results, rdir), name)
        shutil.rmtree(rdir)
        self.longest = max(self.longest, time.perf_counter() - t0)
        return results

    def kept_wall(self, results):
        return sum(r.wall for op, r in zip(self.ops, results) if op.kind != "probe")

    def repeat_verdicts(self, results, rdir):
        """A later round passes an operation when it repeats the checked first
        round byte for byte; the probe is judged afresh."""
        out = {}
        for op, res, ref in zip(self.ops, results, self.ref):
            if op.kind == "probe":
                out[op.label] = probe_verdict(op, res, rdir)
            else:
                out[op.label] = self.ref_verdicts[op.label] or same_outputs(
                    op, res, ref, rdir, self.ref_dir)
        return out

    def round_metrics(self, results):
        """End-to-end metrics of one round; the probe counts in none of them."""
        by_kind = {}
        for op, res in zip(self.ops, results):
            if op.kind != "probe":
                by_kind.setdefault(op.kind, []).append((op, res))

        def rate(kind):
            pairs = by_kind[kind]
            return sum(op.units for op, _ in pairs) / sum(res.wall for _, res in pairs)

        return {
            "wall_s": self.kept_wall(results),
            "train.datum_draws_per_s": train_datum_draws(self.w) / by_kind["train"][0][1].wall,
            "eval.rows_per_s": rate("eval"),
            "sample.draws_per_s": rate("sample"),
            "heatmap.cells_per_s": rate("heatmap"),
            "peak_rss_mb": max(res.rss_mb for pairs in by_kind.values() for _, res in pairs),
        }


def end_to_end(run):
    def one_round(rdir):
        run.set_up()
        return run.process_round(rdir)

    rounds = [run.round_metrics(run.ref)]
    while run.another_round_fits():
        rounds.append(run.round_metrics(run.timed_round(f"round{len(rounds)}", one_round)))
    for k, r in enumerate(rounds):
        print(f"round{k}: " + ", ".join(f"{name} {v:.6g}" for name, v in r.items()),
              file=sys.stderr)
    metrics = {"setup_s": statistics.median(run.setup_times)}
    for name in rounds[0]:
        metrics[name] = statistics.median(r[name] for r in rounds)
    return {k: (UNITS[k], v) for k, v in metrics.items()}, len(rounds)


def per_layer(run):
    """Alternate plain and traced in-process rounds while time allows (at
    least one of each), then run the layer sweep under the tracer."""
    from sweep import layer_sweep
    from tracing import SpanSet, Tracer, layer_metrics

    tracer = Tracer()
    ranges, plain_walls, traced_walls = [], [], []

    def traced_round(rdir):
        tracer.install()
        try:
            return run.in_process_round(rdir, tracer, ranges)
        finally:
            tracer.uninstall()

    while True:
        k = len(traced_walls) + 1
        plain_walls.append(run.kept_wall(run.timed_round(f"plain{k}", run.in_process_round)))
        traced_walls.append(run.kept_wall(run.timed_round(f"traced{k}", traced_round)))
        if not run.another_round_fits():
            break
    lo = len(tracer.spans)
    tracer.install()
    try:
        sweep = layer_sweep()
    finally:
        tracer.uninstall()

    metrics = layer_metrics(SpanSet(tracer.spans, ranges),
                            SpanSet(tracer.spans, [(lo, len(tracer.spans))]), len(traced_walls))
    metrics.update(sweep)
    plain = statistics.median(plain_walls)
    metrics["trace.overhead_pct"] = ("%", 100.0 * (statistics.median(traced_walls) - plain) / plain)
    return metrics, len(traced_walls)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "flowcde" / "cli.py").is_file():
        print(f"perfbench: no flowcde sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    total = Tally()
    merged = {}
    for name in names:
        run = WorkloadRun(WORKLOADS[name], args.seed, args.seconds)
        metrics, rounds = (per_layer if args.trace else end_to_end)(run)
        metrics = {k: {"value": v, "unit": u} for k, (u, v) in metrics.items()}
        tally = run.tally
        print(f"{name}: {rounds} rounds, {tally.attempted} operations attempted, "
              f"{tally.failed} failed, correct={str(tally.correct).lower()}")
        for key, m in metrics.items():
            print(f"  {key:<58} {m['value']:>16.6g} {m['unit']}")
        total.attempted += tally.attempted
        total.failed += tally.failed
        total.correct &= tally.correct
        merged.update({(k if len(names) == 1 else f"{name}:{k}"): m for k, m in metrics.items()})
    print(json.dumps({"correct": total.correct, "attempted": total.attempted,
                      "failed": total.failed, "metrics": merged}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
