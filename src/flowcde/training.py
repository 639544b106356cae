"""Stochastic variational inference over likelihood-head networks.

The objective per step is the minibatch free-energy estimate

    F = (N / (B * mc)) * sum_{b,m} -log p(y_b | omega_{b,m})  +  KL(q || p)

with the likelihood term rescaled to full-dataset scale and the KL counted
once, so minibatch gradients are unbiased for the full-data objective.
The log-density terms are recorded on an array tape (one tape per step, a
few nodes per layer operation over the whole minibatch); one backward sweep
yields their gradients, and the network's exact analytic KL gradient is
added to the flat result.

Monte Carlo conventions: per free-energy evaluation the rng draws, in order,
any head input augmentation (latent-variable noise) and then one activation
noise array per layer.  The numpy twin free_energy_value consumes an rng
identically, so recreating a generator from the same seed gives common
random numbers for finite-difference checks.

Prediction (predictive_log_density, predictive_curve) draws one activation
noise array per layer of shape (mc, 1, units) once per call, and every row
shares it: each row still sees i.i.d. standard-normal noise, so its
predictive estimate has the distribution a per-row draw gives, and for heads
without noise inputs a one-row call keeps the digits of a per-row draw; rows
now share one Monte Carlo error.  _predictive_blocks then scores rows in
blocks of _block_rows rows (at most BLOCK_DRAW_CELLS draws x head rows x
target cells and BLOCK_DRAW_UNITS draws x head rows x widest-layer units,
but at least one), each block drawing its own head noise, blocks in file
order.  The constants only bound memory: outside the head noise, a row's
value depends on its block only through the row count of a matrix product.

That loop runs on up to MAX_WORKERS threads, the caller's among them, and
no more than the process has CPUs or the call has blocks; a call whose
layer arrays fit one block's units budget runs inline.  A thread takes the
next block and draws its head noise with a lock held, so the rng draws in
the one-thread order, then scores the block without the lock, in NumPy
loops that release the GIL, into its rows of one preallocated result.  Each
thread writes its layer arrays into its own bnn.Workspace, dropped when the
call returns, and holds one block's head rows at a time, so the output is
byte-identical for any thread count and memory is bounded by the worker
cap.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, replace

import numpy as np

from .bnn import BayesianMLP, MLPArchitecture, TapeParams, Workspace, draw_eps, init_posterior
from .errors import NumericError, StructuralError
from .heads import logsumexp
from .tape import Tape, Var

BLOCK_DRAW_CELLS = 1 << 14  # draw x cell budget of one prediction block
BLOCK_DRAW_UNITS = 1 << 17  # draw x unit budget: 1 MiB per float64 layer array
MAX_WORKERS = 2  # threads one prediction call scores on, each with a workspace

__all__ = [
    "BLOCK_DRAW_CELLS",
    "BLOCK_DRAW_UNITS",
    "TrainConfig",
    "FreeEnergyReport",
    "CdeModel",
    "AdamState",
    "adam_step",
    "free_energy",
    "free_energy_value",
    "train",
    "predictive_log_density",
    "predictive_curve",
    "model_sample",
]


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.005
    adam_beta1: float = 0.9
    adam_beta2: float = 0.99
    adam_eps: float = 1e-8
    iterations: int = 5000
    batch_size: int | None = None  # None trains full-batch
    mc_samples_train: int = 20
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise StructuralError("learning_rate must be > 0")
        if not (0 <= self.adam_beta1 < 1 and 0 <= self.adam_beta2 < 1):
            raise StructuralError("adam betas must lie in [0, 1)")
        if self.mc_samples_train < 1:
            raise StructuralError("mc_samples must be >= 1")
        if self.iterations < 0:
            raise StructuralError("iterations must be >= 0")
        if self.batch_size is not None and self.batch_size < 1:
            raise StructuralError("batch_size must be >= 1 or None")


@dataclass(frozen=True)
class FreeEnergyReport:
    expected_nll: float  # full-dataset scale
    kl: float
    free_energy: float
    iteration: int = 0


@dataclass
class CdeModel:
    """A network, its likelihood head, and the head's own trainable scalars."""

    net: object
    head: object
    extras: np.ndarray

    def __post_init__(self):
        self.extras = np.asarray(self.extras, dtype=float)
        if self.extras.shape != (self.head.n_extras,):
            raise StructuralError(
                f"head {self.head.name} expects {self.head.n_extras} extras, "
                f"got shape {self.extras.shape}"
            )
        if self.net.arch.output_dim != self.head.output_dim:
            raise StructuralError(
                f"head needs {self.head.output_dim} outputs, "
                f"net has {self.net.arch.output_dim}"
            )

    @classmethod
    def build(cls, head, n_features, hidden, seed, sigma_q, mode="fixed", prior=None):
        """``head`` on a fresh network of ``n_features`` feature inputs (plus
        the head's own), under ``prior`` or else ``head.default_prior()``."""
        arch = MLPArchitecture(n_features + head.extra_input_dim, hidden, head.output_dim)
        post = init_posterior(arch, seed=seed, sigma_init=sigma_q, mode=mode)
        prior = head.default_prior() if prior is None else prior
        return cls(BayesianMLP(arch, post, prior, head.group_map()), head, head.init_extras())

    @property
    def n_features(self):
        """Network inputs fed from feature columns (the rest are head noise)."""
        return self.net.arch.input_dim - self.head.extra_input_dim

    def trainable_vector(self):
        return np.concatenate([self.net.posterior.vector, self.extras])

    def set_trainable(self, vec):
        n_post = self.net.posterior.vector.size
        if vec.size != n_post + self.extras.size:
            raise StructuralError("trainable vector has wrong length")
        self.net.posterior = replace(self.net.posterior, vector=vec[:n_post])
        self.extras = np.array(vec[n_post:], dtype=float)


def _check_batch(x, y, n_total):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float).reshape(-1)
    if x.ndim != 2 or x.shape[0] != y.shape[0]:
        raise StructuralError(f"batch shapes disagree: x {x.shape}, y {y.shape}")
    if y.shape[0] == 0:
        raise StructuralError("batch must be non-empty")
    if n_total < y.shape[0]:
        raise StructuralError("n_total smaller than the batch")
    return x, y


def _expected_nll(ld, n_total, mc):
    """-N / (B * mc) * sum of the (mc, B) log densities ld, an array or a
    Var; a non-finite one raises NumericError naming its datum and draw."""
    bad = np.argwhere(~np.isfinite(ld.value.T if isinstance(ld, Var) else ld.T))
    if bad.size:
        b, m = (int(i) for i in bad[0])
        raise NumericError(f"non-finite log density for datum {b} (mc draw {m})", index=b)
    return -float(n_total) / (ld.shape[1] * mc) * ld.sum()


def free_energy(model, x, y, n_total, mc, rng, iteration=0):
    """(report, gradient) of the minibatch free energy, via one tape.

    A non-finite log density or gradient coordinate raises NumericError.
    """
    x, y = _check_batch(x, y, n_total)
    net, head = model.net, model.head
    x_rows, _ = head.prepare_inputs(x, rng)
    eps = draw_eps(net.arch, rng, mc, x_rows.shape[0])

    tape = Tape()
    tp = TapeParams(tape, net.posterior)
    extras = Var(tape, tape.leaf(model.extras))
    omega = net.forward_tape(tape, tp, x_rows, eps)
    nll = _expected_nll(head.log_density_rows_tape(tape, omega, y, extras), n_total, mc)
    adj = tape.backward(nll.id)

    kl = net.kl_to_prior()
    grad = np.concatenate([adj[v.id].ravel() for v in tp.leaves] + [adj[extras.id]])
    grad[: grad.size - extras.size] += net.kl_gradients()
    bad = np.flatnonzero(~np.isfinite(grad))
    if bad.size:
        k = int(bad[0])
        raise NumericError(f"non-finite gradient {grad[k]} at coordinate {k}")
    nll = float(nll)
    return FreeEnergyReport(nll, kl, nll + kl, iteration), grad


def _score(model, rows, y, eps, work=None):
    """(mc, B) log densities of targets y (B,), or (mc, B, G) of a grid
    y (B, G), at head rows ``rows`` under activation noise ``eps``."""
    return model.head.log_density_rows_np(model.net.forward_np(rows, eps, work), y,
                                          model.extras)


def free_energy_value(model, x, y, n_total, mc, rng):
    """Vectorised twin of free_energy (value only, same rng consumption)."""
    x, y = _check_batch(x, y, n_total)
    rows, _ = model.head.prepare_inputs(x, rng)
    eps = draw_eps(model.net.arch, rng, mc, rows.shape[0])
    nll = _expected_nll(_score(model, rows, y, eps), n_total, mc)
    return float(nll) + model.net.kl_to_prior()


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def zeros(cls, n):
        return cls(np.zeros(n), np.zeros(n), 0)


def adam_step(state, params, grads, cfg):
    """One bias-corrected Adam update; pure function of its inputs."""
    if params.shape != grads.shape or params.shape != state.m.shape:
        raise StructuralError("adam shapes disagree")
    t = state.step + 1
    m = cfg.adam_beta1 * state.m + (1.0 - cfg.adam_beta1) * grads
    v = cfg.adam_beta2 * state.v + (1.0 - cfg.adam_beta2) * grads**2
    m_hat = m / (1.0 - cfg.adam_beta1**t)
    v_hat = v / (1.0 - cfg.adam_beta2**t)
    new_params = params - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.adam_eps)
    return AdamState(m, v, t), new_params


def train(model, x, y, cfg):
    """Run cfg.iterations Adam steps on the free energy; returns the trace.

    One rng (cfg.seed) drives everything in a fixed order per iteration:
    batch indices (when minibatching), head noise, activation noise.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float).reshape(-1)
    n_total = y.shape[0]
    rng = np.random.default_rng(cfg.seed)
    params = model.trainable_vector()
    state = AdamState.zeros(params.size)
    trace = []
    batch = cfg.batch_size
    if batch is not None and batch > n_total:
        raise StructuralError(f"batch_size {batch} exceeds dataset size {n_total}")
    for it in range(cfg.iterations):
        if batch is None:
            xb, yb = x, y
        else:
            idx = rng.choice(n_total, size=batch, replace=False)
            xb, yb = x[idx], y[idx]
        try:
            report, grad = free_energy(
                model, xb, yb, n_total, cfg.mc_samples_train, rng, iteration=it
            )
        except NumericError as err:
            raise NumericError(
                f"iteration {it}: {err}", node_id=err.node_id, index=err.index
            ) from err
        state, params = adam_step(state, params, grad, cfg)
        model.set_trainable(params)
        trace.append(report)
    return trace


def _block_rows(model, mc, cells):
    """Rows per prediction block of mc draws over ``cells`` targets a row:
    the most whose (mc, head rows, cells) and (mc, head rows, units of the
    widest non-input layer) arrays fit both budgets, and at least one."""
    return max(1, min(BLOCK_DRAW_CELLS // (mc * model.head.rows_per_datum * cells),
                      BLOCK_DRAW_UNITS // _row_units(model, mc)))


def _row_units(model, mc):
    """Draws x head rows x units of the widest non-input layer, per row."""
    return mc * model.head.rows_per_datum * max(model.net.arch.widths[1:])


def _cpus():
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _predictive_blocks(model, x, y, mc, rng):
    """Log posterior-predictive densities, log-mean-exp'd over mc draws, of
    targets y (B,) -> (B,) or of a grid y (B, G) -> (B, G), scored in row
    blocks of _block_rows rows, each written into one preallocated result.

    The rng first draws the activation noise every row shares.  Threads,
    the caller's among them, then take blocks in file order and draw each
    block's head noise with a lock held, so the rng draws as on one thread,
    and score it without the lock.  Once a block has raised, no thread
    takes another, and the error of the first failing block in file order is
    raised here: every block before it was taken earlier and has run to its
    end.
    """
    if mc < 1:
        raise StructuralError(f"mc must be >= 1, got {mc}")
    if x.shape[0] == 0:
        raise StructuralError("need at least one row to score")
    cells = 1 if y.ndim == 1 else y.shape[1]
    if cells == 0:
        raise StructuralError("target grid must be non-empty")
    step = _block_rows(model, mc, cells)
    shared = draw_eps(model.net.arch, rng, mc, 1)
    out = np.empty(y.shape)
    starts = range(0, x.shape[0], step)
    todo = iter(starts)
    lock = threading.Lock()
    errors = {}
    state = np.geterr()

    def loop():  # on every thread under the caller's np.errstate
        work = Workspace()
        with np.errstate(**state):
            while True:
                with lock:
                    i = None if errors else next(todo, None)
                    if i is None:
                        return
                    try:
                        rows, _ = model.head.prepare_inputs(x[i : i + step], rng)
                    except BaseException as err:  # raised again on the calling thread
                        errors[i] = err
                        return
                try:
                    eps = [np.broadcast_to(z, (mc, rows.shape[0], z.shape[2])) for z in shared]
                    out[i : i + step] = logsumexp(
                        _score(model, rows, y[i : i + step], eps, work), axis=0, mean=True)
                except BaseException as err:
                    with lock:
                        errors[i] = err
                del rows  # a thread holds one block's head rows at a time

    # threads pay for their start and their GIL hand-offs when the call's
    # layer arrays, whose NumPy loops release the GIL, fill more than one
    # block's units budget; a few small grid blocks run faster inline
    pool = x.shape[0] * _row_units(model, mc) > BLOCK_DRAW_UNITS
    workers = min(_cpus(), MAX_WORKERS, len(starts)) if pool else 1
    threads = [threading.Thread(target=loop) for _ in range(workers - 1)]
    for thread in threads:
        thread.start()
    try:
        loop()
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[min(errors)]
    return out


def predictive_log_density(model, x, y, mc, rng):
    """Per-datum log posterior-predictive density, stably log-mean-exp'd
    over mc local-reparameterization draws.

    One (mc, units) activation-noise draw per layer is made first and shared
    by every row, so each row's estimate is distributed as under per-row
    noise, and rows share one Monte Carlo error.  For heads without noise
    inputs (nf, mdn, gauss) a one-row call keeps the digits of a per-row draw.
    """
    x, y = _check_batch(x, y, np.asarray(y).size)
    return _predictive_blocks(model, x, y, mc, rng)


def predictive_curve(model, x, y_grid, mc, rng):
    """(B, G) log posterior-predictive densities over a shared target grid."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y_grid = np.asarray(y_grid, dtype=float).reshape(-1)
    y = np.broadcast_to(y_grid, (x.shape[0], y_grid.size))
    return _predictive_blocks(model, x, y, mc, rng)


def model_sample(model, x, n, mc, rng):
    """n draws from the posterior predictive.

    ``x`` is one condition (d,), or an (n, d) block with one condition per
    draw.  For one condition, mc network draws are shared round-robin over
    the n samples; for a block, each row gets its own network draw.
    Non-finite draws (corrupt parameters) raise NumericError.
    """
    if n < 1:
        raise StructuralError("need at least one sample")
    net, head = model.net, model.head
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        rows, per = head.prepare_inputs(x.reshape(1, -1), rng)
        omega = net.forward_np(rows, draw_eps(net.arch, rng, mc, rows.shape[0]))
        blocks = omega[np.arange(n) % mc]  # (n, per, P)
    else:
        if x.shape[0] != n:
            raise StructuralError(f"{n} draws need {n} condition rows, got {x.shape[0]}")
        rows, per = head.prepare_inputs(x, rng)
        omega = net.forward_np(rows, draw_eps(net.arch, rng, 1, rows.shape[0]))
        blocks = omega[0].reshape(n, per, -1)
    draws = head.sample_np(blocks, model.extras, n, rng)
    bad = np.flatnonzero(~np.isfinite(draws))
    if bad.size:
        raise NumericError(f"non-finite draw {int(bad[0])} (corrupt model parameters?)",
                           index=int(bad[0]))
    return draws
