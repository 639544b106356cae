"""A plain deterministic MLP pass, kept as an independent reference for the
tests that check BayesianMLP's noiseless pass and the lambda scaling."""

import numpy as np


def mlp_forward(weights, biases, x, lambda_=1.0):
    """tanh hidden layers, a linear output, lambda on the final weight matrix."""
    h = np.asarray(x, dtype=float)
    last = len(weights) - 1
    for layer, (w, b) in enumerate(zip(weights, biases)):
        lam = lambda_ if layer == last else 1.0
        a = lam * (h @ w) + b
        h = np.tanh(a) if layer != last else a
    return h
