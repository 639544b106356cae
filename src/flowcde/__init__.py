"""Conditional density estimation with inverted radial flows.

A small research toolkit: stacks of invertible radial transforms define a
flexible one-dimensional conditional density, a mean-field variational
Bayesian MLP maps conditioning inputs to the flow parameters, and mixture
density / latent-variable / homoscedastic-Gaussian heads provide baselines.
Everything trains by stochastic free-energy minimisation, differentiated
on an array-valued reverse-mode tape that records the same vectorised
expressions the NumPy evaluation paths compute.
"""

from .autoreg import AutoregModel, density_grid, fit_chain, joint_log_density, sample_chain
from .bnn import (
    BayesianMLP,
    GroupPrior,
    MLPArchitecture,
    PriorConfig,
    VariationalPosterior,
    init_posterior,
)
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .data import Dataset, NormStats, load_csv, normalize, split, toy_generator
from .errors import (
    ConfigError,
    DataError,
    FlowCdeError,
    NumericError,
    StructuralError,
)
from .heads import GaussHead, LVHead, MDNHead, NFHead, make_head
from .training import (
    CdeModel,
    TrainConfig,
    free_energy,
    model_sample,
    predictive_curve,
    predictive_log_density,
    train,
)

__version__ = "0.6.0"

__all__ = [
    "AutoregModel",
    "BayesianMLP",
    "CdeModel",
    "Checkpoint",
    "ConfigError",
    "DataError",
    "Dataset",
    "FlowCdeError",
    "GaussHead",
    "GroupPrior",
    "LVHead",
    "MDNHead",
    "MLPArchitecture",
    "NFHead",
    "NormStats",
    "NumericError",
    "PriorConfig",
    "StructuralError",
    "TrainConfig",
    "VariationalPosterior",
    "density_grid",
    "fit_chain",
    "free_energy",
    "init_posterior",
    "joint_log_density",
    "load_checkpoint",
    "load_csv",
    "make_head",
    "model_sample",
    "normalize",
    "predictive_curve",
    "predictive_log_density",
    "sample_chain",
    "save_checkpoint",
    "split",
    "toy_generator",
    "train",
    "__version__",
]
