"""Variational Bayes and Gibbs inference for multivariate nonlinear Hawkes processes.

Simulation by exact thinning, fixed-model mean-field variational inference
with Polya-Gamma augmentation, adaptive model selection with model weights,
two-step sparse graph estimation, a Gibbs-sampler oracle, and evaluation
metrics.
"""

from hawkes_vb.pg import BACKEND
from hawkes_vb.core import (
    EventData,
    HawkesParams,
    HistogramBasis,
    LinkFunction,
    linear_drive,
    log_likelihood,
)
from hawkes_vb.simulate import ExcursionStats, SimConfig, excursion_stats, simulate

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "EventData",
    "ExcursionStats",
    "HawkesParams",
    "HistogramBasis",
    "LinkFunction",
    "SimConfig",
    "excursion_stats",
    "linear_drive",
    "log_likelihood",
    "simulate",
]
