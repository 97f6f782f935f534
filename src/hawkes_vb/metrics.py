"""Evaluation metrics: L1 risk, graph accuracy, dimension accuracy.

The risk of a Gaussian (variational) posterior against a known truth is

    r = sum_k E|nu_k - nu0_k| + sum_{l,k} E ||h_lk - h0_lk||_1,

evaluated in closed form: coordinatewise folded-normal means for the
background rates, and for the kernels an exact piecewise refinement of both
histograms to their common grid, where the difference on each refined bin is
Gaussian.  Kernels absent from the posterior model are identically zero and
contribute the deterministic ||h0_lk||_1.
"""

import math
from dataclasses import dataclass

import numpy as np

from hawkes_vb.adaptive import folded_normal_mean
from hawkes_vb.errors import DataError


@dataclass(frozen=True)
class EvalReport:
    risk_l1: float
    acc_graph: float
    acc_dim: float
    per_edge_l1: np.ndarray


def _edge_l1(mean_w, var_w, j_bins, truth_w, j_true, memory_A):
    """E||h - h0||_1 for one ordered pair, refining both histograms."""
    j_common = j_bins * j_true // math.gcd(j_bins, j_true)
    width = memory_A / j_common
    height = j_bins / memory_A
    height0 = j_true / memory_A
    m = np.repeat(mean_w * height, j_common // j_bins)
    s = np.repeat(np.sqrt(var_w) * height, j_common // j_bins)
    h0 = np.repeat(truth_w * height0, j_common // j_true)
    return float(np.sum(folded_normal_mean(m - h0, s)) * width)


def l1_risk(posteriors, submodels, truth, memory_A=None):
    """Closed-form L1 risk of per-dimension Gaussian factors against truth.

    ``posteriors[k]`` is the Gaussian factor of dimension k under
    ``submodels[k]`` (per-dimension column and depth).  The truth supplies
    its own histogram resolution; differing resolutions are compared
    exactly on the refined common grid.
    """
    if memory_A is None:
        memory_A = truth.memory_A
    if abs(memory_A - truth.memory_A) > 1e-12:
        raise DataError("posterior and truth use different memory parameters A")
    k_dims = truth.dims_K
    total = 0.0
    per_edge = np.zeros((k_dims, k_dims))
    for k in range(k_dims):
        post = posteriors[k]
        sm = submodels[k]
        var = np.diag(post.cov)
        total += float(folded_normal_mean(post.mean[0] - truth.nu[k],
                                          math.sqrt(max(var[0], 0.0))))
        j_bins = sm.num_bins
        for l in range(k_dims):
            w0 = truth.weights[l][k]
            j_true = truth.basis[k].num_bins_J
            if w0 is None:
                w0 = np.zeros(j_true)
            if l in sm.active_sources:
                rows = sm.block(l)
                err = _edge_l1(post.mean[rows], np.maximum(var[rows], 0.0),
                               j_bins, w0, j_true, memory_A)
            else:
                err = float(np.sum(np.abs(w0)))  # ||h0||_1, posterior is 0
            per_edge[l, k] = err
            total += err
    return total, per_edge


def graph_accuracy(delta_hat, delta_true):
    """Fraction of matching entries of two K x K binary graphs."""
    a = np.asarray(delta_hat)
    b = np.asarray(delta_true)
    if a.shape != b.shape:
        raise DataError("graph shapes do not match")
    return float(np.mean((a != 0) == (b != 0)))


def dim_accuracy(j_hat, j_true):
    """Fraction of dimensions whose selected resolution matches the truth."""
    a = np.asarray(j_hat)
    b = np.asarray(j_true)
    if a.shape != b.shape:
        raise DataError("resolution vectors do not match")
    return float(np.mean(a == b))


def evaluate(posteriors, submodels, delta_hat, truth, memory_A=None):
    """EvalReport of a fit against a known truth.

    ``posteriors[k]`` (anything with ``mean`` and ``cov``) is the factor of
    dimension k under ``submodels[k]``; ``delta_hat`` is the fitted graph and
    ``memory_A`` the fit's memory length (default: the truth's).
    """
    risk, per_edge = l1_risk(posteriors, submodels, truth, memory_A=memory_A)
    return EvalReport(risk_l1=risk,
                      acc_graph=graph_accuracy(delta_hat, truth.graph()),
                      acc_dim=dim_accuracy([sm.num_bins for sm in submodels],
                                           [b.num_bins_J for b in truth.basis]),
                      per_edge_l1=per_edge)
