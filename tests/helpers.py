"""Shared oracles for the test suite.

Everything in here is deliberately independent of the library internals: the
finite-difference checks only call ``neg_log_likelihood``/``gradient`` as black
boxes, the grid minimizer re-parameterizes the d=3 feasible set by hand, and
the reference projection finds its shift by a different search than the
library's.
"""

import numpy as np
from scipy.special import log_ndtr

from rateorank import models

# Orthonormal basis of the mean-zero subspace in R^3 (columns).
REDUCED_BASIS_3 = np.array(
    [
        [1.0 / np.sqrt(2.0), 1.0 / np.sqrt(6.0)],
        [-1.0 / np.sqrt(2.0), 1.0 / np.sqrt(6.0)],
        [0.0, -2.0 / np.sqrt(6.0)],
    ]
)


def fd_gradient(spec, w, obs, eps=1e-6):
    w = np.asarray(w, dtype=float)
    g = np.zeros_like(w)
    for j in range(w.size):
        e = np.zeros_like(w)
        e[j] = eps
        g[j] = (
            models.neg_log_likelihood(spec, w + e, obs)
            - models.neg_log_likelihood(spec, w - e, obs)
        ) / (2.0 * eps)
    return g


def fd_hessian(spec, w, obs, eps=1e-6):
    w = np.asarray(w, dtype=float)
    h = np.zeros((w.size, w.size))
    for j in range(w.size):
        e = np.zeros_like(w)
        e[j] = eps
        h[:, j] = (
            models.gradient(spec, w + e, obs) - models.gradient(spec, w - e, obs)
        ) / (2.0 * eps)
    return 0.5 * (h + h.T)


def _batch_nll(spec, candidates, obs):
    """Negative log-likelihood for a batch of quality vectors (rows)."""
    if spec.kind == "cardinal":
        margins = candidates[:, obs.design]
    else:
        margins = candidates[:, obs.design[:, 0]] - candidates[:, obs.design[:, 1]]
    y = obs.outcomes[None, :]
    if spec.kind in ("cardinal", "paired_linear"):
        r = y - margins
        return np.einsum("ij,ij->i", r, r)
    z = y * margins / spec.sigma
    if spec.kind == "thurstone":
        return -log_ndtr(z).sum(axis=1)
    return np.logaddexp(0.0, -z).sum(axis=1)


def _grid_scan(spec, obs, b_bound, center, half_span, points, chunk=40000):
    ax = np.linspace(-half_span, half_span, points)
    z1, z2 = np.meshgrid(center[0] + ax, center[1] + ax, indexing="ij")
    zs = np.column_stack([z1.ravel(), z2.ravel()])
    ws = zs @ REDUCED_BASIS_3.T
    feasible = np.max(np.abs(ws), axis=1) <= b_bound + 1e-12
    zs, ws = zs[feasible], ws[feasible]
    best_val, best_z, best_w = np.inf, None, None
    for start in range(0, ws.shape[0], chunk):
        block = ws[start : start + chunk]
        vals = _batch_nll(spec, block, obs)
        i = int(np.argmin(vals))
        if vals[i] < best_val:
            best_val = float(vals[i])
            best_z = zs[start + i]
            best_w = block[i]
    return best_val, best_z, best_w


def grid_minimum(spec, obs, b_bound):
    """Dense grid search over the mean-zero, box-bounded set for d=3.

    Coarse scan of the whole feasible square followed by two local
    refinements; the final spacing is ~1e-5, so for interior optima the
    returned objective is within ~1e-8 of the true constrained minimum.
    """
    span = np.sqrt(3.0) * b_bound
    val, z, w = _grid_scan(spec, obs, b_bound, np.zeros(2), span, 901)
    half = span / 450.0
    for _ in range(2):
        val, z, w = _grid_scan(spec, obs, b_bound, z, 3.0 * half, 241)
        half = 3.0 * half / 120.0
    return val, w


def reference_projection(v, b_bound):
    """Projection onto {mean-zero, |w_j| <= b_bound} by a prefix-sum breakpoint search.

    Evaluates the clipped sum ``g`` at all 2d knots ``c_i -+ b`` from prefix
    sums of the sorted centred vector, then solves the linear equation of the
    bracketing segment with its clipped-low / free / clipped-high partition.
    """
    x = np.asarray(v, dtype=float)
    x = x - x.mean()
    if np.max(np.abs(x)) <= b_bound:
        return x

    d = x.size
    s = np.sort(x)
    prefix = np.concatenate(([0.0], np.cumsum(s)))

    def partition(mu):
        # s[:lo] clips to -b and s[hi:] clips to +b at shift mu.
        return np.searchsorted(s, mu - b_bound, side="right"), np.searchsorted(s, mu + b_bound, side="left")

    knots = np.sort(np.concatenate((s - b_bound, s + b_bound)))
    lo, hi = partition(knots)
    g = prefix[hi] - prefix[lo] - knots * (hi - lo) + b_bound * (d - hi - lo)
    # g(knots[0]) = d*b > 0 and g(knots[-1]) = -d*b < 0; take the first sign change.
    k = min(max(int(np.argmax(g <= 0.0)), 1), knots.size - 1)
    left, right = knots[k - 1], knots[k]
    mid = 0.5 * (left + right)
    lo, hi = (int(i) for i in partition(mid))
    # With no free coordinate g is flat (zero) on the segment and any shift in it is a root.
    mu = (prefix[hi] - prefix[lo] + b_bound * (d - hi - lo)) / (hi - lo) if hi > lo else mid
    x = np.clip(x - min(max(mu, left), right), -b_bound, b_bound)
    free = np.abs(x) < b_bound
    if np.any(free):
        x[free] -= x.sum() / np.count_nonzero(free)
    return x
