"""Constrained maximum-likelihood estimation and noise-scale cross-validation.

The pairwise models are fit over one feasible set: mean-zero vectors inside
the hypercube ``|w_j| <= B``.  The solver is a projected truncated Newton
method.  Each iteration picks the epsilon-active set of Bertsekas (1982,
*Projected Newton methods for optimization problems with simple constraints*):
coordinates within ``eps = min(1e-3 B, residual)`` of a face whose reduced
gradient points out of the box.  Those take the projected-gradient step; the
free coordinates take a Newton step on their mean-zero subspace, solved by
conjugate gradients on O(groups) Hessian-vector products built from
:func:`models.curvature`.  A monotone Armijo test along the projection arc
``P(w + t p)`` accepts the step, falling back on the projected-gradient arc
when the Newton arc finds no descent, so the objective never rises (beyond
the rounding of the NLL itself).  Projection onto the feasible set is exact: one
sorted sweep over the breakpoints finds the shift that zeroes the sum of the
clipped vector (the continuous quadratic knapsack problem, Kiwiel 2008).  The
cardinal model's unconstrained closed form (centered per-item means) skips the
iteration; its ``active_box`` lists the items at or beyond ``B``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import models
from .errors import ConnectivityError, FoldError, InsufficientDataError
# Fits take their Laplacian from ObservationSet.laplacian.  build_laplacian_from_design
# stays importable from here because perfbench's tracer self-test checks that it is
# patched in this module.
from .graph import build_laplacian_from_design  # noqa: F401
from .models import CARDINAL, ModelSpec, ObservationSet, QualityVector

#: Default cross-validation grid: powers of two from 1/16 to 16.
DEFAULT_SIGMA_GRID = tuple(2.0**k for k in range(-4, 5))

_ARMIJO_C = 1e-4
_MIN_STEP = 1e-18
# The Armijo test allows this fraction of |NLL| for the NLL's own rounding: close to a
# minimum the decrease it asks for falls below what the sum can resolve.
_ROUNDING = 1e-14
# Widest distance to the box, as a fraction of B, at which a coordinate can be held active.
_ACTIVE_MARGIN = 1e-3
# Relative residual at which CG stops refining a Newton step.
_CG_RTOL = 1e-3


@dataclass(frozen=True)
class FitConfig:
    """Solver settings shared by every model fit."""

    b_bound: float = 1.0
    max_iters: int = 2000
    grad_tol: float | None = None  # defaults to 1e-8 * n at fit time
    sigma_grid: tuple[float, ...] | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 < self.b_bound < np.inf:
            raise ValueError(f"box bound must be positive and finite, got {self.b_bound}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.grad_tol is not None and not 0 < self.grad_tol < np.inf:
            raise ValueError(f"grad_tol must be positive and finite, got {self.grad_tol}")
        if self.sigma_grid is not None:
            grid = tuple(float(s) for s in self.sigma_grid)
            if len(grid) == 0 or not all(0 < s < np.inf for s in grid):
                raise ValueError(f"sigma_grid must be nonempty, positive and finite, got {grid}")
            if any(b <= a for a, b in zip(grid, grid[1:])):
                raise ValueError("sigma_grid must be strictly increasing")
            object.__setattr__(self, "sigma_grid", grid)


@dataclass(frozen=True)
class FitResult:
    """Outcome of one constrained fit."""

    w_hat: QualityVector
    sigma_used: float
    final_nll: float
    iterations: int
    converged: bool
    active_box: tuple[int, ...]
    nll_path: tuple[float, ...] = field(repr=False, default=())
    stop_reason: str = "converged"  # or "max_iters", or "line_search" when no step gives descent


def project_feasible(v: np.ndarray, b_bound: float) -> np.ndarray:
    """Project onto {mean-zero} intersected with {|w_j| <= b_bound}.

    The input is centered first: every feasible point lies in the mean-zero
    subspace, so by Pythagoras the projection of ``v`` equals the projection
    of its centered part ``c``.  The KKT conditions give the solution as
    ``clip(c - mu, -b, b)``, where the shift ``mu`` zeroes the sum ``g(mu)``.
    ``g`` is piecewise linear with knots at ``c_i -+ b``, falling between
    knots at a slope equal to the number of coordinates free there.  One sorted
    sweep over the 2d knots, O(d log d), accumulates ``g`` from ``d b`` and
    solves for ``mu`` on the first segment where it reaches zero.
    """
    x = np.asarray(v, dtype=float)
    x = x - x.mean()
    if np.max(np.abs(x)) <= b_bound:
        return x

    d = x.size
    knots = np.concatenate((x - b_bound, x + b_bound))
    order = np.argsort(knots)
    knots = knots[order]
    # Coordinate i is free from its knot c_i - b to c_i + b; n_free[j] counts them after knots[j].
    n_free = np.cumsum(np.where(order < d, 1, -1))
    g = d * b_bound - np.cumsum(n_free[:-1] * np.diff(knots))  # g[j] = g(knots[j + 1])
    # g first reaches zero on a segment where it falls, so n_free[k] >= 1.
    k = int(np.argmax(g <= 0.0))
    x = np.clip(x - (knots[k + 1] + g[k] / n_free[k]), -b_bound, b_bound)
    # Spread any float dust in the sum over the unclipped coordinates.
    free = np.abs(x) < b_bound
    if np.any(free):
        x[free] -= x.sum() / np.count_nonzero(free)
    return x


def _grad_tol(config: FitConfig, n: int) -> float:
    return config.grad_tol if config.grad_tol is not None else 1e-8 * n


def _fit_cardinal(obs: ObservationSet, config: FitConfig) -> FitResult:
    # One group per rated item, in item order, holding the item's mean rating.
    groups = obs.groups
    if groups.items.size < obs.d:
        missing = np.setdiff1d(np.arange(obs.d), groups.items).tolist()
        raise ConnectivityError(f"cardinal fit needs every item rated at least once; missing {missing}")
    w = groups.value - groups.value.mean()
    nll = models.neg_log_likelihood(obs.model, w, obs)
    return FitResult(
        w_hat=QualityVector(w),
        sigma_used=obs.model.sigma,
        final_nll=nll,
        iterations=0,
        converged=True,
        active_box=_active_box(w, config.b_bound),
        nll_path=(nll,),
    )


def _active_box(w: np.ndarray, b_bound: float) -> tuple[int, ...]:
    return tuple(int(j) for j in np.flatnonzero(np.abs(w) >= b_bound - 1e-9))


def _hessian_product(pairs: np.ndarray, weights: np.ndarray, v: np.ndarray) -> np.ndarray:
    """H v for the Hessian whose per-group :func:`models.curvature` weights are ``weights``; O(groups)."""
    left, right = pairs[:, 0], pairs[:, 1]
    t = weights * (v[left] - v[right])
    return np.bincount(left, t, v.size) - np.bincount(right, t, v.size)


def _free_newton_step(pairs: np.ndarray, weights: np.ndarray, free: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Truncated CG for the Newton step on the mean-zero subspace of the ``free`` coordinates.

    Solves ``Z H_FF Z x = -Z g_F`` (``Z`` centers a free-set vector) to a relative
    residual of ``_CG_RTOL``.  A direction of no curvature ends CG with the step
    so far, which is zero if it is the first.
    """
    v = np.zeros(free.size)

    def product(x):
        v[free] = x
        hx = _hessian_product(pairs, weights, v)[free]
        return hx - hx.mean()

    r = g[free].mean() - g[free]
    x, p = np.zeros_like(r), r.copy()
    rr = float(r @ r)
    stop = _CG_RTOL**2 * rr
    for _ in range(r.size):
        q = product(p)
        pq = float(p @ q)
        if pq <= 0.0:
            break
        a = rr / pq
        x += a * p
        r -= a * q
        rr, rr_old = float(r @ r), rr
        if rr <= stop:
            break
        p = r + (rr / rr_old) * p
    return x


def _direction(spec: ModelSpec, w: np.ndarray, g: np.ndarray, obs: ObservationSet, b_bound: float,
               eps: float) -> np.ndarray:
    """Projected Newton direction with the epsilon-active set of Bertsekas (1982).

    A coordinate is active when it lies within ``eps`` of a face of the box and
    its reduced gradient ``g - mu`` (``mu``: the mean gradient over the
    coordinates away from the box) points out of it; active coordinates take
    the projected-gradient step ``-(g - mu)``, which moves them onto the face.
    The others take the Newton step on their mean-zero subspace.
    """
    near = np.abs(w) >= b_bound - eps
    mu = g[~near].mean() if not near.all() else g.mean()
    p = -(g - mu)
    free = ~(near & (np.sign(w) * p > 0))
    if np.count_nonzero(free) >= 2:
        step = _free_newton_step(obs.groups.items, models.curvature(spec, w, obs), free, g)
        if np.any(step):
            p[free] = step
    # Otherwise p is the projected-gradient direction everywhere, whose arc P(w - t g)
    # descends from any point that is not stationary.
    return p


def _arc_search(spec: ModelSpec, obs: ObservationSet, w: np.ndarray, f: float, g: np.ndarray, p: np.ndarray,
                b_bound: float) -> tuple[np.ndarray, float] | None:
    """Monotone Armijo backtracking along the projection arc ``P(w + t p)`` from ``t = 1``.

    Returns the first point with sufficient decrease and its NLL, or None when
    the arc shrinks onto ``w`` first.  The NLL is evaluated once per trial point.
    """
    t = 1.0
    while t >= _MIN_STEP:
        w_new = project_feasible(w + t * p, b_bound)
        if np.array_equal(w_new, w):
            return None
        f_new = models.neg_log_likelihood(spec, w_new, obs)
        slope = float(g @ (w_new - w))
        if slope < 0.0 and f_new <= f + _ARMIJO_C * slope + _ROUNDING * abs(f):
            return w_new, f_new
        t *= 0.5
    return None


def mle_fit(obs: ObservationSet, config: FitConfig) -> FitResult:
    """Constrained MLE for any model kind.

    Pairwise designs must form a connected comparison graph, otherwise the
    quality differences across components are not identifiable and the fit is
    refused.  The result reports ``converged=False`` rather than silently
    returning a poor point when the iteration budget runs out.
    """
    if obs.model.kind == CARDINAL:
        return _fit_cardinal(obs, config)

    if not obs.laplacian.connected:
        raise ConnectivityError("comparison graph of the design is disconnected; fit refused")

    spec, b_bound = obs.model, config.b_bound
    tol = _grad_tol(config, obs.n)
    w = np.zeros(obs.d)
    f = models.neg_log_likelihood(spec, w, obs)
    g = models.gradient(spec, w, obs)
    path = [f]
    stop_reason = "max_iters"
    iterations = 0

    for iterations in range(1, config.max_iters + 1):
        # Fixed-point residual of the projected-gradient map with unit step.
        residual = float(np.linalg.norm(w - project_feasible(w - g, b_bound)))
        if residual <= tol:
            stop_reason = "converged"
            iterations -= 1
            break

        p = _direction(spec, w, g, obs, b_bound, min(_ACTIVE_MARGIN * b_bound, residual))
        # The projected-gradient arc descends from any point that is not stationary, so it
        # backs up a Newton arc that finds no descent (an active set guessed wrong).
        step = _arc_search(spec, obs, w, f, g, p, b_bound) or _arc_search(spec, obs, w, f, g, -g, b_bound)
        if step is None:
            # No descent at any step size; the residual at w already failed the test.
            stop_reason = "line_search"
            break
        w, f = step
        g = models.gradient(spec, w, obs)
        path.append(f)

    return FitResult(
        w_hat=QualityVector(w, b_bound),
        sigma_used=spec.sigma,
        final_nll=f,
        iterations=iterations,
        converged=stop_reason == "converged",
        active_box=_active_box(w, b_bound),
        nll_path=tuple(path),
        stop_reason=stop_reason,
    )


def cv_sigma(obs: ObservationSet, config: FitConfig) -> tuple[float, list[tuple[float, float]]]:
    """Pick the noise scale by 3-fold cross-validation.

    Rows are shuffled with the config seed, each fold is held out once, and
    every candidate sigma is scored by the average held-out log-likelihood.
    Ties break toward the smaller sigma.  Returns the winner together with the
    full (sigma, score) table.
    """
    grid = config.sigma_grid if config.sigma_grid is not None else DEFAULT_SIGMA_GRID
    if obs.n < 3:
        raise InsufficientDataError(f"cross-validation needs at least 3 observations, got {obs.n}")

    rng = np.random.default_rng(config.seed)
    order = rng.permutation(obs.n)
    folds = np.array_split(order, 3)

    splits = []
    for i, held_out in enumerate(folds):
        train_idx = np.concatenate([folds[j] for j in range(3) if j != i])
        train = obs.subset(train_idx)
        # The fold's Laplacian is cached on ``train`` and reused by every fit on it.
        if train.model.kind in models.PAIRWISE_KINDS and not train.laplacian.connected:
            raise FoldError(f"training graph for held-out fold {i} is disconnected")
        splits.append((train, obs.subset(held_out)))

    table: list[tuple[float, float]] = []
    best_sigma, best_score = None, -np.inf
    for sigma in grid:
        scores = []
        for train, held in splits:
            result = mle_fit(train.with_sigma(sigma), config)
            held_sigma = held.with_sigma(sigma)
            scores.append(-models.neg_log_likelihood(held_sigma.model, result.w_hat, held_sigma))
        score = float(np.mean(scores))
        table.append((float(sigma), score))
        if score > best_score:
            best_sigma, best_score = float(sigma), score
    return best_sigma, table
