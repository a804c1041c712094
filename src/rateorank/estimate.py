"""Constrained maximum-likelihood estimation and noise-scale cross-validation.

All models are fit over the same feasible set: mean-zero vectors inside the
hypercube ``|w_j| <= B``.  The solver is projected gradient descent with a
safeguarded Barzilai-Borwein step (the spectral projected gradient method of
Birgin, Martinez and Raydan) and a monotone Armijo backtracking test, so the
objective never increases.  Projection onto the feasible set is exact: a
sort-and-breakpoint search for the shift that zeroes the sum of the clipped
vector (the continuous quadratic knapsack problem, Kiwiel 2008).  The cardinal
model has a closed form (centered per-item means) and skips the iteration
entirely.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import models
from .errors import ConnectivityError, FoldError, InsufficientDataError
# Fits take their Laplacian from ObservationSet.laplacian.  build_laplacian_from_design
# stays importable from here because perfbench's tracer self-test checks that it is
# patched in this module.
from .graph import Laplacian, build_laplacian_from_design  # noqa: F401
from .models import CARDINAL, PAIRED_LINEAR, BTL, ModelSpec, ObservationSet, QualityVector

#: Default cross-validation grid: powers of two from 1/16 to 16.
DEFAULT_SIGMA_GRID = tuple(2.0**k for k in range(-4, 5))

_ARMIJO_C = 1e-4
_MIN_STEP = 1e-18
# Safeguard interval for the Barzilai-Borwein trial step.
_BB_STEP_RANGE = (1e-10, 1e10)


@dataclass(frozen=True)
class FitConfig:
    """Solver settings shared by every model fit."""

    b_bound: float = 1.0
    max_iters: int = 2000
    grad_tol: float | None = None  # defaults to 1e-8 * n at fit time
    sigma_grid: tuple[float, ...] | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.b_bound <= 0:
            raise ValueError(f"box bound must be positive, got {self.b_bound}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.grad_tol is not None and self.grad_tol <= 0:
            raise ValueError(f"grad_tol must be positive, got {self.grad_tol}")
        if self.sigma_grid is not None:
            grid = tuple(float(s) for s in self.sigma_grid)
            if len(grid) == 0 or any(s <= 0 for s in grid):
                raise ValueError("sigma_grid must be nonempty and positive")
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
    # Laplacian of the pairwise design the fit built; None for cardinal fits.
    laplacian: Laplacian | None = field(repr=False, default=None)


def project_feasible(v: np.ndarray, b_bound: float) -> np.ndarray:
    """Project onto {mean-zero} intersected with {|w_j| <= b_bound}.

    The input is centered first: every feasible point lies in the mean-zero
    subspace, so by Pythagoras the projection of ``v`` equals the projection
    of its centered part ``c``.  The KKT conditions give the solution as
    ``clip(c - mu, -b, b)``, where the shift ``mu`` zeroes the sum.  That sum,
    ``g(mu)``, is nonincreasing and piecewise linear with knots at ``c_i -+ b``.
    Sorting ``c`` and taking prefix sums evaluates ``g`` at all 2d knots in
    O(d log d); the knot pair where ``g`` changes sign brackets the root, and
    on that segment the clipped-low / free / clipped-high partition is fixed,
    so ``mu`` follows exactly from one linear equation.
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


def _initial_step(spec: ModelSpec, lambda1: float) -> float:
    """Inverse of a crude Lipschitz bound on the gradient, to seed the line search."""
    if spec.kind == PAIRED_LINEAR:
        lipschitz = 2.0 * lambda1
    elif spec.kind == BTL:
        lipschitz = 0.25 * lambda1 / spec.sigma**2
    else:
        lipschitz = lambda1 / spec.sigma**2
    return 1.0 / max(lipschitz, 1e-12)


def mle_fit(obs: ObservationSet, config: FitConfig) -> FitResult:
    """Constrained MLE for any model kind.

    Pairwise designs must form a connected comparison graph, otherwise the
    quality differences across components are not identifiable and the fit is
    refused.  The result reports ``converged=False`` rather than silently
    returning a poor point when the iteration budget runs out.
    """
    if obs.model.kind == CARDINAL:
        return _fit_cardinal(obs, config)

    laplacian = obs.laplacian
    if not laplacian.connected:
        raise ConnectivityError("comparison graph of the design is disconnected; fit refused")

    spec = obs.model
    tol = _grad_tol(config, obs.n)
    w = np.zeros(obs.d)
    f = models.neg_log_likelihood(spec, w, obs)
    g = models.gradient(spec, w, obs)
    path = [f]
    step = _initial_step(spec, laplacian.lambda1)
    converged = False
    iterations = 0

    for iterations in range(1, config.max_iters + 1):
        # Fixed-point residual of the projected-gradient map with unit step.
        residual = w - project_feasible(w - g, config.b_bound)
        if float(np.linalg.norm(residual)) <= tol:
            converged = True
            iterations -= 1
            break

        t = step
        while True:
            w_new = project_feasible(w - t * g, config.b_bound)
            f_new = models.neg_log_likelihood(spec, w_new, obs)
            if f_new <= f + _ARMIJO_C * float(g @ (w_new - w)):
                break
            t *= 0.5
            if t < _MIN_STEP:
                break
        if t < _MIN_STEP:
            # No descent at any step size; the residual at w already failed the test.
            break

        g_new = models.gradient(spec, w_new, obs)
        s, y = w_new - w, g_new - g
        curvature = float(s @ y)
        # BB1 step s's / s'y; a nonpositive curvature estimate keeps the last accepted step.
        step = float(np.clip(float(s @ s) / curvature, *_BB_STEP_RANGE)) if curvature > 0 else t
        w, f, g = w_new, f_new, g_new
        path.append(f)

    return FitResult(
        w_hat=QualityVector(w, config.b_bound),
        sigma_used=spec.sigma,
        final_nll=f,
        iterations=iterations,
        converged=converged,
        active_box=_active_box(w, config.b_bound),
        nll_path=tuple(path),
        laplacian=laplacian,
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
        if train.model.kind in models.PAIRWISE_KINDS:
            # The fold's Laplacian is cached on ``train`` and reused by every fit on it.
            if not train.laplacian.connected:
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
