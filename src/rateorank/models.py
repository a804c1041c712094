"""Observation models for quality estimation.

Four ways of observing a latent quality vector ``w`` on ``d`` items:

* ``cardinal``       -- a rating of one item: ``y = w_j + noise``.
* ``paired_linear``  -- a real-valued comparison: ``y = w_a - w_b + noise``.
* ``thurstone``      -- the sign of a noisy comparison (probit link).
* ``btl``            -- a binary comparison with logistic link.

The latent vector is identifiable only up to a common shift, so all vectors
here are mean-centered, and the two binary models additionally carry a box
bound ``|w_j| <= B`` that keeps their likelihoods well-behaved.

Each likelihood depends on the data only through per-pair (per-item for
cardinal) sufficient statistics, so it is evaluated on an observation set's
:class:`Groups` table rather than on its rows: the negative log-likelihood,
gradient and Hessian cost O(groups), and a design that compares few pairs
many times costs no more than its distinct pairs.  Sampling stays per row.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import expit, log_ndtr

from . import graph
from .errors import ModelKindError

CARDINAL = "cardinal"
PAIRED_LINEAR = "paired_linear"
THURSTONE = "thurstone"
BTL = "btl"

MODEL_KINDS = (CARDINAL, PAIRED_LINEAR, THURSTONE, BTL)
#: Kinds whose design rows are item pairs rather than single items.
PAIRWISE_KINDS = (PAIRED_LINEAR, THURSTONE, BTL)
#: Kinds with binary (+1/-1) outcomes.
BINARY_KINDS = (THURSTONE, BTL)

_LOG_SQRT_2PI = 0.5 * np.log(2.0 * np.pi)
_CENTER_TOL = 1e-9


def _log_norm_pdf(z: np.ndarray) -> np.ndarray:
    return -0.5 * z * z - _LOG_SQRT_2PI


def _off_centre(values: np.ndarray) -> bool:
    """Whether the sum is off zero by more than rounding, which scales with the entries."""
    return abs(values.sum()) > _CENTER_TOL * max(1.0, float(np.max(np.abs(values))))


@dataclass(frozen=True)
class QualityVector:
    """A mean-centered latent quality vector, optionally box-bounded."""

    values: np.ndarray
    b_bound: float | None = None

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=float)
        if values.ndim != 1 or values.size < 2:
            raise ValueError(f"quality vector must be 1-d with d >= 2, got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("quality vector has non-finite entries")
        if _off_centre(values):
            raise ValueError(f"quality vector must sum to zero, got sum {values.sum():.3g}")
        if self.b_bound is not None:
            if not 0 < self.b_bound < np.inf:
                raise ValueError(f"box bound must be positive and finite, got {self.b_bound}")
            if np.max(np.abs(values)) > self.b_bound + 1e-9:
                raise ValueError("quality vector violates its box bound")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @classmethod
    def centered(cls, values, b_bound: float | None = None) -> "QualityVector":
        """Center arbitrary values and wrap them."""
        values = np.asarray(values, dtype=float)
        values = values - values.mean()
        # A mean that dwarfs the spread leaves a sum error at the mean's size; a second pass removes it.
        if _off_centre(values):
            values = values - values.mean()
        return cls(values, b_bound)

    @property
    def d(self) -> int:
        return self.values.size

    def __len__(self) -> int:
        return self.values.size


def as_values(w) -> np.ndarray:
    """Accept a QualityVector or a plain array; return the underlying array."""
    if isinstance(w, QualityVector):
        return w.values
    return np.asarray(w, dtype=float)


@dataclass(frozen=True)
class ModelSpec:
    """Which observation model, its noise scale, and (for binary kinds) the box bound."""

    kind: str
    sigma: float
    b_bound: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in MODEL_KINDS:
            raise ModelKindError(f"unknown model kind {self.kind!r}; expected one of {MODEL_KINDS}")
        if self.kind in BINARY_KINDS:
            if not 0 < self.sigma < np.inf:
                raise ValueError(f"{self.kind} needs a finite sigma > 0, got {self.sigma}")
            if self.b_bound is None or not 0 < self.b_bound < np.inf:
                raise ValueError(f"{self.kind} needs a positive, finite box bound, got {self.b_bound}")
        elif not 0 <= self.sigma < np.inf:
            raise ValueError(f"sigma must be nonnegative and finite, got {self.sigma}")


@dataclass(frozen=True)
class Groups:
    """Sufficient statistics of an observation set, one entry per group of rows.

    Pairwise rows are oriented so that ``left < right`` (a reversed row's
    outcome is negated) and grouped by pair, and for the binary kinds also by
    outcome; cardinal rows are grouped by item.  ``items`` is ``(G, 2)`` or
    ``(G,)`` like the design, ``value`` is the group's mean outcome (exactly
    +-1 for binary kinds) and ``count`` its number of rows.  ``spread`` is the
    within-group sum of squares sum (y - value)^2, the part of the squared
    error that no quality vector can explain.
    """

    items: np.ndarray
    value: np.ndarray
    count: np.ndarray
    spread: float


@dataclass(frozen=True)
class ObservationSet:
    """Observations plus the design they were collected under.

    ``design`` is an ``(n, 2)`` int array of ``(left, right)`` pairs for the
    pairwise kinds, or an ``(n,)`` int array of item indices for cardinal.
    ``outcomes`` is a float array; for binary kinds entries are exactly +-1.
    Tables are built on first use.  Design tables depend on the design alone:
    the distinct pairs (items), each row's index into them, the reversed rows
    and the :attr:`laplacian`.  The outcome table, :attr:`groups`, is counted
    against that index.  A :meth:`with_sigma` view shares both; a
    :meth:`with_outcomes` view (a new draw on the same design) shares the
    design tables; a :meth:`subset` shares nothing.
    """

    model: ModelSpec
    d: int
    design: np.ndarray
    outcomes: np.ndarray
    _design_tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _outcome_tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        design = np.asarray(self.design, dtype=np.intp)
        outcomes = np.asarray(self.outcomes, dtype=float)
        if self.d < 2:
            raise ValueError(f"need at least 2 items, got d={self.d}")
        if self.model.kind in PAIRWISE_KINDS:
            if design.ndim != 2 or design.shape[1] != 2:
                raise ValueError(f"pairwise design must have shape (n, 2), got {design.shape}")
            if np.any(design[:, 0] == design[:, 1]):
                raise ValueError("design contains a self-comparison")
        else:
            if design.ndim != 1:
                raise ValueError(f"cardinal design must have shape (n,), got {design.shape}")
        if design.size == 0:
            raise ValueError("observation set is empty")
        if design.min() < 0 or design.max() >= self.d:
            raise IndexError(f"design indexes items outside range(0, {self.d})")
        if outcomes.shape != (design.shape[0],):
            raise ValueError(f"expected {design.shape[0]} outcomes, got {outcomes.shape}")
        if not np.all(np.isfinite(outcomes)):
            raise ValueError("outcomes contain non-finite values")
        if self.model.kind in BINARY_KINDS and not np.all(np.abs(outcomes) == 1.0):
            raise ValueError("binary model outcomes must all be +1 or -1")
        design.setflags(write=False)
        outcomes.setflags(write=False)
        object.__setattr__(self, "design", design)
        object.__setattr__(self, "outcomes", outcomes)

    @property
    def n(self) -> int:
        return self.outcomes.size

    def _pair_index(self) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """Design tables: distinct pairs (items), each row's index into them, reversed rows (None for cardinal)."""
        tables = self._design_tables
        if "index" not in tables:
            if self.model.kind == CARDINAL:
                tables["index"] = (*np.unique(self.design, return_inverse=True), None)
            else:
                left, right = self.design[:, 0], self.design[:, 1]
                tables["index"] = (*graph.index_pairs(self.d, left, right), left > right)
        return tables["index"]

    @property
    def groups(self) -> Groups:
        """The per-pair (per-item for cardinal) sufficient statistics of the rows."""
        if "groups" in self._outcome_tables:
            return self._outcome_tables["groups"]
        keys, index, reversed_rows = self._pair_index()
        y = self.outcomes if reversed_rows is None else np.where(reversed_rows, -self.outcomes, self.outcomes)
        if self.model.kind in BINARY_KINDS:
            # Bin 2p holds pair p's -1 rows and bin 2p + 1 its +1 rows; empty bins are dropped.
            count = np.bincount(2 * index + (y > 0), minlength=2 * keys.shape[0])
            present = np.flatnonzero(count)
            groups = Groups(keys[present // 2], np.where(present % 2, 1.0, -1.0), count[present], 0.0)
        else:
            count = np.bincount(index, minlength=keys.shape[0])
            value = np.bincount(index, weights=y, minlength=keys.shape[0]) / count
            residual = y - value[index]
            groups = Groups(keys, value, count, float(residual @ residual))
        self._outcome_tables["groups"] = groups
        return groups

    @property
    def laplacian(self) -> graph.Laplacian:
        """Laplacian of a pairwise design, built from its per-pair counts; a design table."""
        if "laplacian" not in self._design_tables:
            _require_kind(self.model, PAIRWISE_KINDS, "laplacian")
            pairs, index, _ = self._pair_index()
            edges = np.column_stack((pairs, np.bincount(index, minlength=pairs.shape[0])))
            self._design_tables["laplacian"] = graph.build_laplacian(self.d, edges)
        return self._design_tables["laplacian"]

    def subset(self, indices: np.ndarray) -> "ObservationSet":
        """A new observation set restricted to the given row indices."""
        return ObservationSet(self.model, self.d, self.design[indices], self.outcomes[indices])

    def with_sigma(self, sigma: float) -> "ObservationSet":
        """Same data viewed under a different noise scale, sharing its design and outcome tables."""
        view = ObservationSet(replace(self.model, sigma=sigma), self.d, self.design, self.outcomes)
        object.__setattr__(view, "_design_tables", self._design_tables)
        object.__setattr__(view, "_outcome_tables", self._outcome_tables)
        return view

    def with_outcomes(self, outcomes: np.ndarray) -> "ObservationSet":
        """New outcomes on the same design, sharing its design tables but none of its outcome tables."""
        view = ObservationSet(self.model, self.d, self.design, outcomes)
        object.__setattr__(view, "_design_tables", self._design_tables)
        return view


def _margins(w: np.ndarray, design: np.ndarray) -> np.ndarray:
    """Inner products with each row's differencing vector: w_left - w_right, or w_item for a 1-d design."""
    if design.ndim == 1:
        return w[design]
    return w[design[:, 0]] - w[design[:, 1]]


def _require_kind(spec: ModelSpec, allowed: tuple[str, ...], op: str) -> None:
    if spec.kind not in allowed:
        raise ModelKindError(f"{op} is not defined for the {spec.kind!r} model")


def prob_positive(spec: ModelSpec, w, edge: tuple[int, int]) -> float:
    """Probability that comparing ``edge`` under ``spec`` comes out positive.

    For paired_linear this is P(y > 0); both links reduce to a CDF applied to
    the standardized margin.
    """
    _require_kind(spec, PAIRWISE_KINDS, "prob_positive")
    if spec.sigma <= 0:
        raise ValueError("prob_positive needs sigma > 0")
    w = as_values(w)
    z = (w[edge[0]] - w[edge[1]]) / spec.sigma
    if spec.kind == BTL:
        return float(expit(z))
    return float(np.exp(log_ndtr(z)))


def sample(spec: ModelSpec, w, design, seed: int) -> ObservationSet:
    """Draw one observation per design row under the given model.

    ``design`` is a design array, or an observation set to draw new outcomes
    on: the result is then its :meth:`ObservationSet.with_outcomes` view, which
    shares its design tables.
    """
    w = as_values(w)
    rng = np.random.default_rng(seed)
    on = design if isinstance(design, ObservationSet) else None
    if on is not None and on.model != spec:
        raise ValueError(f"cannot draw {spec} outcomes on an observation set of {on.model}")
    design = on.design if on is not None else np.asarray(design, dtype=np.intp)
    margins = _margins(w, design)
    if spec.kind == BTL:
        y = np.where(rng.uniform(size=margins.size) < expit(margins / spec.sigma), 1.0, -1.0)
    else:
        # The two linear kinds observe the noisy margin; Thurstone observes its sign.
        y = margins + spec.sigma * rng.standard_normal(margins.size)
        if spec.kind == THURSTONE:
            y = np.where(y >= 0, 1.0, -1.0)
    return on.with_outcomes(y) if on is not None else ObservationSet(spec, w.size, design, y)


def _check_kind(spec: ModelSpec, obs: ObservationSet) -> None:
    if spec.kind != obs.model.kind:
        raise ModelKindError(f"spec kind {spec.kind!r} does not match observations ({obs.model.kind!r})")


def _thurstone_ratio(y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """phi(z) / Phi(yz), evaluated in log space."""
    return np.exp(_log_norm_pdf(z) - log_ndtr(y * z))


def neg_log_likelihood(spec: ModelSpec, w, obs: ObservationSet) -> float:
    """Negative log-likelihood of ``w`` (squared error for the two linear kinds).

    Uses asymptotic-safe log-CDF evaluation, so it stays finite for
    standardized margins out to |z| ~ 40 and beyond.
    """
    _check_kind(spec, obs)
    groups = obs.groups
    y, count = groups.value, groups.count
    margins = _margins(as_values(w), groups.items)
    if spec.kind not in BINARY_KINDS:
        r = y - margins
        return float(count @ (r * r) + groups.spread)
    z = margins / spec.sigma
    if spec.kind == THURSTONE:
        return float(-(count @ log_ndtr(y * z)))
    # softplus(x) = log(1 + e^x), written so that neither branch overflows; several
    # times faster than np.logaddexp(0, x).
    x = -y * z
    return float(count @ (np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))))


def gradient(spec: ModelSpec, w, obs: ObservationSet) -> np.ndarray:
    """Gradient of :func:`neg_log_likelihood` with respect to ``w``."""
    _check_kind(spec, obs)
    w = as_values(w)
    groups = obs.groups
    y, count = groups.value, groups.count
    margins = _margins(w, groups.items)
    if spec.kind not in BINARY_KINDS:
        coef = -2.0 * count * (y - margins)
    else:
        z = margins / spec.sigma
        if spec.kind == THURSTONE:
            # d/dz of -log Phi(yz) = -y * phi(z) / Phi(yz).
            coef = -count * y * _thurstone_ratio(y, z) / spec.sigma
        else:
            coef = -count * y * expit(-y * z) / spec.sigma
    d = w.size
    if spec.kind == CARDINAL:
        return np.bincount(groups.items, weights=coef, minlength=d)
    left, right = groups.items[:, 0], groups.items[:, 1]
    return np.bincount(left, weights=coef, minlength=d) - np.bincount(right, weights=coef, minlength=d)


def curvature(spec: ModelSpec, w, obs: ObservationSet) -> np.ndarray:
    """Per-group Hessian weights of :func:`neg_log_likelihood` at ``w``, aligned with ``obs.groups``.

    The Hessian is a sum of one rank-one term per group: ``weight * a a'`` with
    ``a`` the group's differencing vector (``e_left - e_right``, or ``e_item``
    for cardinal), so a Hessian-vector product costs O(groups).
    """
    _check_kind(spec, obs)
    groups = obs.groups
    count = groups.count
    if spec.kind in (CARDINAL, PAIRED_LINEAR):
        return 2.0 * count
    z = _margins(as_values(w), groups.items) / spec.sigma
    if spec.kind == THURSTONE:
        ratio = _thurstone_ratio(groups.value, z)
        return count * np.maximum(ratio * (ratio + groups.value * z), 0.0) / spec.sigma**2
    # expit(-z) is 1 - expit(z) without the cancellation that 1 - p suffers for z > 0.
    return count * expit(z) * expit(-z) / spec.sigma**2


def hessian(spec: ModelSpec, w, obs: ObservationSet) -> np.ndarray:
    """Dense Hessian of :func:`neg_log_likelihood`: the :func:`curvature` weights scattered into a d x d matrix."""
    weights = curvature(spec, w, obs)
    d = obs.d
    items = obs.groups.items
    if spec.kind == CARDINAL:
        return np.diag(np.bincount(items, weights=weights, minlength=d))
    left, right = items[:, 0], items[:, 1]
    # Groups have left < right, so the scatter fills the strict upper triangle; a pair can
    # hold two groups (one per outcome), which bincount sums.
    upper = np.bincount(left * d + right, weights=weights, minlength=d * d).reshape(d, d)
    h = -(upper + upper.T)
    h[np.diag_indices(d)] = np.bincount(left, weights, minlength=d) + np.bincount(right, weights, minlength=d)
    return h


def strong_convexity_scalar(spec: ModelSpec, t: float) -> float:
    """Per-comparison curvature of the binary losses at standardized margin ``t``.

    Returns the second derivative (in the margin) of the single-observation
    loss whose likelihood at margin ``t`` is ``1 - Phi(t)`` (Thurstone) or
    ``1 / (1 + e^t)`` (BTL).  By the mirror symmetry between the two outcome
    branches, minimizing this expression over a symmetric margin interval
    gives the strong-convexity constant of either branch.
    """
    _require_kind(spec, BINARY_KINDS, "strong_convexity_scalar")
    t = float(t)
    if spec.kind == THURSTONE:
        hazard = float(np.exp(_log_norm_pdf(np.array(t)) - log_ndtr(-t)))
        return hazard * (hazard - t)
    return float(expit(t) * expit(-t))
