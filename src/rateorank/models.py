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
The two binary links are stated once, in ``_LINKS``, in numpy alone: each CDF, which
sampling and ``bounds.kappa`` read, and one pass that gives each
loss with its two derivatives in the outcome-signed standardized margin, which the
NLL, gradient, curvature and curvature scalar read.  The NLL keeps the pass's
per-group terms in the observation set's outcome tables, so the gradient and
curvature at the same point read them back.  The probit terms come from one scaled
complementary error function ``_erfcx``, the logit terms from one ``exp(-|s|)``.
``_scatter`` (the margin gather's transpose) makes gradients and Hessian products;
the Hessian itself is never formed.
"""

from __future__ import annotations

import copy
from collections import namedtuple
from dataclasses import dataclass, field, replace

import numpy as np

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

_CENTER_TOL = 1e-9


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
            if np.max(np.abs(values)) > self.b_bound * (1 + 1e-9):
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
    """Which observation model, its noise scale, and the box bound: required for binary kinds, optional (None) for
    the linear ones, and positive and finite wherever it is given."""

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
        elif self.b_bound is not None and not 0 < self.b_bound < np.inf:
            raise ValueError(f"box bound must be positive and finite, got {self.b_bound}")


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
    design tables; a :meth:`subset` shares nothing.  A view checks only
    what it changes (the new outcomes, or the new sigma through
    :class:`ModelSpec`), since its design was checked and made read-only
    when this set was built.

    The set holds its arrays read-only.  A read-only ``design`` or
    ``outcomes`` array is shared; a writeable one the caller passed is
    copied, so the caller's array stays writeable and later writes to it do
    not reach the set.
    """

    model: ModelSpec
    d: int
    design: np.ndarray
    outcomes: np.ndarray
    _design_tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _outcome_tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        design = np.asarray(self.design)
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
        design = graph.integer_array(design, "design row", np.intp)
        if design.size == 0:
            raise ValueError("observation set is empty")
        if design.min() < 0 or design.max() >= self.d:
            raise IndexError(f"design indexes items outside range(0, {self.d})")
        object.__setattr__(self, "design", _owned(design, self.design))
        object.__setattr__(self, "outcomes", _checked_outcomes(self.model, design.shape[0], self.outcomes))

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
        design, outcomes = self.design[indices], self.outcomes[indices]
        design.setflags(write=False)
        outcomes.setflags(write=False)
        return ObservationSet(self.model, self.d, design, outcomes)

    def _view(self, **fields) -> "ObservationSet":
        """A shallow copy with ``fields`` replaced, unchecked: it shares the checked, read-only design and its tables."""
        view = copy.copy(self)
        for name, value in fields.items():
            object.__setattr__(view, name, value)
        return view

    def with_sigma(self, sigma: float) -> "ObservationSet":
        """Same data viewed under a different noise scale, sharing its design and outcome tables."""
        return self._view(model=replace(self.model, sigma=sigma))

    def with_outcomes(self, outcomes: np.ndarray) -> "ObservationSet":
        """New outcomes on the same design, sharing its design tables but none of its outcome tables."""
        return self._view(outcomes=_checked_outcomes(self.model, self.n, outcomes), _outcome_tables={})


def _checked_outcomes(spec: ModelSpec, rows: int, given) -> np.ndarray:
    """``given`` as a read-only float array, one finite value per design row, each +-1 for the binary kinds."""
    outcomes = np.asarray(given, dtype=float)
    if outcomes.shape != (rows,):
        raise ValueError(f"expected {rows} outcomes, got {outcomes.shape}")
    if not np.all(np.isfinite(outcomes)):
        raise ValueError("outcomes contain non-finite values")
    if spec.kind in BINARY_KINDS and not np.all(np.abs(outcomes) == 1.0):
        raise ValueError("binary model outcomes must all be +1 or -1")
    return _owned(outcomes, given)


def _owned(array: np.ndarray, given) -> np.ndarray:
    """``array``, converted from ``given``, made read-only: copied first if it is writeable memory of ``given``."""
    if array.flags.writeable and np.may_share_memory(array, given):
        array = array.copy()
    array.setflags(write=False)
    return array


def _margins(w: np.ndarray, design: np.ndarray) -> np.ndarray:
    """Inner products with each row's differencing vector: w_left - w_right, or w_item for a 1-d design."""
    if design.ndim == 1:
        return w[design]
    return w[design[:, 0]] - w[design[:, 1]]


def _scatter(items: np.ndarray, coef: np.ndarray, d: int) -> np.ndarray:
    """A' c for the rows of :func:`_margins`: each coefficient added at its item, or at left and taken off at right."""
    if items.ndim == 1:
        return np.bincount(items, coef, d)
    return np.bincount(items[:, 0], coef, d) - np.bincount(items[:, 1], coef, d)


def _require_kind(spec: ModelSpec, allowed: tuple[str, ...], op: str) -> None:
    if spec.kind not in allowed:
        raise ModelKindError(f"{op} is not defined for the {spec.kind!r} model")


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
        y = np.where(rng.uniform(size=margins.size) < _LINKS[BTL].cdf(margins / spec.sigma), 1.0, -1.0)
    else:
        # The two linear kinds observe the noisy margin; Thurstone observes its sign.
        y = margins + spec.sigma * rng.standard_normal(margins.size)
        if spec.kind == THURSTONE:
            y = np.where(y >= 0, 1.0, -1.0)
    y.setflags(write=False)
    return on.with_outcomes(y) if on is not None else ObservationSet(spec, w.size, design, y)


def _check_kind(spec: ModelSpec, obs: ObservationSet) -> None:
    if spec.kind != obs.model.kind:
        raise ModelKindError(f"spec kind {spec.kind!r} does not match observations ({obs.model.kind!r})")


#: Shepherd & Laframboise (*Math. Comp.* 36, 1981): (1 + 2x) erfcx(x), with erfcx(x) = exp(x^2) erfc(x), is smooth on
#: x >= 0 as a function of t = (x - K) / (x + K), which maps [0, inf) onto [-1, 1).  Row k holds the coefficients of
#: t^(7k) ... t^(7k + 6) of one degree-27 polynomial in t, written by ``tests/erfcx_table.py``; it matches a 60-digit
#: reference to 7.3e-16 relative on [0, 1e6].
_ERFCX_K = 3.75
_ERFCX = np.array([
    [1.2375126308378275, -0.14024059858554702, 0.0035854154854636916, 0.0822767384901511, -0.10880393014170754,
     0.0923043211601956, -0.05869339859054579],
    [0.02836227742156145, -0.009746579547640485, 0.0017556258319879623, 0.00029371359494706955,
     -0.0002901539767306064, 5.1649407160546035e-05, 2.2383902048770415e-05],
    [-1.1445047333414064e-05, -9.728229167464399e-07, 1.7534398492983306e-06, -5.8312272417948304e-08,
     -2.6114212677969865e-07, 2.4353458155057507e-08, 4.096669651366812e-08],
    [-4.445141232036381e-09, -6.542861076135356e-09, 5.775327163299183e-10, 9.012777578541672e-10,
     -4.814480501340427e-11, -7.325109195161962e-11, 1.5733568005313551e-12],
])
_SQRT_HALF = np.sqrt(0.5)
_SQRT_2_OVER_PI = np.sqrt(2.0 / np.pi)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)
#: A link's loss -log P(y | z) with its slope and curvature in s, the outcome-signed standardized margin, per group.
_Terms = namedtuple("_Terms", "loss slope curvature")


def _erfcx(x: np.ndarray) -> np.ndarray:
    """exp(x^2) erfc(x) for x >= 0 (a scalar or a 1-d array), in a fixed number of numpy calls whatever its size.

    The powers t^0 ... t^6 fill a (7, ...) block in three products, one matrix product gives the four row
    polynomials of ``_ERFCX``, and three Horner steps in t^7 join them.  The matrix product runs through BLAS,
    whose kernel for a single point can round the last bit differently from its kernel for a batch.
    """
    t = (x - _ERFCX_K) / (x + _ERFCX_K)
    powers = np.empty((7, *np.shape(t)))
    powers[0], powers[1] = 1.0, t
    # Slices, not rows, so that a scalar x still writes into the block.
    np.multiply(powers[1:2], t, out=powers[2:3])  # t^2
    np.multiply(powers[1:3], powers[2:3], out=powers[3:5])  # t^3, t^4
    np.multiply(powers[2:4], powers[3:4], out=powers[5:7])  # t^5, t^6
    t7 = powers[3] * powers[4]
    rows = _ERFCX @ powers
    return (((rows[3] * t7 + rows[2]) * t7 + rows[1]) * t7 + rows[0]) / (1.0 + 2.0 * x)


def _probit_cdf(z: np.ndarray) -> np.ndarray:
    """Phi(z): the lower tail Phi(-|z|) = erfcx(|z| / sqrt 2) exp(-z^2 / 2) / 2, or one minus it.

    |z| is capped at 40, past which the tail underflows to 0 anyway, so that z^2 cannot overflow.
    """
    a = np.minimum(np.abs(z), 40.0)
    tail = 0.5 * _erfcx(a * _SQRT_HALF) * np.exp(-0.5 * a * a)
    return np.where(z < 0.0, tail, 1.0 - tail)


def _probit_terms(s: np.ndarray) -> _Terms:
    """-log Phi(s), its slope -phi(s)/Phi(s) and its curvature, from one erfcx at |s| / sqrt 2.

    Below zero the loss is s^2/2 - log(erfcx/2) and the Mills ratio phi/Phi is sqrt(2/pi) / erfcx, with no
    exponential to underflow; above zero Phi = 1 - tail is near one and the loss is -log1p(-tail).
    """
    half_sq = 0.5 * s * s
    r = _erfcx(np.abs(s) * _SQRT_HALF)
    gauss = np.exp(-half_sq)
    tail = 0.5 * r * gauss
    below = s < 0.0
    loss = np.where(below, half_sq - np.log(0.5 * r), -np.log1p(-tail))
    mills = np.where(below, _SQRT_2_OVER_PI / r, _INV_SQRT_2PI * gauss / (1.0 - tail))
    return _Terms(loss, -mills, np.maximum(mills * (mills + s), 0.0))


def _logit_cdf(z: np.ndarray) -> np.ndarray:
    """expit(z) from e = exp(-|z|): 1 / (1 + e) at and above zero, e / (1 + e) below."""
    e = np.exp(-np.abs(z))
    p = 1.0 / (1.0 + e)
    return np.where(z < 0.0, e * p, p)


def _logit_terms(s: np.ndarray) -> _Terms:
    """softplus(-s), its slope -expit(-s) and its curvature expit(s) expit(-s), from one e = exp(-|s|).

    With p = expit(|s|) and q = expit(-|s|) = e p, nothing overflows and nothing cancels.
    """
    e = np.exp(-np.abs(s))
    p = 1.0 / (1.0 + e)
    q = e * p
    return _Terms(np.maximum(-s, 0.0) + np.log1p(e), -np.where(s < 0.0, p, q), p * q)


#: Each binary link's CDF P(y = +1 | z), and its :data:`_Terms` at s = y * z from one pass.  Every term stays finite
#: for |s| out to 1e4 and beyond.
_Link = namedtuple("_Link", "cdf terms")
_LINKS = {THURSTONE: _Link(_probit_cdf, _probit_terms), BTL: _Link(_logit_cdf, _logit_terms)}


def _terms(spec: ModelSpec, w: np.ndarray, obs: ObservationSet) -> _Terms:
    """The link's terms at each group of ``obs``, kept in its outcome tables under (kind, sigma, w).

    The table holds one entry, the last point evaluated, so a gradient or curvature at the point the NLL has
    just evaluated reads the terms back instead of gathering the margins and running the link again.
    """
    key = (spec.kind, spec.sigma, w.tobytes())
    kept = obs._outcome_tables.get("terms")
    if kept is not None and kept[0] == key:
        return kept[1]
    groups = obs.groups
    terms = _LINKS[spec.kind].terms(groups.value * _margins(w, groups.items) / spec.sigma)
    obs._outcome_tables["terms"] = (key, terms)
    return terms


def neg_log_likelihood(spec: ModelSpec, w, obs: ObservationSet) -> float:
    """Negative log-likelihood of ``w`` (squared error for the two linear kinds)."""
    _check_kind(spec, obs)
    w = as_values(w)
    groups = obs.groups
    if spec.kind in BINARY_KINDS:
        return float(groups.count @ _terms(spec, w, obs).loss)
    r = groups.value - _margins(w, groups.items)
    return float(groups.count @ (r * r) + groups.spread)


def gradient(spec: ModelSpec, w, obs: ObservationSet) -> np.ndarray:
    """Gradient of :func:`neg_log_likelihood` with respect to ``w``."""
    _check_kind(spec, obs)
    w = as_values(w)
    groups = obs.groups
    if spec.kind in BINARY_KINDS:
        # The margin derivative of loss(y * margin / sigma) is the link's slope times y / sigma.
        coef = groups.count * groups.value * _terms(spec, w, obs).slope / spec.sigma
    else:
        coef = -2.0 * groups.count * (groups.value - _margins(w, groups.items))
    return _scatter(groups.items, coef, w.size)


def curvature(spec: ModelSpec, w, obs: ObservationSet) -> np.ndarray:
    """Per-group Hessian weights of :func:`neg_log_likelihood` at ``w``, aligned with ``obs.groups``.

    The Hessian is a sum of one rank-one term per group: ``weight * a a'`` with
    ``a`` the group's differencing vector (``e_left - e_right``, or ``e_item``
    for cardinal), so a Hessian-vector product costs O(groups).
    """
    _check_kind(spec, obs)
    groups = obs.groups
    if spec.kind not in BINARY_KINDS:
        return 2.0 * groups.count
    return groups.count * _terms(spec, as_values(w), obs).curvature / spec.sigma**2


def strong_convexity_scalar(spec: ModelSpec, t: float) -> float:
    """Per-comparison curvature of the binary losses at standardized margin ``t``: the link's curvature at s = -t.

    That is the loss of a -1 outcome, whose likelihood is ``1 - Phi(t)`` (Thurstone) or ``1 / (1 + e^t)`` (BTL).
    By the mirror symmetry between the two outcomes, its minimum over a symmetric margin interval is the
    strong-convexity constant of either.
    """
    _require_kind(spec, BINARY_KINDS, "strong_convexity_scalar")
    return float(_LINKS[spec.kind].terms(-float(t)).curvature)
