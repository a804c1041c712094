"""Minimax risk intervals and the rate-or-rank decision rule.

Each report gives a lower and upper bound on the minimax estimation risk of a
measurement scheme, all proportional to ``d * sigma^2 / n``.  The binary-model
constants degrade through ``kappa = Phi(2B/sigma) * (1 - Phi(2B/sigma))``,
which measures how much of the comparison probability range the box bound
leaves usable.  The decision rule compares a rating scheme against a
comparison scheme at equal budget, where the ``d`` and ``n`` factors cancel
and only the noise scales and the interval constants matter.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import ndtr

from .errors import ModelKindError
from .models import BTL, CARDINAL, PAIRED_LINEAR, THURSTONE, ObservationSet

#: Even-budget (one-rating-at-a-time vs round-robin comparisons) model names.
CVO_MODELS = (CARDINAL, "thurstone_even")

VERDICT_CARDINAL = "cardinal"
VERDICT_ORDINAL = "ordinal"
VERDICT_INDETERMINATE = "indeterminate"

NORM_PER_ITEM = "per_item_l2"
NORM_SEMINORM = "seminorm"

# Interval constants for the binary and paired-linear schemes.
_THURSTONE_LOWER = 0.0008
_THURSTONE_UPPER = 5.0
_PAIRED_LOWER = 0.00013
_PAIRED_UPPER = 0.68
_BTL_LOWER = 0.001
_BTL_UPPER = 1.37
# Sample-size thresholds under which the upper bounds are certified.
_THURSTONE_SAMPLE_C = 0.035
_BTL_SAMPLE_C = 0.04467
# The interval constants are calibrated for designs with more than this many items.
_MIN_REGIME_D = 9


@dataclass(frozen=True)
class BoundReport:
    """Minimax risk interval for one scheme at one budget."""

    model_kind: str
    d: int
    n: int
    sigma: float
    b_bound: float
    kappa: float
    lower: float
    upper: float
    norm: str
    sample_condition_met: bool
    in_regime: bool = True


@dataclass(frozen=True)
class Decision:
    """Outcome of the rating-vs-comparison comparison at equal budget."""

    verdict: str
    cardinal_risk: float
    ordinal_interval: tuple[float, float]


def kappa(b_bound: float, sigma: float) -> float:
    """Probability-range factor Phi(2B/sigma) * (1 - Phi(2B/sigma))."""
    if not (0 < b_bound < np.inf and 0 < sigma < np.inf):
        raise ValueError(f"kappa needs positive, finite b_bound and sigma, got B={b_bound}, sigma={sigma}")
    u = 2.0 * b_bound / sigma
    return float(ndtr(u) * ndtr(-u))


def _validate_common(d: int, n: int, sigma: float, b_bound: float) -> None:
    if d < 2:
        raise ValueError(f"need at least 2 items, got d={d}")
    if n < 1:
        raise ValueError(f"need a positive budget, got n={n}")
    if not 0 < sigma < np.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    if not 0 < b_bound < np.inf:
        raise ValueError(f"b_bound must be positive and finite, got {b_bound}")


def minimax_cvo(model: str, d: int, n: int, sigma: float, b_bound: float) -> BoundReport:
    """Per-item minimax risk interval in the even-budget setting.

    ``cardinal`` spreads ``n`` ratings evenly over items; ``thurstone_even``
    spreads ``n`` comparisons evenly over all pairs.  The cardinal risk is
    exact (lower equals upper); the binary interval carries the kappa factors.
    """
    if model not in CVO_MODELS:
        raise ModelKindError(f"minimax_cvo supports {CVO_MODELS}, got {model!r}")
    if model == "thurstone_even":
        # Even-budget comparisons form a complete graph: its standardized pseudoinverse trace is (d-1)^2 / 2.
        seminorm = minimax_seminorm(THURSTONE, d, n, sigma, b_bound, (d - 1) ** 2 / 2)
        return replace(seminorm, model_kind=model, norm=NORM_PER_ITEM)
    _validate_common(d, n, sigma, b_bound)
    rate = d * sigma**2 / n
    return BoundReport(
        model_kind=model, d=d, n=n, sigma=sigma, b_bound=b_bound, kappa=kappa(b_bound, sigma),
        lower=rate, upper=rate, norm=NORM_PER_ITEM,
        sample_condition_met=n >= d, in_regime=d > _MIN_REGIME_D,
    )


def _upper_over_kappa_sq(k: float, rate: float) -> float:
    """5/kappa^2 times the rate; infinite when kappa^2 underflows to zero."""
    k_sq = k**2
    if k_sq == 0.0:
        return float("inf")
    return _THURSTONE_UPPER / k_sq * rate


def _thurstone_interval(k: float, rate: float) -> tuple[float, float]:
    """The Thurstone risk interval ``[0.0008 kappa, 5 / kappa^2]`` times the rate."""
    return _THURSTONE_LOWER * k * rate, _upper_over_kappa_sq(k, rate)


def minimax_seminorm(
    model: str, d: int, n: int, sigma: float, b_bound: float, trace_pinv_std: float
) -> BoundReport:
    """Minimax risk interval in the design seminorm, for an arbitrary connected topology.

    ``trace_pinv_std`` is the trace of the pseudoinverse of the standardized
    design covariance; it enters only the sample-size certification for the
    binary models.
    """
    _validate_common(d, n, sigma, b_bound)
    if trace_pinv_std <= 0:
        raise ValueError(f"trace_pinv_std must be positive, got {trace_pinv_std}")
    rate = d * sigma**2 / n
    k = kappa(b_bound, sigma)
    if model == PAIRED_LINEAR:
        lower, upper = _PAIRED_LOWER * rate, _PAIRED_UPPER * rate
        condition = True
    elif model == THURSTONE:
        lower, upper = _thurstone_interval(k, rate)
        condition = n >= sigma**2 * k * trace_pinv_std / (_THURSTONE_SAMPLE_C * b_bound**2)
    elif model == BTL:
        ratio = b_bound / sigma
        swell = (np.exp(ratio) + np.exp(-ratio)) ** 4
        lower, upper = _BTL_LOWER * rate, _BTL_UPPER * swell * rate
        condition = n >= _BTL_SAMPLE_C * sigma**2 * trace_pinv_std / b_bound**2
    else:
        raise ModelKindError(f"minimax_seminorm supports pairwise models, got {model!r}")
    return BoundReport(
        model_kind=model, d=d, n=n, sigma=sigma, b_bound=b_bound, kappa=k,
        lower=float(lower), upper=float(upper), norm=NORM_SEMINORM,
        sample_condition_met=bool(condition), in_regime=d > _MIN_REGIME_D,
    )


def applicable_bound(obs: ObservationSet, b_bound: float) -> BoundReport | None:
    """The minimax interval of an observation set's own design; None when sigma <= 0 leaves it undefined.

    Ratings get the even-budget cardinal interval, comparisons the seminorm interval of their Laplacian.
    """
    spec = obs.model
    if spec.sigma <= 0:
        return None
    if spec.kind == CARDINAL:
        return minimax_cvo(CARDINAL, obs.d, obs.n, spec.sigma, b_bound)
    return minimax_seminorm(spec.kind, obs.d, obs.n, spec.sigma, b_bound, obs.laplacian.trace_pinv_std)


def _verdict(cardinal_risk: float, interval: tuple[float, float]) -> str:
    if interval[1] < cardinal_risk:
        return VERDICT_ORDINAL
    if cardinal_risk < interval[0]:
        return VERDICT_CARDINAL
    return VERDICT_INDETERMINATE


def decide(sigma_c: float, sigma_o: float, b_bound: float = 1.0) -> Decision:
    """Rate or rank?  Compare per-item risks at equal item count and budget.

    The shared ``d/n`` factor cancels, leaving the cardinal risk ``sigma_c^2``
    against the binary-comparison interval.  The verdict is ``ordinal`` only
    when the whole interval sits below the cardinal risk, ``cardinal`` only
    when the cardinal risk sits below the whole interval, and indeterminate
    otherwise.
    """
    if not (0 < sigma_c < np.inf and 0 < sigma_o < np.inf):
        raise ValueError(f"noise scales must be positive and finite, got sigma_c={sigma_c}, sigma_o={sigma_o}")
    cardinal_risk = sigma_c**2
    interval = _thurstone_interval(kappa(b_bound, sigma_o), sigma_o**2)
    return Decision(verdict=_verdict(cardinal_risk, interval), cardinal_risk=cardinal_risk, ordinal_interval=interval)


def decision_grid(
    sigma_c_range: tuple[float, float],
    sigma_o_range: tuple[float, float],
    b_bound: float = 1.0,
    resolution: int = 20,
) -> list[tuple[float, float, str]]:
    """Evaluate :func:`decide` over a log-spaced grid of noise scales."""
    if resolution < 1:
        raise ValueError(f"resolution must be >= 1, got {resolution}")
    for name, (lo, hi) in (("sigma_c", sigma_c_range), ("sigma_o", sigma_o_range)):
        if not 0 < lo <= hi < np.inf:
            raise ValueError(f"{name} range must satisfy 0 < lo <= hi < inf, got ({lo}, {hi})")
    cs = np.geomspace(sigma_c_range[0], sigma_c_range[1], resolution)
    os_ = np.geomspace(sigma_o_range[0], sigma_o_range[1], resolution)
    intervals = [_thurstone_interval(kappa(b_bound, so), so**2) for so in os_]
    return [(float(sc), float(so), _verdict(sc**2, interval)) for sc in cs for so, interval in zip(os_, intervals)]


def write_decision_grid(rows: list[tuple[float, float, str]], path) -> None:
    """Write grid rows as ``sigma_c,sigma_o,verdict`` CSV."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sigma_c", "sigma_o", "verdict"])
        for sc, so, verdict in rows:
            writer.writerow([repr(sc), repr(so), verdict])
