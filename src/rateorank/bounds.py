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

from dataclasses import dataclass, replace

import numpy as np

from .errors import ModelKindError
from .models import _LINKS, BTL, CARDINAL, PAIRED_LINEAR, THURSTONE, ObservationSet

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
    """Probability-range factor Phi(2B/sigma) * (1 - Phi(2B/sigma)), with Phi the Thurstone link's CDF."""
    if not (0 < b_bound < np.inf and 0 < sigma < np.inf):
        raise ValueError(f"kappa needs positive, finite b_bound and sigma, got B={b_bound}, sigma={sigma}")
    u = 2.0 * b_bound / sigma
    cdf = _LINKS[THURSTONE].cdf
    return float(cdf(u) * cdf(-u))


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
    rate = d * (sigma * sigma) / n
    return BoundReport(
        model_kind=model, d=d, n=n, sigma=sigma, b_bound=b_bound, kappa=kappa(b_bound, sigma),
        lower=rate, upper=rate, norm=NORM_PER_ITEM,
        sample_condition_met=n >= d, in_regime=d > _MIN_REGIME_D,
    )


def _thurstone_interval(k: float, rate: float) -> tuple[float, float]:
    """The Thurstone risk interval ``[0.0008 kappa, 5 / kappa^2]`` times the rate; the upper end is infinite when
    kappa^2 underflows to zero."""
    k_sq = k * k
    return _THURSTONE_LOWER * k * rate, _THURSTONE_UPPER / k_sq * rate if k_sq > 0.0 else float("inf")


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
    rate = d * (sigma * sigma) / n
    k = kappa(b_bound, sigma)
    if model == PAIRED_LINEAR:
        lower, upper = _PAIRED_LOWER * rate, _PAIRED_UPPER * rate
        condition = True
    elif model == THURSTONE:
        lower, upper = _thurstone_interval(k, rate)
        condition = n >= sigma * sigma * k * trace_pinv_std / (_THURSTONE_SAMPLE_C * (b_bound * b_bound))
    elif model == BTL:
        ratio = b_bound / sigma
        with np.errstate(over="ignore"):  # a swell past the float range makes the upper end inf
            swell = (np.exp(ratio) + np.exp(-ratio)) ** 4
        lower, upper = _BTL_LOWER * rate, _BTL_UPPER * swell * rate
        condition = n >= _BTL_SAMPLE_C * (sigma * sigma) * trace_pinv_std / (b_bound * b_bound)
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
    cardinal_risk = sigma_c * sigma_c
    interval = _thurstone_interval(kappa(b_bound, sigma_o), sigma_o * sigma_o)
    return Decision(verdict=_verdict(cardinal_risk, interval), cardinal_risk=cardinal_risk, ordinal_interval=interval)


def decision_grid(
    sigma_c_range: tuple[float, float],
    sigma_o_range: tuple[float, float],
    b_bound: float = 1.0,
    resolution: int = 20,
) -> list[tuple[float, float, str]]:
    """Evaluate :func:`decide` over a log-spaced grid of noise scales.

    Each sigma_o column's interval comes from :func:`kappa`, the call :func:`decide` makes, so every
    grid verdict equals ``decide``'s.
    """
    if resolution < 1:
        raise ValueError(f"resolution must be >= 1, got {resolution}")
    for name, (lo, hi) in (("sigma_c", sigma_c_range), ("sigma_o", sigma_o_range)):
        if not 0 < lo <= hi < np.inf:
            raise ValueError(f"{name} range must satisfy 0 < lo <= hi < inf, got ({lo}, {hi})")
    if not 0 < b_bound < np.inf:
        raise ValueError(f"b_bound must be positive and finite, got {b_bound}")
    # Python floats, as in decide: past the float range their arithmetic gives inf where numpy's warns.
    cs = np.geomspace(sigma_c_range[0], sigma_c_range[1], resolution).tolist()
    os_ = np.geomspace(sigma_o_range[0], sigma_o_range[1], resolution).tolist()
    intervals = [_thurstone_interval(kappa(b_bound, so), so * so) for so in os_]
    return [(sc, so, _verdict(sc * sc, interval)) for sc in cs for so, interval in zip(os_, intervals)]


def write_decision_grid(rows: list[tuple[float, float, str]], path) -> None:
    """Write grid rows as ``sigma_c,sigma_o,verdict`` CSV.

    The bytes are ``csv.writer``'s: CRLF line ends, and no field needs quoting
    (float reprs and the three verdict words hold no comma, quote or newline).
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("sigma_c,sigma_o,verdict\r\n")
        fh.write("".join(f"{sc!r},{so!r},{verdict}\r\n" for sc, so, verdict in rows))
