"""Monte Carlo risk estimation harness.

An experiment fixes a model, a comparison topology (or an even rating
schedule for the cardinal model), and a true quality vector; each trial
samples a fresh dataset, refits, and scores the fit against the truth under
four metrics.  Everything is seeded: trial ``t`` uses ``seed + t``, so runs
are bit-reproducible.  A sweep reruns the experiment across one parameter,
each declared once in ``SWEEPABLE`` with the config field it replaces and the
cast of its values, and yields flat tables ready for CSV.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from . import estimate, models
from .bounds import BoundReport, applicable_bound
from .graph import Laplacian, generate_topology
from .models import CARDINAL, ModelSpec, QualityVector, as_values

#: Metric names computed per trial.
METRIC_SEMINORM = "seminorm_sq"
METRIC_PER_ITEM = "per_item_l2_sq"
METRIC_KENDALL = "kendall_tau"
METRIC_SCALED = "scaled_l2_sq"

#: Each sweepable parameter: the config part and field a sweep value replaces, and the cast applied to it.
SWEEPABLE = {"n": ("topology", "n", int), "d": ("topology", "d", int),
             "sigma": ("model", "sigma", float), "topology.kind": ("topology", "kind", str)}

#: Each ``w_true`` generator rule: the fields it reads, with their defaults.
W_TRUE_RULES = {"uniform_box": {"b": 1.0}, "packing_vertex": {"delta": 1.0, "alpha": 0.15, "index": 0}}

_EPS = np.finfo(float).eps
_MAX_FAILURE_FRACTION = 0.05
_W_SEED_OFFSET = 10**6
_SWEEP_SEED_STRIDE = 10**7


@dataclass(frozen=True)
class TopologySpec:
    """Which comparison topology to measure under."""

    kind: str
    d: int
    n: int
    k: int | None = None


@dataclass(frozen=True)
class ExperimentConfig:
    """One Monte Carlo experiment: model + topology + truth + budget; every trial is fit in the model's box, else 1."""

    model: ModelSpec
    topology: TopologySpec
    w_true: QualityVector | dict
    trials: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")
        if isinstance(self.w_true, dict):
            _rule_fields(self.w_true)


@dataclass(frozen=True)
class RiskEstimate:
    """Mean and standard error of one metric over the successful trials.

    ``bound`` is the measured design's minimax interval on the headline metric, else None.
    """

    metric: str
    mean: float
    stderr: float
    trials: int
    bound: BoundReport | None = field(default=None, repr=False)


def seminorm_sq(w_hat, w_true, laplacian: Laplacian) -> float:
    """Squared error in the standardized design seminorm, (w^ - w*)' (M/n) (w^ - w*)."""
    diff = as_values(w_hat) - as_values(w_true)
    return float(diff @ laplacian.m @ diff) / laplacian.n


def per_item_l2_sq(w_hat, w_true) -> float:
    """Plain squared error averaged over items."""
    diff = as_values(w_hat) - as_values(w_true)
    return float(diff @ diff) / diff.size


def scaled_l2_sq(w_hat, w_true) -> float:
    """Squared error per item after affinely mapping both vectors onto [-1, 1]; a constant vector maps to zero."""
    return per_item_l2_sq(_rescale(as_values(w_hat)), _rescale(as_values(w_true)))


def _rescale(v: np.ndarray) -> np.ndarray:
    lo, hi = float(v.min()), float(v.max())
    if hi <= lo:  # a tied vector: every item at the interval's midpoint
        return np.zeros_like(v)
    return 2.0 * (v - lo) / (hi - lo) - 1.0


def _pair_signs(v: np.ndarray) -> np.ndarray:
    """sign(v_i - v_j) for every ordered pair, 0 where the two differ by at most d * eps * max|v|."""
    diff = v[:, None] - v[None, :]
    return np.sign(diff) * (np.abs(diff) > v.size * _EPS * np.abs(v).max())


def kendall_tau(w_hat, w_true) -> float:
    """Kendall tau-a: (concordant - discordant) pairs over all pairs; ties count zero.

    A pair is tied in a vector v when its two values differ by at most
    d * eps * max|v|, the rounding scale ``estimate.project_feasible`` names:
    estimates equal in exact arithmetic can come out a few ulps apart.
    """
    a, b = as_values(w_hat), as_values(w_true)
    # The sign-product matrix is symmetric with a zero diagonal: its sum counts every pair twice.
    return float(np.sum(_pair_signs(a) * _pair_signs(b))) / (a.size * (a.size - 1))


def cardinal_design(d: int, n: int) -> np.ndarray:
    """Round-robin rating schedule: item ``i`` is rated on rows i, i+d, i+2d, ..."""
    if n < d:
        raise ValueError(f"need n >= d ratings to cover every item, got n={n}, d={d}")
    return np.arange(n, dtype=np.intp) % d


def _rule_fields(w_true: dict) -> tuple[str, dict]:
    """A generator rule object's rule, and every field that rule reads with its ``W_TRUE_RULES`` default filled in.

    ``ValueError`` names an unknown rule, or a field the rule does not read.
    """
    rule = w_true.get("rule")
    if not isinstance(rule, str) or rule not in W_TRUE_RULES:
        raise ValueError(f"unknown w_true rule {rule!r}")
    fields = W_TRUE_RULES[rule]
    unread = sorted(w_true.keys() - fields.keys() - {"rule"})
    if unread:
        raise ValueError(f"w_true.{unread[0]}: the {rule} rule reads only {', '.join(fields)}")
    return rule, {**fields, **w_true}


def resolve_w_true(config: ExperimentConfig, laplacian: Laplacian | None) -> QualityVector:
    """Materialize the configured truth, drawing generator rules from the master seed."""
    w = config.w_true
    if isinstance(w, QualityVector):
        return w
    if not isinstance(w, dict):
        return QualityVector(np.asarray(w, dtype=float))
    rule, fields = _rule_fields(w)
    if rule == "uniform_box":
        b = float(fields["b"])
        if b <= 0:
            raise ValueError(f"w_true.b must be positive, got {b}")
        rng = np.random.default_rng(config.seed + _W_SEED_OFFSET)
        v = rng.uniform(-b, b, config.topology.d)
        v -= v.mean()
        v *= b / np.max(np.abs(v))
        return QualityVector(v)
    if laplacian is None:
        raise ValueError("packing_vertex truth needs a pairwise topology")
    from .packing import build_packing  # local import: only this rule needs it

    pack = build_packing(laplacian, float(fields["delta"]), float(fields["alpha"]))
    index = int(fields["index"])
    if not 0 <= index < pack.count:
        raise IndexError(f"packing_vertex index {index} out of range ({pack.count} vectors)")
    return pack.vectors[index]


def run_experiment(config: ExperimentConfig) -> dict[str, RiskEstimate]:
    """Estimate risk under every metric; abort loudly if fits fail too often.

    Returns a map from metric name to its estimate.  The seminorm metric is
    only defined for pairwise designs and is omitted for cardinal runs.  Trials
    whose fit does not converge are dropped; more than 5% of them aborts the
    experiment with diagnostics rather than reporting a biased average.
    """
    topo = config.topology
    is_cardinal = config.model.kind == CARDINAL
    if is_cardinal:
        design = cardinal_design(topo.d, topo.n)
    else:
        design = generate_topology(topo.kind, topo.d, topo.n, seed=config.seed, k=topo.k).to_design()
    ones = np.ones(len(design))
    design.setflags(write=False)  # read-only arrays are shared by the set, not copied
    ones.setflags(write=False)
    # Owns the design's tables (pair index, Laplacian): built once here, shared by every trial.
    on_design = models.ObservationSet(config.model, topo.d, design, ones)
    laplacian = None if is_cardinal else on_design.laplacian
    w_true = resolve_w_true(config, laplacian)
    if w_true.d != topo.d:
        raise ValueError(f"w_true has {w_true.d} items but topology has {topo.d}")

    values: dict[str, list[float]] = {METRIC_PER_ITEM: [], METRIC_KENDALL: [], METRIC_SCALED: []}
    if not is_cardinal:
        values[METRIC_SEMINORM] = []
    # A linear model may leave its box unset: it is fit in a box of 1, and its interval does not read B.
    fit = estimate.FitConfig(b_bound=1.0 if config.model.b_bound is None else config.model.b_bound)
    failures: list[str] = []
    for trial in range(config.trials):
        obs = models.sample(config.model, w_true, on_design, seed=config.seed + trial)
        result = estimate.mle_fit(obs, fit)
        if not result.converged:
            failures.append(f"trial {trial}: stopped on {result.stop_reason} after {result.iterations} iterations")
            continue
        w_hat = result.w_hat
        values[METRIC_PER_ITEM].append(per_item_l2_sq(w_hat, w_true))
        values[METRIC_KENDALL].append(kendall_tau(w_hat, w_true))
        values[METRIC_SCALED].append(scaled_l2_sq(w_hat, w_true))
        if not is_cardinal:
            values[METRIC_SEMINORM].append(seminorm_sq(w_hat, w_true, laplacian))

    if len(failures) > _MAX_FAILURE_FRACTION * config.trials:
        raise RuntimeError(
            f"{len(failures)}/{config.trials} trials failed to converge "
            f"({config.model.kind} on {topo.kind}, d={topo.d}, n={topo.n}): {'; '.join(failures[:5])}"
        )

    out = {}
    for metric, vals in values.items():
        arr = np.asarray(vals)
        stderr = float(arr.std(ddof=1) / np.sqrt(arr.size)) if arr.size > 1 else 0.0
        out[metric] = RiskEstimate(metric=metric, mean=float(arr.mean()), stderr=stderr, trials=arr.size)
    headline = METRIC_PER_ITEM if is_cardinal else METRIC_SEMINORM
    out[headline] = replace(out[headline], bound=applicable_bound(on_design, fit.b_bound))
    return out


@dataclass(frozen=True, kw_only=True)
class SweepRow(RiskEstimate):
    """One (parameter value, metric) cell of a sweep table: the point's estimate and where it was measured."""

    param: str
    value: object
    failures: int


def _sweep_point(config: ExperimentConfig, param: str, value, index: int) -> ExperimentConfig:
    """Sweep point ``index``: ``value`` cast into its ``SWEEPABLE`` field, reseeded at ``seed + 10**7 * index``."""
    if param not in SWEEPABLE:
        raise ValueError(f"cannot sweep {param!r}; choose one of {tuple(SWEEPABLE)}")
    part, name, cast = SWEEPABLE[param]
    return replace(config, seed=config.seed + _SWEEP_SEED_STRIDE * index,
                   **{part: replace(getattr(config, part), **{name: cast(value)})})


def sweep(config: ExperimentConfig, param: str, values: Sequence) -> list[SweepRow]:
    """Rerun the experiment across parameter values; one row per (value, metric)."""
    rows: list[SweepRow] = []
    for index, value in enumerate(values):
        point = _sweep_point(config, param, value, index)
        estimates = run_experiment(point)
        for metric in sorted(estimates):
            est = estimates[metric]
            rows.append(SweepRow(**vars(est), param=param, value=value, failures=point.trials - est.trials))
    return rows


def write_sweep_csv(rows: list[SweepRow], path) -> None:
    """Write sweep rows as CSV with a fixed header."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["param", "value", "metric", "mean", "stderr", "trials", "failures"])
        for row in rows:
            writer.writerow([row.param, row.value, row.metric, repr(row.mean), repr(row.stderr), row.trials, row.failures])
