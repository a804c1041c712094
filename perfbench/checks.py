"""Output checks that do not use the package.

Each check reads one invocation's output files and the benchmark's own copy of
its inputs, recomputes what the output must satisfy with numpy and scipy, and
returns a list of problems (empty when the output is correct).  Published
constants that a check needs (bound constants, the expander and packing
acceptance rules) are restated here rather than imported.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np
from scipy.special import expit, log_ndtr, ndtr
from scipy.stats import chi2

# Pair-separation and centring tolerances of a verified packing.
_PAIR_TOL = 1e-8
_MEAN_ZERO_TOL = 1e-10
# Items that the fit document lists must match the generator's centred means this closely.
_MEANS_TOL = 1e-9
# Printed spectral values carry six significant digits.
_PRINT_RTOL = 1e-5
# Minimax interval constants (seminorm, per unit of d * sigma^2 / n).
_THURSTONE_LOWER, _THURSTONE_UPPER = 0.0008, 5.0
_BTL_LOWER, _BTL_UPPER = 0.001, 1.37
_MC_STDERRS = 4.0
# Two-sided false-alarm probability of the paired-linear risk check.
_PAIRED_ALPHA = 1e-6


def project_box_mean_zero(v: np.ndarray, b: float) -> np.ndarray:
    """Exact Euclidean projection onto {sum(x) = 0, |x_j| <= b}.

    The projection is clip(v - mu, -b, b) for the shift mu that zeroes the sum.
    Bisection brackets mu; the free/clipped split at that point then gives mu
    in closed form, so the result is exact up to rounding.
    """
    v = np.asarray(v, dtype=float)
    lo, hi = float(v.min()) - b, float(v.max()) + b
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.clip(v - mid, -b, b).sum() > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * max(1.0, abs(mid)):
            break
    mu = 0.5 * (lo + hi)
    upper, lower = v - mu >= b, v - mu <= -b
    free = ~(upper | lower)
    if np.any(free):
        mu = (v[free].sum() + b * (np.count_nonzero(upper) - np.count_nonzero(lower))) / np.count_nonzero(free)
    return np.clip(v - mu, -b, b)


def pair_counts(design: np.ndarray, y: np.ndarray, d: int):
    """Aggregate +-1 rows into (left, right, wins, losses) per ordered pair."""
    keys = design[:, 0].astype(np.int64) * d + design[:, 1]
    uniq, inverse = np.unique(keys, return_inverse=True)
    wins = np.bincount(inverse, weights=(y > 0).astype(float), minlength=uniq.size)
    losses = np.bincount(inverse, weights=(y < 0).astype(float), minlength=uniq.size)
    return uniq // d, uniq % d, wins, losses


def binary_gradient(model: str, w: np.ndarray, sigma: float, counts) -> np.ndarray:
    """Gradient of the binary negative log-likelihood from per-pair win counts."""
    left, right, wins, losses = counts
    z = (w[left] - w[right]) / sigma
    if model == "btl":
        coef = (losses * expit(z) - wins * expit(-z)) / sigma
    elif model == "thurstone":
        log_pdf = -0.5 * z * z - 0.5 * math.log(2.0 * math.pi)
        coef = (losses * np.exp(log_pdf - log_ndtr(-z)) - wins * np.exp(log_pdf - log_ndtr(z))) / sigma
    else:
        raise ValueError(f"no binary gradient for {model!r}")
    d = w.size
    return np.bincount(left, weights=coef, minlength=d) - np.bincount(right, weights=coef, minlength=d)


def kkt_residual(model: str, w: np.ndarray, sigma: float, b: float, design, y) -> float:
    """Fixed-point residual ||w - P(w - grad f(w))|| of a constrained binary fit."""
    grad = binary_gradient(model, w, sigma, pair_counts(design, y, w.size))
    return float(np.linalg.norm(w - project_box_mean_zero(w - grad, b)))


def _load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _scores(doc: dict, labels) -> np.ndarray:
    by_id = {item["id"]: item["w_hat"] for item in doc["items"]}
    return np.array([by_id[str(label)] for label in labels])


def _check_kkt(spec: dict, doc: dict | None = None) -> list[str]:
    doc = doc if doc is not None else _load(spec["doc"])
    data = np.load(spec["data"])
    design, y = data["design"], data["y"]
    w = _scores(doc, data["labels"])
    residual = kkt_residual(spec["model"], w, doc["sigma_used"], doc["b_bound"], design, y)
    tol = 1e-8 * y.size
    if not residual <= tol:
        return [f"{spec['doc']}: KKT residual {residual:.3g} above {tol:.3g}"]
    return []


def check_cv(spec: dict) -> list[str]:
    doc = _load(spec["doc"])
    table = doc["metrics"]["cv_table"]
    problems = []
    if [row["sigma"] for row in table] != spec["grid"]:
        problems.append(f"{spec['doc']}: CV table covers {[row['sigma'] for row in table]}, not {spec['grid']}")
    best = max(table, key=lambda row: row["heldout_loglik"])  # first maximum: ties go to the smaller sigma
    if doc["sigma_used"] != best["sigma"]:
        problems.append(f"{spec['doc']}: fit used sigma={doc['sigma_used']} but the CV table peaks at {best['sigma']}")
    return problems + _check_kkt(spec, doc)


def check_cardinal(spec: dict) -> list[str]:
    doc = _load(spec["doc"])
    data = np.load(spec["data"])
    d = data["labels"].size
    counts = np.bincount(data["items"], minlength=d)
    means = np.bincount(data["items"], weights=data["ratings"], minlength=d) / counts
    error = float(np.max(np.abs(_scores(doc, data["labels"]) - (means - means.mean()))))
    if not error <= _MEANS_TOL:
        return [f"{spec['doc']}: scores differ from centred item means by {error:.3g}"]
    return []


def _complete_edges(d: int) -> np.ndarray:
    return np.array([(a, b) for a in range(d) for b in range(a + 1, d)])


def check_pack(spec: dict) -> list[str]:
    doc = _load(spec["doc"])
    d, delta, alpha = spec["d"], spec["delta"], spec["alpha"]
    x = np.asarray(doc["vectors"], dtype=float)
    edges = _complete_edges(d)
    diffs = x[:, edges[:, 0]] - x[:, edges[:, 1]]  # one row of edge differences per vector
    gram = diffs @ diffs.T
    sq = np.diag(gram)
    sep = sq[:, None] + sq[None, :] - 2.0 * gram
    upper = sep[np.triu_indices(x.shape[0], k=1)]
    beta = (math.log(2.0) + alpha * math.log(alpha) - alpha) / 2.0
    target = math.ceil(math.exp(beta * d))
    problems = []
    if x.shape != (x.shape[0], d) or x.shape[0] < target:
        problems.append(f"packing has shape {x.shape}; needs at least {target} vectors of length {d}")
    if upper.size and (upper.min() < alpha * delta**2 - _PAIR_TOL or upper.max() > 4.0 * delta**2 + _PAIR_TOL):
        problems.append(f"packing separations span [{upper.min():.6g}, {upper.max():.6g}], "
                        f"outside [{alpha * delta**2:.6g}, {4 * delta**2:.6g}]")
    if x.size and float(np.max(np.abs(x.sum(axis=1)))) > _MEAN_ZERO_TOL:
        problems.append("packing vectors are not mean-zero")
    return problems


def _printed(stdout: str, label: str) -> float | None:
    for line in stdout.splitlines():
        if line.startswith(label + ":"):
            return float(line.split(":", 1)[1].split()[0])
    return None


def check_expander(spec: dict, stdout: str) -> list[str]:
    d, n, k = spec["d"], spec["n"], spec["k"]
    with open(spec["edges"], "r", encoding="utf-8") as fh:
        rows = [line.strip().split(",") for line in fh if line.strip()]
    ends = np.array([(int(a), int(b)) for a, b, _ in rows])
    weights = np.array([int(w) for _, _, w in rows], dtype=float)
    problems = []
    base = np.zeros((d, d))
    np.add.at(base, (ends[:, 0], ends[:, 1]), 1.0)
    base += base.T
    if np.any(base > 1) or np.any(np.diag(base)) or np.any(base.sum(axis=1) != k):
        problems.append(f"edge list is not a simple {k}-regular graph")
    if weights.sum() != n:
        problems.append(f"edge weights sum to {weights.sum():g}, not n={n}")
    m = np.zeros((d, d))
    np.add.at(m, (ends[:, 0], ends[:, 1]), -weights)
    m += m.T
    m -= np.diag(m.sum(axis=1))
    eig = np.linalg.eigvalsh(m / n)
    lambda2, trace_pinv = float(eig[1]), float(np.sum(1.0 / eig[1:]))
    base_lap = np.diag(base.sum(axis=1)) - base
    if np.linalg.eigvalsh(base_lap)[1] < 0.1 * k:
        problems.append("expander's algebraic connectivity is below 0.1 * k")
    for label, value in (("lambda2(std)", lambda2), ("trace_pinv(std)", trace_pinv)):
        shown = _printed(stdout, label)
        if shown is None or abs(shown - value) > _PRINT_RTOL * abs(value):
            problems.append(f"topology printed {label}={shown}, edge list gives {value:.6g}")
    return problems


def _kappa(b: float, sigma: float) -> float:
    u = 2.0 * b / sigma
    return float(ndtr(u) * ndtr(-u))


def _verdict(sigma_c: float, sigma_o: float, b: float) -> str:
    k = _kappa(b, sigma_o)
    lower = _THURSTONE_LOWER * k * sigma_o**2
    upper = _THURSTONE_UPPER / k**2 * sigma_o**2 if k > 0 else math.inf
    if upper < sigma_c**2:
        return "ordinal"
    if sigma_c**2 < lower:
        return "cardinal"
    return "indeterminate"


def check_decide_grid(spec: dict) -> list[str]:
    sc_lo, sc_hi, so_lo, so_hi = spec["grid"]
    res = spec["resolution"]
    with open(spec["csv"], "r", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    expected = [(sc, so) for sc in np.geomspace(sc_lo, sc_hi, res) for so in np.geomspace(so_lo, so_hi, res)]
    if len(rows) != len(expected):
        return [f"decision grid has {len(rows)} rows, expected {len(expected)}"]
    wrong = sum(
        not (math.isclose(float(sc), esc, rel_tol=1e-12) and math.isclose(float(so), eso, rel_tol=1e-12)
             and verdict == _verdict(esc, eso, 1.0))
        for (sc, so, verdict), (esc, eso) in zip(rows, expected)
    )
    return [f"{wrong} decision grid rows disagree with the recomputed verdicts"] if wrong else []


def check_montecarlo(spec: dict) -> tuple[list[str], int]:
    """Check the seminorm risk against the published interval; also return the dropped-trial count."""
    with open(spec["csv"], "r", newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.DictReader(fh) if row["metric"] == "seminorm_sq"]
    if len(rows) != 1:
        return [f"{spec['csv']}: expected one seminorm_sq row, found {len(rows)}"], spec["trials"]
    row = rows[0]
    mean, se, failures = float(row["mean"]), float(row["stderr"]), int(row["failures"])
    model, d, n, sigma, b = spec["model"], spec["d"], spec["n"], spec["sigma"], spec["b_bound"]
    if model == "paired_linear":
        return _check_paired_risk(mean, int(row["trials"]), d, n, sigma), failures
    rate = d * sigma**2 / n
    if model == "thurstone":
        k = _kappa(b, sigma)
        lo, hi = _THURSTONE_LOWER * k * rate, _THURSTONE_UPPER / k**2 * rate
    else:
        lo, hi = _BTL_LOWER * rate, _BTL_UPPER * (math.exp(b / sigma) + math.exp(-b / sigma)) ** 4 * rate
    if not (lo - _MC_STDERRS * se <= mean <= hi + _MC_STDERRS * se):
        return [f"{model}: seminorm risk {mean:.4g} (stderr {se:.2g}) outside [{lo:.4g}, {hi:.4g}] +- 4 stderr"], failures
    return [], failures


def _check_paired_risk(mean: float, trials: int, d: int, n: int, sigma: float) -> list[str]:
    """Paired-linear seminorm risk against its exact law.

    With the box inactive, each trial's seminorm error is sigma^2 / n times a
    chi-square with d - 1 degrees of freedom, so the mean over T trials times
    n T / sigma^2 is chi-square with T (d - 1) degrees of freedom.  (The
    published upper constant 0.68 sits below the exact risk (d - 1)/d at this
    d, so the interval check of the binary models does not apply; see C02.)
    """
    dof = trials * (d - 1)
    lo, hi = chi2.ppf(_PAIRED_ALPHA / 2, dof), chi2.isf(_PAIRED_ALPHA / 2, dof)
    stat = mean * n * trials / sigma**2
    if not lo <= stat <= hi:
        return [f"paired_linear: seminorm risk {mean:.4g} over {trials} trials is outside the "
                f"chi-square({dof}) acceptance range [{lo * sigma**2 / (n * trials):.4g}, "
                f"{hi * sigma**2 / (n * trials):.4g}]"]
    return []


def check_op(spec: dict, stdout: str) -> tuple[list[str], int]:
    """Run one invocation's check; returns (problems, trials dropped by the program)."""
    kind = spec["kind"]
    if kind == "montecarlo":
        return check_montecarlo(spec)
    if kind == "expander":
        return check_expander(spec, stdout), 0
    checker = {"kkt": _check_kkt, "cv": check_cv, "cardinal": check_cardinal,
               "pack": check_pack, "decide_grid": check_decide_grid}[kind]
    return checker(spec), 0
