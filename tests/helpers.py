"""Shared oracles for the test suite.

Everything in here but the dense Hessian and the dense trace is deliberately
independent of the library internals: the finite-difference checks only call
``neg_log_likelihood``/``gradient`` as black boxes, the grid minimizer
re-parameterizes the d=3 feasible set by hand, and the reference projection
finds its shift by a different search than the library's.  The dense Hessian
assembles the library's per-group curvature weights, which ``fd_hessian``
checks.  The dense trace factors the block of ``Laplacian.m`` that the library's
trace scatters straight from the pairs.  The line-by-line reader reads a CSV one
line at a time with none of the reader's chunks, numpy checks or forked parts.
"""

import math

import numpy as np
from scipy.special import log_ndtr

from rateorank import graph, models
from rateorank.errors import DataFormatError
from rateorank.estimate import FitConfig

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


def dense_hessian(spec, w, obs):
    """The d x d Hessian of the NLL: the Laplacian of the ``models.curvature`` weights, or their diagonal for cardinal."""
    weights = models.curvature(spec, w, obs)
    items = obs.groups.items
    if spec.kind == "cardinal":
        return np.diag(np.bincount(items, weights=weights, minlength=obs.d))
    return graph._laplacian_matrix(obs.d, items[:, 0], items[:, 1], weights)


def dense_trace_pinv_std(lap):
    """``lap.trace_pinv_std`` from the dense ``lap.m``: each component grounded at its largest diagonal entry (its
    smallest such item on a tie), and the ``np.ix_`` copy of what is left handed to ``_inverse_cholesky_factor``."""
    order = np.lexsort((np.arange(lap.d), -np.diag(lap.m), lap.component))
    grounded = np.sort(order[np.diff(lap.component[order], prepend=-1) == 0])
    if not grounded.size:
        return float("inf")
    inverse = graph._inverse_cholesky_factor(lap.m[np.ix_(grounded, grounded)])
    rows = inverse.sum(axis=1)
    sizes = np.bincount(lap.component)[lap.component[grounded]]
    entries = inverse.ravel()
    return lap.n * (float(entries @ entries) - float(rows @ (rows / sizes)))


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


#: Trials of :func:`stress_set` that stalled: the first five at the iteration cap before the Newton arc tried the
#: blocking step, the last five in a zigzag between two faces (1,986, 386 and 330 iterations, then the cap twice)
#: before the Newton step was solved again without the face coordinates it pushed outward.
STRESS_STALLS = (769, 1397, 1420, 1604, 2964, 1123, 1660, 2686, 9692, 9947)


def stress_set(trials=3000):
    """Near-separable fits: yields ``(trial, obs, config)`` for each of the first ``trials`` of a fixed stream.

    Each trial is a BTL or Thurstone set on a path or a random connected
    design over 3 to 8 items, with every pair repeated 1 to 5 times.  The
    outcomes are drawn at a fifth of the fit's sigma from a truth that may
    reach three times the fit's box, so most sets are close to separable and
    their optimum sits on the box.  The stream is seeded, so trial ``k`` is
    the same set however many trials are taken.
    """
    rng = np.random.default_rng(0)
    for trial in range(trials):
        d = int(rng.integers(3, 9))
        kind = str(rng.choice(["btl", "thurstone"]))
        sigma = float(np.exp(rng.uniform(np.log(0.05), np.log(10))))
        b_bound = float(rng.uniform(0.1, 5))
        if rng.choice(["path", "random"]) == "path":
            pairs = np.array([(i, i + 1) for i in range(d - 1)])
        else:
            pairs = np.array([(i, j) for i in range(d) for j in range(i + 1, d)])
            pairs = np.vstack([pairs[rng.random(len(pairs)) < 0.6], [(i, i + 1) for i in range(d - 1)]])
        design = np.repeat(pairs, int(rng.integers(1, 6)), axis=0)
        w = models.QualityVector.centered(rng.uniform(-3 * b_bound, 3 * b_bound, d))
        y = models.sample(models.ModelSpec(kind, sigma * 0.2, 10 * b_bound), w, design, seed=trial).outcomes
        yield trial, models.ObservationSet(models.ModelSpec(kind, sigma, b_bound), d, design, y), FitConfig(b_bound)


def read_rows_by_line(path, row_format, id_order="first-appearance"):
    """``read_rows`` as one loop over the file's lines: ``(item_ids, index, values)``, or the same DataFormatError.

    Lines end at LF, CRLF or a bare CR; a UTF-8 byte-order mark is skipped at byte 0 only.  Each line is decoded
    with its ending, then stripped; blank and ``#`` lines are skipped, and every other line must hold the header's
    number of fields, stripped, a value ``row_format.parse`` takes and that is finite, and for three fields two
    different ids.  The first line that fails names the file and the line; bytes that are not UTF-8 name the file.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if data.startswith(b"\xef\xbb\xbf"):
        data = data[3:]
    header = row_format.header.split(",")
    first, rows, values = {}, [], []
    for line_no, raw in enumerate(data.splitlines(keepends=True), 1):
        try:
            line = raw.decode("utf-8").strip()
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"{path}: not UTF-8 text: {exc.reason} (0x{exc.object[exc.start]:02x})") from None
        if not line or line.startswith("#"):
            continue
        fields = [field.strip() for field in line.split(",")]
        where = f"{path}, line {line_no}"
        if len(fields) != len(header):
            raise DataFormatError(f"{where}: expected {row_format.header!r}, got {','.join(fields)!r}")
        try:
            value = row_format.parse(fields[-1])
            if not math.isfinite(value):
                raise ValueError
        except (ValueError, KeyError, OverflowError):
            raise DataFormatError(f"{where}: {header[-1]} must be {row_format.expects}, got {fields[-1]!r}") from None
        if len(fields) == 3 and fields[0] == fields[1]:
            raise DataFormatError(f"{where}: an item cannot be compared with itself")
        for name in fields[:-1]:
            first.setdefault(name, len(first))
        rows.append(fields[:-1])
        values.append(value)
    if not values:
        raise DataFormatError(f"{path}: no {row_format.noun} rows found")
    item_ids = sorted(first) if id_order == "sorted" else list(first)
    number = {name: i for i, name in enumerate(item_ids)}
    index = np.array([[number[name] for name in row] for row in rows], dtype=np.intp)
    if len(header) == 2:
        index = index.reshape(len(values))
    values = np.array(values, dtype=float)
    index.setflags(write=False)
    values.setflags(write=False)
    return tuple(item_ids), index, values
