"""Comparison multigraphs and their Laplacian spectra.

A comparison design on ``d`` items is an undirected multigraph: every time a
pair is compared the corresponding edge gains one unit of weight.  The
combinatorial Laplacian ``M`` of the weighted graph is the Gram matrix of the
differencing vectors of the design, and ``M / n`` (``n`` = total number of
comparisons) is the standardized design covariance.  Risk bounds, packings and
seminorm metrics are all phrased in terms of ``M``, its Moore-Penrose
pseudoinverse and its spectrum, so those objects live here.

Building a graph or a Laplacian is array work from start to end: the
``(left, right, weight)`` triples are validated at once, merged by sorting
canonical pair codes, and scattered into ``M`` with ``bincount`` degrees on
the diagonal.  Weights are integers, so ``M`` holds exact integer values.

The module also owns the one CSV row reader, :func:`read_rows`: edge lists,
ratings and comparisons differ only in their :class:`RowFormat`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConnectivityError, DataFormatError

# Eigenvalues below RANK_TOL * lambda_max are treated as structural zeros.
RANK_TOL = 1e-10

TOPOLOGY_KINDS = ("complete", "dumbbell", "expander", "star")

# Minimum algebraic connectivity (relative to degree) accepted when sampling
# a random regular graph, and the cap on resampling attempts.
_EXPANDER_LAMBDA2_FRACTION = 0.1
_EXPANDER_MAX_ATTEMPTS = 5000


@dataclass(frozen=True)
class ComparisonGraph:
    """A weighted comparison multigraph on ``d`` items.

    ``edges`` holds ``(left, right, weight)`` triples with ``left < right``,
    lexicographically sorted, each weight a positive integer giving the number
    of times that pair is compared.
    """

    d: int
    edges: tuple[tuple[int, int, int], ...]

    @property
    def n(self) -> int:
        """Total number of comparisons (sum of edge weights)."""
        return sum(w for _, _, w in self.edges)

    def to_design(self) -> np.ndarray:
        """Expand the multigraph into an (n, 2) array of comparison rows, edge by edge."""
        edges = np.array(self.edges, dtype=np.intp).reshape(-1, 3)
        return np.repeat(edges[:, :2], edges[:, 2], axis=0)


def _merge_edges(d: int, weighted_edges) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validate ``(left, right, weight)`` triples and merge each pair's triples.

    ``weighted_edges`` is an (E, 3) array or an iterable of triples; all of
    them are checked at once, and the first bad triple in input order decides
    the error.  Returns ``(left, right, weight)`` int64 arrays with
    ``left < right`` in lexicographic order, each weight the exact sum over
    both orientations and all duplicates of that pair.  A merged weight or a
    total that would not fit in int64 (reaching 2**63) raises ``ValueError``.
    """
    if d < 2:
        raise ValueError(f"need at least 2 items, got d={d}")
    if not isinstance(weighted_edges, np.ndarray):
        weighted_edges = list(weighted_edges)
    triples = np.asarray(weighted_edges)
    if triples.size == 0:
        triples = triples.reshape(0, 3)
    if triples.ndim != 2 or triples.shape[1] != 3:
        raise ValueError(f"expected (left, right, weight) triples, got shape {triples.shape}")
    left, right, weight = triples.astype(np.int64, copy=False).T
    bad = (left == right) | (left < 0) | (left >= d) | (right < 0) | (right >= d) | (weight <= 0)
    first_bad = np.flatnonzero(bad)
    if first_bad.size:
        i = first_bad[0]
        a, b, w = int(left[i]), int(right[i]), int(weight[i])
        if a == b:
            raise ValueError(f"self-comparison ({a}, {b}) is not allowed")
        if not (0 <= a < d and 0 <= b < d):
            raise IndexError(f"edge ({a}, {b}) out of range for d={d}")
        raise ValueError(f"edge ({a}, {b}) has nonpositive weight {w}")
    if left.size == 0:
        raise ValueError("a comparison graph needs at least one edge")
    codes = np.minimum(left, right) * d + np.maximum(left, right)
    order = np.argsort(codes)
    codes = codes[order]
    starts = np.flatnonzero(np.diff(codes, prepend=-1))
    keys = codes[starts]
    weight = weight[order]
    merged = np.add.reduceat(weight, starts)
    if int(weight.max()) * weight.size >= 2**63:
        # The int64 sums may have wrapped: redo them exactly with Python integers.
        exact = np.add.reduceat(weight.astype(object), starts)
        wrapped = np.flatnonzero(exact >= 2**63)
        if wrapped.size:
            i = wrapped[0]
            raise ValueError(f"edge ({keys[i] // d}, {keys[i] % d}) has merged weight {exact[i]}, which reaches 2**63")
        if sum(exact) >= 2**63:
            raise ValueError(f"total weight {sum(exact)} reaches 2**63")
    return keys // d, keys % d, merged


def comparison_graph(d: int, weighted_edges) -> ComparisonGraph:
    """Build a :class:`ComparisonGraph`, merging duplicates and validating ranges.

    ``weighted_edges`` is an (E, 3) array or an iterable of
    ``(left, right, weight)`` triples.
    """
    left, right, weight = _merge_edges(d, weighted_edges)
    return ComparisonGraph(d=d, edges=tuple(zip(left.tolist(), right.tolist(), weight.tolist())))


@dataclass(frozen=True)
class Laplacian:
    """Combinatorial Laplacian of a comparison design plus its eigendecomposition.

    ``eigenvalues`` are sorted nonincreasing with near-zero values clamped to
    exactly zero; ``eigenvectors`` holds the matching orthonormal columns.
    ``n`` is the number of comparisons the design contains, so ``m / n`` is the
    standardized covariance.
    """

    m: np.ndarray
    n: int
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def d(self) -> int:
        return self.m.shape[0]

    @property
    def lambda1(self) -> float:
        """Largest eigenvalue."""
        return float(self.eigenvalues[0])

    @property
    def lambda2(self) -> float:
        """Second-smallest eigenvalue (algebraic connectivity of the multigraph)."""
        return float(self.eigenvalues[-2])

    @property
    def connected(self) -> bool:
        return self.lambda2 > 0.0

    @property
    def rank(self) -> int:
        return int(np.count_nonzero(self.eigenvalues))


@dataclass(frozen=True)
class SpectralSummary:
    """Spectral facts about the standardized covariance ``m / n``."""

    lambda2_std: float
    trace_pinv_std: float
    connected: bool


def build_laplacian(d: int, weighted_edges) -> Laplacian:
    """Assemble the Laplacian of a weighted comparison graph and eigendecompose it.

    ``weighted_edges`` is an (E, 3) array or an iterable of
    ``(left, right, weight)`` triples.  ``M`` is filled from the merged edge
    arrays without a Python loop; its entries are exact integer sums.
    """
    left, right, weight = _merge_edges(d, weighted_edges)
    n = int(weight.sum())
    w = weight.astype(float)
    m = np.zeros((d, d))
    m[left, right] = -w
    m[right, left] = -w
    m[np.diag_indices(d)] = np.bincount(left, w, minlength=d) + np.bincount(right, w, minlength=d)
    # Release the edge arrays before eigh, so that they do not add to its peak memory.
    del left, right, weight, w
    eigenvalues, eigenvectors = np.linalg.eigh(m)
    # eigh returns ascending order; flip to nonincreasing.
    eigenvalues = eigenvalues[::-1].copy()
    eigenvectors = eigenvectors[:, ::-1].copy()
    eigenvalues[eigenvalues < RANK_TOL * eigenvalues[0]] = 0.0
    return Laplacian(m=m, n=n, eigenvalues=eigenvalues, eigenvectors=eigenvectors)


def laplacian_of(graph: ComparisonGraph) -> Laplacian:
    """Laplacian of an already-built comparison graph."""
    return build_laplacian(graph.d, graph.edges)


def build_laplacian_from_design(d: int, design: np.ndarray) -> Laplacian:
    """Laplacian of an (n, 2) design array (each row one unit-weight comparison)."""
    design = np.asarray(design, dtype=np.intp)
    if design.ndim != 2 or design.shape[1] != 2:
        raise ValueError(f"design must have shape (n, 2), got {design.shape}")
    return build_laplacian(d, np.column_stack((design, np.ones(len(design), dtype=np.intp))))


def pseudo_inverse(laplacian: Laplacian) -> np.ndarray:
    """Moore-Penrose pseudoinverse of the Laplacian via its eigendecomposition.

    Raises :class:`ConnectivityError` on a disconnected graph, where the
    estimation problem the pseudoinverse feeds into is not identifiable.
    """
    if not laplacian.connected:
        raise ConnectivityError("comparison graph is disconnected; pseudoinverse refused")
    inv = np.zeros_like(laplacian.eigenvalues)
    np.divide(1.0, laplacian.eigenvalues, out=inv, where=laplacian.eigenvalues > 0)
    u = laplacian.eigenvectors
    return (u * inv) @ u.T


def spectral_summary(laplacian: Laplacian) -> SpectralSummary:
    """Summary of the standardized covariance: connectivity, lambda_2, trace of the pseudoinverse."""
    nonzero = laplacian.eigenvalues[laplacian.eigenvalues > 0]
    trace_pinv = float(np.sum(1.0 / nonzero)) if nonzero.size else float("inf")
    return SpectralSummary(
        lambda2_std=laplacian.lambda2 / laplacian.n,
        trace_pinv_std=laplacian.n * trace_pinv,
        connected=laplacian.connected,
    )


def _base_edges(kind: str, d: int, k: int | None, rng: np.random.Generator) -> list[tuple[int, int]]:
    if kind == "complete":
        return [(a, b) for a in range(d) for b in range(a + 1, d)]
    if kind == "dumbbell":
        if d < 4 or d % 2:
            raise ValueError(f"dumbbell topology needs even d >= 4, got d={d}")
        half = d // 2
        edges = [(a, b) for a in range(half) for b in range(a + 1, half)]
        edges += [(a, b) for a in range(half, d) for b in range(a + 1, d)]
        edges.append((half - 1, half))
        return sorted(edges)
    if kind == "star":
        return [(0, b) for b in range(1, d)]
    if kind == "expander":
        if k is None:
            raise ValueError("expander topology needs a degree k")
        if not (3 <= k < d):
            raise ValueError(f"expander degree must satisfy 3 <= k < d, got k={k}, d={d}")
        if (k * d) % 2:
            raise ValueError(f"k*d must be even for a k-regular graph, got k={k}, d={d}")
        return _sample_regular(d, k, rng)
    raise ValueError(f"unknown topology kind {kind!r}")


def _sample_regular(d: int, k: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    """Uniform random simple k-regular graph by the pairing model, kept only if well-connected."""
    for _ in range(_EXPANDER_MAX_ATTEMPTS):
        stubs = np.repeat(np.arange(d), k)
        rng.shuffle(stubs)
        pairs = stubs.reshape(-1, 2)
        edges = {(min(a, b), max(a, b)) for a, b in pairs}
        if len(edges) < pairs.shape[0] or any(a == b for a, b in pairs):
            continue  # multi-edge or self-loop: resample
        lap = build_laplacian(d, [(a, b, 1) for a, b in edges])
        if lap.lambda2 >= _EXPANDER_LAMBDA2_FRACTION * k:
            return sorted(edges)
    raise RuntimeError(f"failed to sample a {k}-regular expander on {d} vertices")


def generate_topology(kind: str, d: int, n: int, seed: int = 0, k: int | None = None) -> ComparisonGraph:
    """Build a named comparison topology with ``n`` comparisons spread evenly.

    Every base edge receives ``n // E`` comparisons; the remainder is handed
    out one at a time in lexicographic edge order.
    """
    if d < 2:
        raise ValueError(f"need at least 2 items, got d={d}")
    rng = np.random.default_rng(seed)
    base = _base_edges(kind, d, k, rng)
    if n < len(base):
        raise ValueError(f"need n >= {len(base)} comparisons to cover every edge of {kind}, got n={n}")
    per_edge, remainder = divmod(n, len(base))
    weighted = [(a, b, per_edge + (1 if i < remainder else 0)) for i, (a, b) in enumerate(base)]
    return comparison_graph(d, weighted)


def write_edge_list(graph: ComparisonGraph, path, item_ids: list[str] | None = None) -> None:
    """Write a graph as ``left_id,right_id,weight`` rows."""
    if item_ids is None:
        item_ids = [str(i) for i in range(graph.d)]
    if len(item_ids) != graph.d:
        raise ValueError(f"expected {graph.d} item ids, got {len(item_ids)}")
    with open(path, "w", encoding="utf-8") as fh:
        for a, b, w in graph.edges:
            fh.write(f"{item_ids[a]},{item_ids[b]},{w}\n")


@dataclass(frozen=True)
class RowFormat:
    """A CSV row schema: item-id columns, then one value column converted by ``parse``.

    ``parse`` raises ``ValueError`` or ``KeyError`` on a bad value, reported as
    "<value column> must be <expects>"; ``noun`` names the rows of an empty file.
    """

    header: str
    noun: str
    parse: Callable[[str], object]
    expects: str


def _weight(text: str) -> int:
    weight = int(text)
    if not 0 < weight < 2**63:
        raise ValueError(weight)
    return weight


EDGE_ROWS = RowFormat("left,right,weight", "edge", _weight, "a positive 64-bit integer")


def read_rows(path, row_format: RowFormat, id_order: str = "first-appearance"):
    """Read a CSV file's rows in one pass; returns ``(item_ids, index, values)``.

    Blank lines and ``#`` comments are skipped and fields are stripped.  Item
    ids are numbered by first appearance as they are read; ``id_order="sorted"``
    renumbers them at the end.  ``index`` is an intp array of shape (n,) for one
    id column or (n, k) for k; ``values`` has the dtype numpy infers for the
    parsed values.  The first bad row raises :class:`DataFormatError` naming the
    file and the line; the two ids of a row must differ.
    """
    width = row_format.header.count(",") + 1
    value_name = row_format.header.rsplit(",", 1)[1]
    ids: dict[str, int] = {}
    index: list[int] = []
    values: list = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            parts = [part.strip() for part in text.split(",")]
            if len(parts) != width:
                raise DataFormatError(f"{path}, line {line_no}: expected {row_format.header!r}, got {','.join(parts)!r}")
            try:
                values.append(row_format.parse(parts[-1]))
            except (ValueError, KeyError):
                raise DataFormatError(
                    f"{path}, line {line_no}: {value_name} must be {row_format.expects}, got {parts[-1]!r}"
                ) from None
            if width == 3 and parts[0] == parts[1]:
                raise DataFormatError(f"{path}, line {line_no}: an item cannot be compared with itself")
            for name in parts[:-1]:
                index.append(ids.setdefault(name, len(ids)))
    if not values:
        raise DataFormatError(f"{path}: no {row_format.noun} rows found")
    item_ids = list(ids)
    index = np.array(index, dtype=np.intp)
    if id_order == "sorted":
        order = sorted(range(len(item_ids)), key=item_ids.__getitem__)
        index = np.argsort(order)[index]  # the inverse permutation maps old numbers to new
        item_ids = [item_ids[i] for i in order]
    if width > 2:
        index = index.reshape(len(values), width - 1)
    return tuple(item_ids), index, np.array(values)


def read_edge_list(path) -> tuple[ComparisonGraph, list[str]]:
    """Read ``left_id,right_id,weight`` rows; ids are indexed by first appearance."""
    item_ids, pairs, weights = read_rows(path, EDGE_ROWS)
    return comparison_graph(len(item_ids), np.column_stack((pairs, weights))), list(item_ids)
