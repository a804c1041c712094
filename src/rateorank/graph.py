"""Comparison multigraphs and their Laplacian spectra.

A comparison design on ``d`` items is an undirected multigraph: every time a
pair is compared the corresponding edge gains one unit of weight.  The
combinatorial Laplacian ``M`` of the weighted graph is the Gram matrix of the
differencing vectors of the design, and ``M / n`` (``n`` = total number of
comparisons) is the standardized design covariance.  Risk bounds, packings and
seminorm metrics are all phrased in terms of ``M`` and its spectrum, so those
objects live here.  A :class:`Laplacian` holds ``M``, ``n`` and each item's
connected component, found by a graph search over the merged pairs.  Connectivity
and rank are read from the components, the trace of the pseudoinverse from a
Cholesky factor, and only the extreme eigenvalues from the spectrum, which one
``eigvalsh`` computes on first read; no eigenvectors are kept.

Building a graph or a Laplacian is array work from start to end: the
``(left, right, weight)`` triples are validated at once, merged by :func:`index_pairs`,
and scattered into ``M`` by ``_laplacian_matrix``, the one assembly of weighted pair
outer products (``models.hessian`` shares it).  ``M`` is exact while its entries stay
below 2**53; :func:`comparison_graph` accepts merged weights up to 2**63 - 1.

The module also owns the one CSV row reader, :func:`read_rows`: edge lists,
ratings and comparisons differ only in their :class:`RowFormat`.  It reads
about ``_BLOCK_BYTES`` of lines at a time and checks and parses each block
with list operations, so memory stays bounded by a block per part and the
parsed values.  A block that fails a check is read again one line at a time
by the same parser, which names the first bad line.  A large regular file is
split at newlines into one part per usable CPU: forked children parse the
later parts while the caller parses the first, and the caller joins the parts
in file order into exactly what a one-part read gives.
"""

from __future__ import annotations

import io
import math
import os
import pickle
import stat
import warnings
from array import array
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import Callable

import numpy as np

from .errors import DataFormatError

# Eigenvalues below RANK_TOL * lambda_max are treated as structural zeros.
RANK_TOL = 1e-10

TOPOLOGY_KINDS = ("complete", "dumbbell", "expander", "star")

# Minimum algebraic connectivity (relative to degree) accepted when sampling
# a random regular graph, and the cap on resampling attempts.
_EXPANDER_LAMBDA2_FRACTION = 0.1
_EXPANDER_MAX_ATTEMPTS = 5000

# Columns per block of the in-place Cholesky factor and triangular inverse.
_BLOCK = 64

# read_rows reads and parses about this many bytes of lines at a time.
_BLOCK_BYTES = 1 << 12

# read_rows splits a regular file into parts of at least this many bytes, one per usable CPU.
_PART_BYTES = 1 << 20


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


def index_pairs(d: int, left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Merge rows by unordered pair; graph edges and observation rows both merge here.

    Returns the distinct pairs, a (P, 2) int64 array with ``left < right`` in
    lexicographic order, and each row's index into them.
    """
    codes = np.minimum(left, right).astype(np.int64) * d + np.maximum(left, right)
    codes, index = np.unique(codes, return_inverse=True)
    return np.column_stack((codes // d, codes % d)), index


def integer_array(values, what: str, dtype=np.int64) -> np.ndarray:
    """``values`` (at least 1-d) cast to the integer ``dtype``, truncating nothing.

    An integer array that ``dtype`` holds is cast without a scan, and without a
    copy when it has ``dtype`` already.  Any other array must hold whole numbers
    in ``dtype``'s range: otherwise ``ValueError`` names ``what``, the first row
    the cast would change, and whether an entry is not whole or out of range.
    """
    array = np.asarray(values)
    if array.dtype.kind in "iu" and np.can_cast(array.dtype, dtype):
        return array.astype(dtype, copy=False)
    info = np.iinfo(dtype)
    with np.errstate(invalid="ignore"):  # NaN, infinity and out-of-range values cast to garbage
        # A Python int past 64 bits (an object array) makes the cast raise: clip it into range first.
        cast = (array.clip(info.min, info.max) if array.dtype == object else array).astype(dtype)
    changed = np.argwhere(cast != array)
    if changed.size:
        row = int(changed[0, 0])
        whole = all(isinstance(x, int) or float(x).is_integer() for x in np.ravel(array[row]))
        reason = f"an integer outside [-2**{info.bits - 1}, 2**{info.bits - 1})" if whole else "a non-integer value"
        raise ValueError(f"{what} {row} holds {reason}: {array[row].tolist()}")
    return cast


def _merge_edges(d: int, weighted_edges) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validate ``(left, right, weight)`` triples and merge each pair's triples.

    ``weighted_edges`` is an (E, 3) array or an iterable of triples; all of
    them are checked at once.  A non-integer entry is reported first;
    otherwise the first bad triple in input order decides the error.  Returns
    ``(left, right, weight)`` int64 arrays with ``left < right`` in
    lexicographic order, each weight the exact sum over both orientations and
    all duplicates of that pair.  A merged weight or a total that would not
    fit in int64 (reaching 2**63) raises ``ValueError``.
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
    left, right, weight = integer_array(triples, "edge").T
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
    pairs, index = index_pairs(d, left, right)
    merged = np.zeros(len(pairs), dtype=np.int64)
    np.add.at(merged, index, weight)
    if int(weight.max()) * weight.size >= 2**63:
        # The int64 sums may have wrapped: redo them exactly with Python integers.
        exact = np.zeros(len(pairs), dtype=object)
        np.add.at(exact, index, weight.astype(object))
        wrapped = np.flatnonzero(exact >= 2**63)
        if wrapped.size:
            a, b = pairs[wrapped[0]]
            raise ValueError(f"edge ({a}, {b}) has merged weight {exact[wrapped[0]]}, which reaches 2**63")
        if sum(exact) >= 2**63:
            raise ValueError(f"total weight {sum(exact)} reaches 2**63")
    return pairs[:, 0], pairs[:, 1], merged


def comparison_graph(d: int, weighted_edges) -> ComparisonGraph:
    """Build a :class:`ComparisonGraph`, merging duplicates and validating ranges.

    ``weighted_edges`` is an (E, 3) array or an iterable of
    ``(left, right, weight)`` triples.
    """
    left, right, weight = _merge_edges(d, weighted_edges)
    return ComparisonGraph(d=d, edges=tuple(zip(left.tolist(), right.tolist(), weight.tolist())))


@dataclass(frozen=True)
class Laplacian:
    """Combinatorial Laplacian ``m`` of a comparison design, its comparison count ``n`` and its components.

    ``m / n`` is the standardized covariance, which the ``*_std`` properties
    describe.  ``component[i]`` is the smallest item connected to item ``i``.
    It is a design table of :class:`rateorank.models.ObservationSet`, built
    once per design.
    """

    m: np.ndarray
    n: int
    component: np.ndarray

    @property
    def d(self) -> int:
        return self.m.shape[0]

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Nonincreasing; values below ``RANK_TOL`` times the largest are clamped to zero."""
        eigenvalues = np.linalg.eigvalsh(self.m)[::-1].copy()
        eigenvalues[eigenvalues < RANK_TOL * eigenvalues[0]] = 0.0
        return eigenvalues

    @property
    def lambda1(self) -> float:
        """Largest eigenvalue."""
        return float(self.eigenvalues[0])

    @property
    def lambda2(self) -> float:
        """Second-smallest eigenvalue (algebraic connectivity of the multigraph), clamped like the rest."""
        return float(self.eigenvalues[-2])

    @property
    def lambda2_std(self) -> float:
        """Algebraic connectivity of the standardized covariance, lambda2 / n."""
        return self.lambda2 / self.n

    @cached_property
    def trace_pinv_std(self) -> float:
        """Trace of the pseudoinverse of ``m / n``, which is n * tr(pinv M); inf when M = 0.

        Each component C is grounded at its smallest item: without those rows
        and columns, M is positive definite, M_g = L L'.  On C, pinv M is
        P X P, X the inverse of C's block of M_g padded with a zero row and
        column, P = I - J/|C|, so
        tr(pinv M) = ||inv(L)||_F^2 - sum_C ||inv(L) 1_C||^2 / |C|.  inv(L)
        joins no two components, so inv(L) 1_C is its row sums on C's rows.
        Edge weights whose ratio nears 1/eps round M_g toward singular: the
        trace then loses its digits, or ``numpy.linalg.LinAlgError`` is raised.
        """
        grounded = np.flatnonzero(self.component != np.arange(self.d))
        if not grounded.size:
            return float("inf")
        inverse = _inverse_cholesky_factor(self.m[np.ix_(grounded, grounded)])
        rows = inverse.sum(axis=1)
        sizes = np.bincount(self.component)[self.component[grounded]]
        entries = inverse.ravel()
        return self.n * (float(entries @ entries) - float(rows @ (rows / sizes)))

    @property
    def connected(self) -> bool:
        return not self.component.any()

    @property
    def rank(self) -> int:
        """d minus the number of components."""
        return int(np.count_nonzero(self.component != np.arange(self.d)))


def _laplacian_matrix(d: int, left: np.ndarray, right: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Sum of ``w_p (e_l - e_r)(e_l - e_r)'`` over pairs, d x d; negated weights leave untouched entries +0.0."""
    m = np.zeros((d, d))
    for codes in (left * d + right, right * d + left):
        np.add.at(m.reshape(-1), codes, -weights)  # into m itself, unbuffered: a repeated pair adds up
    m[np.diag_indices(d)] = np.bincount(left, weights, d) + np.bincount(right, weights, d)
    return m


def _components(d: int, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Each item's smallest connected item, for pairs ``left < right``.

    Min-label hooking with pointer jumping (Shiloach & Vishkin 1982): every
    label is its component's root at the start of a round, each pair hooks the
    larger of its two roots to the smallest root paired with it, and jumping
    points every item at its new root.  Pointers only fall, and each round
    hooks a root, until no pair joins two labels.  Labels are int32 (a dense
    M has far fewer than 2**31 rows), which halves the gathers' temporaries.
    """
    label = np.arange(d, dtype=np.int32)
    while True:
        low, high = label[left], label[right]
        if np.array_equal(low, high):
            return label
        np.minimum.at(label, np.maximum(low, high), np.minimum(low, high))
        while not np.array_equal(label, jumped := label[label]):
            label = jumped


def _inverse_cholesky_factor(a: np.ndarray) -> np.ndarray:
    """inv(L) for the Cholesky factor ``L`` of a positive definite ``a``, written over ``a``.

    Blocks of ``_BLOCK`` columns keep the temporaries at O(d * _BLOCK).  The
    left-looking factorization leaves each block column of L below its
    diagonal block, inv(L_jj) in that block and zeros above it; a later block
    column reads only L left of its own diagonal block.  The backward sweep
    then turns each block column into inv(L)'s:
    inv(L)[e:, j:e] = -inv(L)[e:, e:] @ L[e:, j:e] @ inv(L_jj).
    """
    k = a.shape[0]
    for j in range(0, k, _BLOCK):
        e = j + _BLOCK
        a[j:, j:e] -= a[j:, :j] @ a[j:e, :j].T
        diagonal = np.linalg.inv(np.linalg.cholesky(a[j:e, j:e]))
        a[e:, j:e] = a[e:, j:e] @ diagonal.T
        a[j:e, j:e] = diagonal
        a[:j, j:e] = 0.0
    for j in reversed(range(0, k - _BLOCK, _BLOCK)):  # the last block column is inv(L_jj) already
        e = j + _BLOCK
        a[e:, j:e] = -(a[e:, e:] @ a[e:, j:e] @ a[j:e, j:e])
    return a


def build_laplacian(d: int, weighted_edges) -> Laplacian:
    """Assemble the Laplacian of a weighted comparison graph and find its components; its spectrum waits until read.

    ``weighted_edges`` is an (E, 3) array or an iterable of
    ``(left, right, weight)`` triples.  ``M`` is :func:`_laplacian_matrix` of the
    merged edges; its entries are exact integer sums while they stay below 2**53.
    """
    left, right, weight = _merge_edges(d, weighted_edges)
    return Laplacian(m=_laplacian_matrix(d, left, right, weight.astype(float)), n=int(weight.sum()),
                     component=_components(d, left, right))


def build_laplacian_from_design(d: int, design: np.ndarray) -> Laplacian:
    """Laplacian of an (n, 2) design array (each row one unit-weight comparison)."""
    design = np.asarray(design, dtype=np.intp)
    if design.ndim != 2 or design.shape[1] != 2:
        raise ValueError(f"design must have shape (n, 2), got {design.shape}")
    return build_laplacian(d, np.column_stack((design, np.ones(len(design), dtype=np.intp))))


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
    """Uniform random simple k-regular graph by the pairing model, kept only if well-connected.

    lambda2 > tau exactly when M - tau I + (tau + 1) J / d is positive definite
    (it maps the ones vector to itself and shifts the rest of M's spectrum by
    -tau), so one Cholesky factorization accepts or rejects a graph.
    """
    tau = _EXPANDER_LAMBDA2_FRACTION * k
    for _ in range(_EXPANDER_MAX_ATTEMPTS):
        stubs = np.repeat(np.arange(d), k)
        rng.shuffle(stubs)
        pairs = stubs.reshape(-1, 2)
        edges, _ = index_pairs(d, pairs[:, 0], pairs[:, 1])
        if len(edges) < len(pairs) or np.any(pairs[:, 0] == pairs[:, 1]):
            continue  # multi-edge or self-loop: resample
        shifted = _laplacian_matrix(d, edges[:, 0], edges[:, 1], np.ones(len(edges)))
        shifted += (tau + 1.0) / d
        shifted[np.diag_indices(d)] -= tau
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            continue  # lambda2 <= tau: resample
        return list(map(tuple, edges.tolist()))
    raise RuntimeError(f"failed to sample a {k}-regular expander on {d} vertices")


def generate_topology(kind: str, d: int, n: int, seed: int = 0, k: int | None = None) -> ComparisonGraph:
    """Build a named comparison topology with ``n`` comparisons spread evenly.

    Every base edge receives ``n // E`` comparisons; the remainder is handed
    out one at a time in lexicographic edge order.
    """
    if d < 2:
        raise ValueError(f"need at least 2 items, got d={d}")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
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

    ``parse`` returns a number or raises ``ValueError`` or ``KeyError``; a bad or non-finite
    value is reported as "<value column> must be <expects>".  ``noun`` names the rows of an empty file.
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


def _split_rows(lines: list[str], row_format: RowFormat, width: int):
    """Check and parse a block with list operations: ``(ids, values)``, or why a row fails.

    ``ids`` are the id fields in row order.  The reason comes from the first
    check that fails: comma count, then values (parsed and finite), then the
    two ids of a row.  The checks are per row, so a one-line block fails with
    that line's reason, quoting its stripped fields.
    """
    rows = [text for text in map(str.strip, lines) if text and text[0] != "#"]
    fields = list(map(str.strip, ",".join(rows).split(","))) if rows else []
    if set(map(str.count, rows, repeat(","))) - {width - 1}:
        return f"expected {row_format.header!r}, got {','.join(fields)!r}"
    texts = fields[width - 1::width]
    try:
        values = list(map(row_format.parse, texts))
        if not all(map(math.isfinite, values)):
            raise ValueError
    except (ValueError, KeyError, OverflowError):  # OverflowError: an int no float holds
        return f"{row_format.header.rsplit(',', 1)[1]} must be {row_format.expects}, got {','.join(texts)!r}"
    del fields[width - 1::width]  # what is left is the rows' ids, row by row
    if width == 3 and not all(map(str.__ne__, fields[0::2], fields[1::2])):
        return "an item cannot be compared with itself"
    return fields, values


def _parse_span(text, row_format: RowFormat, width: int):
    """Parse one text stream's rows a block at a time: ``(names, index, values, lines, failure)``.

    ``names`` are the stream's distinct ids by first appearance, ``index`` (int64 bytes)
    numbers each row's ids in that order, ``values`` holds the parsed values (float64 bytes
    when every one is a float, else a list) and ``lines`` counts the lines read.
    ``failure`` is None, or the first failure met as ``(line, reason)``: the line counted
    from 1 in this stream, or 0 for bytes that are not UTF-8.  A block that fails is read
    again one line at a time by :func:`_split_rows`, so the line named is the first one
    that fails alone.
    """
    ids: defaultdict[str, int] = defaultdict()
    ids.default_factory = ids.__len__  # an unseen id gets the next number
    index = array("q")
    values: list = []
    lines_read = 0
    try:
        while lines := text.readlines(_BLOCK_BYTES):
            if isinstance(block := _split_rows(lines, row_format, width), str):
                # Some line of a failing block fails alone; next() raises StopIteration if none did.
                reasons = (_split_rows([line], row_format, width) for line in lines)
                failure = next((n, r) for n, r in enumerate(reasons, lines_read + 1) if isinstance(r, str))
                return [], b"", [], lines_read, failure
            names, block_values = block
            lines_read += len(lines)
            index.fromlist(list(map(ids.__getitem__, names)))
            values.extend(block_values)
    except UnicodeDecodeError as exc:
        return [], b"", [], lines_read, (0, f"not UTF-8 text: {exc.reason} (0x{exc.object[exc.start]:02x})")
    if all(type(value) is float for value in values):  # bytes: no float object to pickle, unpickle or join
        values = array("d", values).tobytes()
    return list(ids), index.tobytes(), values, lines_read, None


class _Range(io.RawIOBase):
    """Bytes ``start`` to ``end`` of an open file, read by ``os.pread``, which moves no file offset."""

    def __init__(self, fd: int, start: int, end: int) -> None:
        super().__init__()
        self.fd, self.pos, self.end = fd, start, end

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        data = os.pread(self.fd, min(len(buffer), self.end - self.pos), self.pos)
        buffer[:len(data)] = data
        self.pos += len(data)
        return len(data)


def _parse_range(fd: int, start: int, end: int, row_format: RowFormat, width: int):
    """:func:`_parse_span` of bytes ``start`` to ``end``; only a range at byte 0 skips a byte-order mark."""
    reader = io.BufferedReader(_Range(fd, start, end))
    with io.TextIOWrapper(reader, encoding="utf-8-sig" if start == 0 else "utf-8") as text:
        return _parse_span(text, row_format, width)


def _part_starts(fd: int, size: int, parts: int) -> list[int]:
    """Where each of up to ``parts`` byte ranges starts: 0, then after the first newline at or past k * size / parts.

    A newline byte ends a line however the file ends its lines and is never part of a UTF-8
    sequence, so every range holds whole lines.  A search that reaches the end of the file
    ends the list, so a file with few newlines (one ending lines with a bare CR has none)
    gives fewer ranges.
    """
    starts = [0]
    for k in range(1, parts):
        pos = max(size * k // parts, starts[-1])
        while (chunk := os.pread(fd, _BLOCK_BYTES, pos)) and b"\n" not in chunk:
            pos += len(chunk)
        pos += chunk.find(b"\n") + 1  # at the end of the file, chunk is empty and pos stays
        if pos >= size:
            break
        starts.append(pos)
    return starts


def _fork_range(fd: int, start: int, end: int, row_format: RowFormat, width: int):
    """A forked child that parses bytes ``start`` to ``end``: ``(pid, read end of its pipe)``, or None if fork fails.

    The child writes its pickled span to the pipe and leaves through ``os._exit`` whatever
    happens, so it runs none of the caller's cleanup; a failure shows as a non-zero status.
    """
    read_end, write_end = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns that a fork in a multi-threaded process may deadlock the child;
            # read_rows says why this child cannot deadlock.
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        return None
    if pid == 0:
        code = 1
        try:
            os.close(read_end)
            with open(write_end, "wb") as pipe:
                pickle.dump(_parse_range(fd, start, end, row_format, width), pipe, pickle.HIGHEST_PROTOCOL)
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    return pid, read_end


def _collect(child):
    """The span a forked child wrote, or None if it failed; the child is reaped either way."""
    if child is None:
        return None
    pid, read_end = child
    span = status = None
    try:
        with open(read_end, "rb") as pipe:
            span = pickle.load(pipe)
    except (EOFError, pickle.UnpicklingError):  # a short payload
        pass
    finally:
        try:
            status = os.waitpid(pid, 0)[1]
        except ChildProcessError:  # reaped already, as when SIGCHLD is ignored: its status is unknown
            pass
    return span if status == 0 else None  # else killed, or exited non-zero


def _parse_parts(fd: int, starts: list[int], size: int, row_format: RowFormat, width: int) -> list:
    """Spans of the byte ranges that begin at ``starts``, in file order: forked children parse all but the first.

    The caller parses the first range while the children run, then takes each child's span,
    or parses a range itself when its child failed.  Every child is reaped before this returns.
    """
    later = list(zip(starts[1:], [*starts[2:], size]))
    children = []
    try:
        for start, end in later:
            children.append(_fork_range(fd, start, end, row_format, width))
        spans = [_parse_range(fd, 0, starts[1], row_format, width)]
        for start, end in later:
            spans.append(_collect(children.pop(0)) or _parse_range(fd, start, end, row_format, width))
    finally:
        for child in children:
            _collect(child)
    return spans


def _read_spans(path, row_format: RowFormat, width: int) -> list:
    """The spans of a file's parts in file order (see :func:`read_rows`); one streamed span for most files."""
    with open(path, "rb") as raw:
        fd = raw.fileno()
        info = os.fstat(fd)
        size = info.st_size if stat.S_ISREG(info.st_mode) and hasattr(os, "fork") else 0
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
        if len(starts := _part_starts(fd, size, min(cpus, size // _PART_BYTES))) > 1:
            return _parse_parts(fd, starts, size, row_format, width)
        with io.TextIOWrapper(raw, encoding="utf-8-sig") as text:
            return [_parse_span(text, row_format, width)]


def _join_spans(path, spans: list):
    """Join spans in file order: ``(ids, index, values)``, or raise the earliest span's failure.

    ``ids`` maps each id to its number by first appearance in the file, which is the
    order in which the spans' ``names`` first give it; ``index`` is intp.  ``values`` is
    the array numpy makes of all the parsed values in one list: float64 bytes are joined
    as they are when every span has them, and read back as floats into the list otherwise.
    """
    ids: defaultdict[str, int] = defaultdict()
    ids.default_factory = ids.__len__
    index = np.empty(sum(len(span[1]) for span in spans) // 8, dtype=np.intp)  # spans hold int64 bytes
    joined, first_line, row = [], 1, 0
    while spans:  # each span is freed once it is joined
        names, span_index, span_values, lines, failure = spans.pop(0)
        if failure:
            line, reason = failure
            raise DataFormatError(f"{path}, line {first_line + line - 1}: {reason}" if line else f"{path}: {reason}")
        number = np.array(list(map(ids.__getitem__, names)), dtype=np.intp)  # the span's numbers, file-wide
        span_index = np.frombuffer(span_index, dtype=np.int64)
        np.take(number, span_index, out=index[row:row + span_index.size], mode="clip")  # "clip": no buffered copy
        row += span_index.size
        joined.append(span_values)
        first_line += lines
    if all(isinstance(part, bytes) for part in joined):
        return ids, index, np.concatenate([np.frombuffer(part) for part in joined])
    return ids, index, np.array([v for part in joined for v in (array("d", part) if isinstance(part, bytes) else part)])


def read_rows(path, row_format: RowFormat, id_order: str = "first-appearance"):
    """Read a CSV file's rows a block at a time; returns ``(item_ids, index, values)``.

    A leading UTF-8 byte-order mark, blank lines and ``#`` comments are skipped and fields
    are stripped.  The file is read in blocks of about ``_BLOCK_BYTES``, each checked and
    parsed by :func:`_split_rows`; a block that fails is read again one line at a time by
    the same function, and the first bad row raises :class:`DataFormatError` naming the
    file and the line.  Values must be finite and the two ids of a row must differ.
    Item ids are numbered by first appearance as they are read; ``id_order="sorted"``
    renumbers them at the end.  ``index`` is an intp array of shape (n,) for
    one id column or (n, k) for k; ``values`` has the dtype numpy infers for
    the parsed values.  Both are read-only, so an observation set built on them
    shares them instead of copying.

    A regular file of at least two ``_PART_BYTES`` is split, where ``os.fork`` exists, into
    one byte range per usable CPU (at most one per ``_PART_BYTES``), each ending at a
    newline.  Forked children parse the later ranges while the caller parses the first,
    each range numbering its ids by first appearance within it.  The caller joins the
    ranges in file order: it renumbers each one's ids through one lookup array and hands
    numpy the values of all ranges as one list (as one float64 array when every value is a
    float), so the result is exactly what a one-part read gives.  Each range stops at its
    first failure, a bad row or bytes that are not UTF-8, and the earliest range's failure
    is raised, its line counted from the start of the file.  A child that fails in any way
    (fork refused, killed, a non-zero exit, a short payload) leaves its range to the caller,
    and every child is reaped before this returns.  A child runs only pure-Python parsing
    and pickling: it makes no BLAS call and takes no lock that another thread can hold, so
    forking while numpy's BLAS threads exist is safe, and the warning Python 3.12+ gives
    about forking a multi-threaded process is silenced around the fork.  Smaller files,
    pipes and other non-regular files are streamed in one part, with no seek.
    """
    width = row_format.header.count(",") + 1
    ids, index, values = _join_spans(path, _read_spans(path, row_format, width))
    if not values.size:
        raise DataFormatError(f"{path}: no {row_format.noun} rows found")
    item_ids = list(ids)
    if id_order == "sorted":
        order = sorted(range(len(item_ids)), key=item_ids.__getitem__)
        index = np.argsort(order)[index]  # the inverse permutation maps old numbers to new
        item_ids = [item_ids[i] for i in order]
    if width > 2:
        index = index.reshape(len(values), width - 1)
    index.setflags(write=False)
    values.setflags(write=False)
    return tuple(item_ids), index, values


def read_edge_list(path) -> tuple[ComparisonGraph, list[str]]:
    """Read ``left_id,right_id,weight`` rows; ids are indexed by first appearance."""
    item_ids, pairs, weights = read_rows(path, EDGE_ROWS)
    return comparison_graph(len(item_ids), np.column_stack((pairs, weights))), list(item_ids)
