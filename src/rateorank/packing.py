"""Well-separated families of feasible quality vectors.

The construction takes a binary code with guaranteed Hamming separation
(a greedy lexicographic scan over integer words, with Hamming distance the
popcount of their XOR, so it meets the classical volume lower bound),
recenters the codewords to +-1 entries with one zeroed coordinate, and lifts
them through the design Laplacian's half-pseudoinverse.  The lift turns
Hamming distance into squared seminorm distance exactly, which yields
families of mean-zero vectors whose pairwise separations are pinned to a
narrow band -- the raw material for information-theoretic lower bounds on
estimation risk.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConnectivityError, PackingConstructionError
from .graph import Laplacian
from .models import QualityVector

_MEAN_ZERO_TOL = 1e-10
_PAIR_TOL = 1e-8
_SCAN_BLOCK = 1 << 16


@dataclass(frozen=True)
class BinaryCode:
    """A binary code found by greedy lexicographic scan.

    ``words`` has shape (count, length) with 0/1 entries, in the order kept.
    ``shortfall`` is set when the scan exhausted the whole space before
    reaching its target count.
    """

    length: int
    min_distance: int
    words: np.ndarray
    shortfall: bool

    @property
    def count(self) -> int:
        return self.words.shape[0]


def hamming_ball_volume(length: int, radius: int) -> int:
    """Number of binary words within the given Hamming radius of a point."""
    return sum(math.comb(length, r) for r in range(radius + 1))


def gv_code(length: int, min_distance: int, target_count: int) -> BinaryCode:
    """Greedy code: scan words in counting order, keep those far from all kept words.

    Words are uint64 integers (bit ``i`` is coordinate ``i``) at Hamming
    distance ``bitwise_count(a ^ b)``.  In each block of ``_SCAN_BLOCK`` words,
    the first word still far from every kept word is kept until none is left;
    only the kept words are expanded to 0/1 rows.
    Stops as soon as ``target_count`` words are kept.  Run to exhaustion, the
    greedy scan always reaches at least
    ``2**length / hamming_ball_volume(length, min_distance - 1)`` words, the
    classical volume guarantee.
    """
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    if not (1 <= min_distance <= length):
        raise ValueError(f"min_distance must be in [1, {length}], got {min_distance}")
    if target_count < 1:
        raise ValueError(f"target_count must be >= 1, got {target_count}")

    kept: list[np.uint64] = []
    start, total = 0, 1 << length
    while start < total and len(kept) < target_count:
        block = np.arange(start, min(start + _SCAN_BLOCK, total), dtype=np.uint64)
        far = np.ones(block.size, dtype=bool)
        for word in kept:
            far &= np.bitwise_count(block ^ word) >= min_distance
        # The first word still far from every kept word is the next codeword.
        while len(kept) < target_count and far.any():
            kept.append(block[far.argmax()])
            far &= np.bitwise_count(block ^ kept[-1]) >= min_distance
        start += _SCAN_BLOCK
    shifted = np.array(kept, dtype=np.uint64)[:, None] >> np.arange(length, dtype=np.uint64)
    return BinaryCode(
        length=length,
        min_distance=min_distance,
        words=(shifted & np.uint64(1)).astype(np.int64),
        shortfall=len(kept) < target_count,
    )


@dataclass(frozen=True)
class Packing:
    """A separated family of mean-zero vectors lifted from a binary code."""

    laplacian: Laplacian
    delta: float
    alpha: float
    vectors: tuple[QualityVector, ...]

    @property
    def beta(self) -> float:
        return packing_rate(self.alpha)

    @property
    def count(self) -> int:
        return len(self.vectors)

    @functools.cached_property
    def report(self) -> PackingReport:
        """The packing's :func:`verify_packing` report, computed on first use."""
        return verify_packing(self)

    def as_array(self) -> np.ndarray:
        return np.asarray([v.values for v in self.vectors])


@dataclass(frozen=True)
class PackingReport:
    """Exhaustive verification facts for a packing, and each condition it fails, described."""

    min_pair: float
    max_pair: float
    mean_zero_max: float
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def packing_rate(alpha: float) -> float:
    """Exponential rate: families of about e^(rate * d) vectors are achievable."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    return (math.log(2.0) + alpha * math.log(alpha) - alpha) / 2.0


def build_packing(laplacian: Laplacian, delta: float, alpha: float) -> Packing:
    """Build a verified packing of separation scale ``delta`` on a connected design.

    Constructs a binary code of length ``d - 1`` with Hamming separation
    ``ceil(alpha * d)``, signs it, pads the coordinate aligned with the
    Laplacian nullspace with a zero, and lifts through
    ``(delta / sqrt(d)) * U * pinv(Lambda)^(1/2)``.  Every pair of lifted
    vectors then has squared seminorm distance in ``[alpha, 4] * delta^2``.
    """
    if not laplacian.connected:
        raise ConnectivityError("packing construction needs a connected design")
    if not (delta > 0 and 0 < delta * delta < math.inf):
        raise ValueError(f"delta must be positive and finite, and so must its square, got {delta}")
    d = laplacian.d
    beta = packing_rate(alpha)
    min_distance = math.ceil(alpha * d)
    if min_distance > d - 1:
        raise ValueError(f"alpha={alpha} asks for Hamming distance {min_distance} on words of length {d - 1}")
    target = math.ceil(math.exp(beta * d))
    if target < 2:
        raise ValueError(f"alpha={alpha}, d={d} targets fewer than 2 vectors; nothing to pack")

    code = gv_code(d - 1, min_distance, target)
    if code.shortfall:
        raise PackingConstructionError(
            f"greedy code exhausted at {code.count} words; {target} needed for alpha={alpha}, d={d}"
        )

    signs = 2.0 * code.words - 1.0
    # Zero coordinate goes where the zero eigenvalue sits (last, by sort order).
    padded = np.hstack([signs, np.zeros((code.count, 1))])
    # eigh's ascending order flipped, so the one zero eigenvalue of a connected design is last.
    eigenvalues, eigenvectors = (a[..., ::-1] for a in np.linalg.eigh(laplacian.m))
    half_inv = np.append(1.0 / np.sqrt(eigenvalues[:-1]), 0.0)
    lift = eigenvectors * half_inv  # U @ diag(1/sqrt(lambda))
    raw = (delta / math.sqrt(d)) * padded @ lift.T

    # Rows are mean-zero by construction (the zero pad kills the nullspace
    # coordinate); constructing QualityVectors revalidates that, no recentering.
    vectors = tuple(QualityVector(row) for row in raw)
    packing = Packing(laplacian=laplacian, delta=delta, alpha=alpha, vectors=vectors)
    if packing.report.failures:
        raise PackingConstructionError(f"packing failed verification: {'; '.join(packing.report.failures)}")
    return packing


def verify_packing(packing: Packing) -> PackingReport:
    """Check the count target, the centring and the pair band of a packing, at its own delta and alpha.

    Every pair ``i < j`` is checked exhaustively: its squared seminorm distance is
    ``G_ii + G_jj - 2 G_ij`` from the one Gram matrix ``G = A M A'``.  Row sums round
    at the size of ``delta`` and separations at ``delta**2``, so both tolerances scale
    with the packing.  A band failure names the pair farthest outside the band.
    """
    arr = packing.as_array().reshape(packing.count, packing.laplacian.d)
    gram = arr @ packing.laplacian.m @ arr.T
    i, j = np.triu_indices(packing.count, k=1)
    diag = np.diag(gram)
    sep = diag[i] + diag[j] - 2.0 * gram[i, j]
    min_pair = float(sep.min()) if sep.size else float("inf")
    max_pair = float(sep.max()) if sep.size else 0.0
    mean_zero_max = float(np.max(np.abs(arr.sum(axis=1)))) if packing.count else 0.0
    delta_sq = packing.delta * packing.delta
    lo, hi = packing.alpha * delta_sq, 4.0 * delta_sq
    failures = []
    if packing.count < math.ceil(math.exp(packing.beta * packing.laplacian.d)):
        failures.append("fewer vectors than e^(beta d)")
    if mean_zero_max > _MEAN_ZERO_TOL * packing.delta:
        failures.append(f"a vector is not centred (max |sum| {mean_zero_max:.3g})")
    if min_pair < lo - _PAIR_TOL * delta_sq or max_pair > hi + _PAIR_TOL * delta_sq:
        k = int(np.argmax(np.maximum(lo - sep, sep - hi)))
        failures.append(f"squared separations [{min_pair:.6g}, {max_pair:.6g}] leave [{lo:.6g}, {hi:.6g}]; "
                        f"worst pair ({i[k]}, {j[k]})")
    return PackingReport(min_pair=min_pair, max_pair=max_pair, mean_zero_max=mean_zero_max, failures=tuple(failures))


def packing_to_json(packing: Packing, path) -> None:
    """Write the packing as JSON: delta, alpha, beta, and the vector rows."""
    doc = {
        "delta": packing.delta,
        "alpha": packing.alpha,
        "beta": packing.beta,
        "vectors": [v.values.tolist() for v in packing.vectors],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
