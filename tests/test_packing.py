import dataclasses
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

import rateorank as rr
from rateorank import packing as packing_module


def _greedy_oracle(length, dist, target):
    kept = []
    for v in range(1 << length):
        if all(bin(v ^ k).count("1") >= dist for k in kept):
            kept.append(v)
            if len(kept) >= target:
                break
    return [[(v >> i) & 1 for i in range(length)] for v in kept]


def _complete_laplacian(d):
    return rr.build_laplacian(d, rr.generate_topology("complete", d, d * (d - 1) // 2).edges)


class TestHammingBall:
    def test_matches_binomial_sums(self):
        for length in (1, 5, 12):
            for radius in range(length + 1):
                expected = sum(math.comb(length, r) for r in range(radius + 1))
                assert rr.hamming_ball_volume(length, radius) == expected
        assert rr.hamming_ball_volume(10, 0) == 1
        assert rr.hamming_ball_volume(10, 10) == 1024


class TestGvCode:
    @pytest.mark.parametrize("length,dist,target", [
        (10, 3, 40), (12, 5, 30), (8, 4, 6), (4, 3, 100),
        (29, 5, 49),  # the code behind `pack --d 30 --alpha 0.15`
        (17, 9, 100),  # scans two blocks of the space, then runs out
        (40, 4, 60),  # codewords above 32 bits
        (70, 3, 20),  # longer than a uint64 word: coordinates past bit 63 stay 0
    ])
    def test_matches_sequential_greedy(self, length, dist, target):
        code = rr.gv_code(length, dist, target)
        expected = _greedy_oracle(length, dist, target)
        assert code.words.tolist() == expected
        assert code.words.dtype == np.int64
        assert code.shortfall is (len(expected) < target)

    def test_scan_allocates_one_block(self):
        tracemalloc.start()
        try:
            rr.gv_code(29, 5, 49)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20  # a 2^16-word block of uint64 is 0.5 MiB

    def test_pairwise_distance_and_volume_guarantee(self):
        code = rr.gv_code(11, 4, 10**6)  # force exhaustion of the space
        words = code.words
        assert code.shortfall
        diffs = (words[:, None, :] != words[None, :, :]).sum(axis=2)
        off_diag = diffs[~np.eye(code.count, dtype=bool)]
        assert off_diag.min() >= 4
        assert code.count >= 2**11 / rr.hamming_ball_volume(11, 3)

    def test_stops_at_target(self):
        code = rr.gv_code(11, 4, 7)
        assert code.count == 7
        assert not code.shortfall
        bigger = rr.gv_code(11, 4, 9)
        assert bigger.words[:7].tolist() == code.words.tolist()  # greedy prefix property

    def test_validation(self):
        with pytest.raises(ValueError):
            rr.gv_code(0, 1, 1)
        with pytest.raises(ValueError):
            rr.gv_code(5, 6, 1)
        with pytest.raises(ValueError):
            rr.gv_code(5, 2, 0)


class TestPackingRate:
    def test_formula(self):
        for alpha in (0.05, 0.15, 0.3):
            expected = (math.log(2.0) + alpha * math.log(alpha) - alpha) / 2.0
            assert rr.packing_rate(alpha) == pytest.approx(expected, abs=1e-15)
        assert rr.packing_rate(0.15) == pytest.approx(0.12928959141353158, abs=1e-15)

    def test_positive_below_crossover_and_decreasing(self):
        alphas = np.linspace(0.01, 0.32, 32)
        rates = [rr.packing_rate(a) for a in alphas]
        assert all(r > 0 for r in rates)
        decreasing = [rr.packing_rate(a) for a in np.linspace(0.01, 0.9, 90)]
        assert all(a > b for a, b in zip(decreasing, decreasing[1:]))
        assert rr.packing_rate(0.4) < 0  # dense packings cost more than e^0 per dim
        with pytest.raises(ValueError):
            rr.packing_rate(0.0)
        with pytest.raises(ValueError):
            rr.packing_rate(1.0)


class TestBuildPacking:
    def test_small_complete_graph(self):
        lap = _complete_laplacian(12)
        packing = rr.build_packing(lap, 1.0, 0.2)
        assert packing.beta == pytest.approx(rr.packing_rate(0.2))
        assert packing.count >= math.ceil(math.exp(packing.beta * 12))
        for w in packing.vectors:
            assert isinstance(w, rr.QualityVector)
            assert abs(w.values.sum()) < 1e-10
        arr = packing.as_array()
        for i in range(packing.count):
            for j in range(i + 1, packing.count):
                diff = arr[i] - arr[j]
                val = diff @ lap.m @ diff
                assert 0.2 - 1e-8 <= val <= 4.0 + 1e-8

    def test_report_matches_direct_computation(self):
        lap = _complete_laplacian(10)
        packing = rr.build_packing(lap, 2.0, 0.25)
        report = rr.verify_packing(packing)
        assert report.ok and report.failures == ()
        # bounds scale with delta^2
        assert report.min_pair >= 0.25 * 4.0 - 1e-8
        assert report.max_pair <= 4.0 * 4.0 + 1e-8

    def test_star_topology_lift(self):
        # A less symmetric spectrum exercises the eigenvalue scaling.
        lap = rr.build_laplacian(9, rr.generate_topology("star", 9, 24).edges)
        packing = rr.build_packing(lap, 0.5, 0.3)
        assert rr.verify_packing(packing).ok

    def test_corrupted_packing_fails_verification(self):
        lap = _complete_laplacian(10)
        packing = rr.build_packing(lap, 1.0, 0.25)
        dup = rr.Packing(
            laplacian=packing.laplacian,
            delta=packing.delta,
            alpha=packing.alpha,
            vectors=(packing.vectors[0],) + packing.vectors[: packing.count - 1],
        )
        report = rr.verify_packing(dup)
        assert not report.ok
        assert report.failures[-1].endswith("; worst pair (0, 1)")

    @pytest.mark.parametrize("kind,d,n,delta,alpha", [("complete", 10, 45, 1.0, 0.25), ("star", 9, 24, 0.5, 0.3)])
    def test_gram_separations_match_pairwise_loop(self, kind, d, n, delta, alpha):
        lap = rr.build_laplacian(d, rr.generate_topology(kind, d, n).edges)
        packing = rr.build_packing(lap, delta, alpha)
        arr = packing.as_array()
        pairs = [(arr[i] - arr[j]) @ lap.m @ (arr[i] - arr[j])
                 for i in range(packing.count) for j in range(i + 1, packing.count)]
        report = rr.verify_packing(packing)
        assert report.min_pair == pytest.approx(min(pairs), rel=1e-12)
        assert report.max_pair == pytest.approx(max(pairs), rel=1e-12)

    @pytest.mark.parametrize("corrupt,expected", [
        (lambda vectors: vectors[:1], "fewer vectors"),
        # A 5e-10 sum is past 1e-10 * delta but inside QualityVector's 1e-9; shifting every entry
        # by the same amount leaves every seminorm separation as it was.
        (lambda vectors: (rr.QualityVector(vectors[0].values + 5e-11),) + vectors[1:], "not centred"),
        (lambda vectors: vectors[:1] + vectors[:-1], "squared separations"),
    ], ids=["too-few", "off-centre", "duplicated"])
    def test_failures_name_the_condition(self, corrupt, expected):
        packing = rr.build_packing(_complete_laplacian(10), 1.0, 0.25)
        report = rr.verify_packing(dataclasses.replace(packing, vectors=corrupt(packing.vectors)))
        assert len(report.failures) == 1 and expected in report.failures[0]
        assert not report.ok

    def test_centring_is_judged_relative_to_delta(self):
        packing = rr.build_packing(_complete_laplacian(10), 1e6, 0.25)
        shifted = rr.QualityVector(packing.vectors[0].values + 1e-6 / packing.laplacian.d)
        assert rr.verify_packing(dataclasses.replace(packing, vectors=(shifted,) + packing.vectors[1:])).ok

    def test_pack_verifies_once(self, monkeypatch, capsys):
        calls = []
        verify = packing_module.verify_packing
        monkeypatch.setattr(packing_module, "verify_packing", lambda p: calls.append(p) or verify(p))
        assert rr.cli.main(["pack", "--d", "8", "--delta", "1.0", "--alpha", "0.2"]) == 0
        assert len(calls) == 1

    def test_centring_failure_names_no_pair(self, monkeypatch):
        monkeypatch.setattr(packing_module, "_MEAN_ZERO_TOL", 0.0)
        with pytest.raises(rr.PackingConstructionError, match="not centred") as info:
            rr.build_packing(_complete_laplacian(10), 1.0, 0.25)
        assert "pair" not in str(info.value)

    def test_unseparated_packing_fails_at_any_delta(self):
        lap = _complete_laplacian(10)
        for delta in (1e-6, 1.0, 1e8):
            packing = rr.build_packing(lap, delta, 0.25)
            assert rr.verify_packing(packing).ok
            dup = dataclasses.replace(packing, vectors=packing.vectors[:1] + packing.vectors[:-1])
            assert rr.verify_packing(dup).failures[0].startswith("squared separations")

    def test_infeasible_parameters_rejected(self):
        lap = _complete_laplacian(6)
        with pytest.raises(ValueError):
            rr.build_packing(lap, 1.0, 0.95)  # required distance exceeds code length
        with pytest.raises(ValueError):
            rr.build_packing(lap, 0.0, 0.2)
        with pytest.raises(ValueError):
            rr.build_packing(lap, 1.0, 0.0)
        # A delta whose square overflows or underflows to zero would leave a vacuous separation band.
        for delta in (1e200, 1e-200):
            with pytest.raises(ValueError, match=re.escape(f"and so must its square, got {delta}")):
                rr.build_packing(lap, delta, 0.2)
        assert issubclass(rr.PackingConstructionError, ValueError)

    def test_disconnected_graph_rejected(self):
        lap = rr.build_laplacian(6, [(0, 1, 2), (3, 4, 2), (4, 5, 1)])
        with pytest.raises(rr.ConnectivityError):
            rr.build_packing(lap, 1.0, 0.2)


class TestPackingJson:
    def test_document_roundtrip(self, tmp_path):
        lap = _complete_laplacian(8)
        packing = rr.build_packing(lap, 1.5, 0.25)
        path = tmp_path / "packing.json"
        rr.packing_to_json(packing, path)
        doc = json.loads(path.read_text())
        assert doc["delta"] == 1.5
        assert doc["alpha"] == 0.25
        assert doc["beta"] == pytest.approx(rr.packing_rate(0.25))
        vectors = np.array(doc["vectors"])
        assert vectors.shape == (packing.count, 8)
        assert np.allclose(vectors, packing.as_array())
