import csv
import io
import math

import numpy as np
import pytest

import rateorank as rr
from rateorank.models import _LINKS


class TestKappa:
    def test_matches_erf_oracle(self):
        # kappa = Phi(2B/s) * (1 - Phi(2B/s)) with Phi(x) = (1 + erf(x/sqrt 2)) / 2
        for b, s in ((1.0, 1.0), (0.5, 2.0), (2.0, 0.7), (1.0, 10.0)):
            u = 2.0 * b / s
            phi = 0.5 * (1.0 + math.erf(u / math.sqrt(2.0)))
            assert rr.kappa(b, s) == pytest.approx(phi * (1.0 - phi), rel=1e-13)

    def test_frozen_reference_value(self):
        assert rr.kappa(1.0, 1.0) == pytest.approx(0.02223256344451963, abs=1e-12)

    def test_limits_and_monotonicity(self):
        # Wide noise pushes the comparison probability to a coin flip: kappa -> 1/4.
        assert rr.kappa(1.0, 1e9) == pytest.approx(0.25, abs=1e-9)
        values = [rr.kappa(1.0, s) for s in (4.0, 2.0, 1.0, 0.5, 0.25)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert rr.kappa(1.0, 0.01) == 0.0  # underflows cleanly rather than negative
        assert rr.kappa(1.0, 1e-160) == 0.0  # and (2B / sigma)^2 does not overflow on the way

    def test_is_the_thurstone_cdf_product(self):
        cdf = _LINKS["thurstone"].cdf
        for b, s in ((1.0, 1.0), (0.5, 2.0), (2.0, 0.7), (1.0, 10.0), (1.0, 0.07), (1.0, 1e-6)):
            u = 2.0 * b / s
            assert rr.kappa(b, s) == cdf(u) * cdf(-u)

    def test_depends_on_ratio_only(self):
        assert rr.kappa(2.0, 4.0) == pytest.approx(rr.kappa(0.5, 1.0), rel=1e-14)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            rr.kappa(0.0, 1.0)
        with pytest.raises(ValueError):
            rr.kappa(1.0, -1.0)


class TestMinimaxCvo:
    def test_cardinal_is_exact(self):
        r = rr.minimax_cvo("cardinal", 5, 50, 1.0, 1.0)
        assert r.lower == r.upper == pytest.approx(0.1)
        assert r.norm == "per_item_l2"
        assert r.sample_condition_met
        assert not rr.minimax_cvo("cardinal", 5, 4, 1.0, 1.0).sample_condition_met
        assert not r.in_regime  # constants are calibrated for d > 9
        assert rr.minimax_cvo("cardinal", 10, 50, 1.0, 1.0).in_regime

    def test_thurstone_even_interval(self):
        r = rr.minimax_cvo("thurstone_even", 10, 9000, 1.0, 1.0)
        k = rr.kappa(1.0, 1.0)
        rate = 10.0 / 9000.0
        assert r.lower == pytest.approx(0.0008 * k * rate, rel=1e-12)
        assert r.upper == pytest.approx(5.0 / k**2 * rate, rel=1e-12)
        assert r.lower < r.upper
        assert r.sample_condition_met
        # Sample certification needs n over kappa * (d-1)^2 / (2 * 0.035).
        thresh = k * 81.0 / 0.07
        assert not rr.minimax_cvo("thurstone_even", 10, int(thresh) - 1, 1.0, 1.0).sample_condition_met

    def test_rejects_other_models(self):
        with pytest.raises(rr.ModelKindError):
            rr.minimax_cvo("btl", 10, 100, 1.0, 1.0)
        with pytest.raises(ValueError):
            rr.minimax_cvo("cardinal", 1, 100, 1.0, 1.0)
        with pytest.raises(ValueError):
            rr.minimax_cvo("cardinal", 5, 100, 0.0, 1.0)


class TestMinimaxSeminorm:
    def test_paired_linear_constants(self):
        r = rr.minimax_seminorm("paired_linear", 10, 4500, 1.0, 1.0, 40.5)
        rate = 10.0 / 4500.0
        assert r.lower == pytest.approx(0.00013 * rate, rel=1e-12)
        assert r.upper == pytest.approx(0.68 * rate, rel=1e-12)
        assert r.sample_condition_met
        assert r.norm == "seminorm"

    def test_btl_frozen_example(self):
        r = rr.minimax_seminorm("btl", 10, 1000, 1.0, 1.0, 40.5)
        assert r.upper == pytest.approx(1.2427822274496176, rel=1e-12)
        assert r.lower == pytest.approx(1e-5, rel=1e-12)
        swell = (math.e + 1.0 / math.e) ** 4
        assert r.upper == pytest.approx(1.37 * swell * 0.01, rel=1e-12)

    def test_linear_scaling_in_budget(self):
        a = rr.minimax_seminorm("thurstone", 12, 1000, 1.0, 1.0, 60.0)
        b = rr.minimax_seminorm("thurstone", 12, 2000, 1.0, 1.0, 60.0)
        assert a.lower == pytest.approx(2.0 * b.lower, rel=1e-12)
        assert a.upper == pytest.approx(2.0 * b.upper, rel=1e-12)

    def test_sample_conditions_flip_with_budget(self):
        k = rr.kappa(1.0, 1.0)
        thresh = k * 40.5 / 0.035
        assert rr.minimax_seminorm("thurstone", 10, math.ceil(thresh), 1.0, 1.0, 40.5).sample_condition_met
        assert not rr.minimax_seminorm("thurstone", 10, int(thresh) - 1, 1.0, 1.0, 40.5).sample_condition_met
        btl_thresh = 0.04467 * 40.5
        assert rr.minimax_seminorm("btl", 10, 2, 1.0, 1.0, 40.5).sample_condition_met
        assert not rr.minimax_seminorm("btl", 10, 1, 1.0, 1.0, 40.5).sample_condition_met
        assert btl_thresh < 2.0

    @pytest.mark.parametrize("n, b_bound, message", [
        (0, 1.0, "need a positive budget, got n=0"),
        (100, float("nan"), "b_bound must be positive and finite, got nan"),
        (100, -1.0, "b_bound must be positive and finite, got -1.0"),
    ], ids=["n-0", "b-nan", "b-negative"])
    def test_rejects_budget_and_box(self, n, b_bound, message):
        for report in (lambda: rr.minimax_seminorm("thurstone", 10, n, 1.0, b_bound, 40.5),
                       lambda: rr.minimax_cvo("cardinal", 10, n, 1.0, b_bound)):
            with pytest.raises(ValueError, match=message):
                report()

    @pytest.mark.parametrize("model", ["paired_linear", "thurstone", "btl"])
    def test_noise_squared_past_the_float_range_is_infinite(self, model):
        report = rr.minimax_seminorm(model, 12, 100, 1e200, 1.0, 20.0)
        assert (report.lower, report.upper, report.sample_condition_met) == (np.inf, np.inf, model == "paired_linear")
        cvo = rr.minimax_cvo("cardinal", 12, 100, 1e200, 1.0)
        assert cvo.lower == cvo.upper == np.inf

    def test_btl_swell_past_the_float_range_is_infinite(self):
        # exp(B / sigma) = exp(1000) leaves the float range: the upper end is inf, without a numpy warning.
        report = rr.minimax_seminorm("btl", 12, 100, 1e-3, 1.0, 20.0)
        assert report.upper == np.inf and 0.0 < report.lower < np.inf

    def test_rejects_cardinal_and_bad_trace(self):
        with pytest.raises(rr.ModelKindError):
            rr.minimax_seminorm("cardinal", 10, 100, 1.0, 1.0, 40.5)
        with pytest.raises(ValueError):
            rr.minimax_seminorm("btl", 10, 100, 1.0, 1.0, 0.0)


class TestDecide:
    def test_reference_points(self):
        assert rr.decide(1e-6, 1.0).verdict == "cardinal"
        assert rr.decide(1.0, 1.0).verdict == "indeterminate"
        # Whole-interval dominance: the ordinal upper at sigma_o=1 is ~1.01e4,
        # so ratings must be noisier than ~100.6 before ordinal wins outright.
        assert rr.decide(120.0, 1.0).verdict == "ordinal"
        assert rr.decide(100.0, 1.0).verdict == "indeterminate"

    def test_interval_and_risk_fields(self):
        d = rr.decide(1.0, 1.0)
        k = rr.kappa(1.0, 1.0)
        assert d.cardinal_risk == 1.0
        assert d.ordinal_interval[0] == pytest.approx(0.0008 * k)
        assert d.ordinal_interval[1] == pytest.approx(5.0 / k**2)

    def test_tiny_ordinal_noise_degenerates_to_indeterminate(self):
        # kappa underflows; the upper bound is infinite, never a crash.
        d = rr.decide(1.0, 1e-6)
        assert d.verdict == "indeterminate"
        assert d.ordinal_interval == (0.0, np.inf)

    def test_kappa_squared_underflow_is_infinite_upper(self):
        # kappa(1, 0.07) ~ 7.6e-180 is still positive, but its square underflows.
        assert rr.kappa(1.0, 0.07) > 0.0
        d = rr.decide(1.0, 0.07)
        assert d.verdict == "indeterminate"
        assert d.ordinal_interval[1] == np.inf

    def test_noise_squared_past_the_float_range_is_infinite(self):
        # sigma**2 would raise OverflowError; the product gives inf, and the verdict follows from it.
        d = rr.decide(1e200, 1.0)
        assert (d.verdict, d.cardinal_risk) == ("ordinal", np.inf)
        d = rr.decide(1.0, 1e160)
        assert (d.verdict, d.ordinal_interval) == ("cardinal", (np.inf, np.inf))

    def test_scale_consistency(self):
        for c in (0.1, 3.0, 40.0):
            base = rr.decide(0.3, 2.0, 1.0).verdict
            assert rr.decide(0.3 * c, 2.0 * c, c).verdict == base

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            rr.decide(0.0, 1.0)
        with pytest.raises(ValueError):
            rr.decide(1.0, -2.0)


class TestDecisionGrid:
    def test_matches_pointwise_calls(self):
        rows = rr.decision_grid((0.01, 10.0), (0.1, 5.0), resolution=5)
        assert len(rows) == 25
        for sc, so, verdict in rows:
            assert rr.decide(sc, so).verdict == verdict
        cs = sorted({sc for sc, _, _ in rows})
        assert cs[0] == pytest.approx(0.01) and cs[-1] == pytest.approx(10.0)
        assert np.allclose(np.diff(np.log(cs)), np.log(cs[1] / cs[0]))

    def test_one_by_one_grid_agrees_with_decide_where_a_batched_kappa_rounds_apart(self):
        # At this sigma_o an array call of the CDF rounds kappa one bit away from kappa's scalar call,
        # which moved the grid to "indeterminate" where decide says "cardinal".
        sc, so = 3.300290633221308e-08, 0.30092260332807097
        assert rr.decide(sc, so).verdict == "cardinal"
        assert rr.decision_grid((sc, sc), (so, so), resolution=1) == [(sc, so, "cardinal")]

    @pytest.mark.parametrize("sigma_c_range,sigma_o_range,resolution", [
        ((1e-8, 1e-7), (0.05, 20.0), 40),
        ((0.01, 10.0), (0.01, 10.0), 20),
        ((0.1, 100.0), (0.2, 3.0), 17),
    ])
    def test_every_row_is_decides_verdict(self, sigma_c_range, sigma_o_range, resolution):
        rows = rr.decision_grid(sigma_c_range, sigma_o_range, resolution=resolution)
        assert len(rows) == resolution * resolution
        assert [verdict for _, _, verdict in rows] == [rr.decide(sc, so).verdict for sc, so, _ in rows]

    def test_readme_range_reaches_underflow(self):
        rows = rr.decision_grid((0.01, 10.0), (0.01, 10.0), resolution=20)
        assert len(rows) == 400
        tiny = [verdict for _, so, verdict in rows if so < 0.07]
        assert tiny and set(tiny) == {"indeterminate"}

    def test_subnormal_kappa_squared_and_huge_noise(self):
        # At sigma_o ~ 0.075 kappa^2 is subnormal and 5 / kappa^2 leaves the float range: inf, as in decide.
        rows = rr.decision_grid((0.01, 10.0), (0.074, 0.076), resolution=5)
        assert [verdict for _, _, verdict in rows] == [rr.decide(sc, so).verdict for sc, so, _ in rows]
        assert {verdict for _, _, verdict in rows} == {"indeterminate"}
        assert all(type(sc) is float and type(so) is float for sc, so, _ in rows)
        assert rr.decision_grid((1e200, 1e200), (1.0, 1.0), resolution=1) == [(1e200, 1.0, "ordinal")]

    def test_csv_roundtrip(self, tmp_path):
        rows = rr.decision_grid((0.1, 1.0), (0.5, 2.0), resolution=3)
        path = tmp_path / "grid.csv"
        rr.write_decision_grid(rows, path)
        with open(path, newline="") as fh:
            parsed = list(csv.reader(fh))
        assert parsed[0] == ["sigma_c", "sigma_o", "verdict"]
        assert len(parsed) == 10
        for row, (sc, so, verdict) in zip(parsed[1:], rows):
            assert float(row[0]) == sc and float(row[1]) == so and row[2] == verdict

    def test_csv_bytes_match_csv_writer(self, tmp_path):
        rows = rr.decision_grid((0.1, 100.0), (0.01, 10.0), resolution=12)
        assert {verdict for _, _, verdict in rows} == {"cardinal", "ordinal", "indeterminate"}
        path = tmp_path / "grid.csv"
        rr.write_decision_grid(rows, path)
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(["sigma_c", "sigma_o", "verdict"])
        writer.writerows([repr(sc), repr(so), verdict] for sc, so, verdict in rows)
        assert path.read_bytes() == expected.getvalue().encode("utf-8")

    def test_range_validation(self):
        with pytest.raises(ValueError, match="b_bound must be positive and finite, got nan"):
            rr.decision_grid((0.1, 1.0), (0.1, 1.0), b_bound=float("nan"))
        with pytest.raises(ValueError):
            rr.decision_grid((0.0, 1.0), (0.1, 1.0))
        with pytest.raises(ValueError):
            rr.decision_grid((1.0, 0.5), (0.1, 1.0))
        with pytest.raises(ValueError):
            rr.decision_grid((0.1, 1.0), (0.1, 1.0), resolution=0)
