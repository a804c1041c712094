import csv
import math

import numpy as np
import pytest

import rateorank as rr


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

    def test_one_interval_per_sigma_o_column(self, monkeypatch):
        calls = []
        original = rr.bounds.kappa

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(rr.bounds, "kappa", counting)
        rr.decision_grid((0.1, 10.0), (0.1, 10.0), resolution=40)
        assert len(calls) == 40

    def test_readme_range_reaches_underflow(self):
        rows = rr.decision_grid((0.01, 10.0), (0.01, 10.0), resolution=20)
        assert len(rows) == 400
        tiny = [verdict for _, so, verdict in rows if so < 0.07]
        assert tiny and set(tiny) == {"indeterminate"}

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

    def test_range_validation(self):
        with pytest.raises(ValueError):
            rr.decision_grid((0.0, 1.0), (0.1, 1.0))
        with pytest.raises(ValueError):
            rr.decision_grid((1.0, 0.5), (0.1, 1.0))
        with pytest.raises(ValueError):
            rr.decision_grid((0.1, 1.0), (0.1, 1.0), resolution=0)
