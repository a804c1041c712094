import csv
import dataclasses
import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import rateorank as rr


def _config(**overrides):
    base = dict(
        model=rr.ModelSpec("paired_linear", sigma=1.0),
        topology=rr.TopologySpec(kind="complete", d=6, n=450),
        w_true={"rule": "uniform_box", "b": 0.5},
        trials=50,
        seed=7,
    )
    base.update(overrides)
    return rr.ExperimentConfig(**base)


def _kendall_tau_reference(a, b):
    """Kendall tau-a by the documented rule, one pair at a time: a pair ties in v within d * eps * max|v|."""
    def sign(v, i, j):
        diff = v[i] - v[j]
        return 0 if abs(diff) <= len(v) * np.finfo(float).eps * max(abs(x) for x in v) else (1 if diff > 0 else -1)

    pairs = list(itertools.combinations(range(len(a)), 2))
    return sum(sign(a, i, j) * sign(b, i, j) for i, j in pairs) / len(pairs)


@st.composite
def _tied_vector(draw, d):
    """``d`` values drawn from a few levels, so some are exactly equal, each nudged by a few multiples of eps
    relative to its level: some nudges stay within the tie scale d * eps * max|v| and some leave it."""
    levels = draw(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=4))
    return np.array([level * (1.0 + draw(st.integers(-2 * d, 2 * d)) * np.finfo(float).eps)
                     for level in (draw(st.sampled_from(levels)) for _ in range(d))])


class TestMetrics:
    def test_kendall_tau_extremes(self):
        w = np.array([3.0, 1.0, -1.0, -3.0])
        assert rr.kendall_tau(w, w) == 1.0
        assert rr.kendall_tau(-w, w) == -1.0

    def test_kendall_tau_matches_scipy_without_ties(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a, b = rng.normal(size=7), rng.normal(size=7)
            expected = stats.kendalltau(a, b).statistic
            assert rr.kendall_tau(a, b) == pytest.approx(expected, abs=1e-12)

    def test_kendall_tau_ties_count_zero(self):
        # one tied pair in the estimate: 5 of 6 pairs decided, 4 agree, 1 disagrees
        w_hat = np.array([2.0, 2.0, 1.0, 0.0])
        w_true = np.array([3.0, 2.0, 1.0, 0.0])
        assert rr.kendall_tau(w_hat, w_true) == pytest.approx(5.0 / 6.0)

    def test_kendall_tau_ties_at_rounding(self):
        # 0.1 and its lower neighbour differ by far less than d * eps * max|v| = 3 * eps * 0.3.
        w_hat = np.array([0.3, 0.1, np.nextafter(0.1, 0.0)])
        assert rr.kendall_tau(w_hat, np.array([3.0, 2.0, 1.0])) == 2.0 / 3.0
        # Scaled down, the same vector ties the same pair: the rule is relative to the vector's size.
        assert rr.kendall_tau(w_hat * 1e-200, np.array([3.0, 2.0, 1.0])) == 2.0 / 3.0
        assert rr.kendall_tau(np.array([0.3, 0.1, 0.1 - 1e-15]), np.array([3.0, 2.0, 1.0])) == 1.0

    def test_kendall_tau_ties_equal_btl_estimates(self):
        # Trial 1 of the montecarlo benchmark's first BTL invocation at seed 7: items 2 and 6 win 676
        # comparisons each on the complete design, so their BTL estimates are equal in exact arithmetic,
        # but the fit returns them an ulp or so apart.
        topology = rr.TopologySpec(kind="complete", d=10, n=9000)
        truth = rr.resolve_w_true(_config(topology=topology, w_true={"rule": "uniform_box", "b": 0.5}, seed=303), None)
        spec = rr.ModelSpec("btl", sigma=1.0, b_bound=1.0)
        design = rr.generate_topology("complete", 10, 9000).to_design()
        obs = rr.sample(spec, truth, design, seed=7001)
        wins = np.bincount(np.where(obs.outcomes > 0, design[:, 0], design[:, 1]), minlength=10)
        assert wins[2] == wins[6] == 676
        w_hat = rr.mle_fit(obs, rr.FitConfig(b_bound=1.0)).w_hat.values
        assert abs(w_hat[2] - w_hat[6]) <= 10 * np.finfo(float).eps * np.abs(w_hat).max()
        tied = w_hat.copy()
        tied[6] = tied[2]
        assert rr.kendall_tau(w_hat, truth) == rr.kendall_tau(tied, truth) == 42.0 / 45.0

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_kendall_tau_is_the_pairwise_rule(self, data):
        d = data.draw(st.integers(2, 12))
        vectors = [data.draw(_tied_vector(d)) for _ in range(2)]
        assert rr.kendall_tau(*vectors) == _kendall_tau_reference(*vectors)

    def test_seminorm_matches_quadratic_form(self):
        lap = rr.build_laplacian(3, [(0, 1, 4), (1, 2, 2)])
        w_hat = np.array([0.5, 0.0, -0.5])
        w_true = np.array([0.2, 0.1, -0.3])
        diff = w_hat - w_true
        expected = float(diff @ lap.m @ diff) / 6.0
        assert rr.seminorm_sq(w_hat, w_true, lap) == pytest.approx(expected, rel=1e-12)

    def test_seminorm_ignores_constant_shifts(self):
        lap = rr.build_laplacian(3, [(0, 1, 1), (1, 2, 1)])
        w = np.array([0.4, 0.0, -0.4])
        assert rr.seminorm_sq(w + 5.0, w, lap) == pytest.approx(0.0, abs=1e-12)

    def test_per_item_l2(self):
        assert rr.per_item_l2_sq(np.array([1.0, 0.0]), np.array([0.0, 0.0])) == pytest.approx(0.5)

    def test_scaled_l2_is_affine_invariant(self):
        w = np.array([0.9, 0.2, -0.1, -1.0])
        assert rr.scaled_l2_sq(3.0 * w + 7.0, w) == pytest.approx(0.0, abs=1e-12)
        # A constant vector maps to the midpoint 0, so a tied estimate scores the rescaled truth's mean square:
        # (0.9, 0.2, -0.1) rescales to (1, -0.4, -1).
        assert rr.scaled_l2_sq(np.zeros(3), w[:3]) == pytest.approx(2.16 / 3)

    def test_scaled_l2_hand_case(self):
        w_hat = np.array([1.0, 0.0, -1.0])
        w_true = np.array([1.0, 0.5, -1.0])  # rescales to (1, 0.5, -1) already
        assert rr.scaled_l2_sq(w_hat, w_true) == pytest.approx(0.25 / 3.0)


class TestCardinalDesign:
    def test_round_robin(self):
        design = rr.cardinal_design(3, 8)
        assert design.tolist() == [0, 1, 2, 0, 1, 2, 0, 1]
        with pytest.raises(ValueError):
            rr.cardinal_design(5, 4)


class TestResolveWTrue:
    def test_passthrough_and_array(self):
        w = rr.QualityVector.centered([1.0, 2.0, 3.0])
        cfg = _config(w_true=w, topology=rr.TopologySpec("complete", 3, 30))
        assert rr.resolve_w_true(cfg, None) is w
        cfg = _config(w_true=[0.5, -0.5], topology=rr.TopologySpec("complete", 2, 10))
        assert np.allclose(rr.resolve_w_true(cfg, None).values, [0.5, -0.5])

    def test_uniform_box_rule(self):
        cfg = _config(w_true={"rule": "uniform_box", "b": 0.7})
        a = rr.resolve_w_true(cfg, None)
        b = rr.resolve_w_true(cfg, None)
        assert np.array_equal(a.values, b.values)
        assert a.d == 6
        assert abs(a.values.sum()) < 1e-12
        assert np.max(np.abs(a.values)) == pytest.approx(0.7, abs=1e-12)
        different_seed = rr.resolve_w_true(_config(w_true={"rule": "uniform_box", "b": 0.7}, seed=8), None)
        assert not np.array_equal(a.values, different_seed.values)
        with pytest.raises(ValueError):
            rr.resolve_w_true(_config(w_true={"rule": "uniform_box", "b": -1.0}), None)

    def test_packing_vertex_rule(self):
        lap = rr.build_laplacian(6, rr.generate_topology("complete", 6, 15).edges)
        cfg = _config(w_true={"rule": "packing_vertex", "delta": 1.0, "alpha": 0.2, "index": 1})
        w = rr.resolve_w_true(cfg, lap)
        pack = rr.build_packing(lap, 1.0, 0.2)
        assert np.allclose(w.values, pack.vectors[1].values)
        with pytest.raises(IndexError):
            rr.resolve_w_true(
                _config(w_true={"rule": "packing_vertex", "index": 999}), lap
            )
        with pytest.raises(ValueError):
            rr.resolve_w_true(cfg, None)

    def test_fields_a_rule_does_not_read_are_refused(self):
        for w_true, message in (
            ({"rule": "uniform_box", "bee": 3}, "w_true.bee: the uniform_box rule reads only b"),
            ({"rule": "uniform_box", "b": 0.5, "alpha": 0.3, "index": 7},
             "w_true.alpha: the uniform_box rule reads only b"),
            ({"rule": "packing_vertex", "b": 0.5}, "w_true.b: the packing_vertex rule reads only delta, alpha, index"),
        ):
            with pytest.raises(ValueError, match=re.escape(message)):
                _config(w_true=w_true)

    def test_rule_defaults_are_the_table_defaults(self):
        lap = rr.build_laplacian(6, rr.generate_topology("complete", 6, 15).edges)
        assert rr.sim.W_TRUE_RULES == {"uniform_box": {"b": 1.0},
                                       "packing_vertex": {"delta": 1.0, "alpha": 0.15, "index": 0}}
        for rule, fields in rr.sim.W_TRUE_RULES.items():
            bare = rr.resolve_w_true(_config(w_true={"rule": rule}), lap)
            spelt = rr.resolve_w_true(_config(w_true={"rule": rule, **fields}), lap)
            assert np.array_equal(bare.values, spelt.values)

    def test_unknown_rule(self):
        with pytest.raises(ValueError, match="rule"):
            rr.resolve_w_true(_config(w_true={"rule": "martian"}), None)


class TestRunExperiment:
    def test_cardinal_risk_matches_exact_theory(self):
        cfg = _config(
            model=rr.ModelSpec("cardinal", sigma=1.0),
            topology=rr.TopologySpec("complete", d=4, n=40),
            w_true={"rule": "uniform_box", "b": 0.5},
            trials=300,
        )
        out = rr.run_experiment(cfg)
        est = out["per_item_l2_sq"]
        # centered means: E per-item error = (d-1) sigma^2 / n
        assert abs(est.mean - 0.075) <= 5.0 * est.stderr
        assert est.trials == 300
        assert "seminorm_sq" not in out
        assert out["kendall_tau"].mean > 0.5

    def test_pairwise_seminorm_risk(self):
        out = rr.run_experiment(_config(trials=100))
        est = out["seminorm_sq"]
        # least squares identity: E seminorm^2 = (d-1) sigma^2 / n
        assert abs(est.mean - 5.0 / 450.0) <= 5.0 * est.stderr

    def test_reproducible(self):
        a = rr.run_experiment(_config(trials=10))
        b = rr.run_experiment(_config(trials=10))
        assert a == b

    def test_mismatched_truth_dimension(self):
        cfg = _config(w_true=rr.QualityVector.centered([1.0, -1.0]))
        with pytest.raises(ValueError, match="items"):
            rr.run_experiment(cfg)

    def test_excess_failures_abort(self, monkeypatch):
        monkeypatch.setattr(rr.estimate, "_MAX_ITERS", 1)
        cfg = _config(
            model=rr.ModelSpec("btl", sigma=1.0, b_bound=1.0),
            topology=rr.TopologySpec("complete", d=6, n=60),
            trials=20,
        )
        with pytest.raises(RuntimeError, match="failed to converge.*stopped on max_iters after 1 iterations"):
            rr.run_experiment(cfg)

    def test_line_search_failures_named(self, monkeypatch):
        monkeypatch.setattr(rr.estimate, "_arc_search", lambda *args: None)
        cfg = _config(model=rr.ModelSpec("btl", sigma=1.0, b_bound=1.0),
                      topology=rr.TopologySpec("complete", d=6, n=60), trials=20)
        with pytest.raises(RuntimeError, match="failed to converge.*stopped on line_search"):
            rr.run_experiment(cfg)

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            _config(trials=0)

    def test_negative_seed_refused(self):
        with pytest.raises(ValueError, match="seed must be a non-negative integer, got -5"):
            _config(seed=-5)

    def test_tied_fits_are_scored(self, monkeypatch):
        # Three items, two comparisons a pair and a truth near zero: some trials' fits tie every item.
        fits, mle_fit = [], rr.estimate.mle_fit
        monkeypatch.setattr(rr.estimate, "mle_fit", lambda obs, config: fits.append(mle_fit(obs, config)) or fits[-1])
        out = rr.run_experiment(_config(model=rr.ModelSpec("btl", 1.0, b_bound=1.0),
                                        topology=rr.TopologySpec("complete", d=3, n=6),
                                        w_true={"rule": "uniform_box", "b": 0.1}, trials=200, seed=0))
        assert any(np.ptp(fit.w_hat.values) == 0 for fit in fits)
        assert all(est.trials == 200 for est in out.values())

    def test_fit_box_is_the_model_box(self, monkeypatch):
        # Every trial is fit in the model's box, and the headline bound reports that same B; no config sets it apart.
        configs, mle_fit = [], rr.estimate.mle_fit
        monkeypatch.setattr(rr.estimate, "mle_fit", lambda obs, config: configs.append(config) or mle_fit(obs, config))
        out = rr.run_experiment(_config(model=rr.ModelSpec("btl", 1.0, b_bound=2.0), trials=3))
        assert configs == [rr.FitConfig(b_bound=2.0)] * 3 and out["seminorm_sq"].bound.b_bound == 2.0
        configs.clear()
        out = rr.run_experiment(_config(model=rr.ModelSpec("paired_linear", 0.5), trials=3))
        assert configs == [rr.FitConfig()] * 3 and out["seminorm_sq"].bound.b_bound == 1.0  # an unset box is 1
        with pytest.raises(ValueError, match="box bound must be positive and finite, got -1.0"):
            _config(model=rr.ModelSpec("paired_linear", 0.5, b_bound=-1.0))
        with pytest.raises(TypeError):
            _config(fit=rr.FitConfig())

    def test_experiment_builds_the_laplacian_once(self, monkeypatch):
        calls = []
        original = rr.graph.build_laplacian

        def counting(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(rr.graph, "build_laplacian", counting)
        out = rr.run_experiment(_config(model=rr.ModelSpec("btl", sigma=1.0, b_bound=1.0), trials=5))
        assert out["seminorm_sq"].trials == 5
        # The design's Laplacian is shared by the seminorm metric and all five fits.
        assert calls == [6]

    def test_headline_metric_carries_the_design_bound(self):
        cfg = _config(model=rr.ModelSpec("btl", sigma=1.0, b_bound=1.0), trials=3)
        out = rr.run_experiment(cfg)
        lap = rr.build_laplacian(6, rr.generate_topology("complete", 6, 450, seed=7).edges)
        assert out["seminorm_sq"].bound == rr.minimax_seminorm("btl", 6, 450, 1.0, 1.0, lap.trace_pinv_std)
        assert all(out[m].bound is None for m in out if m != "seminorm_sq")

        cfg = _config(model=rr.ModelSpec("cardinal", sigma=0.5), trials=3)
        out = rr.run_experiment(cfg)
        assert out["per_item_l2_sq"].bound == rr.minimax_cvo("cardinal", 6, 450, 0.5, 1.0)
        assert all(out[m].bound is None for m in out if m != "per_item_l2_sq")

    def test_zero_sigma_carries_no_bound(self):
        out = rr.run_experiment(_config(model=rr.ModelSpec("paired_linear", sigma=0.0), trials=3))
        assert out["seminorm_sq"].trials == 3
        assert all(est.bound is None for est in out.values())


class TestSweep:
    def test_budget_sweep_decreases_risk(self):
        rows = rr.sweep(_config(trials=40), "n", [200, 1800])
        by_value = {}
        for row in rows:
            assert row.param == "n"
            assert row.trials + row.failures == 40
            assert row.failures <= 2
            if row.metric == "seminorm_sq":
                by_value[row.value] = row.mean
        assert by_value[1800] < by_value[200]

    def test_topology_sweep(self):
        rows = rr.sweep(_config(trials=10), "topology.kind", ["complete", "star"])
        kinds = {row.value for row in rows}
        assert kinds == {"complete", "star"}

    def test_each_point_changes_only_its_own_field(self, monkeypatch):
        base = _config(trials=5)
        points = []
        monkeypatch.setattr(rr.sim, "run_experiment", lambda point: points.append(point) or {})
        own_field = {"n": "topology.n", "d": "topology.d", "sigma": "model.sigma", "topology.kind": "topology.kind"}
        values = {"n": [200.0, 300, 900], "d": [7, 8, 4], "sigma": [2.5, 0.5, 1.5],
                  "topology.kind": ["star", "path", "cycle"]}
        assert list(rr.SWEEPABLE) == list(own_field)

        def settings(config):
            return {"seed": config.seed, "trials": config.trials, "w_true": config.w_true,
                    **{f"model.{k}": v for k, v in dataclasses.asdict(config.model).items()},
                    **{f"topology.{k}": v for k, v in dataclasses.asdict(config.topology).items()}}

        for param in rr.SWEEPABLE:
            points.clear()
            assert rr.sweep(base, param, values[param]) == []
            assert len(points) == len(values[param])
            for index, (point, value) in enumerate(zip(points, values[param])):
                assert settings(point) == {**settings(base), "seed": base.seed + 10**7 * index, own_field[param]: value}
        # A library caller's float budget reaches the topology as the int it holds.
        rr.sweep(base, "n", [200.0])
        assert points[-1].topology.n == 200 and type(points[-1].topology.n) is int

    def test_sweep_rejects_unknown_param(self):
        with pytest.raises(ValueError, match="sweep"):
            rr.sweep(_config(trials=5), "delta", [1, 2])
        assert rr.sweep(_config(trials=5), "n", []) == []

    def test_csv_roundtrip(self, tmp_path):
        rows = rr.sweep(_config(trials=8), "sigma", [0.5, 1.0])
        path = tmp_path / "sweep.csv"
        rr.write_sweep_csv(rows, path)
        with open(path, newline="") as fh:
            parsed = list(csv.reader(fh))
        assert parsed[0] == ["param", "value", "metric", "mean", "stderr", "trials", "failures"]
        assert len(parsed) == len(rows) + 1
        for text_row, row in zip(parsed[1:], rows):
            assert text_row[0] == "sigma"
            assert float(text_row[3]) == row.mean  # repr round-trips exactly
