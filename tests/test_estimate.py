import dataclasses
import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import rateorank as rr
from rateorank import estimate, models
from helpers import STRESS_STALLS, grid_minimum, reference_projection, stress_set


def _feasible_point(rng, d, b):
    z = rng.uniform(-b, b, d)
    z -= z.mean()
    peak = np.max(np.abs(z))
    return z if peak <= b else z * (b / peak)


def _complete_design(d, reps):
    pairs = [(a, b) for a in range(d) for b in range(a + 1, d)]
    return np.array(pairs * reps, dtype=np.intp)


class TestProjection:
    def test_strongly_pinned_case(self):
        x = rr.project_feasible(np.array([100.0, 100.0, 100.0, -5.0]), 1.0)
        assert np.allclose(x, [1 / 3, 1 / 3, 1 / 3, -1.0], atol=1e-9)

    def test_bound_within_rounding_raises(self):
        # The knots c_i -+ 1 vanish in the rounding of 1e20; the sweep would return a point summing to -2.
        with pytest.raises(ValueError, match=r"box bound 1 .*largest \|c_i\| = 1e\+20, d = 4"):
            rr.project_feasible(np.array([1e20, -1e20, 0.0, 5.0]), 1.0)
        x = rr.project_feasible(np.array([1e12, -1e12, 0.0, 5.0]), 1.0)
        assert abs(x.sum()) <= 1e-9 and np.max(np.abs(x)) <= 1.0

    def test_feasible_points_are_fixed(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            d = int(rng.integers(2, 12))
            b = float(rng.uniform(0.2, 3.0))
            z = _feasible_point(rng, d, b)
            assert np.allclose(rr.project_feasible(z, b), z, atol=1e-9)

    def test_output_feasible_and_optimal(self):
        # Optimality via the variational inequality <v - Px, z - Px> <= 0
        # over random feasible z; holds iff Px is the Euclidean projection.
        rng = np.random.default_rng(1)
        for _ in range(200):
            d = int(rng.integers(2, 15))
            b = float(rng.uniform(0.2, 2.0))
            scale = 10.0 ** rng.uniform(-1, 3)
            v = rng.normal(size=d) * scale
            x = rr.project_feasible(v, b)
            assert abs(x.sum()) <= 1e-9
            assert np.max(np.abs(x)) <= b + 1e-9
            for _ in range(10):
                z = _feasible_point(rng, d, b)
                assert (v - x) @ (z - x) <= 1e-8 * max(1.0, scale)

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        v = rng.normal(size=8) * 50
        x = rr.project_feasible(v, 1.0)
        assert np.allclose(rr.project_feasible(x, 1.0), x, atol=1e-10)

    @settings(max_examples=300, deadline=None)
    @given(
        v=st.integers(1, 25).flatmap(
            lambda d: arrays(float, d, elements=st.floats(-1e3, 1e3, allow_nan=False))
        ),
        b=st.floats(0.01, 10.0),
    )
    def test_kkt_conditions(self, v, b):
        x = rr.project_feasible(v, b)
        assert abs(x.sum()) <= 1e-9
        assert np.max(np.abs(x)) <= b * (1 + 1e-12)
        # KKT: x = clip(v_bar - mu) for one shift mu, so r = v_bar - x equals mu
        # on free coordinates, is >= mu where x = b and <= mu where x = -b.
        tol = 1e-9 * max(1.0, float(np.max(np.abs(v))))
        r = (v - v.mean()) - x
        upper = x >= b - 1e-12 * b
        lower = x <= -b + 1e-12 * b
        free = ~(upper | lower)
        if np.any(free):
            mu = float(np.mean(r[free]))
            assert np.ptp(r[free]) <= tol
            assert np.all(r[upper] >= mu - tol)
            assert np.all(r[lower] <= mu + tol)
        else:  # every coordinate on a face: some mu must separate the two faces
            assert np.max(r[lower]) <= np.min(r[upper]) + tol
        assert np.allclose(rr.project_feasible(x, b), x, rtol=0.0, atol=1e-12 * max(1.0, b))

    @pytest.mark.parametrize("d", [2, 3, 8, 25, 200, 2000])
    def test_matches_reference_search(self, d):
        # The prefix-sum breakpoint search in helpers is an independent oracle.  Every
        # third vector is rounded to multiples of b, so that knots c_i - b and c_j + b
        # tie; every third has integer entries summing to zero with b in {0.5, 1, 2},
        # so that the centred knots tie exactly.
        rng = np.random.default_rng(d)
        for trial in range(60 if d <= 200 else 10):
            b = float(rng.uniform(0.05, 5.0))
            v = rng.normal(size=d) * 10.0 ** rng.uniform(-2, 4)
            if trial % 3 == 1:
                v = np.round(v / b) * b
            elif trial % 3 == 2:
                v = rng.integers(-6, 7, size=d).astype(float)
                v[-1] = -v[:-1].sum()
                b = float(rng.choice([0.5, 1.0, 2.0]))
            x = rr.project_feasible(v, b)
            tol = 1e-12 * max(1.0, float(np.max(np.abs(v))))
            assert np.max(np.abs(x - reference_projection(v, b))) <= tol


class TestCardinalFit:
    def test_exact_centered_means(self):
        spec = rr.ModelSpec("cardinal", sigma=0.0)
        design = np.array([0, 0, 1, 1, 2])
        y = np.array([2.0, 4.0, -1.0, 1.0, 3.0])
        obs = rr.ObservationSet(spec, 3, design, y)
        res = rr.mle_fit(obs, rr.FitConfig(b_bound=10.0))
        # means (3, 0, 3) centered to (1, -2, 1)
        assert np.allclose(res.w_hat.values, [1.0, -2.0, 1.0], atol=1e-12)
        assert res.converged and res.iterations == 0

    def test_unrated_item_rejected(self):
        spec = rr.ModelSpec("cardinal", sigma=1.0)
        obs = rr.ObservationSet(spec, 4, np.array([0, 1, 1, 3]), np.zeros(4))
        with pytest.raises(rr.ConnectivityError, match="2"):
            rr.mle_fit(obs, rr.FitConfig())


class TestMleFit:
    def test_noiseless_paired_recovery(self):
        w = rr.QualityVector.centered(np.linspace(-0.8, 0.8, 6))
        spec = rr.ModelSpec("paired_linear", sigma=0.0)
        obs = rr.sample(spec, w, _complete_design(6, 2), 3)
        res = rr.mle_fit(obs, rr.FitConfig(b_bound=1.0))
        assert res.converged
        assert np.max(np.abs(res.w_hat.values - w.values)) < 1e-8
        assert res.final_nll < 1e-14

    def test_box_binds_on_separable_data(self):
        # All comparisons favor item 0: the unconstrained Thurstone MLE
        # diverges, so the fit must stop on the box with both faces active.
        spec = rr.ModelSpec("thurstone", sigma=1.0, b_bound=1.0)
        design = np.array([[0, 1]] * 30)
        obs = rr.ObservationSet(spec, 2, design, np.ones(30))
        res = rr.mle_fit(obs, rr.FitConfig(b_bound=1.0))
        assert res.converged
        assert np.allclose(res.w_hat.values, [1.0, -1.0], atol=1e-8)
        assert res.active_box == (0, 1)

    def test_steps_past_the_box_rounding_name_sigma(self):
        # The Thurstone gradient grows like 1/sigma: at 1e-150 no projection can hold the box of 1 within rounding.
        spec = rr.ModelSpec("thurstone", sigma=1e-150, b_bound=1.0)
        obs = rr.ObservationSet(spec, 3, np.array([[0, 1], [1, 2], [0, 2]]), np.array([1.0, -1.0, 1.0]))
        with pytest.raises(ValueError, match=r"^the thurstone fit at sigma=1e-150 .* box bound 1 .*: box bound 1 is within"):
            rr.mle_fit(obs, rr.FitConfig(b_bound=1.0))

    def test_descent_path_monotone(self):
        rng = np.random.default_rng(9)
        w = rr.QualityVector.centered(rng.uniform(-1, 1, 8), b_bound=1.0)
        for kind in ("thurstone", "btl", "paired_linear"):
            spec = rr.ModelSpec(kind, sigma=1.0, b_bound=1.0)
            obs = rr.sample(spec, w, _complete_design(8, 4), 17)
            res = rr.mle_fit(obs, rr.FitConfig(b_bound=1.0))
            path = np.array(res.nll_path)
            assert res.converged
            assert np.all(np.diff(path) <= 1e-10)
            assert res.final_nll == pytest.approx(path[-1])

    def test_converged_iterate_is_stationary(self):
        rng = np.random.default_rng(21)
        w = rr.QualityVector.centered(rng.uniform(-1, 1, 5), b_bound=1.0)
        spec = rr.ModelSpec("btl", sigma=1.0, b_bound=1.0)
        obs = rr.sample(spec, w, _complete_design(5, 20), 8)
        res = rr.mle_fit(obs, rr.FitConfig(b_bound=1.0))
        g = rr.gradient(spec, res.w_hat.values, obs)
        residual = res.w_hat.values - rr.project_feasible(res.w_hat.values - g, 1.0)
        assert np.linalg.norm(residual) <= 2e-8 * obs.n

    def test_matches_grid_search_small(self):
        rng = np.random.default_rng(30)
        w = rr.QualityVector.centered([0.4, -0.1, -0.3], b_bound=1.0)
        for kind in ("thurstone", "btl"):
            spec = rr.ModelSpec(kind, sigma=1.0, b_bound=1.0)
            obs = rr.sample(spec, w, _complete_design(3, 4), int(rng.integers(2**31)))
            res = rr.mle_fit(obs, rr.FitConfig(b_bound=1.0))
            oracle_val, _ = grid_minimum(spec, obs, 1.0)
            assert res.final_nll <= oracle_val + 1e-6

    @pytest.mark.parametrize("n", [8000, 32000])
    def test_paired_linear_complete_graph_converges_fast(self, n):
        # A quadratic objective with a well-conditioned Hessian: a fit that
        # needs more than a handful of iterations has a broken step rule.
        w = rr.QualityVector.centered(np.random.default_rng(n).uniform(-0.5, 0.5, 10), b_bound=1.0)
        spec = rr.ModelSpec("paired_linear", sigma=1.0)
        obs = rr.sample(spec, w, _complete_design(10, n // 45 + 1)[:n], 7)
        res = rr.mle_fit(obs, rr.FitConfig(b_bound=1.0))
        assert res.converged
        assert res.iterations <= 20

    def test_iteration_cap_reports_nonconvergence(self, monkeypatch):
        monkeypatch.setattr(rr.estimate, "_MAX_ITERS", 1)
        rng = np.random.default_rng(12)
        w = rr.QualityVector.centered(rng.uniform(-1, 1, 10), b_bound=1.0)
        spec = rr.ModelSpec("btl", sigma=1.0, b_bound=1.0)
        obs = rr.sample(spec, w, _complete_design(10, 10), 4)
        res = rr.mle_fit(obs, rr.FitConfig(b_bound=1.0))
        assert not res.converged
        assert res.iterations == 1

    def test_converged_is_read_from_the_stop_reason(self):
        obs = rr.sample(rr.ModelSpec("btl", sigma=1.0, b_bound=1.0), np.zeros(4), _complete_design(4, 5), 2)
        res = rr.mle_fit(obs, rr.FitConfig())
        assert res.stop_reason == "converged" and res.converged
        assert not dataclasses.replace(res, stop_reason="max_iters").converged
        with pytest.raises(TypeError):
            dataclasses.replace(res, converged=False)  # not a field: it cannot disagree with stop_reason

    def test_gradient_arc_rescues_a_failed_newton_arc(self):
        # Covers mle_fit's rescue path: on this Thurstone instance the second Newton arc
        # shrinks onto w without descent (_arc_search returns None), and the
        # projected-gradient arc -g takes the step.  Found by a random search over small fits.
        spec = rr.ModelSpec("thurstone", sigma=0.7802456179271613, b_bound=0.12532333464971926)
        rows = np.array([[7, 5], [4, 2], [6, 2], [1, 4], [2, 7], [1, 2], [0, 1],
                         [1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [6, 7]])
        outcomes = np.array([-1, 1, 1, -1, -1, -1, 1, -1, -1, -1, -1, -1, -1], dtype=float)
        res = rr.mle_fit(rr.ObservationSet(spec, 8, rows, outcomes), rr.FitConfig(b_bound=spec.b_bound))
        assert res.converged and res.stop_reason == "converged"
        assert np.all(np.diff(res.nll_path) <= 0.0)

    def test_ascent_arc_finds_no_step(self):
        # Along +g no step size gives descent, so the arc search halves down to its floor.  With no coordinate
        # free there is no blocking step, so the trial steps are 1, 1/2, 1/4, ... as on mle_fit's gradient arc.
        spec = rr.ModelSpec("btl", sigma=1.0, b_bound=1.0)
        obs = rr.sample(spec, rr.QualityVector.centered([0.5, 0.0, -0.5]), _complete_design(3, 4), 1)
        w = np.zeros(3)
        g = rr.gradient(spec, w, obs)
        assert estimate._blocking_step(w, g, np.zeros(3, dtype=bool), 1.0) == 0.5
        assert estimate._arc_search(spec, obs, w, rr.neg_log_likelihood(spec, w, obs), g, g, 1.0,
                                    np.zeros(3, dtype=bool)) is None

    def test_no_descent_stops_on_line_search(self, monkeypatch):
        monkeypatch.setattr(estimate, "_arc_search", lambda *args: None)
        spec = rr.ModelSpec("btl", sigma=1.0, b_bound=1.0)
        obs = rr.sample(spec, rr.QualityVector.centered([0.5, 0.0, -0.5]), _complete_design(3, 4), 1)
        res = rr.mle_fit(obs, rr.FitConfig(b_bound=1.0))
        assert res.stop_reason == "line_search"
        assert not res.converged
        assert len(res.nll_path) == 1

    def test_active_box_is_relative_to_the_bound(self):
        # Balanced outcomes: the fit stays at w = 0, which is nowhere near a box of 1e-10.
        spec = rr.ModelSpec("btl", sigma=1.0, b_bound=1e-10)
        design = np.array([[0, 1], [1, 2], [0, 2]] * 2)
        obs = rr.ObservationSet(spec, 3, design, np.array([1, 1, 1, -1, -1, -1.0]))
        res = rr.mle_fit(obs, rr.FitConfig(b_bound=1e-10))
        assert res.converged and np.array_equal(res.w_hat.values, np.zeros(3))
        assert res.active_box == ()

    def test_result_carries_the_design_laplacian(self):
        design = _complete_design(4, 5)
        spec = rr.ModelSpec("btl", sigma=1.0, b_bound=1.0)
        obs = rr.sample(spec, rr.QualityVector.centered([0.3, 0.1, -0.1, -0.3]), design, seed=2)
        result = rr.mle_fit(obs, rr.FitConfig())
        assert np.array_equal(obs.laplacian.m, rr.build_laplacian_from_design(4, design).m)
        assert "laplacian" not in repr(result)
        ratings = rr.sample(rr.ModelSpec("cardinal", sigma=1.0), rr.QualityVector.centered([0.5, -0.5]),
                            np.array([0, 1, 0, 1]), seed=0)
        rr.mle_fit(ratings, rr.FitConfig())
        with pytest.raises(rr.ModelKindError):
            ratings.laplacian

    def test_disconnected_design_rejected(self):
        for kind in ("paired_linear", "thurstone", "btl"):
            spec = rr.ModelSpec(kind, sigma=1.0, b_bound=1.0)
            design = np.array([[0, 1], [2, 3]])
            y = np.ones(2)
            obs = rr.ObservationSet(spec, 4, design, y)
            with pytest.raises(rr.ConnectivityError):
                rr.mle_fit(obs, rr.FitConfig(b_bound=1.0))


def _c11_replicate(rep):
    """Replicate ``rep`` of the C11 worker study (d=8, five copies of all 28 pairs, Thurstone
    sigma=0.5, truth linspace(0.8, -0.8), outcome stream 1000 + rep)."""
    pairs = np.array([(a, b) for a in range(8) for b in range(a + 1, 8)])
    design = np.tile(pairs, (5, 1))
    w = np.linspace(0.8, -0.8, 8)
    noisy = w[design[:, 0]] - w[design[:, 1]] + 0.5 * np.random.default_rng(1000 + rep).standard_normal(design.shape[0])
    return design, np.where(noisy >= 0, 1.0, -1.0)


def _c11_fold0_training_set():
    """Replicate 0 of the C11 worker study, minus its CV fold 0."""
    design, y = _c11_replicate(0)
    # cv_sigma's folds at seed 0; fold 0 is held out.
    folds = np.array_split(np.random.default_rng(0).permutation(y.size), 3)
    train = np.concatenate(folds[1:])
    return design[train], y[train]


def test_c11_fold_converges_at_every_labelling():
    # At sigma=0.25 this fit slides down a flat valley onto the box, where a gradient
    # method's iteration count (and whether it reaches the cap) follows the float
    # summation order that the item labels set.
    design, y = _c11_fold0_training_set()
    spec = rr.ModelSpec("thurstone", sigma=0.25, b_bound=1.0)
    fits = []
    for seed in range(12):
        perm = np.random.default_rng(seed).permutation(8) if seed else np.arange(8)
        res = rr.mle_fit(rr.ObservationSet(spec, 8, perm[design], y), rr.FitConfig())
        assert res.converged and res.stop_reason == "converged"
        assert res.iterations <= 30
        fits.append((res.final_nll, res.w_hat.values[perm]))
    nll0, w0 = fits[0]
    for nll, w in fits[1:]:
        assert nll == pytest.approx(nll0, rel=1e-9, abs=0.0)
        assert np.max(np.abs(w - w0)) <= 1e-6


def test_c11_fold_fit_takes_the_blocking_step(monkeypatch):
    # At sigma=0.25 each full Newton step carries the coordinate nearest the box past its
    # face; halving from t = 1 rejected 53 trial points over 22 iterations, where the
    # blocking step (the step that takes that coordinate to its face) is accepted.
    design, y = _c11_fold0_training_set()
    nll, calls = models.neg_log_likelihood, []
    monkeypatch.setattr(models, "neg_log_likelihood", lambda *args: calls.append(1) or nll(*args))
    res = rr.mle_fit(rr.ObservationSet(rr.ModelSpec("thurstone", sigma=0.25, b_bound=1.0), 8, design, y),
                     rr.FitConfig())
    assert res.converged
    assert len(calls) - len(res.nll_path) <= 1


def test_stress_stalls_converge():
    # Near-separable fits that stopped at the iteration cap when the Newton arc halved from t = 1
    # (null steps of about 1e-15 accepted by the rounding allowance), or that zigzagged when a
    # Newton step pushed a free coordinate on its face outward and the projected-gradient arc
    # moved it back inside.  One pass over the stream covers all of them.
    results = {trial: rr.mle_fit(obs, config) for trial, obs, config in stress_set(max(STRESS_STALLS) + 1)
               if trial in STRESS_STALLS}
    slow = {trial: (res.stop_reason, res.iterations) for trial, res in results.items()
            if not res.converged or res.iterations > 30}
    assert len(results) == len(STRESS_STALLS) and not slow


class TestStart:
    def _obs(self, sigma=0.5, rep=0):
        design, y = _c11_replicate(rep)
        return rr.ObservationSet(rr.ModelSpec("thurstone", sigma=sigma, b_bound=1.0), 8, design, y)

    def test_start_is_keyword_only(self):
        param = inspect.signature(rr.mle_fit).parameters["start"]
        assert param.kind is inspect.Parameter.KEYWORD_ONLY and param.default is None
        with pytest.raises(TypeError):
            rr.mle_fit(self._obs(), rr.FitConfig(), np.zeros(8))

    @pytest.mark.parametrize("start", [np.zeros(7), np.zeros((8, 1)), np.zeros(()),
                                       np.r_[np.nan, np.zeros(7)], np.r_[np.inf, np.zeros(7)]],
                             ids=["short", "column", "scalar", "nan", "inf"])
    def test_bad_start_raises(self, start):
        with pytest.raises(ValueError, match="start"):
            rr.mle_fit(self._obs(), rr.FitConfig(), start=start)

    def test_infeasible_start_is_projected(self):
        obs, config = self._obs(), rr.FitConfig()
        cold = rr.mle_fit(obs, config)
        # Outside the box and off the mean-zero subspace.
        start = np.array([5.0, 3.0, 2.0, 1.5, 1.0, 0.5, -0.5, 9.0])
        res = rr.mle_fit(obs, config, start=start)
        w0 = rr.project_feasible(start, 1.0)
        assert res.nll_path[0] == rr.neg_log_likelihood(obs.model, w0, obs)
        assert res.converged and np.max(np.abs(res.w_hat.values - cold.w_hat.values)) <= 1e-6

    def test_start_at_the_solution_takes_no_iteration(self):
        obs, config = self._obs(), rr.FitConfig()
        cold = rr.mle_fit(obs, config)
        assert cold.iterations > 0
        again = rr.mle_fit(obs, config, start=cold.w_hat.values)
        assert again.converged and again.iterations == 0

    def test_cardinal_fit_ignores_start(self):
        spec = rr.ModelSpec("cardinal", sigma=1.0)
        obs = rr.sample(spec, rr.QualityVector.centered([0.5, 0.0, -0.5]), np.tile(np.arange(3), 4), seed=1)
        cold = rr.mle_fit(obs, rr.FitConfig())
        warm = rr.mle_fit(obs, rr.FitConfig(), start=np.array([9.0, -9.0, 4.0]))
        assert np.array_equal(cold.w_hat.values, warm.w_hat.values) and warm.iterations == 0

    @pytest.mark.parametrize("rep", [0, 1])
    @pytest.mark.parametrize("sigma", [0.25, 0.5, 1.0, 2.0])
    def test_random_starts_reach_the_cold_solution(self, rep, sigma):
        # The NLL is strictly convex on the feasible set, so the start moves only the path.
        obs, config = self._obs(sigma, rep), rr.FitConfig()
        cold = rr.mle_fit(obs, config)
        rng = np.random.default_rng(rep)
        for _ in range(5):
            res = rr.mle_fit(obs, config, start=rng.uniform(-3.0, 3.0, 8))
            assert res.converged
            assert np.max(np.abs(res.w_hat.values - cold.w_hat.values)) <= 1e-6


@st.composite
def _complete_fit_instances(draw, kinds=("paired_linear", "thurstone", "btl")):
    """A fit on a complete design with every pair seen both ways, plus random extra rows.

    Binary data see every pair won once and lost once, so no margin is driven
    into a tail where the likelihood is flat; with sigma <= 2 the curvature on
    the free coordinates stays large enough that the stopping tolerance pins
    each fit far inside the 1e-6 the properties are checked to.
    """
    kind = draw(st.sampled_from(kinds))
    d = draw(st.integers(2, 6))
    pairs = [(a, b) for a in range(d) for b in range(a + 1, d)]
    flips = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    base = [(b, a) if flip else (a, b) for (a, b), flip in zip(pairs, flips)]
    extra = draw(st.lists(st.sampled_from(base + [(b, a) for a, b in base]), max_size=30))
    if kind == "paired_linear":
        rows = base + extra
        y = draw(st.lists(st.floats(-2.0, 2.0), min_size=len(rows), max_size=len(rows)))
    else:
        rows = base + [(b, a) for a, b in base] + extra
        signs = st.sampled_from([1.0, -1.0])
        y = [1.0] * (2 * len(base)) + draw(st.lists(signs, min_size=len(extra), max_size=len(extra)))
    sigma = draw(st.floats(0.25, 2.0))
    b_bound = draw(st.floats(0.25, 2.0))
    spec = rr.ModelSpec(kind, sigma=sigma, b_bound=b_bound)
    return spec, rr.ObservationSet(spec, d, np.array(rows, dtype=np.intp), np.array(y))


class TestSolverProperties:
    @settings(max_examples=100, deadline=None)
    @given(_complete_fit_instances(), st.randoms(use_true_random=False))
    def test_relabelling_items(self, instance, random):
        spec, obs = instance
        perm = np.array(random.sample(range(obs.d), obs.d))
        config = rr.FitConfig(b_bound=spec.b_bound)
        base = rr.mle_fit(obs, config)
        moved = rr.mle_fit(rr.ObservationSet(spec, obs.d, perm[obs.design], obs.outcomes), config)
        assert base.converged and moved.converged
        assert np.max(np.abs(moved.w_hat.values[perm] - base.w_hat.values)) <= 1e-6
        assert moved.final_nll == pytest.approx(base.final_nll, rel=1e-9, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(_complete_fit_instances(kinds=("thurstone", "btl")))
    def test_sigma_scaling_identity(self, instance):
        # Binary likelihoods depend on w / sigma only, so the fit at (sigma, B) is
        # sigma times the fit at (1, B / sigma).
        spec, obs = instance
        sigma, b_bound = spec.sigma, spec.b_bound
        fit = rr.mle_fit(obs, rr.FitConfig(b_bound=b_bound))
        unit = rr.mle_fit(obs.with_sigma(1.0), rr.FitConfig(b_bound=b_bound / sigma))
        assert fit.converged and unit.converged
        assert np.max(np.abs(fit.w_hat.values - sigma * unit.w_hat.values)) <= 1e-6
        assert fit.final_nll == pytest.approx(unit.final_nll, rel=1e-9, abs=1e-12)

    def test_newton_step_is_zero_without_curvature(self):
        # CG meets no curvature on its first direction and returns the zero step it started from.
        pairs = np.array([[0, 1], [1, 2], [0, 2]])
        free = np.ones(3, dtype=bool)
        step = estimate._free_newton_step(pairs, np.zeros(3), free, np.array([1.0, -2.0, 0.5]))
        assert np.array_equal(step, np.zeros(3))


class TestFitConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            rr.FitConfig(b_bound=0.0)
        with pytest.raises(TypeError):
            rr.FitConfig(max_iters=10)  # the iteration cap is the solver's own
        with pytest.raises(ValueError):
            rr.FitConfig(sigma_grid=(2.0, 1.0))
        with pytest.raises(ValueError):
            rr.FitConfig(sigma_grid=())
        with pytest.raises(ValueError, match="seed must be a non-negative integer, got -3"):
            rr.FitConfig(seed=-3)

    def test_default_grid_is_log_spaced(self):
        grid = np.array(rr.DEFAULT_SIGMA_GRID)
        assert grid[0] == 0.0625 and grid[-1] == 16.0
        assert np.allclose(np.diff(np.log2(grid)), 1.0)


class TestCvSigma:
    def _btl_obs(self, n_reps, seed=0):
        w = rr.QualityVector.centered(np.linspace(-0.9, 0.9, 6), b_bound=1.0)
        spec = rr.ModelSpec("btl", sigma=1.0, b_bound=1.0)
        return rr.sample(spec, w, _complete_design(6, n_reps), seed)

    def test_deterministic_table(self):
        obs = self._btl_obs(10)
        cfg = rr.FitConfig(sigma_grid=(0.5, 1.0, 2.0), seed=5)
        a = rr.cv_sigma(obs, cfg)
        b = rr.cv_sigma(obs, cfg)
        assert a == b
        sigmas = [s for s, _ in a[1]]
        assert sigmas == [0.5, 1.0, 2.0]

    def test_tie_breaks_toward_smaller_sigma(self):
        # The squared-error objective ignores sigma, so all grid points tie.
        w = rr.QualityVector.centered(np.linspace(-1, 1, 4))
        spec = rr.ModelSpec("paired_linear", sigma=1.0)
        obs = rr.sample(spec, w, _complete_design(4, 5), 2)
        best, table = rr.cv_sigma(obs, rr.FitConfig(b_bound=2.0, sigma_grid=(0.5, 1.0, 2.0), seed=0))
        assert best == 0.5
        scores = [s for _, s in table]
        assert max(scores) - min(scores) < 1e-9

    def test_needs_three_rows(self):
        spec = rr.ModelSpec("btl", sigma=1.0, b_bound=1.0)
        obs = rr.ObservationSet(spec, 3, np.array([[0, 1], [1, 2]]), np.array([1.0, -1.0]))
        with pytest.raises(rr.InsufficientDataError):
            rr.cv_sigma(obs, rr.FitConfig())

    def test_disconnected_training_fold_named(self):
        # Item 2 hangs on a single comparison; whichever fold holds that row
        # out leaves a disconnected training graph.
        spec = rr.ModelSpec("btl", sigma=1.0, b_bound=1.0)
        design = np.array([[0, 1]] * 11 + [[1, 2]])
        y = np.ones(12)
        obs = rr.ObservationSet(spec, 3, design, y)
        with pytest.raises(rr.FoldError, match="fold"):
            rr.cv_sigma(obs, rr.FitConfig(sigma_grid=(1.0,), seed=0))

    def test_rejects_box_bound_scales(self):
        # Binary likelihoods depend on w / sigma only, so any sigma whose
        # rescaled optimum still fits in the box ties with the truth; what CV
        # can rule out is a sigma so large the box clips the rescaled fit.
        for run in range(6):
            obs = self._btl_obs(40, seed=run)
            best, table = rr.cv_sigma(obs, rr.FitConfig(b_bound=1.0, sigma_grid=(0.25, 1.0, 4.0), seed=run))
            assert best in (0.25, 1.0)
            scores = dict(table)
            assert scores[4.0] < max(scores[0.25], scores[1.0])


def _cv_warm_and_cold(monkeypatch, obs, config):
    """``cv_sigma`` as written and with every fold fit started at zero; each with its total fold iterations."""
    original = estimate.mle_fit
    runs = []
    for keep_start in (True, False):
        iterations = []

        def fit(obs, config, *, start=None):
            result = original(obs, config, start=start if keep_start else None)
            iterations.append(result.iterations)
            return result

        monkeypatch.setattr(estimate, "mle_fit", fit)
        best, table = rr.cv_sigma(obs, config)
        runs.append((best, table, sum(iterations)))
    return runs


def _plateau_obs():
    # The box binds at none of the five smallest sigma of the default grid, so their fits are one w / sigma
    # and their scores tie: the winner is the first of them, by the strict > of the table scan.
    w = rr.QualityVector.centered(np.linspace(-0.9, 0.9, 6), b_bound=1.0)
    return rr.sample(rr.ModelSpec("btl", sigma=1.0, b_bound=1.0), w, _complete_design(6, 40), 3), rr.FitConfig(seed=3)


def _cv_fixtures():
    for rep in (0, 1):
        design, y = _c11_replicate(rep)
        obs = rr.ObservationSet(rr.ModelSpec("thurstone", sigma=0.5, b_bound=1.0), 8, design, y)
        yield pytest.param(obs, rr.FitConfig(sigma_grid=(0.25, 0.5, 1.0, 2.0), seed=0), id=f"c11-{rep}")
    w = rr.QualityVector.centered(np.linspace(-0.9, 0.9, 6), b_bound=1.0)
    obs = rr.sample(rr.ModelSpec("btl", sigma=1.0, b_bound=1.0), w, _complete_design(6, 10), 0)
    yield pytest.param(obs, rr.FitConfig(sigma_grid=(0.5, 1.0, 2.0), seed=5), id="btl")
    yield pytest.param(*_plateau_obs(), id="plateau")
    # Item 0 wins every comparison, so the box binds from the smallest sigma of the default grid on.
    design = _complete_design(6, 6)
    y = rr.sample(rr.ModelSpec("btl", sigma=0.3, b_bound=1.0), -w.values, design, 0).outcomes.copy()
    y[design[:, 0] == 0] = 1.0
    yield pytest.param(rr.ObservationSet(rr.ModelSpec("btl", sigma=1.0, b_bound=1.0), 6, design, y),
                       rr.FitConfig(seed=0), id="saturated")


@pytest.mark.parametrize("obs, config", _cv_fixtures())
def test_cv_warm_starts_match_cold_starts(monkeypatch, obs, config):
    (warm_best, warm_table, warm_iterations), (cold_best, cold_table, cold_iterations) = \
        _cv_warm_and_cold(monkeypatch, obs, config)
    assert warm_best == cold_best
    assert [s for s, _ in warm_table] == [s for s, _ in cold_table]
    for (_, warm), (_, cold) in zip(warm_table, cold_table):
        assert warm == pytest.approx(cold, rel=1e-7, abs=0.0)
    assert warm_iterations < cold_iterations


def test_cv_plateau_ties_go_to_the_smallest_sigma():
    # Each fold's warm start at the next plateau sigma is its last solution scaled, which is already
    # optimal there: the scores tie to the bit, and the documented tie rule picks the smallest sigma.
    best, table = rr.cv_sigma(*_plateau_obs())
    scores = [score for _, score in table]
    assert best == rr.DEFAULT_SIGMA_GRID[0]
    assert scores[:5] == [scores[0]] * 5 and max(scores) == scores[0]
