import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import rateorank as rr
from helpers import grid_minimum, reference_projection


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

    def test_iteration_cap_reports_nonconvergence(self):
        rng = np.random.default_rng(12)
        w = rr.QualityVector.centered(rng.uniform(-1, 1, 10), b_bound=1.0)
        spec = rr.ModelSpec("btl", sigma=1.0, b_bound=1.0)
        obs = rr.sample(spec, w, _complete_design(10, 10), 4)
        res = rr.mle_fit(obs, rr.FitConfig(b_bound=1.0, max_iters=1))
        assert not res.converged
        assert res.iterations == 1

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


def _c11_fold0_training_set():
    """Replicate 0 of the C11 worker study (d=8, five copies of all 28 pairs, Thurstone
    sigma=0.5, truth linspace(0.8, -0.8), outcome stream 1000), minus its CV fold 0."""
    pairs = np.array([(a, b) for a in range(8) for b in range(a + 1, 8)])
    design = np.tile(pairs, (5, 1))
    w = np.linspace(0.8, -0.8, 8)
    noisy = w[design[:, 0]] - w[design[:, 1]] + 0.5 * np.random.default_rng(1000).standard_normal(design.shape[0])
    y = np.where(noisy >= 0, 1.0, -1.0)
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


class TestFitConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            rr.FitConfig(b_bound=0.0)
        with pytest.raises(ValueError):
            rr.FitConfig(max_iters=0)
        with pytest.raises(ValueError):
            rr.FitConfig(sigma_grid=(2.0, 1.0))
        with pytest.raises(ValueError):
            rr.FitConfig(sigma_grid=())

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
