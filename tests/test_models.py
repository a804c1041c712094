import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import expit, log_ndtr
from scipy.stats import norm

import rateorank as rr
from helpers import fd_gradient, fd_hessian
from rateorank.estimate import _hessian_product


def _pairwise_design(d, reps):
    pairs = [(a, b) for a in range(d) for b in range(a + 1, d)]
    return np.array(pairs * reps, dtype=np.intp)


class TestQualityVector:
    def test_centering_enforced(self):
        with pytest.raises(ValueError, match="sum to zero"):
            rr.QualityVector(np.array([1.0, 2.0, -1.0]))
        w = rr.QualityVector.centered([1.0, 2.0, 6.0])
        assert w.values.sum() == pytest.approx(0.0, abs=1e-12)
        assert w.d == 3 and len(w) == 3

    @settings(max_examples=200, deadline=None)
    @given(d=st.integers(2, 2000), log_scale=st.floats(-3.0, 12.0), seed=st.integers(0, 2**32 - 1))
    def test_centering_tolerance_follows_scale(self, d, log_scale, seed):
        rng = np.random.default_rng(seed)
        scale = 10.0**log_scale
        z = rng.normal(size=d)
        z -= z.mean()
        # Centred entries span [-scale, scale]; the offset is removed again by `centered`.
        values = scale * z / np.max(np.abs(z)) + scale * rng.uniform(-1.0, 1.0)
        w = rr.QualityVector.centered(values)
        with pytest.raises(ValueError, match="sum to zero"):
            rr.QualityVector(w.values + 1e-3 * scale / d)

    @pytest.mark.parametrize("offset", [1e6, 1e12])
    def test_centering_an_offset_that_dwarfs_the_spread(self, offset):
        values = offset + np.random.default_rng(0).normal(size=1000)
        w = rr.QualityVector.centered(values)
        assert abs(w.values.sum()) <= 1e-9 * max(1.0, float(np.max(np.abs(w.values))))
        assert np.allclose(w.values, values - values.mean(), rtol=0.0, atol=1e-15 * offset)

    @settings(max_examples=200, deadline=None)
    @given(d=st.integers(2, 200), log_scale=st.floats(-3.0, 6.0), seed=st.integers(0, 2**32 - 1))
    def test_one_centering_pass_when_it_suffices(self, d, log_scale, seed):
        # An input whose one-pass centring already passes the sum check keeps those exact bits.
        values = 10.0**log_scale * np.random.default_rng(seed).normal(size=d)
        once = values - values.mean()
        rr.QualityVector(once)
        assert np.array_equal(rr.QualityVector.centered(values).values, once)

    def test_unit_scale_tolerance_is_absolute(self):
        rr.QualityVector(np.array([0.5, -0.5 + 9e-10]))
        rr.QualityVector(np.array([1e-6, -1e-6 + 9e-10]))
        with pytest.raises(ValueError, match="sum to zero"):
            rr.QualityVector(np.array([0.5, -0.5 + 2e-9]))
        with pytest.raises(ValueError, match="sum to zero"):
            rr.QualityVector(np.array([1.0, -1.0 + 2e-9]))

    def test_box_bound(self):
        rr.QualityVector(np.array([0.5, -0.5]), b_bound=0.5)
        with pytest.raises(ValueError, match="box"):
            rr.QualityVector(np.array([1.5, -1.5]), b_bound=1.0)
        with pytest.raises(ValueError, match="positive"):
            rr.QualityVector(np.array([0.0, 0.0]), b_bound=0.0)

    def test_immutable_and_finite(self):
        w = rr.QualityVector.centered([0.0, 1.0, 2.0])
        with pytest.raises(ValueError):
            w.values[0] = 5.0
        with pytest.raises(ValueError, match="finite"):
            rr.QualityVector(np.array([np.inf, -np.inf]))
        with pytest.raises(ValueError):
            rr.QualityVector(np.array([0.0]))

    def test_as_values(self):
        w = rr.QualityVector.centered([3.0, 1.0])
        assert np.array_equal(rr.as_values(w), w.values)
        arr = np.array([1.0, -1.0])
        assert np.array_equal(rr.as_values(arr), arr)


class TestModelSpec:
    def test_binary_kinds_need_sigma_and_box(self):
        for kind in rr.BINARY_KINDS:
            rr.ModelSpec(kind, sigma=1.0, b_bound=2.0)
            with pytest.raises(ValueError):
                rr.ModelSpec(kind, sigma=0.0, b_bound=1.0)
            with pytest.raises(ValueError):
                rr.ModelSpec(kind, sigma=1.0)

    def test_linear_kinds_allow_zero_sigma(self):
        rr.ModelSpec("cardinal", sigma=0.0)
        rr.ModelSpec("paired_linear", sigma=0.0)
        with pytest.raises(ValueError):
            rr.ModelSpec("cardinal", sigma=-0.1)
        with pytest.raises(ValueError):
            rr.ModelSpec("elo", sigma=1.0)


class TestObservationSet:
    def test_shape_validation(self):
        spec = rr.ModelSpec("paired_linear", sigma=1.0)
        with pytest.raises(ValueError, match="shape"):
            rr.ObservationSet(spec, 3, np.zeros(4, dtype=int), np.zeros(4))
        with pytest.raises(ValueError, match="self-comparison"):
            rr.ObservationSet(spec, 3, np.array([[1, 1]]), np.zeros(1))
        with pytest.raises(IndexError):
            rr.ObservationSet(spec, 3, np.array([[0, 3]]), np.zeros(1))
        cardinal = rr.ModelSpec("cardinal", sigma=1.0)
        with pytest.raises(ValueError, match="shape"):
            rr.ObservationSet(cardinal, 3, np.array([[0, 1]]), np.zeros(1))

    def test_binary_outcomes_validated(self):
        spec = rr.ModelSpec("thurstone", sigma=1.0, b_bound=1.0)
        rr.ObservationSet(spec, 3, np.array([[0, 1], [1, 2]]), np.array([1.0, -1.0]))
        with pytest.raises(ValueError, match=r"\+1 or -1"):
            rr.ObservationSet(spec, 3, np.array([[0, 1]]), np.array([0.5]))

    def test_subset_and_with_sigma(self):
        spec = rr.ModelSpec("btl", sigma=2.0, b_bound=1.0)
        obs = rr.ObservationSet(spec, 3, np.array([[0, 1], [1, 2], [0, 2]]), np.array([1.0, -1.0, 1.0]))
        sub = obs.subset(np.array([2, 0]))
        assert sub.n == 2 and tuple(sub.outcomes) == (1.0, 1.0)
        assert obs.with_sigma(0.5).model.sigma == 0.5
        assert obs.with_sigma(0.5).model.kind == "btl"


class TestProbPositive:
    def test_link_values(self):
        w = rr.QualityVector.centered([2.0, 0.0])
        thur = rr.ModelSpec("thurstone", sigma=1.0, b_bound=1.0)
        assert rr.prob_positive(thur, w, (0, 1)) == pytest.approx(norm.cdf(2.0), abs=1e-12)
        assert rr.prob_positive(thur, w, (1, 0)) == pytest.approx(norm.cdf(-2.0), abs=1e-12)
        btl = rr.ModelSpec("btl", sigma=0.5, b_bound=1.0)
        assert rr.prob_positive(btl, w, (0, 1)) == pytest.approx(expit(4.0), abs=1e-12)

    def test_rejects_cardinal(self):
        with pytest.raises(rr.ModelKindError):
            rr.prob_positive(rr.ModelSpec("cardinal", sigma=1.0), np.zeros(2), (0, 1))


class TestSampling:
    def test_deterministic_under_seed(self):
        w = rr.QualityVector.centered(np.linspace(-1, 1, 5))
        design = _pairwise_design(5, 3)
        spec = rr.ModelSpec("btl", sigma=1.0, b_bound=1.0)
        a = rr.sample(spec, w, design, 42)
        b = rr.sample(spec, w, design, 42)
        assert np.array_equal(a.outcomes, b.outcomes)
        assert not np.array_equal(a.outcomes, rr.sample(spec, w, design, 43).outcomes)

    def test_cardinal_sampling_moments(self):
        w = rr.QualityVector.centered([1.0, -1.0, 0.0])
        spec = rr.ModelSpec("cardinal", sigma=0.0)
        obs = rr.sample(spec, w, np.array([0, 1, 2, 0]), 0)
        assert np.allclose(obs.outcomes, [1.0, -1.0, 0.0, 1.0])

    def test_binary_frequencies_match_link(self):
        rng = np.random.default_rng(7)
        w = rr.QualityVector.centered([0.8, -0.8, 0.0, 0.0])
        design = np.array([(0, 1)] * 4000, dtype=np.intp)
        for kind in rr.BINARY_KINDS:
            spec = rr.ModelSpec(kind, sigma=1.0, b_bound=1.0)
            obs = rr.sample(spec, w, design, int(rng.integers(2**31)))
            freq = float(np.mean(obs.outcomes > 0))
            p = rr.prob_positive(spec, w, (0, 1))
            assert abs(freq - p) < 4.0 * np.sqrt(p * (1 - p) / 4000)

    # sha256 prefixes of the sampled (design, outcomes) bytes for fixed seeds: sampling
    # draws one value per row, and seeded streams must not move.
    SAMPLE_DIGESTS = {
        ("cardinal", 0): "4270fb2252cfe03f",
        ("cardinal", 12345): "15e49698070c63b7",
        ("paired_linear", 0): "2e05615b72562399",
        ("paired_linear", 12345): "3bfd14bc36455c5b",
        ("thurstone", 0): "8e5c000e531a1277",
        ("thurstone", 12345): "212b3fa409a0450c",
        ("btl", 0): "536cae0790076186",
        ("btl", 12345): "44e4acb82f86fb26",
    }

    @pytest.mark.parametrize("kind, seed", sorted(SAMPLE_DIGESTS))
    def test_sample_bytes_unchanged(self, kind, seed):
        w = rr.QualityVector.centered(np.linspace(-1, 1, 5))
        pairs = np.array([(a, b) for a in range(5) for b in range(5) if a != b] * 3, dtype=np.intp)
        spec = rr.ModelSpec(kind, sigma=0.7, b_bound=1.0)
        obs = rr.sample(spec, w, pairs[:, 0] if kind == "cardinal" else pairs, seed)
        raw = np.asarray(obs.design, "<i8").tobytes() + np.asarray(obs.outcomes, "<f8").tobytes()
        assert hashlib.sha256(raw).hexdigest()[:16] == self.SAMPLE_DIGESTS[kind, seed]
        # Drawn on an observation set, the same stream lands in a view sharing its design tables.
        on = rr.ObservationSet(spec, 5, obs.design, np.ones(obs.n))
        drawn = rr.sample(spec, w, on, seed)
        assert np.array_equal(drawn.outcomes, obs.outcomes) and drawn.design is on.design
        assert drawn._design_tables is on._design_tables
        with pytest.raises(ValueError, match="cannot draw"):
            rr.sample(rr.ModelSpec(kind, sigma=0.5, b_bound=1.0), w, on, seed)

    def test_paired_linear_outcomes_are_real(self):
        w = rr.QualityVector.centered([0.3, -0.3])
        spec = rr.ModelSpec("paired_linear", sigma=0.0)
        obs = rr.sample(spec, w, np.array([[0, 1], [1, 0]]), 5)
        assert np.allclose(obs.outcomes, [0.6, -0.6])


class TestLikelihood:
    def test_quadratic_kinds_are_squared_error(self):
        w = np.array([0.5, -0.5, 0.0])
        spec = rr.ModelSpec("paired_linear", sigma=1.0)
        obs = rr.ObservationSet(spec, 3, np.array([[0, 1], [1, 2]]), np.array([2.0, -1.0]))
        assert rr.neg_log_likelihood(spec, w, obs) == pytest.approx((2.0 - 1.0) ** 2 + (-1.0 + 0.5) ** 2)
        card = rr.ModelSpec("cardinal", sigma=1.0)
        cobs = rr.ObservationSet(card, 3, np.array([0, 2]), np.array([1.0, 1.0]))
        assert rr.neg_log_likelihood(card, w, cobs) == pytest.approx(0.25 + 1.0)

    def test_binary_nll_matches_direct_formulas(self):
        w = np.array([0.4, -0.4])
        design = np.array([[0, 1], [1, 0]])
        y = np.array([1.0, 1.0])
        thur = rr.ModelSpec("thurstone", sigma=2.0, b_bound=1.0)
        obs = rr.ObservationSet(thur, 2, design, y)
        expected = -(log_ndtr(0.4) + log_ndtr(-0.4))
        assert rr.neg_log_likelihood(thur, w, obs) == pytest.approx(expected, rel=1e-12)
        btl = rr.ModelSpec("btl", sigma=2.0, b_bound=1.0)
        obs = rr.ObservationSet(btl, 2, design, y)
        expected = float(np.logaddexp(0, -0.4) + np.logaddexp(0, 0.4))
        assert rr.neg_log_likelihood(btl, w, obs) == pytest.approx(expected, rel=1e-12)

    def test_nll_finite_at_extreme_margins(self):
        w = np.array([30.0, -30.0])
        spec = rr.ModelSpec("thurstone", sigma=1.0, b_bound=31.0)
        obs = rr.ObservationSet(spec, 2, np.array([[1, 0]]), np.array([1.0]))
        val = rr.neg_log_likelihood(spec, w, obs)
        assert np.isfinite(val) and val > 100.0

    def test_kind_mismatch_rejected(self):
        spec = rr.ModelSpec("thurstone", sigma=1.0, b_bound=1.0)
        obs = rr.ObservationSet(spec, 2, np.array([[0, 1]]), np.array([1.0]))
        other = rr.ModelSpec("btl", sigma=1.0, b_bound=1.0)
        for fn in (rr.neg_log_likelihood, rr.gradient, rr.hessian):
            with pytest.raises(rr.ModelKindError):
                fn(other, np.zeros(2), obs)


def _fitted(w, obs):
    """Per-row w_item (cardinal) or margin w_left - w_right (pairwise)."""
    if obs.model.kind == "cardinal":
        return w[obs.design]
    return w[obs.design[:, 0]] - w[obs.design[:, 1]]


def _row_terms(spec, w, obs):
    """Row-level reference: per-row loss, gradient coefficient and Hessian weight.

    These are the likelihood formulas evaluated one row at a time, kept here
    to check the grouped evaluation in ``models`` against.  For cardinal the
    coefficient and weight belong to the rated item; for pairwise kinds they
    enter as +coef at ``left`` and -coef at ``right``.
    """
    y, fitted = obs.outcomes, _fitted(w, obs)
    if spec.kind in ("cardinal", "paired_linear"):
        r = y - fitted
        return r * r, -2.0 * r, np.full(obs.n, 2.0)
    z = fitted / spec.sigma
    if spec.kind == "thurstone":
        ratio = np.exp(-0.5 * z * z - 0.5 * np.log(2.0 * np.pi) - log_ndtr(y * z))
        hess = np.maximum(ratio * (ratio + y * z), 0.0) / spec.sigma**2
        return -log_ndtr(y * z), -y * ratio / spec.sigma, hess
    return np.logaddexp(0.0, -y * z), -y * expit(-y * z) / spec.sigma, expit(z) * expit(-z) / spec.sigma**2


def _row_reference(spec, w, obs):
    """NLL, gradient and Hessian summed row by row, plus the magnitude each one sums."""
    d = w.size
    loss, coef, weight = _row_terms(spec, w, obs)
    g, h = np.zeros(d), np.zeros((d, d))
    if spec.kind == "cardinal":
        np.add.at(g, obs.design, coef)
        np.add.at(h, (obs.design, obs.design), weight)
    else:
        left, right = obs.design[:, 0], obs.design[:, 1]
        np.add.at(g, left, coef)
        np.add.at(g, right, -coef)
        np.add.at(h, (left, left), weight)
        np.add.at(h, (right, right), weight)
        np.add.at(h, (left, right), -weight)
        np.add.at(h, (right, left), -weight)
    scales = (np.sum(np.abs(loss)), np.sum(np.abs(coef)), np.sum(weight))
    if spec.kind in ("cardinal", "paired_linear"):
        # A group's mean outcome rounds at the size of y, not of the residual, so the
        # squared-error scales are those of the numbers each residual is formed from.
        size = np.abs(obs.outcomes) + np.abs(_fitted(w, obs))
        scales = (np.sum(size**2), 2.0 * np.sum(size), scales[2])
    return (float(loss.sum()), g, h), scales


@st.composite
def _repeated_pair_instances(draw):
    """An observation set whose rows repeat a few pairs in both orientations, and a point w."""
    kind = draw(st.sampled_from(rr.MODEL_KINDS))
    d = draw(st.integers(2, 7))
    n = draw(st.integers(1, 60))
    sigma = draw(st.floats(0.25, 4.0))
    all_pairs = [(a, b) for a in range(d) for b in range(d) if a != b]
    pool = draw(st.lists(st.sampled_from(all_pairs), min_size=1, max_size=6))
    rows = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    design = np.array(rows, dtype=np.intp)
    if kind == "cardinal":
        design = design[:, 0]
    if kind in rr.BINARY_KINDS:
        outcomes = draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=n, max_size=n))
    else:
        outcomes = draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n))
    w = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=d, max_size=d)))
    spec = rr.ModelSpec(kind, sigma=sigma, b_bound=2.0)
    return spec, w, rr.ObservationSet(spec, d, design, np.array(outcomes))


def _exact_fit_instance():
    # Every residual is 0 row by row, but the group mean (0.1 + 0.1 + 0.1) / 3 rounds up by
    # an ulp, so the grouped residual is 1e-17: why the tolerances scale with |y|.
    spec = rr.ModelSpec("paired_linear", sigma=1.0)
    obs = rr.ObservationSet(spec, 2, np.array([[0, 1], [1, 0], [0, 1]]), np.array([0.1, -0.1, 0.1]))
    return spec, np.array([0.1, 0.0]), obs


def _reversed_btl_instance():
    # The row (2, 0) has margin z = -12; its group is stored as (0, 2) at z = +12, where
    # p * (1 - p) with p = expit(z) loses 1e-12 of its value to the cancellation in 1 - p.
    spec = rr.ModelSpec("btl", sigma=0.25, b_bound=2.0)
    obs = rr.ObservationSet(spec, 5, np.array([[2, 0]]), np.array([1.0]))
    return spec, np.array([1.0, 0.0, -2.0, 0.0, 0.0]), obs


class TestGroupedLikelihood:
    @settings(max_examples=300, deadline=None)
    @given(_repeated_pair_instances())
    @example(_exact_fit_instance())
    @example(_reversed_btl_instance())
    def test_grouped_matches_row_level(self, instance):
        spec, w, obs = instance
        (nll, g, h), (nll_scale, g_scale, h_scale) = _row_reference(spec, w, obs)
        assert abs(rr.neg_log_likelihood(spec, w, obs) - nll) <= 1e-12 * nll_scale
        assert np.max(np.abs(rr.gradient(spec, w, obs) - g)) <= 1e-12 * g_scale
        assert np.max(np.abs(rr.hessian(spec, w, obs) - h)) <= 1e-12 * h_scale

    @settings(max_examples=200, deadline=None)
    @given(_repeated_pair_instances(), st.integers(0, 2**32 - 1))
    def test_curvature_products_match_dense_hessian(self, instance, seed):
        # The solver's Hessian-vector products scatter curvature weights over the
        # groups in O(groups); the dense Hessian scatters the same weights into d x d.
        spec, w, obs = instance
        v = np.random.default_rng(seed).normal(size=obs.d)
        weights = rr.curvature(spec, w, obs)
        assert weights.shape == obs.groups.count.shape and np.all(weights >= 0.0)
        items = obs.groups.items
        if spec.kind == "cardinal":
            product = np.bincount(items, weights * v[items], obs.d)
        else:
            product = _hessian_product(items, weights, v)
        scale = float(np.sum(weights)) * float(np.max(np.abs(v)))
        assert np.max(np.abs(rr.hessian(spec, w, obs) @ v - product)) <= 1e-12 * max(scale, 1e-300)

    @settings(max_examples=150, deadline=None)
    @given(_repeated_pair_instances(), st.randoms(use_true_random=False))
    def test_relabelling_items(self, instance, random):
        spec, w, obs = instance
        perm = np.array(random.sample(range(obs.d), obs.d))
        inverse = np.argsort(perm)
        relabelled = rr.ObservationSet(spec, obs.d, perm[obs.design], obs.outcomes)
        _, (nll_scale, g_scale, _) = _row_reference(spec, w, obs)
        assert abs(rr.neg_log_likelihood(spec, w[inverse], relabelled)
                   - rr.neg_log_likelihood(spec, w, obs)) <= 1e-12 * nll_scale
        moved = rr.gradient(spec, w[inverse], relabelled)
        assert np.max(np.abs(moved - rr.gradient(spec, w, obs)[inverse])) <= 1e-12 * g_scale

    def test_group_table(self):
        spec = rr.ModelSpec("paired_linear", sigma=1.0)
        obs = rr.ObservationSet(spec, 3, np.array([[1, 0], [0, 1], [2, 1], [0, 1]]), np.array([1.0, 2.0, 4.0, 5.0]))
        groups = obs.groups
        assert groups.items.tolist() == [[0, 1], [1, 2]]
        assert groups.value.tolist() == [2.0, -4.0] and groups.count.tolist() == [3, 1]
        # (-1, 2, 5) about their mean 2, plus nothing for the single row.
        assert groups.spread == pytest.approx(18.0)
        binary = rr.ObservationSet(rr.ModelSpec("btl", sigma=1.0, b_bound=1.0), 3,
                                   np.array([[1, 0], [0, 1], [0, 1]]), np.array([1.0, 1.0, -1.0]))
        assert binary.groups.items.tolist() == [[0, 1], [0, 1]]
        assert binary.groups.value.tolist() == [-1.0, 1.0] and binary.groups.count.tolist() == [2, 1]
        assert binary.groups.spread == 0.0

    def test_with_sigma_shares_tables(self):
        spec = rr.ModelSpec("thurstone", sigma=1.0, b_bound=1.0)
        obs = rr.ObservationSet(spec, 3, np.array([[0, 1], [2, 1], [1, 0]]), np.array([1.0, -1.0, 1.0]))
        early = obs.with_sigma(0.5)
        laplacian = obs.laplacian
        assert np.array_equal(laplacian.m, rr.build_laplacian_from_design(3, obs.design).m)
        view = obs.with_sigma(2.0)
        assert view.groups is obs.groups and view.laplacian is laplacian and early.laplacian is laplacian
        assert view.model.sigma == 2.0
        # A table first built on a view is shared back with the set it came from.
        held = obs.subset(np.array([0, 1]))
        assert held.with_sigma(0.5).groups is held.groups is not obs.groups
        with pytest.raises(rr.ModelKindError):
            rr.ObservationSet(rr.ModelSpec("cardinal", sigma=1.0), 3, np.array([0, 1]), np.zeros(2)).laplacian


def _assert_same_tables(obs, fresh, w):
    """``obs`` and a freshly built set on the same rows agree exactly, not just to rounding."""
    a, b = obs.groups, fresh.groups
    assert np.array_equal(a.items, b.items) and a.items.dtype == b.items.dtype
    assert np.array_equal(a.value, b.value) and np.array_equal(a.count, b.count) and a.spread == b.spread
    assert rr.neg_log_likelihood(obs.model, w, obs) == rr.neg_log_likelihood(fresh.model, w, fresh)
    assert np.array_equal(rr.gradient(obs.model, w, obs), rr.gradient(fresh.model, w, fresh))


class TestSharedDesign:
    @settings(max_examples=200, deadline=None)
    @given(_repeated_pair_instances(), st.randoms(use_true_random=False))
    def test_views_share_design_tables_only(self, instance, random):
        spec, w, obs = instance
        pairwise = spec.kind != "cardinal"
        if random.random() < 0.5:
            # Build the design tables on the first set, before any view of it exists.
            obs.groups
            if pairwise:
                obs.laplacian
        draws = []
        for _ in range(2):
            if spec.kind in rr.BINARY_KINDS:
                draws.append(np.array([random.choice([1.0, -1.0]) for _ in range(obs.n)]))
            else:
                draws.append(np.array([random.uniform(-3.0, 3.0) for _ in range(obs.n)]))
        views = [obs.with_outcomes(draws[0]), obs.with_sigma(spec.sigma * 2.0).with_outcomes(draws[1])]
        for view in views:
            _assert_same_tables(view, rr.ObservationSet(view.model, obs.d, obs.design, view.outcomes), w)
        _assert_same_tables(obs, rr.ObservationSet(spec, obs.d, obs.design, obs.outcomes), w)
        assert views[0].groups is not obs.groups and views[1].groups is not views[0].groups
        assert views[1].with_sigma(1.0).groups is views[1].groups
        subset = obs.subset(np.arange(obs.n))
        _assert_same_tables(subset, obs, w)
        assert subset.groups is not obs.groups
        if pairwise:
            laplacian = views[random.randrange(2)].laplacian
            assert laplacian is obs.laplacian is views[0].laplacian is views[1].laplacian
            assert subset.laplacian is not laplacian
            assert np.array_equal(laplacian.m, rr.build_laplacian_from_design(obs.d, obs.design).m)


class TestDerivatives:
    def _random_instance(self, kind, rng):
        d = int(rng.integers(3, 7))
        w_true = rr.QualityVector.centered(rng.uniform(-1, 1, d), b_bound=2.0)
        sigma = float(rng.uniform(0.5, 2.0))
        spec = rr.ModelSpec(kind, sigma=sigma, b_bound=2.0)
        if kind == "cardinal":
            design = np.arange(3 * d) % d
        else:
            design = _pairwise_design(d, 2)
        obs = rr.sample(spec, w_true, design, int(rng.integers(2**31)))
        w_at = rng.uniform(-1, 1, d)
        return spec, w_at, obs

    @pytest.mark.parametrize("kind", rr.MODEL_KINDS)
    def test_gradient_matches_finite_differences(self, kind):
        rng = np.random.default_rng(101)
        for _ in range(5):
            spec, w, obs = self._random_instance(kind, rng)
            g = rr.gradient(spec, w, obs)
            fd = fd_gradient(spec, w, obs)
            assert np.linalg.norm(g - fd) <= 1e-6 * max(1.0, np.linalg.norm(fd))

    @pytest.mark.parametrize("kind", rr.MODEL_KINDS)
    def test_hessian_matches_finite_differences(self, kind):
        rng = np.random.default_rng(202)
        for _ in range(5):
            spec, w, obs = self._random_instance(kind, rng)
            h = rr.hessian(spec, w, obs)
            fd = fd_hessian(spec, w, obs)
            assert np.linalg.norm(h - fd) <= 1e-5 * max(1.0, np.linalg.norm(fd))
            assert np.allclose(h, h.T)
            if kind != "cardinal":
                assert np.allclose(h @ np.ones(len(w)), 0.0, atol=1e-9)

    def test_hessian_positive_semidefinite(self):
        rng = np.random.default_rng(303)
        for kind in rr.BINARY_KINDS:
            spec, w, obs = self._random_instance(kind, rng)
            eigs = np.linalg.eigvalsh(rr.hessian(spec, w, obs))
            assert eigs.min() >= -1e-10


class TestCurvatureScalar:
    def test_btl_is_bernoulli_variance(self):
        spec = rr.ModelSpec("btl", sigma=1.0, b_bound=1.0)
        for t in (-3.0, -0.5, 0.0, 1.2, 4.0):
            p = expit(t)
            assert rr.strong_convexity_scalar(spec, t) == pytest.approx(p * (1 - p), rel=1e-12)

    def test_thurstone_closed_form_at_zero(self):
        spec = rr.ModelSpec("thurstone", sigma=1.0, b_bound=1.0)
        assert rr.strong_convexity_scalar(spec, 0.0) == pytest.approx(2.0 / np.pi, rel=1e-12)

    def test_thurstone_matches_loss_curvature(self):
        # The scalar is d^2/dt^2 of -log(1 - Phi(t)); check by central differences.
        spec = rr.ModelSpec("thurstone", sigma=1.0, b_bound=1.0)
        h = 1e-4
        for t in (-2.0, -0.7, 0.0, 0.9, 2.5):
            f = lambda u: -norm.logsf(u)
            fd = (f(t + h) - 2 * f(t) + f(t - h)) / h**2
            assert rr.strong_convexity_scalar(spec, t) == pytest.approx(fd, rel=1e-5)

    def test_positive_everywhere(self):
        for kind in rr.BINARY_KINDS:
            spec = rr.ModelSpec(kind, sigma=1.0, b_bound=1.0)
            grid = np.linspace(-6, 6, 241)
            vals = [rr.strong_convexity_scalar(spec, t) for t in grid]
            assert min(vals) > 0.0

    def test_branch_mirror_symmetry(self):
        # Curvature of the +1 branch at t equals the -1 branch's value at -t,
        # so a symmetric-interval minimum covers both outcome labels.
        spec = rr.ModelSpec("thurstone", sigma=1.0, b_bound=1.0)
        h = 1e-4
        for t in (-1.5, 0.3, 2.0):
            f = lambda u: -norm.logcdf(u)
            fd = (f(t + h) - 2 * f(t) + f(t - h)) / h**2
            assert rr.strong_convexity_scalar(spec, -t) == pytest.approx(fd, rel=1e-5)

    def test_rejects_linear_kinds(self):
        with pytest.raises(rr.ModelKindError):
            rr.strong_convexity_scalar(rr.ModelSpec("cardinal", sigma=1.0), 0.0)
