"""Self-tests of the benchmark's tracer, checks and input generators.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import filecmp
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import rateorank as rr  # noqa: E402
import rateorank.cli  # noqa: E402,F401  (the tracer wraps every traced module)

import checks  # noqa: E402
import inputs  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def test_self_times_of_a_synthetic_nest():
    # root [0, 10] holds a [1, 4] (which holds a1 [2, 3]) and b [5, 9].
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    parents = [-1, 0, 1, 0]
    own = spans.self_times(starts, ends, parents)
    assert own == [3.0, 2.0, 1.0, 4.0]
    assert sum(own) == ends[0] - starts[0]


def test_wrapped_calls_nest_and_cover_the_root():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(inner(x)))
    assert outer(1) == 3
    assert tracer.names == ["inner", "outer"]
    assert list(tracer.parent) == [-1, 0, 0]
    own = spans.self_times(tracer.start, tracer.end, tracer.parent)
    assert sum(own) == pytest.approx(tracer.end[0] - tracer.start[0], abs=1e-12)
    assert tracer.count_since(0, "inner") == 2


def test_install_replaces_every_holder_and_restores():
    original = rr.graph.build_laplacian_from_design
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert rr.estimate.build_laplacian_from_design is rr.graph.build_laplacian_from_design
        assert rr.estimate.build_laplacian_from_design is not original
        assert rr.sim.generate_topology.__wrapped__ is rr.graph.generate_topology.__wrapped__
        rr.estimate.mle_fit(rr.ObservationSet(rr.ModelSpec("btl", 1.0, 1.0), 3,
                                              [[0, 1], [1, 2], [2, 0]] * 4, [1.0, -1.0, 1.0] * 4),
                            rr.FitConfig())
    finally:
        tracer.restore()
    assert rr.graph.build_laplacian_from_design is original
    assert rr.estimate.build_laplacian_from_design is original
    metrics = tracer.layer_metrics(1.0, 0.0)
    assert metrics["estimate.mle_fit.calls"][0] == 1
    assert metrics["graph.laplacian.calls"][0] == 1
    assert metrics["models.terms"][0] == 12 * metrics["models.nll.calls"][0] + 12 * metrics["models.gradient.calls"][0]
    assert metrics["estimate.backtracks"][0] >= 0


def test_missing_layer_fails_loudly_and_unused_layers_report_zero(monkeypatch):
    empty = spans.Tracer().layer_metrics(0.0, 0.0)
    assert all(value == 0 for value, _ in empty.values())
    monkeypatch.delattr(rr.graph, "comparison_graph")
    with pytest.raises(spans.MissingLayerError, match="graph.comparison_graph"):
        spans.Tracer().install()


def test_job_time_cancels_the_machine_speed():
    # The second repetition ran on a machine half as fast: its calls and the
    # reference around them both took twice as long.
    op_times = [[1.0, 2.0], [2.0, 4.0], [1.0, 2.0]]
    refs = [[0.04, 0.04, 0.04], [0.08, 0.08, 0.08], [0.04, 0.04, 0.04]]
    assert run.job_s(op_times, refs) == pytest.approx(3.0 * reference.NOMINAL_S / 0.04)
    # Each call is scaled by the reference timings on either side of it.
    assert run.job_s([[1.0, 1.0]], [[0.02, 0.06, 0.10]]) == pytest.approx(
        reference.NOMINAL_S * (1.0 / 0.04 + 1.0 / 0.08))


def test_exact_projection_satisfies_its_optimality_conditions():
    rng = np.random.default_rng(0)
    for scale in (0.1, 1.0, 5.0):
        v = scale * rng.standard_normal(50)
        x = checks.project_box_mean_zero(v, 1.0)
        assert abs(x.sum()) < 1e-12 and np.all(np.abs(x) <= 1.0)
        # v - x = mu + nu, with nu >= 0 at the upper face, <= 0 at the lower, 0 inside.
        free = np.abs(x) < 1.0 - 1e-12
        mu = np.mean((v - x)[free])
        nu = v - x - mu
        assert np.allclose(nu[free], 0.0, atol=1e-12)
        assert np.all(nu[x >= 1.0 - 1e-12] >= -1e-12) and np.all(nu[x <= -1.0 + 1e-12] <= 1e-12)


def test_kkt_checker_accepts_the_package_fit_and_rejects_a_perturbed_copy():
    design, y = inputs.c11_replicate(0)
    obs = rr.ObservationSet(rr.ModelSpec("thurstone", 0.5, 1.0), inputs.C11_D, design, y)
    result = rr.mle_fit(obs, rr.FitConfig(b_bound=1.0))
    assert result.converged
    tol = 1e-8 * y.size
    w = result.w_hat.values
    assert checks.kkt_residual("thurstone", w, 0.5, 1.0, design, y) <= tol
    nudge = np.zeros_like(w)
    nudge[np.argmax(w)], nudge[np.argmin(w)] = -1e-3, 1e-3
    assert checks.kkt_residual("thurstone", w + nudge, 0.5, 1.0, design, y) > tol


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_generators_are_deterministic_per_seed(workload, tmp_path):
    first, second, other = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for path, seed in ((first, 7), (second, 7), (other, 8)):
        path.mkdir()
        inputs.make_job(workload, seed, path)
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    match, mismatch, errors = filecmp.cmpfiles(first, second, names, shallow=False)
    assert not mismatch and not errors
    _, changed, _ = filecmp.cmpfiles(first, other, names, shallow=False)
    assert changed  # another seed gives other inputs
