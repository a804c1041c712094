"""End-to-end acceptance checks.

Each test exercises one published guarantee of the package at realistic sizes
and prints a single PASS/FAIL line with the measured numbers, so the suite
doubles as a reproducible report.  Monte Carlo assertions use four standard
errors of headroom; fixed-precision assertions state their tolerance inline.
"""

import contextlib
import io
import itertools
import json
import math
import time

import numpy as np

import rateorank as rr
from rateorank import cli

import helpers


def _report(tag: str, ok: bool, detail: str) -> None:
    print(f"{tag} {'PASS' if ok else 'FAIL'}: {detail}")


def _experiment(model, topology, *, w_rule, trials, seed):
    return rr.ExperimentConfig(model=model, topology=topology, w_true=w_rule, trials=trials, seed=seed)


def test_c01_cardinal_risk_level():
    # d=5 raters' items, n=50 ratings, sigma=1: per-item error (d-1)sigma^2/n = 0.08
    cfg = _experiment(
        rr.ModelSpec("cardinal", sigma=1.0),
        rr.TopologySpec("complete", d=5, n=50),
        w_rule={"rule": "uniform_box", "b": 0.5},
        trials=400,
        seed=101,
    )
    est = rr.run_experiment(cfg)["per_item_l2_sq"]
    ok = abs(est.mean - 0.08) <= 4.0 * est.stderr and 0.05 <= est.mean <= 0.15
    _report("C01", ok, f"per-item risk {est.mean:.5f} (target 0.08, stderr {est.stderr:.5f}, 400 trials)")
    assert ok


def test_c02_paired_seminorm_risk_level():
    cfg = _experiment(
        rr.ModelSpec("paired_linear", sigma=1.0),
        rr.TopologySpec("complete", d=10, n=4500),
        w_rule={"rule": "uniform_box", "b": 0.5},
        trials=200,
        seed=202,
    )
    est = rr.run_experiment(cfg)["seminorm_sq"]
    target = 9.0 / 4500.0  # (d-1) sigma^2 / n
    upper = 0.68 * 10.0 / 4500.0
    ratio = est.mean / upper
    ok = abs(est.mean - target) <= 4.0 * est.stderr
    _report("C02", ok, f"seminorm risk {est.mean:.6f} (target {target:.6f}, stderr {est.stderr:.6f}); "
                       f"ratio to guarantee {ratio:.3f}")
    assert ok


def test_c03_binary_models_inside_guarantees():
    d, n, sigma, b = 10, 9000, 1.0, 1.0
    start = time.perf_counter()
    lap = rr.build_laplacian(d, rr.generate_topology("complete", d, n).edges)
    lines, ok = [], True
    for kind in ("thurstone", "btl"):
        report = rr.minimax_seminorm(kind, d, n, sigma, b, lap.trace_pinv_std)
        cfg = _experiment(
            rr.ModelSpec(kind, sigma=sigma, b_bound=b),
            rr.TopologySpec("complete", d=d, n=n),
            w_rule={"rule": "uniform_box", "b": 0.5},
            trials=100,
            seed=303,
        )
        est = rr.run_experiment(cfg)["seminorm_sq"]
        inside = report.lower - 4 * est.stderr <= est.mean <= report.upper + 4 * est.stderr
        ok = ok and inside and report.sample_condition_met
        lines.append(f"{kind} {est.mean:.5f} in [{report.lower:.3g}, {report.upper:.3g}]={inside}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 120.0
    _report("C03", ok, "; ".join(lines) + f"; elapsed {elapsed:.1f}s (limit 120s)")
    assert ok


def test_c04_risk_decays_like_one_over_n():
    budgets = [1000, 2000, 4000, 8000]
    slopes, ok = {}, True
    for kind in rr.MODEL_KINDS:
        binary = kind in rr.BINARY_KINDS
        cfg = _experiment(
            rr.ModelSpec(kind, sigma=1.0, b_bound=1.0 if binary else None),
            rr.TopologySpec("complete", d=10, n=budgets[0]),
            w_rule={"rule": "uniform_box", "b": 0.5},
            trials=80,
            seed=404,
        )
        metric = "per_item_l2_sq" if kind == "cardinal" else "seminorm_sq"
        means = {row.value: row.mean for row in rr.sweep(cfg, "n", budgets) if row.metric == metric}
        slope = np.polyfit(np.log(budgets), np.log([means[n] for n in budgets]), 1)[0]
        slopes[kind] = slope
        ok = ok and abs(slope + 1.0) <= 0.1
    detail = ", ".join(f"{k}={v:+.3f}" for k, v in slopes.items())
    _report("C04", ok, f"log-log slopes (target -1 +- 0.1): {detail}")
    assert ok


def test_c05_topology_ordering():
    means = {}
    for kind, k in (("complete", None), ("expander", 4), ("dumbbell", None)):
        cfg = _experiment(
            rr.ModelSpec("paired_linear", sigma=1.0),
            rr.TopologySpec(kind, d=10, n=1500, k=k),
            w_rule={"rule": "uniform_box", "b": 0.5},
            trials=250,
            seed=505,
        )
        means[kind] = rr.run_experiment(cfg)["per_item_l2_sq"].mean
    expander_ratio = means["expander"] / means["complete"]
    dumbbell_ratio = means["dumbbell"] / means["complete"]
    ok = (
        means["dumbbell"] > means["expander"]
        and dumbbell_ratio >= 2.0
        and 0.5 <= expander_ratio <= 2.0
    )
    _report("C05", ok, f"per-item risk complete={means['complete']:.5f}, "
                       f"expander(4)={means['expander']:.5f} (x{expander_ratio:.2f}), "
                       f"dumbbell={means['dumbbell']:.5f} (x{dumbbell_ratio:.2f})")
    assert ok


def test_c06_derivatives_match_finite_differences():
    rng = np.random.default_rng(2026)
    worst_g = worst_h = 0.0
    for kind in rr.MODEL_KINDS:
        binary = kind in rr.BINARY_KINDS
        for _ in range(50):
            d = int(rng.integers(3, 7))
            n = int(rng.integers(10, 26))
            spec = rr.ModelSpec(kind, sigma=float(rng.uniform(0.5, 2.0)),
                                b_bound=1.0 if binary else None)
            w_true = rng.uniform(-0.45, 0.45, d)
            w_true -= w_true.mean()
            if kind == "cardinal":
                design = rng.integers(0, d, n)
            else:
                design = np.array([rng.choice(d, 2, replace=False) for _ in range(n)], dtype=np.intp)
            obs = rr.sample(spec, rr.QualityVector(w_true), design, seed=int(rng.integers(1 << 30)))
            w_eval = rng.uniform(-0.4, 0.4, d)
            w_eval -= w_eval.mean()
            g = rr.gradient(spec, w_eval, obs)
            g_fd = helpers.fd_gradient(spec, w_eval, obs)
            h = helpers.dense_hessian(spec, w_eval, obs)
            h_fd = helpers.fd_hessian(spec, w_eval, obs)
            worst_g = max(worst_g, np.max(np.abs(g - g_fd)) / max(1.0, np.max(np.abs(g_fd))))
            worst_h = max(worst_h, np.max(np.abs(h - h_fd)) / max(1.0, np.max(np.abs(h_fd))))
    ok = worst_g < 1e-5 and worst_h < 1e-4
    _report("C06", ok, f"200 random instances: max grad rel err {worst_g:.2e} (tol 1e-5), "
                       f"max hess rel err {worst_h:.2e} (tol 1e-4)")
    assert ok


def _margin_grid(ratio: float, step: float = 1e-3) -> np.ndarray:
    hi = 2.0 * ratio
    return np.linspace(-hi, hi, int(round(2.0 * hi / step)) + 1)


def _curvature_min(kind: str, ratio: float) -> float:
    spec = rr.ModelSpec(kind, sigma=1.0, b_bound=1.0)
    return min(rr.strong_convexity_scalar(spec, t) for t in _margin_grid(ratio))


def test_c07a_thurstone_curvature_floor():
    floor = 4.0 / math.pi - 1.0
    mins = {ratio: _curvature_min("thurstone", ratio) for ratio in (0.5, 1.0, 2.0, 3.0)}
    ok = all(v >= floor - 1e-6 for v in mins.values())
    detail = ", ".join(f"B/sigma={r}: min={v:.5f}" for r, v in mins.items())
    _report("C07a", ok, f"thurstone curvature vs floor {floor:.5f}: {detail}")
    assert ok


def test_c07b_btl_curvature_floor():
    checks, ok = [], True
    for ratio in (0.5, 1.0, 2.0, 3.0):
        floor = 1.0 / (math.exp(ratio) + math.exp(-ratio)) ** 2
        observed = _curvature_min("btl", ratio)
        ok = ok and observed >= floor - 1e-9
        checks.append(f"B/sigma={ratio}: min={observed:.6f} floor={floor:.6f}")
    _report("C07b", ok, "; ".join(checks))
    assert ok


def test_c08_packing_certificate():
    d, delta, alpha = 30, 1.0, 0.15
    lap = rr.build_laplacian(d, rr.generate_topology("complete", d, d * (d - 1) // 2).edges)
    pack = rr.build_packing(lap, delta, alpha)
    report = rr.verify_packing(pack)
    beta_oracle = 0.5 * (math.log(2.0) + alpha * math.log(alpha) - alpha)
    target = math.ceil(math.exp(beta_oracle * d))
    checks = {
        "count": pack.count >= 49 and pack.count >= target,
        "pairs": report.min_pair >= alpha * delta**2 - 1e-8 and report.max_pair <= 4.0 * delta**2 + 1e-8,
        "mean_zero": report.mean_zero_max < 1e-10,
        "beta": abs(pack.beta - beta_oracle) <= 1e-12,
    }
    ok = all(checks.values())
    _report("C08", ok, f"{pack.count} vectors (need >= {target}), pair sep^2 in "
                       f"[{report.min_pair:.4f}, {report.max_pair:.4f}], max |sum| {report.mean_zero_max:.2e}, "
                       f"beta {pack.beta:.12f}; subchecks {checks}")
    assert ok


def test_c09_decision_rule():
    failures = []

    phi = lambda x: 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))
    kappa_oracle = phi(2.0) * (1.0 - phi(2.0))
    if abs(rr.kappa(1.0, 1.0) - kappa_oracle) > 1e-6:
        failures.append(f"kappa(1,1)={rr.kappa(1.0, 1.0):.8f} vs oracle {kappa_oracle:.8f}")

    fixtures = [
        ((1e-6, 1.0), "cardinal"),
        ((1.0, 1.0), "indeterminate"),
        ((1.0, 1e-6), "ordinal"),
    ]
    for (sc, so), expected in fixtures:
        verdict = rr.decide(sc, so, 1.0).verdict
        if verdict != expected:
            failures.append(f"decide({sc:g}, {so:g}) = {verdict!r}, expected {expected!r}")

    rows = rr.decision_grid((0.1, 10.0), (0.1, 10.0), 1.0, 20)
    corner_values = {(0.1, 0.1), (0.1, 10.0), (10.0, 0.1), (10.0, 10.0)}
    seen = 0
    for sc, so, verdict in rows:
        key = (round(sc, 12), round(so, 12))
        if key in corner_values:
            seen += 1
            if verdict != rr.decide(sc, so, 1.0).verdict:
                failures.append(f"grid corner ({sc:g}, {so:g}) disagrees with decide()")
    if seen != 4:
        failures.append(f"found {seen}/4 grid corners")

    ok = not failures
    _report("C09", ok, "kappa + 3 fixtures + 20x20 grid corners" if ok else "; ".join(failures))
    assert ok, failures


def test_c10_solver_matches_dense_grid_search():
    rng = np.random.default_rng(1010)
    worst, ok = 0.0, True
    w_true = rr.QualityVector(np.array([0.3, -0.1, -0.2]))
    for kind in rr.MODEL_KINDS:
        binary = kind in rr.BINARY_KINDS
        spec = rr.ModelSpec(kind, sigma=1.0, b_bound=1.0 if binary else None)
        for n in (18, 30):
            if kind == "cardinal":
                design = rr.cardinal_design(3, n)
            else:
                pairs = list(itertools.combinations(range(3), 2))
                design = np.array((pairs * n)[:n], dtype=np.intp)
            obs = rr.sample(spec, w_true, design, seed=int(rng.integers(1 << 30)))
            result = rr.mle_fit(obs, rr.FitConfig(b_bound=1.0))
            grid_val, _ = helpers.grid_minimum(spec, obs, 1.0)
            gap = abs(result.final_nll - grid_val)
            worst = max(worst, gap)
            ok = ok and gap <= 1e-6
    _report("C10", ok, f"8 fixtures (4 models x 2 budgets): max |solver - grid| = {worst:.2e} (tol 1e-6)")
    assert ok


def test_c11_worker_study_prefers_comparisons():
    d = 8
    w_true = np.linspace(0.8, -0.8, d)
    ids = [f"i{j}" for j in range(d)]
    pairs = np.array(list(itertools.combinations(range(d), 2)), dtype=np.intp)
    ord_design = np.tile(pairs, (5, 1))       # 5 comparison workers, 28 pairs each
    card_design = np.tile(np.arange(d), 5)    # 5 rating workers, every item once
    spec_o = rr.ModelSpec("thurstone", sigma=0.5, b_bound=1.0)
    spec_c = rr.ModelSpec("cardinal", sigma=1.5)

    import tempfile, os

    tau_pos = wins = 0
    sink = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        ord_csv, card_csv = os.path.join(tmp, "o.csv"), os.path.join(tmp, "c.csv")
        ord_json, card_json = os.path.join(tmp, "o.json"), os.path.join(tmp, "c.json")
        for rep in range(100):
            y_o = rr.sample(spec_o, rr.QualityVector(w_true), ord_design, seed=1000 + rep).outcomes
            y_c = rr.sample(spec_c, rr.QualityVector(w_true), card_design, seed=5000 + rep).outcomes
            with open(ord_csv, "w") as fh:
                fh.write("\n".join(f"{ids[a]},{ids[b]},{'+1' if y > 0 else '-1'}"
                                   for (a, b), y in zip(ord_design, y_o)))
            with open(card_csv, "w") as fh:
                fh.write("\n".join(f"{ids[j]},{float(y)!r}" for j, y in zip(card_design, y_c)))
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc_o = cli.main(["fit", ord_csv, "--model", "thurstone",
                                 "--cv-grid", "0.25,0.5,1.0,2.0", "--out", ord_json])
                rc_c = cli.main(["fit", card_csv, "--model", "cardinal", "--out", card_json])
            # a non-converged solve (exit 3) still writes usable scores
            assert rc_o in (0, 3) and rc_c == 0

            def scores(path):
                with open(path) as fh:
                    doc = json.load(fh)
                by_id = {item["id"]: item["w_hat"] for item in doc["items"]}
                return np.array([by_id[i] for i in ids])

            w_o, w_c = scores(ord_json), scores(card_json)
            tau_pos += rr.kendall_tau(w_o, w_true) > 0
            wins += rr.scaled_l2_sq(w_o, w_true) < rr.scaled_l2_sq(w_c, w_true)
    ok = tau_pos >= 95 and wins >= 80
    _report("C11", ok, f"comparison pipeline: tau>0 in {tau_pos}/100 (need 95), "
                       f"beats ratings in {wins}/100 (need 80)")
    assert ok
