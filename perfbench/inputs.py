"""Seeded input generators and the job each workload runs.

Everything here is plain numpy: the package is never imported, so the inputs
do not move when the package's own sampling code changes.  ``make_job``
writes a workload's CSV and JSON inputs into a directory and returns the job
manifest: the CLI invocations (argv lists) that make up one job, the tiny
warm-up invocations run once before timing, and what each invocation's
output check needs.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import numpy as np

WORKLOADS = ("fit-large", "cli-small", "montecarlo")

# fit-large: one BTL comparisons file and one ratings file, both at this size.
# The truth is drawn from its own fixed stream, not from the run seed: the
# BTL fit's iteration count depends on the truth (54 to 81 iterations over
# ten seeded truths), which would swamp the timing.  The run seed draws the
# pairs, the outcomes, the ratings and the item ids.
LARGE_D = 1000
LARGE_N = 200_000
LARGE_TRUTH_B = 0.8
LARGE_TRUTH_STREAM = 1406

# cli-small: the C11 worker study (d=8, five copies of all 28 pairs, Thurstone
# sigma=0.5, truth linspace(0.8, -0.8)).  Its replicates are drawn from the
# study's own fixed streams 1000 + rep, not from the run seed: one CV fit
# costs anywhere from 0.9 s to 12 s depending on how many fold fits hit the
# iteration cap, and a run has room for only a handful, so seeded datasets
# would make the run-to-run spread larger than any regression worth catching.
# The run seed still relabels the items and drives the expander sampling.
C11_D = 8
C11_COPIES = 5
C11_SIGMA = 0.5
C11_REPLICATES = 2
C11_STREAM = 1000
CV_GRID = "0.25,0.5,1.0,2.0"
PACK = {"d": 30, "delta": 1.0, "alpha": 0.15}
EXPANDER = {"d": 200, "n": 4000, "k": 4}
# The C09 criterion's noise ranges.  Below sigma_o ~ 0.07, kappa^2 underflows
# and decide() divides by zero, so wider ranges crash the package as written.
DECIDE_GRID = (0.1, 10.0, 0.1, 10.0)
DECIDE_RESOLUTION = 40

# montecarlo: three simulate configs on the complete d=10 design.  Each config
# runs its trials as several invocations of a few trials each, so that no
# single timed invocation is long: the benchmark cancels the machine's speed
# drift with reference timings taken between invocations.  The truth is the
# uniform_box (b=0.5) vector the C03 criterion draws (master seed 303, whose
# truth stream is 303 + 10**6), passed as an explicit vector: a fit's
# iteration count depends on the truth (BTL takes 155 to 542 iterations
# across truths), so a seeded truth would swamp the timing.  The run seed
# draws every Thurstone and BTL trial.  The one paired_linear trial always
# uses the C03 master seed: its Dykstra projections cost 0.3 s at some
# seeds and 2.1 s at most others (2 of 12 seeds tried were cheap), a lottery
# a single trial cannot average out, and seed 303 is one of the costly ones.
MC_CONFIGS = (("thurstone", 9000, 10, 4), ("btl", 9000, 2, 5), ("paired_linear", 8000, 1, 1))
MC_FIXED_SEED = {"paired_linear": 303}
# Each invocation of a config draws its trials from seed * MC_SEED_STRIDE + part * trials.
MC_SEED_STRIDE = 1000
MC_D = 10
MC_TRUTH_B = 0.5
MC_TRUTH_STREAM = 303 + 10**6


def _labels(rng: np.random.Generator, d: int) -> list[str]:
    """Distinct item ids in a seeded order, so ids carry no index information."""
    return [f"item{j:04d}" for j in rng.permutation(d)]


def _uniform_box(rng: np.random.Generator, d: int, b: float) -> np.ndarray:
    v = rng.uniform(-b, b, d)
    v -= v.mean()
    return v * (b / np.max(np.abs(v)))


def _write_lines(path: Path, header: str, lines) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {header}\n")
        fh.write("\n".join(lines))
        fh.write("\n")


def _write_comparisons(path: Path, labels, design: np.ndarray, y: np.ndarray) -> None:
    _write_lines(path, "left,right,outcome",
                 (f"{labels[a]},{labels[b]},{'+1' if v > 0 else '-1'}"
                  for (a, b), v in zip(design.tolist(), y.tolist())))


def _save_data(path: Path, **arrays) -> str:
    np.savez(path, **arrays)
    return str(path)


def _fit_large(seed: int, out: Path) -> dict:
    rng = np.random.default_rng(seed)
    d, n = LARGE_D, LARGE_N
    labels = _labels(rng, d)
    w = _uniform_box(np.random.default_rng(LARGE_TRUTH_STREAM), d, LARGE_TRUTH_B)

    # A cycle through every item keeps the design connected; the rest are
    # uniformly random distinct pairs.
    cycle = rng.permutation(d)
    left = rng.integers(0, d, n)
    right = (left + rng.integers(1, d, n)) % d
    left[:d], right[:d] = cycle, np.roll(cycle, -1)
    design = np.column_stack([left, right])
    p_left = 1.0 / (1.0 + np.exp(-(w[left] - w[right])))
    y = np.where(rng.random(n) < p_left, 1.0, -1.0)
    _write_comparisons(out / "comparisons.csv", labels, design, y)

    items = rng.integers(0, d, n)
    items[:d] = rng.permutation(d)
    ratings = w[items] + rng.standard_normal(n)
    _write_lines(out / "ratings.csv", "item,rating",
                 (f"{labels[j]},{r!r}" for j, r in zip(items.tolist(), ratings.tolist())))

    labels_arr = np.array(labels)
    return {
        "ops": [
            {"argv": ["fit", str(out / "comparisons.csv"), "--model", "btl", "--sigma", "1",
                      "--out", str(out / "btl.json")],
             "check": {"kind": "kkt", "doc": str(out / "btl.json"), "model": "btl",
                       "data": _save_data(out / "comparisons.npz", design=design, y=y, labels=labels_arr)}},
            {"argv": ["fit", str(out / "ratings.csv"), "--model", "cardinal",
                      "--out", str(out / "cardinal.json")],
             "check": {"kind": "cardinal", "doc": str(out / "cardinal.json"),
                       "data": _save_data(out / "ratings.npz", items=items, ratings=ratings, labels=labels_arr)}},
        ],
    }


def c11_replicate(rep: int) -> tuple[np.ndarray, np.ndarray]:
    """Design and +-1 outcomes of replicate ``rep`` of the C11 worker study."""
    pairs = np.array(list(itertools.combinations(range(C11_D), 2)))
    design = np.tile(pairs, (C11_COPIES, 1))
    w = np.linspace(0.8, -0.8, C11_D)
    rng = np.random.default_rng(C11_STREAM + rep)
    noisy = w[design[:, 0]] - w[design[:, 1]] + C11_SIGMA * rng.standard_normal(design.shape[0])
    return design, np.where(noisy >= 0, 1.0, -1.0)


def _cli_small(seed: int, out: Path) -> dict:
    rng = np.random.default_rng(seed)
    labels = _labels(rng, C11_D)
    ops = []
    for rep in range(C11_REPLICATES):
        design, y = c11_replicate(rep)
        csv, doc = out / f"c11_{rep}.csv", out / f"c11_{rep}.json"
        _write_comparisons(csv, labels, design, y)
        data = _save_data(out / f"c11_{rep}.npz", design=design, y=y, labels=np.array(labels))
        ops.append({"argv": ["fit", str(csv), "--model", "thurstone", "--cv-grid", CV_GRID, "--out", str(doc)],
                    "check": {"kind": "cv", "doc": str(doc), "model": "thurstone", "data": data,
                              "grid": [float(s) for s in CV_GRID.split(",")]}})
    ops.append({"argv": ["pack", "--d", str(PACK["d"]), "--delta", str(PACK["delta"]),
                         "--alpha", str(PACK["alpha"]), "--out", str(out / "pack.json")],
                "check": {"kind": "pack", "doc": str(out / "pack.json"), **PACK}})
    ops.append({"argv": ["topology", "--kind", "expander", "--d", str(EXPANDER["d"]), "--n", str(EXPANDER["n"]),
                         "--k", str(EXPANDER["k"]), "--seed", str(seed), "--out", str(out / "edges.csv")],
                "check": {"kind": "expander", "edges": str(out / "edges.csv"), **EXPANDER}})
    ops.append({"argv": ["decide", "--grid", *map(str, DECIDE_GRID), "--resolution", str(DECIDE_RESOLUTION),
                         "--out", str(out / "grid.csv")],
                "check": {"kind": "decide_grid", "csv": str(out / "grid.csv"),
                          "grid": list(DECIDE_GRID), "resolution": DECIDE_RESOLUTION}})
    return {"ops": ops}


def mc_truth() -> np.ndarray:
    """The uniform_box truth of the C03 criterion, drawn as ``sim.resolve_w_true`` draws it."""
    return _uniform_box(np.random.default_rng(MC_TRUTH_STREAM), MC_D, MC_TRUTH_B)


def _montecarlo(seed: int, out: Path) -> dict:
    truth = mc_truth().tolist()
    ops = []
    for kind, n, trials, parts in MC_CONFIGS:
        for part in range(parts):
            config = {
                "model": {"kind": kind, "sigma": 1.0, "b_bound": 1.0},
                "topology": {"kind": "complete", "d": MC_D, "n": n},
                "w_true": truth,
                "trials": trials,
                "seed": MC_FIXED_SEED.get(kind, seed * MC_SEED_STRIDE + part * trials),
            }
            path, csv = out / f"mc_{kind}_{part}.json", out / f"mc_{kind}_{part}.csv"
            path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
            ops.append({"argv": ["simulate", "--config", str(path), "--out", str(csv)],
                        "weight": trials,
                        "check": {"kind": "montecarlo", "csv": str(csv), "model": kind, "d": MC_D, "n": n,
                                  "sigma": 1.0, "b_bound": 1.0, "trials": trials}})
    return {"ops": ops}


def _warmup(out: Path) -> list[list[str]]:
    """Small invocations run once before timing, so first-call costs such as lazy imports go untimed."""
    rng = np.random.default_rng(0)
    design = np.array(list(itertools.combinations(range(4), 2)) * 3)
    y = np.where(rng.random(design.shape[0]) < 0.5, 1.0, -1.0)
    _write_comparisons(out / "warmup.csv", ["a", "b", "c", "d"], design, y)
    return [["fit", str(out / "warmup.csv"), "--model", "btl", "--sigma", "1"],
            ["decide", "--sigma-c", "1", "--sigma-o", "1"]]


_MAKERS = {"fit-large": _fit_large, "cli-small": _cli_small, "montecarlo": _montecarlo}


def make_job(workload: str, seed: int, out_dir) -> dict:
    """Write the workload's inputs for ``seed`` into ``out_dir``; return its job manifest."""
    out = Path(out_dir)
    job = _MAKERS[workload](seed, out)
    for op in job["ops"]:
        op.setdefault("weight", 1)
    job["warmup"] = _warmup(out)
    return job
