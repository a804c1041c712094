"""Run the benchmark untraced over several seeds and summarise each end-to-end metric's spread.

Usage (from the repository root):

    python3 perfbench/sweep.py --workloads fit-large cli-small montecarlo \\
        --seeds 1 2 3 4 5 6 7 8 9 10 --seconds 30 --out summary.json

Each (workload, seed) pair is one ``run.py`` process, run one at a time.  For
every metric the summary holds the per-seed values, their median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and the spread,
the interquartile distance as a share of the median.  Runs are made in the
order given, so compare two commits with the same seeds and settings.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", choices=inputs.WORKLOADS, default=list(inputs.WORKLOADS))
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--out", default=None, help="write the summary as JSON here")
    args = parser.parse_args(argv)

    summary = {}
    for workload in args.workloads:
        results = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=HERE.parent, capture_output=True, text=True, timeout=180,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            results.append(json.loads(lines[-1]))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{name}={m['value']:.6g}" for name, m in results[-1]["metrics"].items()), flush=True)
        metrics = {name: {"unit": results[0]["metrics"][name]["unit"],
                          **summarise([r["metrics"][name]["value"] for r in results])}
                   for name in results[0]["metrics"]}
        summary[workload] = {"seeds": args.seeds, "attempted": sum(r["attempted"] for r in results),
                             "failed": sum(r["failed"] for r in results), "metrics": metrics}
        for name, m in metrics.items():
            print(f"  {workload:<11} {name:<40} median {m['median']:<12.6g} spread {m['spread']:.3f}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
