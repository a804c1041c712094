"""The rateorank benchmark: one workload, one seed, one fresh worker process.

Usage (from the repository root):

    python3 perfbench/run.py --workload fit-large --seed 1 --seconds 30 --trace 0

Writes the workload's inputs for the seed into a temporary directory inside
the checkout, measures set-up time (importing ``rateorank.cli`` in fresh
interpreters), runs the job in a worker process for about ``--seconds``,
scales every measured time to the reference speed (see ``reference.py``),
checks every output without using the package, and prints the metrics.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``.  The exit code is 0 only
when every invocation succeeded and every check passed.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import inputs
import reference

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SOURCE = ROOT / "src"

# Numerical libraries run single-threaded, so runs do not compete for the cores.
BLAS_THREADS = 1
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Fresh interpreters timed per set-up measurement, after one untimed import.
SETUP_SAMPLES = 9
# Every process this script starts must end within this many seconds.
CHILD_TIMEOUT_S = 150
# Times the import, then the reference computation; the median inside
# ``reference.measure`` drops the first, cold timing.
_IMPORT_PROBE = ("import time, sys\nt = time.perf_counter()\nimport rateorank.cli\n"
                 "imported = time.perf_counter() - t\nimport reference\n"
                 "sys.stdout.write(repr((imported, reference.measure())))\n")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SOURCE), str(HERE)])
    env.update({var: str(BLAS_THREADS) for var in _THREAD_VARS})
    return env


def measure_setup(env: dict[str, str], deadline: float) -> float:
    """Median seconds to import ``rateorank.cli`` in a fresh interpreter, at the reference speed."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env, cwd=ROOT, check=True,
                             capture_output=True, text=True, timeout=max(1.0, deadline - time.monotonic()))
        if i:
            samples.append(reference.normalise(*ast.literal_eval(out.stdout)))
    return statistics.median(samples)


def job_s(op_times: list[list[float]], refs: list[list[float]]) -> float:
    """The job's time at the reference speed, from every repetition of it.

    Each invocation's time is normalised by the mean of the reference times
    just before and just after it; the job time is the sum, over the job's
    invocations, of each one's median over the repetitions.
    """
    per_op = zip(*([reference.normalise(t, (r[i] + r[i + 1]) / 2) for i, t in enumerate(times)]
                   for times, r in zip(op_times, refs)))
    return sum(statistics.median(ratios) for ratios in per_op)


def run_worker(job_path: Path, report_path: Path, seconds: int, trace: int, env, deadline: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(job_path), str(report_path), str(seconds), str(trace)],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    with open(report_path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def score(job: dict, report: dict) -> tuple[int, int, list[str]]:
    """Attempted and failed operations over all repetitions, plus the problems found.

    An operation is one CLI invocation, or one trial for an invocation that
    runs trials.  It fails on a non-zero exit, on a failed output check, or
    (for trials) when the program dropped it.
    """
    problems, failed_per_rep = [], []
    for op, stdout in zip(job["ops"], report["outputs"]):
        try:
            found, dropped = checks.check_op(op["check"], stdout)
        except (OSError, KeyError, ValueError, IndexError) as exc:
            found, dropped = [f"{op['argv'][0]}: output unreadable ({exc!r})"], 0
        problems += found
        failed_per_rep.append(op["weight"] if found else dropped)
    attempted = failed = 0
    for codes in report["codes"]:
        for op, code, checked in zip(job["ops"], codes, failed_per_rep):
            attempted += op["weight"]
            failed += op["weight"] if code != 0 else checked
    for i, code in enumerate(report["codes"][-1]):
        if code != 0:
            problems.append(f"{job['ops'][i]['argv'][0]} exited with {code}:\n{report['outputs'][i][-2000:]}")
    return attempted, failed, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SOURCE / "rateorank" / "cli.py").is_file():
        print(f"error: no rateorank source under {SOURCE}; run from a full checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    env = child_env()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        tmp = Path(tmp)
        job = inputs.make_job(args.workload, args.seed, tmp)
        job_path = tmp / "job.json"
        job_path.write_text(json.dumps(job), encoding="utf-8")
        setup_s = measure_setup(env, deadline) if not args.trace else None
        report = run_worker(job_path, tmp / "report.json", args.seconds, args.trace, env, deadline)
        attempted, failed, problems = score(job, report)

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    if args.trace:
        metrics = report["layers"]
    else:
        metrics = {
            "job_s": {"value": job_s(report["op_times"], report["refs"]), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        }
    print(f"{args.workload} seed={args.seed}: {len(report['op_times'])} job(s), measured job walls "
          f"{', '.join(f'{sum(times):.3f}' for times in report['op_times'])} s, reference median "
          f"{statistics.median(r for refs in report['refs'] for r in refs):.4f} s")
    for name, metric in metrics.items():
        print(f"  {name:<44} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  {'fail_frac':<44} {failed / attempted:>14.6g} ratio ({failed}/{attempted})")
    correct = not problems and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
