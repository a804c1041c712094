"""Run one workload's job in this process, closed loop, through ``rateorank.cli.main``.

Usage: python3 worker.py JOB.json REPORT.json SECONDS TRACE

Reads the job manifest written by ``run.py``, runs the warm-up invocations,
then repeats the job (one CLI invocation at a time) until the next repetition
would pass ``SECONDS``; at least one repetition always runs.  With TRACE=1
each repetition is an untraced job followed by the same job traced, and the
report carries the per-layer metrics of the traced ones.  Around each
untraced invocation the worker times ``reference.measure()``, so ``run.py``
can cancel the machine's speed drift.  The report is a JSON file: each
untraced invocation's wall time, the reference times around them, every
invocation's exit code, the last job's captured output, the peak resident
memory and, when traced, the layer metrics.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import statistics
import sys
import time
import traceback

import rateorank.cli as cli
import reference
from spans import Tracer

# Exit code recorded for an invocation that raised instead of returning one.
CRASHED = -1


def run_job(argvs: list[list[str]], refs: list[float] | None = None
            ) -> tuple[list[float], list[int], list[str]]:
    """Run each invocation in turn; return each one's wall time, exit code and output.

    With ``refs``, the reference computation is timed before the first
    invocation and after every one, and its times are appended to ``refs``.
    """
    times, codes, outputs = [], [], []
    if refs is not None:
        refs.append(reference.measure())
    for argv in argvs:
        sink = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                code = cli.main(argv)
            except Exception:  # a crash is a failed operation, not the end of the run
                traceback.print_exc()
                code = CRASHED
        times.append(time.perf_counter() - start)
        if refs is not None:
            refs.append(reference.measure())
        codes.append(code)
        outputs.append(sink.getvalue())
    return times, codes, outputs


def peak_rss_mb() -> float:
    """Peak resident memory of this process image.

    Linux carries ``ru_maxrss`` across exec, so it would report the parent's
    peak when that is larger; the VmHWM line of /proc/self/status does not.
    """
    try:
        with open("/proc/self/status", "r", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(job_path: str, report_path: str, seconds: float, trace: bool) -> None:
    with open(job_path, "r", encoding="utf-8") as fh:
        job = json.load(fh)
    argvs = [op["argv"] for op in job["ops"]]
    run_job(job["warmup"])
    reference.measure()

    op_times, refs, traced_walls, codes, layer_runs = [], [], [], [], []
    outputs: list[str] = []
    deadline = time.perf_counter() + seconds
    while True:
        refs.append([])
        times, job_codes, outputs = run_job(argvs, refs[-1])
        op_times.append(times)
        codes.append(job_codes)
        if trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced, job_codes, outputs = run_job(argvs)
            finally:
                tracer.restore()
            traced_walls.append(sum(traced))
            codes.append(job_codes)
            layer_runs.append(tracer.layer_metrics(sum(traced), sum(traced) - sum(times)))
        step = sum(times) + sum(refs[-1]) + (traced_walls[-1] if trace else 0.0)
        if time.perf_counter() + step > deadline:
            break

    report = {
        "op_times": op_times,
        "refs": refs,
        "codes": codes,
        "outputs": outputs,
        "peak_rss_mb": peak_rss_mb(),
    }
    if trace:
        report["layers"] = {
            name: {"value": statistics.median(run[name][0] for run in layer_runs), "unit": unit}
            for name, (_, unit) in layer_runs[0].items()
        }
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], float(sys.argv[3]), sys.argv[4] == "1")
