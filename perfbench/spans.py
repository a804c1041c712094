"""Outside-in span tracing of the package's layers.

``Tracer.install`` replaces every public function of the traced modules with
a wrapper that records a span (name, start, end, parent) in memory, in every
module of the package that holds a reference to it, and ``restore`` puts the
originals back.  ``layer_metrics`` turns the recorded spans and counters into
the per-layer metrics the benchmark reports.

Spans nest by call stack, so a span's children never overlap one another and
its self time is its duration minus the sum of its children's durations.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

PACKAGE = "rateorank"
#: Modules whose public functions are traced; ``errors`` defines no functions.
MODULES = ("cli", "graph", "models", "estimate", "sim", "bounds", "packing")

NLL = "models.neg_log_likelihood"
GRADIENT = "models.gradient"
PROJECT = "estimate.project_feasible"
MLE_FIT = "estimate.mle_fit"
READ_CSV = ("cli.read_ordinal_csv", "cli.read_cardinal_csv")
SIM_METRICS = ("sim.seminorm_sq", "sim.per_item_l2_sq", "sim.scaled_l2_sq", "sim.kendall_tau")
BOUNDS = ("bounds.kappa", "bounds.minimax_cvo", "bounds.minimax_seminorm", "bounds.decide",
          "bounds.decision_grid", "bounds.write_decision_grid")

#: Functions the per-layer metrics are defined on; a traced run refuses to
#: start if any of them is missing.
REQUIRED = (
    *READ_CSV, "cli.main",
    "graph.comparison_graph", "graph.build_laplacian", "graph.build_laplacian_from_design",
    "graph.generate_topology",
    NLL, GRADIENT, "models.sample",
    MLE_FIT, PROJECT, "estimate.cv_sigma",
    "sim.run_experiment", *SIM_METRICS,
    "packing.gv_code", "packing.verify_packing",
    *BOUNDS,
)

# A projection result counts as touching the box within this distance of it.
_ACTIVE_TOL = 1e-9


class MissingLayerError(RuntimeError):
    """A function the per-layer metrics need no longer exists in the package."""


def self_times(starts, ends, parents) -> list[float]:
    """Self time of every span: its duration minus its children's durations."""
    own = [e - s for s, e in zip(starts, ends)]
    for child, parent in enumerate(parents):
        if parent >= 0:
            own[parent] -= ends[child] - starts[child]
    return own


def public_functions(module) -> dict[str, object]:
    """Functions defined in ``module`` whose names do not start with an underscore."""
    return {
        name: fn for name, fn in vars(module).items()
        if inspect.isfunction(fn) and fn.__module__ == module.__name__ and not name.startswith("_")
    }


class Tracer:
    """Records spans and counters for wrapped calls; one instance per traced job."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, after=None):
        """A wrapper for ``fn`` that records one span per call, then runs ``after``."""
        nid = self._id(name)
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0.0)
            stack.append(index)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[index] = clock()
                stack.pop()
            if after is not None:
                after(self, index, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def count_since(self, index: int, name: str) -> int:
        """Spans named ``name`` opened after span ``index`` (its descendants, once it has closed)."""
        nid = self._name_ids.get(name)
        return 0 if nid is None else self.name_id[index + 1:].count(nid)

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of the traced modules wherever the package holds it."""
        modules = {name: sys.modules[f"{PACKAGE}.{name}"] for name in MODULES}
        targets = {f"{short}.{fname}": fn
                   for short, module in modules.items() for fname, fn in public_functions(module).items()}
        missing = [name for name in REQUIRED if name not in targets]
        if missing:
            raise MissingLayerError(f"traced functions missing from the package: {', '.join(missing)}")
        wrappers = {id(fn): self.wrap(name, fn, _HOOKS.get(name)) for name, fn in targets.items()}
        holders = [m for name, m in sys.modules.items() if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for module in holders:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and inspect.isfunction(value):
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, value))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- reading -------------------------------------------------------------

    def _spans_by_name(self) -> dict[str, list[int]]:
        by_id: dict[int, list[int]] = {}
        for i, nid in enumerate(self.name_id):
            by_id.setdefault(nid, []).append(i)
        return {self.names[nid]: spans for nid, spans in by_id.items()}

    def layer_metrics(self, wall_s: float, overhead_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of everything recorded so far, as name -> (value, unit)."""
        own = self_times(self.start, self.end, self.parent)
        by_name = self._spans_by_name()
        c = self.counts

        def calls(name):
            return len(by_name.get(name, ()))

        def self_s(name):
            return sum(own[i] for i in by_name.get(name, ()))

        def seconds(*names):
            """Inclusive time in a group of spans, not counting a member nested in another."""
            ids = {self._name_ids[n] for n in names if n in self._name_ids}
            total = 0.0
            for name in names:
                for i in by_name.get(name, ()):
                    p = self.parent[i]
                    while p >= 0 and self.name_id[p] not in ids:
                        p = self.parent[p]
                    if p < 0:
                        total += self.end[i] - self.start[i]
            return total

        iterations, backtracks = c["estimate.iterations"], c["estimate.backtracks"]
        steps = iterations + backtracks
        return {
            "cli.read_csv.s": (seconds(*READ_CSV), "s"),
            "cli.read_csv.rows": (c["cli.read_csv.rows"], "count"),
            "graph.comparison_graph.s": (seconds("graph.comparison_graph"), "s"),
            "graph.build_laplacian.self_s": (self_s("graph.build_laplacian"), "s"),
            "graph.build_laplacian_from_design.self_s":
                (self_s("graph.build_laplacian_from_design"), "s"),
            "graph.laplacian.calls": (calls("graph.build_laplacian"), "count"),
            "graph.generate_topology.s": (seconds("graph.generate_topology"), "s"),
            "models.nll.calls": (calls(NLL), "count"),
            "models.nll.s": (seconds(NLL), "s"),
            "models.gradient.calls": (calls(GRADIENT), "count"),
            "models.gradient.s": (seconds(GRADIENT), "s"),
            "models.terms": (c["models.terms"], "count"),
            "models.sample.s": (seconds("models.sample"), "s"),
            "estimate.mle_fit.calls": (calls(MLE_FIT), "count"),
            "estimate.mle_fit.self_s": (self_s(MLE_FIT), "s"),
            "estimate.iterations": (iterations, "count"),
            "estimate.backtracks": (backtracks, "count"),
            "estimate.accept_ratio": (iterations / steps if steps else 0.0, "ratio"),
            "estimate.accept_ratio.base": (steps, "count"),
            "estimate.nonconverged": (c["estimate.nonconverged"], "count"),
            "estimate.project.calls": (calls(PROJECT), "count"),
            "estimate.project.s": (seconds(PROJECT), "s"),
            "estimate.project.active_calls": (c["estimate.project.active_calls"], "count"),
            "estimate.cv_sigma.self_s": (self_s("estimate.cv_sigma"), "s"),
            "sim.run_experiment.self_s": (self_s("sim.run_experiment"), "s"),
            "sim.metrics.s": (seconds(*SIM_METRICS), "s"),
            "sim.trials": (c["sim.trials"], "count"),
            "packing.gv_code.s": (seconds("packing.gv_code"), "s"),
            "packing.verify_packing.s": (seconds("packing.verify_packing"), "s"),
            "bounds.s": (seconds(*BOUNDS), "s"),
            "trace.wall_s": (wall_s, "s"),
            "trace.uncovered_s": (wall_s - sum(own), "s"),
            "trace.overhead_s": (overhead_s, "s"),
        }


# -- counters recorded when a wrapped call returns ----------------------------

def _count_rows(tracer, index, args, kwargs, dataset):
    tracer.counts["cli.read_csv.rows"] += len(dataset.outcomes)


def _count_terms(tracer, index, args, kwargs, result):
    obs = args[2] if len(args) > 2 else kwargs["obs"]
    tracer.counts["models.terms"] += obs.n


def _count_fit(tracer, index, args, kwargs, result):
    tracer.counts["estimate.iterations"] += result.iterations
    tracer.counts["estimate.nonconverged"] += not result.converged
    tracer.counts["estimate.backtracks"] += tracer.count_since(index, NLL) - len(result.nll_path)


def _count_active(tracer, index, args, kwargs, result):
    b_bound = args[1] if len(args) > 1 else kwargs["b_bound"]
    tracer.counts["estimate.project.active_calls"] += bool(np.any(np.abs(result) >= b_bound - _ACTIVE_TOL))


def _count_trials(tracer, index, args, kwargs, result):
    config = args[0] if args else kwargs["config"]
    tracer.counts["sim.trials"] += config.trials


_HOOKS = {
    "cli.read_ordinal_csv": _count_rows,
    "cli.read_cardinal_csv": _count_rows,
    NLL: _count_terms,
    GRADIENT: _count_terms,
    MLE_FIT: _count_fit,
    PROJECT: _count_active,
    "sim.run_experiment": _count_trials,
}
