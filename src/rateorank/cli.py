"""Command-line front end.

Subcommands:

* ``fit``       -- estimate quality scores from a ratings or comparisons CSV.
* ``decide``    -- rate-or-rank verdict for given noise scales, or a whole grid.
* ``simulate``  -- Monte Carlo risk sweep driven by a JSON experiment config.
* ``topology``  -- spectral report for a named comparison topology.
* ``pack``      -- build a separated vector family on the complete design.

Exit codes: 0 on success, 2 for malformed input data or config or a file that
cannot be opened, 3 for model failures (disconnected designs, unusable folds,
failed constructions).
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__, bounds, estimate, graph, models, packing, sim
from .errors import DataFormatError, ModelKindError, RateorankError

EXIT_OK = 0
EXIT_DATA = 2
EXIT_MODEL = 3

SCHEMA_VERSION = "1"

#: Models fit from files; paired_linear has real-valued pair outcomes, which the
#: two documented CSV schemas cannot carry, so it is simulation/library-only here.
FIT_MODELS = ("cardinal", "thurstone", "btl")

#: Every field a simulate config may carry, by dotted path, with the type ``_checked`` reads it as.  ``w_true`` may
#: be a vector or a rule object: its ``rule`` and which fields that rule reads are judged by ``sim._rule_fields``,
#: and each rule field is typed by its default in ``sim.W_TRUE_RULES``.
_CONFIG_FIELDS = {
    "model.kind": str, "model.sigma": float, "model.b_bound": float,
    "topology.kind": str, "topology.d": int, "topology.n": int, "topology.k": int,
    "w_true.rule": object,
    **{f"w_true.{name}": type(default) for rule in sim.W_TRUE_RULES.values() for name, default in rule.items()},
    "trials": int, "seed": int, "sweep.param": str, "sweep.values": list,
}


@dataclass(frozen=True)
class Dataset:
    """Parsed input rows with item ids resolved to indices."""

    kind: str  # "cardinal" | "ordinal"
    item_ids: tuple[str, ...]
    design: np.ndarray
    outcomes: np.ndarray

    @property
    def d(self) -> int:
        return len(self.item_ids)

    def to_observations(self, spec: models.ModelSpec) -> models.ObservationSet:
        if spec.kind == models.CARDINAL and self.kind != "cardinal":
            raise ModelKindError("the cardinal model needs item,rating rows, not comparisons")
        if spec.kind != models.CARDINAL and self.kind != "ordinal":
            raise ModelKindError(f"the {spec.kind} model needs left,right,outcome rows, not ratings")
        return models.ObservationSet(spec, self.d, self.design, self.outcomes)


_OUTCOMES = {"+1": 1.0, "1": 1.0, "-1": -1.0}
COMPARISON_ROWS = graph.RowFormat("left,right,outcome", "comparison", _OUTCOMES.__getitem__, "+1 or -1")
RATING_ROWS = graph.RowFormat("item,rating", "rating", float, "a number")


def read_ordinal_csv(path, id_order: str = "first-appearance") -> Dataset:
    """Read ``left,right,outcome`` rows with outcomes exactly +1 or -1."""
    return Dataset("ordinal", *graph.read_rows(path, COMPARISON_ROWS, id_order))


def read_cardinal_csv(path, id_order: str = "first-appearance") -> Dataset:
    """Read ``item,rating`` rows with real-valued ratings."""
    return Dataset("cardinal", *graph.read_rows(path, RATING_ROWS, id_order))


def result_document(
    item_ids: tuple[str, ...],
    result: estimate.FitResult,
    model_kind: str,
    b_bound: float,
    metrics: dict,
    bound_report: bounds.BoundReport | None = None,
) -> dict:
    """Assemble the JSON-ready fit document, items sorted by score descending."""
    w = result.w_hat.values
    order = np.argsort(-w, kind="stable")
    doc = {
        "schema_version": SCHEMA_VERSION,
        "model": model_kind,
        "sigma_used": result.sigma_used,
        "b_bound": b_bound,
        "items": [{"id": item_ids[i], "w_hat": float(w[i])} for i in order],
        "metrics": metrics,
    }
    if bound_report is not None:
        keys = ("model_kind", "norm", "lower", "upper", "kappa", "sample_condition_met", "in_regime")
        doc["bounds"] = {key: getattr(bound_report, key) for key in keys}
    return doc


def load_result_document(path) -> dict:
    """Reload a fit document; validates the schema version."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise DataFormatError(f"{path}: unsupported schema_version {doc.get('schema_version')!r}")
    return doc


def _write_json(doc: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _parse_sigma_grid(text: str | None) -> tuple[float, ...]:
    if text is None or text == "default":
        return estimate.DEFAULT_SIGMA_GRID
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise DataFormatError(f"--cv-grid must be 'default' or comma-separated numbers, got {text!r}") from None


def _seed(args) -> int:
    """``--seed``, 0 when unset; a negative seed is refused by name before numpy refuses it without one."""
    if args.seed is not None and args.seed < 0:
        raise DataFormatError(f"--seed: must be a non-negative integer, got {args.seed}")
    return args.seed or 0


def cmd_fit(args) -> int:
    if args.cv_grid is not None and args.sigma is not None:
        raise DataFormatError("--sigma: --cv-grid picks the noise scale, so a fixed --sigma would be ignored")
    if args.seed is not None and args.cv_grid is None:
        raise DataFormatError("--seed: it seeds only the --cv-grid fold shuffle, and there is no --cv-grid")
    if args.model == "cardinal" and args.cv_grid is not None:
        raise DataFormatError("--cv-grid: the cardinal fit is closed-form and has no noise scale to cross-validate")
    if args.model != "cardinal" and args.sigma is None and args.cv_grid is None:
        raise DataFormatError(f"the {args.model} model needs --sigma or --cv-grid")
    # ModelSpec judges which kinds need the box; the cardinal kind carries it unread.
    spec = models.ModelSpec(args.model, sigma=args.sigma if args.sigma is not None else 1.0, b_bound=args.b_bound)
    config = estimate.FitConfig(b_bound=args.b_bound, sigma_grid=_parse_sigma_grid(args.cv_grid), seed=_seed(args))
    # Every flag is judged before the CSV is read.
    read = read_cardinal_csv if args.model == "cardinal" else read_ordinal_csv
    dataset = read(args.data, args.id_order)
    obs = dataset.to_observations(spec)

    metrics: dict = {}
    if args.cv_grid is not None:
        sigma_best, table = estimate.cv_sigma(obs, config)
        obs = obs.with_sigma(sigma_best)
        metrics["cv_table"] = [{"sigma": s, "heldout_loglik": ll} for s, ll in table]

    # The bound reads only the design, sigma and B; taken first, its factorization's
    # buffer is freed before the fit allocates, which keeps the peak memory down.
    bound = bounds.applicable_bound(obs, args.b_bound)
    result = estimate.mle_fit(obs, config)
    metrics.update(
        final_nll=result.final_nll,
        iterations=result.iterations,
        converged=result.converged,
        active_box=list(result.active_box),
    )

    doc = result_document(dataset.item_ids, result, args.model, args.b_bound, metrics, bound)
    if args.out:
        _write_json(doc, args.out)
    print(f"fit {args.model}: d={obs.d} n={obs.n} sigma={obs.model.sigma:g} "
          f"nll={result.final_nll:.6g} converged={result.converged}")
    for entry_ in doc["items"]:
        print(f"  {entry_['id']}: {entry_['w_hat']:+.6f}")
    if not result.converged:
        print("warning: solver did not converge; scores may be inaccurate", file=sys.stderr)
        return EXIT_MODEL
    return EXIT_OK


def cmd_decide(args) -> int:
    if args.grid is not None:
        for flag, value in (("--sigma-c", args.sigma_c), ("--sigma-o", args.sigma_o)):
            if value is not None:
                raise DataFormatError(f"{flag}: --grid sweeps the noise scales, so a fixed {flag} would be ignored")
        sc_lo, sc_hi, so_lo, so_hi = args.grid
        res = args.resolution if args.resolution is not None else 20
        rows = bounds.decision_grid((sc_lo, sc_hi), (so_lo, so_hi), args.b_bound, res)
        if args.out:
            bounds.write_decision_grid(rows, args.out)
        seen = [verdict for _, _, verdict in rows]
        names = (bounds.VERDICT_CARDINAL, bounds.VERDICT_ORDINAL, bounds.VERDICT_INDETERMINATE)
        print(f"decision grid {res}x{res}: " + ", ".join(f"{v}={seen.count(v)}" for v in names))
        return EXIT_OK
    if args.out is not None:
        raise DataFormatError("--out: it writes only the --grid table, and there is no --grid")
    if args.resolution is not None:
        raise DataFormatError("--resolution: it sizes only the --grid table, and there is no --grid")
    if args.sigma_c is None or args.sigma_o is None:
        raise DataFormatError("decide needs --sigma-c and --sigma-o (or --grid)")
    decision = bounds.decide(args.sigma_c, args.sigma_o, args.b_bound)
    lo, hi = decision.ordinal_interval
    print(f"verdict: {decision.verdict}")
    print(f"cardinal risk ~ {decision.cardinal_risk:.6g} * d/n")
    print(f"ordinal risk in [{lo:.6g}, {hi:.6g}] * d/n")
    return EXIT_OK


def _checked(path: str, node, expected):
    """``node`` as type ``expected``; float accepts any number a finite float holds and int rejects booleans."""
    if expected is float:
        if not isinstance(node, (int, float)) or isinstance(node, bool) or not abs(node) <= sys.float_info.max:
            raise DataFormatError(f"config field {path}: expected a number, got {node!r}")
        return float(node)
    if expected is int:
        if not isinstance(node, int) or isinstance(node, bool):
            raise DataFormatError(f"config field {path}: expected an integer, got {node!r}")
        return node
    if not isinstance(node, expected):
        raise DataFormatError(f"config field {path}: expected {expected.__name__}, got {node!r}")
    return node


def _flatten(doc) -> dict:
    """Each top-level value, and each key of an object value, by dotted path; refuses a key no field lives under."""
    flat = {}
    for key, node in doc.items() if isinstance(doc, dict) else ():
        if not any(path.split(".")[0] == key for path in _CONFIG_FIELDS):
            raise DataFormatError(f"config field {key}: unknown")
        flat[key] = node
        for name, value in node.items() if isinstance(node, dict) else ():
            if f"{key}.{name}" not in _CONFIG_FIELDS:
                raise DataFormatError(f"config field {key}.{name}: unknown")
            flat[f"{key}.{name}"] = value
    return flat


def parse_experiment_config(doc: dict) -> tuple[sim.ExperimentConfig, str | None, list]:
    """Validate a simulate config: unknown fields first, then each field as its ``_CONFIG_FIELDS`` type and each
    sweep value as its ``sim.SWEEPABLE`` cast; returns (config, sweep_param, sweep_values)."""
    flat = _flatten(doc)

    def field(path: str, required: bool = True, default=None):
        if path not in flat:
            if required:
                raise DataFormatError(f"config field {path}: missing")
            return default
        return _checked(path, flat[path], _CONFIG_FIELDS[path])

    kind = field("model.kind")
    if kind not in models.MODEL_KINDS:
        raise DataFormatError(f"config field model.kind: unknown model {kind!r}")
    sigma = field("model.sigma")
    b_bound = field("model.b_bound", required=kind in models.BINARY_KINDS)
    topo_kind = field("topology.kind", required=kind != models.CARDINAL, default="complete")
    d, n, k = field("topology.d"), field("topology.n"), field("topology.k", required=False)
    trials, seed = field("trials"), field("seed", required=False, default=0)

    if "w_true" not in flat:
        raise DataFormatError("config field w_true: missing")
    w_true = flat["w_true"]
    if isinstance(w_true, list):
        w_true = models.QualityVector(np.array([_checked("w_true", value, float) for value in w_true]))
    elif isinstance(w_true, dict):
        for path in _CONFIG_FIELDS:
            if path.startswith("w_true."):
                field(path, required=False)
        sim._rule_fields(w_true)  # judged here, so its message is not wrapped as "config rejected"
    else:
        raise DataFormatError("config field w_true: expected a vector or a generator rule object")

    try:
        model = models.ModelSpec(kind, sigma=sigma, b_bound=b_bound)
        config = sim.ExperimentConfig(
            model=model,
            topology=sim.TopologySpec(kind=topo_kind, d=d, n=n, k=k),
            w_true=w_true,
            trials=trials,
            seed=seed,
        )
    except (ValueError, ModelKindError) as exc:
        raise DataFormatError(f"config rejected: {exc}") from exc

    sweep_param, sweep_values = None, []
    if "sweep" in flat:
        sweep_param, sweep_values = field("sweep.param"), field("sweep.values")
        if sweep_param not in sim.SWEEPABLE:
            raise DataFormatError(f"config field sweep.param: cannot sweep {sweep_param!r}")
        if not sweep_values:
            raise DataFormatError("config field sweep.values: must be a nonempty list")
        for value in sweep_values:
            _checked("sweep.values", value, sim.SWEEPABLE[sweep_param][2])
    return config, sweep_param, sweep_values


def cmd_simulate(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DataFormatError(f"{args.config}: invalid JSON ({exc})") from exc
    config, sweep_param, sweep_values = parse_experiment_config(doc)

    if sweep_param is None:
        sweep_param, sweep_values = "n", [config.topology.n]
    rows = sim.sweep(config, sweep_param, sweep_values)

    if args.out:
        sim.write_sweep_csv(rows, args.out)

    for row in rows:
        line = (f"{row.param}={row.value} {row.metric}: mean={row.mean:.6g} "
                f"stderr={row.stderr:.3g} trials={row.trials} failures={row.failures}")
        if row.bound is not None:
            line += f"  bound=[{row.bound.lower:.3g}, {row.bound.upper:.3g}]"
        print(line)
    return EXIT_OK


def cmd_topology(args) -> int:
    if args.kind != "expander":
        for flag, value, role in (("--k", args.k, "sets only the expander degree"),
                                  ("--seed", args.seed, "seeds only the expander sampling")):
            if value is not None:
                raise DataFormatError(f"{flag}: it {role}, and --kind is {args.kind}")
    g = graph.generate_topology(args.kind, args.d, args.n, seed=_seed(args), k=args.k)
    if args.out:
        graph.write_edge_list(g, args.out)
    lap = graph.build_laplacian(g.d, g.edges)
    print(f"topology {args.kind}: d={args.d} n={args.n} edges={len(g.edges)}")
    print(f"connected: {lap.connected}")
    print(f"lambda2(std): {lap.lambda2_std:.6g}")
    print(f"trace_pinv(std): {lap.trace_pinv_std:.6g}")
    print(f"rate factor d/lambda2(std): {args.d / lap.lambda2_std:.6g}  (x sigma^2/n)")
    return EXIT_OK


def cmd_pack(args) -> int:
    g = graph.generate_topology("complete", args.d, args.d * (args.d - 1) // 2)
    lap = graph.build_laplacian(g.d, g.edges)
    pack = packing.build_packing(lap, args.delta, args.alpha)
    report = pack.report
    if args.out:
        packing.packing_to_json(pack, args.out)
    print(f"packing: d={args.d} delta={args.delta:g} alpha={args.alpha:g} beta={pack.beta:.6g}")
    print(f"vectors: {pack.count}")
    print(f"pair separation^2 in [{report.min_pair:.6g}, {report.max_pair:.6g}] "
          f"(required [{args.alpha * (args.delta * args.delta):.6g}, {4 * (args.delta * args.delta):.6g}])")
    print(f"max |sum(w)|: {report.mean_zero_max:.3g}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every call: read it, do not change it."""
    parser = argparse.ArgumentParser(prog="rateorank", description="Quality scores from ratings or comparisons.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit quality scores from a CSV dataset")
    fit.add_argument("data", help="CSV file: item,rating or left,right,outcome rows")
    fit.add_argument("--model", choices=FIT_MODELS, required=True)
    fit.add_argument("--sigma", type=float, default=None, help="noise scale (fixed); not with --cv-grid")
    fit.add_argument("--cv-grid", default=None,
                     help="'default' or comma-separated sigmas to cross-validate over")
    fit.add_argument("--b-bound", type=float, default=1.0)
    fit.add_argument("--id-order", choices=graph.ID_ORDERS, default="first-appearance")
    fit.add_argument("--seed", type=int, default=None, help="seed of the --cv-grid fold shuffle (default 0)")
    fit.add_argument("--out", default=None, help="write the fit document (JSON) here")

    decide = sub.add_parser("decide", help="rate-or-rank verdict from noise scales")
    decide.add_argument("--sigma-c", type=float, help="rating noise scale")
    decide.add_argument("--sigma-o", type=float, help="comparison noise scale")
    decide.add_argument("--b-bound", type=float, default=1.0)
    decide.add_argument("--grid", type=float, nargs=4, metavar=("SC_LO", "SC_HI", "SO_LO", "SO_HI"),
                        default=None, help="evaluate a log-spaced verdict grid instead")
    decide.add_argument("--resolution", type=int, default=None, help="points per --grid axis (default 20)")
    decide.add_argument("--out", default=None, help="write the grid as CSV here")

    simulate = sub.add_parser("simulate", help="Monte Carlo risk sweep from a JSON config")
    simulate.add_argument("--config", required=True)
    simulate.add_argument("--out", default=None, help="write the sweep table as CSV here")

    topology = sub.add_parser("topology", help="spectral report for a comparison topology")
    topology.add_argument("--kind", choices=graph.TOPOLOGY_KINDS, required=True)
    topology.add_argument("--d", type=int, required=True)
    topology.add_argument("--n", type=int, required=True)
    topology.add_argument("--k", type=int, default=None, help="degree for the expander kind")
    topology.add_argument("--seed", type=int, default=None, help="seed of the expander sampling (default 0)")
    topology.add_argument("--out", default=None, help="write the edge list here")

    pack = sub.add_parser("pack", help="build a separated vector family (complete design)")
    pack.add_argument("--d", type=int, required=True)
    pack.add_argument("--delta", type=float, required=True)
    pack.add_argument("--alpha", type=float, required=True)
    pack.add_argument("--out", default=None, help="write the packing as JSON here")
    return parser


def _check_out(path: str) -> None:
    """Raise what opening ``path`` for writing would when it is empty, a directory, or in a directory not reached."""
    if not path:
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    # A trailing separator names a directory whether or not one exists there.
    if os.path.isdir(path) or path.endswith(tuple(sep for sep in (os.sep, os.altsep) if sep)):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    try:  # "dir/." resolves every component of dir: a missing one is ENOENT, a regular file ENOTDIR
        os.stat(os.path.join(os.path.dirname(path), "."))
    except OSError as exc:
        raise type(exc)(exc.errno, exc.strerror, path) from None


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # Every subcommand has --out; a path that cannot be written fails before any work.
        if args.out is not None:
            _check_out(args.out)
        # Looked up at each call, so a replaced or wrapped cmd_* is the one that runs.
        return globals()[f"cmd_{args.command}"](args)
    except (DataFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MODEL if isinstance(exc, RateorankError) else EXIT_DATA
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MODEL


def entry() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
