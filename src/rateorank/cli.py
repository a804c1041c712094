"""Command-line front end.

Subcommands:

* ``fit``       -- estimate quality scores from a ratings or comparisons CSV.
* ``decide``    -- rate-or-rank verdict for given noise scales, or a whole grid.
* ``simulate``  -- Monte Carlo risk sweep driven by a JSON experiment config.
* ``topology``  -- spectral report for a named comparison topology.
* ``pack``      -- build a separated vector family on the complete design.

Exit codes: 0 on success, 2 for malformed input data or config, 3 for model
failures (disconnected designs, unusable folds, failed constructions).
"""

from __future__ import annotations

import argparse
import json
import math
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

ID_ORDERS = ("first-appearance", "sorted")

_SWEEP_TYPES = {"n": int, "d": int, "sigma": float, "topology.kind": str}


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


def _rating(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(value)
    return value


_OUTCOMES = {"+1": 1.0, "1": 1.0, "-1": -1.0}
COMPARISON_ROWS = graph.RowFormat("left,right,outcome", "comparison", _OUTCOMES.__getitem__, "+1 or -1")
RATING_ROWS = graph.RowFormat("item,rating", "rating", _rating, "a number")


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
    metrics: dict | None = None,
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
    }
    if metrics:
        doc["metrics"] = metrics
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


def _parse_sigma_grid(text: str) -> tuple[float, ...] | None:
    if text == "default":
        return None  # estimate.cv_sigma falls back to its default grid
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise DataFormatError(f"--cv-grid must be 'default' or comma-separated numbers, got {text!r}") from None


def cmd_fit(args) -> int:
    if args.model == "cardinal":
        dataset = read_cardinal_csv(args.data, args.id_order)
        spec = models.ModelSpec(models.CARDINAL, sigma=args.sigma if args.sigma is not None else 1.0)
    else:
        dataset = read_ordinal_csv(args.data, args.id_order)
        if args.sigma is None and args.cv_grid is None:
            raise DataFormatError(f"the {args.model} model needs --sigma or --cv-grid")
        spec = models.ModelSpec(args.model, sigma=args.sigma if args.sigma is not None else 1.0, b_bound=args.b_bound)

    config = estimate.FitConfig(
        b_bound=args.b_bound,
        sigma_grid=_parse_sigma_grid(args.cv_grid) if args.cv_grid is not None else None,
        seed=args.seed,
    )
    obs = dataset.to_observations(spec)

    metrics: dict = {}
    if args.model != "cardinal" and args.cv_grid is not None:
        sigma_best, table = estimate.cv_sigma(obs, config)
        obs = obs.with_sigma(sigma_best)
        metrics["cv_table"] = [{"sigma": s, "heldout_loglik": ll} for s, ll in table]

    result = estimate.mle_fit(obs, config)
    metrics.update(
        final_nll=result.final_nll,
        iterations=result.iterations,
        converged=result.converged,
        active_box=list(result.active_box),
    )

    doc = result_document(dataset.item_ids, result, args.model, args.b_bound, metrics,
                          bounds.applicable_bound(obs, args.b_bound))
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
        sc_lo, sc_hi, so_lo, so_hi = args.grid
        rows = bounds.decision_grid((sc_lo, sc_hi), (so_lo, so_hi), args.b_bound, args.resolution)
        if args.out:
            bounds.write_decision_grid(rows, args.out)
        seen = [verdict for _, _, verdict in rows]
        names = (bounds.VERDICT_CARDINAL, bounds.VERDICT_ORDINAL, bounds.VERDICT_INDETERMINATE)
        print(f"decision grid {args.resolution}x{args.resolution}: " + ", ".join(f"{v}={seen.count(v)}" for v in names))
        return EXIT_OK
    decision = bounds.decide(args.sigma_c, args.sigma_o, args.b_bound)
    lo, hi = decision.ordinal_interval
    print(f"verdict: {decision.verdict}")
    print(f"cardinal risk ~ {decision.cardinal_risk:.6g} * d/n")
    print(f"ordinal risk in [{lo:.6g}, {hi:.6g}] * d/n")
    return EXIT_OK


def _config_value(doc: dict, path: str, expected, required: bool = True, default=None):
    node = doc
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            if required:
                raise DataFormatError(f"config field {path}: missing")
            return default
        node = node[part]
    return _checked(path, node, expected)


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


def parse_experiment_config(doc: dict) -> tuple[sim.ExperimentConfig, str | None, list]:
    """Validate a simulate config document; returns (config, sweep_param, sweep_values)."""
    kind = _config_value(doc, "model.kind", str)
    if kind not in models.MODEL_KINDS:
        raise DataFormatError(f"config field model.kind: unknown model {kind!r}")
    sigma = _config_value(doc, "model.sigma", float)
    b_bound = _config_value(doc, "model.b_bound", float, required=kind in models.BINARY_KINDS, default=None)
    topo_kind = _config_value(doc, "topology.kind", str, required=kind != models.CARDINAL, default="complete")
    d = _config_value(doc, "topology.d", int)
    n = _config_value(doc, "topology.n", int)
    k = _config_value(doc, "topology.k", int, required=False)
    trials = _config_value(doc, "trials", int)
    seed = _config_value(doc, "seed", int, required=False, default=0)

    if "w_true" not in doc:
        raise DataFormatError("config field w_true: missing")
    w_true = doc["w_true"]
    if isinstance(w_true, list):
        w_true = models.QualityVector(np.array([_checked("w_true", value, float) for value in w_true]))
    elif isinstance(w_true, dict):
        for name, expected in (("b", float), ("delta", float), ("alpha", float), ("index", int)):
            _config_value(doc, f"w_true.{name}", expected, required=False)
    else:
        raise DataFormatError("config field w_true: expected a vector or a generator rule object")

    _config_value(doc, "fit", dict, required=False)
    fit_grid = _config_value(doc, "fit.sigma_grid", list, required=False)
    default_box = b_bound if b_bound is not None else 1.0
    fit = estimate.FitConfig(
        b_bound=_config_value(doc, "fit.b_bound", float, required=False, default=default_box),
        max_iters=_config_value(doc, "fit.max_iters", int, required=False, default=2000),
        grad_tol=_config_value(doc, "fit.grad_tol", float, required=False),
        sigma_grid=tuple(_checked("fit.sigma_grid", s, float) for s in fit_grid) if fit_grid else None,
        seed=_config_value(doc, "fit.seed", int, required=False, default=0),
    )

    try:
        model = models.ModelSpec(kind, sigma=sigma, b_bound=b_bound)
        config = sim.ExperimentConfig(
            model=model,
            topology=sim.TopologySpec(kind=topo_kind, d=d, n=n, k=k),
            w_true=w_true,
            trials=trials,
            seed=seed,
            fit=fit,
        )
    except (ValueError, ModelKindError) as exc:
        raise DataFormatError(f"config rejected: {exc}") from exc

    sweep_param, sweep_values = None, []
    if "sweep" in doc:
        sweep_param = _config_value(doc, "sweep.param", str)
        sweep_values = _config_value(doc, "sweep.values", list)
        if sweep_param not in sim.SWEEPABLE:
            raise DataFormatError(f"config field sweep.param: cannot sweep {sweep_param!r}")
        if not sweep_values:
            raise DataFormatError("config field sweep.values: must be a nonempty list")
        for value in sweep_values:
            _checked("sweep.values", value, _SWEEP_TYPES[sweep_param])
    return config, sweep_param, sweep_values


def cmd_simulate(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
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
    g = graph.generate_topology(args.kind, args.d, args.n, seed=args.seed, k=args.k)
    lap = graph.laplacian_of(g)
    print(f"topology {args.kind}: d={args.d} n={args.n} edges={len(g.edges)}")
    print(f"connected: {lap.connected}")
    print(f"lambda2(std): {lap.lambda2_std:.6g}")
    print(f"trace_pinv(std): {lap.trace_pinv_std:.6g}")
    print(f"rate factor d/lambda2(std): {args.d / lap.lambda2_std:.6g}  (x sigma^2/n)")
    if args.out:
        graph.write_edge_list(g, args.out)
    return EXIT_OK


def cmd_pack(args) -> int:
    lap = graph.laplacian_of(graph.generate_topology("complete", args.d, args.d * (args.d - 1) // 2))
    pack = packing.build_packing(lap, args.delta, args.alpha)
    report = packing.verify_packing(pack)
    if args.out:
        packing.packing_to_json(pack, args.out)
    print(f"packing: d={args.d} delta={args.delta:g} alpha={args.alpha:g} beta={pack.beta:.6g}")
    print(f"vectors: {pack.count}")
    print(f"pair separation^2 in [{report.min_pair:.6g}, {report.max_pair:.6g}] "
          f"(required [{args.alpha * args.delta**2:.6g}, {4 * args.delta**2:.6g}])")
    print(f"max |sum(w)|: {report.mean_zero_max:.3g}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rateorank", description="Quality scores from ratings or comparisons.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit quality scores from a CSV dataset")
    fit.add_argument("data", help="CSV file: item,rating or left,right,outcome rows")
    fit.add_argument("--model", choices=FIT_MODELS, required=True)
    fit.add_argument("--sigma", type=float, default=None, help="noise scale (fixed)")
    fit.add_argument("--cv-grid", default=None,
                     help="'default' or comma-separated sigmas to cross-validate over")
    fit.add_argument("--b-bound", type=float, default=1.0)
    fit.add_argument("--id-order", choices=ID_ORDERS, default="first-appearance")
    fit.add_argument("--seed", type=int, default=0)
    fit.add_argument("--out", default=None, help="write the fit document (JSON) here")
    fit.set_defaults(func=cmd_fit)

    decide = sub.add_parser("decide", help="rate-or-rank verdict from noise scales")
    decide.add_argument("--sigma-c", type=float, help="rating noise scale")
    decide.add_argument("--sigma-o", type=float, help="comparison noise scale")
    decide.add_argument("--b-bound", type=float, default=1.0)
    decide.add_argument("--grid", type=float, nargs=4, metavar=("SC_LO", "SC_HI", "SO_LO", "SO_HI"),
                        default=None, help="evaluate a log-spaced verdict grid instead")
    decide.add_argument("--resolution", type=int, default=20)
    decide.add_argument("--out", default=None, help="write the grid as CSV here")
    decide.set_defaults(func=cmd_decide)

    simulate = sub.add_parser("simulate", help="Monte Carlo risk sweep from a JSON config")
    simulate.add_argument("--config", required=True)
    simulate.add_argument("--out", default=None, help="write the sweep table as CSV here")
    simulate.set_defaults(func=cmd_simulate)

    topology = sub.add_parser("topology", help="spectral report for a comparison topology")
    topology.add_argument("--kind", choices=graph.TOPOLOGY_KINDS, required=True)
    topology.add_argument("--d", type=int, required=True)
    topology.add_argument("--n", type=int, required=True)
    topology.add_argument("--k", type=int, default=None, help="degree for the expander kind")
    topology.add_argument("--seed", type=int, default=0)
    topology.add_argument("--out", default=None, help="write the edge list here")
    topology.set_defaults(func=cmd_topology)

    pack = sub.add_parser("pack", help="build a separated vector family (complete design)")
    pack.add_argument("--d", type=int, required=True)
    pack.add_argument("--delta", type=float, required=True)
    pack.add_argument("--alpha", type=float, required=True)
    pack.add_argument("--out", default=None, help="write the packing as JSON here")
    pack.set_defaults(func=cmd_pack)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "decide" and args.grid is None and (args.sigma_c is None or args.sigma_o is None):
        print("error: decide needs --sigma-c and --sigma-o (or --grid)", file=sys.stderr)
        return EXIT_DATA
    try:
        return args.func(args)
    except (DataFormatError, FileNotFoundError) as exc:
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
