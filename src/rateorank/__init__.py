"""rateorank: quality-score estimation from ratings and pairwise comparisons.

The package estimates a latent quality vector from cardinal ratings or from
binary/real-valued pairwise comparisons, provides minimax risk intervals for
both measurement schemes (including the rate-or-rank decision rule), spectral
tooling for comparison topologies, verified vector packings for lower-bound
constructions, and a seeded Monte Carlo risk harness.
"""

__version__ = "0.1.0"

from .bounds import (
    BoundReport,
    Decision,
    applicable_bound,
    decide,
    decision_grid,
    kappa,
    minimax_cvo,
    minimax_seminorm,
    write_decision_grid,
)
from .errors import (
    ConnectivityError,
    DataFormatError,
    FoldError,
    InsufficientDataError,
    ModelKindError,
    PackingConstructionError,
    RateorankError,
)
from .estimate import DEFAULT_SIGMA_GRID, FitConfig, FitResult, cv_sigma, mle_fit, project_feasible
from .graph import (
    RANK_TOL,
    TOPOLOGY_KINDS,
    ComparisonGraph,
    Laplacian,
    build_laplacian,
    build_laplacian_from_design,
    comparison_graph,
    generate_topology,
    RowFormat,
    read_rows,
    write_edge_list,
)
from .models import (
    BINARY_KINDS,
    BTL,
    CARDINAL,
    MODEL_KINDS,
    PAIRED_LINEAR,
    PAIRWISE_KINDS,
    THURSTONE,
    as_values,
    curvature,
    ModelSpec,
    ObservationSet,
    QualityVector,
    gradient,
    neg_log_likelihood,
    sample,
    strong_convexity_scalar,
)
from .packing import (
    BinaryCode,
    Packing,
    PackingReport,
    build_packing,
    gv_code,
    hamming_ball_volume,
    packing_rate,
    packing_to_json,
    verify_packing,
)
from .sim import (
    METRIC_KENDALL,
    METRIC_PER_ITEM,
    METRIC_SCALED,
    METRIC_SEMINORM,
    SWEEPABLE,
    ExperimentConfig,
    RiskEstimate,
    SweepRow,
    TopologySpec,
    cardinal_design,
    kendall_tau,
    per_item_l2_sq,
    resolve_w_true,
    run_experiment,
    scaled_l2_sq,
    seminorm_sq,
    sweep,
    write_sweep_csv,
)

__all__ = [name for name in dir() if not name.startswith("_")]
