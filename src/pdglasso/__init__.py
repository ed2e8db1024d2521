"""Paired-data graphical lasso: joint structure learning of two dependent
Gaussian graphical models with fused symmetry penalties."""

__version__ = "0.1.0"

from .errors import (
    DimensionError,
    InputError,
    MleError,
    NotPositiveDefiniteError,
    PdglassoError,
)
from .paired import (
    PairedIndex,
    log_likelihood,
    pd_unvec,
    pd_vec,
    swap_blocks,
    symmetrize_paired,
)
from .penalties import (
    INF,
    PenaltySpec,
    fused_penalty,
    l1_penalty,
    lambda1_block_max,
    lambda1_diag_max,
    lambda2_sym_max,
    objective,
)
from .solver import (
    AdmmConfig,
    FusedDiffOperator,
    SolveReport,
    optimality_residual,
    pdglasso_solve,
    soft_threshold,
    theta_step,
    z_step,
)
from .model import (
    FitResult,
    GraphSummary,
    LrtResult,
    PdColouredGraph,
    SubmodelClass,
    ebic,
    extract_graph,
    graph_summary,
    lrt,
    mle,
    mle_fully_symmetric,
    model_select,
    n_params,
    partial_correlations,
    partial_variances,
    rcon_residual,
    selection_path,
)
from .simulate import (
    EdgeMetrics,
    MatrixLosses,
    ScenarioSpec,
    edge_metrics,
    ggm_covariance,
    graph_from_threshold,
    matrix_losses,
    mvn_sample_cov,
    pdrcon_covariance,
    run_scenario,
    wishart_identity,
)

__all__ = [name for name in dir() if not name.startswith("_")]
