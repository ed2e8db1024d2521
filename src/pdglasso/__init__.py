"""Paired-data graphical lasso: joint structure learning of two dependent
Gaussian graphical models with fused symmetry penalties.

BLAS threads: when this package is imported before numpy, as both CLI entry
points (``python -m pdglasso`` and the ``pdglasso`` script) do, it sets
``OPENBLAS_NUM_THREADS=1`` unless ``OPENBLAS_NUM_THREADS``,
``GOTO_NUM_THREADS`` or ``OMP_NUM_THREADS`` is already set and non-empty.
The solver's p x p eigendecompositions, inverses and products gain nothing
from a second BLAS thread at the sizes this package is used for, and the
idle threads busy-wait and cost start-up time.  Parallel work comes from
``simulate``'s forked workers instead.  Imported after numpy, the package changes
no environment variable: numpy's BLAS has already started and the variable
would only leak into child processes.
"""

import os as _os
import sys as _sys

if "numpy" not in _sys.modules and not any(
    _os.environ.get(name)
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
):
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"

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
    lambda1_block_max,
    lambda1_diag_max,
    lambda2_sym_max,
    objective,
)
from .solver import (
    AdmmConfig,
    SolveReport,
    optimality_residual,
    pdglasso_solve,
    theta_step,
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
    graph_from_threshold,
    matrix_losses,
    mvn_sample_cov,
    pdrcon_covariance,
    run_scenario,
    wishart_identity,
)

__all__ = [name for name in dir() if not name.startswith("_")]
