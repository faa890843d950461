"""Linear-Gaussian structural systems on pre-marginalized DAGs.

The package fits linear structural systems with standard-normal roots to a
target covariance by propagating covariance through the layered form of the
graph, and uses repeated randomized fits to probe causal-effect
identifiability.
"""

from pmdag.graph import (
    LATENT,
    VISIBLE,
    CycleDetected,
    GraphError,
    Node,
    NonRootLatent,
    NotLatent,
    NotLatentRoot,
    NotVisible,
    PmDag,
    RootTarget,
    StructuralParams,
    UnknownNode,
    VisibleRoot,
    augment,
    coalesce,
    exogenize,
    exogenize_params,
    is_correlation_scenario,
    is_mdag,
    is_subdag,
    mutilate,
    validate,
)
from pmdag.sync import InvalidCustomPlan, MaskSet, Synchronization, build_masks, synchronize
from pmdag.gauss import (
    CovMatrix,
    GaussianDist,
    NotPositiveDefinite,
    err_bha,
    err_kl,
    grad_err_bha,
    grad_err_kl,
    kl_gaussian,
    load_cov_csv,
    loss_kernel,
    sample_covariance,
    save_cov_csv,
    spd_factor,
)
from pmdag.solver import (
    FitConfig,
    FitReport,
    backward_acc,
    backward_cov,
    backward_reduced,
    fit,
    forward_acc,
    forward_cov,
    forward_reduced,
    init_weights,
    fit_kl,
    joint_cov,
    optimize_step,
    root_loadings,
    standardize,
)
from pmdag.identify import (
    FitBudgetExhausted,
    IdentVerdict,
    InterventionQuery,
    check_fit,
    identify,
    interventional_dist,
)
from pmdag.generate import (
    GenSpec,
    InfeasibleBudget,
    canonical,
    canonical_names,
    edge_budget,
    ground_truth,
    latent_count,
    premarginalize,
    random_pmdag,
)
from pmdag.experiment import Experiment, run_experiment

__version__ = "0.1.0"
