"""Linear-Gaussian structural systems on pre-marginalized DAGs.

The package fits linear structural systems with standard-normal roots to a
target covariance by propagating covariance through the layered form of the
graph, and uses repeated randomized fits to probe causal-effect
identifiability.  Names beyond the seven in ``__all__`` come from their modules.
"""

from pmdag.gauss import CovMatrix
from pmdag.generate import canonical, ground_truth
from pmdag.identify import InterventionQuery, identify
from pmdag.solver import FitConfig, fit

__all__ = ["CovMatrix", "FitConfig", "InterventionQuery", "canonical", "fit",
           "ground_truth", "identify"]

__version__ = "0.1.0"
