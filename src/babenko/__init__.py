"""Steady periodic gravity water waves on finite depth.

Pseudo-spectral solution of the modified Babenko equation by cosine
collocation, Newton iteration and amplitude continuation: families of
waves are traced from their small-amplitude bifurcation points through
turning points and secondary bifurcations up to waves of extreme form.
"""

from .continuation import (
    Branch,
    BranchEvent,
    ContinuationConfig,
    continue_branch,
    detect_secondary_bifurcations,
    detect_turning_points,
    navigate_secondaries,
    start_branch,
    switch_branch,
    trace_to_extreme,
    trivial_bifurcation_mu,
)
from .geometry import (
    WaveProfile,
    conformal_map_sample,
    crest_angle_estimate,
    modified_coefficients,
    r_curve,
    surface_curve,
)
from .solver import (
    NewtonConfig,
    ProjectionConstraint,
    SolutionPoint,
    SolveFailure,
    newton_solve,
    residual_fixed_r,
    residual_modified,
)
from .spectral import (
    CosineGrid,
    DepthParams,
    DomainError,
    mu_symbol,
)

__version__ = "0.1.0"

__all__ = [
    "Branch",
    "BranchEvent",
    "ContinuationConfig",
    "CosineGrid",
    "DepthParams",
    "DomainError",
    "NewtonConfig",
    "ProjectionConstraint",
    "SolutionPoint",
    "SolveFailure",
    "WaveProfile",
    "conformal_map_sample",
    "continue_branch",
    "crest_angle_estimate",
    "detect_secondary_bifurcations",
    "detect_turning_points",
    "modified_coefficients",
    "mu_symbol",
    "navigate_secondaries",
    "newton_solve",
    "r_curve",
    "residual_fixed_r",
    "residual_modified",
    "start_branch",
    "surface_curve",
    "switch_branch",
    "trace_to_extreme",
    "trivial_bifurcation_mu",
    "__version__",
]
