"""Null-control synthesis for the Keller-Segel system, uniform in the
relaxation parameter, via Carleman-weighted space-time least squares."""

from .grid import Grid, build_grid, chemotaxis_divergence, mass, neumann_laplacian
from .ks_model import (
    Control,
    KSParams,
    solve_forward_pp,
    solve_linearized,
)
from .adjoint import AdjointTrajectory, solve_adjoint
from .weights import build_eta0, carleman_weights, refined_weights, weight_params
from .hum_control import ControlProblem, SolverSettings, extract_control, solve_dual
from .nonlinear_control import eps_sweep, picard_solve

__version__ = "0.1.0"


def backend_name() -> str:
    """The array backend every operator runs on; there is one, numpy."""
    return "numpy"


__all__ = [
    "AdjointTrajectory",
    "Control",
    "ControlProblem",
    "Grid",
    "KSParams",
    "SolverSettings",
    "backend_name",
    "build_eta0",
    "build_grid",
    "carleman_weights",
    "chemotaxis_divergence",
    "eps_sweep",
    "extract_control",
    "mass",
    "neumann_laplacian",
    "picard_solve",
    "refined_weights",
    "solve_adjoint",
    "solve_dual",
    "solve_forward_pp",
    "solve_linearized",
    "weight_params",
    "__version__",
]
