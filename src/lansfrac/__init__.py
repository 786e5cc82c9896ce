"""Pseudo-spectral solver and verification suite for the viscous Camassa-Holm
(fractional LANS-alpha) equations on the 2pi-periodic torus in 2D/3D."""

__version__ = "0.1.0"

# The names the acceptance criteria use; everything else is imported from its
# submodule.
from .spectral import (
    Params,
    dealias,
    make_grid,
    norm_DAr,
    semigroup_apply,
)
from .operators import rhs_f, u_from_v
from .integrator import (
    InitialData,
    SchemeKind,
    SimConfig,
    StepScheme,
    make_initial,
    run,
)
from .mild import HolderClass, holder_membership, picard_solve
from .diagnostics import energy_balance_residual, smoothing_rate

__all__ = [name for name in dir() if not name.startswith("_")]
