"""Pseudo-spectral solver and verification suite for the viscous Camassa-Holm
(fractional LANS-alpha) equations on the 2pi-periodic torus in 2D/3D."""

__version__ = "0.1.0"

from .spectral import (
    GridSpec,
    Params,
    Regime,
    SpectralField,
    dealias,
    frac_stokes_apply,
    infer_regime,
    inner,
    l2_norm,
    leray_project,
    make_grid,
    norm_DAr,
    semigroup_apply,
    to_physical,
    to_spectral,
)
from .operators import (
    rhs_f,
    rhs_v,
    stress_form_f,
    u_from_v,
    v_from_u,
    v_nonlinearity,
)
from .integrator import (
    InitialData,
    SchemeKind,
    SimConfig,
    StepScheme,
    Trajectory,
    galerkin_truncate,
    make_initial,
    phi_functions,
    run,
    run_pair_uniqueness,
)
from .mild import (
    HolderClass,
    PicardState,
    holder_membership,
    picard_solve,
    semigroup_class_check,
)
from .diagnostics import (
    DiagRecord,
    RateFit,
    apriori_monitor,
    energy_balance_residual,
    record,
    smoothing_rate,
    spectrum,
)

__all__ = [name for name in dir() if not name.startswith("_")]
