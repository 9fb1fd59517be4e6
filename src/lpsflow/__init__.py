"""High-order continuous-Galerkin incompressible flow solver.

Structured tensor-product meshes with standard-Lagrange or spectral (GLL)
elements, a velocity-correction fractional-step scheme with a Poisson solve
per Runge-Kutta stage, and projection-based stabilization of the momentum
equation.
"""

from .basis import Basis1D, equispaced_basis, gll_basis
from .boundary import (
    BoundaryData,
    OutflowConfig,
    apply_velocity_dirichlet,
    build_boundary_data,
    dong_smoothing,
)
from .diagnostics import (
    DiagnosticsRecord,
    divergence_norm,
    enstrophy_dissipation,
    kinetic_energy,
    stabilization_power,
)
from .mesh import BoundaryTag, Mesh, build_structured_mesh
from .operators import ConvectiveForm, GlobalOperators, ScalarField, VectorField
from .stabilization import (
    StabilizationConfig,
    StabilizationMode,
    low_order_term,
    lps_term,
    momentum_stabilization,
    upwind_viscosity,
)
from .stepper import (
    CflError,
    LinearSolveError,
    PhysicalParams,
    SolverAbort,
    StepReport,
    Stepper,
    TimeScheme,
    solve_poisson,
)

__version__ = "0.1.0"
