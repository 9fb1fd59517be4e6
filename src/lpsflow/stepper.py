"""Fractional-step time integration with per-stage pressure projection.

Every stage of a strong-stability-preserving Runge-Kutta scheme, written in
Shu-Osher form, mixes the step's start u_n with one explicit Euler
prediction of the previous stage, v_s = a u_n + b predict(v_{s-1}) with
a + b = 1; ``predict`` advances convection plus stabilization. A pressure
Poisson solve then projects v_s with the projected gradient g_h that LPS
stabilization also uses, and the linear diffusion term is folded in
implicitly once per step.

Both linear systems are SPD and take one direct solve,
:meth:`GlobalOperators.solve_helmholtz` of (a M + b K) x = r, by fast
diagonalization of their Kronecker structure on the Cartesian sub-grid of
DoFs off the pinned faces, with the values there lifted into the
right-hand side. The pressure is a = 0, b = 1 with the outflow faces
pinned; without them the constant null space is dropped. The viscous term
is taken in Laplacian form, nu Delta u, which equals the divergence of
nu (grad u + grad u^T) on divergence-free fields, so every velocity
component sees the same operator M + theta dt nu K, with M = M1 (x) M1 (x)
M1 and the walls pinned at the wall velocity.

The pressure a step keeps is the last stage's divided by that stage's b:
the stage's u* carries only b dt of the step's forcing.
"""

import math
import time
from dataclasses import InitVar, dataclass, field

import numpy as np

from .boundary import (
    BoundaryData,
    apply_velocity_dirichlet,
    build_boundary_data,
    outflow_pressure_dirichlet,
    poisson_boundary_term,
    wall_pressure_neumann,
)
from .mesh import BoundaryTag
from .operators import (
    ConvectiveForm,
    GlobalOperators,
    LinearSolveError,
    ScalarField,
    VectorField,
)
from .stabilization import StabilizationConfig, StabilizationMode, momentum_stabilization

__all__ = [
    "TimeScheme",
    "PhysicalParams",
    "StepReport",
    "Stepper",
    "SolverAbort",
    "CflError",
    "LinearSolveError",
    "solve_poisson",
]

# Shu-Osher coefficients (a, b), a + b = 1: v_s = a*u_n + b*predict(v_{s-1}),
# where predict(v) = v + dt*F(v) is one forward Euler step.
RK_STAGES = {
    "euler1": ((0.0, 1.0),),
    "heun2": ((0.0, 1.0), (0.5, 0.5)),
    "ssprk3": ((0.0, 1.0), (0.75, 0.25), (1.0 / 3.0, 2.0 / 3.0)),
}


class SolverAbort(RuntimeError):
    """Time integration cannot continue (blow-up, CFL violation, ...)."""


class CflError(SolverAbort):
    pass


@dataclass
class TimeScheme:
    """Time step size, RK scheme, CFL guard and viscous theta.

    ``cg_tol`` is accepted and ignored, for callers written when the
    viscous solve was iterative; it is not a field.
    """

    dt: float
    t_end: float = 1.0
    rk: str = "ssprk3"
    cfl_limit: float = 1.0
    diffusion_theta: float = 1.0  # 1 = backward Euler, 0.5 = trapezoidal
    cg_tol: InitVar[float] = None

    def __post_init__(self, cg_tol):
        if not (math.isfinite(self.t_end) and self.t_end > 0):
            raise ValueError(f"t_end must be finite and positive, got {self.t_end}")
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be finite and positive, got {self.dt}")
        if self.rk not in RK_STAGES:
            names = ", ".join(sorted(RK_STAGES))
            raise ValueError(f"unknown rk scheme {self.rk!r} (expected: {names})")
        if not self.cfl_limit > 0:  # inf switches the CFL guard off
            raise ValueError(f"cfl_limit must be positive, got {self.cfl_limit}")
        if not 0.0 <= self.diffusion_theta <= 1.0:
            raise ValueError("diffusion_theta must lie in [0, 1]")


@dataclass
class PhysicalParams:
    nu: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.nu) and self.nu >= 0):
            raise ValueError(
                f"kinematic viscosity must be finite and >= 0, got {self.nu}")


@dataclass
class StepReport:
    t: float
    dt: float
    poisson_iters: tuple  # one 0 per stage: the pressure solve is direct
    diffusion_iters: int  # 0: the viscous solve is direct
    wall_seconds: float
    # perf_counter s: rhs, correct (summed), pressure (per stage), diffuse
    phase_seconds: dict = field(default_factory=dict)


def solve_poisson(ops: GlobalOperators, rhs: ScalarField, *, values=None):
    """Solve the SPD weak Laplacian system K p = rhs; returns p.

    The solve is direct (:meth:`GlobalOperators.solve_helmholtz` with
    a = 0). ``values`` gives the pressure on the outflow faces, whose DoFs
    are pinned (zero if omitted); it is lifted into the right-hand side.
    Without an outflow face the system is pure Neumann and the returned
    pressure has zero Euclidean mean. Raises :class:`LinearSolveError` on
    a non-finite right-hand side.
    """
    p = ops.solve_helmholtz(rhs.values[None], 0.0, 1.0, BoundaryTag.OUTFLOW,
                            values)
    return ScalarField(ops.mesh, p[0])


class Stepper:
    """Owns the operators, boundary data and per-run solver state."""

    def __init__(self, ops: GlobalOperators, physics: PhysicalParams,
                 scheme: TimeScheme,
                 stabilization: StabilizationConfig = None,
                 convective_form=ConvectiveForm.SKEW_SYMMETRIC,
                 boundary: BoundaryData = None):
        self.ops = ops
        self.physics = physics
        self.scheme = scheme
        self.stabilization = stabilization or StabilizationConfig(
            StabilizationMode.NONE, 1.0
        )
        self.convective_form = ConvectiveForm.coerce(convective_form)
        self.boundary = boundary or build_boundary_data(ops.mesh)
        self.pressure = ScalarField(ops.mesh)

    # -- pieces of one stage ---------------------------------------------------

    def inviscid_rhs(self, u: VectorField):
        """-(nodal convection) + M^{-1} stabilization; zero on constrained
        rows. Formed in the convective term's own array."""
        rhs = self.ops.project_convection(u, self.convective_form).data
        np.negative(rhs, out=rhs)
        if self.stabilization.mode is not StabilizationMode.NONE:
            s = momentum_stabilization(self.ops, u, self.stabilization).data
            s *= self.ops._inv_lumped
            rhs += s
        if self.boundary.has_walls:
            rhs[:, self.boundary.wall_dofs] = 0.0
        return rhs

    def predict(self, u: VectorField, dt=None) -> VectorField:
        """Explicit prediction u* = u + dt M^{-1}(-L_N(u) + s), formed in
        the right-hand side's array."""
        dt = self.scheme.dt if dt is None else dt
        rhs = self.inviscid_rhs(u)
        rhs *= dt
        rhs += u.data
        if not np.isfinite(rhs.sum()):
            raise SolverAbort("non-finite values in predicted velocity")
        return VectorField(self.ops.mesh, rhs)

    def solve_pressure(self, u_star: VectorField, dt=None) -> ScalarField:
        """Weak Poisson solve for the stage pressure from div(u*)/dt."""
        dt = self.scheme.dt if dt is None else dt
        ops, bdata = self.ops, self.boundary
        b = ops.weak_divergence(u_star).values
        b *= -(1.0 / dt)
        if bdata.has_walls and self.physics.nu > 0 and ops.mesh.dim >= 2:
            flux = wall_pressure_neumann(ops, bdata, u_star, self.physics.nu)
            b += poisson_boundary_term(ops, bdata, flux).values
        values = None
        if bdata.has_outflow:
            values = outflow_pressure_dirichlet(ops, bdata, u_star, self.physics.nu)
        return solve_poisson(ops, ScalarField(ops.mesh, b), values=values)

    def correct(self, u_star: VectorField, p: ScalarField, dt=None) -> VectorField:
        """Projection update u** = u* - dt g_h(p), one component of the
        projected gradient g_h at a time."""
        dt = self.scheme.dt if dt is None else dt
        out = np.empty_like(u_star.data)
        for k in range(len(out)):
            g = self.ops.projected_partial(p.values, k)
            g *= dt
            np.subtract(u_star.data[k], g, out=out[k])
        return VectorField(self.ops.mesh, out)

    def diffuse(self, u: VectorField, dt=None) -> VectorField:
        """Implicit theta-step of the viscous term nu Delta u, one direct
        solve of (M + theta dt nu K) x = M u - (1 - theta) dt nu K u for
        every component, with the walls held at the wall velocity."""
        dt = self.scheme.dt if dt is None else dt
        nu = self.physics.nu
        if nu == 0.0:
            return u
        ops = self.ops
        theta = self.scheme.diffusion_theta
        rhs = ops.tensor_mass(u.data)
        if theta < 1.0:
            rhs -= (dt * nu) * ops.tensor_stiffness((1.0 - theta) * u.data)
        x = ops.solve_helmholtz(rhs, 1.0, theta * dt * nu,
                                BoundaryTag.DIRICHLET_WALL,
                                self.boundary.wall_values)
        return VectorField(ops.mesh, x)

    # -- full step ---------------------------------------------------------

    def check_cfl(self, u: VectorField, dt):
        limit = self.scheme.cfl_limit
        if limit == np.inf:  # the guard is off
            return
        mesh = self.ops.mesh
        speed = np.sqrt(np.max(np.einsum("kn,kn->n", u.data, u.data)))
        cfl = dt * speed * mesh.order / min(mesh.h_axes)
        if cfl > limit:
            raise CflError(
                f"CFL number {cfl:.3f} exceeds the configured limit {limit:.3f}"
                " (raise scheme.cfl_limit to override)"
            )

    def step(self, u: VectorField, t: float, dt=None):
        """Advance one time step of size dt (default ``scheme.dt``);
        returns (u_next, StepReport). A non-finite check reads one sum, so
        a finite field whose sum overflows (|u| ~ 1e303) aborts too."""
        t0 = time.perf_counter()
        dt = self.scheme.dt if dt is None else dt
        self.check_cfl(u, dt)
        stages = RK_STAGES[self.scheme.rk]
        prev = u
        phases = {"rhs": 0.0, "pressure": (), "correct": 0.0}
        for a, b in stages:
            t1 = time.perf_counter()
            v = self.predict(prev, dt)
            if a != 0.0:  # else b = 1: the stage is the Euler step itself
                v.data *= b
                v.data += a * u.data
            t2 = time.perf_counter()
            p = self.solve_pressure(v, dt)
            t3 = time.perf_counter()
            v = self.correct(v, p, dt)
            apply_velocity_dirichlet(v, self.boundary)
            if not np.isfinite(v.data.sum()):
                raise SolverAbort("non-finite values after projection stage")
            prev = v
            self.pressure = p  # frees the last step's before the next stage
            phases["rhs"] += t2 - t1
            phases["pressure"] += (t3 - t2,)
            phases["correct"] += time.perf_counter() - t3
        p.values /= b  # the last stage's u* carried b dt of the forcing
        t1 = time.perf_counter()
        u_next = self.diffuse(prev, dt)
        if not np.isfinite(u_next.data.sum()):
            raise SolverAbort("non-finite values after diffusion")
        phases["diffuse"] = time.perf_counter() - t1
        report = StepReport(
            t=t + dt,
            dt=dt,
            poisson_iters=(0,) * len(stages),
            diffusion_iters=0,
            wall_seconds=time.perf_counter() - t0,
            phase_seconds=phases,
        )
        self.ops.reserve_heap()  # once, after the first step
        return u_next, report
