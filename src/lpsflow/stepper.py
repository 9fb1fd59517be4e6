"""Fractional-step time integration with per-stage pressure projection.

Every stage of a strong-stability-preserving Runge-Kutta scheme, written in
Shu-Osher form, mixes the step's start u_n with one explicit Euler
prediction of the previous stage, v_s = a u_n + b predict(v_{s-1}) with
a + b = 1; ``predict`` advances convection plus stabilization. A pressure
Poisson solve then projects v_s with the projected gradient g_h that LPS
stabilization also uses, and the linear diffusion term is folded in
implicitly once per step.

All linear systems are SPD. The pressure system is solved directly on every
mesh, by fast diagonalization of its Kronecker structure; outflow faces pin
the pressure, and without them the constant null space is dropped. The
implicit diffusion solve uses conjugate gradients, so ``TimeScheme.cg_tol``
governs only the diffusion. Its operator couples the velocity components
through the transposed gradient. CG runs on the DoFs off the walls, a
Cartesian sub-grid of the DoF grid, with the wall velocity lifted into the
right-hand side; the preconditioner is the fast-diagonalization inverse of
the per-component diagonal blocks on that sub-grid
(:meth:`GlobalOperators.diffusion_block_solver`).
"""

import math
import time
from dataclasses import dataclass

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
from .operators import ConvectiveForm, GlobalOperators, ScalarField, VectorField
from .stabilization import StabilizationConfig, StabilizationMode, momentum_stabilization

__all__ = [
    "TimeScheme",
    "PhysicalParams",
    "StepReport",
    "Stepper",
    "SolverAbort",
    "CflError",
    "LinearSolveError",
    "conjugate_gradient",
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


class LinearSolveError(RuntimeError):
    def __init__(self, message, iterations, residual):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


@dataclass
class TimeScheme:
    """Time step size, RK scheme and linear-solver controls."""

    dt: float
    t_end: float = 1.0
    rk: str = "ssprk3"
    cg_tol: float = 1e-8  # CG: the diffusion solve only
    cg_max_iters: int = 10000
    cfl_limit: float = 1.0
    diffusion_theta: float = 1.0  # 1 = backward Euler, 0.5 = trapezoidal

    def __post_init__(self):
        if not (math.isfinite(self.t_end) and self.t_end > 0):
            raise ValueError(f"t_end must be finite and positive, got {self.t_end}")
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not 0.0 < self.cg_tol < 1.0:
            raise ValueError(f"cg_tol must lie in (0, 1), got {self.cg_tol}")
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
    diffusion_iters: int
    wall_seconds: float


def _identity(r):
    return r


def conjugate_gradient(apply_op, b, x0=None, tol=1e-8, max_iters=10000,
                       precond=_identity):
    """Preconditioned CG for SPD operators given as a callable.

    ``b`` may have any shape, kept by ``apply_op`` and ``precond``. The
    latter maps a residual r to z = P r for an SPD P that approximates the
    inverse of the operator (default: no preconditioning). Convergence is
    on the residual norm relative to ||b||. Returns
    (x, iterations, relative_residual).
    """
    b = np.asarray(b, dtype=float)
    bnorm = float(np.linalg.norm(b))
    if not np.isfinite(bnorm):
        raise LinearSolveError("non-finite right-hand side", 0, bnorm)
    if bnorm == 0.0:
        return np.zeros_like(b), 0, 0.0
    x = np.zeros_like(b) if x0 is None else np.array(x0, dtype=float)
    r = b - apply_op(x)
    rnorm = float(np.linalg.norm(r))
    iters = 0
    d = None
    # The residual is tested before it is preconditioned, so a converged
    # one never is: precond runs once per iteration.
    while rnorm > tol * bnorm:
        if iters >= max_iters:
            raise LinearSolveError(
                f"CG stalled at relative residual {rnorm / bnorm:.3e} "
                f"after {iters} iterations",
                iters, rnorm / bnorm,
            )
        z = precond(r)
        rz_new = float(np.vdot(r, z))
        # The copy keeps d apart from r, which the identity returns as z.
        d = z.copy() if d is None else z + (rz_new / rz) * d
        rz = rz_new
        ad = apply_op(d)
        dad = float(np.vdot(d, ad))
        if dad <= 0.0:
            raise LinearSolveError(
                f"CG breakdown: d.Ad = {dad:.3e} <= 0 after {iters} "
                "iterations (operator not positive definite)",
                iters, rnorm / bnorm,
            )
        alpha = rz / dad
        x += alpha * d
        r -= alpha * ad
        rnorm = float(np.linalg.norm(r))
        iters += 1
    if not np.isfinite(rnorm):  # NaN ends the loop: nan > x is false
        raise LinearSolveError(
            f"CG residual became non-finite after {iters} iterations",
            iters, rnorm,
        )
    return x, iters, rnorm / bnorm


def solve_poisson(ops: GlobalOperators, rhs: ScalarField, *, values=None):
    """Solve the SPD weak Laplacian system K p = rhs; returns p.

    The solve is direct (:meth:`GlobalOperators.solve_laplacian`).
    ``values`` gives the pressure on the outflow faces, whose DoFs are
    pinned (zero if omitted); it is lifted into the right-hand side.
    Without an outflow face the system is pure Neumann and the returned
    pressure has zero Euclidean mean.
    """
    mesh = ops.mesh
    b = rhs.values
    if not np.isfinite(b.sum()):
        raise LinearSolveError("non-finite right-hand side in the direct "
                               "Poisson solve", 0, float("nan"))
    if values is None:
        return ScalarField(mesh, ops.solve_laplacian(b))
    lift = np.array(values, dtype=float).reshape(mesh.dofs_per_axis[::-1])
    lift[ops.free_slices(BoundaryTag.OUTFLOW)] = 0.0
    lift = lift.ravel()
    b = b - ops.weak_laplacian(ScalarField(mesh, lift)).values
    return ScalarField(mesh, ops.solve_laplacian(b) + lift)


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
        """M^{-1}(-convection + stabilization); zero on constrained rows."""
        conv = self.ops.convective_term(u, self.convective_form)
        rhs = -conv.data
        if self.stabilization.mode is not StabilizationMode.NONE:
            rhs += momentum_stabilization(self.ops, u, self.stabilization).data
        rhs *= self.ops._inv_lumped
        if self.boundary.has_walls:
            rhs[:, self.boundary.wall_dofs] = 0.0
        return rhs

    def predict(self, u: VectorField, dt=None) -> VectorField:
        """Explicit prediction u* = u + dt M^{-1}(-L_N(u) + s)."""
        dt = self.scheme.dt if dt is None else dt
        u_star = VectorField(self.ops.mesh, u.data + dt * self.inviscid_rhs(u))
        if not np.all(np.isfinite(u_star.data)):
            raise SolverAbort("non-finite values in predicted velocity")
        return u_star

    def solve_pressure(self, u_star: VectorField, dt=None) -> ScalarField:
        """Weak Poisson solve for the stage pressure from div(u*)/dt."""
        dt = self.scheme.dt if dt is None else dt
        ops, bdata = self.ops, self.boundary
        b = -(1.0 / dt) * ops.weak_divergence(u_star).values
        if bdata.has_walls and self.physics.nu > 0 and ops.mesh.dim >= 2:
            flux = wall_pressure_neumann(ops, bdata, u_star, self.physics.nu)
            b += poisson_boundary_term(ops, bdata, flux).values
        values = None
        if bdata.has_outflow:
            values = outflow_pressure_dirichlet(ops, bdata, u_star, self.physics.nu)
        return solve_poisson(ops, ScalarField(ops.mesh, b), values=values)

    def correct(self, u_star: VectorField, p: ScalarField, dt=None) -> VectorField:
        """Projection update u** = u* - dt g_h(p)."""
        dt = self.scheme.dt if dt is None else dt
        g = self.ops.project_gradient(p)
        return VectorField(self.ops.mesh, u_star.data - dt * g.data)

    def diffuse(self, u: VectorField, dt=None):
        """Implicit theta-step of the symmetric-gradient viscous term, by CG
        preconditioned with the inverse of its per-component blocks. The
        wall velocity is lifted into the right-hand side and CG runs on the
        sub-grid of DoFs off the walls."""
        dt = self.scheme.dt if dt is None else dt
        nu = self.physics.nu
        if nu == 0.0:
            return u, 0
        ops, mesh = self.ops, self.ops.mesh
        theta = self.scheme.diffusion_theta
        flat = (mesh.dim, mesh.n_dofs)
        grid = (mesh.dim, *mesh.dofs_per_axis[::-1])
        free = (slice(None), *ops.free_slices(BoundaryTag.DIRICHLET_WALL))
        mass = ops.lumped_mass

        def apply_a(v):
            v = v.reshape(flat)
            out = mass * v + (theta * dt) * ops.symmetric_gradient_stiffness(v, nu)
            return out.reshape(grid)

        rhs = mass * u.data
        if theta < 1.0:
            rhs = rhs - (1.0 - theta) * dt * ops.symmetric_gradient_stiffness(
                u.data, nu
            )
        rhs = rhs.reshape(grid)
        walls = self.boundary.wall_values.reshape(grid)
        lift = np.array(walls, dtype=float)
        lift[free] = 0.0  # the wall velocity on the walls, 0 off them
        if lift.any():  # else A(lift) is exactly 0: periodic or no-slip
            rhs = rhs - apply_a(lift)
        padded = lift  # its memory, zeroed, pads the CG iterates
        padded.fill(0.0)

        def apply_free(x):
            padded[free] = x
            return apply_a(padded)[free]

        x, iters, _ = conjugate_gradient(
            apply_free, rhs[free], x0=u.data.reshape(grid)[free],
            tol=self.scheme.cg_tol, max_iters=self.scheme.cg_max_iters,
            precond=ops.diffusion_block_solver(theta * dt * nu),
        )
        out = np.array(walls, dtype=float)
        out[free] = x
        return VectorField(mesh, out.reshape(flat)), iters

    # -- full step ---------------------------------------------------------

    def check_cfl(self, u: VectorField, dt):
        limit = self.scheme.cfl_limit
        if limit == np.inf:  # the guard is off
            return
        mesh = self.ops.mesh
        speed = np.sqrt(np.max(np.sum(u.data**2, axis=0)))
        cfl = dt * speed * mesh.order / min(mesh.h_axes)
        if cfl > limit:
            raise CflError(
                f"CFL number {cfl:.3f} exceeds the configured limit {limit:.3f}"
                " (raise scheme.cfl_limit to override)"
            )

    def step(self, u: VectorField, t: float, dt=None):
        """Advance one time step of size dt (default ``scheme.dt``);
        returns (u_next, StepReport)."""
        t0 = time.perf_counter()
        dt = self.scheme.dt if dt is None else dt
        self.check_cfl(u, dt)
        stages = RK_STAGES[self.scheme.rk]
        prev = u
        for a, b in stages:
            v = self.predict(prev, dt)
            if a != 0.0:  # else b = 1: the stage is the Euler step itself
                v = VectorField(self.ops.mesh, a * u.data + b * v.data)
            p = self.solve_pressure(v, dt)
            v = self.correct(v, p, dt)
            apply_velocity_dirichlet(v, self.boundary)
            if not np.all(np.isfinite(v.data)):
                raise SolverAbort("non-finite values after projection stage")
            prev = v
            self.pressure = p
        u_next, diff_iters = self.diffuse(prev, dt)
        if not np.all(np.isfinite(u_next.data)):
            raise SolverAbort("non-finite values after diffusion")
        report = StepReport(
            t=t + dt,
            dt=dt,
            poisson_iters=(0,) * len(stages),
            diffusion_iters=diff_iters,
            wall_seconds=time.perf_counter() - t0,
        )
        self.ops.reserve_heap()  # once, after the first step
        return u_next, report
