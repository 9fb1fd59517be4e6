"""Fractional-step time integration with per-stage pressure projection.

One explicit stage advances convection plus stabilization, a pressure
Poisson solve enforces incompressibility on the corrected stage velocity,
and the linear diffusion term is folded in implicitly once per step. The
explicit part can be wrapped in multistage strong-stability-preserving
Runge-Kutta schemes; the Poisson problem is solved at every stage.

All linear systems are SPD. Where the pressure is solved depends on the
mesh's boundary tags:

- every axis periodic: the pure-Neumann pressure system is solved directly
  by fast diagonalization of its Kronecker structure (0 iterations are
  reported);
- any wall or outflow face: Jacobi-preconditioned conjugate gradients, warm
  started from the last two pressures of the same RK stage and, without
  outflow Dirichlet rows, deflated against the constant null space every
  iteration.

The implicit diffusion solve always uses CG, so ``TimeScheme.cg_tol``
governs the bounded-domain pressure and the diffusion only.
"""

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
from .diagnostics import divergence_norm
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

# Shu-Osher coefficients: v_s = a*u_n + b*v_{s-1} + c*dt*F(v_{s-1}).
RK_STAGES = {
    "euler1": ((0.0, 1.0, 1.0),),
    "heun2": ((0.0, 1.0, 1.0), (0.5, 0.5, 0.5)),
    "ssprk3": ((0.0, 1.0, 1.0), (0.75, 0.25, 0.25), (1.0 / 3.0, 2.0 / 3.0, 2.0 / 3.0)),
}


class SolverAbort(RuntimeError):
    """Time integration cannot continue (blow-up, CFL violation, ...)."""

    def __init__(self, message, t_last=None):
        super().__init__(message)
        self.t_last = t_last


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
    cg_tol: float = 1e-8  # CG only: bounded-domain pressure and diffusion
    cg_max_iters: int = 10000
    cfl_limit: float = 1.0
    diffusion_theta: float = 1.0  # 1 = backward Euler, 0.5 = trapezoidal

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not 0.0 < self.cg_tol < 1.0:
            raise ValueError(f"cg_tol must lie in (0, 1), got {self.cg_tol}")
        if self.rk not in RK_STAGES:
            names = ", ".join(sorted(RK_STAGES))
            raise ValueError(f"unknown rk scheme {self.rk!r} (expected: {names})")
        if not 0.0 <= self.diffusion_theta <= 1.0:
            raise ValueError("diffusion_theta must lie in [0, 1]")


@dataclass
class PhysicalParams:
    nu: float = 0.0

    def __post_init__(self):
        if self.nu < 0:
            raise ValueError(f"kinematic viscosity must be >= 0, got {self.nu}")


@dataclass
class StepReport:
    t: float
    dt: float
    poisson_iters: tuple
    diffusion_iters: int
    div_norm: float
    wall_seconds: float


def conjugate_gradient(apply_op, b, x0=None, tol=1e-8, max_iters=10000,
                       precond_diag=None, project=None):
    """Preconditioned CG for SPD operators given as a callable.

    ``project`` (if given) removes a known null-space component; it is
    applied to the right-hand side, to the residual every iteration, and to
    the returned solution. Convergence is on the residual norm relative to
    ||b||. Returns (x, iterations, relative_residual).
    """
    b = np.asarray(b, dtype=float)
    if project is not None:
        b = project(b)
    bnorm = float(np.linalg.norm(b))
    if not np.isfinite(bnorm):
        raise LinearSolveError("non-finite right-hand side", 0, bnorm)
    if bnorm == 0.0:
        return np.zeros_like(b), 0, 0.0
    x = np.zeros_like(b) if x0 is None else np.array(x0, dtype=float)
    if project is not None:
        x = project(x)
    r = b - apply_op(x)
    if project is not None:
        r = project(r)
    inv_diag = None if precond_diag is None else 1.0 / precond_diag
    z = r if inv_diag is None else r * inv_diag
    d = z.copy()
    rz = float(r @ z)
    rnorm = float(np.linalg.norm(r))
    iters = 0
    while rnorm > tol * bnorm:
        if iters >= max_iters:
            raise LinearSolveError(
                f"CG stalled at relative residual {rnorm / bnorm:.3e} "
                f"after {iters} iterations",
                iters, rnorm / bnorm,
            )
        ad = apply_op(d)
        if project is not None:
            ad = project(ad)
        dad = float(d @ ad)
        if dad <= 0.0:
            raise LinearSolveError(
                f"CG breakdown: d.Ad = {dad:.3e} <= 0 after {iters} "
                "iterations (operator not positive definite)",
                iters, rnorm / bnorm,
            )
        alpha = rz / dad
        x += alpha * d
        r -= alpha * ad
        if project is not None:
            r = project(r)
        z = r if inv_diag is None else r * inv_diag
        rz_new = float(r @ z)
        d = z + (rz_new / rz) * d
        rz = rz_new
        rnorm = float(np.linalg.norm(r))
        iters += 1
    if not np.isfinite(rnorm):  # NaN ends the loop: nan > x is false
        raise LinearSolveError(
            f"CG residual became non-finite after {iters} iterations",
            iters, rnorm,
        )
    if project is not None:
        x = project(x)
    return x, iters, rnorm / bnorm


def _remove_mean(v):
    return v - v.mean()


def solve_spd_system(apply_op, b, *, constrained=None, values=None,
                     deflate_mean=False, tol=1e-8, max_iters=10000,
                     precond_diag=None, x0=None):
    """Solve A x = b with optional Dirichlet constraints or mean deflation.

    Constrained rows are replaced by the identity (their right-hand side is
    moved across), which keeps the reduced operator SPD.
    """
    if constrained is not None and constrained.size:
        xc = np.zeros_like(b)
        xc[constrained] = values[constrained]
        rhs = b - apply_op(xc)
        rhs[constrained] = 0.0

        def apply_masked(v):
            w = v.copy()
            w[constrained] = 0.0
            out = apply_op(w)
            out[constrained] = v[constrained]
            return out

        pd = None
        if precond_diag is not None:
            pd = precond_diag.copy()
            pd[constrained] = 1.0
        guess = None
        if x0 is not None:
            guess = x0 - xc
            guess[constrained] = 0.0
        z, iters, res = conjugate_gradient(
            apply_masked, rhs, x0=guess, tol=tol, max_iters=max_iters,
            precond_diag=pd,
        )
        return z + xc, iters, res
    project = _remove_mean if deflate_mean else None
    return conjugate_gradient(
        apply_op, b, x0=x0, tol=tol, max_iters=max_iters,
        precond_diag=precond_diag, project=project,
    )


def solve_poisson(ops: GlobalOperators, rhs: ScalarField, *, constrained=None,
                  values=None, tol=1e-10, max_iters=10000, x0=None,
                  precond_diag=None):
    """Solve the SPD weak Laplacian system K p = rhs; returns (p, iterations).

    On a fully periodic mesh the pure-Neumann system is solved directly by
    fast diagonalization and reports 0 iterations; ``tol``, ``max_iters``,
    ``x0`` and ``precond_diag`` apply only to the CG path that every mesh
    with a wall or outflow face takes. Without Dirichlet rows the system is
    pure Neumann and CG removes the constant null space by mean deflation.
    Either way the returned pressure has zero Euclidean mean.
    """
    mesh = ops.mesh
    if all(mesh.periodic) and constrained is None:
        if not np.isfinite(rhs.values.sum()):
            raise LinearSolveError("non-finite right-hand side in the direct "
                                   "Poisson solve", 0, float("nan"))
        return ScalarField(mesh, ops.solve_periodic_laplacian(rhs.values)), 0

    def apply_k(x):
        return ops.weak_laplacian(ScalarField(mesh, x)).values

    if precond_diag is None:
        precond_diag = ops.stiffness_diagonal()
    deflate = constrained is None or constrained.size == 0
    x, iters, res = solve_spd_system(
        apply_k, rhs.values, constrained=constrained, values=values,
        deflate_mean=deflate, tol=tol, max_iters=max_iters,
        precond_diag=precond_diag, x0=x0,
    )
    return ScalarField(mesh, x), iters


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
        self._stiff_diag = ops.stiffness_diagonal()
        self._p_hist = {}  # stage index -> last two pressures (warm start)
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

    def solve_pressure(self, u_star: VectorField, dt=None, stage=0):
        """Weak Poisson solve for the stage pressure from div(u*)/dt.

        On a fully periodic mesh :func:`solve_poisson` solves directly.
        Elsewhere CG starts from the extrapolation of the last two pressures
        solved for the same RK stage, which typically halves the iteration
        count.
        """
        dt = self.scheme.dt if dt is None else dt
        ops, bdata = self.ops, self.boundary
        b = -(1.0 / dt) * ops.weak_divergence(u_star).values
        if bdata.has_walls and self.physics.nu > 0 and ops.mesh.dim >= 2:
            flux = wall_pressure_neumann(ops, bdata, u_star, self.physics.nu)
            b += poisson_boundary_term(ops, bdata, flux).values
        constrained = None
        values = None
        if bdata.has_outflow:
            constrained = bdata.outflow_dofs
            values = outflow_pressure_dirichlet(ops, bdata, u_star, self.physics.nu)
        direct = all(ops.mesh.periodic)
        hist = None if direct else self._p_hist.get(stage)
        if hist is None:
            x0 = None
        elif len(hist) == 1:
            x0 = hist[0]
        else:
            x0 = 2.0 * hist[1] - hist[0]
        p, iters = solve_poisson(
            ops, ScalarField(ops.mesh, b), constrained=constrained,
            values=values, tol=self.scheme.cg_tol,
            max_iters=self.scheme.cg_max_iters, x0=x0,
            precond_diag=self._stiff_diag,
        )
        if not direct:
            self._p_hist[stage] = ((hist[-1], p.values) if hist
                                   else (p.values,))
        return p, iters

    def correct(self, u_star: VectorField, p: ScalarField, dt=None) -> VectorField:
        """Projection update u** = u* - dt g_h(p)."""
        dt = self.scheme.dt if dt is None else dt
        g = self.ops.project_gradient(p)
        return VectorField(self.ops.mesh, u_star.data - dt * g.data)

    def diffuse(self, u: VectorField, dt=None):
        """Implicit theta-step of the symmetric-gradient viscous term."""
        dt = self.scheme.dt if dt is None else dt
        nu = self.physics.nu
        if nu == 0.0:
            return u, 0
        ops, bdata = self.ops, self.boundary
        theta = self.scheme.diffusion_theta
        dim, ndofs = ops.mesh.dim, ops.mesh.n_dofs
        mass = ops.lumped_mass

        def apply_a(x):
            v = x.reshape(dim, ndofs)
            out = mass * v + (theta * dt) * ops.symmetric_gradient_stiffness(v, nu)
            return out.ravel()

        rhs = mass * u.data
        if theta < 1.0:
            rhs = rhs - (1.0 - theta) * dt * ops.symmetric_gradient_stiffness(
                u.data, nu
            )
        constrained = None
        values = None
        if bdata.has_walls:
            mask = np.zeros((dim, ndofs), dtype=bool)
            mask[:, bdata.wall_dofs] = True
            constrained = np.flatnonzero(mask.ravel())
            values = bdata.wall_values.ravel()
        diag = np.tile(mass + 2.0 * theta * dt * nu * self._stiff_diag, dim)
        x, iters, _ = solve_spd_system(
            apply_a, rhs.ravel(), constrained=constrained, values=values,
            tol=self.scheme.cg_tol, max_iters=self.scheme.cg_max_iters,
            precond_diag=diag, x0=u.data.ravel(),
        )
        return VectorField(ops.mesh, x.reshape(dim, ndofs)), iters

    # -- full step ---------------------------------------------------------

    def max_speed(self, u: VectorField):
        return float(np.sqrt(np.max(np.sum(u.data**2, axis=0))))

    def check_cfl(self, u: VectorField, t=None):
        limit = self.scheme.cfl_limit
        if limit is None or not np.isfinite(limit):
            return
        mesh = self.ops.mesh
        cfl = self.scheme.dt * self.max_speed(u) * mesh.order / min(mesh.h_axes)
        if cfl > limit:
            raise CflError(
                f"CFL number {cfl:.3f} exceeds the configured limit {limit:.3f}"
                " (raise scheme.cfl_limit to override)",
                t_last=t,
            )

    def step(self, u: VectorField, t: float):
        """Advance one time step; returns (u_next, StepReport)."""
        t0 = time.perf_counter()
        dt = self.scheme.dt
        self.check_cfl(u, t)
        stages = RK_STAGES[self.scheme.rk]
        poisson_iters = []
        u0 = u
        prev = u
        for s, (a, b, c) in enumerate(stages):
            rhs = self.inviscid_rhs(prev)
            data = b * prev.data + (c * dt) * rhs
            if a != 0.0:
                data = data + a * u0.data
            v = VectorField(self.ops.mesh, data)
            p, iters = self.solve_pressure(v, dt, stage=s)
            poisson_iters.append(iters)
            v = self.correct(v, p, dt)
            apply_velocity_dirichlet(v, self.boundary)
            if not np.all(np.isfinite(v.data)):
                raise SolverAbort("non-finite values after projection stage",
                                  t_last=t)
            prev = v
            self.pressure = p
        u_next, diff_iters = self.diffuse(prev, dt)
        apply_velocity_dirichlet(u_next, self.boundary)
        if not np.all(np.isfinite(u_next.data)):
            raise SolverAbort("non-finite values after diffusion", t_last=t)
        report = StepReport(
            t=t + dt,
            dt=dt,
            poisson_iters=tuple(poisson_iters),
            diffusion_iters=diff_iters,
            div_norm=divergence_norm(self.ops, u_next),
            wall_seconds=time.perf_counter() - t0,
        )
        return u_next, report
