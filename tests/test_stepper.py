import ctypes
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lpsflow
from lpsflow.boundary import build_boundary_data
from lpsflow.diagnostics import divergence_norm, kinetic_energy
from lpsflow.mesh import BoundaryTag, build_structured_mesh, periodic_tags, wall_tags
from lpsflow.operators import (
    GlobalOperators,
    ScalarField,
    VectorField,
)
from lpsflow.stabilization import StabilizationConfig
from lpsflow.stepper import (
    RK_STAGES,
    CflError,
    LinearSolveError,
    PhysicalParams,
    SolverAbort,
    Stepper,
    TimeScheme,
    conjugate_gradient,
    solve_poisson,
)

from conftest import periodic_mesh, walled_mesh

from oracles import DenseOracle


def make_stepper(mesh, nu=0.0, dt=1e-2, rk="heun2", stab=None, form="skew",
                 cg_tol=1e-12, theta=1.0, cfl=None):
    ops = GlobalOperators(mesh)
    scheme = TimeScheme(dt=dt, rk=rk, cg_tol=cg_tol, diffusion_theta=theta,
                        cfl_limit=np.inf if cfl is None else cfl)
    return Stepper(ops, PhysicalParams(nu), scheme, stabilization=stab,
                   convective_form=form)


class TestConjugateGradient:
    def test_spd_dense_system(self, rng):
        n = 40
        m = rng.standard_normal((n, n))
        a = m @ m.T + n * np.eye(n)
        x_true = rng.standard_normal(n)
        b = a @ x_true
        x, iters, res = conjugate_gradient(lambda v: a @ v, b, tol=1e-12,
                                           max_iters=500)
        assert np.allclose(x, x_true, atol=1e-8)
        assert res <= 1e-12

    def test_any_shape_matches_flat(self, rng):
        n = 30
        m = rng.standard_normal((n, n))
        a = m @ m.T + n * np.eye(n)
        b = rng.standard_normal(n)
        flat = conjugate_gradient(lambda v: a @ v, b, tol=1e-12)
        shaped = conjugate_gradient(lambda v: (a @ v.ravel()).reshape(v.shape),
                                    b.reshape(2, 3, 5), tol=1e-12)
        assert shaped[0].shape == (2, 3, 5)
        assert np.array_equal(shaped[0].ravel(), flat[0])
        assert shaped[1:] == flat[1:]

    def test_zero_rhs_short_circuits(self):
        x, iters, res = conjugate_gradient(lambda v: v, np.zeros(5))
        assert iters == 0 and np.all(x == 0.0)

    def test_max_iters_raises(self, rng):
        n = 30
        m = rng.standard_normal((n, n))
        a = m @ m.T + 0.01 * np.eye(n)
        b = rng.standard_normal(n)
        with pytest.raises(LinearSolveError):
            conjugate_gradient(lambda v: a @ v, b, tol=1e-14, max_iters=2)

    def test_nonfinite_rhs_raises(self):
        with pytest.raises(LinearSolveError, match="non-finite right-hand"):
            conjugate_gradient(lambda v: 2 * v, np.array([np.nan, 1.0]))

    def test_nonfinite_residual_raises(self):
        with pytest.raises(LinearSolveError, match="non-finite"):
            conjugate_gradient(lambda v: np.full_like(v, np.nan),
                               np.array([1.0, 2.0]))

    def test_indefinite_operator_raises(self):
        with pytest.raises(LinearSolveError, match="breakdown"):
            conjugate_gradient(lambda v: -v, np.array([1.0, 2.0]))


class TestSolvePoisson:
    def test_manufactured_periodic_1d(self):
        errs = []
        for n in (16, 32):
            mesh = periodic_mesh(1, n, 2)
            ops = GlobalOperators(mesh)
            rhs = ops.assemble_load(lambda pts: np.sin(pts[:, 0]))
            p = solve_poisson(ops, rhs)
            x = mesh.node_coords[:, 0]
            want = np.sin(x)
            got = p.values - p.values.mean() + want.mean()
            errs.append(np.max(np.abs(got - want)))
        assert errs[1] < errs[0] / 6.0  # ~O(h^3) at p = 2

    def test_divergence_free_gives_zero_pressure(self):
        mesh = periodic_mesh(2, 6, 2)
        ops = GlobalOperators(mesh)
        st = make_stepper(mesh, dt=0.1)
        u = VectorField(mesh, np.stack([np.full(mesh.n_dofs, 1.0),
                                        np.full(mesh.n_dofs, 2.0)]))
        p = st.solve_pressure(u, 0.1)
        assert np.max(np.abs(p.values)) < 1e-10

    def test_solution_is_mean_free(self, rng):
        mesh = periodic_mesh(2, 5, 2)
        ops = GlobalOperators(mesh)
        st = make_stepper(mesh, dt=0.05)
        u = VectorField(mesh, rng.standard_normal((2, mesh.n_dofs)))
        p = st.solve_pressure(u, 0.05)
        assert abs(p.values.mean()) < 1e-12 * np.max(np.abs(p.values))


# Unequal element counts and extents per axis.
_EXTENTS = [(0.0, 1.0), (-1.0, 2.5), (0.5, 1.25)]


def _tags(dim, spec):
    """'periodic', or 'wall' followed by outflow faces ('x_max') and
    periodic axes ('y')."""
    words = spec.split()
    if words[0] == "periodic":
        return periodic_tags(dim)
    tags = wall_tags(dim)
    for w in words[1:]:
        if w in tags:
            tags[w] = "outflow"
        else:
            tags[f"{w}_min"] = tags[f"{w}_max"] = "periodic"
    return tags


def _check_against_oracle(dim, elems, p, spacing, over, spec, rng):
    mesh = build_structured_mesh(dim, _EXTENTS[:dim], elems, p, spacing,
                                 _tags(dim, spec))
    basis = mesh.basis.over_integrated() if over else None
    ops = GlobalOperators(mesh, basis)
    dense = DenseOracle(mesh, basis)
    b = rng.standard_normal(mesh.n_dofs)
    pinned = build_boundary_data(mesh).outflow_dofs
    data = rng.standard_normal(mesh.n_dofs) if pinned.size else None
    x = solve_poisson(ops, ScalarField(mesh, b), values=data).values
    if pinned.size == 0:
        # No outflow: the constant null space is dropped, K x = b - mean(b).
        want = b - b.mean()
        res = np.linalg.norm(dense.laplacian(x) - want)
        assert res <= 1e-12 * np.linalg.norm(want)
        assert abs(x.mean()) <= 1e-14 * np.max(np.abs(x))
        return
    # Outflow rows hold the data; every other row satisfies K x = b.
    free = np.ones(mesh.n_dofs, dtype=bool)
    free[pinned] = False
    res = np.linalg.norm((dense.laplacian(x) - b)[free])
    assert res <= 1e-12 * np.linalg.norm(b[free])
    assert np.array_equal(x[pinned], data[pinned])


class TestDirectPoissonSolve:
    """Fast diagonalization against the dense brute-force stiffness."""

    @pytest.mark.parametrize("dim,elems,p,spacing,over", [
        (1, (5,), 1, "gll", False),
        (1, (3,), 2, "gll", False),
        (1, (2,), 8, "gll", False),
        (1, (3,), 3, "equispaced", True),
        (2, (4, 3), 1, "gll", False),
        (2, (3, 2), 4, "gll", False),
        (2, (2, 3), 8, "gll", False),
        (2, (2, 3), 3, "equispaced", False),
        (2, (3, 2), 4, "equispaced", False),
        (2, (3, 2), 4, "gll", True),
        (3, (3, 2, 4), 1, "gll", False),
        (3, (2, 3, 2), 2, "gll", False),
        (3, (2, 2, 3), 4, "gll", False),
        (3, (2, 2, 2), 3, "equispaced", False),
        (3, (2, 3, 2), 4, "equispaced", False),
        (3, (2, 3, 2), 2, "gll", True),
        # One element on a periodic axis: an element holds a DoF twice.
        (3, (2, 1, 2), 4, "equispaced", False),
        (2, (2, 1), 8, "gll", False),
    ])
    def test_matches_dense_oracle(self, dim, elems, p, spacing, over, rng):
        _check_against_oracle(dim, elems, p, spacing, over, "periodic", rng)

    @pytest.mark.parametrize("dim,elems,p,spacing,over,tags", [
        (1, (4,), 2, "gll", False, "wall"),
        (1, (3,), 3, "equispaced", True, "wall"),
        (2, (3, 2), 4, "gll", False, "wall"),
        (2, (2, 3), 3, "equispaced", False, "wall"),
        (2, (3, 2), 2, "gll", False, "wall x"),
        (3, (2, 3, 2), 2, "gll", True, "wall"),
        (3, (2, 2, 2), 4, "equispaced", False, "wall"),
        (1, (4,), 2, "gll", False, "wall x_max"),
        (1, (3,), 4, "equispaced", False, "wall x_min x_max"),
        (2, (3, 2), 4, "gll", False, "wall x_max"),
        (2, (2, 3), 3, "equispaced", True, "wall x_min"),
        (2, (4, 3), 2, "gll", False, "wall x_max y"),
        (3, (2, 3, 2), 2, "gll", False, "wall x_max"),
        (3, (2, 2, 2), 4, "equispaced", False, "wall z_min"),
        (2, (3, 2), 2, "gll", False, "wall x_max y_max"),
        (2, (2, 3), 4, "equispaced", False, "wall x_min x_max y_min"),
        (3, (2, 3, 2), 3, "gll", False, "wall x_max z_min"),
        (3, (2, 2, 3), 1, "gll", True, "wall x_max y_min"),
        (3, (3, 2, 2), 3, "equispaced", False, "wall x_max y_min z"),
    ])
    def test_bounded_matches_dense_oracle(self, dim, elems, p, spacing, over,
                                          tags, rng):
        _check_against_oracle(dim, elems, p, spacing, over, tags, rng)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_rhs_raises(self, bad):
        mesh = periodic_mesh(2, 3, 2)
        b = np.zeros(mesh.n_dofs)
        b[4] = bad
        with pytest.raises(LinearSolveError, match="non-finite"):
            solve_poisson(GlobalOperators(mesh), ScalarField(mesh, b))

    def test_dispatch_follows_boundary_tags(self):
        # Periodic, walled and outflow meshes all solve directly.
        tags = wall_tags(2)
        tags["x_max"] = "outflow"
        outflow = build_structured_mesh(2, [(0.0, 1.0)] * 2, (4, 4), 2, "gll",
                                        tags)
        for mesh in (periodic_mesh(2, 4, 2), walled_mesh(2, 4, 2), outflow):
            st = make_stepper(mesh, nu=0.01, dt=0.01, rk="ssprk3")
            x, y = mesh.node_coords[:, 0], mesh.node_coords[:, 1]
            u = VectorField(mesh, np.stack([np.sin(3 * x) * np.sin(3 * y),
                                            np.zeros(mesh.n_dofs)]))
            _, rep = st.step(u, 0.0)
            assert rep.poisson_iters == (0, 0, 0)


class TestPredict:
    def test_zero_state_fixed_point(self):
        mesh = periodic_mesh(2, 4, 1)
        st = make_stepper(mesh, dt=0.01)
        u = VectorField(mesh)
        out = st.predict(u)
        assert np.all(out.data == 0.0)

    def test_uniform_flow_fixed_point(self):
        mesh = periodic_mesh(2, 4, 2)
        st = make_stepper(mesh, dt=0.01,
                          stab=StabilizationConfig("lps", 1.0))
        u = VectorField(mesh, np.stack([np.full(mesh.n_dofs, 1.0),
                                        np.full(mesh.n_dofs, -2.0)]))
        out = st.predict(u)
        assert np.allclose(out.data, u.data, atol=1e-13)

    @pytest.mark.parametrize("form", ["conservative", "nonconservative", "skew"])
    @pytest.mark.parametrize("mode", ["none", "upwind", "lps"])
    def test_matches_dense_bruteforce(self, form, mode):
        # One explicit prediction step on the shear-layer start, 8x8 P1.
        from lpsflow.cases import init_shear_layer

        mesh = periodic_mesh(2, 8, 1)
        u = init_shear_layer(mesh)
        dt = 5e-3
        stab = StabilizationConfig(mode, 1.0) if mode != "none" else None
        st = make_stepper(mesh, dt=dt, form=form, stab=stab)
        got = st.predict(u).data
        dense = DenseOracle(mesh)
        want = dense.predict(u.data, dt, form, mode)
        assert np.max(np.abs(got - want)) < 1e-12

    @pytest.mark.parametrize("mode", ["none", "upwind", "lps"])
    def test_one_element_axis_matches_dense(self, mode, rng):
        # One element on a periodic axis: an element holds a DoF twice.
        mesh = build_structured_mesh(2, [(0.0, 2.0), (0.0, 1.0)], (3, 1), 2,
                                     "gll", periodic_tags(2))
        u = VectorField(mesh, rng.standard_normal((2, mesh.n_dofs)))
        stab = StabilizationConfig(mode, 1.0) if mode != "none" else None
        st = make_stepper(mesh, dt=1e-2, stab=stab)
        want = DenseOracle(mesh).predict(u.data, 1e-2, "skew", mode)
        assert np.max(np.abs(st.predict(u).data - want)) < 1e-12

    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_nonfinite_aborts(self):
        mesh = periodic_mesh(2, 4, 1)
        st = make_stepper(mesh, dt=0.01)
        u = VectorField(mesh)
        u.data[0, 0] = np.inf
        with pytest.raises(SolverAbort):
            st.predict(u)


class TestCorrect:
    def test_constant_pressure_is_noop(self, rng):
        mesh = periodic_mesh(2, 4, 2)
        st = make_stepper(mesh, dt=0.02)
        u = VectorField(mesh, rng.standard_normal((2, mesh.n_dofs)))
        p = ScalarField(mesh, np.full(mesh.n_dofs, 4.2))
        out = st.correct(u, p, 0.02)
        assert np.allclose(out.data, u.data, atol=1e-13)

    def test_correction_linear_in_dt(self, rng):
        mesh = periodic_mesh(2, 4, 2)
        st = make_stepper(mesh, dt=0.02)
        u = VectorField(mesh, rng.standard_normal((2, mesh.n_dofs)))
        p = ScalarField(mesh, rng.standard_normal(mesh.n_dofs))
        d1 = st.correct(u, p, 0.01).data - u.data
        d2 = st.correct(u, p, 0.02).data - u.data
        assert np.allclose(d2, 2.0 * d1, atol=1e-14)

    def test_projection_reduces_divergence(self):
        # A smooth, strongly non-solenoidal field; the projection removes
        # the resolved part of the divergence (grid-scale content stays).
        mesh = periodic_mesh(2, 24, 2)
        ops = GlobalOperators(mesh)
        st = make_stepper(mesh, dt=5e-3, cg_tol=1e-12)
        x, y = mesh.node_coords[:, 0], mesh.node_coords[:, 1]
        u = VectorField(mesh, np.stack([np.sin(x) * np.sin(y) + 0.5 * np.sin(2 * x),
                                        np.cos(2 * y) * np.cos(x)]))
        before = divergence_norm(ops, u)
        p = st.solve_pressure(u, 5e-3)
        after = divergence_norm(ops, st.correct(u, p, 5e-3))
        assert after < 0.05 * before


class TestNaturalStabilizationIdentity:
    def test_identity_over_random_projection_steps(self, rng):
        # After a projection, the assembled divergence of the corrected
        # field equals dt times the assembled action of
        # div(grad p - g_h(p)), to the CG tolerance.
        mesh = periodic_mesh(2, 6, 2)
        ops = GlobalOperators(mesh)
        st = make_stepper(mesh, dt=0.02, cg_tol=1e-14)
        for _ in range(5):
            u = VectorField(mesh, rng.standard_normal((2, mesh.n_dofs)))
            dt = 0.02
            p = st.solve_pressure(u, dt)
            u2 = st.correct(u, p, dt)
            lhs = ops.weak_divergence(u2).values
            # Weak form of div grad p is -K p on a periodic mesh.
            rhs = dt * (-ops.weak_laplacian(p).values
                        - ops.weak_divergence(ops.project_gradient(p)).values)
            scale = np.max(np.abs(rhs))
            assert np.max(np.abs(lhs - rhs)) < 1e-11 * max(scale, 1e-30)


class TestDiffuse:
    def test_inviscid_identity(self, rng):
        mesh = periodic_mesh(2, 4, 2)
        st = make_stepper(mesh, nu=0.0, dt=0.1)
        u = VectorField(mesh, rng.standard_normal((2, mesh.n_dofs)))
        out, iters = st.diffuse(u)
        assert out is u and iters == 0

    def test_periodic_heat_decay_factor(self):
        # u = (sin x, 0): the symmetric-gradient divergence is 2 nu u'' so
        # one backward-Euler step gives 1/(1 + 2 nu dt) within O(dt^2).
        mesh = periodic_mesh(2, 24, 2)
        nu, dt = 0.05, 0.01
        st = make_stepper(mesh, nu=nu, dt=dt, cg_tol=1e-13)
        x = mesh.node_coords[:, 0]
        u = VectorField(mesh, np.stack([np.sin(x), np.zeros(mesh.n_dofs)]))
        out, _ = st.diffuse(u)
        factor = out.data[0] @ u.data[0] / (u.data[0] @ u.data[0])
        assert abs(factor - 1.0 / (1.0 + 2.0 * nu * dt)) < 1e-6

    def test_theta_half_is_second_order_in_decay(self):
        # Compare decay factors against a fine-dt reference of the same
        # discrete operator so only the temporal error is measured. The dt
        # range keeps lambda_max*dt of order one (trapezoidal integration is
        # only in its asymptotic regime for resolved modes).
        mesh = periodic_mesh(2, 24, 2)
        nu = 0.05
        x = mesh.node_coords[:, 0]
        u0 = np.sin(x)

        def factor(dt):
            st = make_stepper(mesh, nu=nu, dt=dt, theta=0.5, cg_tol=1e-13)
            u = VectorField(mesh, np.stack([u0, np.zeros(mesh.n_dofs)]))
            for _ in range(round(0.4 / dt)):
                u, _ = st.diffuse(u)
            return u.data[0] @ u0 / (u0 @ u0)

        ref = factor(0.0025)
        errs = [abs(factor(dt) - ref) for dt in (0.04, 0.02)]
        assert errs[1] < errs[0] / 3.0

    def test_rigid_translation_unchanged(self):
        mesh = periodic_mesh(2, 6, 2)
        st = make_stepper(mesh, nu=0.3, dt=0.1, cg_tol=1e-13)
        u = VectorField(mesh, np.stack([np.full(mesh.n_dofs, 2.0),
                                        np.full(mesh.n_dofs, -1.0)]))
        out, _ = st.diffuse(u)
        assert np.allclose(out.data, u.data, atol=1e-11)


def _dense_diffusion_solve(mesh, u, bdata, nu, dt):
    """Backward-Euler diffusion step by a dense solve of the masked system
    (M + dt nu S_sym) x = M u with the wall rows held at their values."""
    dense = DenseOracle(mesh)
    dim, n = mesh.dim, mesh.n_dofs
    # Block (m, k) of S_sym: delta_mk int grad w . grad u + int d_k w d_m u.
    s_sym = np.block([[(dense.stiff if m == k else 0.0)
                       + dense._assemble_pairwise(k, m) for k in range(dim)]
                      for m in range(dim)])
    a = np.kron(np.eye(dim), np.diag(dense.lumped)) + dt * nu * s_sym
    pinned = np.zeros((dim, n), dtype=bool)
    pinned[:, bdata.wall_dofs] = True
    pinned = pinned.ravel()
    x = np.where(pinned, bdata.wall_values.ravel(), 0.0)
    b = (dense.lumped * u.data).ravel() - a @ x
    free = ~pinned
    x[free] = np.linalg.solve(a[np.ix_(free, free)], b[free])
    return x.reshape(dim, n)


class TestDiffusionPreconditioner:
    """Fast-diagonalization inverse of the per-component diffusion blocks."""

    @pytest.mark.parametrize("p", [1, 2, 4])
    @pytest.mark.parametrize("spec", ["wall", "periodic"])
    def test_inverts_1d_operator(self, p, spec, rng):
        # In 1D the symmetric gradient is 2 K and there is one component,
        # so at GLL the block-diagonal part is the whole operator.
        mesh = build_structured_mesh(1, [(0.0, 1.5)], (5,), p, "gll",
                                     _tags(1, spec))
        ops = GlobalOperators(mesh)
        free = ops.free_slices(BoundaryTag.DIRICHLET_WALL)
        x = np.zeros(mesh.n_dofs)
        x[free] = rng.standard_normal(x[free].shape)
        for c in (0.01, 0.37):
            ax = (ops.lumped_mass * x
                  + c * ops.symmetric_gradient_stiffness(x[None], 1.0)[0])
            z = ops.diffusion_block_solver(c)(ax[None, free[0]])
            assert z.shape == (1, x[free].size)
            assert np.linalg.norm(z[0] - x[free]) <= 1e-12 * np.linalg.norm(x)

    @pytest.mark.parametrize("p", [1, 2, 4])
    @pytest.mark.parametrize("spec", ["wall", "periodic"])
    def test_diffuse_1d_gll_one_iteration(self, p, spec, rng):
        mesh = build_structured_mesh(1, [(0.0, 1.5)], (5,), p, "gll",
                                     _tags(1, spec))
        st = make_stepper(mesh, nu=0.3, dt=0.05)
        u = VectorField(mesh, rng.standard_normal((1, mesh.n_dofs)))
        out, iters = st.diffuse(u)
        assert iters <= 1
        want = _dense_diffusion_solve(mesh, u, st.boundary, 0.3, 0.05)
        assert np.max(np.abs(out.data - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("dim,elems,p,spacing,spec", [
        (2, (3, 2), 4, "gll", "wall"),
        (2, (2, 3), 3, "equispaced", "wall"),
        (2, (3, 3), 2, "gll", "periodic"),
        (2, (3, 2), 4, "equispaced", "periodic"),
        (2, (3, 2), 3, "gll", "wall x_max"),
        (2, (2, 3), 4, "equispaced", "wall x_min y"),
        (2, (3, 2), 2, "gll", "wall x"),
        (3, (2, 2, 2), 3, "gll", "wall"),
        (3, (2, 3, 2), 2, "gll", "periodic"),
        (3, (2, 2, 2), 3, "equispaced", "wall y_min"),
        (3, (2, 2, 2), 4, "gll", "wall x_max z"),
    ])
    def test_matches_dense_oracle(self, dim, elems, p, spacing, spec, rng):
        mesh = build_structured_mesh(dim, _EXTENTS[:dim], elems, p, spacing,
                                     _tags(dim, spec))
        bdata = build_boundary_data(
            mesh, wall_velocity=lambda pts: np.cos(pts[:, :dim] + pts[:, :1]))
        nu, dt = 0.3, 0.05
        st = Stepper(GlobalOperators(mesh), PhysicalParams(nu),
                     TimeScheme(dt=dt, cg_tol=1e-12), boundary=bdata)
        u = VectorField(mesh, rng.standard_normal((dim, mesh.n_dofs)))
        out, iters = st.diffuse(u)
        want = _dense_diffusion_solve(mesh, u, bdata, nu, dt)
        assert iters > 0
        assert np.max(np.abs(out.data - want)) <= 1e-9 * np.max(np.abs(want))

    def test_walls_hold_their_values_exactly(self, rng):
        # Only the wall entries of wall_values count; diffuse writes them
        # itself, since Stepper.step no longer reapplies them after it.
        mesh = build_structured_mesh(2, _EXTENTS[:2], (3, 2), 3, "gll",
                                     _tags(2, "wall x_max"))
        bdata = build_boundary_data(mesh)
        walls = bdata.wall_dofs
        bdata.wall_values[:, walls] = rng.standard_normal((2, walls.size))
        u = VectorField(mesh, rng.standard_normal((2, mesh.n_dofs)))
        outs = []
        for off_walls in (0.0, 7.0):
            bdata.wall_values[:, ~bdata.wall_mask] = off_walls
            st = Stepper(GlobalOperators(mesh), PhysicalParams(0.3),
                         TimeScheme(dt=0.05, cg_tol=1e-12), boundary=bdata)
            outs.append(st.diffuse(u)[0].data)
        assert np.array_equal(outs[0], outs[1])
        assert np.array_equal(outs[0][:, walls], bdata.wall_values[:, walls])

    def test_walled_channel_iterations(self):
        # The 64x32 P2 Poiseuille channel at cg_tol 1e-10 took 36
        # Jacobi-preconditioned iterations per step.
        mesh = build_structured_mesh(2, [(0.0, 2.0), (0.0, 1.0)], (64, 32), 2,
                                     "gll", wall_tags(2))

        def poiseuille(pts):
            y = pts[:, 1]
            return np.stack([4.0 * y * (1.0 - y), np.zeros_like(y)], axis=1)

        u = VectorField.from_function(mesh, poiseuille)
        exact = u.data.copy()
        st = Stepper(GlobalOperators(mesh), PhysicalParams(0.05),
                     TimeScheme(dt=5e-3, rk="euler1", cg_tol=1e-10),
                     boundary=build_boundary_data(mesh, wall_velocity=poiseuille))
        t = 0.0
        for _ in range(3):
            u, rep = st.step(u, t)
            t = rep.t
            assert 0 < rep.diffusion_iters <= 12
        assert np.max(np.abs(u.data - exact)) <= 1e-8

    def test_periodic_box_shares_factorization(self, rng):
        # Pressure and diffusion pin nothing on a periodic cube, so one 1D
        # factorization serves every axis of both solves; walls add one.
        for mesh, n_factors in ((periodic_mesh(3, 2, 2), 1),
                                (walled_mesh(2, 3, 2), 2)):
            st = make_stepper(mesh, nu=0.1, dt=0.01)
            u = VectorField(mesh, rng.standard_normal((mesh.dim, mesh.n_dofs)))
            st.step(u, 0.0)
            assert len(st.ops._eigenpairs) == n_factors


# Minor page faults over two warm ssprk3 + LPS steps of an n^3 GLL Pp
# Taylor-Green set-up, after a smaller operator set has been built. At 32^3
# P1 the element arrays (2 MiB) exceed the 1 MiB mmap threshold a 2^2 P1
# set asks for, so that case fails if a smaller set lowers the thresholds.
_WARM_STEP_FAULTS = """
import resource
import sys
import numpy as np
import lpsflow as lf
from lpsflow.cases import init_tgv3d
from lpsflow.mesh import periodic_tags

def box(dim, n, p):
    return lf.build_structured_mesh(dim, [(0.0, 2.0 * np.pi)] * dim, (n,) * dim,
                                    p, "gll", periodic_tags(dim))

n, p = int(sys.argv[1]), int(sys.argv[2])
mesh = box(3, n, p)
st = lf.Stepper(lf.GlobalOperators(mesh), lf.PhysicalParams(1.0 / 1600.0),
                lf.TimeScheme(dt=0.15 * mesh.h_axes[0] / p, rk="ssprk3",
                              cg_tol=1e-8),
                stabilization=lf.StabilizationConfig("lps", 1.0),
                convective_form="skew")
u, t = init_tgv3d(mesh), 0.0
for _ in range(2):
    u, rep = st.step(u, t)
    t = rep.t
lf.GlobalOperators(box(2, 2, 1))
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(2):
    u, rep = st.step(u, t)
    t = rep.t
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


class TestHeldHeap:
    @pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallopt"),
                        reason="the C library has no mallopt (not glibc)")
    @pytest.mark.parametrize("n, p", [(8, 4), (32, 1)])
    def test_warm_steps_take_no_page_faults(self, n, p):
        # A fresh process: glibc's dynamic thresholds in this one depend on
        # what earlier tests allocated.
        src = str(Path(lpsflow.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", _WARM_STEP_FAULTS,
                              str(n), str(p)],
                             env=env, capture_output=True, text=True,
                             timeout=300, check=True)
        assert int(out.stdout) <= 100


class TestStep:
    def test_zero_state_stays_zero(self):
        mesh = periodic_mesh(2, 4, 1)
        st = make_stepper(mesh, nu=0.01, dt=0.01)
        u, _ = st.step(VectorField(mesh), 0.0)
        assert np.all(u.data == 0.0)
        assert divergence_norm(st.ops, u) == 0.0

    def test_cfl_guard_raises(self):
        mesh = periodic_mesh(2, 8, 2)
        st = make_stepper(mesh, dt=1.0, cfl=1.0)
        u = VectorField(mesh, np.ones((2, mesh.n_dofs)))
        with pytest.raises(CflError):
            st.step(u, 0.0)

    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_nonfinite_aborts_at_prediction(self):
        # The abort names the stage quantity that failed, before the
        # pressure solve sees the non-finite data.
        mesh = periodic_mesh(2, 4, 1)
        st = make_stepper(mesh, dt=0.01)
        u = VectorField(mesh)
        u.data[0, 0] = np.inf
        with pytest.raises(SolverAbort, match="predicted velocity"):
            st.step(u, 0.0)

    def test_cfl_guard_override(self):
        mesh = periodic_mesh(2, 4, 1)
        st = make_stepper(mesh, dt=0.4, cfl=None)  # inf: explicitly overridden
        u = VectorField(mesh, 0.1 * np.ones((2, mesh.n_dofs)))
        st.step(u, 0.0)  # no CflError

    def test_heun2_2d_tgv_accuracy(self):
        # Full scheme vs the analytic decaying vortex on a fine-enough mesh.
        mesh = periodic_mesh(2, 12, 3)
        nu = 0.02
        st = make_stepper(mesh, nu=nu, dt=0.02, rk="heun2", theta=0.5,
                          cg_tol=1e-11)
        x, y = mesh.node_coords[:, 0], mesh.node_coords[:, 1]
        u = VectorField(mesh, np.stack([np.sin(x) * np.cos(y),
                                        -np.cos(x) * np.sin(y)]))
        t = 0.0
        for _ in range(25):
            u, rep = st.step(u, t)
            t = rep.t
        decay = np.exp(-2 * nu * t)
        err = np.max(np.abs(u.data[0] - np.sin(x) * np.cos(y) * decay))
        assert err < 5e-4

    def test_energy_audit_skew_inviscid(self):
        # No stabilization, skew form, nu = 0: kinetic energy stays within
        # 1e-3 relative over 100 steps at CFL <= 0.2.
        mesh = periodic_mesh(2, 16, 2)
        ops = GlobalOperators(mesh)
        x, y = mesh.node_coords[:, 0], mesh.node_coords[:, 1]
        u = VectorField(mesh, np.stack([np.sin(x) * np.cos(y),
                                        -np.cos(x) * np.sin(y)]))
        h = min(mesh.h_axes)
        dt = 0.2 * h / (2 * 1.0)
        st = make_stepper(mesh, nu=0.0, dt=dt, rk="ssprk3", form="skew",
                          cg_tol=1e-10)
        e0 = kinetic_energy(ops, u)
        t = 0.0
        for _ in range(100):
            u, rep = st.step(u, t)
            t = rep.t
        e1 = kinetic_energy(ops, u)
        assert abs(e1 - e0) / e0 <= 1e-3

    def test_report_iteration_counts_bounded(self):
        mesh = periodic_mesh(2, 6, 2)
        st = make_stepper(mesh, nu=0.01, dt=0.01, rk="ssprk3")
        x = mesh.node_coords[:, 0]
        u = VectorField(mesh, np.stack([np.sin(x), np.zeros(mesh.n_dofs)]))
        u, rep = st.step(u, 0.0)
        assert len(rep.poisson_iters) == 3
        assert all(i <= st.scheme.cg_max_iters for i in rep.poisson_iters)
        assert rep.diffusion_iters <= st.scheme.cg_max_iters
        assert rep.wall_seconds > 0.0


class TestWalledFlow:
    def test_lid_driven_cavity_steps_stay_finite(self):
        # Exercises wall Dirichlet + rotational pressure Neumann end to end.
        mesh = build_structured_mesh(
            2, [(0.0, 1.0)] * 2, (6, 6), 2, "gll", wall_tags(2)
        )
        ops = GlobalOperators(mesh)

        def lid(points):
            on_lid = points[:, 1] > 1.0 - 1e-12
            u = np.where(on_lid, 1.0, 0.0)
            return np.stack([u, np.zeros_like(u)], axis=1)

        from lpsflow.boundary import build_boundary_data

        bd = build_boundary_data(mesh, wall_velocity=lid)
        scheme = TimeScheme(dt=2e-3, rk="heun2", cg_tol=1e-10,
                            cfl_limit=np.inf)
        st = Stepper(ops, PhysicalParams(0.01), scheme,
                     stabilization=StabilizationConfig("lps", 1.0),
                     boundary=bd)
        u = VectorField(mesh)
        from lpsflow.boundary import apply_velocity_dirichlet

        apply_velocity_dirichlet(u, bd)
        t = 0.0
        for _ in range(10):
            u, rep = st.step(u, t)
            t = rep.t
        assert np.all(np.isfinite(u.data))
        lid_dofs = mesh.boundary_faces["y_max"].dof_ids
        inner_lid = np.setdiff1d(
            lid_dofs, np.concatenate([mesh.boundary_faces[f].dof_ids
                                      for f in ("x_min", "x_max")])
        )
        assert np.allclose(u.data[0, inner_lid], 1.0, atol=1e-12)
        assert kinetic_energy(ops, u) > 0.0


class TestChannelFlow:
    def test_inflow_outflow_steps_and_outlet_pressure(self):
        # Inflow at x_min, no-slip side walls, traction outflow at x_max:
        # exercises the pressure Dirichlet path of the Poisson solve.
        from lpsflow.boundary import (
            OutflowConfig,
            apply_velocity_dirichlet,
            build_boundary_data,
            outflow_pressure_dirichlet,
        )
        from lpsflow.mesh import wall_tags

        tags = wall_tags(2)
        tags["x_max"] = "outflow"
        mesh = build_structured_mesh(
            2, [(0.0, 2.0), (0.0, 1.0)], (8, 4), 2, "gll", tags
        )
        ops = GlobalOperators(mesh)

        def inflow(points):
            on_inlet = points[:, 0] < 1e-12
            y = points[:, 1]
            u = np.where(on_inlet, 4.0 * y * (1.0 - y), 0.0)
            return np.stack([u, np.zeros_like(u)], axis=1)

        bd = build_boundary_data(mesh, OutflowConfig(U0=1.0, beta=0.1),
                                 wall_velocity=inflow)
        scheme = TimeScheme(dt=2e-3, rk="heun2", cg_tol=1e-10, cfl_limit=np.inf)
        st = Stepper(ops, PhysicalParams(0.05), scheme,
                     stabilization=StabilizationConfig("lps", 1.0),
                     boundary=bd)
        u = VectorField(mesh, np.stack([
            4.0 * mesh.node_coords[:, 1] * (1.0 - mesh.node_coords[:, 1]),
            np.zeros(mesh.n_dofs),
        ]))
        apply_velocity_dirichlet(u, bd)
        t = 0.0
        for _ in range(10):
            u, rep = st.step(u, t)
            t = rep.t
        assert np.all(np.isfinite(u.data))
        # The solved pressure satisfies the outflow Dirichlet data exactly.
        p = st.solve_pressure(u)
        want = outflow_pressure_dirichlet(ops, bd, u, 0.05)
        ids = bd.outflow_dofs
        assert np.allclose(p.values[ids], want[ids], atol=1e-12)
        # Flow keeps moving out of the domain.
        outlet = mesh.boundary_faces["x_max"].dof_ids
        assert np.mean(u.data[0, outlet]) > 0.1


@pytest.mark.parametrize("rk", sorted(RK_STAGES))
def test_rk_stages_are_convex_shu_osher_pairs(rk):
    # step forms each stage as a*u_n + b*predict(v_{s-1}); the first stage
    # is the prediction itself.
    stages = RK_STAGES[rk]
    assert stages[0] == (0.0, 1.0)
    for stage in stages:
        assert len(stage) == 2
        a, b = stage
        assert a >= 0.0 and b > 0.0
        assert a + b == pytest.approx(1.0, abs=1e-15)


def test_scheme_validation():
    with pytest.raises(ValueError):
        TimeScheme(dt=0.0)
    with pytest.raises(ValueError):
        TimeScheme(dt=0.1, rk="rk4")
    with pytest.raises(ValueError):
        TimeScheme(dt=0.1, cg_tol=2.0)
    with pytest.raises(ValueError):
        PhysicalParams(nu=-1.0)
