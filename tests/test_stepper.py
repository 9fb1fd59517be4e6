import ctypes
import os
from dataclasses import fields
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lpsflow
from lpsflow.boundary import build_boundary_data
from lpsflow.diagnostics import divergence_norm, kinetic_energy
from lpsflow import operators
from lpsflow.mesh import BoundaryTag, build_structured_mesh, periodic_tags, wall_tags
from lpsflow.operators import (
    GlobalOperators,
    ScalarField,
    VectorField,
)
from lpsflow.stabilization import StabilizationConfig, momentum_stabilization
from lpsflow.stepper import (
    RK_STAGES,
    CflError,
    LinearSolveError,
    PhysicalParams,
    SolverAbort,
    Stepper,
    TimeScheme,
    solve_poisson,
)

from conftest import periodic_mesh, walled_mesh

from oracles import DenseOracle


def make_stepper(mesh, nu=0.0, dt=1e-2, rk="heun2", stab=None, form="skew",
                 theta=1.0, cfl=None):
    ops = GlobalOperators(mesh)
    scheme = TimeScheme(dt=dt, rk=rk, diffusion_theta=theta,
                        cfl_limit=np.inf if cfl is None else cfl)
    return Stepper(ops, PhysicalParams(nu), scheme, stabilization=stab,
                   convective_form=form)


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

    @pytest.mark.parametrize("solve, bad", [
        pytest.param("poisson", np.nan, id="nan"),
        pytest.param("poisson", np.inf, id="inf"),
        pytest.param("diffuse", np.nan, id="diffuse-nan"),
        pytest.param("diffuse", np.inf, id="diffuse-inf"),
    ])
    def test_nonfinite_rhs_raises(self, solve, bad):
        # Both solves share one check, so neither returns NaN as a solution.
        with pytest.raises(LinearSolveError, match="non-finite"):
            if solve == "poisson":
                mesh = periodic_mesh(2, 3, 2)
                b = np.zeros(mesh.n_dofs)
                b[4] = bad
                solve_poisson(GlobalOperators(mesh), ScalarField(mesh, b))
            else:
                mesh = walled_mesh(2, 3, 2)
                b = np.zeros((2, mesh.n_dofs))
                b[1, 4] = bad
                make_stepper(mesh, nu=0.1).diffuse(VectorField(mesh, b))

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
        st = make_stepper(mesh, dt=5e-3)
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
        # div(grad p - g_h(p)), to round-off.
        mesh = periodic_mesh(2, 6, 2)
        ops = GlobalOperators(mesh)
        st = make_stepper(mesh, dt=0.02)
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
        assert st.diffuse(u) is u

    def test_periodic_heat_decay_factor(self):
        # u = (sin x, 0): the Laplacian form gives nu u'', so one
        # backward-Euler step decays it by 1/(1 + nu dt) within O(dt^2).
        mesh = periodic_mesh(2, 24, 2)
        nu, dt = 0.05, 0.01
        st = make_stepper(mesh, nu=nu, dt=dt)
        x = mesh.node_coords[:, 0]
        u = VectorField(mesh, np.stack([np.sin(x), np.zeros(mesh.n_dofs)]))
        out = st.diffuse(u)
        factor = out.data[0] @ u.data[0] / (u.data[0] @ u.data[0])
        assert abs(factor - 1.0 / (1.0 + nu * dt)) < 1e-6

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
            st = make_stepper(mesh, nu=nu, dt=dt, theta=0.5)
            u = VectorField(mesh, np.stack([u0, np.zeros(mesh.n_dofs)]))
            for _ in range(round(0.4 / dt)):
                u = st.diffuse(u)
            return u.data[0] @ u0 / (u0 @ u0)

        ref = factor(0.0025)
        errs = [abs(factor(dt) - ref) for dt in (0.04, 0.02)]
        assert errs[1] < errs[0] / 3.0

    def test_rigid_translation_unchanged(self):
        mesh = periodic_mesh(2, 6, 2)
        st = make_stepper(mesh, nu=0.3, dt=0.1)
        u = VectorField(mesh, np.stack([np.full(mesh.n_dofs, 2.0),
                                        np.full(mesh.n_dofs, -1.0)]))
        out = st.diffuse(u)
        assert np.allclose(out.data, u.data, atol=1e-11)


def _dense_diffusion_solve(mesh, u, bdata, nu, dt, theta=1.0):
    """Theta-step of the viscous term in Laplacian form by a dense solve of
    (M + theta dt nu K) x = M u - (1 - theta) dt nu K u per component, M
    and K the dense consistent mass and stiffness, with the wall rows held
    at their values."""
    dense = DenseOracle(mesh)
    a = dense.mass + theta * dt * nu * dense.stiff
    b = dense.mass - (1.0 - theta) * dt * nu * dense.stiff
    free = np.ones(mesh.n_dofs, dtype=bool)
    free[bdata.wall_dofs] = False
    x = np.where(free, 0.0, bdata.wall_values)
    for m in range(mesh.dim):
        rhs = b @ u.data[m] - a @ x[m]
        x[m, free] = np.linalg.solve(a[np.ix_(free, free)], rhs[free])
    return x


class TestDiffusionPreconditioner:
    """The direct solve of a M + b K (``GlobalOperators.solve_helmholtz``):
    the viscous step's M + theta dt nu K and the pressure's K."""

    @pytest.mark.parametrize("p", [1, 2, 4])
    @pytest.mark.parametrize("spec", ["wall", "periodic", "wall x_max"])
    def test_inverts_1d_operator(self, p, spec, rng):
        # The viscous operator with the walls pinned, and the pressure's
        # K with the outflow face pinned, or pure Neumann without one.
        mesh = build_structured_mesh(1, [(0.0, 1.5)], (5,), p, "gll",
                                     _tags(1, spec))
        ops = GlobalOperators(mesh)
        for a, b, pinned in ((1.0, 0.01, BoundaryTag.DIRICHLET_WALL),
                             (1.0, 0.37, BoundaryTag.DIRICHLET_WALL),
                             (0.0, 1.0, BoundaryTag.OUTFLOW)):
            free = ops.free_slices(pinned)
            x = np.zeros(mesh.n_dofs)
            x[free] = rng.standard_normal(x[free].shape)
            if a == 0.0 and x[free].size == mesh.n_dofs:
                x -= x.mean()  # pure Neumann: the solve drops the constant
            ax = a * ops.tensor_mass(x[None]) + b * ops.tensor_stiffness(x[None])
            z = ops.solve_helmholtz(ax, a, b, pinned)
            assert z.shape == (1, mesh.n_dofs)
            assert np.linalg.norm(z[0] - x) <= 1e-12 * np.linalg.norm(x)

    def test_repeated_c_reuses_the_solver(self, rng):
        # c = theta dt nu changes only on a partial last step, so the
        # diagonal of the last (a, b) is kept per pinned tag rather than
        # rebuilt every step, and a new (a, b) replaces it.
        ops = GlobalOperators(walled_mesh(2, 3, 2))
        wall = BoundaryTag.DIRICHLET_WALL
        r = rng.standard_normal((2, ops.mesh.n_dofs))

        def diagonal(a, b):
            ops.solve_helmholtz(r, a, b, wall)
            return ops._diagonals[wall][-1]

        inv = diagonal(1.0, 0.25)
        assert diagonal(1.0, 0.25) is inv
        other = diagonal(1.0, 0.5)
        assert other is not inv
        assert diagonal(1.0, 0.5) is other
        assert list(ops._diagonals) == [wall]

    @pytest.mark.parametrize("p", [1, 2, 4])
    @pytest.mark.parametrize("spec", ["wall", "periodic"])
    def test_diffuse_1d_gll_one_iteration(self, p, spec, rng, monkeypatch):
        # The solve is one application of the exact inverse, in 1D as in
        # any dimension.
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return diagonalized_solve(*args, **kwargs)

        diagonalized_solve = operators._diagonalized_solve
        monkeypatch.setattr(operators, "_diagonalized_solve", counted)
        mesh = build_structured_mesh(1, [(0.0, 1.5)], (5,), p, "gll",
                                     _tags(1, spec))
        bdata = build_boundary_data(mesh, wall_velocity=lambda pts: pts + 1.0)
        u = VectorField(mesh, rng.standard_normal((1, mesh.n_dofs)))
        for theta in (1.0, 0.5):
            st = Stepper(GlobalOperators(mesh), PhysicalParams(0.3),
                         TimeScheme(dt=0.05, diffusion_theta=theta),
                         boundary=bdata)
            calls.clear()
            out = st.diffuse(u)
            assert len(calls) == 1
            want = _dense_diffusion_solve(mesh, u, bdata, 0.3, 0.05, theta)
            assert (np.max(np.abs(out.data - want))
                    <= 1e-12 * np.max(np.abs(want)))

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
        u = VectorField(mesh, rng.standard_normal((dim, mesh.n_dofs)))
        for theta in (1.0, 0.5):
            st = Stepper(GlobalOperators(mesh), PhysicalParams(nu),
                         TimeScheme(dt=dt, diffusion_theta=theta),
                         boundary=bdata)
            out = st.diffuse(u)
            want = _dense_diffusion_solve(mesh, u, bdata, nu, dt, theta)
            assert (np.max(np.abs(out.data - want))
                    <= 1e-12 * np.max(np.abs(want)))

    def test_walls_hold_their_values_exactly(self, rng):
        # Only the wall entries of wall_values count; diffuse writes them
        # itself, since Stepper.step no longer reapplies them after it.
        mesh = build_structured_mesh(2, _EXTENTS[:2], (3, 2), 3, "gll",
                                     _tags(2, "wall x_max"))
        bdata = build_boundary_data(mesh)
        walls = bdata.wall_dofs
        bdata.wall_values[:, walls] = rng.standard_normal((2, walls.size))
        off = np.ones(mesh.n_dofs, dtype=bool)
        off[walls] = False
        u = VectorField(mesh, rng.standard_normal((2, mesh.n_dofs)))
        outs = []
        for off_walls in (0.0, 7.0):
            bdata.wall_values[:, off] = off_walls
            st = Stepper(GlobalOperators(mesh), PhysicalParams(0.3),
                         TimeScheme(dt=0.05), boundary=bdata)
            outs.append(st.diffuse(u).data)
        assert np.array_equal(outs[0], outs[1])
        assert np.array_equal(outs[0][:, walls], bdata.wall_values[:, walls])

    def test_walled_channel_iterations(self):
        # The 64x32 P2 Poiseuille channel: the direct solve reports no
        # iterations and holds the profile.
        mesh = build_structured_mesh(2, [(0.0, 2.0), (0.0, 1.0)], (64, 32), 2,
                                     "gll", wall_tags(2))

        def poiseuille(pts):
            y = pts[:, 1]
            return np.stack([4.0 * y * (1.0 - y), np.zeros_like(y)], axis=1)

        u = VectorField.from_function(mesh, poiseuille)
        exact = u.data.copy()
        st = Stepper(GlobalOperators(mesh), PhysicalParams(0.05),
                     TimeScheme(dt=5e-3, rk="euler1"),
                     boundary=build_boundary_data(mesh, wall_velocity=poiseuille))
        t = 0.0
        for _ in range(3):
            u, rep = st.step(u, t)
            t = rep.t
            assert rep.diffusion_iters == 0
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
# With a third argument "walled" the box is a lid-driven cavity instead:
# walls all round and the lid at y = 2 pi moving in x, so the viscous solve
# lifts the lid velocity and the pressure takes the wall Neumann datum.
_WARM_STEP_FAULTS = """
import resource
import sys
import numpy as np
import lpsflow as lf
from lpsflow.cases import init_tgv3d
from lpsflow.mesh import periodic_tags, wall_tags

def box(dim, n, p, tags=periodic_tags):
    return lf.build_structured_mesh(dim, [(0.0, 2.0 * np.pi)] * dim, (n,) * dim,
                                    p, "gll", tags(dim))

def lid(points):
    u = np.zeros_like(points)
    u[points[:, 1] > 2.0 * np.pi - 1e-12, 0] = 1.0
    return u

n, p = int(sys.argv[1]), int(sys.argv[2])
walled = sys.argv[3:] == ["walled"]
mesh = box(3, n, p, wall_tags if walled else periodic_tags)
bdata = lf.build_boundary_data(mesh, wall_velocity=lid) if walled else None
st = lf.Stepper(lf.GlobalOperators(mesh), lf.PhysicalParams(1.0 / 1600.0),
                lf.TimeScheme(dt=0.15 * mesh.h_axes[0] / p, rk="ssprk3",
                              cg_tol=1e-8),
                stabilization=lf.StabilizationConfig("lps", 1.0),
                convective_form="skew", boundary=bdata)
if walled:
    u = lf.VectorField.from_function(mesh, lambda x: np.sin(x) * np.cos(x))
    lf.apply_velocity_dirichlet(u, bdata)
else:
    u = init_tgv3d(mesh)
t = 0.0
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
        assert _warm_step_faults(n, p) <= 100

    @pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallinfo2"),
                        reason="the C library has no mallinfo2 (not glibc)")
    @pytest.mark.parametrize("n, p", [(32, 1), (16, 2)])
    def test_no_page_faults_under_another_heap_layout(self, n, p):
        # With the interpreter's small objects in the C heap too, the first
        # steps fragment it differently and a warm step grew it by one
        # stacked vector field without the heap reserved after step 0.
        assert _warm_step_faults(n, p, PYTHONMALLOC="malloc") <= 100

    @pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallinfo2"),
                        reason="the C library has no mallinfo2 (not glibc)")
    @pytest.mark.parametrize("n, p", [(8, 4), (32, 1)])
    @pytest.mark.parametrize("heap", ["default", "malloc"])
    def test_walled_warm_steps_take_no_page_faults(self, n, p, heap):
        # The lift inside the direct solve, and the wall terms of each
        # stage, allocate within the held heap as well.
        env = {"PYTHONMALLOC": "malloc"} if heap == "malloc" else {}
        assert _warm_step_faults(n, p, "walled", **env) <= 100


def _warm_step_faults(n, p, *extra, **env):
    src = str(Path(lpsflow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])), **env)
    out = subprocess.run([sys.executable, "-c", _WARM_STEP_FAULTS,
                          str(n), str(p), *extra],
                         env=env, capture_output=True, text=True,
                         timeout=300, check=True)
    return int(out.stdout)


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
        st = make_stepper(mesh, nu=nu, dt=0.02, rk="heun2", theta=0.5)
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

    @pytest.mark.parametrize("rk", sorted(RK_STAGES))
    def test_pressure_matches_exact_tgv(self, rk):
        # The last stage's pressure is b_s times the physical one, so the
        # step keeps it divided by b_s: every scheme then matches the exact
        # decaying-vortex pressure to its time error, 5e-4 to 7.5e-4 here.
        # Undivided, heun2 keeps 0.5 p and ssprk3 2/3 p.
        mesh = periodic_mesh(2, 8, 4)
        nu, dt = 0.01, 0.01
        st = make_stepper(mesh, nu=nu, dt=dt, rk=rk, theta=0.5)
        x, y = mesh.node_coords[:, 0], mesh.node_coords[:, 1]
        u = VectorField(mesh, np.stack([np.sin(x) * np.cos(y),
                                        -np.cos(x) * np.sin(y)]))
        t = 0.0
        for _ in range(50):
            u, rep = st.step(u, t)
            t = rep.t
        want = 0.25 * (np.cos(2 * x) + np.cos(2 * y)) * np.exp(-4 * nu * t)
        want -= want.mean()
        got = st.pressure.values - st.pressure.values.mean()
        assert np.linalg.norm(got - want) <= 2e-3 * np.linalg.norm(want)

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
        st = make_stepper(mesh, nu=0.0, dt=dt, rk="ssprk3", form="skew")
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
        # Both solves are direct: every count reads 0.
        assert rep.poisson_iters == (0, 0, 0)
        assert rep.diffusion_iters == 0
        assert rep.wall_seconds > 0.0

    @pytest.mark.parametrize("rk", sorted(RK_STAGES))
    def test_phase_seconds_fit_in_the_step(self, rk):
        mesh = walled_mesh(2, 3, 2)
        st = make_stepper(mesh, nu=0.01, dt=0.01, rk=rk,
                          stab=StabilizationConfig("lps", 1.0))
        x = mesh.node_coords
        u = VectorField(mesh, np.stack([np.sin(np.pi * x[:, 1]),
                                        np.zeros(mesh.n_dofs)]))
        _, rep = st.step(u, 0.0)
        phases = rep.phase_seconds
        assert set(phases) == {"rhs", "pressure", "correct", "diffuse"}
        assert len(phases["pressure"]) == len(RK_STAGES[rk])
        spent = [phases["rhs"], *phases["pressure"], phases["correct"],
                 phases["diffuse"]]
        assert all(s > 0.0 for s in spent)
        assert sum(spent) <= rep.wall_seconds

    def test_report_fields_keep_their_positions(self):
        # phase_seconds comes last with a default, so a report built from
        # the older five fields still works.
        rep = lpsflow.stepper.StepReport(1.0, 0.1, (0,), 0, 0.5)
        assert rep.phase_seconds == {}
        assert [f.name for f in fields(rep)][-1] == "phase_seconds"

    @pytest.mark.parametrize("n, p", [(3, 2), (2, 4)])
    def test_collocated_step_runs_no_element_kernel(self, n, p, monkeypatch):
        # In 3D at a collocated rule every operator of a step, the viscous
        # one and either stabilization included, works on the DoF grid: no
        # gather, no scatter and no element derivative.
        def refuse(*args, **kwargs):
            raise AssertionError("element kernel called")

        for name in ("_gather", "_scatter", "_deriv"):
            monkeypatch.setattr(GlobalOperators, name, refuse)
        tags = periodic_tags(3)
        tags.update(y_min="wall", y_max="wall")
        mesh = build_structured_mesh(3, [(0.0, 1.0), (0.0, 0.8), (0.0, 1.2)],
                                     (n,) * 3, p, "gll", tags)
        x = mesh.node_coords
        u = VectorField(mesh, np.stack([np.sin(np.pi * x[:, 1] / 0.8)
                                        * np.cos(2 * np.pi * x[:, (k + 2) % 3])
                                        for k in range(3)]))

        def step(nu, mode):
            st = make_stepper(mesh, nu=nu, dt=1e-2, rk="ssprk3",
                              stab=StabilizationConfig(mode, 1.0))
            return st.step(u, 0.0)[0].data

        for mode in ("upwind", "lps"):
            viscous = step(0.05, mode)
            assert np.all(np.isfinite(viscous))
            # The viscous step ran: the same step at nu = 0 differs.
            assert np.max(np.abs(viscous - step(0.0, mode))) > 1e-4


_BAD_VALUES = {
    # NaN in the last entry of one component.
    "nan-last": ((1, -1, np.nan),),
    # +inf and -inf in two components: their sum is NaN, not inf.
    "inf-minus-inf": ((0, 3, np.inf), (1, 5, -np.inf)),
}


class TestNonFiniteChecks:
    """Each check of ``Stepper.step`` reads one sum of its field."""

    @staticmethod
    def _spoiled(data, bad):
        data = np.array(data)
        for comp, i, value in bad:
            data[comp, i] = value
        return data

    @pytest.mark.filterwarnings("ignore:invalid value")
    @pytest.mark.parametrize("bad", list(_BAD_VALUES), ids=list(_BAD_VALUES))
    @pytest.mark.parametrize("where, message", [
        ("inviscid_rhs", "non-finite values in predicted velocity"),
        ("correct", "non-finite values after projection stage"),
        ("diffuse", "non-finite values after diffusion"),
    ], ids=["prediction", "stage", "diffusion"])
    def test_aborts_with_its_message(self, where, message, bad, monkeypatch):
        mesh = periodic_mesh(2, 4, 2)
        st = make_stepper(mesh, nu=0.01, dt=0.01, rk="heun2")
        x = mesh.node_coords[:, 0]
        u = VectorField(mesh, np.stack([np.sin(x), np.cos(x)]))
        inner = getattr(st, where)

        def spoil(*args, **kwargs):
            out = inner(*args, **kwargs)
            if isinstance(out, VectorField):
                return VectorField(mesh, self._spoiled(out.data,
                                                       _BAD_VALUES[bad]))
            return self._spoiled(out, _BAD_VALUES[bad])

        monkeypatch.setattr(st, where, spoil)
        with pytest.raises(SolverAbort, match=f"^{message}$"):
            st.step(u, 0.0)


_INPUT_MESHES = {
    "periodic-2d-gll-p1": periodic_mesh(2, 5, 1),
    "walled-2d-gll-p1": walled_mesh(2, 4, 1),
    "periodic-3d-gll-p4": periodic_mesh(3, 2, 4),
    "walled-2d-gll-p4": walled_mesh(2, 2, 4),
    "zwalled-3d-gll-p4": build_structured_mesh(
        3, [(0.0, 1.0)] * 3, (2, 1, 2), 4, "gll",
        dict(periodic_tags(3), z_min="wall", z_max="wall")),
    "periodic-2d-equi-p3": periodic_mesh(2, 3, 3, spacing="equispaced"),
    "walled-3d-equi-p3": walled_mesh(3, 2, 3, spacing="equispaced"),
}


class TestKernelsLeaveTheirInputAlone:
    """At a collocated rule convection takes the rows of u.data themselves
    as its values at the points, so an in-place product there would change
    the state a step starts from."""

    @pytest.mark.parametrize("mesh", list(_INPUT_MESHES.values()),
                             ids=list(_INPUT_MESHES))
    def test_u_data_bitwise_unchanged(self, mesh, rng):
        ops = GlobalOperators(mesh)
        u = VectorField(mesh, rng.standard_normal((mesh.dim, mesh.n_dofs)))
        before = u.data.copy()

        def unchanged():
            return np.array_equal(u.data, before)

        for form in ("conservative", "nonconservative", "skew"):
            ops.project_convection(u, form)
            assert unchanged(), f"project_convection {form}"
            ops.convective_term(u, form)
            assert unchanged(), f"convective_term {form}"
        for mode in ("upwind", "lps"):
            momentum_stabilization(ops, u, StabilizationConfig(mode, 1.0))
            assert unchanged(), f"momentum_stabilization {mode}"
            for form in ("conservative", "nonconservative", "skew"):
                st = make_stepper(mesh, nu=0.01, dt=1e-3, form=form,
                                  stab=StabilizationConfig(mode, 1.0))
                st.predict(u)
                assert unchanged(), f"predict {form} {mode}"


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
        scheme = TimeScheme(dt=2e-3, rk="heun2", cfl_limit=np.inf)
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
        scheme = TimeScheme(dt=2e-3, rk="heun2", cfl_limit=np.inf)
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


def test_cg_tol_is_accepted_and_ignored(rng):
    # Callers written for the iterative viscous solve still pass cg_tol. It
    # is no field, any value is taken, and no bit of a step changes.
    assert "cg_tol" not in {f.name for f in fields(TimeScheme)}
    assert TimeScheme(dt=0.1, cg_tol=2.0) == TimeScheme(dt=0.1)
    mesh = walled_mesh(2, 3, 2)
    bdata = build_boundary_data(mesh, wall_velocity=lambda pts: np.cos(pts))
    u = VectorField(mesh, rng.standard_normal((2, mesh.n_dofs)))
    outs = []
    for extra in ({}, {"cg_tol": 1e-3}):
        scheme = TimeScheme(dt=0.01, rk="ssprk3", diffusion_theta=0.5, **extra)
        st = Stepper(GlobalOperators(mesh), PhysicalParams(0.1), scheme,
                     boundary=bdata)
        outs.append(st.step(u, 0.0)[0].data)
    assert np.array_equal(outs[0], outs[1])


def test_scheme_validation():
    with pytest.raises(ValueError):
        TimeScheme(dt=0.0)
    with pytest.raises(ValueError):
        TimeScheme(dt=0.1, rk="rk4")
    with pytest.raises(ValueError):
        TimeScheme(dt=0.1, cfl_limit=np.nan)
    with pytest.raises(ValueError):
        TimeScheme(dt=0.1, cfl_limit=0.0)
    with pytest.raises(ValueError):
        PhysicalParams(nu=-1.0)
    with pytest.raises(ValueError):
        PhysicalParams(nu=np.nan)
    with pytest.raises(ValueError):
        PhysicalParams(nu=np.inf)
    for t_end in (np.nan, np.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match="t_end"):
            TimeScheme(dt=0.1, t_end=t_end)
    for dt in (np.nan, np.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match="dt must be finite"):
            TimeScheme(dt=dt)
