import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpsflow import basis, operators
from lpsflow.boundary import (
    OutflowConfig,
    apply_velocity_dirichlet,
    build_boundary_data,
    dong_smoothing,
    outflow_pressure_dirichlet,
    poisson_boundary_term,
    wall_pressure_neumann,
)
from lpsflow.mesh import BoundaryTag, build_structured_mesh, wall_tags
from lpsflow.operators import GlobalOperators, VectorField

from conftest import periodic_mesh, walled_mesh

from oracles import DenseOracle, normal_traction_pressure

CFG = OutflowConfig(U0=1.0, beta=0.1)


def tagged_box(dim, spec, elems, p, spacing="gll"):
    """Walls on every face, then ``spec``: "periodic x" makes x periodic,
    "outflow" tags x_max as an outflow."""
    tags = wall_tags(dim)
    if spec == "periodic x":
        tags["x_min"] = tags["x_max"] = "periodic"
    elif spec == "outflow":
        tags["x_max"] = "outflow"
    return build_structured_mesh(dim, [(0.0, 1.5), (-0.5, 0.5), (0.0, 1.2)][:dim],
                                 elems, p, spacing, tags)


def channel_mesh(n, p, dim=2):
    """Walls everywhere except an outflow at x_max."""
    tags = wall_tags(dim)
    tags["x_max"] = "outflow"
    return build_structured_mesh(
        dim, [(0.0, 1.0)] * dim, (n,) * dim, p, "gll", tags
    )


class TestDongSmoothing:
    def test_zero_normal_velocity_is_half(self):
        assert dong_smoothing(0.0, CFG) == 0.5

    def test_limits(self):
        assert dong_smoothing(50.0, CFG) < 1e-12
        assert dong_smoothing(-50.0, CFG) > 1.0 - 1e-12

    def test_reference_value_at_un_equal_u0beta(self):
        got = dong_smoothing(CFG.U0 * CFG.beta, CFG)
        want = 0.5 * (1.0 - np.tanh(1.0))
        assert abs(got - want) < 1e-15
        assert abs(got - 0.11920292202211756) < 1e-12

    @given(st.floats(-1e3, 1e3))
    @settings(max_examples=200)
    def test_bounds_and_symmetry(self, un):
        s = dong_smoothing(un, CFG)
        assert 0.0 <= s <= 1.0
        assert abs(dong_smoothing(-un, CFG) - (1.0 - s)) < 1e-15

    @given(st.floats(-50, 50), st.floats(1e-3, 50))
    @settings(max_examples=200)
    def test_strictly_decreasing(self, un, gap):
        assert dong_smoothing(un + gap, CFG) < dong_smoothing(un, CFG) + 1e-15

    def test_vectorized(self):
        out = dong_smoothing(np.array([-1.0, 0.0, 1.0]), CFG)
        assert out.shape == (3,)
        assert np.all(np.diff(out) < 0)


class TestOutflowPressure:
    def test_zero_velocity_zero_pressure(self):
        mesh = channel_mesh(3, 2)
        ops = GlobalOperators(mesh)
        bd = build_boundary_data(mesh, CFG)
        vals = outflow_pressure_dirichlet(ops, bd, VectorField(mesh), nu=0.1)
        assert np.max(np.abs(vals)) == 0.0

    def test_strong_outflow_kills_compensation(self):
        # Uniform fast outflow, nu = 0: S0 is ~0 so p is ~0 on the outlet.
        mesh = channel_mesh(3, 2)
        ops = GlobalOperators(mesh)
        bd = build_boundary_data(mesh, CFG)
        u = VectorField(mesh, np.stack([np.full(mesh.n_dofs, 10.0),
                                        np.zeros(mesh.n_dofs)]))
        vals = outflow_pressure_dirichlet(ops, bd, u, nu=0.0)
        assert np.max(np.abs(vals[bd.outflow_dofs])) < 1e-12

    def test_uniform_backflow_value(self):
        # u = (-1, 0) against outlet normal (1, 0) with nu = 0:
        # p = -(1/2)|u|^2 S0(-1).
        mesh = channel_mesh(3, 2)
        ops = GlobalOperators(mesh)
        bd = build_boundary_data(mesh, CFG)
        u = VectorField(mesh, np.stack([np.full(mesh.n_dofs, -1.0),
                                        np.zeros(mesh.n_dofs)]))
        vals = outflow_pressure_dirichlet(ops, bd, u, nu=0.0)
        want = -0.5 * dong_smoothing(-1.0, CFG)
        assert np.allclose(vals[bd.outflow_dofs], want, atol=1e-14)

    def test_reduces_to_zero_traction_without_backflow_term(self, rng):
        # Forcing S0 = 0 must reproduce the plain traction balance exactly;
        # use a strongly outflowing random state so S0 is ~0 anyway.
        mesh = channel_mesh(3, 3)
        ops = GlobalOperators(mesh)
        bd = build_boundary_data(mesh, OutflowConfig(U0=1.0, beta=1e-3))
        data = 0.1 * rng.standard_normal((2, mesh.n_dofs))
        data[0] += 50.0  # overwhelming outflow: S0 < 1e-300
        u = VectorField(mesh, data)
        nu = 0.37
        got = outflow_pressure_dirichlet(ops, bd, u, nu)
        want = normal_traction_pressure(ops, bd, u, nu)
        ids = bd.outflow_dofs
        assert np.max(np.abs(got[ids] - want[ids])) < 1e-13 * max(
            1.0, np.max(np.abs(want[ids]))
        )

    @pytest.mark.parametrize("dim", [2, 3])
    def test_outflow_at_both_x_faces_matches_projected_gradient(self, dim, rng):
        # The viscous part reads du_x/dx once for both faces; it must equal,
        # bit for bit, the x component of the lumped projection of grad u_x.
        tags = wall_tags(dim)
        tags["x_min"] = tags["x_max"] = "outflow"
        mesh = build_structured_mesh(
            dim, [(0.0, 2.0)] + [(0.0, 1.0)] * (dim - 1),
            (3,) + (2,) * (dim - 1), 3, "gll", tags)
        ops = GlobalOperators(mesh)
        bd = build_boundary_data(mesh, CFG)
        u = VectorField(mesh, rng.standard_normal((dim, mesh.n_dofs)))
        nu = 0.37
        got = outflow_pressure_dirichlet(ops, bd, u, nu)
        dudx = ops.project_gradient(u.component(0)).data[0]
        speed2 = np.sum(u.data**2, axis=0)
        want = np.zeros(mesh.n_dofs)
        for f in bd.outflow_faces:
            ids = f.dof_ids
            s0 = dong_smoothing(f.normal[0] * u.data[0, ids], CFG)
            want[ids] = -0.5 * speed2[ids] * s0 + nu * (2.0 * dudx[ids])
        assert len(bd.outflow_faces) == 2
        assert np.array_equal(got, want)


class TestWallPressureNeumann:
    def test_zero_velocity(self):
        mesh = walled_mesh(2, 3, 2)
        ops = GlobalOperators(mesh)
        bd = build_boundary_data(mesh)
        flux = wall_pressure_neumann(ops, bd, VectorField(mesh), nu=0.1)
        for f in bd.wall_faces:
            assert np.max(np.abs(flux[f.name])) == 0.0

    @pytest.mark.parametrize("dim", [2, 3])
    def test_zero_viscosity_gives_a_zero_datum(self, dim, rng):
        # nu = 0 takes the path of any nu: the datum is zero, of either
        # sign, on every wall face, whatever the velocity.
        mesh = tagged_box(dim, "periodic x", (3, 2, 2)[:dim], 2)
        ops = GlobalOperators(mesh)
        bd = build_boundary_data(mesh)
        u = VectorField(mesh, rng.standard_normal((dim, mesh.n_dofs)))
        flux = wall_pressure_neumann(ops, bd, u, nu=0.0)
        assert sorted(flux) == sorted(f.name for f in bd.wall_faces)
        for f in bd.wall_faces:
            assert flux[f.name].shape == f.dof_ids.shape
            assert np.all(flux[f.name] == 0.0)

    def test_rigid_rotation_flux_vanishes(self):
        # u = Omega x r has constant curl, so curl(curl u) = 0.
        mesh = walled_mesh(2, 3, 3)
        ops = GlobalOperators(mesh)
        bd = build_boundary_data(mesh)
        x, y = mesh.node_coords[:, 0], mesh.node_coords[:, 1]
        u = VectorField(mesh, np.stack([-(y - 0.5), x - 0.5]))
        flux = wall_pressure_neumann(ops, bd, u, nu=0.7)
        for name, vals in flux.items():
            assert np.max(np.abs(vals)) < 1e-10

    def test_analytic_double_curl_on_walls(self):
        # u = (sin y, 0): curl(curl u) = grad(div u) - lap(u) = (sin y, 0).
        # On y-walls the normal picks the zero component; on the x=0 wall
        # with n = (-1, 0) the flux -nu n.curl(curl u) is +nu sin y.
        nu = 0.25
        errs = []
        for n in (4, 8):
            mesh = build_structured_mesh(
                2, [(0.0, np.pi)] * 2, (n, n), 3, "gll", wall_tags(2)
            )
            ops = GlobalOperators(mesh)
            bd = build_boundary_data(mesh)
            y = mesh.node_coords[:, 1]
            u = VectorField(mesh, np.stack([np.sin(y), np.zeros(mesh.n_dofs)]))
            flux = wall_pressure_neumann(ops, bd, u, nu)
            errs_y = np.max(np.abs(flux["y_min"]))
            fx = mesh.boundary_faces["x_min"]
            want = nu * np.sin(y[fx.dof_ids])
            errs.append(max(errs_y, np.max(np.abs(flux["x_min"] - want))))
        assert errs[1] < errs[0] / 2.0  # O(h^{p-1}) at least
        assert errs[1] < 0.05 * nu

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("spacing, p, over", [
        ("gll", 1, False), ("gll", 4, False), ("equispaced", 3, False),
        ("gll", 2, True)], ids=["gll1", "gll4", "equi3", "gll2-over"])
    @pytest.mark.parametrize("spec", ["walls", "periodic x", "outflow"])
    def test_matches_dense_double_curl(self, dim, spacing, p, over, spec, rng):
        # Both curls by lumped projection of the dense weak partials; the
        # plane curl of the 2D vorticity is its rotated gradient. The
        # over-integrated rule couples a face to its element's p + 1 layers.
        elems = (3, 2) if dim == 2 else (2, 2, 3)
        if p == 4 and dim == 3:
            elems = (2, 2, 2)
        mesh = tagged_box(dim, spec, elems, p, spacing)
        rule = mesh.basis.over_integrated() if over else None
        ops, dense = GlobalOperators(mesh, rule), DenseOracle(mesh, rule)
        bd = build_boundary_data(mesh)
        u = rng.standard_normal((dim, mesh.n_dofs))
        omega = dense.curl(u)
        if dim == 2:
            cc = np.stack([dense.grad[1] @ omega[0],
                           -(dense.grad[0] @ omega[0])]) / dense.lumped
        else:
            cc = dense.curl(omega)
        nu = 0.3
        flux = wall_pressure_neumann(ops, bd, VectorField(mesh, u), nu)
        assert sorted(flux) == sorted(f.name for f in bd.wall_faces)
        for f in bd.wall_faces:
            want = -nu * f.normal[f.axis] * cc[f.axis, f.dof_ids]
            assert (np.max(np.abs(flux[f.name] - want))
                    <= 1e-12 * np.max(np.abs(want)))


def record_big_contractions(monkeypatch, n_dofs):
    """Patch apply_along_axis to record the shape of every contraction that
    returns n_dofs entries or more; returns the list it appends to."""
    big, apply = [], basis.apply_along_axis

    def spy(mat, values, axis):
        out = apply(mat, values, axis)
        if out.size >= n_dofs:
            big.append(out.shape)
        return out

    for module in (basis, operators):
        monkeypatch.setattr(module, "apply_along_axis", spy)
    return big


class TestBoundaryWorkIsSizedByTheBoundary:
    """The wall datum and the wall lift contract face slices and the rows
    next to them, never an array the size of the grid."""

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("spacing, p", [("gll", 2), ("equispaced", 3)])
    @pytest.mark.parametrize("spec", ["walls", "outflow"])
    def test_wall_datum(self, dim, spacing, p, spec, monkeypatch, rng):
        mesh = tagged_box(dim, spec, (4, 3, 3)[:dim], p, spacing)
        ops = GlobalOperators(mesh)
        bd = build_boundary_data(mesh)
        u = VectorField(mesh, rng.standard_normal((dim, mesh.n_dofs)))
        big = record_big_contractions(monkeypatch, mesh.n_dofs)
        flux = wall_pressure_neumann(ops, bd, u, 0.1)
        assert len(flux) == len(bd.wall_faces)
        assert big == []

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("spacing, p", [("gll", 2), ("equispaced", 3)])
    @pytest.mark.parametrize("a, b, pinned", [
        (1.0, 0.05, BoundaryTag.DIRICHLET_WALL), (0.0, 1.0, BoundaryTag.OUTFLOW)],
        ids=["viscous", "pressure"])
    def test_lift_adds_no_grid_sized_contraction(self, dim, spacing, p, a, b,
                                                 pinned, monkeypatch, rng):
        # The solve's own 2 d contractions act on the free sub-grid; lifting
        # values in adds none of n_dofs entries or more.
        mesh = tagged_box(dim, "outflow", (4, 3, 3)[:dim], p, spacing)
        ops = GlobalOperators(mesh)
        rhs = rng.standard_normal((dim, mesh.n_dofs))
        values = rng.standard_normal((dim, mesh.n_dofs))
        big = record_big_contractions(monkeypatch, mesh.n_dofs)
        counts = []
        for vals in (None, values):
            big.clear()
            ops.solve_helmholtz(rhs, a, b, pinned, vals)
            counts.append(len(big))
        assert counts[1] == counts[0] <= 2 * dim


class TestPoissonBoundaryTerm:
    def test_zero_flux(self):
        mesh = walled_mesh(2, 3, 2)
        ops = GlobalOperators(mesh)
        bd = build_boundary_data(mesh)
        flux = {f.name: np.zeros(f.dof_ids.size) for f in bd.wall_faces}
        out = poisson_boundary_term(ops, bd, flux)
        assert np.max(np.abs(out.values)) == 0.0

    def test_constant_flux_integrates_to_area(self):
        mesh = walled_mesh(3, 3, 2, length=2.0)
        ops = GlobalOperators(mesh)
        bd = build_boundary_data(mesh)
        g = 1.7
        face = mesh.boundary_faces["x_min"]
        flux = {face.name: np.full(face.dof_ids.size, g)}
        out = poisson_boundary_term(ops, bd, flux)
        area = 4.0  # 2x2 face
        assert abs(out.values.sum() - g * area) < 1e-12 * area
        interior = np.ones(mesh.n_dofs, dtype=bool)
        for f in mesh.boundary_faces.values():
            interior[f.dof_ids] = False
        assert np.max(np.abs(out.values[interior])) == 0.0

    def test_sin_flux_surface_integral(self):
        # flux = sin(y) on the x=0 face of [0, pi]^2 integrates to 2.
        vals = []
        for n, p in ((4, 2), (8, 2)):
            mesh = build_structured_mesh(
                2, [(0.0, np.pi)] * 2, (n, n), p, "gll", wall_tags(2)
            )
            ops = GlobalOperators(mesh)
            bd = build_boundary_data(mesh)
            face = mesh.boundary_faces["x_min"]
            flux = {face.name: np.sin(mesh.node_coords[face.dof_ids, 1])}
            out = poisson_boundary_term(ops, bd, flux)
            vals.append(out.values.sum())
        assert abs(vals[1] - 2.0) < abs(vals[0] - 2.0)
        assert abs(vals[1] - 2.0) < 2e-4


    @pytest.mark.parametrize("dim, spacing, p", [
        (2, "gll", 2), (2, "equispaced", 3), (3, "gll", 2), (3, "equispaced", 3),
    ])
    def test_exact_for_polynomial_flux(self, dim, spacing, p):
        # Flux and test field of degree <= p per axis: their product has
        # degree <= 2p, which the over-integrated rule (exact to 3p)
        # integrates exactly on every face.
        ext = [(0.5, 2.0), (-1.0, 0.5), (0.0, 1.2)][:dim]
        mesh = build_structured_mesh(dim, ext, (3, 2, 2)[:dim], p, spacing,
                                     wall_tags(dim))
        ops = GlobalOperators(mesh, mesh.basis.over_integrated())
        bd = build_boundary_data(mesh)
        P = np.polynomial.Polynomial
        rng = np.random.default_rng(3)
        phi_1d = [P(rng.standard_normal(p + 1)) for _ in range(dim)]
        g_1d = [P(rng.standard_normal(p + 1)) for _ in range(dim)]
        x = mesh.node_coords
        phi = np.prod([phi_1d[k](x[:, k]) for k in range(dim)], axis=0)
        for f in bd.wall_faces:
            g = np.prod([g_1d[k](x[f.dof_ids, k]) for k in range(dim)], axis=0)
            got = phi @ poisson_boundary_term(ops, bd, {f.name: g}).values
            want = phi_1d[f.axis](ext[f.axis][f.side]) * g_1d[f.axis](ext[f.axis][f.side])
            for k in range(dim):
                if k != f.axis:
                    prim = (phi_1d[k] * g_1d[k]).integ()
                    want *= prim(ext[k][1]) - prim(ext[k][0])
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_periodic_tangent_axis(self, dim):
        tags = wall_tags(dim)
        tags["x_min"] = tags["x_max"] = "periodic"
        ext = [(0.0, 3.0), (0.0, 1.0), (-1.0, 1.0)][:dim]
        mesh = build_structured_mesh(dim, ext, (4, 2, 3)[:dim], 3, "equispaced",
                                     tags)
        ops = GlobalOperators(mesh)
        bd = build_boundary_data(mesh)
        g = -0.6
        face = mesh.boundary_faces["y_min"]
        out = poisson_boundary_term(ops, bd, {face.name: np.full(face.dof_ids.size, g)})
        area = 3.0 * (2.0 if dim == 3 else 1.0)
        assert abs(out.values.sum() - g * area) < 1e-12 * area
        off_face = np.ones(mesh.n_dofs, dtype=bool)
        off_face[face.dof_ids] = False
        assert np.max(np.abs(out.values[off_face])) == 0.0


class TestVelocityDirichlet:
    def test_no_slip_enforced_exactly(self, rng):
        mesh = walled_mesh(2, 3, 2)
        bd = build_boundary_data(mesh)
        u = VectorField(mesh, rng.standard_normal((2, mesh.n_dofs)))
        apply_velocity_dirichlet(u, bd)
        assert np.max(np.abs(u.data[:, bd.wall_dofs])) == 0.0

    def test_inflow_profile_preserved(self, rng):
        mesh = channel_mesh(3, 2)

        def inflow(points):
            return np.stack([points[:, 1] * (1 - points[:, 1]),
                             np.zeros(points.shape[0])], axis=1)

        bd = build_boundary_data(mesh, CFG, wall_velocity=inflow)
        u = VectorField(mesh, rng.standard_normal((2, mesh.n_dofs)))
        apply_velocity_dirichlet(u, bd)
        f = mesh.boundary_faces["x_min"]
        y = mesh.node_coords[f.dof_ids, 1]
        assert np.allclose(u.data[0, f.dof_ids], y * (1 - y), atol=1e-15)
        # Re-application is idempotent across steps.
        before = u.data.copy()
        apply_velocity_dirichlet(u, bd)
        assert np.array_equal(u.data, before)

    def test_periodic_dofs_never_constrained(self, rng):
        mesh = periodic_mesh(2, 4, 1)
        bd = build_boundary_data(mesh)
        data = rng.standard_normal((2, mesh.n_dofs))
        u = VectorField(mesh, data.copy())
        apply_velocity_dirichlet(u, bd)
        assert np.array_equal(u.data, data)
        assert not bd.has_walls and not bd.has_outflow

    def test_outflow_dofs_not_velocity_constrained(self):
        mesh = channel_mesh(3, 1)
        bd = build_boundary_data(mesh, CFG)
        outlet = mesh.boundary_faces["x_max"]
        # Outlet corners belong to walls (wall velocity wins there), but the
        # outlet face interior must stay unconstrained.
        inner = np.setdiff1d(outlet.dof_ids, bd.wall_dofs)
        assert inner.size > 0
        u = VectorField(mesh, np.ones((2, mesh.n_dofs)))
        apply_velocity_dirichlet(u, bd)
        assert np.all(u.data[0, inner] == 1.0)

    def test_corner_pressure_belongs_to_outflow(self):
        mesh = channel_mesh(3, 1)
        bd = build_boundary_data(mesh, CFG)
        outlet = mesh.boundary_faces["x_max"]
        corners = np.intersect1d(outlet.dof_ids, bd.wall_dofs)
        assert corners.size > 0
        assert np.all(np.isin(corners, bd.outflow_dofs))


def test_outflow_config_validation():
    with pytest.raises(ValueError):
        OutflowConfig(U0=0.0)
    with pytest.raises(ValueError):
        OutflowConfig(beta=-1.0)


@pytest.mark.parametrize("field", ["U0", "beta"])
@pytest.mark.parametrize("value", [np.inf, np.nan, 0.0, -1.0])
def test_outflow_config_must_be_finite_and_positive(field, value):
    # An infinite U0 or beta made the backflow switch 0.5 at any u_n.
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        OutflowConfig(**{field: value})


def test_normals_are_unit():
    mesh = walled_mesh(3, 2, 1)
    for f in mesh.boundary_faces.values():
        assert abs(np.linalg.norm(f.normal) - 1.0) < 1e-14
