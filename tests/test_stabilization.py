import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpsflow.mesh import (
    build_structured_mesh,
    face_names,
    periodic_tags,
    wall_tags,
)
from lpsflow.operators import GlobalOperators, ScalarField, VectorField
from lpsflow.stabilization import (
    StabilizationConfig,
    StabilizationMode,
    low_order_term,
    lps_term,
    momentum_stabilization,
    upwind_viscosity,
)

from conftest import periodic_mesh
from oracles import DenseOracle, close_to


def sin_product_field(mesh):
    vals = np.ones(mesh.n_dofs)
    for k in range(mesh.dim):
        vals = vals * np.sin(mesh.node_coords[:, k])
    return ScalarField(mesh, vals)


def _drawn_box(dim, p, spacing, data):
    """A box of 1-3 elements per axis, each axis walled or periodic as
    drawn, and walled where a periodic axis would hold one DoF."""
    elems = data.draw(st.tuples(*[st.integers(1, 3)] * dim))
    walled = data.draw(st.tuples(*[st.booleans()] * dim))
    tags = {}
    for k in range(dim):
        periodic = not walled[k] and elems[k] * p >= 2
        for name in face_names(dim)[2 * k:2 * k + 2]:
            tags[name] = "periodic" if periodic else "wall"
    extents = [(0.0, 1.0 + 0.5 * k) for k in range(dim)]
    return build_structured_mesh(dim, extents, elems, p, spacing, tags)


class TestUpwindViscosity:
    def test_zero_velocity(self):
        mesh = periodic_mesh(2, 4, 2)
        ops = GlobalOperators(mesh)
        nu = upwind_viscosity(ops, VectorField(mesh))
        assert np.all(nu == 0.0)

    def test_direct_evaluation(self):
        # h = 0.2, p = 4, max element speed 3 -> nu = (0.05 * 3) / 2.
        mesh = build_structured_mesh(
            1, [(0.0, 0.8)], (4,), 4, "gll", wall_tags(1)
        )
        ops = GlobalOperators(mesh)
        u = VectorField(mesh, 3.0 * np.ones((1, mesh.n_dofs)))
        nu = upwind_viscosity(ops, u)
        assert np.allclose(nu, 0.075, atol=1e-15)

    def test_halves_when_order_doubles(self):
        vals = {}
        for p in (2, 4):
            mesh = periodic_mesh(2, 4, p)
            ops = GlobalOperators(mesh)
            u = VectorField(mesh, np.ones((2, mesh.n_dofs)))
            vals[p] = upwind_viscosity(ops, u)[0]
        assert abs(vals[2] - 2.0 * vals[4]) < 1e-14

    def test_speed_is_euclidean_norm(self):
        mesh = periodic_mesh(2, 2, 1)
        ops = GlobalOperators(mesh)
        u = VectorField(mesh, np.stack([3.0 * np.ones(mesh.n_dofs),
                                        4.0 * np.ones(mesh.n_dofs)]))
        nu = upwind_viscosity(ops, u)
        h = mesh.h_elem[0]
        assert np.allclose(nu, h * 5.0 / 2.0, atol=1e-14)

    @pytest.mark.parametrize("dim,elems,p,walls", [
        (1, (3,), 3, "x"), (1, (1,), 4, ""), (2, (3, 1), 2, ""),
        (2, (2, 3), 1, "y"), (3, (2, 1, 3), 4, "z"), (3, (3, 2, 2), 2, "xy"),
    ])
    def test_equals_maximum_over_element_nodes(self, dim, elems, p, walls,
                                               rng):
        tags = periodic_tags(dim)
        for axis in walls:
            tags[f"{axis}_min"] = tags[f"{axis}_max"] = "wall"
        mesh = build_structured_mesh(dim, [(0.0, 1.0 + k) for k in range(dim)],
                                     elems, p, "gll", tags)
        u = VectorField(mesh, rng.standard_normal((dim, mesh.n_dofs)))
        speed2 = np.sum(u.data**2, axis=0)
        want = (mesh.h_elem / p) * np.sqrt(
            np.max(speed2[mesh.elem_to_dofs], axis=1)) / 2.0
        assert np.array_equal(upwind_viscosity(GlobalOperators(mesh), u), want)


class TestLowOrderTerm:
    def test_constant_field_zero(self):
        mesh = periodic_mesh(2, 3, 2)
        ops = GlobalOperators(mesh)
        out = low_order_term(ops, ScalarField(mesh, np.full(mesh.n_dofs, 2.0)),
                             np.ones(mesh.n_elems))
        assert np.max(np.abs(out.values)) < 1e-13

    def test_zero_viscosity_kills_term(self, rng):
        mesh = periodic_mesh(2, 3, 2)
        ops = GlobalOperators(mesh)
        phi = ScalarField(mesh, rng.standard_normal(mesh.n_dofs))
        out = low_order_term(ops, phi, np.zeros(mesh.n_elems))
        assert np.max(np.abs(out.values)) == 0.0

    def test_1d_hat_hand_value(self):
        # Two P1 elements on [0,1]: |u| = 1 gives nu = h/2 = 1/4 per element,
        # and the hat stiffness action is {-2, 4, -2}.
        mesh = build_structured_mesh(1, [(0.0, 1.0)], (2,), 1, "gll",
                                     wall_tags(1))
        ops = GlobalOperators(mesh)
        u = VectorField(mesh, np.ones((1, mesh.n_dofs)))
        nu = upwind_viscosity(ops, u)
        assert np.allclose(nu, 0.25)
        order = np.argsort(mesh.node_coords[:, 0])
        hat = np.zeros(mesh.n_dofs)
        hat[order[1]] = 1.0
        out = low_order_term(ops, ScalarField(mesh, hat), nu)
        assert np.allclose(out.values[order], 0.25 * np.array([-2.0, 4.0, -2.0]),
                           atol=1e-13)

    def test_dissipativity(self, rng):
        mesh = periodic_mesh(2, 4, 3)
        ops = GlobalOperators(mesh)
        for _ in range(5):
            phi = rng.standard_normal(mesh.n_dofs)
            nu = rng.uniform(0.0, 1.0, mesh.n_elems)
            out = low_order_term(ops, ScalarField(mesh, phi), nu)
            assert phi @ out.values >= -1e-12

    @settings(max_examples=120)
    @given(dim=st.integers(1, 3), p=st.integers(1, 4), data=st.data())
    def test_grid_form_equals_element_form(self, dim, p, data):
        # The DoF-grid form at a collocated rule against the element
        # kernels it replaces: quad(nu_e grad w . grad phi).
        elems = data.draw(st.tuples(*[st.integers(1, 3)] * dim))
        walled = data.draw(st.tuples(*[st.booleans()] * dim))
        tags = {}
        for k in range(dim):
            periodic = not walled[k] and elems[k] * p >= 2
            for name in face_names(dim)[2 * k:2 * k + 2]:
                tags[name] = "periodic" if periodic else "wall"
        extents = [(0.0, 1.0 + 0.5 * k) for k in range(dim)]
        mesh = build_structured_mesh(dim, extents, elems, p, "gll", tags)
        ops = GlobalOperators(mesh)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        phi = ScalarField(mesh, rng.standard_normal(mesh.n_dofs))
        nu = rng.uniform(0.1, 1.0, mesh.n_elems)
        got = low_order_term(ops, phi, nu).values
        want = ops.weak_div_flux(ops.grad_at_quad(phi.values),
                                 elem_scale=nu).values
        scale = max(np.max(np.abs(want)), 1.0)
        assert np.max(np.abs(got - want)) <= 1e-12 * scale
        assert phi.values @ got >= -1e-12 * scale


class TestWeightsPerUnitViscosity:
    """``face_jumps``' R and F, which take element viscosity to the
    low-order and LPS weights per unit nu_e."""

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    @pytest.mark.parametrize("walled", [False, True], ids=["periodic", "walled"])
    def test_row_sums(self, p, walled):
        # One element on y where a periodic axis allows it: its one face
        # has the same element on either side.
        mesh = build_structured_mesh(
            3, [(0.0, 1.0), (-1.0, 0.5), (0.25, 1.0)], (3, 1 if p > 1 else 2, 2),
            p, "gll", wall_tags(3) if walled else periodic_tags(3))
        ops = GlobalOperators(mesh)
        w = ops.basis.quad_weights
        for k, (_, (jump, _), _, to_rows, to_faces) in enumerate(ops.face_jumps):
            h, n_el = mesh.h_axes[k], mesh.elems_per_axis[k]
            assert to_faces.shape == (jump.shape[0], n_el)
            assert to_faces.shape[0] == n_el - walled
            beta = 0.5 * h * w[0] * w[p] / (w[0] + w[p])
            assert close_to(to_faces @ np.ones(n_el),
                            np.full(n_el - walled, beta), rel=1e-15)
            assert close_to(to_rows @ np.ones(n_el),
                            np.tile(0.5 * h * w, n_el), rel=1e-15)


class TestLpsTerm:
    def test_cs_zero(self, rng):
        mesh = periodic_mesh(2, 3, 2)
        ops = GlobalOperators(mesh)
        phi = ScalarField(mesh, rng.standard_normal(mesh.n_dofs))
        out = lps_term(ops, phi, np.ones(mesh.n_elems), 0.0)
        assert np.max(np.abs(out.values)) == 0.0

    def test_single_element_nodal_identity(self, rng):
        # On a one-element mesh the lumped projection is exactly nodal, so
        # the projection difference (and with it the whole term) vanishes.
        mesh = build_structured_mesh(2, [(0.0, 1.0)] * 2, (1, 1), 3, "gll",
                                     wall_tags(2))
        ops = GlobalOperators(mesh)
        phi = ScalarField(mesh, rng.standard_normal(mesh.n_dofs))
        out = lps_term(ops, phi, np.ones(mesh.n_elems), 1.0)
        assert np.max(np.abs(out.values)) < 1e-12

    def test_norm_decreases_with_order_fixed_dofs(self):
        norms = []
        for p in (1, 2, 4):
            n = 16 // p
            mesh = periodic_mesh(2, n, p)
            ops = GlobalOperators(mesh)
            phi = sin_product_field(mesh)
            nu = np.full(mesh.n_elems, 1.0)
            out = lps_term(ops, phi, nu, 1.0)
            norms.append(np.linalg.norm(out.values))
        assert norms[0] > norms[1] > norms[2]

    def test_linear_in_cs(self, rng):
        mesh = periodic_mesh(2, 3, 2)
        ops = GlobalOperators(mesh)
        phi = ScalarField(mesh, rng.standard_normal(mesh.n_dofs))
        nu = rng.uniform(0.1, 1.0, mesh.n_elems)
        full = lps_term(ops, phi, nu, 1.0).values
        half = lps_term(ops, phi, nu, 0.5).values
        assert np.allclose(half, 0.5 * full, atol=1e-14)

    def test_against_dense_oracle(self, rng):
        # Collocated meshes, which take the face form: 2D periodic P2, 1D
        # walled P3, a one-element periodic axis, mixed wall, periodic and
        # outflow axes with a different h on each, and 3D periodic P4 (3D
        # P8 is in test_element_kernels, on that module's shared oracle).
        mixed = {"x_min": "periodic", "x_max": "periodic", "y_min": "wall",
                 "y_max": "wall", "z_min": "outflow", "z_max": "outflow"}
        meshes = [
            periodic_mesh(2, 3, 2),
            build_structured_mesh(1, [(0.0, 1.0)], (3,), 3, "gll",
                                  wall_tags(1)),
            build_structured_mesh(2, [(0.0, 1.0), (0.0, 2.0)], (1, 3), 3,
                                  "gll", periodic_tags(2)),
            build_structured_mesh(3, [(0.0, 1.0), (-1.0, 0.5), (0.25, 1.0)],
                                  (3, 2, 2), 3, "gll", mixed),
            periodic_mesh(3, 2, 4),
        ]
        for mesh in meshes:
            ops = GlobalOperators(mesh)
            dense = DenseOracle(mesh)
            phi = rng.standard_normal(mesh.n_dofs)
            nu = rng.uniform(0.1, 1.0, mesh.n_elems)
            got = lps_term(ops, ScalarField(mesh, phi.copy()), nu, 0.7).values
            want = dense.lps(phi, nu, 0.7)
            assert close_to(got, want), mesh

    @settings(max_examples=120)
    @given(dim=st.integers(1, 3), p=st.integers(1, 4), data=st.data())
    def test_face_form_equals_element_form(self, dim, p, data):
        # The face form at a collocated rule against the symmetric form at
        # the quadrature points: psi . s(phi) = -c_s sum_k sum_e nu_e
        # (f_k(psi), f_k(phi))_e, with f_k = g_h,k - d/dx_k.
        mesh = _drawn_box(dim, p, "gll", data)
        ops = GlobalOperators(mesh)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        phi, psi = rng.standard_normal((2, mesh.n_dofs))
        nu = rng.uniform(0.1, 1.0, mesh.n_elems)
        got = lps_term(ops, ScalarField(mesh, phi), nu, 0.7).values

        def diff(v):
            g = ops.project_gradient(ScalarField(mesh, v)).data
            return [ops.interp_to_quad(g_k) - grad_q
                    for g_k, grad_q in zip(g, ops.grad_at_quad(v))]

        want = -0.7 * sum(ops.integrate(nu[:, None] * a * b)
                          for a, b in zip(diff(psi), diff(phi)))
        assert abs(psi @ got - want) <= 1e-12 * max(np.abs(psi) @ np.abs(got),
                                                    1.0)
        assert phi @ got <= 1e-12 * max(np.abs(phi) @ np.abs(got), 1.0)

    @settings(max_examples=120)
    @given(dim=st.integers(1, 3), rule=st.sampled_from(
        ["gll", "equispaced", "over-integrated"]), data=st.data())
    def test_dissipative_for_any_viscosity(self, dim, rule, data):
        # phi . s <= 0 with an element viscosity that varies between
        # elements: collocated GLL p 1-4, equispaced P3 (off the nodes) and
        # an over-integrated rule, with walls and one-element axes.
        p = 3 if rule == "equispaced" else data.draw(st.integers(1, 4))
        mesh = _drawn_box(dim, p, "equispaced" if rule == "equispaced"
                          else "gll", data)
        basis = (mesh.basis.over_integrated() if rule == "over-integrated"
                 else None)
        ops = GlobalOperators(mesh, basis)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        phi = rng.standard_normal(mesh.n_dofs)
        nu = rng.uniform(0.1, 1.0, mesh.n_elems)
        psi = rng.standard_normal(mesh.n_dofs)
        got = lps_term(ops, ScalarField(mesh, phi), nu, 1.0).values
        assert phi @ got <= 1e-12 * max(np.abs(phi) @ np.abs(got), 1.0)
        # The symmetric form, which off collocation checks P_k^T:
        # psi . s(phi) = -sum_k sum_e nu_e (f_k(psi), f_k(phi))_e, with
        # f_k = g_h,k - d/dx_k at the quadrature points.

        def diff(v):
            g = ops.project_gradient(ScalarField(mesh, v)).data
            return [ops.interp_to_quad(g_k) - grad_q
                    for g_k, grad_q in zip(g, ops.grad_at_quad(v))]

        want = -sum(ops.integrate(nu[:, None] * a * b)
                    for a, b in zip(diff(psi), diff(phi)))
        assert abs(psi @ got - want) <= 1e-12 * max(np.abs(psi) @ np.abs(got),
                                                    1.0)

    @pytest.mark.parametrize("dim,elems,p,spacing,over,walls", [
        (2, (3, 2), 3, "equispaced", False, ("x", "y")),
        (2, (3, 2), 2, "gll", True, ()),
        (3, (2, 3, 2), 2, "gll", False, ("y",)),
        (3, (2, 2, 2), 4, "equispaced", False, ()),
    ])
    def test_against_dense_oracle_off_collocation(self, dim, elems, p, spacing,
                                                  over, walls, rng):
        # Quadrature points off the nodes (equispaced p >= 3, an
        # over-integrated rule), 3D, and wall faces, where g_h is one-sided.
        tags = periodic_tags(dim)
        for axis in walls:
            tags[f"{axis}_min"] = tags[f"{axis}_max"] = "wall"
        mesh = build_structured_mesh(dim, [(0.0, 1.0), (-1.0, 0.5),
                                           (0.25, 1.0)][:dim],
                                     elems, p, spacing, tags)
        basis = mesh.basis.over_integrated() if over else None
        ops = GlobalOperators(mesh, basis)
        dense = DenseOracle(mesh, basis)
        phi = rng.standard_normal(mesh.n_dofs)
        nu = rng.uniform(0.1, 1.0, mesh.n_elems)
        got = lps_term(ops, ScalarField(mesh, phi.copy()), nu, 0.7).values
        want = dense.lps(phi, nu, 0.7)
        tol = 1e-12 * max(np.max(np.abs(want)), 1.0)
        assert np.max(np.abs(got - want)) <= tol

    @pytest.mark.parametrize("p,rate", [(1, 2), (2, 2), (3, 3)])
    def test_projection_recovery_order(self, p, rate):
        # Rate of g_h(I_h phi) against the exact gradient. Shared nodes are
        # averaged (superconvergent), but for p >= 2 the interior nodes carry
        # the interpolant's O(h^p) one-sided error, so the rate is max(2, p).
        meshes = [16, 32] if p == 1 else [8, 16]
        errs = []
        for n in meshes:
            mesh = periodic_mesh(2, n, p)
            ops = GlobalOperators(mesh)
            oi = GlobalOperators(mesh, mesh.basis.over_integrated())
            phi = sin_product_field(mesh)
            g = ops.project_gradient(phi)
            x, y = mesh.node_coords[:, 0], mesh.node_coords[:, 1]
            exact = np.cos(x) * np.sin(y)
            d = g.data[0] - exact
            errs.append(np.sqrt(oi.integrate(oi.interp_to_quad(d) ** 2)))
        slope = np.log2(errs[0] / errs[1])
        assert abs(slope - rate) <= 0.3

    @pytest.mark.parametrize("p,rate", [(1, 1), (2, 3), (3, 3)])
    def test_projection_difference_order(self, p, rate):
        # Rate of g_h(I_h phi) - grad(I_h phi) in L2. The difference is
        # controlled by the inter-element jumps of the discrete gradient,
        # whose one-sided errors cancel only for even p: rate p + (p even).
        meshes = [16, 32] if p == 1 else [8, 16]
        errs = []
        for n in meshes:
            mesh = periodic_mesh(2, n, p)
            ops = GlobalOperators(mesh)
            oi = GlobalOperators(mesh, mesh.basis.over_integrated())
            phi = sin_product_field(mesh)
            g = ops.project_gradient(phi)
            gq = oi.interp_to_quad(g.data[0])
            dq = oi.grad_at_quad(phi.values)[0]
            errs.append(np.sqrt(oi.integrate((gq - dq) ** 2)))
        slope = np.log2(errs[0] / errs[1])
        assert abs(slope - rate) <= 0.3


class TestMomentumStabilization:
    def test_uniform_velocity_all_modes(self):
        mesh = periodic_mesh(2, 4, 2)
        ops = GlobalOperators(mesh)
        u = VectorField(mesh, np.stack([np.full(mesh.n_dofs, 2.0),
                                        np.full(mesh.n_dofs, 1.0)]))
        for mode in StabilizationMode:
            cfg = StabilizationConfig(mode=mode, c_s=1.0)
            s = momentum_stabilization(ops, u, cfg)
            assert np.max(np.abs(s.data)) < 1e-12

    def test_shear_layer_matches_dense_oracle(self):
        from lpsflow.cases import init_shear_layer

        mesh = periodic_mesh(2, 8, 1)
        ops = GlobalOperators(mesh)
        u = init_shear_layer(mesh)
        cfg = StabilizationConfig(mode="lps", c_s=1.0)
        s = momentum_stabilization(ops, u, cfg)
        dense = DenseOracle(mesh)
        want = dense.momentum_stabilization(u.data, "lps", 1.0)
        assert close_to(s.data, want)

    def test_3d_matches_dense_oracle(self, rng):
        # Walls on y and outflow on z, a different h on every axis.
        tags = periodic_tags(3)
        tags.update(y_min="wall", y_max="wall", z_min="outflow",
                    z_max="outflow")
        mesh = build_structured_mesh(3, [(0.0, 1.0), (-1.0, 0.5),
                                         (0.25, 1.0)], (2, 3, 2), 2, "gll",
                                     tags)
        ops = GlobalOperators(mesh)
        u = VectorField(mesh, rng.standard_normal((3, mesh.n_dofs)))
        s = momentum_stabilization(ops, u, StabilizationConfig("lps", 0.6))
        want = DenseOracle(mesh).momentum_stabilization(u.data, "lps", 0.6)
        assert close_to(s.data, want)

    @pytest.mark.parametrize("mode", ["upwind", "lps"])
    @pytest.mark.parametrize("dim,n,p", [(2, 6, 1), (3, 2, 4)])
    def test_collocated_lps_runs_no_element_kernel(self, dim, n, p, mode,
                                                   monkeypatch):
        # At a collocated rule both stabilizations are forms on the DoF
        # grid: no gather, no scatter, no element derivative and no
        # projected gradient.
        def refuse(*args, **kwargs):
            raise AssertionError("element kernel called")

        for name in ("_gather", "_scatter", "_deriv", "project_gradient"):
            monkeypatch.setattr(GlobalOperators, name, refuse)
        mesh = periodic_mesh(dim, n, p)
        ops = GlobalOperators(mesh)
        x = mesh.node_coords
        u = VectorField(mesh, np.stack([np.sin(x[:, (k + 1) % dim])
                                        for k in range(dim)]))
        s = momentum_stabilization(ops, u, StabilizationConfig(mode, 1.0))
        assert np.sum(u.data * s.data) < 0.0

    def test_shear_layer_support_near_layers(self):
        from lpsflow.cases import init_shear_layer

        mesh = periodic_mesh(2, 16, 1)
        ops = GlobalOperators(mesh)
        u = init_shear_layer(mesh)
        s = momentum_stabilization(ops, u, StabilizationConfig("lps", 1.0))
        # The projection mismatch of the u-component lives where the tanh
        # layers bend; a few elements away the profile is flat to ~1e-5.
        y = mesh.node_coords[:, 1]
        far = np.abs(np.abs(y - np.pi) - np.pi / 2.0) > 1.2
        assert np.max(np.abs(s.data[0, far])) < 5e-3 * np.max(np.abs(s.data[0]))

    def test_low_order_mode_is_dissipative_rhs(self, rng):
        mesh = periodic_mesh(2, 4, 2)
        ops = GlobalOperators(mesh)
        u = VectorField(mesh, rng.standard_normal((2, mesh.n_dofs)))
        s = momentum_stabilization(
            ops, u, StabilizationConfig(mode="upwind", c_s=1.0)
        )
        assert float(np.sum(u.data * s.data)) <= 0.0

    def test_lps_mode_is_dissipative_rhs(self, rng):
        mesh = periodic_mesh(2, 4, 2)
        ops = GlobalOperators(mesh)
        for _ in range(5):
            u = VectorField(mesh, rng.standard_normal((2, mesh.n_dofs)))
            s = momentum_stabilization(
                ops, u, StabilizationConfig(mode="lps", c_s=1.0)
            )
            assert float(np.sum(u.data * s.data)) <= 1e-12

    def test_lps_smaller_than_low_order_smooth_p2(self):
        mesh = periodic_mesh(2, 8, 2)
        ops = GlobalOperators(mesh)
        x, y = mesh.node_coords[:, 0], mesh.node_coords[:, 1]
        u = VectorField(mesh, np.stack([np.sin(x) * np.cos(y),
                                        -np.cos(x) * np.sin(y)]))
        lps = momentum_stabilization(ops, u, StabilizationConfig("lps", 1.0))
        low = momentum_stabilization(ops, u, StabilizationConfig("upwind", 1.0))

        def lumped_norm(s):
            return float(np.sum(s.data**2 / ops.lumped_mass))

        assert lumped_norm(lps) <= lumped_norm(low)

    def test_one_homogeneous_velocity_scaling(self):
        # Scaling u by a > 0 scales the element viscosity by a, hence the
        # term by a^2 (one extra power from phi = u_k itself).
        mesh = periodic_mesh(2, 4, 2)
        ops = GlobalOperators(mesh)
        x, y = mesh.node_coords[:, 0], mesh.node_coords[:, 1]
        u1 = VectorField(mesh, np.stack([np.sin(x), np.cos(y)]))
        u2 = VectorField(mesh, 2.0 * u1.data)
        s1 = momentum_stabilization(ops, u1, StabilizationConfig("lps", 1.0))
        s2 = momentum_stabilization(ops, u2, StabilizationConfig("lps", 1.0))
        assert np.allclose(s2.data, 4.0 * s1.data, atol=1e-12)


class TestConservation:
    @pytest.mark.parametrize("mode", ["upwind", "lps"])
    def test_zero_mean_forcing_on_periodic_mesh(self, mode, rng):
        mesh = periodic_mesh(2, 4, 3)
        ops = GlobalOperators(mesh)
        phi = rng.standard_normal(mesh.n_dofs)
        nu = rng.uniform(0.1, 1.0, mesh.n_elems)
        if mode == "upwind":
            out = low_order_term(ops, ScalarField(mesh, phi), nu)
        else:
            out = lps_term(ops, ScalarField(mesh, phi), nu, 1.0)
        assert abs(out.values.sum()) < 1e-12 * np.linalg.norm(phi)


def test_config_validation():
    with pytest.raises(ValueError):
        StabilizationConfig(mode="lps", c_s=1.5)
    with pytest.raises(ValueError):
        StabilizationConfig(mode="nonsense")
    cfg = StabilizationConfig(mode="upwind", c_s=0.3)
    assert cfg.mode is StabilizationMode.LOW_ORDER_UPWIND
