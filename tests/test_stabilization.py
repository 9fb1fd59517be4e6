import numpy as np
import pytest

from lpsflow.mesh import build_structured_mesh, periodic_tags, wall_tags
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
from oracles import DenseOracle


def sin_product_field(mesh):
    vals = np.ones(mesh.n_dofs)
    for k in range(mesh.dim):
        vals = vals * np.sin(mesh.node_coords[:, k])
    return ScalarField(mesh, vals)


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
        mesh = periodic_mesh(2, 3, 2)
        ops = GlobalOperators(mesh)
        dense = DenseOracle(mesh)
        phi = rng.standard_normal(mesh.n_dofs)
        nu = rng.uniform(0.1, 1.0, mesh.n_elems)
        got = lps_term(ops, ScalarField(mesh, phi.copy()), nu, 0.7).values
        want = dense.lps(phi, nu, 0.7)
        assert np.allclose(got, want, atol=1e-12)

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
        assert np.allclose(s.data, want, atol=1e-12)

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
