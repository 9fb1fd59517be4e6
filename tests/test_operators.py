import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpsflow import basis, operators, stabilization
from lpsflow.boundary import build_boundary_data
from lpsflow.mesh import build_structured_mesh, face_names, periodic_tags, wall_tags
from lpsflow.operators import (
    ConvectiveForm,
    FieldError,
    GlobalOperators,
    ScalarField,
    VectorField,
)
from lpsflow.stabilization import StabilizationConfig
from lpsflow.stepper import PhysicalParams, Stepper, TimeScheme

from conftest import TWO_PI, periodic_mesh, walled_mesh
from oracles import DenseOracle, close_to


def unit_interval_mesh(n, p, spacing="gll"):
    return build_structured_mesh(
        1, [(0.0, 1.0)], (n,), p, spacing, wall_tags(1)
    )


class TestLumpedMass:
    def test_single_p1_element(self):
        ops = GlobalOperators(unit_interval_mesh(1, 1))
        assert np.allclose(ops.lumped_mass, [0.5, 0.5], atol=1e-15)

    def test_single_p2_gll_element(self):
        ops = GlobalOperators(unit_interval_mesh(1, 2))
        assert np.allclose(
            ops.lumped_mass, [1.0 / 6.0, 4.0 / 6.0, 1.0 / 6.0], atol=1e-15
        )

    @pytest.mark.parametrize(
        "mesh",
        [periodic_mesh(2, 5, 3), walled_mesh(3, 2, 2), periodic_mesh(1, 7, 4)],
        ids=["2d-periodic", "3d-walls", "1d-periodic"],
    )
    def test_partition_of_unity(self, mesh):
        diag = GlobalOperators(mesh).lumped_mass
        assert abs(diag.sum() - mesh.domain_volume) < 1e-12 * mesh.domain_volume
        assert np.all(diag > 0)

    def test_equispaced_rowsum_matches_consistent(self):
        mesh = unit_interval_mesh(2, 3, spacing="equispaced")
        ops = GlobalOperators(mesh)
        dense = DenseOracle(mesh)
        assert np.allclose(ops.lumped_mass, dense.mass.sum(axis=1), atol=1e-14)

    def test_high_order_equispaced_lumping_fails(self):
        # Row sums are the closed Newton-Cotes weights, negative for p = 8.
        mesh = unit_interval_mesh(1, 8, spacing="equispaced")
        with pytest.raises(FieldError):
            GlobalOperators(mesh)


class TestWeakDivergenceGradient:
    def test_constant_velocity_divergence_free(self):
        mesh = periodic_mesh(2, 4, 2)
        ops = GlobalOperators(mesh)
        u = VectorField(mesh, np.stack([np.full(mesh.n_dofs, 2.0),
                                        np.full(mesh.n_dofs, -1.0)]))
        assert np.max(np.abs(ops.weak_divergence(u).values)) < 1e-13

    def test_rotation_field_divergence_free(self):
        mesh = walled_mesh(2, 4, 3)
        ops = GlobalOperators(mesh)
        x, y = mesh.node_coords[:, 0], mesh.node_coords[:, 1]
        u = VectorField(mesh, np.stack([y, -x]))
        assert np.max(np.abs(ops.weak_divergence(u).values)) < 1e-12

    def test_linear_pressure_gradient_interior(self):
        mesh = walled_mesh(2, 4, 2)
        ops = GlobalOperators(mesh)
        p = ScalarField(mesh, mesh.node_coords[:, 0].copy())
        g = ops.weak_gradient(p)
        interior = np.ones(mesh.n_dofs, dtype=bool)
        for f in mesh.boundary_faces.values():
            interior[f.dof_ids] = False
        assert np.allclose(
            g.data[0, interior], ops.lumped_mass[interior], atol=1e-13
        )
        assert np.max(np.abs(g.data[1, interior])) < 1e-13

    @pytest.mark.parametrize(
        "mesh,over",
        [(periodic_mesh(2, 3, 1), False), (walled_mesh(2, 2, 2), False),
         (periodic_mesh(3, 2, 2), False),
         (walled_mesh(1, 4, 3, length=2.0), False),
         (walled_mesh(2, 2, 3, spacing="equispaced"), False),
         (build_structured_mesh(
             3, [(0.0, 1.0)] * 3, (2, 1, 2), 4, "equispaced",
             {"x_min": "periodic", "x_max": "periodic", "y_min": "wall",
              "y_max": "wall", "z_min": "periodic", "z_max": "periodic"}),
          False),
         (periodic_mesh(2, (2, 1), 8), False),
         (walled_mesh(2, 2, 2), True)],
        ids=["2d-p1", "2d-p2-walls", "3d-p2", "1d-p3",
             "2d-equi-p3-walls", "3d-equi-p4-ywalls", "2d-p8-one-elem-axis",
             "2d-p2-over-integrated"],
    )
    def test_against_dense_oracle(self, mesh, over, rng):
        basis = mesh.basis.over_integrated() if over else None
        ops = GlobalOperators(mesh, basis)
        dense = DenseOracle(mesh, basis)
        vdata = rng.standard_normal((mesh.dim, mesh.n_dofs))
        pvals = rng.standard_normal(mesh.n_dofs)
        u = VectorField(mesh, vdata.copy())
        p = ScalarField(mesh, pvals.copy())
        assert np.allclose(
            ops.weak_divergence(u).values, dense.weak_divergence(vdata),
            atol=1e-12,
        )
        assert np.allclose(
            ops.weak_gradient(p).data, dense.weak_gradient(pvals), atol=1e-12
        )
        assert np.allclose(
            ops.weak_laplacian(p).values, dense.laplacian(pvals), atol=1e-11
        )
        assert np.allclose(ops.lumped_mass, dense.lumped, atol=1e-12)
        if mesh.dim >= 2:
            want = dense.curl(vdata)
            err = np.max(np.abs(ops.curl(u).data - want))
            assert err <= 1e-12 * np.max(np.abs(want))


class TestProjectGradient:
    def test_constant_is_zero(self):
        mesh = periodic_mesh(2, 3, 2)
        ops = GlobalOperators(mesh)
        g = ops.project_gradient(ScalarField(mesh, np.full(mesh.n_dofs, 3.3)))
        assert np.max(np.abs(g.data)) < 1e-13

    def test_single_element_collocation_is_nodal(self):
        # One p=2 element on [-1, 1]: phi = xi^2 projects to the exact nodal
        # derivative because collocation collapses the quadrature sum.
        mesh = build_structured_mesh(
            1, [(-1.0, 1.0)], (1,), 2, "gll", wall_tags(1)
        )
        ops = GlobalOperators(mesh)
        xi = mesh.node_coords[:, 0]
        g = ops.project_gradient(ScalarField(mesh, xi**2))
        assert np.allclose(g.data[0], 2 * xi, atol=1e-14)

    def test_sin_convergence_second_order_p1(self):
        errs = []
        for n in (60, 120):
            mesh = periodic_mesh(1, n, 1)
            ops = GlobalOperators(mesh)
            x = mesh.node_coords[:, 0]
            g = ops.project_gradient(ScalarField(mesh, np.sin(x)))
            errs.append(np.max(np.abs(g.data[0] - np.cos(x))))
        ratio = errs[0] / errs[1]
        assert 3.4 < ratio < 4.6  # halving h quarters the error

    def test_interior_nodes_match_elementwise_gradient(self, rng):
        # Collocated projection equals the element-local discrete gradient at
        # all element-interior DoFs, to machine precision.
        mesh = periodic_mesh(2, 3, 3)
        ops = GlobalOperators(mesh)
        phi = rng.standard_normal(mesh.n_dofs)
        g = ops.project_gradient(ScalarField(mesh, phi))
        grads = ops.grad_at_quad(phi)  # collocated: quad points are nodes
        m = mesh.order + 1
        scale = np.max(np.abs(grads[0]))
        local = mesh.elem_to_dofs.reshape(mesh.n_elems, m, m)
        for k in range(2):
            gk = g.data[k].copy()
            qk = grads[k].reshape(mesh.n_elems, m, m)
            inner = local[:, 1:-1, 1:-1].ravel()
            diff = np.abs(gk[inner] - qk[:, 1:-1, 1:-1].ravel())
            assert np.max(diff) < 1e-13 * max(scale, 1.0)


def _band(row):
    """First to last nonzero entry of ``row``, as a slice."""
    nz = np.flatnonzero(row)
    return slice(nz[0], nz[-1] + 1)


class TestPartialNear:
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("spacing, p, over", [
        ("gll", 1, False), ("gll", 4, False), ("equispaced", 3, False),
        ("gll", 2, True)], ids=["gll1", "gll4", "equi3", "gll2-over"])
    def test_equals_projected_partial_cut_to_rows(self, dim, spacing, p,
                                                  over, rng):
        # Walls on y, outflow on x (2D) or z (3D), periodic x in 3D. Rows:
        # the face row at either end of every axis and the element band M1
        # couples to it; the face row also from values cut to the band its
        # factor on the axis reads, G1's row for k = axis and M1's (the face
        # row itself at a collocated rule) otherwise.
        tags = periodic_tags(dim)
        tags.update(y_min="wall", y_max="wall")
        out = "x" if dim == 2 else "z"
        tags.update({f"{out}_min": "outflow", f"{out}_max": "outflow"})
        mesh = build_structured_mesh(
            dim, [(0.0, 1.0), (-1.0, 0.5), (0.25, 1.0)][:dim],
            (3, 2, 2)[:dim], p, spacing, tags)
        ops = GlobalOperators(
            mesh, mesh.basis.over_integrated() if over else None)
        values = rng.standard_normal(mesh.n_dofs)
        grid = mesh.dofs_per_axis[::-1]
        for k in range(dim):
            want = ops.projected_partial(values, k).reshape(grid)
            for axis in range(dim):
                j = dim - 1 - axis

                def cut(a, rows):
                    return a[(slice(None),) * j + (rows,)]

                for i in (0, grid[j] - 1):
                    m1, g1 = (m[i] for m in ops.axis_matrices[axis][1:3])
                    face = slice(i, i + 1)
                    for rows in (face, _band(m1)):
                        got = ops.partial_near(values, k, axis, rows)
                        assert close_to(got, cut(want, rows), rel=1e-13)
                    band = _band(g1 if k == axis else m1)
                    got = ops.partial_near(cut(values.reshape(grid), band),
                                           k, axis, face)
                    assert close_to(got, cut(want, face), rel=1e-13)

    def test_cut_narrower_than_its_band_raises(self, rng):
        # The x-partial of the x = 0 face row reads G1's row there, p + 1
        # columns wide; values cut one row short of it are refused, not
        # read off by one.
        mesh = walled_mesh(2, 3, 3, "equispaced")
        ops = GlobalOperators(mesh)
        grid = rng.standard_normal(mesh.dofs_per_axis[::-1])
        band = _band(ops.axis_matrices[0][2][0])
        assert band == slice(0, 4)
        with pytest.raises(ValueError):
            ops.partial_near(grid[:, :3], 0, 0, slice(0, 1))


class TestWeakLaplacian:
    def test_constant_annihilated(self):
        ops = GlobalOperators(periodic_mesh(2, 3, 2))
        out = ops.weak_laplacian(
            ScalarField(ops.mesh, np.full(ops.mesh.n_dofs, 5.0))
        )
        assert np.max(np.abs(out.values)) < 1e-13

    def test_hat_function_hand_assembly(self):
        # Two P1 elements on [0,1], h=1/2: K acting on the middle hat.
        mesh = unit_interval_mesh(2, 1)
        ops = GlobalOperators(mesh)
        order = np.argsort(mesh.node_coords[:, 0])
        hat = np.zeros(mesh.n_dofs)
        hat[order[1]] = 1.0
        out = ops.weak_laplacian(ScalarField(mesh, hat)).values
        assert np.allclose(out[order], [-2.0, 4.0, -2.0], atol=1e-13)

    def test_linear_field_harmonic_interior(self):
        mesh = walled_mesh(2, 3, 2)
        ops = GlobalOperators(mesh)
        out = ops.weak_laplacian(
            ScalarField(mesh, mesh.node_coords[:, 0].copy())
        ).values
        interior = np.ones(mesh.n_dofs, dtype=bool)
        for f in mesh.boundary_faces.values():
            interior[f.dof_ids] = False
        assert np.max(np.abs(out[interior])) < 1e-13

    def test_symmetry(self, rng):
        mesh = periodic_mesh(2, 4, 3)
        ops = GlobalOperators(mesh)
        a = rng.standard_normal(mesh.n_dofs)
        b = rng.standard_normal(mesh.n_dofs)
        ka = ops.weak_laplacian(ScalarField(mesh, a)).values
        kb = ops.weak_laplacian(ScalarField(mesh, b)).values
        lhs, rhs = b @ ka, a @ kb
        assert abs(lhs - rhs) < 1e-12 * max(abs(lhs), 1.0)


class TestLinearity:
    @pytest.mark.parametrize("op", ["divergence", "gradient", "laplacian", "curl"])
    def test_superposition(self, op, rng):
        mesh = periodic_mesh(2, 3, 2)
        ops = GlobalOperators(mesh)
        if op in ("divergence", "curl"):
            a = rng.standard_normal((2, mesh.n_dofs))
            b = rng.standard_normal((2, mesh.n_dofs))
            fn = ops.weak_divergence if op == "divergence" else ops.curl
            out_ab = fn(VectorField(mesh, a + 2.0 * b))
            out_a = fn(VectorField(mesh, a))
            out_b = fn(VectorField(mesh, b))
            combo = (out_a.values + 2 * out_b.values if op == "divergence"
                     else out_a.data + 2 * out_b.data)
            got = out_ab.values if op == "divergence" else out_ab.data
        else:
            a = rng.standard_normal(mesh.n_dofs)
            b = rng.standard_normal(mesh.n_dofs)
            fn = ops.weak_gradient if op == "gradient" else ops.weak_laplacian
            out_ab = fn(ScalarField(mesh, a + 2.0 * b))
            out_a, out_b = fn(ScalarField(mesh, a)), fn(ScalarField(mesh, b))
            if op == "gradient":
                combo, got = out_a.data + 2 * out_b.data, out_ab.data
            else:
                combo, got = out_a.values + 2 * out_b.values, out_ab.values
        scale = np.max(np.abs(combo))
        assert np.max(np.abs(got - combo)) < 1e-13 * max(scale, 1.0)


class TestConvective:
    def test_uniform_velocity_all_forms_zero(self):
        mesh = periodic_mesh(2, 4, 2)
        ops = GlobalOperators(mesh)
        u = VectorField(mesh, np.stack([np.full(mesh.n_dofs, 1.5),
                                        np.full(mesh.n_dofs, -0.5)]))
        for form in ConvectiveForm:
            out = ops.convective_term(u, form)
            assert np.max(np.abs(out.data)) < 1e-13

    def test_shear_field_forms_agree(self):
        # u = (y, 0) has pointwise-zero discrete divergence, so the
        # conservative and advective residuals coincide.
        mesh = periodic_mesh(2, 4, 2)
        ops = GlobalOperators(mesh)
        u = VectorField(mesh, np.stack([mesh.node_coords[:, 1].copy(),
                                        np.zeros(mesh.n_dofs)]))
        cons = ops.convective_term(u, "conservative").data
        adv = ops.convective_term(u, "nonconservative").data
        assert np.max(np.abs(cons - adv)) < 1e-12 * np.max(np.abs(adv) + 1)

    def test_divfree_field_forms_agree_under_refinement(self):
        diffs = []
        for n in (8, 16):
            mesh = periodic_mesh(2, n, 2)
            ops = GlobalOperators(mesh)
            x, y = mesh.node_coords[:, 0], mesh.node_coords[:, 1]
            u = VectorField(mesh, np.stack([np.sin(x) * np.cos(y),
                                            -np.cos(x) * np.sin(y)]))
            cons = ops.convective_term(u, "conservative").data
            adv = ops.convective_term(u, "nonconservative").data
            diffs.append(np.max(np.abs(cons - adv) / ops.lumped_mass))
        assert diffs[1] < diffs[0] / 2.5  # at least O(h^p) decay, p = 2

    def test_skew_form_discrete_antisymmetry(self):
        # With exact integration the skew residual satisfies u . C(u) = 0.
        mesh = periodic_mesh(2, 4, 3)
        ops = GlobalOperators(mesh, mesh.basis.over_integrated())
        x, y = mesh.node_coords[:, 0], mesh.node_coords[:, 1]
        u = VectorField(mesh, np.stack([np.sin(x) * np.cos(2 * y) + 0.3,
                                        np.cos(x) * np.sin(y)]))
        resid = ops.convective_term(u, "skew").data
        unorm = np.sqrt(float(np.sum(ops.lumped_mass * np.sum(u.data**2, 0))))
        assert abs(float(np.sum(u.data * resid))) < 1e-11 * unorm**3

    @pytest.mark.parametrize("mesh_args", [(2, 3, 2, "gll"), (3, 2, 4, "gll"),
                                           (2, 3, 3, "equispaced")])
    @pytest.mark.parametrize("form", ["conservative", "nonconservative", "skew"])
    def test_project_convection_is_lumped_inverse(self, mesh_args, form, rng):
        mesh = periodic_mesh(*mesh_args[:3], spacing=mesh_args[3])
        ops = GlobalOperators(mesh)
        u = VectorField(mesh, rng.standard_normal((mesh.dim, mesh.n_dofs)))
        want = ops.convective_term(u, form).data / ops.lumped_mass
        got = ops.project_convection(u, form).data
        assert np.allclose(got, want, rtol=0, atol=1e-13 * np.max(np.abs(want)))

    @pytest.mark.parametrize("form", ["conservative", "nonconservative", "skew"])
    def test_against_dense_oracle(self, form, rng):
        mesh = periodic_mesh(2, 3, 2)
        ops = GlobalOperators(mesh)
        dense = DenseOracle(mesh)
        udata = rng.standard_normal((2, mesh.n_dofs))
        got = ops.convective_term(VectorField(mesh, udata.copy()), form).data
        want = dense.convective(udata, form)
        assert close_to(got, want)

    @settings(max_examples=100)
    @given(dim=st.integers(1, 3), p=st.integers(1, 8), data=st.data())
    def test_dof_grid_form_equals_element_form(self, dim, p, data):
        # At a collocated rule the DoF-grid convection and projected partial
        # against the element kernels they replace: gather, differentiate
        # at the quadrature points, weight by W and scatter.
        elems = data.draw(st.tuples(*[st.integers(1, 3)] * dim))
        lengths = data.draw(st.tuples(*[st.floats(0.5, 2.0)] * dim))
        tags = {}
        for k in range(dim):
            kind = data.draw(st.sampled_from(["periodic", "wall", "outflow"]))
            for name in face_names(dim)[2 * k:2 * k + 2]:
                tags[name] = (kind if kind != "periodic" or elems[k] * p >= 2
                              else "wall")
            if kind == "outflow":  # a wall on one end, outflow on the other
                tags[face_names(dim)[2 * k]] = data.draw(
                    st.sampled_from(["wall", "outflow"]))
        mesh = build_structured_mesh(dim, [(0.0, h) for h in lengths],
                                     elems, p, "gll", tags)
        ops = GlobalOperators(mesh)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        udata = rng.standard_normal((dim, mesh.n_dofs))
        locs = [ops._gather(v) for v in udata]

        def element_partial(v, k):
            weak = ops._scatter(ops._deriv(ops._gather(v), k) * ops._wq)
            return weak / ops.lumped_mass

        for k in range(dim):
            want = element_partial(udata[0], k)
            got = ops.projected_partial(udata[0], k)
            assert np.max(np.abs(got - want)) <= 1e-12 * max(
                np.max(np.abs(want)), 1.0)
        for form in ConvectiveForm:
            want = np.empty_like(udata)
            for m in range(dim):
                if form is ConvectiveForm.CONSERVATIVE:
                    f = sum(ops._deriv(locs[k] * locs[m], k)
                            for k in range(dim))
                else:
                    f = sum(locs[k] * ops._deriv(locs[m], k)
                            for k in range(dim))
                if form is ConvectiveForm.SKEW_SYMMETRIC:
                    f = f + 0.5 * locs[m] * sum(ops._deriv(locs[k], k)
                                                for k in range(dim))
                want[m] = ops._scatter(f * ops._wq)
            got = ops.convective_term(VectorField(mesh, udata), form).data
            assert np.max(np.abs(got - want)) <= 1e-12 * max(
                np.max(np.abs(want)), 1.0), form

    @pytest.mark.parametrize("dim,n,p", [(2, 6, 1), (3, 2, 4)])
    def test_collocated_convection_runs_no_element_kernel(self, dim, n, p,
                                                          monkeypatch):
        # At a collocated rule every form is evaluated on the DoF grid: no
        # gather, no scatter and no element derivative.
        def refuse(*args, **kwargs):
            raise AssertionError("element kernel called")

        for name in ("_gather", "_scatter", "_deriv"):
            monkeypatch.setattr(GlobalOperators, name, refuse)
        mesh = periodic_mesh(dim, n, p)
        ops = GlobalOperators(mesh)
        x = mesh.node_coords
        u = VectorField(mesh, np.stack([np.sin(x[:, (k + 1) % dim])
                                        for k in range(dim)]))
        for form in ConvectiveForm:
            assert np.all(np.isfinite(ops.convective_term(u, form).data))

    def test_unknown_form_rejected(self):
        mesh = periodic_mesh(2, 3, 1)
        ops = GlobalOperators(mesh)
        with pytest.raises(ValueError):
            ops.convective_term(VectorField(mesh), "upwinded")


class TestCurl:
    def test_linear_shear_2d(self):
        mesh = periodic_mesh(2, 4, 2)
        ops = GlobalOperators(mesh)
        u = VectorField(mesh, np.stack([mesh.node_coords[:, 1].copy(),
                                        np.zeros(mesh.n_dofs)]))
        w = ops.curl(u)
        assert w.ncomp == 1
        # The nodal field y wraps back to 0 inside the last element row, so
        # everything that row (and its shared faces) touches is a sawtooth;
        # the rest must see the exact shear vorticity.
        y = mesh.node_coords[:, 1]
        h = mesh.h_axes[1]
        away = (y > 1e-9) & (y < TWO_PI - h - 1e-9)
        assert np.allclose(w.data[0, away], -1.0, atol=1e-12)

    def test_linear_shear_3d(self):
        mesh = periodic_mesh(3, 2, 3)
        ops = GlobalOperators(mesh)
        y = mesh.node_coords[:, 1]
        u = VectorField(mesh, np.stack([y, np.zeros_like(y), np.zeros_like(y)]))
        w = ops.curl(u)
        h = mesh.h_axes[1]
        away = (y > 1e-9) & (y < TWO_PI - h - 1e-9)
        assert np.allclose(w.data[2, away], -1.0, atol=1e-12)
        assert np.max(np.abs(w.data[:2, away])) < 1e-12

    def test_tgv_initial_vorticity_converges(self):
        errs = []
        for n in (6, 12):
            mesh = periodic_mesh(3, n, 2)
            ops = GlobalOperators(mesh)
            x, y, z = (mesh.node_coords[:, k] for k in range(3))
            u = VectorField(mesh, np.stack([
                np.sin(x) * np.cos(y) * np.cos(z),
                -np.cos(x) * np.sin(y) * np.cos(z),
                np.zeros_like(x),
            ]))
            w = ops.curl(u)
            exact_z = 2.0 * np.sin(x) * np.sin(y) * np.cos(z)
            diff = w.data[2] - exact_z
            errs.append(np.sqrt(float(ops.lumped_mass @ diff**2)))
        assert errs[1] < errs[0] / 3.0  # O(h^p) or better at p = 2

    def test_curl_of_projected_gradient_is_exactly_zero(self):
        # Diagonal mass + tensor-product derivatives make the discrete mixed
        # partials commute, so the projected gradient is discretely curl-free.
        mesh = periodic_mesh(2, 8, 2)
        ops = GlobalOperators(mesh)
        x, y = mesh.node_coords[:, 0], mesh.node_coords[:, 1]
        psi = ScalarField(mesh, np.sin(x) * np.sin(y))
        w = ops.curl(ops.project_gradient(psi))
        assert np.max(np.abs(w.data)) < 1e-13

    def test_curl_of_sampled_gradient_vanishes_under_refinement(self):
        errs = []
        for n in (8, 16):
            mesh = periodic_mesh(2, n, 2)
            ops = GlobalOperators(mesh)
            x, y = mesh.node_coords[:, 0], mesh.node_coords[:, 1]
            u = VectorField(mesh, np.stack([np.cos(x) * np.sin(y),
                                            np.sin(x) * np.cos(y)]))
            w = ops.curl(u)
            errs.append(np.sqrt(float(ops.lumped_mass @ w.data[0] ** 2)))
        assert errs[1] < errs[0] / 3.0
        assert errs[1] < 0.05

    def test_dim1_rejected(self):
        mesh = periodic_mesh(1, 4, 1)
        ops = GlobalOperators(mesh)
        with pytest.raises(FieldError):
            ops.curl(VectorField(mesh, ncomp=1))


def test_tgv_vorticity_formula_sanity():
    # Cross-check the analytic curl used above by finite differences:
    # omega_z = d(v)/dx - d(u)/dy for the vortex start.
    rng = np.random.default_rng(7)
    pts = rng.uniform(0, TWO_PI, (50, 3))
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    h = 1e-6
    dvdx = (-np.cos(x + h) * np.sin(y) * np.cos(z)
            + np.cos(x - h) * np.sin(y) * np.cos(z)) / (2 * h)
    dudy = (np.sin(x) * np.cos(y + h) * np.cos(z)
            - np.sin(x) * np.cos(y - h) * np.cos(z)) / (2 * h)
    assert np.allclose(dvdx - dudy, 2 * np.sin(x) * np.sin(y) * np.cos(z),
                       atol=1e-5)


class TestMatrixLayout:
    """apply_along_axis contracts the last axis as batched matmuls against
    mat^T, which must be C-contiguous for no call to copy the matrix; the
    operator set stores every matrix it contracts that way, and owns them:
    no module-level cache keeps it alive."""

    @pytest.mark.parametrize("spacing,p", [("gll", 1), ("gll", 2), ("gll", 3),
                                           ("gll", 4), ("equispaced", 3)])
    @pytest.mark.parametrize("bounded", [False, True], ids=["periodic", "walled"])
    def test_last_axis_matrices_need_no_copy(self, spacing, p, bounded,
                                             monkeypatch, rng):
        tags = periodic_tags(3)
        if bounded:  # walls on y, outflow on z, periodic x
            tags.update(y_min="wall", y_max="wall", z_min="outflow",
                        z_max="outflow")
        mesh = build_structured_mesh(3, [(0.0, 1.0), (-1.0, 0.5), (0.25, 1.0)],
                                     (2, 3, 2), p, spacing, tags)
        contracted = []
        apply = basis.apply_along_axis

        def spy(mat, values, axis):
            if mat.ndim == 2 and math.prod(values.shape[axis + 1:]) == 1:
                contracted.append(mat)
            return apply(mat, values, axis)

        for module in (basis, operators, stabilization):
            monkeypatch.setattr(module, "apply_along_axis", spy)
        ops = GlobalOperators(mesh)
        u = VectorField(mesh, rng.standard_normal((3, mesh.n_dofs)))
        # A moving wall and theta < 1 take diffuse through the lift and
        # the weak Laplacian; the walls' nu > 0 takes the pressure through
        # the curl and the face masses.
        bdata = build_boundary_data(mesh, wall_velocity=lambda x: np.ones_like(x))
        for mode in ("lps", "upwind"):
            stepper = Stepper(
                ops, PhysicalParams(0.1),
                TimeScheme(dt=1e-3, rk="heun2", diffusion_theta=0.5,
                           cfl_limit=np.inf),
                StabilizationConfig(mode, 1.0), boundary=bdata)
            stepper.step(u, 0.0)
        assert contracted
        assert all(mat.T.flags.c_contiguous for mat in contracted)

        alive = [weakref.ref(obj) for obj in [ops, *contracted]]
        del ops, stepper, contracted
        gc.collect()
        assert not any(ref() is not None for ref in alive)
