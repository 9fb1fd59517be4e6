import numpy as np
import pytest

from lpsflow.cases import init_tgv3d
from lpsflow.diagnostics import (
    CSV_HEADER,
    DiagnosticsRecord,
    compute_record,
    divergence_norm,
    enstrophy_dissipation,
    format_record,
    kinetic_energy,
    read_csv,
    stabilization_power,
    write_csv,
)
from lpsflow.mesh import build_structured_mesh, periodic_tags
from lpsflow.operators import GlobalOperators, VectorField
from lpsflow.stabilization import StabilizationConfig, momentum_stabilization
from lpsflow.stepper import PhysicalParams, Stepper, TimeScheme

from conftest import periodic_mesh


class TestKineticEnergy:
    def test_uniform_unit_speed(self):
        mesh = periodic_mesh(2, 4, 2)
        ops = GlobalOperators(mesh)
        u = VectorField(mesh, np.stack([np.full(mesh.n_dofs, 0.6),
                                        np.full(mesh.n_dofs, 0.8)]))
        assert abs(kinetic_energy(ops, u) - 0.5) < 1e-13

    def test_zero_field(self):
        mesh = periodic_mesh(2, 4, 1)
        ops = GlobalOperators(mesh)
        assert kinetic_energy(ops, VectorField(mesh)) == 0.0

    def test_tgv3d_eighth(self):
        # Analytic volume average of |u|^2/2 for the vortex start is 1/8.
        # Translation symmetry of the periodic grid makes the quadrature of
        # the trigonometric products exact, well beyond the nominal O(h^2p).
        for n, p in ((8, 2), (8, 3)):
            mesh = periodic_mesh(3, n, p)
            ops = GlobalOperators(mesh)
            u = init_tgv3d(mesh, V0=1.0)
            assert abs(kinetic_energy(ops, u) - 0.125) < 1e-12

    def test_scales_with_v0_squared(self):
        mesh = periodic_mesh(3, 4, 2)
        ops = GlobalOperators(mesh)
        e1 = kinetic_energy(ops, init_tgv3d(mesh, V0=1.0))
        e2 = kinetic_energy(ops, init_tgv3d(mesh, V0=2.0))
        assert abs(e2 - 4.0 * e1) < 1e-12

    def test_matches_lumped_quadratic_form_collocated(self, rng):
        mesh = periodic_mesh(2, 5, 3)
        ops = GlobalOperators(mesh)
        u = VectorField(mesh, rng.standard_normal((2, mesh.n_dofs)))
        direct = kinetic_energy(ops, u)
        quad_form = 0.5 * float(
            np.sum(ops.lumped_mass * np.sum(u.data**2, axis=0))
        ) / mesh.domain_volume
        assert abs(direct - quad_form) < 1e-12 * quad_form


class TestEnstrophy:
    def test_tgv3d_three_eighths(self):
        mesh = periodic_mesh(3, 8, 3)
        ops = GlobalOperators(mesh)
        u = init_tgv3d(mesh)
        nu = 1.0 / 1600.0
        zeta, eps = enstrophy_dissipation(ops, u, nu)
        assert abs(zeta - 0.375) < 2e-3
        assert abs(eps - 2 * nu * zeta) < 1e-18
        assert abs(eps - 4.6875e-4) < 3e-6

    def test_inviscid_dissipation_is_zero(self):
        mesh = periodic_mesh(2, 4, 2)
        ops = GlobalOperators(mesh)
        x = mesh.node_coords[:, 0]
        u = VectorField(mesh, np.stack([np.sin(x), np.cos(x)]))
        zeta, eps = enstrophy_dissipation(ops, u, 0.0)
        assert zeta > 0.0 and eps == 0.0

    def test_irrotational_field_enstrophy_converges_to_zero(self):
        vals = []
        for n in (8, 16):
            mesh = periodic_mesh(2, n, 2)
            ops = GlobalOperators(mesh)
            x, y = mesh.node_coords[:, 0], mesh.node_coords[:, 1]
            u = VectorField(mesh, np.stack([np.cos(x) * np.sin(y),
                                            np.sin(x) * np.cos(y)]))
            zeta, _ = enstrophy_dissipation(ops, u, 1.0)
            vals.append(zeta)
        assert vals[1] < vals[0] / 5.0

    def test_dim1_rejected(self):
        mesh = periodic_mesh(1, 4, 1)
        ops = GlobalOperators(mesh)
        with pytest.raises(ValueError):
            enstrophy_dissipation(ops, VectorField(mesh, ncomp=1), 0.1)


class TestDivergenceNorm:
    def test_uniform_zero(self):
        mesh = periodic_mesh(2, 4, 2)
        ops = GlobalOperators(mesh)
        u = VectorField(mesh, np.ones((2, mesh.n_dofs)))
        assert divergence_norm(ops, u) < 1e-13

    def test_rotation_roundoff(self):
        mesh = periodic_mesh(2, 6, 2, length=1.0)
        ops = GlobalOperators(mesh)
        x, y = mesh.node_coords[:, 0], mesh.node_coords[:, 1]
        # Periodic sawtooth issue avoided: use smooth solenoidal field.
        u = VectorField(mesh, np.stack([np.sin(2 * np.pi * y),
                                        np.sin(2 * np.pi * x)]))
        assert divergence_norm(ops, u) < 1e-12


class TestStabilizationPower:
    def test_cs_zero_gives_zero(self, rng):
        mesh = periodic_mesh(2, 4, 2)
        ops = GlobalOperators(mesh)
        u = VectorField(mesh, rng.standard_normal((2, mesh.n_dofs)))
        s = momentum_stabilization(ops, u, StabilizationConfig("lps", 0.0))
        assert stabilization_power(ops, u, s) == 0.0

    def test_uniform_velocity_gives_zero(self):
        mesh = periodic_mesh(2, 4, 2)
        ops = GlobalOperators(mesh)
        u = VectorField(mesh, np.ones((2, mesh.n_dofs)))
        s = momentum_stabilization(ops, u, StabilizationConfig("lps", 1.0))
        assert abs(stabilization_power(ops, u, s)) < 1e-13

    def test_sign_matches_energy_decay(self):
        # The power must equal the observed d(E_k)/dt when the only dynamics
        # is the stabilization term itself (forward-Euler microstep).
        from lpsflow.cases import init_shear_layer

        mesh = periodic_mesh(2, 16, 1)
        ops = GlobalOperators(mesh)
        u = init_shear_layer(mesh)
        cfg = StabilizationConfig("lps", 1.0)
        s = momentum_stabilization(ops, u, cfg)
        power = stabilization_power(ops, u, s)
        assert power < 0.0
        dt = 1e-6
        u2 = VectorField(mesh, u.data + dt * s.data / ops.lumped_mass)
        de_dt = (kinetic_energy(ops, u2) - kinetic_energy(ops, u)) / dt
        assert abs(de_dt - power) < 1e-4 * abs(power)

    def test_tgv_records_never_gain_energy_from_lps(self):
        # Acceptance 4's TGV on 8^3 GLL P4, recorded after every step: the
        # element viscosity varies between elements, and LPS must still
        # only remove energy. The one-sided form's power turns positive
        # from t ~ 0.5.
        mesh = periodic_mesh(3, 8, 4)
        ops = GlobalOperators(mesh)
        nu, stab = 1.0 / 1600.0, StabilizationConfig("lps", 1.0)
        st = Stepper(ops, PhysicalParams(nu),
                     TimeScheme(dt=0.15 * mesh.h_axes[0] / 4, rk="ssprk3"),
                     stabilization=stab, convective_form="skew")
        u, t, powers = init_tgv3d(mesh), 0.0, []
        while t < 1.2:
            u, rep = st.step(u, t)
            t = rep.t
            powers.append(compute_record(ops, u, nu, stab, t).stab_power)
        assert max(powers) <= 0.0


class TestRecordsAndCsv:
    def test_eps_identity_in_record(self):
        mesh = periodic_mesh(2, 6, 2)
        ops = GlobalOperators(mesh)
        x, y = mesh.node_coords[:, 0], mesh.node_coords[:, 1]
        u = VectorField(mesh, np.stack([np.sin(x) * np.cos(y),
                                        -np.cos(x) * np.sin(y)]))
        rec = compute_record(ops, u, nu=0.01, stab=StabilizationConfig("lps", 1.0),
                             t=1.5)
        assert rec.eps == 2.0 * 0.01 * rec.zeta
        assert rec.E_k >= 0.0 and rec.zeta >= 0.0

    @pytest.mark.parametrize("mode", ["upwind", "lps"])
    @pytest.mark.parametrize("dim,n,p", [(2, 6, 1), (3, 2, 4)])
    def test_collocated_record_runs_no_element_kernel(self, dim, n, p, mode,
                                                      monkeypatch):
        # At a collocated rule a record is quadratic forms with the lumped
        # mass and the stabilization's DoF-grid form: no gather, no scatter
        # and no element derivative.
        def refuse(*args, **kwargs):
            raise AssertionError("element kernel called")

        for name in ("_gather", "_scatter", "_deriv"):
            monkeypatch.setattr(GlobalOperators, name, refuse)
        mesh = periodic_mesh(dim, n, p)
        ops = GlobalOperators(mesh)
        x = mesh.node_coords
        u = VectorField(mesh, np.stack([np.sin(x[:, (k + 1) % dim])
                                        for k in range(dim)]))
        rec = compute_record(ops, u, nu=0.01,
                             stab=StabilizationConfig(mode, 1.0), t=0.0)
        assert rec.E_k > 0.0 and rec.zeta > 0.0 and rec.stab_power < 0.0

    @pytest.mark.parametrize("spacing,p,over", [
        ("gll", 4, False), ("equispaced", 3, False), ("gll", 2, True)])
    def test_records_are_quadrature_of_interpolant(self, spacing, p, over,
                                                   rng):
        # Each squared norm u . (M u) is the rule's quadrature of the
        # interpolant squared, collocated or not (equispaced P3, an
        # over-integrated rule).
        tags = periodic_tags(3)
        tags.update(y_min="wall", y_max="wall")
        mesh = build_structured_mesh(3, [(0.0, 1.0), (-1.0, 0.5),
                                         (0.25, 1.0)], (2, 3, 2), p, spacing,
                                     tags)
        ops = GlobalOperators(mesh,
                              mesh.basis.over_integrated() if over else None)
        u = VectorField(mesh, rng.standard_normal((3, mesh.n_dofs)))

        def quad(data):
            return sum(ops.integrate(ops.interp_to_quad(v) ** 2) for v in data)

        vol = mesh.domain_volume
        got = (kinetic_energy(ops, u), enstrophy_dissipation(ops, u, 0.0)[0],
               divergence_norm(ops, u))
        want = (0.5 * quad(u.data) / vol, 0.5 * quad(ops.curl(u).data) / vol,
                np.sqrt(quad(ops.project_divergence(u).values[None])))
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-13 * w

    def test_csv_roundtrip_17_digits(self, tmp_path):
        recs = [
            DiagnosticsRecord(t=0.1234567890123456789, E_k=1 / 3, zeta=2 / 7,
                              eps=1e-300, div_norm=0.0, stab_power=-1 / 9),
            DiagnosticsRecord(t=1.0, E_k=0.5, zeta=0.0, eps=0.0,
                              div_norm=3e-16, stab_power=0.0),
        ]
        path = tmp_path / "diag.csv"
        write_csv(path, recs)
        text = path.read_text().splitlines()
        assert text[0] == CSV_HEADER
        assert len(text) == 3
        back = read_csv(path)
        for a, b in zip(recs, back):
            for f in ("t", "E_k", "zeta", "eps", "div_norm", "stab_power"):
                assert getattr(a, f) == getattr(b, f)  # 17 digits roundtrip

    def test_format_has_header_fields(self):
        rec = DiagnosticsRecord(0.0, 1.0, 2.0, 3.0, 4.0, 5.0)
        assert len(format_record(rec).split(",")) == len(CSV_HEADER.split(","))
