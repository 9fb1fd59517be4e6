import configparser
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from lpsflow.app import EXIT_ABORT, EXIT_CONFIG, EXIT_OK, run
from lpsflow.cases import (
    SHEAR_LAYER_PERTURBATION,
    SHEAR_LAYER_WIDTH,
    init_shear_layer,
    init_tgv2d,
    init_tgv3d,
)
from lpsflow.cli import main
from lpsflow.config import ConfigError, PRESETS, RunConfig, load_config, parse_overrides
from lpsflow.diagnostics import kinetic_energy, read_csv
from lpsflow.operators import ConvectiveForm, GlobalOperators
from lpsflow.snapshot import read_csv_points, write_snapshot
from lpsflow.stabilization import StabilizationMode
from lpsflow.stepper import RK_STAGES

from conftest import periodic_mesh, walled_mesh


class TestShearLayerIC:
    def test_center_line_zero(self):
        mesh = periodic_mesh(2, 60, 1)
        u = init_shear_layer(mesh)
        on_line = np.abs(mesh.node_coords[:, 1] - np.pi / 2.0) < 1e-12
        assert on_line.any()
        assert np.max(np.abs(u.data[0, on_line])) < 1e-15

    def test_perturbation_amplitude(self):
        mesh = periodic_mesh(2, 60, 1)
        u = init_shear_layer(mesh)
        at_half_pi = np.abs(mesh.node_coords[:, 0] - np.pi / 2.0) < 1e-12
        assert np.allclose(u.data[1, at_half_pi], 0.05, atol=1e-15)

    def test_initial_energy_against_quadrature_oracle(self):
        # Independent fine-grid oracle for (1/|O|) int |u|^2/2 of the
        # continuum profile; the coarse-mesh discrete value must approach it.
        yy = np.linspace(0.0, 2 * np.pi, 200001)
        prof = np.where(
            yy <= np.pi,
            np.tanh((yy - np.pi / 2.0) / SHEAR_LAYER_WIDTH),
            np.tanh((3.0 * np.pi / 2.0 - yy) / SHEAR_LAYER_WIDTH),
        )
        e_u = np.trapezoid(prof**2, yy) / (2.0 * np.pi)
        e_v = SHEAR_LAYER_PERTURBATION**2 / 2.0
        oracle = 0.5 * (e_u + e_v)
        # Closed form of the layer integral for a cross-check of the oracle.
        closed = 0.5 * (1.0 - 2.0 * SHEAR_LAYER_WIDTH / np.pi
                        + SHEAR_LAYER_PERTURBATION**2 / 2.0)
        assert abs(oracle - closed) < 1e-6

        mesh = periodic_mesh(2, 60, 1)
        ops = GlobalOperators(mesh)
        got = kinetic_energy(ops, init_shear_layer(mesh))
        assert abs(got - oracle) < 5e-3 * oracle

    def test_wrong_domain_rejected(self):
        with pytest.raises(ValueError):
            init_shear_layer(periodic_mesh(3, 4, 1))
        with pytest.raises(ValueError):
            init_shear_layer(walled_mesh(2, 4, 1))
        with pytest.raises(ValueError):
            init_shear_layer(periodic_mesh(2, 4, 1, length=1.0))


class TestTgvICs:
    def test_tgv3d_w_component_exactly_zero(self):
        mesh = periodic_mesh(3, 4, 2)
        u = init_tgv3d(mesh)
        assert np.all(u.data[2] == 0.0)

    def test_tgv3d_divergence_refines_away(self):
        from lpsflow.diagnostics import divergence_norm

        vals = []
        for n in (4, 8):
            mesh = periodic_mesh(3, n, 2)
            ops = GlobalOperators(mesh)
            vals.append(divergence_norm(ops, init_tgv3d(mesh)))
        assert vals[1] < vals[0] / 3.0

    def test_tgv2d_exact_closure(self):
        mesh = periodic_mesh(2, 8, 2)
        nu = 0.03
        u0, exact = init_tgv2d(mesh, V0=1.0, nu=nu)
        assert np.allclose(exact(0.0), u0.data, atol=1e-15)
        t = 0.7
        assert np.allclose(exact(t), u0.data * np.exp(-2 * nu * t), atol=1e-15)
        ops = GlobalOperators(mesh)
        ek = kinetic_energy(ops, u0)
        assert abs(ek - 0.25) < 1e-12


class TestConfig:
    def test_preset_fidelity_shear_layer(self):
        cfg = RunConfig.resolve({("case", "name"): "shear_layer"})
        assert cfg.get("mesh", "n") == (60, 60)
        assert cfg.get("mesh", "p") == 1
        assert cfg.get("scheme", "dt") == 5e-3
        assert cfg.get("scheme", "t_end") == 8.0
        assert cfg.get("physics", "nu") == 0.0
        assert cfg.get("stabilization", "stabilization") == "lps"
        assert cfg.get("stabilization", "c_s") == 1.0

    def test_preset_fidelity_tgv3d(self):
        cfg = RunConfig.resolve({("case", "name"): "tgv3d"})
        assert cfg.get("physics", "Re") == 1600.0
        assert cfg.get("physics", "V0") == 1.0
        assert cfg.get("physics", "L0") == 1.0
        assert abs(cfg.get("physics", "nu") - 1.0 / 1600.0) < 1e-18
        assert cfg.get("scheme", "t_end") == 20.0
        # dt chosen from the CFL target and snapped to divide t_end.
        dt = cfg.get("scheme", "dt")
        n_steps = cfg.get("scheme", "t_end") / dt
        assert abs(n_steps - round(n_steps)) < 1e-9
        h = 2 * np.pi / 16
        assert dt <= 0.3 * h / 2 + 1e-12

    def test_shear_layer_case_params_match_formula(self):
        assert abs(SHEAR_LAYER_WIDTH - np.pi / 15.0) < 1e-18
        assert SHEAR_LAYER_PERTURBATION == 0.05

    def test_nu_re_consistency_enforced(self):
        with pytest.raises(ConfigError):
            RunConfig.resolve({
                ("case", "name"): "tgv3d",
                ("physics", "nu"): 0.5,
                ("physics", "Re"): 1600.0,
            })
        cfg = RunConfig.resolve({
            ("case", "name"): "tgv3d",
            ("physics", "nu"): 1.0 / 1600.0,
        })
        assert abs(cfg.get("physics", "nu") - 1.0 / 1600.0) < 1e-18

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.resolve({("mesh", "order"): 2})

    @pytest.mark.parametrize("seckey", [
        ("output", "workers"), ("outflow", "U0"), ("outflow", "beta"),
        ("scheme", "cg_tol"), ("scheme", "cg_max_iters"),
    ])
    def test_deleted_keys_rejected(self, seckey):
        with pytest.raises(ConfigError, match="unknown config key"):
            RunConfig.resolve({seckey: 1})

    def test_unknown_case_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.resolve({("case", "name"): "cavity"})

    @pytest.mark.parametrize("seckey,names", [
        (("scheme", "rk"), list(RK_STAGES)),
        (("stabilization", "stabilization"), [m.value for m in StabilizationMode]),
        (("scheme", "convective_form"), [f.value for f in ConvectiveForm]),
        (("case", "name"), list(PRESETS)),
    ])
    def test_name_lists_follow_their_owners(self, seckey, names):
        for name in names:
            assert RunConfig.resolve({seckey: name}).get(*seckey) == name
        with pytest.raises(ConfigError):
            RunConfig.resolve({seckey: "bogus"})

    @pytest.mark.parametrize("seckey,value", [
        (("scheme", "convective_form"), "2"),
        (("scheme", "diffusion_theta"), "3"),
        (("scheme", "rk"), "rk4"),
        (("stabilization", "c_s"), "1.5"),
        (("mesh", "spacing"), "chebyshev"),
        (("output", "snapshot_format"), "hdf5"),
        (("mesh", "n"), "0"),
        (("mesh", "n"), "8,0"),
        (("physics", "nu"), "nan"),
        (("scheme", "cfl_limit"), "nan"),
        (("scheme", "t_end"), "nan"),
        (("scheme", "t_end"), "inf"),
        (("scheme", "t_end"), "0"),
        (("scheme", "t_end"), "-1"),
        (("physics", "nu"), "inf"),
        (("physics", "V0"), "nan"),
    ])
    def test_owner_rules_raise_config_error(self, seckey, value):
        with pytest.raises(ConfigError):
            RunConfig.resolve({("case", "name"): "tgv2d"}, {seckey: value})

    @pytest.mark.parametrize("seckey,value", [
        (("mesh", "n"), "0"),
        (("mesh", "p"), "0"),
        (("mesh", "dim"), "4"),
    ])
    def test_mesh_checked_before_auto_dt(self, seckey, value):
        # tgv3d derives dt from the element size and p.
        with pytest.raises(ConfigError):
            RunConfig.resolve({("case", "name"): "tgv3d"}, {seckey: value})

    @pytest.mark.parametrize("case,dim,want", [
        ("tgv3d", 2, 3), ("shear_layer", 3, 2), ("tgv2d", 1, 2),
    ])
    def test_case_dim_rule_checked_before_the_mesh(self, case, dim, want):
        # The preset's n keeps the preset's length; the dim rule, not the
        # length of n, is what the user broke.
        with pytest.raises(ConfigError, match=f"case {case} requires dim={want}"):
            RunConfig.resolve({("case", "name"): case},
                              {("mesh", "dim"): str(dim)})

    def test_unparsable_value_names_its_key(self):
        with pytest.raises(ConfigError, match=r"bad value for \[mesh\] p"):
            RunConfig.resolve({("case", "name"): "tgv2d"},
                              {("mesh", "p"): "two"})

    def test_ini_line_before_any_section(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("name = tgv2d\n[case]\n")
        with pytest.raises(ConfigError, match="config parse error"):
            load_config(str(path))

    @pytest.mark.parametrize("seckey,value", [
        (("scheme", "t_end"), "nan"),
        (("scheme", "t_end"), "inf"),
        (("scheme", "t_end"), "0"),
        (("scheme", "t_end"), "-1"),
        (("physics", "V0"), "nan"),
        (("physics", "V0"), "inf"),
    ])
    def test_auto_dt_inputs_raise_config_error(self, seckey, value):
        # tgv3d derives dt from V0 and snaps it to divide t_end.
        with pytest.raises(ConfigError):
            RunConfig.resolve({("case", "name"): "tgv3d"}, {seckey: value})

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    def test_auto_dt_cfl_must_be_finite_and_positive(self, value):
        # 0 and inf used to divide by zero and nan to fail in math.ceil;
        # -1 was reported as a negative dt, a key the user did not set.
        with pytest.raises(ConfigError, match=r"\[scheme\] auto_dt_cfl"):
            RunConfig.resolve({("case", "name"): "tgv3d"},
                              {("scheme", "auto_dt_cfl"): value})

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_dt_must_be_finite(self, value):
        with pytest.raises(ConfigError, match="dt"):
            RunConfig.resolve({("case", "name"): "tgv2d"},
                              {("scheme", "dt"): value})

    def test_overrides_win_over_file(self):
        cfg = RunConfig.resolve(
            {("case", "name"): "shear_layer", ("scheme", "dt"): "0.01"},
            parse_overrides(["scheme.dt=0.002"]),
        )
        assert cfg.get("scheme", "dt") == 0.002

    def test_bad_override_format(self):
        with pytest.raises(ConfigError):
            parse_overrides(["scheme.dt"])
        with pytest.raises(ConfigError):
            parse_overrides(["dt=0.1"])

    def test_ini_file_roundtrip(self, tmp_path):
        path = tmp_path / "case.ini"
        path.write_text(
            "[case]\nname = tgv2d\n\n[scheme]\ndt = 0.025  # quarter\n"
            "[output]\nevery_steps = 7\n"
        )
        cfg = load_config(str(path))
        assert cfg.case == "tgv2d"
        assert cfg.get("scheme", "dt") == 0.025
        assert cfg.get("output", "every_steps") == 7

    def test_env_var_overrides_output_dir(self, tmp_path, monkeypatch):
        cfg = RunConfig.resolve({("output", "dir"): "somewhere"})
        monkeypatch.setenv("LPSFLOW_OUTPUT_DIR", str(tmp_path / "env_out"))
        assert cfg.output_dir() == str(tmp_path / "env_out")


class TestSnapshots:
    def test_vtk_structure(self, tmp_path):
        mesh = periodic_mesh(2, 3, 1)
        from lpsflow.operators import ScalarField, VectorField

        u = VectorField(mesh, np.ones((2, mesh.n_dofs)))
        p = ScalarField(mesh, np.arange(mesh.n_dofs, dtype=float))
        path = tmp_path / "snap.vtk"
        write_snapshot(path, mesh, u, p, fmt="vtk")
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# vtk DataFile")
        assert "ASCII" in lines[2]
        assert lines[3] == "DATASET STRUCTURED_GRID"
        assert lines[4] == "DIMENSIONS 3 3 1"
        assert f"POINTS {mesh.n_dofs} double" in lines[5]
        body = "\n".join(lines)
        for name in ("u", "v", "w", "p"):
            assert f"SCALARS {name} double 1" in body

    def test_vtk_exact_bytes(self, tmp_path):
        mesh = walled_mesh(2, (2, 1), 1, length=0.3)
        from lpsflow.operators import ScalarField, VectorField

        specials = [-0.0, np.nan, np.inf, 1e-300, -np.inf, 0.1]
        u = VectorField(mesh, np.array([specials, specials[::-1]]))
        p = ScalarField(mesh, np.array(specials[1:] + specials[:1]))
        path = tmp_path / "snap.vtk"
        write_snapshot(path, mesh, u, p, fmt="vtk")
        want = ["# vtk DataFile Version 3.0", "flow snapshot", "ASCII",
                "DATASET STRUCTURED_GRID", "DIMENSIONS 3 2 1", "POINTS 6 double"]
        for x, y in mesh.node_coords:
            want.append(" ".join(format(c, ".17g") for c in (x, y, 0.0)))
        want.append("POINT_DATA 6")
        for name, vals in (("u", u.data[0]), ("v", u.data[1]),
                           ("w", np.zeros(6)), ("p", p.values)):
            want += [f"SCALARS {name} double 1", "LOOKUP_TABLE default"]
            want += [format(v, ".17g") for v in vals]
        assert path.read_bytes() == ("\n".join(want) + "\n").encode()
        assert b"\n-0\nnan\ninf\n1e-300\n-inf\n0.10000000000000001\n" in path.read_bytes()

        # A 3D walled P2 mesh written in turn with the 2D one: each file
        # carries its own mesh's cached coordinate and zero blocks.
        mesh3 = walled_mesh(3, (2, 1, 1), 2, length=0.3)
        n3 = mesh3.n_dofs
        u3 = VectorField(mesh3, np.resize(specials, (3, n3)) * np.arange(1, n3 + 1))
        want3 = ["# vtk DataFile Version 3.0", "flow snapshot", "ASCII",
                 "DATASET STRUCTURED_GRID", "DIMENSIONS 5 3 3", f"POINTS {n3} double"]
        want3 += [" ".join(format(c, ".17g") for c in xyz) for xyz in mesh3.node_coords]
        want3.append(f"POINT_DATA {n3}")
        for name, vals in (("u", u3.data[0]), ("v", u3.data[1]),
                           ("w", u3.data[2]), ("p", np.zeros(n3))):
            want3 += [f"SCALARS {name} double 1", "LOOKUP_TABLE default"]
            want3 += [format(v, ".17g") for v in vals]
        want3 = ("\n".join(want3) + "\n").encode()
        want2 = path.read_bytes()
        for _ in range(2):
            write_snapshot(path, mesh3, u3, fmt="vtk")
            assert path.read_bytes() == want3
            write_snapshot(path, mesh, u, p, fmt="vtk")
            assert path.read_bytes() == want2

    def test_vtk_formats_mesh_blocks_once_per_mesh(self, tmp_path, monkeypatch):
        from lpsflow import snapshot

        calls = []
        fmt = snapshot._format_mesh_blocks
        monkeypatch.setattr(snapshot, "_format_mesh_blocks",
                            lambda mesh: calls.append(mesh) or fmt(mesh))
        mesh = periodic_mesh(2, 3, 2)
        write_snapshot(tmp_path / "a.vtk", mesh, fmt="vtk")
        write_snapshot(tmp_path / "b.vtk", mesh, fmt="vtk")
        assert calls == [mesh]
        twin = periodic_mesh(2, 3, 2)
        write_snapshot(tmp_path / "c.vtk", twin, fmt="vtk")
        assert calls == [mesh, twin]
        assert (tmp_path / "c.vtk").read_bytes() == (tmp_path / "a.vtk").read_bytes()

    def test_vtk_cache_empties_with_its_meshes(self, tmp_path, monkeypatch):
        import gc
        import weakref

        from lpsflow import snapshot
        from lpsflow.operators import ScalarField, VectorField

        # A fresh cache of the module's own kind, so that only these meshes
        # are in it.
        monkeypatch.setattr(snapshot, "_MESH_BLOCKS", type(snapshot._MESH_BLOCKS)())
        mesh = walled_mesh(2, 3, 1)
        alive = weakref.ref(mesh)
        u = VectorField(mesh, np.ones((2, mesh.n_dofs)))
        p = ScalarField(mesh, np.zeros(mesh.n_dofs))
        write_snapshot(tmp_path / "snap.vtk", mesh, u, p, fmt="vtk")
        write_snapshot(tmp_path / "snap.vtk", periodic_mesh(3, 2, 1), fmt="vtk")
        assert len(snapshot._MESH_BLOCKS) >= 1
        del mesh, u, p
        gc.collect()
        assert alive() is None
        assert len(snapshot._MESH_BLOCKS) == 0

    def test_csv_exact_bytes(self, tmp_path):
        mesh = walled_mesh(2, (2, 1), 1, length=0.3)
        from lpsflow.operators import ScalarField, VectorField

        specials = [-0.0, np.nan, np.inf, 1e-300, -np.inf, 0.1]
        u = VectorField(mesh, np.array([specials, specials[::-1]]))
        p = ScalarField(mesh, np.array(specials[1:] + specials[:1]))
        path = tmp_path / "snap.csv"
        write_snapshot(path, mesh, u, p, fmt="csv")
        want = ["x,y,z,u,v,w,p"]
        for i, (x, y) in enumerate(mesh.node_coords):
            row = (x, y, 0.0, u.data[0, i], u.data[1, i], 0.0, p.values[i])
            want.append(",".join(format(v, ".17g") for v in row))
        assert path.read_bytes() == ("\n".join(want) + "\n").encode()
        assert b"\n0,0,0,-0,0.10000000000000001,0,nan\n" in path.read_bytes()

        # A 3D walled P2 mesh written in turn with the 2D one: each file
        # carries its own mesh's cached x,y,z text.
        mesh3 = walled_mesh(3, (2, 1, 1), 2, length=0.3)
        n3 = mesh3.n_dofs
        u3 = VectorField(mesh3, np.resize(specials, (3, n3)) * np.arange(1, n3 + 1))
        want3 = ["x,y,z,u,v,w,p"]
        for i, xyz in enumerate(mesh3.node_coords):
            row = (*xyz, *u3.data[:, i], 0.0)
            want3.append(",".join(format(v, ".17g") for v in row))
        want3 = ("\n".join(want3) + "\n").encode()
        want2 = path.read_bytes()
        for _ in range(2):
            write_snapshot(path, mesh3, u3, fmt="csv")
            assert path.read_bytes() == want3
            write_snapshot(path, mesh, u, p, fmt="csv")
            assert path.read_bytes() == want2

    def test_csv_roundtrip(self, tmp_path):
        mesh = periodic_mesh(2, 3, 2)
        from lpsflow.operators import ScalarField, VectorField

        rng = np.random.default_rng(3)
        u = VectorField(mesh, rng.standard_normal((2, mesh.n_dofs)))
        p = ScalarField(mesh, rng.standard_normal(mesh.n_dofs))
        path = tmp_path / "snap.csv"
        write_snapshot(path, mesh, u, p, fmt="csv")
        back = read_csv_points(path)
        assert np.allclose(back["u"], u.data[0], atol=0)
        assert np.allclose(back["p"], p.values, atol=0)
        assert np.allclose(back["w"], 0.0)
        assert np.allclose(back["x"], mesh.node_coords[:, 0])

    def test_unknown_format(self, tmp_path):
        mesh = periodic_mesh(2, 3, 1)
        with pytest.raises(ValueError):
            write_snapshot(tmp_path / "x.bin", mesh, fmt="hdf5")


class TestRun:
    def base_config(self, tmp_path, over=None):
        values = {
            ("case", "name"): "shear_layer",
            ("scheme", "t_end"): 0.02,
            ("scheme", "dt"): 0.005,
            ("output", "dir"): str(tmp_path / "out"),
            ("output", "every_steps"): 2,
        }
        values.update(over or {})
        return RunConfig.resolve(values)

    def test_run_writes_outputs(self, tmp_path):
        cfg = self.base_config(tmp_path)
        result = run(cfg, log=None)
        assert result.exit_code == EXIT_OK
        recs = read_csv(result.out_dir / "diagnostics.csv")
        assert recs[0].t == 0.0
        assert recs[-1].t == pytest.approx(0.02)
        manifest = json.loads((result.out_dir / "run.json").read_text())
        assert manifest["status"] == "ok"
        assert manifest["config"]["scheme"]["dt"] == 0.005
        assert manifest["config"]["stabilization"]["stabilization"] == "lps"
        assert manifest["version"]

    def test_manifest_rerun_is_bitwise_identical(self, tmp_path):
        cfg = self.base_config(tmp_path)
        r1 = run(cfg, log=None)
        csv1 = (r1.out_dir / "diagnostics.csv").read_bytes()
        cfg2 = load_config(str(r1.out_dir / "run.json"))
        over = {("output", "dir"): str(tmp_path / "out2")}
        cfg2 = RunConfig.resolve(
            {k: v for k, v in cfg2.values.items()}, over
        )
        r2 = run(cfg2, log=None)
        csv2 = (r2.out_dir / "diagnostics.csv").read_bytes()
        assert csv1 == csv2

    def test_partial_last_step_lands_on_t_end(self, tmp_path, monkeypatch):
        # dt = 0.005 does not divide t_end = 0.012: the last step is 0.002,
        # passed to Stepper.step, and the shared scheme.dt is never assigned.
        import lpsflow.app as app_module
        import lpsflow.config as config_module

        assigned, dts = [], []

        class WatchedScheme(config_module.TimeScheme):
            def __setattr__(self, name, value):
                if name == "dt" and "dt" in self.__dict__:
                    assigned.append(value)
                super().__setattr__(name, value)

        class RecordingStepper(app_module.Stepper):
            def step(self, u, t, dt=None):
                u, rep = super().step(u, t, dt)
                dts.append(rep.dt)
                return u, rep

        monkeypatch.setattr(config_module, "TimeScheme", WatchedScheme)
        monkeypatch.setattr(app_module, "Stepper", RecordingStepper)
        result = run(self.base_config(tmp_path, {("scheme", "t_end"): 0.012}),
                     log=None)
        assert result.exit_code == EXIT_OK
        manifest = json.loads((result.out_dir / "run.json").read_text())
        assert manifest["status"] == "ok"
        assert manifest["n_steps"] == 3 and manifest["t_final"] == 0.012
        assert result.records[-1].t == 0.012
        assert dts == pytest.approx([0.005, 0.005, 0.002], rel=1e-12)
        assert assigned == []

    def test_snapshot_cadence_count(self, tmp_path):
        cfg = self.base_config(
            tmp_path,
            {("output", "snapshot_every"): 0.01,
             ("output", "snapshot_format"): "csv"},
        )
        result = run(cfg, log=None)
        snaps = sorted(result.out_dir.glob("snapshot_*.csv"))
        assert len(snaps) == int(0.02 / 0.01) + 1

    def test_abort_exit_code_on_cfl(self, tmp_path):
        cfg = self.base_config(tmp_path, {("scheme", "dt"): 0.5,
                                          ("scheme", "t_end"): 1.0})
        result = run(cfg, log=None)
        assert result.exit_code == EXIT_ABORT
        manifest = json.loads((result.out_dir / "run.json").read_text())
        assert manifest["status"] == "aborted"
        assert "CFL" in manifest["abort_message"]
        # Partial diagnostics still written.
        assert (result.out_dir / "diagnostics.csv").exists()

    def test_custom_case_needs_library_ic(self, tmp_path):
        cfg = RunConfig.resolve({
            ("case", "name"): "custom",
            ("output", "dir"): str(tmp_path / "o"),
            ("scheme", "dt"): 0.01,
            ("scheme", "t_end"): 0.02,
        })
        with pytest.raises(ConfigError):
            run(cfg, log=None)

    def test_custom_case_with_library_ic(self, tmp_path):
        cfg = RunConfig.resolve({
            ("case", "name"): "custom",
            ("mesh", "n"): (6, 6),
            ("mesh", "p"): 2,
            ("output", "dir"): str(tmp_path / "o"),
            ("scheme", "dt"): 0.01,
            ("scheme", "t_end"): 0.02,
            ("stabilization", "stabilization"): "none",
        })

        def ic(points):
            return np.stack([np.sin(points[:, 0]), np.cos(points[:, 1])],
                            axis=1)

        result = run(cfg, initial_condition=ic, log=None)
        assert result.exit_code == EXIT_OK

    def test_manufactured_poisson_case(self, tmp_path):
        cfg = RunConfig.resolve({
            ("case", "name"): "manufactured_poisson",
            ("mesh", "n"): (12, 12),
            ("mesh", "p"): 2,
            ("output", "dir"): str(tmp_path / "mp"),
        })
        result = run(cfg, log=None)
        assert result.exit_code == EXIT_OK
        manifest = json.loads((result.out_dir / "run.json").read_text())
        assert manifest["l2_error"] < 1e-2
        text = (result.out_dir / "errors.csv").read_text().splitlines()
        assert text[0] == "n,p,l2_error"
        assert "cg_iters" not in manifest


class TestCli:
    def test_presets_lists_all(self, capsys):
        assert main(["presets"]) == EXIT_OK
        out = capsys.readouterr().out
        for name in PRESETS:
            assert name in out
        assert "custom" in out

    def test_check_config_echoes_resolved(self, tmp_path, capsys):
        path = tmp_path / "c.ini"
        path.write_text("[case]\nname = shear_layer\n")
        assert main(["check-config", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "[scheme]" in out and "dt = 0.005" in out
        assert "n = 60,60" in out

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text("[case]\nname = nonexistent_case\n")
        assert main(["check-config", str(path)]) == EXIT_CONFIG

    @pytest.mark.parametrize("override", ["scheme.diffusion_theta=3",
                                          "mesh.n=0", "mesh.n=8,0",
                                          "scheme.t_end=nan",
                                          "scheme.t_end=-1",
                                          "physics.V0=nan",
                                          "scheme.auto_dt_cfl=0",
                                          "scheme.auto_dt_cfl=nan",
                                          "scheme.dt=inf"])
    def test_run_rejects_what_check_config_rejects(self, tmp_path, capsys,
                                                    override):
        path = tmp_path / "c.ini"
        path.write_text("[case]\nname = tgv2d\n"
                        f"[output]\ndir = {tmp_path / 'o'}\n")
        for command in ("check-config", "run"):
            assert main([command, str(path), "--set", override]) == EXIT_CONFIG
            assert "config error:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_run_on_custom_is_a_config_error_without_output(self, tmp_path,
                                                           capsys):
        # The CLI cannot pass an initial condition; check-config accepts the
        # case, since library callers pass one.
        path = tmp_path / "c.ini"
        path.write_text(f"[case]\nname = custom\n[output]\ndir = {tmp_path / 'o'}\n")
        assert main(["check-config", str(path)]) == EXIT_OK
        assert main(["run", str(path)]) == EXIT_CONFIG
        assert "no built-in initial condition" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_missing_file_exit_code(self):
        assert main(["run", "/nonexistent/path.ini"]) == EXIT_CONFIG

    def test_missing_manifest_exit_code(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "missing.json")]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_malformed_manifest_is_a_config_error(self, tmp_path, capsys):
        # A manifest is read and parsed under the same guard as an INI file.
        path = tmp_path / "run.json"
        path.write_text('{"config": {"case": {"name": "tgv2d"}')
        assert main(["check-config", str(path)]) == EXIT_CONFIG
        assert "config parse error" in capsys.readouterr().err

    def test_run_abort_exit_code_and_message(self, tmp_path, capsys):
        path = tmp_path / "c.ini"
        path.write_text(f"[case]\nname = tgv2d\n[output]\ndir = {tmp_path / 'o'}\n")
        rc = main(["run", str(path), "--quiet", "--set", "scheme.dt=5"])
        assert rc == EXIT_ABORT
        assert capsys.readouterr().err.startswith("run aborted: CFL number")

    def test_run_smoke(self, tmp_path, capsys):
        path = tmp_path / "c.ini"
        path.write_text(
            "[case]\nname = shear_layer\n[scheme]\nt_end = 0.01\n"
            f"[output]\ndir = {tmp_path / 'o'}\n"
        )
        rc = main(["run", str(path), "--quiet", "--set",
                   "output.every_steps=1"])
        assert rc == EXIT_OK
        assert (tmp_path / "o" / "diagnostics.csv").exists()


def _readme_config_example():
    """The ```ini block of README's CLI section."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    cli_section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    return cli_section.split("```ini\n", 1)[1].split("```", 1)[0]


class TestReadmeConfigExample:
    def test_keys_and_listed_alternatives_resolve(self):
        block = _readme_config_example()
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        parser.read_string(block)
        values = {(section, key): value for section in parser.sections()
                  for key, value in parser.items(section)}
        assert set(values) <= set(RunConfig.resolve().values)
        RunConfig.resolve(values)

        # A "# a | b | c" comment lists every value its key accepts.
        alternatives, section = {}, None
        for line in block.splitlines():
            header = re.fullmatch(r"\[(\w+)\]", line.strip())
            if header:
                section = header.group(1)
            elif "#" in line and "|" in line:
                key, comment = line.split("=", 1)[0].strip(), line.split("#", 1)[1]
                alternatives[(section, key)] = [a.strip() for a in comment.split("|")]
        assert alternatives
        for seckey, names in alternatives.items():
            assert values[seckey] in names
            for name in names:
                cfg = RunConfig.resolve({**values, seckey: name})
                assert cfg.get(*seckey) == name
