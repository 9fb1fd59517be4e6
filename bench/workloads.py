"""The benchmark's three workloads: inputs from a seed, one round, its checks.

A round builds everything from scratch and marches a fixed number of time
steps in a closed loop (the next step starts when the previous one returns),
so every round of a workload does the same work whatever the run length.
The checks compare program outputs with closed forms or with properties the
method must have; none compares with a stored copy of an earlier output.

``round`` returns a ``RoundResult``. Step timings come from the caller's
clock around ``Stepper.step``; the workload adds the wall time of the other
program calls inside its marching loop (records, snapshots, output files)
so that the caller can form the throughput of the whole loop.
"""

import json
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

TWO_PI = 2.0 * math.pi
CSV_HEADER = "t,E_k,zeta,eps,div_norm,stab_power"  # pinned diagnostics schema


@dataclass
class RoundResult:
    steps: int                    # operations attempted (one per time step)
    failed: int = 0               # operations that aborted or never ran
    failures: list = field(default_factory=list)  # why they did
    errors: list = field(default_factory=list)    # failed output checks
    outside_steps_s: float = 0.0  # program time in the loop outside steps
    loop_end: float = None        # perf_counter when a one-call loop returned
    bytes_per_snapshot: float = 0.0


def _max_abs(a):
    return float(np.max(np.abs(a)))


def _translated(fn, shift):
    """fn evaluated at x - shift, wrapped back into the periodic box."""
    shift = np.asarray(shift, dtype=float)

    def moved(points):
        return fn(np.mod(points - shift, TWO_PI))

    return moved


def _element_shift(seed, n, dim):
    """A random translation by whole elements of a periodic [0, 2pi]^dim box.

    Every seed then poses the same discrete problem up to a relabelling of
    the nodes, so the solver's iteration counts, and with them the work per
    step, do not depend on the seed while the data it sees does.
    """
    rng = np.random.default_rng(seed)
    return rng.integers(0, n, dim) * (TWO_PI / n)


def _energy(mass, data, volume):
    """0.5 * sum_k M u_k^2 / |Omega|: the collocated-GLL kinetic energy."""
    return 0.5 * float(np.sum(mass * data * data)) / volume


class Tgv3dP4:
    """3D Taylor-Green vortex, Re 1600, 8^3 GLL P4 elements, via Stepper."""

    name = "tgv3d-p4"
    warmup = 2
    min_rounds = 7

    def __init__(self, lf, seed, smoke=False):
        self.lf = lf
        self.n = 8
        self.p = 4
        self.shift = _element_shift(seed, self.n, 3)
        self.steps = 4 if smoke else 8
        self.record_every = 8
        self.nu = 1.0 / 1600.0
        self.n_dofs = (self.n * self.p) ** 3

    @staticmethod
    def _tgv(points):
        x, y, z = points[:, 0], points[:, 1], points[:, 2]
        return np.stack([np.sin(x) * np.cos(y) * np.cos(z),
                         -np.cos(x) * np.sin(y) * np.cos(z),
                         np.zeros_like(x)], axis=1)

    def round(self):
        lf = self.lf
        compute_record = lf.diagnostics.compute_record
        mesh = lf.build_structured_mesh(3, [(0.0, TWO_PI)] * 3, (self.n,) * 3,
                                        self.p, "gll", lf.mesh.periodic_tags(3))
        ops = lf.GlobalOperators(mesh)
        u = lf.VectorField.from_function(mesh, _translated(self._tgv, self.shift))
        dt = 0.15 * mesh.h_axes[0] / self.p
        stab = lf.StabilizationConfig("lps", 1.0)
        stepper = lf.Stepper(ops, lf.PhysicalParams(self.nu),
                             lf.TimeScheme(dt=dt, rk="ssprk3", cg_tol=1e-8),
                             stabilization=stab, convective_form="skew")
        rec = compute_record(ops, u, self.nu, stab, 0.0)
        res = RoundResult(self.steps)
        # Closed forms at t=0: E_k = 1/8 and zeta = 3/8 for unit amplitude.
        # The composite GLL rule integrates these low modes exactly, so E_k
        # sits at round-off; zeta carries the P4 curl-projection error.
        if abs(rec.E_k - 0.125) > 1e-13:
            res.errors.append(f"E_k(0)={rec.E_k!r}, expected 1/8")
        if abs(rec.zeta - 0.375) > 1e-7:
            res.errors.append(f"zeta(0)={rec.zeta!r}, expected 3/8")
        mass, vol = ops.lumped_mass, mesh.domain_volume
        e_prev = _energy(mass, u.data, vol)
        t = 0.0
        for i in range(self.steps):
            try:
                u, report = stepper.step(u, t)
            except (lf.SolverAbort, lf.LinearSolveError) as exc:
                res.failed = self.steps - i
                res.failures.append(f"step {i}: {exc}")
                break
            t = report.t
            if (i + 1) % self.record_every == 0:
                t0 = time.perf_counter()
                rec = compute_record(ops, u, self.nu, stab, t)
                res.outside_steps_s += time.perf_counter() - t0
                if not math.isfinite(rec.zeta):
                    res.errors.append(f"step {i}: non-finite record {rec}")
            if not np.all(np.isfinite(u.data)):
                res.errors.append(f"step {i}: non-finite velocity")
                continue
            e = _energy(mass, u.data, vol)
            if e > e_prev + 1e-12:
                res.errors.append(f"step {i}: E_k rose by {e - e_prev:.3e}")
            e_prev = e
        return res


class Shear2dP1:
    """The shear_layer preset (60x60 P1, inviscid) through lpsflow.app.run."""

    name = "shear2d-p1"
    warmup = 2
    min_rounds = 5
    width = math.pi / 15.0  # the preset's layer width and perturbation
    perturbation = 0.05

    def __init__(self, lf, seed, smoke=False, work_dir=None):
        self.lf = lf
        self.shift = _element_shift(seed, 60, 2)
        self.dt = 5e-3
        self.steps = 4 if smoke else 60
        self.every = 20
        self.snap_every = self.steps * self.dt / 4.0
        self.work_dir = Path(work_dir)
        self.n_dofs = 60 * 60
        self.exact_energy = self._exact_energy()

    def _profile(self, points):
        # Written out here rather than imported, so that the energy check
        # below does not depend on the program's own initial condition.
        x, y = points[:, 0], points[:, 1]
        u = np.where(y <= math.pi, np.tanh((y - math.pi / 2.0) / self.width),
                     np.tanh((1.5 * math.pi - y) / self.width))
        return np.stack([u, self.perturbation * np.sin(x)], axis=1)

    def _exact_energy(self):
        """Volume-averaged E_k of the translated profile by a fine rule."""
        m = 200_000
        s = np.arange(m) * (TWO_PI / m)
        pts = np.stack([s, s], axis=1)
        vel = _translated(self._profile, self.shift)(pts)
        # u depends on y only and v on x only: two periodic 1D trapezoid rules.
        return 0.5 * (np.mean(vel[:, 0] ** 2) + np.mean(vel[:, 1] ** 2))

    def round(self):
        out_dir = self.work_dir / "shear2d"
        shutil.rmtree(out_dir, ignore_errors=True)
        cfg = self.lf.config.RunConfig.resolve(overrides={
            ("case", "name"): "shear_layer",
            ("scheme", "t_end"): self.steps * self.dt,
            ("output", "dir"): str(out_dir),
            ("output", "snapshot_every"): self.snap_every,
            ("output", "snapshot_format"): "vtk",
        })
        res = RoundResult(self.steps)
        result = self.lf.app.run(
            cfg, initial_condition=_translated(self._profile, self.shift), log=None)
        res.loop_end = time.perf_counter()
        res.errors.extend(self._check(cfg, result, out_dir, res))
        return res

    def _check(self, cfg, result, out_dir, res):
        app = self.lf.app
        errors = []
        if (cfg.get("scheme", "dt") != self.dt
                or cfg.get("output", "every_steps") != self.every):
            errors.append("the shear_layer preset changed its dt or record cadence")
        if result.exit_code not in (app.EXIT_OK, app.EXIT_ABORT):
            return errors + [f"exit code {result.exit_code}: {result.message}"]
        with open(out_dir / "run.json") as fh:
            manifest = json.load(fh)
        if result.exit_code == app.EXIT_ABORT:
            res.failed = self.steps - manifest["n_steps"]
            res.failures.append(result.message)
            return errors
        if manifest.get("status") != "ok" or manifest.get("n_steps") != self.steps:
            errors.append(f"run.json status {manifest.get('status')!r}, "
                          f"n_steps {manifest.get('n_steps')!r}")
        lines = (out_dir / "diagnostics.csv").read_text().splitlines()
        if lines[0] != CSV_HEADER:
            errors.append(f"diagnostics header {lines[0]!r}")
        rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        n_records = 1 + sum(1 for k in range(1, self.steps + 1)
                            if k % self.every == 0 or k == self.steps)
        if rows.shape != (n_records, 6):
            errors.append(f"diagnostics has shape {rows.shape}, expected "
                          f"({n_records}, 6)")
            return errors
        # Inviscid skew-symmetric convection conserves energy and LPS only
        # removes it, so E_k never rises.
        rises = np.diff(rows[:, 1])
        if np.any(rises > 1e-12):
            errors.append(f"E_k rose by {rises.max():.3e} between records")
        # The sampled profile's derivative jumps where the two tanh branches
        # meet; that limits the solver's 60-point rule to ~3e-8 relative.
        exact = self.exact_energy
        if abs(rows[0, 1] - exact) > 1e-7 * exact:
            errors.append(f"E_k(0)={rows[0, 1]!r}, fine quadrature gives {exact!r}")
        snaps = manifest["outputs"]["snapshots"]
        n_snaps = 1 + math.floor(self.steps * self.dt / self.snap_every + 1e-9)
        files = [out_dir / s["file"] for s in snaps]
        if len(snaps) != n_snaps or not all(f.is_file() for f in files):
            errors.append(f"{len(snaps)} snapshots listed, expected {n_snaps}")
        else:
            res.bytes_per_snapshot = sum(f.stat().st_size for f in files) / n_snaps
        shutil.rmtree(out_dir, ignore_errors=True)
        return errors


class Channel2dP2:
    """Walled channel holding Poiseuille flow, 64x32 GLL P2, via Stepper."""

    name = "channel2d-p2"
    warmup = 2
    min_rounds = 5

    def __init__(self, lf, seed, smoke=False):
        self.lf = lf
        rng = np.random.default_rng(seed)
        self.U = float(rng.uniform(0.5, 1.5))
        self.nx, self.ny = (16, 8) if smoke else (64, 32)
        self.p = 2
        self.nu = 0.05
        self.dt = 5e-3
        self.steps = 4 if smoke else 30
        self.n_dofs = (self.nx * self.p + 1) * (self.ny * self.p + 1)

    def _poiseuille(self, points):
        y = points[:, 1]
        return np.stack([self.U * 4.0 * y * (1.0 - y), np.zeros_like(y)], axis=1)

    def round(self):
        lf = self.lf
        mesh = lf.build_structured_mesh(2, [(0.0, 2.0), (0.0, 1.0)],
                                        (self.nx, self.ny), self.p, "gll",
                                        lf.mesh.wall_tags(2))
        ops = lf.GlobalOperators(mesh)
        bdata = lf.build_boundary_data(mesh, wall_velocity=self._poiseuille)
        u = lf.VectorField.from_function(mesh, self._poiseuille)
        # euler1: the multistage schemes leave the walled pressure off by O(1).
        stepper = lf.Stepper(ops, lf.PhysicalParams(self.nu),
                             lf.TimeScheme(dt=self.dt, rk="euler1", cg_tol=1e-10),
                             boundary=bdata)
        exact = u.data.copy()
        # Exact pressure: -8 nu U x plus a constant.
        p_exact = -8.0 * self.nu * self.U * mesh.node_coords[:, 0]
        res = RoundResult(self.steps)
        t = 0.0
        for i in range(self.steps):
            try:
                u, report = stepper.step(u, t)
            except (lf.SolverAbort, lf.LinearSolveError) as exc:
                res.failed = self.steps - i
                res.failures.append(f"step {i}: {exc}")
                break
            t = report.t
            du = _max_abs(u.data - exact)
            dp = stepper.pressure.values - p_exact
            spread = float(np.max(dp) - np.min(dp))
            if not (du <= 1e-8 and _max_abs(u.data[1]) <= 1e-8 and spread <= 1e-8):
                res.errors.append(f"step {i}: |u-u_P|={du:.3e}, "
                                  f"p-p_P varies by {spread:.3e}")
        return res


WORKLOADS = {w.name: w for w in (Tgv3dP4, Shear2dP1, Channel2dP2)}
