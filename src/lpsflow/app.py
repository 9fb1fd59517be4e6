"""Scenario driver: build the case, march in time, write outputs.

Every run produces ``diagnostics.csv`` (always) plus optional field
snapshots and a ``run.json`` manifest echoing the fully resolved
configuration together with package/build identifiers, so the run can be
reproduced exactly.
"""

import json
import math
import platform
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .cases import PRESETS
from .config import ConfigError, RunConfig
from .diagnostics import compute_record, write_csv
from .mesh import build_structured_mesh
from .operators import GlobalOperators, VectorField
from .snapshot import write_snapshot
from .stepper import LinearSolveError, SolverAbort, Stepper, solve_poisson

__all__ = ["RunResult", "run", "build_mesh", "initial_velocity"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ABORT = 3


@dataclass
class RunResult:
    exit_code: int
    out_dir: Path
    records: list = field(default_factory=list)
    manifest_path: Path = None
    message: str = ""


def build_mesh(cfg: RunConfig):
    """Mesh for the configured case (:meth:`RunConfig.mesh_request`)."""
    return build_structured_mesh(**cfg.mesh_request())


def initial_velocity(cfg: RunConfig, mesh):
    """The configured case's built-in initial velocity on ``mesh``."""
    make = PRESETS[cfg.case].initial_velocity
    if make is None:
        raise ConfigError(
            f"case {cfg.case!r} has no built-in initial condition; pass one "
            "through the library API (run(cfg, initial_condition=...))")
    return make(mesh, cfg)


def _git_revision():
    here = Path(__file__).resolve().parent
    try:
        out = subprocess.run(
            ["git", "-C", str(here), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _base_manifest(cfg: RunConfig):
    return {
        "package": "lpsflow",
        "version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git": _git_revision(),
        "config": cfg.as_nested_dict(),
    }


def _write_manifest(path, manifest):
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _run_manufactured_poisson(cfg: RunConfig, out_dir: Path, log):
    """Solve -lap(p) = f with p = product of sines; record the L2 error."""
    mesh = build_mesh(cfg)
    ops = GlobalOperators(mesh)
    dim = mesh.dim

    def exact(points):
        out = np.ones(points.shape[0])
        for k in range(dim):
            out *= np.sin(points[:, k])
        return out

    def forcing(points):
        return dim * exact(points)

    rhs = ops.assemble_load(forcing)
    p = solve_poisson(ops, rhs)
    ref = GlobalOperators(mesh, mesh.basis.over_integrated())
    diff = p.values - exact(mesh.node_coords)
    diff -= diff.mean()
    err = math.sqrt(ref.integrate(ref.interp_to_quad(diff) ** 2))
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "errors.csv", "w") as fh:
        fh.write("n,p,l2_error\n")
        fh.write(f"{cfg.get('mesh', 'n')[0]},{cfg.get('mesh', 'p')},"
                 f"{err:.17g}\n")
    manifest = _base_manifest(cfg)
    manifest.update({"status": "ok", "l2_error": err})
    mpath = out_dir / "run.json"
    _write_manifest(mpath, manifest)
    log(f"manufactured Poisson: L2 error {err:.6e} (direct solve)")
    return RunResult(EXIT_OK, out_dir, [], mpath, f"l2_error={err:.6e}")


def run(cfg: RunConfig, initial_condition=None, log=print):
    """Execute one configured run; returns a RunResult with the exit code.

    ``initial_condition`` is a point function points -> (npts, dim) for the
    velocity at t = 0; without it the case's built-in one is used. A case
    without one raises :class:`ConfigError` before the output directory is
    made.
    """
    out_dir = Path(cfg.output_dir())
    if log is None:
        def log(_msg):
            return None

    if not PRESETS[cfg.case].steps:
        return _run_manufactured_poisson(cfg, out_dir, log)

    mesh = build_mesh(cfg)
    if initial_condition is None:
        u = initial_velocity(cfg, mesh)
    else:
        u = VectorField.from_function(mesh, initial_condition)
    out_dir.mkdir(parents=True, exist_ok=True)

    ops = GlobalOperators(mesh)
    physics = cfg.physical_params()
    scheme = cfg.time_scheme()
    stab = cfg.stabilization_config()
    stepper = Stepper(
        ops, physics, scheme, stabilization=stab,
        convective_form=cfg.get("scheme", "convective_form"),
    )

    t_end = scheme.t_end
    dt = scheme.dt
    every = max(1, cfg.get("output", "every_steps"))
    snap_every = cfg.get("output", "snapshot_every")
    snap_fmt = cfg.get("output", "snapshot_format")
    snapshots = []

    def maybe_snapshot(k_index, t):
        name = f"snapshot_{k_index:05d}.{snap_fmt}"
        path = out_dir / name
        write_snapshot(path, mesh, velocity=u, pressure=stepper.pressure,
                       fmt=snap_fmt)
        snapshots.append({"t": t, "file": name})

    records = [compute_record(ops, u, physics.nu, stab, 0.0)]
    if snap_every > 0.0:
        maybe_snapshot(0, 0.0)
    next_snap = 1

    manifest = _base_manifest(cfg)
    started = time.perf_counter()
    n_steps = max(1, math.ceil(t_end / dt - 1e-9))
    status, message = "ok", ""
    t = 0.0
    step_index = 0
    try:
        while step_index < n_steps:
            # Land exactly on t_end when dt does not divide it.
            if t_end - t < dt * (1.0 - 1e-12):
                u, _ = stepper.step(u, t, t_end - t)
            else:
                u, _ = stepper.step(u, t)
            step_index += 1
            t = step_index * dt if step_index < n_steps else t_end
            is_last = step_index == n_steps
            if step_index % every == 0 or is_last:
                records.append(compute_record(ops, u, physics.nu, stab, t))
                log(f"t={t:9.4f}  E_k={records[-1].E_k:.8f}  "
                    f"div={records[-1].div_norm:.3e}")
            if snap_every > 0.0 and t + 1e-12 >= next_snap * snap_every:
                maybe_snapshot(next_snap, t)
                next_snap += 1
    except (SolverAbort, LinearSolveError) as exc:
        status = "aborted"
        message = f"{exc} (last completed time t={t:.6g})"
        records.append(compute_record(ops, u, physics.nu, stab, t))
        log(f"solver abort: {message}")

    write_csv(out_dir / "diagnostics.csv", records)
    manifest.update({
        "status": status,
        "abort_message": message or None,
        "t_final": t,
        "n_steps": step_index,
        "wall_seconds": time.perf_counter() - started,
        "outputs": {"diagnostics": "diagnostics.csv", "snapshots": snapshots},
    })
    mpath = out_dir / "run.json"
    _write_manifest(mpath, manifest)
    code = EXIT_OK if status == "ok" else EXIT_ABORT
    return RunResult(code, out_dir, records, mpath, message)
