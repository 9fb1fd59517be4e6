"""Benchmark of lpsflow: one workload per process, untraced or traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

It imports lpsflow from ``src/`` of the tree it lives in, with BLAS pinned to
one thread, and runs whole rounds of the workload (``workloads.py``) until
``--seconds`` have passed and at least the workload's minimum number of
rounds is done. The last line printed is one JSON object: ``correct``,
``attempted`` and ``failed`` operations (one operation = one time step plus
its checks) and ``metrics``.

``--trace 0`` reports the end-to-end metrics, with one clock pair around
each ``Stepper.step``. Times are scaled to the uncontended speed of the box
by a reference kernel run just before each step and each set-up (see
``Reference``). ``--trace 1`` runs a warm-up round, then untraced and traced
rounds in turn; for a traced round it wraps the public functions and methods
of every lpsflow module (``spans.py``). It reports the per-layer metrics of
the traced rounds and the tracing overhead against the untraced ones.
``--smoke`` shrinks every workload to a few steps, for the smoke test.
"""

import os

# Pin BLAS and OpenMP pools to one thread before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("LPSFLOW_OUTPUT_DIR", None)  # would redirect the app's output
# The app records `git rev-parse HEAD`; keep git from searching above the tree.
os.environ["GIT_CEILING_DIRECTORIES"] = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import argparse  # noqa: E402
import functools  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
STEP_SPAN = "stepper.Stepper.step"
MODULES = ("basis", "mesh", "operators", "stabilization", "boundary", "stepper",
           "diagnostics", "snapshot", "cases", "config", "app")


def import_program():
    """Import lpsflow from this tree's src/, never from anywhere else."""
    pkg = ROOT / "src" / "lpsflow"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"bench: no lpsflow sources at {pkg}")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    lf = importlib.import_module("lpsflow")
    if Path(lf.__file__).resolve().parent != pkg:
        raise SystemExit(f"bench: lpsflow was imported from {lf.__file__}")
    for name in MODULES:
        importlib.import_module(f"lpsflow.{name}")
    return lf


class Reference:
    """A fixed numpy kernel whose wall time tracks the box's current speed.

    Gathers, small and dense matrix products and a ``bincount`` scatter, the
    operations lpsflow's steps are made of, on fixed inputs (~2 ms). Run just
    before every step and every set-up, it gives the factor by which
    contention from the rest of the machine slowed that moment down.
    """

    QUIET_S = 2.2e-3  # its fastest wall time on the box the figures come from

    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.random(3600)
        self.idx = rng.integers(0, 3600, (3600, 4)).ravel()
        self.small = rng.random((4, 4))
        self.block = rng.random((512, 125))
        self.dense = rng.random((125, 125))

    def __call__(self):
        t0 = time.perf_counter()
        for _ in range(16):
            local = self.x[self.idx].reshape(3600, 4) @ self.small
            np.bincount(self.idx, weights=local.ravel(), minlength=3600)
        for _ in range(4):
            self.block @ self.dense
        return time.perf_counter() - t0


class StepClock:
    """One clock pair around every ``Stepper.step``, after a reference run.

    With ``tracer`` set, the step and the reference run are recorded as
    spans too; the reference run stays outside the step's span.
    """

    def __init__(self, stepper_cls, reference):
        self.wall, self.ref, self.reports = [], [], []
        self.start = []
        self.tracer = None
        step = stepper_cls.step

        @functools.wraps(step)
        def timed_step(stepper, u, t):
            tracer = self.tracer
            if tracer is None:
                ref = reference()
            else:
                # Its own span, so that it is not counted in the self time
                # of the program call around this step (app.run).
                tracer.begin("bench.Reference")
                ref = reference()
                tracer.end()
                tracer.begin(STEP_SPAN)
            t0 = time.perf_counter()
            try:
                out = step(stepper, u, t)
            finally:
                t1 = time.perf_counter()
                if tracer is not None:
                    tracer.end()
            self.ref.append(ref)
            self.start.append(t0)
            self.wall.append(t1 - t0)
            self.reports.append(out[1])
            return out

        stepper_cls.step = timed_step


class Round:
    """The timings of one round, taken from the clock's lists at ``k0``."""

    def __init__(self, result, clock, k0, t_begin, setup_ref):
        self.result = result
        self.wall = clock.wall[k0:]
        self.ref = clock.ref[k0:]
        self.reports = clock.reports[k0:]
        first = clock.start[k0] if len(clock.start) > k0 else time.perf_counter()
        # The first step's reference run sits between set-up and step.
        self.setup_s = first - t_begin - (clock.ref[k0] if self.ref else 0.0)
        self.setup_ref = setup_ref
        if result.loop_end is not None:
            self.outside_s = (result.loop_end - first - sum(self.wall)
                              - sum(self.ref[1:]))
        else:
            self.outside_s = result.outside_steps_s


def run_rounds(workload, clock, reference, seconds, min_rounds):
    rounds = []
    began = time.perf_counter()
    while len(rounds) < min_rounds or time.perf_counter() - began < seconds:
        k0 = len(clock.wall)
        setup_ref = reference()
        t_begin = time.perf_counter()
        rounds.append(Round(workload.round(), clock, k0, t_begin, setup_ref))
    return rounds


def at_quiet_speed(seconds, ref_seconds):
    """A wall time scaled to the reference kernel's uncontended speed."""
    return seconds * Reference.QUIET_S / ref_seconds


def scaled_steps(workload, rounds):
    return [at_quiet_speed(w, r) for rd in rounds
            for w, r in zip(rd.wall[workload.warmup:], rd.ref[workload.warmup:])]


def step_ms(workload, rounds):
    """Median scaled wall time of the timed (post-warm-up) steps, in ms."""
    return 1e3 * statistics.median(scaled_steps(workload, rounds))


def tail_percentile(workload, min_rounds):
    """Highest whole percentile with >= 10 timed steps beyond it, for the
    fewest timed steps a run can have."""
    n_min = min_rounds * (workload.steps - workload.warmup)
    return max(1, math.floor(100.0 * (1.0 - 10.0 / n_min)))


def end_to_end(workload, rounds, min_rounds):
    steps = scaled_steps(workload, rounds)
    q = tail_percentile(workload, min_rounds)
    loops = [sum(at_quiet_speed(w, r) for w, r in zip(rd.wall, rd.ref))
             + at_quiet_speed(rd.outside_s, statistics.median(rd.ref))
             for rd in rounds]
    metrics = {
        "step_ms": (1e3 * statistics.median(steps), "ms"),
        "step_ms_tail": (1e3 * statistics.quantiles(steps, n=100,
                                                    method="inclusive")[q - 1], "ms"),
        "dof_steps_per_s": (workload.n_dofs * workload.steps / statistics.median(loops),
                            "dof-steps/s"),
        "setup_s": (statistics.median(at_quiet_speed(rd.setup_s, rd.setup_ref)
                                      for rd in rounds), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB"),
    }
    raw = [w for rd in rounds for w in rd.wall[workload.warmup:]]
    refs = [r for rd in rounds for r in rd.ref]
    note = (f"{len(rounds)} rounds x {workload.steps} steps; step_ms_tail is p{q} "
            f"of {len(steps)} timed steps; unscaled median step "
            f"{1e3 * statistics.median(raw):.4g} ms; reference kernel median "
            f"{1e3 * statistics.median(refs):.4g} ms, min {1e3 * min(refs):.4g} ms")
    return metrics, note


def per_layer(workload, rounds, summary, untraced_ms):
    n_steps = sum(len(r.wall) for r in rounds)
    reports = [rep for r in rounds for rep in r.reports]
    step_s = summary[STEP_SPAN]["total_s"]
    traced_ms = step_ms(workload, rounds)

    def row(span):
        return summary.get(span, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                  "in_step_calls": 0, "in_step_s": 0.0})

    def per_call(span, scale, key="total_s"):
        r = row(span)
        return scale * r[key] / r["calls"] if r["calls"] else 0.0

    def share(span):
        return row(span)["in_step_s"] / step_s

    def calls_per_step(span):
        return row(span)["in_step_calls"] / n_steps

    ops, st, stab = "operators.GlobalOperators.", "stepper.Stepper.", "stabilization."
    solves = [n for rep in reports for n in rep.poisson_iters]
    m = {
        "stepper.solve_pressure_ms": (per_call(st + "solve_pressure", 1e3), "ms"),
        "stepper.solve_pressure_share": (share(st + "solve_pressure"), "fraction"),
        "stepper.poisson_iters_per_solve": (sum(solves) / len(solves), "iters"),
        "stepper.conjugate_gradient_calls_per_step": (
            calls_per_step("stepper.conjugate_gradient"), "1/step"),
        "operators.weak_laplacian_us": (per_call(ops + "weak_laplacian", 1e6), "us"),
        "operators.weak_laplacian_calls_per_step": (
            calls_per_step(ops + "weak_laplacian"), "1/step"),
    }
    for kernel in ("weak_gradient", "weak_divergence", "project_gradient",
                   "convective_term", "weak_div_flux", "grad_at_quad",
                   "interp_to_quad", "curl", "symmetric_gradient_stiffness"):
        m[f"operators.{kernel}_us"] = (per_call(ops + kernel, 1e6), "us")
    m.update({
        "stepper.inviscid_rhs_ms": (per_call(st + "inviscid_rhs", 1e3), "ms"),
        "stepper.inviscid_rhs_share": (share(st + "inviscid_rhs"), "fraction"),
        "stabilization.momentum_stabilization_ms": (
            per_call(stab + "momentum_stabilization", 1e3), "ms"),
        "stabilization.lps_term_ms": (per_call(stab + "lps_term", 1e3), "ms"),
        "stabilization.upwind_viscosity_us": (
            per_call(stab + "upwind_viscosity", 1e6), "us"),
        "stabilization.calls_per_step": (
            calls_per_step(stab + "momentum_stabilization"), "1/step"),
        "stepper.diffuse_ms": (per_call(st + "diffuse", 1e3), "ms"),
        "stepper.diffuse_share": (share(st + "diffuse"), "fraction"),
        "stepper.diffusion_iters_per_step": (
            sum(rep.diffusion_iters for rep in reports) / len(reports), "iters"),
        "stepper.correct_ms": (per_call(st + "correct", 1e3), "ms"),
        "stepper.check_cfl_us": (per_call(st + "check_cfl", 1e6), "us"),
        "boundary.wall_pressure_neumann_ms": (
            per_call("boundary.wall_pressure_neumann", 1e3), "ms"),
        "boundary.poisson_boundary_term_ms": (
            per_call("boundary.poisson_boundary_term", 1e3), "ms"),
        "boundary.apply_velocity_dirichlet_us": (
            per_call("boundary.apply_velocity_dirichlet", 1e6), "us"),
        "diagnostics.divergence_norm_us": (
            per_call("diagnostics.divergence_norm", 1e6), "us"),
        "diagnostics.step_divergence_share": (
            share("diagnostics.divergence_norm"), "fraction"),
        "diagnostics.compute_record_ms": (
            per_call("diagnostics.compute_record", 1e3), "ms"),
        "diagnostics.write_csv_ms": (per_call("diagnostics.write_csv", 1e3), "ms"),
        "snapshot.write_snapshot_ms": (
            per_call("snapshot.write_snapshot", 1e3), "ms"),
        "snapshot.bytes_per_snapshot": (
            statistics.fmean(r.result.bytes_per_snapshot for r in rounds), "B"),
        "app.run_self_ms": (per_call("app.run", 1e3, "self_s"), "ms"),
        "mesh.build_ms": (per_call("mesh.build_structured_mesh", 1e3), "ms"),
        "operators.setup_ms": (per_call(ops + "__init__", 1e3), "ms"),
        "stepper.step_traced_ms": (traced_ms, "ms"),
        "trace.overhead_pct": (100.0 * (traced_ms / untraced_ms - 1.0), "%"),
    })
    return m


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="a few steps per workload, one round per phase")
    args = ap.parse_args(argv)

    lf = import_program()
    import workloads
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r} "
                 f"(expected one of: {', '.join(workloads.WORKLOADS)})")
    cls = workloads.WORKLOADS[args.workload]
    run_dir = BENCH_DIR / "runs" / f"{args.workload}-{os.getpid()}"
    kwargs = {"work_dir": run_dir} if cls is workloads.Shear2dP1 else {}
    workload = cls(lf, args.seed, smoke=args.smoke, **kwargs)
    min_rounds = 1 if args.smoke else workload.min_rounds
    reference = Reference()
    clock = StepClock(lf.stepper.Stepper, reference)

    try:
        if args.trace:
            # A warm-up round, then untraced and traced rounds in turn, so
            # that drift during the run does not land on one side.
            rounds = run_rounds(workload, clock, reference, 0.0, 1)
            plain, traced = [], []
            tracer = Tracer()
            began = time.perf_counter()
            while (len(traced) < min_rounds
                   or time.perf_counter() - began < args.seconds):
                plain += run_rounds(workload, clock, reference, 0.0, 1)
                tracer.install(lf, MODULES, skip={STEP_SPAN})
                clock.tracer = tracer
                try:
                    traced += run_rounds(workload, clock, reference, 0.0, 1)
                finally:
                    clock.tracer = None
                    tracer.uninstall()
            summary = tracer.summary(STEP_SPAN)
            untraced_ms = step_ms(workload, plain)
            metrics = per_layer(workload, traced, summary, untraced_ms)
            rounds += plain + traced
            note = f"{len(tracer.spans)} spans over {len(traced)} traced rounds"
        else:
            rounds = run_rounds(workload, clock, reference, args.seconds,
                                min_rounds)
            metrics, note = end_to_end(workload, rounds, min_rounds)
            summary = None
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    errors = [e for r in rounds for e in r.result.errors]
    failures = [e for r in rounds for e in r.result.failures]
    result = {
        "correct": not errors,
        "attempted": sum(r.result.steps for r in rounds),
        "failed": sum(r.result.failed for r in rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    env = environment()
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out_file, "w") as fh:
        json.dump({"args": vars(args), "environment": env, "result": result,
                   "failures": failures, "errors": errors, "note": note,
                   "spans": summary}, fh, indent=1)
    for e in failures[:20]:
        print(f"operation failed: {e}", file=sys.stderr)
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    print(f"# {args.workload} seed {args.seed}: {note}; env {json.dumps(env)}")
    for k, (v, u) in metrics.items():
        print(f"# {k:45s} {v:14.6g} {u}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
