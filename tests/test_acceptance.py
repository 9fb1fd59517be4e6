"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The heavy vortex reproductions are marked slow; run the full suite with
plain ``pytest`` (they are included by default) or skim with
``pytest -m "not slow"``.
"""

import numpy as np
import pytest

import lpsflow as lf
from lpsflow.boundary import (
    build_boundary_data,
    dong_smoothing,
    outflow_pressure_dirichlet,
    wall_pressure_neumann,
)
from lpsflow.cases import init_shear_layer, init_tgv2d, init_tgv3d
from lpsflow.diagnostics import kinetic_energy
from lpsflow.mesh import build_structured_mesh, wall_tags
from lpsflow.operators import GlobalOperators, ScalarField, VectorField
from lpsflow.stabilization import StabilizationConfig, lps_term
from lpsflow.stepper import (
    PhysicalParams,
    SolverAbort,
    Stepper,
    TimeScheme,
    solve_poisson,
)

from conftest import periodic_mesh
from oracles import DenseOracle, normal_traction_pressure


def report(num, name, ok, detail=""):
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} {detail}")
    return ok


def l2_error(mesh, nodal_diff):
    """L2 norm of the FE function with the given nodal coefficients."""
    oi = GlobalOperators(mesh, mesh.basis.over_integrated())
    if nodal_diff.ndim == 1:
        nodal_diff = nodal_diff[None, :]
    total = 0.0
    for row in nodal_diff:
        total += oi.integrate(oi.interp_to_quad(row) ** 2)
    return float(np.sqrt(total))


def l2_error_vs_function(mesh, nodal, fn):
    """True L2 distance between the FE function and a pointwise function."""
    oi = GlobalOperators(mesh, mesh.basis.over_integrated())
    pts = oi.quadrature_coords().reshape(-1, mesh.dim)
    fq = np.asarray(fn(pts)).reshape(oi.interp_to_quad(nodal).shape)
    return float(np.sqrt(oi.integrate((oi.interp_to_quad(nodal) - fq) ** 2)))


def fitted_slope(hs, errs):
    a = np.vstack([np.log(hs), np.ones(len(hs))]).T
    return float(np.linalg.lstsq(a, np.log(errs), rcond=None)[0][0])


# -- 1: spatial convergence of the pressure-Poisson machinery ----------------

@pytest.mark.parametrize("p,ns", [(1, (8, 16, 32)), (2, (4, 8, 16)),
                                  (3, (4, 8, 16)), (4, (4, 8, 16))])
def test_acceptance_1_spatial_convergence(p, ns):
    errs, hs = [], []
    for n in ns:
        mesh = periodic_mesh(2, n, p)
        ops = GlobalOperators(mesh)

        def exact(points):
            return np.sin(points[:, 0]) * np.sin(points[:, 1])

        rhs = ops.assemble_load(lambda pts: 2.0 * exact(pts))
        sol = solve_poisson(ops, rhs)
        # Fix the Neumann solve's free constant against the exact solution.
        shift = np.mean(sol.values - exact(mesh.node_coords))
        errs.append(l2_error_vs_function(mesh, sol.values - shift, exact))
        hs.append(mesh.h_axes[0])
    slope = fitted_slope(hs, errs)
    ok = abs(slope - (p + 1)) <= 0.3
    report(1, f"spatial convergence p={p}", ok,
           f"slope={slope:.2f} target={p + 1}±0.3 errs={errs}")
    assert ok


# -- 2: temporal convergence on the decaying 2D vortex -----------------------

def test_acceptance_2_temporal_convergence():
    mesh = periodic_mesh(2, 16, 4)
    ops = GlobalOperators(mesh)
    nu = 0.01
    u0, exact = init_tgv2d(mesh, V0=1.0, nu=nu)

    def advance(dt):
        scheme = TimeScheme(dt=dt, rk="heun2", cg_tol=1e-12,
                            diffusion_theta=0.5, cfl_limit=np.inf)
        st = Stepper(ops, PhysicalParams(nu), scheme)
        u, t = u0.copy(), 0.0
        for _ in range(round(1.0 / dt)):
            u, rep = st.step(u, t)
            t = rep.t
        return u, t

    dts = (0.5, 0.25, 0.125)
    ref, t_ref = advance(1.0 / 64.0)
    # The fixed-mesh solution carries a dt-independent spatial floor against
    # the analytic vortex; measuring against a time-refined solution of the
    # same discretization isolates the temporal error.
    floor = l2_error(mesh, ref.data - exact(t_ref))
    errs = [l2_error(mesh, advance(dt)[0].data - ref.data) for dt in dts]
    slope = fitted_slope(dts, errs)
    ok = slope >= 1.8
    report(2, "temporal convergence Heun2", ok,
           f"slope={slope:.2f} (>=1.8) errs={[f'{e:.2e}' for e in errs]} "
           f"spatial floor vs analytic={floor:.2e}")
    assert ok


# -- 3: shear-layer energy behavior -------------------------------------------

def run_shear_layer(form, mode, t_end=8.0, record_every=40):
    mesh = periodic_mesh(2, 60, 1)
    ops = GlobalOperators(mesh)
    u = init_shear_layer(mesh)
    stab = StabilizationConfig(mode, 1.0) if mode != "none" else None
    scheme = TimeScheme(dt=5e-3, rk="ssprk3", cg_tol=1e-8, cfl_limit=1.0)
    st = Stepper(ops, PhysicalParams(0.0), scheme, stabilization=stab,
                 convective_form=form)
    times = [0.0]
    energies = [kinetic_energy(ops, u)]
    t = 0.0
    aborted = None
    nsteps = round(t_end / scheme.dt)
    try:
        for i in range(nsteps):
            u, rep = st.step(u, t)
            t = rep.t
            if (i + 1) % record_every == 0 or i + 1 == nsteps:
                times.append(t)
                energies.append(kinetic_energy(ops, u))
    except SolverAbort as exc:
        aborted = (t, str(exc))
    return np.array(times), np.array(energies), aborted


@pytest.fixture(scope="session")
def shear_layer_runs():
    return {
        ("skew", "lps"): run_shear_layer("skew", "lps"),
        ("skew", "none"): run_shear_layer("skew", "none"),
        ("conservative", "none"): run_shear_layer("conservative", "none"),
        ("conservative", "lps"): run_shear_layer("conservative", "lps"),
    }


@pytest.mark.slow
def test_acceptance_3a_skew_lps_monotone(shear_layer_runs):
    times, ek, aborted = shear_layer_runs[("skew", "lps")]
    increases = np.diff(ek)
    ok = aborted is None and np.all(increases <= 1e-12)
    report(3, "a: skew+LPS energy nonincreasing", ok,
           f"max increase={increases.max():.2e} E0={ek[0]:.5f} E(8)={ek[-1]:.5f}")
    assert ok


@pytest.mark.slow
def test_acceptance_3b_skew_unstabilized_conserves_then_grows(shear_layer_runs):
    times, ek, aborted = shear_layer_runs[("skew", "none")]
    early = np.abs(ek[times <= 6.0 + 1e-9] - ek[0]) / ek[0]
    conserved = np.max(early) <= 1e-2
    grows = aborted is not None or ek[-1] > np.min(ek[times >= 6.0 - 1e-9])
    ok = conserved and grows
    report(3, "b: skew unstabilized conserves then grows", ok,
           f"max |dE|/E0 (t<=6)={np.max(early):.2e}, E(end)={ek[-1]:.5f}, "
           f"aborted={aborted}")
    assert ok


@pytest.mark.slow
def test_acceptance_3c_conservative_unstabilized_diverges(shear_layer_runs):
    times, ek, aborted = shear_layer_runs[("conservative", "none")]
    ok = aborted is not None and aborted[0] < 8.0
    report(3, "c: conservative unstabilized aborts before t_end", ok,
           f"aborted={aborted}")
    assert ok


@pytest.mark.slow
def test_acceptance_3d_conservative_lps_retains_more_energy(shear_layer_runs):
    _, ek_cons, aborted_cons = shear_layer_runs[("conservative", "lps")]
    _, ek_skew, aborted_skew = shear_layer_runs[("skew", "lps")]
    ok = (aborted_cons is None and aborted_skew is None
          and ek_cons[-1] >= ek_skew[-1])
    report(3, "d: conservative+LPS completes and retains more energy", ok,
           f"E_cons(8)={ek_cons[-1]:.6f} E_skew(8)={ek_skew[-1]:.6f}")
    assert ok


# -- 4/5: Taylor-Green vortex at 32^3 DoFs ------------------------------------

def run_tgv3d(p, n, spacing, t_end=20.0, record_every=5):
    mesh = build_structured_mesh(
        3, [(0.0, 2.0 * np.pi)] * 3, (n,) * 3, p, spacing,
        {f"{ax}_{side}": "periodic" for ax in "xyz" for side in ("min", "max")},
    )
    ops = GlobalOperators(mesh)
    u = init_tgv3d(mesh)
    nu = 1.0 / 1600.0
    h = mesh.h_axes[0]
    # Explicit advective stability scales with p^2/h for spectral elements,
    # so the h/p-based target must shrink at high order.
    target = 0.3 if p <= 2 else 0.15
    dt = target * h / p
    dt = t_end / np.ceil(t_end / dt)
    scheme = TimeScheme(dt=dt, rk="ssprk3", cg_tol=1e-8, cfl_limit=1.0)
    stab = StabilizationConfig("lps", 1.0)
    st = Stepper(ops, PhysicalParams(nu), scheme, stabilization=stab,
                 convective_form="skew")
    from lpsflow.diagnostics import compute_record

    recs = [compute_record(ops, u, nu, stab, 0.0)]
    t = 0.0
    nsteps = round(t_end / dt)
    for i in range(nsteps):
        u, rep = st.step(u, t)
        t = rep.t
        if (i + 1) % record_every == 0 or i + 1 == nsteps:
            recs.append(compute_record(ops, u, nu, stab, t))
    return recs


@pytest.fixture(scope="session")
def tgv3d_runs():
    return {
        "p1": run_tgv3d(1, 32, "gll"),
        "p2": run_tgv3d(2, 16, "gll"),
        "p4": run_tgv3d(4, 8, "gll"),
        "p2_lagrange": run_tgv3d(2, 16, "equispaced"),
    }


@pytest.mark.slow
def test_acceptance_4a_tgv_energy_monotone(tgv3d_runs):
    worst = {}
    for key in ("p1", "p2", "p4"):
        ek = np.array([r.E_k for r in tgv3d_runs[key]])
        worst[key] = float(np.max(np.diff(ek)))
    ok = all(v <= 1e-12 for v in worst.values())
    report(4, "a: TGV3D energy monotone nonincreasing", ok,
           f"max increases={worst}")
    assert ok


@pytest.mark.slow
def test_acceptance_4b_tgv_dissipation_peak_location(tgv3d_runs):
    peaks = {}
    for key in ("p1", "p2", "p4"):
        recs = tgv3d_runs[key]
        ts = np.array([r.t for r in recs])
        eps = np.array([r.eps for r in recs])
        k = int(np.argmax(eps))
        interior = eps[k] > eps[0] and eps[k] > eps[-1]
        peaks[key] = (float(ts[k]), interior)
    ok = all(7.0 <= tpk <= 11.0 and interior for tpk, interior in peaks.values())
    report(4, "b: dissipation-rate peak in t in [7, 11]", ok, f"peaks={peaks}")
    assert ok


@pytest.mark.slow
def test_acceptance_4c_stab_power_decreases_with_order(tgv3d_runs):
    integrated = {}
    for key in ("p1", "p2", "p4"):
        recs = tgv3d_runs[key]
        ts = np.array([r.t for r in recs])
        sp = np.abs(np.array([r.stab_power for r in recs]))
        integrated[key] = float(np.trapezoid(sp, ts))
    ok = integrated["p1"] > integrated["p2"] > integrated["p4"]
    report(4, "c: integrated |stab power| decreases with order", ok,
           f"integrated={integrated}")
    assert ok


@pytest.mark.slow
def test_acceptance_5_p2_lagrange_matches_spectral(tgv3d_runs):
    ek_s = np.array([r.E_k for r in tgv3d_runs["p2"]])
    ek_l = np.array([r.E_k for r in tgv3d_runs["p2_lagrange"]])
    rel = np.max(np.abs(ek_l - ek_s) / ek_s)
    ok = rel <= 0.02
    report(5, "P2 Lagrange vs P2 spectral energy", ok,
           f"max pointwise rel diff={rel:.2e} (<=2%)")
    assert ok


# -- 6: natural-stabilization identity ----------------------------------------

def test_acceptance_6_natural_stabilization_identity(rng):
    mesh = periodic_mesh(2, 6, 2)
    ops = GlobalOperators(mesh)
    scheme = TimeScheme(dt=0.02, rk="heun2", cg_tol=1e-14, cfl_limit=np.inf)
    st = Stepper(ops, PhysicalParams(0.0), scheme)
    worst = 0.0
    for _ in range(20):
        u = VectorField(mesh, rng.standard_normal((2, mesh.n_dofs)))
        dt = 0.02
        p = st.solve_pressure(u, dt)
        u2 = st.correct(u, p, dt)
        lhs = ops.weak_divergence(u2).values
        rhs = dt * (-ops.weak_laplacian(p).values
                    - ops.weak_divergence(ops.project_gradient(p)).values)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))
                                 / max(np.max(np.abs(rhs)), 1e-300)))
    ok = worst <= 1e-11
    report(6, "natural-stabilization identity", ok,
           f"worst relative mismatch={worst:.2e} (<=1e-11), 20 random steps")
    assert ok


# -- 7: projection / LPS node identities ---------------------------------------

def test_acceptance_7_interior_node_identities(rng):
    mesh = periodic_mesh(2, 4, 3)
    ops = GlobalOperators(mesh)
    phi = rng.standard_normal(mesh.n_dofs)
    g = ops.project_gradient(ScalarField(mesh, phi))
    grads = ops.grad_at_quad(phi)  # collocated: quadrature points = nodes
    m = mesh.order + 1
    local = mesh.elem_to_dofs.reshape(mesh.n_elems, m, m)
    inner = local[:, 1:-1, 1:-1].ravel()
    scale = max(np.max(np.abs(grads[0])), 1.0)
    worst = 0.0
    for k in range(2):
        qk = grads[k].reshape(mesh.n_elems, m, m)[:, 1:-1, 1:-1].ravel()
        worst = max(worst, float(np.max(np.abs(g.data[k][inner] - qk))))
    node_ok = worst <= 1e-13 * scale

    single = build_structured_mesh(2, [(0.0, 1.0)] * 2, (1, 1), 4, "gll",
                                   wall_tags(2))
    ops1 = GlobalOperators(single)
    phi1 = ScalarField(single, rng.standard_normal(single.n_dofs))
    resid = lps_term(ops1, phi1, np.ones(1), 1.0).values
    lps_ok = np.max(np.abs(resid)) <= 1e-12 * max(np.max(np.abs(phi1.values)), 1.0)

    ok = node_ok and lps_ok
    report(7, "collocated projection node identity + single-element LPS", ok,
           f"node mismatch={worst:.2e}, single-element LPS residual="
           f"{np.max(np.abs(resid)):.2e}")
    assert ok


# -- 8: LPS error order ----------------------------------------------------------

@pytest.mark.parametrize("p", [1, 2, 3])
def test_acceptance_8_lps_error_order(p):
    # Stated rate p+1 for ||g_h(I_h phi) - grad I_h phi||_L2. The measured
    # rate is parity-dependent (p for odd p, p+1 for even p): the face jumps
    # of the interpolant's gradient, which dominate this norm, only cancel
    # to higher order for even p. See the decisions log; p = 1, 3 fail here
    # by that margin while the p = 2 rate meets the target.
    ns = (16, 32, 64) if p == 1 else (8, 16, 32)
    errs, hs = [], []
    for n in ns:
        mesh = periodic_mesh(2, n, p)
        ops = GlobalOperators(mesh)
        oi = GlobalOperators(mesh, mesh.basis.over_integrated())
        x, y = mesh.node_coords[:, 0], mesh.node_coords[:, 1]
        phi = ScalarField(mesh, np.sin(x) * np.sin(y))
        g = ops.project_gradient(phi)
        total = 0.0
        for k in range(2):
            gq = oi.interp_to_quad(g.data[k])
            dq = oi.grad_at_quad(phi.values)[k]
            total += oi.integrate((gq - dq) ** 2)
        errs.append(np.sqrt(total))
        hs.append(mesh.h_axes[0])
    slope = fitted_slope(hs, errs)
    ok = abs(slope - (p + 1)) <= 0.3
    report(8, f"LPS projection-difference order p={p}", ok,
           f"measured slope={slope:.2f}, stated target={p + 1}±0.3 "
           f"(parity-true rate={p + 1 if p % 2 == 0 else p})")
    assert ok


# -- 9: boundary-condition unit suite -------------------------------------------

def test_acceptance_9_boundary_condition_suite(rng):
    cfg = lf.OutflowConfig(U0=1.0, beta=0.1)
    s_half = dong_smoothing(0.0, cfg) == 0.5
    xs = rng.uniform(-30, 30, 200)
    sym = np.max(np.abs(dong_smoothing(-xs, cfg)
                        - (1.0 - dong_smoothing(xs, cfg)))) <= 1e-15

    tags = wall_tags(2)
    tags["x_max"] = "outflow"
    mesh = build_structured_mesh(2, [(0.0, 1.0)] * 2, (4, 4), 3, "gll", tags)
    ops = GlobalOperators(mesh)
    bd = build_boundary_data(mesh, lf.OutflowConfig(U0=1.0, beta=1e-3))
    data = 0.05 * rng.standard_normal((2, mesh.n_dofs))
    data[0] += 50.0  # strong outflow forces the backflow switch to zero
    u = VectorField(mesh, data)
    got = outflow_pressure_dirichlet(ops, bd, u, nu=0.41)
    want = normal_traction_pressure(ops, bd, u, nu=0.41)
    ids = bd.outflow_dofs
    traction_ok = np.max(np.abs(got[ids] - want[ids])) <= 1e-13 * max(
        1.0, float(np.max(np.abs(want[ids])))
    )

    # Rotational-form flux vs the analytic double curl under refinement.
    nu = 0.3
    errs = []
    for n in (4, 8, 16):
        wmesh = build_structured_mesh(2, [(0.0, np.pi)] * 2, (n, n), 3,
                                      "gll", wall_tags(2))
        wops = GlobalOperators(wmesh)
        wbd = build_boundary_data(wmesh)
        y = wmesh.node_coords[:, 1]
        uw = VectorField(wmesh, np.stack([np.sin(y), np.zeros(wmesh.n_dofs)]))
        flux = wall_pressure_neumann(wops, wbd, uw, nu)
        fx = wmesh.boundary_faces["x_min"]
        want_f = nu * np.sin(y[fx.dof_ids])
        errs.append(float(np.max(np.abs(flux["x_min"] - want_f))))
    slope = fitted_slope([np.pi / n for n in (4, 8, 16)], errs)
    flux_ok = slope >= 3 - 1 - 0.5  # O(h^{p-1}) with margin, p = 3

    ok = bool(s_half and sym and traction_ok and flux_ok)
    report(9, "boundary-condition unit suite", ok,
           f"S0(0)=0.5:{s_half} symmetry<=1e-15:{sym} "
           f"traction reduction:{traction_ok} flux slope={slope:.2f}")
    assert ok


# -- 10: dense brute-force oracle equivalence ------------------------------------

def test_acceptance_10_dense_oracle_equivalence():
    mesh = periodic_mesh(2, 8, 1)
    u = init_shear_layer(mesh)
    dense = DenseOracle(mesh)
    dt = 5e-3
    worst = 0.0
    for form in ("conservative", "nonconservative", "skew"):
        for mode in ("upwind", "lps"):
            stab = StabilizationConfig(mode, 1.0)
            scheme = TimeScheme(dt=dt, rk="euler1", cg_tol=1e-10,
                                cfl_limit=np.inf)
            st = Stepper(GlobalOperators(mesh), PhysicalParams(0.0), scheme,
                         stabilization=stab, convective_form=form)
            got = st.predict(u).data
            want = dense.predict(u.data, dt, form, mode)
            worst = max(worst, float(np.max(np.abs(got - want))))
    ok = worst <= 1e-12
    report(10, "predict matches dense brute-force assembly", ok,
           f"worst abs mismatch={worst:.2e} over 3 forms x 2 modes")
    assert ok
