"""The whole step converges in h and in p: the paper's convergence claim
on the decaying 2D Taylor-Green vortex, with and without LPS.

Setup: [0, 2 pi]^2, nu = 0.01, to t = 0.5, ssprk3, theta = 0.5, skew form,
dt = 0.05 h/p snapped to divide t. The error is the L2 distance of u from
the exact decaying vortex, taken with the over-integrated rule.
"""

import math
from functools import lru_cache

import numpy as np
import pytest

from lpsflow.operators import GlobalOperators, VectorField
from lpsflow.stabilization import StabilizationConfig
from lpsflow.stepper import PhysicalParams, Stepper, TimeScheme

from conftest import periodic_mesh

NU, T_END = 0.01, 0.5


def _tgv(points, t):
    x, y = points[:, 0], points[:, 1]
    return np.exp(-2.0 * NU * t) * np.stack([np.sin(x) * np.cos(y),
                                             -np.cos(x) * np.sin(y)])


@lru_cache(maxsize=None)
def _error(n, p, mode):
    mesh = periodic_mesh(2, n, p)
    steps = math.ceil(T_END / (0.05 * min(mesh.h_axes) / p))
    scheme = TimeScheme(dt=T_END / steps, rk="ssprk3", diffusion_theta=0.5)
    stepper = Stepper(GlobalOperators(mesh), PhysicalParams(NU), scheme,
                      stabilization=StabilizationConfig(mode=mode),
                      convective_form="skew")
    u, t = VectorField(mesh, _tgv(mesh.node_coords, 0.0)), 0.0
    for _ in range(steps):
        u, report = stepper.step(u, t)
        t = report.t
    oi = GlobalOperators(mesh, mesh.basis.over_integrated())
    exact = _tgv(oi.quadrature_coords().reshape(-1, 2), t)
    return math.sqrt(sum(
        oi.integrate((oi.interp_to_quad(u.data[k]).ravel() - exact[k]) ** 2)
        for k in range(2)))


# Finest-pair slopes measured: with LPS 2.08, 2.96, 4.07, 4.70; without
# 2.00, 2.84, 4.47, 4.07 (P4 without is the tightest, margin 0.37).
@pytest.mark.parametrize("mode,gain", [("lps", 0.4), ("none", -0.3)])
@pytest.mark.parametrize("p,n", [(1, 32), (2, 16), (3, 8), (4, 8)])
def test_h_slope_on_the_finest_pair(mode, gain, p, n):
    slope = math.log2(_error(n, p, mode) / _error(2 * n, p, mode))
    assert slope >= p + gain, f"{mode} P{p}: slope {slope:.3f}"


# At 4^2 elements P8 sits on the time-step floor (4.2e-7; 1.2e-7 at dt/4),
# just above P7 (2.8e-7), so the orders compared are the even ones.
@pytest.mark.parametrize("mode", ["lps", "none"])
def test_error_decays_spectrally_in_p(mode):
    errs = [_error(4, p, mode) for p in (2, 4, 6, 8)]
    assert all(b < a for a, b in zip(errs, errs[1:])), errs
    assert errs[-1] / errs[0] <= 1e-5, errs
