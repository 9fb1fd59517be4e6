"""The run cases, one :class:`Case` row each in the table ``PRESETS``
that the configuration, the driver and the CLI read, and the built-in
initial conditions. A built-in initial velocity fixes its preset's dim."""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .operators import VectorField

__all__ = [
    "Case",
    "PRESETS",
    "SHEAR_LAYER_WIDTH",
    "SHEAR_LAYER_PERTURBATION",
    "init_shear_layer",
    "init_tgv3d",
    "init_tgv2d",
]

SHEAR_LAYER_WIDTH = np.pi / 15.0
SHEAR_LAYER_PERTURBATION = 0.05

_TWO_PI = 2.0 * np.pi  # the period of the built-in cases and of a config's box


def _require_periodic_box(mesh, dim, what):
    if mesh.dim != dim:
        raise ValueError(f"{what} needs a {dim}D mesh, got dim={mesh.dim}")
    if not all(mesh.periodic):
        raise ValueError(f"{what} needs fully periodic boundaries")
    for a, b in mesh.extents:
        if abs(a) > 1e-12 or abs(b - _TWO_PI) > 1e-12:
            raise ValueError(f"{what} is defined on [0, 2*pi]^{dim}")


def shear_layer_velocity(points):
    """Double tanh shear profile with a sinusoidal cross perturbation."""
    x = points[:, 0]
    y = points[:, 1]
    u = np.where(
        y <= np.pi,
        np.tanh((y - np.pi / 2.0) / SHEAR_LAYER_WIDTH),
        np.tanh((3.0 * np.pi / 2.0 - y) / SHEAR_LAYER_WIDTH),
    )
    v = SHEAR_LAYER_PERTURBATION * np.sin(x)
    return np.stack([u, v], axis=1)


def init_shear_layer(mesh) -> VectorField:
    """Nodal sampling of the doubly periodic shear-layer profile."""
    _require_periodic_box(mesh, 2, "the shear-layer case")
    return VectorField.from_function(mesh, shear_layer_velocity)


def init_tgv3d(mesh, V0=1.0) -> VectorField:
    """Taylor-Green vortex start: counter-rotating vortices, zero w."""
    _require_periodic_box(mesh, 3, "the Taylor-Green vortex case")

    def fn(points):
        x, y, z = points[:, 0], points[:, 1], points[:, 2]
        u = V0 * np.sin(x) * np.cos(y) * np.cos(z)
        v = -V0 * np.cos(x) * np.sin(y) * np.cos(z)
        w = np.zeros_like(x)
        return np.stack([u, v, w], axis=1)

    return VectorField.from_function(mesh, fn)


def init_tgv2d(mesh, V0=1.0, nu=0.0):
    """2D Taylor-Green start plus its closed-form decaying solution.

    Returns (field, exact) where exact(t) gives the nodal velocity array
    (2, ndofs) at time t: the vortex shape is steady and the amplitude
    decays like exp(-2 nu t).
    """
    _require_periodic_box(mesh, 2, "the 2D Taylor-Green case")
    x, y = mesh.node_coords[:, 0], mesh.node_coords[:, 1]
    base = np.stack([V0 * np.sin(x) * np.cos(y), -V0 * np.cos(x) * np.sin(y)])

    def exact(t):
        return base * np.exp(-2.0 * nu * t)

    return VectorField(mesh, base.copy()), exact


@dataclass(frozen=True)
class Case:
    """Preset ``values`` by (section, key); ``initial_velocity(mesh, cfg)``,
    None where the caller passes one; ``steps`` False for a one-off solve."""

    description: str
    values: dict
    initial_velocity: Optional[Callable] = None
    steps: bool = True


PRESETS = {
    "custom": Case(
        "library-defined mesh/initial condition (no built-in scenario)", {}),
    "shear_layer": Case(
        "Inviscid doubly periodic shear layer, 60x60 DoFs P1, t_end 8",
        {
            ("mesh", "dim"): 2, ("mesh", "n"): (60, 60), ("mesh", "p"): 1,
            ("mesh", "spacing"): "gll",
            ("physics", "nu"): 0.0,
            ("scheme", "dt"): 5e-3, ("scheme", "t_end"): 8.0,
            ("scheme", "rk"): "ssprk3",
            ("scheme", "convective_form"): "skew",
            ("stabilization", "stabilization"): "lps",
            ("output", "every_steps"): 20,
        },
        lambda mesh, cfg: init_shear_layer(mesh)),
    "tgv2d": Case(
        "2D Taylor-Green with analytic decay, temporal-accuracy case",
        {
            ("mesh", "dim"): 2, ("mesh", "n"): (16, 16), ("mesh", "p"): 4,
            ("mesh", "spacing"): "gll",
            ("physics", "nu"): 0.01,
            ("scheme", "dt"): 1.0 / 32.0, ("scheme", "t_end"): 1.0,
            ("scheme", "rk"): "heun2",
            ("scheme", "diffusion_theta"): 0.5,
            ("scheme", "convective_form"): "skew",
            ("stabilization", "stabilization"): "none",
            ("output", "every_steps"): 4,
        },
        lambda mesh, cfg: init_tgv2d(mesh, V0=cfg.get("physics", "V0"),
                                     nu=cfg.get("physics", "nu"))[0]),
    "tgv3d": Case(
        "3D Taylor-Green vortex at Re 1600, 32^3 DoFs by default",
        {
            ("mesh", "dim"): 3, ("mesh", "n"): (16, 16, 16), ("mesh", "p"): 2,
            ("mesh", "spacing"): "gll",
            ("physics", "Re"): 1600.0, ("physics", "V0"): 1.0, ("physics", "L0"): 1.0,
            ("scheme", "dt"): 0.0, ("scheme", "auto_dt_cfl"): 0.3,
            ("scheme", "t_end"): 20.0,
            ("scheme", "rk"): "ssprk3",
            ("scheme", "convective_form"): "skew",
            ("stabilization", "stabilization"): "lps",
            ("output", "every_steps"): 10,
        },
        lambda mesh, cfg: init_tgv3d(mesh, V0=cfg.get("physics", "V0"))),
    "manufactured_poisson": Case(
        "Manufactured periodic Poisson solve (writes the L2 error)",
        {("mesh", "dim"): 2, ("mesh", "n"): (16, 16), ("mesh", "p"): 2},
        steps=False),
}
