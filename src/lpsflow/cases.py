"""Benchmark initial conditions and their analytic companions."""

import numpy as np

from .operators import VectorField

__all__ = [
    "SHEAR_LAYER_WIDTH",
    "SHEAR_LAYER_PERTURBATION",
    "init_shear_layer",
    "init_tgv3d",
    "init_tgv2d",
]

SHEAR_LAYER_WIDTH = np.pi / 15.0
SHEAR_LAYER_PERTURBATION = 0.05

_TWO_PI = 2.0 * np.pi


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
