"""Boundary conditions: velocity walls, pressure Neumann data, outflow.

Walls impose the velocity strongly and feed the pressure Poisson problem a
Neumann datum in rotational form, dp/dn = -nu n . curl(curl u), formed
from the face slices and the rows next to them, so its cost is sized by
the faces. Outflow boundaries get a traction-derived pressure Dirichlet
value with a tanh-smoothed compensation that switches on under backflow;
no velocity condition is applied there.

Corner precedence: where a wall meets an outflow, the outflow pressure
Dirichlet wins for p and the wall value wins for the velocity.
"""

import math
from dataclasses import dataclass

import numpy as np

from .basis import apply_kron
from .mesh import BoundaryTag
from .operators import GlobalOperators, ScalarField, VectorField, _nonzero_band

__all__ = [
    "OutflowConfig",
    "BoundaryData",
    "build_boundary_data",
    "dong_smoothing",
    "wall_pressure_neumann",
    "poisson_boundary_term",
    "outflow_pressure_dirichlet",
    "apply_velocity_dirichlet",
]


@dataclass(frozen=True)
class OutflowConfig:
    """Characteristic speed and smoothing width of the backflow switch."""

    U0: float = 1.0
    beta: float = 0.1

    def __post_init__(self):
        for name in ("U0", "beta"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")


def _union_dofs(mesh, faces):
    """Ascending DoF ids on any of ``faces``, shared edges counted once.
    (A mask, not np.unique, which imports numpy.ma: ~1.7 MB of RSS on
    numpy 2.4.)"""
    on = np.zeros(mesh.n_dofs, dtype=bool)
    for f in faces:
        on[f.dof_ids] = True
    return np.flatnonzero(on)


class BoundaryData:
    """Tagged boundary DoFs with normals and prescribed wall velocities."""

    def __init__(self, mesh, wall_faces, outflow_faces, wall_values,
                 outflow_cfg):
        self.mesh = mesh
        self.wall_faces = wall_faces
        self.outflow_faces = outflow_faces
        self.outflow_cfg = outflow_cfg
        self.wall_values = wall_values  # (dim, ndofs), meaningful on walls
        self.wall_dofs = _union_dofs(mesh, wall_faces)
        self.outflow_dofs = _union_dofs(mesh, outflow_faces)

    @property
    def has_walls(self):
        return len(self.wall_faces) > 0

    @property
    def has_outflow(self):
        return len(self.outflow_faces) > 0


def build_boundary_data(mesh, outflow_cfg: OutflowConfig = None,
                        wall_velocity=None) -> BoundaryData:
    """Collect the mesh's tagged faces into solver-ready boundary data.

    ``wall_velocity`` is an optional callable points -> (npts, dim) giving
    the prescribed velocity on walls (default no-slip).
    """
    wall_faces = [f for f in mesh.boundary_faces.values()
                  if f.tag is BoundaryTag.DIRICHLET_WALL]
    outflow_faces = [f for f in mesh.boundary_faces.values()
                     if f.tag is BoundaryTag.OUTFLOW]
    if outflow_faces and outflow_cfg is None:
        outflow_cfg = OutflowConfig()
    values = np.zeros((mesh.dim, mesh.n_dofs))
    if wall_velocity is not None:
        for f in wall_faces:
            pts = mesh.node_coords[f.dof_ids]
            values[:, f.dof_ids] = np.asarray(wall_velocity(pts)).T
    return BoundaryData(mesh, wall_faces, outflow_faces, values, outflow_cfg)


def dong_smoothing(u_n, cfg: OutflowConfig):
    """Backflow indicator S0 = (1 - tanh(u_n / (U0 beta))) / 2.

    Smoothly 1 for inflow (u_n < 0) and 0 for outflow; exactly 1/2 at
    u_n = 0. Vectorizes over arrays of normal velocities.
    """
    return 0.5 * (1.0 - np.tanh(np.asarray(u_n, dtype=float) / (cfg.U0 * cfg.beta)))


def wall_pressure_neumann(ops: GlobalOperators, bdata: BoundaryData,
                          u: VectorField, nu: float):
    """Rotational-form pressure flux on every wall face.

    Returns {face name: flux at face.dof_ids} with
    flux = -nu n . curl(curl u), both curls by lumped projection, from the
    latest available velocity (the end-of-stage estimate). On a face normal
    to axis a, (curl curl u)_a is the sum over tangent axes b of
    d/dx_b (d u_b/dx_a - d u_a/dx_b), in 2D and 3D. That vorticity is formed
    only on the rows where M1 couples to the face (the face itself at a
    collocated rule, else its element's p + 1 layers), from partials there
    (:meth:`GlobalOperators.partial_near`): the work is sized by the face.
    """
    mesh = ops.mesh
    if mesh.dim < 2:
        raise ValueError("rotational pressure condition needs dim >= 2")
    out = {}
    for f in bdata.wall_faces:
        a, i = f.axis, f.side * (mesh.dofs_per_axis[f.axis] - 1)
        near = _nonzero_band(ops.axis_matrices[a][1][i])
        cc = 0.0
        for b in range(mesh.dim):
            if b != a:
                w = ops.partial_near(u.data[b], a, a, near)
                w -= ops.partial_near(u.data[a], b, a, near)
                cc = cc + ops.partial_near(w, b, a, slice(i, i + 1))
        out[f.name] = (-nu * f.normal[a]) * cc.ravel()
    return out


def poisson_boundary_term(ops: GlobalOperators, bdata: BoundaryData,
                          flux_by_face, out=None) -> ScalarField:
    """Accumulate the wall Neumann surface integral into a global residual:
    into ``out`` (n_dofs,) at the face DoFs if given, else into zeros.

    A face is a slice of the DoF grid, and its mass is the product of the
    tangent axes' 1D masses M1, so entry i is the face integral of l_i g.
    In 1D the face is a point of unit measure.
    """
    mesh = ops.mesh
    out = np.zeros(mesh.n_dofs) if out is None else out
    for f in bdata.wall_faces:
        flux = flux_by_face.get(f.name)
        if flux is None:
            continue
        tangents = [k for k in reversed(range(mesh.dim)) if k != f.axis]
        x = apply_kron([ops._axis_masses[k] for k in tangents],
                       np.reshape(flux, [mesh.dofs_per_axis[k] for k in tangents]))
        out[f.dof_ids] += x.ravel()
    return ScalarField(mesh, out)


def outflow_pressure_dirichlet(ops: GlobalOperators, bdata: BoundaryData,
                               u: VectorField, nu: float):
    """Pressure values on the outflow DoFs derived from the traction balance.

    p = nu n.((grad u + grad u^T) n) - |u|^2 S0(n.u) / 2 with the velocity
    gradient by lumped projection. Returns a full-length array, meaningful
    on ``bdata.outflow_dofs``.
    """
    vals = np.zeros(ops.mesh.n_dofs)
    # A face normal to axis a has n = +-e_a, so u_n = n_a u_a and
    # n.((grad u + grad u^T) n) = 2 du_a/dx_a: one partial per outflow axis.
    dudx = {} if nu == 0.0 else {
        a: ops.projected_partial(u.data[a], a)
        for a in {f.axis for f in bdata.outflow_faces}}
    for f in bdata.outflow_faces:
        ids, a = f.dof_ids, f.axis
        s0 = dong_smoothing(f.normal[a] * u.data[a, ids], bdata.outflow_cfg)
        p = -0.5 * np.sum(u.data[:, ids]**2, axis=0) * s0
        if nu != 0.0:
            p += nu * (2.0 * dudx[a][ids])
        vals[ids] = p
    return vals


def apply_velocity_dirichlet(u: VectorField, bdata: BoundaryData) -> VectorField:
    """Overwrite wall DoFs with the prescribed velocity (in place)."""
    if bdata.has_walls:
        ids = bdata.wall_dofs
        u.data[:, ids] = bdata.wall_values[:, ids]
    return u
