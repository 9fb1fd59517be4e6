"""Structured tensor-product meshes with shared global DoF numbering.

Axis-aligned boxes split into n_k uniform elements per axis, each carrying a
tensor-product nodal basis of order p. Global DoFs are numbered
lexicographically with x fastest (flat index = (iz*Ny + iy)*Nx + ix), and a
periodic axis identifies the DoF at b_k with the one at a_k.
"""

import enum
from dataclasses import dataclass

import numpy as np

from .basis import Basis1D, make_basis

__all__ = [
    "NameEnum",
    "BoundaryTag",
    "BoundaryFace",
    "Mesh",
    "build_structured_mesh",
    "check_mesh_request",
    "periodic_tags",
    "wall_tags",
    "face_names",
]

_AXIS_NAMES = ("x", "y", "z")


class NameEnum(enum.Enum):
    """An enum of names that also accepts its members' string values."""

    @classmethod
    def coerce(cls, value):
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).lower())
        except ValueError:
            names = ", ".join(m.value for m in cls)
            raise ValueError(
                f"unknown {cls.__name__} {value!r} (expected one of: {names})"
            ) from None


class BoundaryTag(NameEnum):
    PERIODIC = "periodic"
    DIRICHLET_WALL = "wall"
    OUTFLOW = "outflow"


class MeshError(ValueError):
    """Invalid mesh construction request."""


def face_names(dim):
    """The 2*dim face-set names of a dim-dimensional box, e.g. 'x_min'."""
    if dim not in (1, 2, 3):
        raise MeshError(f"dim must be 1, 2 or 3, got {dim}")
    return [f"{_AXIS_NAMES[k]}_{end}" for k in range(dim) for end in ("min", "max")]


def _tensor_points(axes):
    """The tensor product of the 1D coordinates ``axes`` (x first) as a
    (points, dim) array in the DoF order, x fastest."""
    grids = np.meshgrid(*axes[::-1], indexing="ij")  # (z, y, x) order
    return np.stack([g.ravel() for g in grids[::-1]], axis=1)


def periodic_tags(dim):
    return {name: BoundaryTag.PERIODIC for name in face_names(dim)}


def wall_tags(dim):
    return {name: BoundaryTag.DIRICHLET_WALL for name in face_names(dim)}


@dataclass(eq=False)
class BoundaryFace:
    """One tagged non-periodic side of the box: the slice of the DoF grid at
    index 0 (side 0) or N-1 (side 1) along ``axis``, with the outward unit
    normal. ``dof_ids`` are ascending, so face data is that slice in
    (z, y, x) order.
    """

    name: str
    axis: int
    side: int
    tag: BoundaryTag
    dof_ids: np.ndarray
    normal: np.ndarray

    def __repr__(self):
        return (f"BoundaryFace({self.name}, tag={self.tag.value}, "
                f"ndofs={self.dof_ids.size})")


class Mesh:
    """Immutable structured mesh; see module docstring for numbering."""

    def __init__(self, dim, extents, elems_per_axis, order, spacing,
                 boundary_tags):
        self.dim = dim
        self.extents = tuple((float(a), float(b)) for a, b in extents)
        self.elems_per_axis = tuple(int(n) for n in elems_per_axis)
        self.order = int(order)
        self.spacing = spacing
        self.basis: Basis1D = make_basis(self.order, spacing)
        self.boundary_tags = boundary_tags  # face name -> BoundaryTag
        self.periodic = tuple(
            boundary_tags[f"{_AXIS_NAMES[k]}_min"] is BoundaryTag.PERIODIC
            for k in range(dim)
        )

        self.h_axes = tuple(
            (b - a) / n for (a, b), n in zip(self.extents, self.elems_per_axis)
        )
        self.dofs_per_axis = tuple(
            n * self.order + (0 if per else 1)
            for n, per in zip(self.elems_per_axis, self.periodic)
        )
        self.n_dofs = int(np.prod(self.dofs_per_axis))
        self.n_elems = int(np.prod(self.elems_per_axis))
        self.nodes_per_elem = (self.order + 1) ** dim

        self._axis_dof_maps = [self._axis_dof_map(k) for k in range(dim)]
        dof_grid = np.arange(self.n_dofs).reshape(self.dofs_per_axis[::-1])
        self.elem_to_dofs = self._build_elem_to_dofs(dof_grid)
        self.node_coords = _tensor_points(
            [self._axis_coordinates(k) for k in range(dim)])
        self.elem_origins = _tensor_points(
            [a + np.arange(n) * h for (a, _), n, h
             in zip(self.extents, self.elems_per_axis, self.h_axes)])
        self.h_elem = np.full(self.n_elems, min(self.h_axes))
        self.boundary_faces = self._build_boundary_faces(dof_grid)

    # -- construction helpers -------------------------------------------------

    def _axis_dof_map(self, k):
        """(n_k, p+1) array of 1D DoF indices for every element on axis k."""
        n, p = self.elems_per_axis[k], self.order
        e = np.arange(n)[:, None]
        i = np.arange(p + 1)[None, :]
        ids = e * p + i
        if self.periodic[k]:
            ids = ids % (n * p)
        return ids

    def _axis_coordinates(self, k):
        """1D coordinates for every axis-k DoF index."""
        a, _ = self.extents[k]
        h = self.h_axes[k]
        ref = self.basis.nodes
        p = self.order
        u = np.arange(self.dofs_per_axis[k])
        # Canonical owner of DoF u is element u // p, local node u % p; the
        # non-periodic final DoF lands on b exactly since ref[0] = -1.
        return a + (u // p) * h + (ref[u % p] + 1.0) * (0.5 * h)

    def _build_elem_to_dofs(self, dof_grid):
        # Gather the (n_z m, n_y m, n_x m) element-node grid, then bring the
        # element indices to the front: (ez, ey, ex, iz, iy, ix).
        maps = self._axis_dof_maps[::-1]
        ids = dof_grid[np.ix_(*[a.ravel() for a in maps])]
        ids = ids.reshape([s for a in maps for s in a.shape])
        order = list(range(0, 2 * self.dim, 2)) + list(range(1, 2 * self.dim, 2))
        return ids.transpose(order).reshape(self.n_elems, self.nodes_per_elem)

    def _build_boundary_faces(self, dof_grid):
        faces = {}
        for k in range(self.dim):
            if self.periodic[k]:
                continue
            for side in (0, 1):
                name = f"{_AXIS_NAMES[k]}_{'min' if side == 0 else 'max'}"
                index = 0 if side == 0 else self.dofs_per_axis[k] - 1
                dof_ids = np.take(dof_grid, index, axis=self.dim - 1 - k).ravel()
                normal = np.zeros(self.dim)
                normal[k] = -1.0 if side == 0 else 1.0
                faces[name] = BoundaryFace(name, k, side, self.boundary_tags[name],
                                           dof_ids, normal)
        return faces

    # -- queries ---------------------------------------------------------------

    @property
    def domain_volume(self):
        return float(np.prod([b - a for a, b in self.extents]))

    @property
    def elem_volume(self):
        return float(np.prod(self.h_axes))

    def __repr__(self):
        shape = "x".join(str(n) for n in self.elems_per_axis)
        return (f"Mesh(dim={self.dim}, elems={shape}, p={self.order}, "
                f"spacing={self.spacing}, ndofs={self.n_dofs})")


def build_structured_mesh(dim, extents, elems_per_axis, order, spacing,
                          boundary_tags):
    """Build a structured box mesh; see :class:`Mesh` for conventions and
    :func:`check_mesh_request` for the rules the arguments must meet."""
    tags = check_mesh_request(dim, extents, elems_per_axis, order,
                              boundary_tags)
    return Mesh(dim, extents, elems_per_axis, order, spacing, tags)


def check_mesh_request(dim, extents, elems_per_axis, order, boundary_tags):
    """Raise MeshError unless the arguments describe a buildable box;
    return the tags as :class:`BoundaryTag` members.

    ``boundary_tags`` maps every face-set name ('x_min', 'x_max', ...) to a
    :class:`BoundaryTag` (or its string value). Periodic tags must be paired
    on both sides of an axis. The node spacing is checked by the basis.
    """
    expected = set(face_names(dim))  # checks dim
    if int(order) < 1:
        raise MeshError(f"polynomial order must be >= 1, got {order}")
    extents = list(extents)
    elems_per_axis = list(elems_per_axis)
    if len(extents) != dim or len(elems_per_axis) != dim:
        raise MeshError("extents and elems_per_axis must have one entry per axis")
    for k, ((a, b), n) in enumerate(zip(extents, elems_per_axis)):
        if not b > a:
            raise MeshError(f"axis {k}: extent [{a}, {b}] has zero or negative measure")
        if int(n) < 1:
            raise MeshError(f"axis {k}: need at least one element, got {n}")

    try:
        tags = {name: BoundaryTag.coerce(value)
                for name, value in dict(boundary_tags).items()}
    except ValueError as exc:
        raise MeshError(str(exc)) from None
    missing = expected - set(tags)
    extra = set(tags) - expected
    if missing:
        raise MeshError(f"missing boundary tags for faces: {sorted(missing)}")
    if extra:
        raise MeshError(f"tags given for nonexistent faces: {sorted(extra)}")
    for k in range(dim):
        lo = tags[f"{_AXIS_NAMES[k]}_min"]
        hi = tags[f"{_AXIS_NAMES[k]}_max"]
        if (lo is BoundaryTag.PERIODIC) != (hi is BoundaryTag.PERIODIC):
            raise MeshError(
                f"axis {_AXIS_NAMES[k]}: periodic tag must be set on both sides "
                f"(got {lo.value}/{hi.value})"
            )
        if lo is BoundaryTag.PERIODIC and int(elems_per_axis[k]) * int(order) < 2:
            raise MeshError(
                f"axis {_AXIS_NAMES[k]}: a periodic axis needs n*p >= 2"
            )
    return tags

