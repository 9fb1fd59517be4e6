"""Field snapshots: legacy-VTK structured grids and CSV point clouds.

Point data arrays are named u, v, w, p; missing velocity components are
written as zeros so downstream tooling sees a fixed schema.

Each block of numbers is formatted by a single C-level ``%`` call with
``%.17g``, which gives the bytes of ``format(v, ".17g")``, ``nan``, ``inf``
and ``-0`` included. The text that depends only on the mesh is formatted
once per mesh and cached, keyed weakly by the mesh, so it goes when the
mesh goes: the VTK coordinate block and the zeros of a missing component,
and the ``x,y,z,`` that starts each CSV row.
"""

import operator
import weakref

import numpy as np

__all__ = ["write_snapshot", "snapshot_writer", "write_vtk", "write_csv_points",
           "read_csv_points"]

# mesh -> (coordinate block, zero block) of its VTK files
_MESH_BLOCKS = weakref.WeakKeyDictionary()
# mesh -> the "x,y,z," text starting each row of its CSV files
_CSV_PREFIXES = weakref.WeakKeyDictionary()


def _block(table, sep=" "):
    """The rows of a 1D or 2D array as text: each value as %.17g, values in
    a row joined by ``sep``, every row ending in a newline."""
    table = np.asarray(table)
    ncols = table.shape[1] if table.ndim == 2 else 1
    row = sep.join(["%.17g"] * ncols) + "\n"
    return row * len(table) % tuple(table.ravel().tolist())


def _points3(mesh):
    pts = np.zeros((mesh.n_dofs, 3))
    pts[:, : mesh.dim] = mesh.node_coords
    return pts


def _format_mesh_blocks(mesh):
    return _block(_points3(mesh)), _block(np.zeros(mesh.n_dofs))


def _format_csv_prefixes(mesh):
    return [row + "," for row in _block(_points3(mesh), ",").splitlines()]


def _cached(cache, mesh, make):
    """``cache``'s text for ``mesh``, made by ``make(mesh)`` on first use."""
    text = cache.get(mesh)
    if text is None:
        text = cache[mesh] = make(mesh)
    return text


def _point_arrays(mesh, velocity, pressure):
    """u, v, w, p as name -> nodal values, None for a missing field."""
    ncomp = velocity.ncomp if velocity is not None else 0
    arrays = {name: velocity.data[i] if i < ncomp else None
              for i, name in enumerate(("u", "v", "w"))}
    arrays["p"] = pressure.values if pressure is not None else None
    return arrays


def write_vtk(path, mesh, velocity=None, pressure=None, title="flow snapshot"):
    """Legacy ASCII STRUCTURED_GRID file loadable by standard viewers."""
    dims = [1, 1, 1]
    for k in range(mesh.dim):
        dims[k] = mesh.dofs_per_axis[k]
    n = mesh.n_dofs
    points, zeros = _cached(_MESH_BLOCKS, mesh, _format_mesh_blocks)
    parts = [f"# vtk DataFile Version 3.0\n{title}\nASCII\nDATASET STRUCTURED_GRID\n"
             f"DIMENSIONS {dims[0]} {dims[1]} {dims[2]}\nPOINTS {n} double\n",
             points, f"POINT_DATA {n}\n"]
    for name, vals in _point_arrays(mesh, velocity, pressure).items():
        parts += [f"SCALARS {name} double 1\nLOOKUP_TABLE default\n",
                  zeros if vals is None else _block(vals)]
    with open(path, "w") as fh:
        fh.writelines(parts)
    return path


def write_csv_points(path, mesh, velocity=None, pressure=None):
    """Point-cloud alternative: x,y,z,u,v,w,p with one row per DoF."""
    zeros = np.zeros(mesh.n_dofs)
    columns = [zeros if vals is None else vals
               for vals in _point_arrays(mesh, velocity, pressure).values()]
    rows = _block(np.column_stack(columns), ",").splitlines(keepends=True)
    prefixes = _cached(_CSV_PREFIXES, mesh, _format_csv_prefixes)
    with open(path, "w") as fh:
        fh.write("x,y,z,u,v,w,p\n")
        fh.writelines(map(operator.add, prefixes, rows))
    return path


def read_csv_points(path):
    """Read back a CSV snapshot as {column: array}."""
    with open(path) as fh:
        names = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return {name: data[:, j] for j, name in enumerate(names)}


def snapshot_writer(fmt):
    """The writer function for a snapshot format name ('vtk' or 'csv')."""
    try:
        return {"vtk": write_vtk, "csv": write_csv_points}[str(fmt).lower()]
    except KeyError:
        raise ValueError(f"unknown snapshot format {fmt!r}") from None


def write_snapshot(path, mesh, velocity=None, pressure=None, fmt="vtk"):
    """Write one snapshot in the requested format ('vtk' or 'csv')."""
    return snapshot_writer(fmt)(path, mesh, velocity, pressure)
