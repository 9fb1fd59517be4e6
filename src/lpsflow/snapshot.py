"""Field snapshots: legacy-VTK structured grids and CSV point clouds.

Point data arrays are named u, v, w, p; missing velocity components are
written as zeros so downstream tooling sees a fixed schema.
"""

import numpy as np

__all__ = ["write_snapshot", "snapshot_writer", "write_vtk", "write_csv_points",
           "read_csv_points"]


def _point_arrays(mesh, velocity, pressure):
    ndofs = mesh.n_dofs
    arrays = {}
    for i, name in enumerate(("u", "v", "w")):
        if velocity is not None and i < velocity.ncomp:
            arrays[name] = velocity.data[i]
        else:
            arrays[name] = np.zeros(ndofs)
    arrays["p"] = pressure.values if pressure is not None else np.zeros(ndofs)
    return arrays


def _points3(mesh):
    pts = np.zeros((mesh.n_dofs, 3))
    pts[:, : mesh.dim] = mesh.node_coords
    return pts


def write_vtk(path, mesh, velocity=None, pressure=None, title="flow snapshot"):
    """Legacy ASCII STRUCTURED_GRID file loadable by standard viewers."""
    dims = [1, 1, 1]
    for k in range(mesh.dim):
        dims[k] = mesh.dofs_per_axis[k]
    pts = _points3(mesh)
    arrays = _point_arrays(mesh, velocity, pressure)
    lines = ["# vtk DataFile Version 3.0", title, "ASCII",
             "DATASET STRUCTURED_GRID", f"DIMENSIONS {dims[0]} {dims[1]} {dims[2]}",
             f"POINTS {mesh.n_dofs} double"]
    lines += [f"{x:.17g} {y:.17g} {z:.17g}" for x, y, z in pts.tolist()]
    lines.append(f"POINT_DATA {mesh.n_dofs}")
    for name, vals in arrays.items():
        lines += [f"SCALARS {name} double 1", "LOOKUP_TABLE default"]
        lines += [f"{v:.17g}" for v in vals.tolist()]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def write_csv_points(path, mesh, velocity=None, pressure=None):
    """Point-cloud alternative: x,y,z,u,v,w,p with one row per DoF."""
    arrays = _point_arrays(mesh, velocity, pressure)
    table = np.column_stack([_points3(mesh), *arrays.values()])
    row = ",".join(["{:.17g}"] * table.shape[1])
    lines = ["x,y,z,u,v,w,p"] + [row.format(*r) for r in table.tolist()]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
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
