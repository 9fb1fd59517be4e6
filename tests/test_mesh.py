import numpy as np
import pytest

from lpsflow.mesh import (
    BoundaryTag,
    NameEnum,
    MeshError,
    build_structured_mesh,
    element_size,
    periodic_tags,
    wall_tags,
)

from lpsflow.operators import ConvectiveForm
from lpsflow.stabilization import StabilizationMode

from conftest import TWO_PI, periodic_mesh, walled_mesh


def test_fig2_mesh_dof_count():
    # 30x30 P1 elements, fully periodic: a 60x60-DoF grid needs n=(60,60).
    m = periodic_mesh(2, 30, 1)
    assert m.n_dofs == 900
    m60 = periodic_mesh(2, 60, 1)
    assert m60.dofs_per_axis == (60, 60)


def test_single_linear_element_dirichlet():
    m = build_structured_mesh(1, [(0.0, 1.0)], (1,), 1, "gll", wall_tags(1))
    assert m.n_dofs == 2
    assert np.allclose(np.sort(m.node_coords[:, 0]), [0.0, 1.0])


def test_3d_periodic_p4_dof_count():
    m = periodic_mesh(3, 16, 4)
    assert m.dofs_per_axis == (64, 64, 64)
    assert m.n_dofs == 64**3


def test_explicit_node_enumeration_periodic_1d():
    m = periodic_mesh(1, 4, 2, length=8.0)
    # 4 elements of width 2, p=2: dofs at 0,1,2,...,7 (endpoint 8 wraps to 0).
    assert m.n_dofs == 8
    assert np.allclose(np.sort(m.node_coords[:, 0]), np.arange(8.0))


def test_shared_dofs_have_identical_coords():
    m = walled_mesh(2, 3, 3)
    seen = {}
    for e in range(m.n_elems):
        for dof in m.elem_to_dofs[e]:
            xy = tuple(np.round(m.node_coords[dof], 12))
            seen.setdefault(dof, xy)
            assert seen[dof] == xy


def test_every_dof_referenced():
    for mesh in (periodic_mesh(2, 3, 2), walled_mesh(3, 2, 2)):
        assert np.array_equal(
            np.unique(mesh.elem_to_dofs.ravel()), np.arange(mesh.n_dofs)
        )


def test_affine_map_roundtrip():
    m = walled_mesh(2, 3, 4, length=2.5)
    ref = m.basis.nodes
    Y, X = np.meshgrid(ref, ref, indexing="ij")
    for e in (0, 4, 8):
        origin = m.elem_origins[e]
        px = origin[0] + (X + 1) * 0.5 * m.h_axes[0]
        py = origin[1] + (Y + 1) * 0.5 * m.h_axes[1]
        got = m.node_coords[m.elem_to_dofs[e]].reshape(5, 5, 2)
        assert np.max(np.abs(got[..., 0] - px)) < 1e-14 * 2.5
        assert np.max(np.abs(got[..., 1] - py)) < 1e-14 * 2.5


def test_periodic_identification_endpoints():
    m = periodic_mesh(1, 5, 3)
    # No node sits at the right endpoint: it is the same DoF as x=0.
    assert np.max(m.node_coords[:, 0]) < TWO_PI - 1e-10
    assert np.min(np.abs(m.node_coords[:, 0])) == 0.0


def test_element_volumes_sum_to_domain():
    m = walled_mesh(3, 3, 2, length=1.7)
    total = m.n_elems * m.elem_volume
    assert abs(total - m.domain_volume) < 1e-13 * m.domain_volume


def test_element_size_uniform_partition():
    m = periodic_mesh(1, 16, 3)
    assert abs(element_size(m, 0) - np.pi / 8.0) < 1e-14


def test_element_size_unit_cube():
    m = walled_mesh(3, 1, 2, length=1.0)
    assert element_size(m, 0) == 1.0


def test_element_size_30x30():
    m = periodic_mesh(2, 30, 1)
    assert abs(element_size(m, 17) - np.pi / 15.0) < 1e-14


def test_element_size_anisotropic_takes_min():
    m = build_structured_mesh(
        2, [(0.0, 1.0), (0.0, 4.0)], (4, 4), 1, "gll", wall_tags(2)
    )
    assert abs(element_size(m, 0) - 0.25) < 1e-15


def test_element_size_bad_id():
    m = periodic_mesh(1, 4, 1)
    with pytest.raises(IndexError):
        element_size(m, 99)


class TestValidation:
    def test_zero_measure_extent(self):
        with pytest.raises(MeshError):
            build_structured_mesh(1, [(1.0, 1.0)], (4,), 1, "gll", wall_tags(1))

    def test_order_zero(self):
        with pytest.raises(MeshError):
            build_structured_mesh(1, [(0.0, 1.0)], (4,), 0, "gll", wall_tags(1))

    def test_conflicting_periodic_tags(self):
        tags = {"x_min": "periodic", "x_max": "wall"}
        with pytest.raises(MeshError):
            build_structured_mesh(1, [(0.0, 1.0)], (4,), 1, "gll", tags)

    def test_missing_face_tag(self):
        with pytest.raises(MeshError):
            build_structured_mesh(
                2, [(0.0, 1.0)] * 2, (2, 2), 1, "gll", {"x_min": "wall"}
            )

    def test_unknown_tag_value(self):
        tags = wall_tags(1)
        tags["x_min"] = "slippery"
        with pytest.raises(MeshError):
            build_structured_mesh(1, [(0.0, 1.0)], (2,), 1, "gll", tags)

    def test_periodic_needs_two_dofs(self):
        with pytest.raises(MeshError):
            build_structured_mesh(
                1, [(0.0, 1.0)], (1,), 1, "gll", periodic_tags(1)
            )


def test_boundary_faces_exposed_with_normals():
    m = walled_mesh(2, 2, 2)
    assert set(m.boundary_faces) == {"x_min", "x_max", "y_min", "y_max"}
    f = m.boundary_faces["x_min"]
    assert f.tag is BoundaryTag.DIRICHLET_WALL
    assert np.allclose(f.normal, [-1.0, 0.0])
    assert abs(np.linalg.norm(f.normal) - 1.0) < 1e-14
    assert np.allclose(m.node_coords[f.dof_ids, 0], 0.0)


def test_periodic_mesh_has_no_boundary_faces():
    assert periodic_mesh(2, 3, 1).boundary_faces == {}


@pytest.mark.parametrize("dim, n, tags", [
    (1, (3,), {"x_min": "wall", "x_max": "outflow"}),
    (1, (1,), {"x_min": "wall", "x_max": "wall"}),
    (2, (3, 2), {"x_min": "wall", "x_max": "wall",
                 "y_min": "periodic", "y_max": "periodic"}),
    (2, (1, 3), {"x_min": "outflow", "x_max": "wall",
                 "y_min": "wall", "y_max": "wall"}),
    (3, (2, 1, 3), {"x_min": "wall", "x_max": "outflow", "y_min": "wall",
                    "y_max": "wall", "z_min": "wall", "z_max": "wall"}),
    (3, (2, 3, 1), {"x_min": "periodic", "x_max": "periodic", "y_min": "wall",
                    "y_max": "wall", "z_min": "wall", "z_max": "outflow"}),
])
def test_face_ids_are_the_grid_slice(dim, n, tags):
    ext = [(0.0, 1.0), (-0.5, 2.0), (0.25, 1.0)][:dim]
    m = build_structured_mesh(dim, ext, n, 2, "gll", tags)
    assert set(m.boundary_faces) == {k for k, t in tags.items() if t != "periodic"}
    for f in m.boundary_faces.values():
        assert np.all(np.diff(f.dof_ids) > 0)
        want = int(np.prod([m.dofs_per_axis[k] for k in range(dim) if k != f.axis]))
        assert f.dof_ids.size == want
        plane = ext[f.axis][f.side]
        assert np.array_equal(m.node_coords[f.dof_ids, f.axis],
                              np.full(want, plane))
        # No other DoF lies on the face plane.
        on_plane = np.flatnonzero(np.abs(m.node_coords[:, f.axis] - plane) < 1e-12)
        assert np.array_equal(on_plane, f.dof_ids)


@pytest.mark.parametrize("cls", [BoundaryTag, ConvectiveForm, StabilizationMode])
def test_name_enums_share_coerce(cls):
    assert issubclass(cls, NameEnum)
    for member in cls:
        assert cls.coerce(member) is member
        assert cls.coerce(member.value.upper()) is member
    with pytest.raises(ValueError) as err:
        cls.coerce("bogus")
    for member in cls:
        assert member.value in str(err.value)
