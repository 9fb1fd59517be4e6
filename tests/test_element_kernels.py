"""Dense-oracle checks of the element operators on the single-axis path.

At collocated GLL with p >= 4 the element derivative contracts the 1D
matrix along one axis of the element array instead of multiplying a dense
element block. Each mesh here takes that path, with a different element
size on every axis and one axis of a single element, which holds its
periodic DoF twice.
"""

import numpy as np
import pytest

from lpsflow.mesh import build_structured_mesh, periodic_tags
from lpsflow.operators import GlobalOperators, VectorField
from lpsflow.stabilization import StabilizationConfig
from lpsflow.stepper import PhysicalParams, Stepper, TimeScheme

from oracles import DenseOracle

MESHES = {
    "2d-p4": ([(0.0, 2.0), (0.0, 1.0)], (3, 1), 4),
    "2d-p8": ([(0.0, 1.5), (0.0, 1.0)], (1, 2), 8),
    "3d-p4": ([(0.0, 1.2), (0.0, 2.0), (0.0, 1.5)], (2, 1, 3), 4),
    "3d-p8": ([(0.0, 1.0), (0.0, 1.6), (0.0, 1.5)], (1, 2, 1), 8),
}


@pytest.fixture(scope="module", params=list(MESHES))
def case(request):
    """(ops, dense oracle) per mesh, built once: the 3D P8 oracle is slow."""
    extents, elems, p = MESHES[request.param]
    dim = len(extents)
    mesh = build_structured_mesh(dim, extents, elems, p, "gll",
                                 periodic_tags(dim))
    ops = GlobalOperators(mesh)
    assert ops._single_axis
    return ops, DenseOracle(mesh)


def _smooth_velocity(mesh):
    """A periodic O(1) field with one wave per box length on every axis."""
    length = np.array([b - a for a, b in mesh.extents])
    phase = 2.0 * np.pi * mesh.node_coords / length
    return np.stack([np.sin(phase[:, (m + 1) % mesh.dim] + m)
                     + 0.5 * np.cos(phase[:, m]) for m in range(mesh.dim)])


@pytest.mark.parametrize("form", ["conservative", "nonconservative", "skew"])
def test_convective_term(case, form, rng):
    ops, dense = case
    udata = rng.standard_normal((ops.mesh.dim, ops.mesh.n_dofs))
    got = ops.convective_term(VectorField(ops.mesh, udata.copy()), form).data
    want = dense.convective(udata, form)
    assert np.allclose(got, want, atol=1e-12 * max(np.max(np.abs(want)), 1))


@pytest.mark.parametrize("mode", ["none", "upwind", "lps"])
def test_predict(case, mode):
    ops, dense = case
    u = VectorField(ops.mesh, _smooth_velocity(ops.mesh))
    stab = StabilizationConfig(mode, 1.0) if mode != "none" else None
    st = Stepper(ops, PhysicalParams(0.0), TimeScheme(dt=1e-3),
                 stabilization=stab, convective_form="skew")
    want = dense.predict(u.data, 1e-3, "skew", mode)
    assert np.max(np.abs(st.predict(u).data - want)) < 1e-12


def test_weak_div_flux_with_elem_scale(case, rng):
    ops, dense = case
    mesh = ops.mesh
    flux = rng.standard_normal((mesh.dim, mesh.n_elems, dense.nq))
    scale = rng.uniform(0.5, 2.0, mesh.n_elems)
    want = np.zeros(mesh.n_dofs)
    for e in range(mesh.n_elems):
        local = sum((dense.wq * flux[k, e]) @ dense.dphi[k]
                    for k in range(mesh.dim))
        np.add.at(want, mesh.elem_to_dofs[e], scale[e] * local)
    got = ops.weak_div_flux(list(flux), elem_scale=scale).values
    assert np.allclose(got, want, atol=1e-12 * max(np.max(np.abs(want)), 1))


def test_symmetric_gradient_stiffness(case, rng):
    ops, dense = case
    dim, n = ops.mesh.dim, ops.mesh.n_dofs
    # Block (m, k): delta_mk int grad w . grad u + int d_k w d_m u.
    s_sym = np.block([[(dense.stiff if m == k else 0.0)
                       + dense._assemble_pairwise(k, m) for k in range(dim)]
                      for m in range(dim)])
    data = rng.standard_normal((dim, n))
    nu = 0.3
    got = ops.symmetric_gradient_stiffness(data, nu)
    want = nu * (s_sym @ data.ravel()).reshape(dim, n)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
