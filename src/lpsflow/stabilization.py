"""Upwind element viscosity and the low-order / gradient-projection terms.

The element viscosity scales like (h/p) times the local propagation speed.
The low-order option turns it into plain artificial diffusion; the
projection option (LPS) penalizes only the difference between the discrete
gradient and its continuous (lumped-projected) counterpart g_h, which is
what keeps the added dissipation small and shrinking with p.

LPS is the symmetric form -c_s sum_e nu_e ((grad - g_h) w, (grad - g_h)
phi)_e (Braack & Burman 2006), negative semidefinite for any nu_e >= 0 like
the fractional step's own stabilization (Codina 2001); with nu_e constant
it equals the one-sided c_s (nu_e grad w, g_h phi - grad phi).

At a collocated rule (GLL, or equispaced p <= 2) both terms are, per axis
k, F^T (W * F phi) on the (z, y, x) DoF grid, with the 1D matrices of
:attr:`GlobalOperators.face_jumps`. The low-order term takes F = B, every
element's own derivative at its nodes, and W nu_e times their quadrature
weights (Deville, Fischer & Mund 2002, sec. 4). For LPS, g_h phi - grad phi
is zero except on inter-element faces normal to k (g_h is one-sided on a
boundary face). There it is w_0 J / (w_0 + w_p) on the left element's node
and -w_p J / (w_0 + w_p) on the right's, J the jump of the one-sided
normal derivative; so F = C, the jumps, and W carries those squared
shares: an interior penalty on gradient jumps (Burman & Hansbo 2004). W
takes its axis-k step on the element grid, then its tangential expansion.
Off collocation (equispaced p >= 3, over-integrated rules) both terms are
assembled by element kernels at the quadrature points.

Sign convention: ``momentum_stabilization`` returns the term as added to the
right-hand side of the explicit prediction step, i.e. oriented so that
``sum_k u_k . s_k <= 0`` (the term removes kinetic energy).
"""

from dataclasses import dataclass
from functools import reduce
from operator import iadd, imul

import numpy as np

from .basis import apply_along_axis
from .mesh import NameEnum
from .operators import GlobalOperators, ScalarField, VectorField

__all__ = [
    "StabilizationMode",
    "StabilizationConfig",
    "upwind_viscosity",
    "low_order_term",
    "lps_term",
    "momentum_stabilization",
]


class StabilizationMode(NameEnum):
    NONE = "none"
    LOW_ORDER_UPWIND = "upwind"
    LPS = "lps"


@dataclass(frozen=True)
class StabilizationConfig:
    mode: StabilizationMode = StabilizationMode.LPS
    c_s: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "mode", StabilizationMode.coerce(self.mode))
        if not 0.0 <= self.c_s <= 1.0:
            raise ValueError(f"c_s must lie in [0, 1], got {self.c_s}")

    def __bool__(self):
        """Whether it adds a term: not for mode none, nor for lps at c_s = 0."""
        upwind = self.mode is StabilizationMode.LOW_ORDER_UPWIND
        return upwind or self.mode is StabilizationMode.LPS and self.c_s != 0.0


def upwind_viscosity(ops: GlobalOperators, u: VectorField) -> np.ndarray:
    """First-order upwind viscosity per element: (h^e / p) * max|u| / 2.

    The element speed is the largest Euclidean nodal speed within the
    element (nodes and quadrature points coincide on the spectral path).
    A maximum over a tensor-product box is a 1D windowed maximum per axis
    of the (z, y, x) DoF grid: the elementwise maximum of the p + 1
    strided slices that hold each element's local nodes 0, ..., p.
    """
    mesh = ops.mesh
    p = mesh.order
    v = np.einsum("kn,kn->n", u.data, u.data).reshape(mesh.dofs_per_axis[::-1])
    for k in reversed(range(mesh.dim)):  # the unit-stride x axis last
        ax, stop = mesh.dim - 1 - k, mesh.elems_per_axis[k] * p
        lead = (slice(None),) * ax
        # local[j]: local node j of every element along axis k.
        local = [v[lead + (slice(j, j + stop, p),)] for j in range(p + 1)]
        if mesh.periodic[k]:  # the last element ends on node 0
            local[p] = np.concatenate(
                [local[p], v[lead + (slice(0, 1),)]], axis=ax)
        v = reduce(np.maximum, local)
    elem_max = np.sqrt(v.ravel())
    return (mesh.h_elem / p) * elem_max / 2.0


def low_order_term(ops: GlobalOperators, phi: ScalarField,
                   nu_elem: np.ndarray) -> ScalarField:
    """Element-scaled stiffness residual: quad(nu_e grad w . grad phi),
    on the DoF grid at a collocated rule (module docstring)."""
    return ScalarField(ops.mesh, _form(ops, phi.values[None], nu_elem, 1.0, True)[0])


def _form(ops: GlobalOperators, data, nu_elem, c, upwind):
    """c times the low-order (``upwind``) or LPS form of each row of stacked
    nodal ``data``: ``_grid_form`` at a collocated rule, else element
    kernels. There, with f = g_h phi - grad phi at the quadrature points,
    LPS is sum_k P_k^T a_k - quad(nu_e grad w . f), a_k = quad(nu_e w f_k)
    assembled and P_k the nodal partial, P_k^T = G_k^T M_L^-1."""
    out = np.empty_like(data)
    if ops.basis.collocated:
        weights = _grid_weights(ops, nu_elem, c, upwind)
        for m, v in enumerate(data):
            out[m] = _grid_form(ops, v, weights)
        return out
    nu = np.asarray(nu_elem, dtype=float)
    for m, v in enumerate(data):
        flux = ops.grad_at_quad(v)
        if upwind:
            out[m] = c * ops.weak_div_flux(flux, elem_scale=nu).values
        else:
            flux = [ops.interp_to_quad(ops.projected_partial(v, k)) - grad_q
                    for k, grad_q in enumerate(flux)]
            acc = ops.weak_div_flux(flux, elem_scale=nu).values
            for k, f in enumerate(flux):
                a_k = ops._assemble(nu[:, None] * f).reshape(ops._grid)
                acc -= ops._apply_partial(a_k, k, transpose=True).ravel()
            out[m] = -c * acc
    return out


def _grid_weights(ops: GlobalOperators, nu_elem, c, upwind):
    """Per axis k, the ((F, F^T), W) of ``_grid_form`` from V = c nu_e,
    formed on the element grid first: the low-order term's B and V times
    w h_k / 2 at each element's nodes, or LPS's C and (h_k / 2) beta (w_0
    V_left + w_p V_right) / (w_0 + w_p) at every face, beta = w_0 w_p /
    (w_0 + w_p). X of every other axis then expands it tangentially."""
    mesh = ops.mesh
    dim, p, w = mesh.dim, mesh.order, ops.basis.quad_weights
    nu = c * np.asarray(nu_elem, dtype=float).reshape(
        mesh.elems_per_axis[::-1])
    out = []
    for k, (broken, jump, _, left, right) in enumerate(ops.face_jumps):
        ax = dim - 1 - k
        if upwind:
            node_w = np.tile(0.5 * mesh.h_axes[k] * w, mesh.elems_per_axis[k])
            mats, v = broken, apply_along_axis(
                node_w, np.repeat(nu, p + 1, axis=ax), ax)
        else:
            scale = 0.5 * mesh.h_axes[k] * w[0] * w[p] / (w[0] + w[p]) ** 2
            mats, v = jump, scale * (w[0] * np.take(nu, left, axis=ax)
                                     + w[p] * np.take(nu, right, axis=ax))
        for a in range(dim):
            if a != k:
                v = apply_along_axis(ops.face_jumps[a][2], v, dim - 1 - a)
        out.append((mats, v))
    return out


def _grid_form(ops: GlobalOperators, values, weights):
    """A stabilization form of one nodal field on the DoF grid: per axis k,
    F^T (W * F phi), both matrices contracted along axis k."""
    grid = values.reshape(ops.mesh.dofs_per_axis[::-1])
    out = None
    for k, ((mat, mat_t), w) in enumerate(weights):
        ax = grid.ndim - 1 - k
        term = apply_along_axis(
            mat_t, imul(apply_along_axis(mat, grid, ax), w), ax)
        out = term if out is None else iadd(out, term)
    return out.ravel()


def lps_term(ops: GlobalOperators, phi: ScalarField, nu_elem: np.ndarray,
             c_s: float) -> ScalarField:
    """Projection term: -c_s sum_e nu_e ((grad - g_h) w, (grad - g_h) phi)_e.

    ``g_h`` is :meth:`GlobalOperators.project_gradient`, the projected
    gradient that the pressure correction applies. At a collocated rule the
    term is a face form (module docstring), otherwise it is assembled by
    element kernels (``_form``).
    """
    return ScalarField(ops.mesh, _form(ops, phi.values[None], nu_elem, -c_s, False)[0])


def momentum_stabilization(ops: GlobalOperators, u: VectorField,
                           config: StabilizationConfig) -> VectorField:
    """Stabilization residual for every velocity component.

    One shared element viscosity is computed from the velocity magnitude and
    applied to each component; at a collocated rule it is expanded once to
    the DoF-grid weights, which carry the term's sign. Zero if the
    configuration adds no term.
    Returned with the dissipative orientation for a right-hand-side term
    (see module docstring).
    """
    if not config:
        return VectorField(ops.mesh, ncomp=u.ncomp)
    upwind = config.mode is StabilizationMode.LOW_ORDER_UPWIND
    return VectorField(ops.mesh, _form(
        ops, u.data, upwind_viscosity(ops, u),
        -(1.0 if upwind else config.c_s), upwind))
