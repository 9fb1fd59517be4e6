"""Upwind element viscosity and the low-order / gradient-projection terms.

The element viscosity scales like (h/p) times the local propagation speed.
The low-order option turns it into plain artificial diffusion; the
projection option penalizes only the difference between the discrete
gradient and its continuous (lumped-projected) counterpart, which is what
keeps the added dissipation small and shrinking with p.

Sign convention: ``momentum_stabilization`` returns the term as added to the
right-hand side of the explicit prediction step, i.e. oriented so that
``sum_k u_k . s_k <= 0`` (the term removes kinetic energy).
"""

import enum
from dataclasses import dataclass

import numpy as np

from .operators import GlobalOperators, ScalarField, VectorField

__all__ = [
    "StabilizationMode",
    "StabilizationConfig",
    "upwind_viscosity",
    "low_order_term",
    "lps_term",
    "momentum_stabilization",
]


class StabilizationMode(enum.Enum):
    NONE = "none"
    LOW_ORDER_UPWIND = "upwind"
    LPS = "lps"

    @classmethod
    def coerce(cls, value):
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).lower())
        except ValueError:
            names = ", ".join(m.value for m in cls)
            raise ValueError(
                f"unknown stabilization mode {value!r} (expected: {names})"
            ) from None


@dataclass(frozen=True)
class StabilizationConfig:
    mode: StabilizationMode = StabilizationMode.LPS
    c_s: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "mode", StabilizationMode.coerce(self.mode))
        if not 0.0 <= self.c_s <= 1.0:
            raise ValueError(f"c_s must lie in [0, 1], got {self.c_s}")


def upwind_viscosity(ops: GlobalOperators, u: VectorField) -> np.ndarray:
    """First-order upwind viscosity per element: (h^e / p) * max|u| / 2.

    The element speed is the largest Euclidean nodal speed within the
    element (nodes and quadrature points coincide on the spectral path).
    """
    mesh = ops.mesh
    speed2 = np.zeros(mesh.n_dofs)
    for k in range(u.ncomp):
        speed2 += u.data[k] ** 2
    elem_max = np.sqrt(np.max(speed2[mesh.elem_to_dofs], axis=1))
    return (mesh.h_elem / mesh.order) * elem_max / 2.0


def low_order_term(ops: GlobalOperators, phi: ScalarField,
                   nu_elem: np.ndarray) -> ScalarField:
    """Element-scaled stiffness residual: quad(nu_e grad w . grad phi)."""
    return ops.weak_laplacian(phi, elem_scale=np.asarray(nu_elem, dtype=float))


def lps_term(ops: GlobalOperators, phi: ScalarField, nu_elem: np.ndarray,
             c_s: float) -> ScalarField:
    """Projection term: c_s * quad(nu_e grad w . (g_h(phi) - grad phi)).

    ``g_h`` is the lumped-mass projected gradient; with collocated
    quadrature the difference vanishes identically at element-interior
    nodes, so only inter-element mismatch is penalized.
    """
    if c_s == 0.0:
        return ScalarField(ops.mesh)
    flux = []
    for grad_q in ops.grad_at_quad(phi.values):
        # g_h from the same quadrature gradient: M_L^{-1} Phi^T (W grad phi).
        g = ops.assemble_quad_values(grad_q).values * ops._inv_lumped
        flux.append(ops.interp_to_quad(g) - grad_q)
    out = ops.weak_div_flux(flux, elem_scale=np.asarray(nu_elem, dtype=float))
    out.values *= c_s
    return out


def momentum_stabilization(ops: GlobalOperators, u: VectorField,
                           config: StabilizationConfig) -> VectorField:
    """Stabilization residual for every velocity component.

    One shared element viscosity is computed from the velocity magnitude and
    applied to each component. Returned with the dissipative orientation for
    a right-hand-side term (see module docstring).
    """
    mode = config.mode
    if mode is StabilizationMode.NONE:
        return VectorField(ops.mesh, ncomp=u.ncomp)
    nu_elem = upwind_viscosity(ops, u)
    out = np.empty_like(u.data)
    for k in range(u.ncomp):
        comp = ScalarField(ops.mesh, u.data[k])
        if mode is StabilizationMode.LOW_ORDER_UPWIND:
            out[k] = -low_order_term(ops, comp, nu_elem).values
        else:
            out[k] = lps_term(ops, comp, nu_elem, config.c_s).values
    return VectorField(ops.mesh, out)
