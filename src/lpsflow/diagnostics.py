"""Flow observables and solver-health metrics.

All integrals use the solver's own quadrature so the reported quantities are
properties of the discrete dynamics, not of a finer reconstruction: each
squared norm is u . (M u) with the tensor mass M of the operator set
(``GlobalOperators.tensor_mass``, the lumped mass at a collocated rule),
which needs no element kernel. The CSV schema is one header line
``t,E_k,zeta,eps,div_norm,stab_power`` followed by 17-significant-digit
decimal floats.
"""

from dataclasses import dataclass

import numpy as np

from .operators import GlobalOperators, VectorField
from .stabilization import StabilizationConfig, momentum_stabilization

__all__ = [
    "DiagnosticsRecord",
    "kinetic_energy",
    "enstrophy_dissipation",
    "divergence_norm",
    "stabilization_power",
    "compute_record",
    "CSV_HEADER",
    "format_record",
    "write_csv",
    "read_csv",
]

CSV_HEADER = "t,E_k,zeta,eps,div_norm,stab_power"


@dataclass(frozen=True)
class DiagnosticsRecord:
    t: float
    E_k: float
    zeta: float
    eps: float
    div_norm: float
    stab_power: float


def _quad_norm2(ops: GlobalOperators, data) -> float:
    """sum_k u_k . (M u_k) of stacked nodal values: the rule's quadrature
    of |u|^2, with M = M1 (x) M1 (x) M1 (``tensor_mass``)."""
    return float(np.sum(data * ops.tensor_mass(data)))


def kinetic_energy(ops: GlobalOperators, u: VectorField) -> float:
    """Volume-averaged kinetic energy quad(|u|^2 / 2) / |Omega|."""
    return 0.5 * _quad_norm2(ops, u.data) / ops.mesh.domain_volume


def enstrophy_dissipation(ops: GlobalOperators, u: VectorField, nu: float):
    """Volume-averaged enstrophy and the dissipation rate 2 nu zeta."""
    if ops.mesh.dim < 2:
        raise ValueError("enstrophy needs dim >= 2")
    zeta = 0.5 * _quad_norm2(ops, ops.curl(u).data) / ops.mesh.domain_volume
    return zeta, 2.0 * nu * zeta


def divergence_norm(ops: GlobalOperators, u: VectorField) -> float:
    """L2 norm of the lumped-mass projection of div u."""
    d = ops.project_divergence(u).values
    return float(np.sqrt(_quad_norm2(ops, d[None])))


def stabilization_power(ops: GlobalOperators, u: VectorField,
                        s: VectorField) -> float:
    """Rate of volume-averaged kinetic-energy change due to the term s.

    With du/dt = M^{-1} s the energy rate is sum_k u_k . s_k; normalized by
    the domain volume to be commensurate with d(E_k)/dt.
    """
    return float(np.sum(u.data * s.data)) / ops.mesh.domain_volume


def compute_record(ops: GlobalOperators, u: VectorField, nu: float,
                   stab: StabilizationConfig, t: float) -> DiagnosticsRecord:
    if ops.mesh.dim >= 2:
        zeta, eps = enstrophy_dissipation(ops, u, nu)
    else:
        zeta, eps = 0.0, 0.0
    power = (stabilization_power(ops, u, momentum_stabilization(ops, u, stab))
             if stab else 0.0)
    return DiagnosticsRecord(
        t=t,
        E_k=kinetic_energy(ops, u),
        zeta=zeta,
        eps=eps,
        div_norm=divergence_norm(ops, u),
        stab_power=power,
    )


def format_record(rec: DiagnosticsRecord) -> str:
    vals = (rec.t, rec.E_k, rec.zeta, rec.eps, rec.div_norm, rec.stab_power)
    return ",".join(f"{v:.17g}" for v in vals)


def write_csv(path, records):
    with open(path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for rec in records:
            fh.write(format_record(rec) + "\n")


def read_csv(path):
    records = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise ValueError(f"unexpected diagnostics header: {header!r}")
        for line in fh:
            t, ek, zeta, eps, dn, sp = (float(x) for x in line.split(","))
            records.append(DiagnosticsRecord(t, ek, zeta, eps, dn, sp))
    return records
