"""Independent dense-matrix assembly used to cross-check the solver kernels.

Everything here is deliberately naive: Lagrange polynomials built from their
roots with numpy's polynomial module, explicit Python loops over elements,
quadrature points and basis indices, and dense global matrices. No code is
shared with the tensor-product fast path beyond the node/weight tables.
"""

import itertools

import numpy as np
from numpy.polynomial import polynomial as P


def _lagrange_coeffs(nodes):
    """Coefficient rows c[j] with l_j = Polynomial(c[j]) on the given nodes."""
    n = len(nodes)
    coeffs = []
    for j in range(n):
        roots = [nodes[i] for i in range(n) if i != j]
        c = P.polyfromroots(roots)
        c = c / P.polyval(nodes[j], c)
        coeffs.append(c)
    return coeffs


class DenseOracle:
    """Dense global operators for a (small) mesh, assembled by brute force."""

    def __init__(self, mesh, basis=None):
        """``basis`` overrides the mesh's quadrature rule, as in
        GlobalOperators; the nodal basis must match the mesh."""
        self.mesh = mesh
        b = mesh.basis if basis is None else basis
        dim, p = mesh.dim, mesh.order
        coeffs = _lagrange_coeffs(b.nodes)
        dcoeffs = [P.polyder(c) for c in coeffs]
        xq, wq = b.quad_nodes, b.quad_weights

        # 1D tables evaluated straight from the polynomial coefficients.
        phi1 = np.array([[P.polyval(x, c) for c in coeffs] for x in xq])
        dphi1 = np.array([[P.polyval(x, c) for c in dcoeffs] for x in xq])

        nloc = (p + 1) ** dim
        nq = len(xq) ** dim
        self.nloc, self.nq = nloc, nq
        self.phi = np.zeros((nq, nloc))
        self.dphi = np.zeros((dim, nq, nloc))
        self.wq = np.zeros(nq)
        self.jac = 1.0
        for h in mesh.h_axes:
            self.jac *= h / 2.0

        # Local multi-indices run (z, y, x) with x fastest, matching the mesh.
        for qi, qmulti in enumerate(itertools.product(range(len(xq)), repeat=dim)):
            w = 1.0
            for qk in qmulti:
                w *= wq[qk]
            self.wq[qi] = w * self.jac
            for li, lmulti in enumerate(itertools.product(range(p + 1), repeat=dim)):
                val = 1.0
                for qk, lk in zip(qmulti, lmulti):
                    val *= phi1[qk, lk]
                self.phi[qi, li] = val
                for k in range(dim):  # spatial axis k = tensor slot dim-1-k
                    slot = dim - 1 - k
                    dval = 2.0 / mesh.h_axes[k]
                    for s, (qk, lk) in enumerate(zip(qmulti, lmulti)):
                        dval *= dphi1[qk, lk] if s == slot else phi1[qk, lk]
                    self.dphi[k, qi, li] = dval

        n = mesh.n_dofs
        self.mass = np.zeros((n, n))
        self.grad = [np.zeros((n, n)) for _ in range(dim)]
        mass_block = np.einsum("q,qi,qj->ij", self.wq, self.phi, self.phi)
        grad_blocks = [
            np.einsum("q,qi,qj->ij", self.wq, self.phi, self.dphi[k])
            for k in range(dim)
        ]
        for e in range(mesh.n_elems):
            dofs = mesh.elem_to_dofs[e]
            self.mass[np.ix_(dofs, dofs)] += mass_block
            for k in range(dim):
                self.grad[k][np.ix_(dofs, dofs)] += grad_blocks[k]
        self.stiff = sum(self._assemble_pairwise(k, k) for k in range(dim))
        self.lumped = self.mass.sum(axis=1)

    def _assemble_pairwise(self, ka, kb):
        n = self.mesh.n_dofs
        out = np.zeros((n, n))
        for e in range(self.mesh.n_elems):
            dofs = self.mesh.elem_to_dofs[e]
            block = np.einsum(
                "q,qi,qj->ij", self.wq, self.dphi[ka], self.dphi[kb]
            )
            out[np.ix_(dofs, dofs)] += block
        return out

    # -- operator applications -------------------------------------------------

    def weak_divergence(self, udata):
        return sum(self.grad[k] @ udata[k] for k in range(self.mesh.dim))

    def weak_gradient(self, p):
        return np.stack([self.grad[k] @ p for k in range(self.mesh.dim)])

    def project_gradient(self, p):
        return self.weak_gradient(p) / self.lumped

    def laplacian(self, p):
        return self.stiff @ p

    def convective(self, udata, form):
        dim = self.mesh.dim
        out = np.zeros_like(udata)
        for e in range(self.mesh.n_elems):
            dofs = self.mesh.elem_to_dofs[e]
            uloc = udata[:, dofs]
            for q in range(self.nq):
                uq = uloc @ self.phi[q]
                gq = np.array([[self.dphi[k, q] @ uloc[m] for k in range(dim)]
                               for m in range(dim)])
                divq = np.trace(gq)
                for m in range(dim):
                    if form == "conservative":
                        # Divergence of the interpolated flux products.
                        val = sum(
                            float(self.dphi[k, q] @ (uloc[k] * uloc[m]))
                            for k in range(dim)
                        )
                    elif form == "nonconservative":
                        val = float(uq @ gq[m])
                    elif form == "skew":
                        val = float(uq @ gq[m]) + 0.5 * uq[m] * divq
                    else:
                        raise ValueError(form)
                    out[m, dofs] += self.wq[q] * val * self.phi[q]
        return out

    def upwind_viscosity(self, udata):
        mesh = self.mesh
        nu = np.zeros(mesh.n_elems)
        for e in range(mesh.n_elems):
            speeds = np.sqrt(np.sum(udata[:, mesh.elem_to_dofs[e]] ** 2, axis=0))
            nu[e] = (mesh.h_elem[e] / mesh.order) * speeds.max() / 2.0
        return nu

    def low_order(self, phi_vals, nu_elem):
        n = self.mesh.n_dofs
        out = np.zeros(n)
        for e in range(self.mesh.n_elems):
            dofs = self.mesh.elem_to_dofs[e]
            loc = phi_vals[dofs]
            for q in range(self.nq):
                for k in range(self.mesh.dim):
                    gph = self.dphi[k, q] @ loc
                    out[dofs] += nu_elem[e] * self.wq[q] * gph * self.dphi[k, q]
        return out

    def lps(self, phi_vals, nu_elem, c_s):
        g = self.project_gradient(phi_vals)
        n = self.mesh.n_dofs
        out = np.zeros(n)
        for e in range(self.mesh.n_elems):
            dofs = self.mesh.elem_to_dofs[e]
            loc = phi_vals[dofs]
            gloc = g[:, dofs]
            for q in range(self.nq):
                for k in range(self.mesh.dim):
                    diff = self.phi[q] @ gloc[k] - self.dphi[k, q] @ loc
                    out[dofs] += (
                        c_s * nu_elem[e] * self.wq[q] * diff * self.dphi[k, q]
                    )
        return out

    def momentum_stabilization(self, udata, mode, c_s=1.0):
        if mode == "none":
            return np.zeros_like(udata)
        nu_elem = self.upwind_viscosity(udata)
        out = np.empty_like(udata)
        for m in range(udata.shape[0]):
            if mode == "upwind":
                out[m] = -self.low_order(udata[m], nu_elem)
            elif mode == "lps":
                out[m] = self.lps(udata[m], nu_elem, c_s)
            else:
                raise ValueError(mode)
        return out

    def predict(self, udata, dt, form, mode, c_s=1.0):
        rhs = -self.convective(udata, form)
        rhs += self.momentum_stabilization(udata, mode, c_s)
        return udata + dt * rhs / self.lumped
