"""Independent dense-matrix assembly used to cross-check the solver kernels.

Everything here is deliberately naive: Lagrange polynomials built from their
roots with numpy's polynomial module, explicit Python loops over elements,
quadrature points and basis indices, and dense global matrices. No code is
shared with the tensor-product fast path beyond the node/weight tables.

``normal_traction_pressure`` is the one exception: a reference outflow
pressure built on the solver's own nodal gradients, against which the
boundary tests check the backflow-compensated datum.
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
        # np.add.at, not +=, here and below: with one element on a periodic
        # axis an element holds the same DoF twice, and fancy-index += would
        # drop a copy.
        for e in range(mesh.n_elems):
            dofs = np.ix_(mesh.elem_to_dofs[e], mesh.elem_to_dofs[e])
            np.add.at(self.mass, dofs, mass_block)
            for k in range(dim):
                np.add.at(self.grad[k], dofs, grad_blocks[k])
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
            np.add.at(out, np.ix_(dofs, dofs), block)
        return out

    # -- operator applications -------------------------------------------------

    def weak_divergence(self, udata):
        return sum(self.grad[k] @ udata[k] for k in range(self.mesh.dim))

    def weak_gradient(self, p):
        return np.stack([self.grad[k] @ p for k in range(self.mesh.dim)])

    def project_gradient(self, p):
        return self.weak_gradient(p) / self.lumped

    def curl(self, udata):
        """Lumped projection of curl u: one component in 2D, three in 3D."""
        g = self.grad
        if self.mesh.dim == 2:
            return ((g[0] @ udata[1] - g[1] @ udata[0]) / self.lumped)[None]
        return np.stack([
            (g[(i + 1) % 3] @ udata[(i + 2) % 3]
             - g[(i + 2) % 3] @ udata[(i + 1) % 3]) / self.lumped
            for i in range(3)
        ])

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
                    np.add.at(out[m], dofs, self.wq[q] * val * self.phi[q])
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
                    np.add.at(out, dofs,
                              nu_elem[e] * self.wq[q] * gph * self.dphi[k, q])
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
                    np.add.at(out, dofs, (
                        c_s * nu_elem[e] * self.wq[q] * diff * self.dphi[k, q]
                    ))
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


def normal_traction_pressure(ops, bdata, u, nu):
    """Outflow pressure from the plain zero-traction balance (no backflow
    compensation); the general form must reduce to this when S0 is 0.

    Loops over faces and normal components with the operator set's nodal
    gradients, independently of the solver's outflow Dirichlet datum.
    """
    mesh = ops.mesh
    vals = np.zeros(mesh.n_dofs)
    if not bdata.has_outflow or nu == 0.0:
        return vals
    grads = [ops.project_gradient(u.component(k)) for k in range(mesh.dim)]
    for f in bdata.outflow_faces:
        ids = f.dof_ids
        n = f.normal
        visc = np.zeros(ids.size)
        for k in range(mesh.dim):
            for m_ in range(mesh.dim):
                if n[k] == 0.0 or n[m_] == 0.0:
                    continue
                visc += n[k] * n[m_] * (grads[k].data[m_, ids] + grads[m_].data[k, ids])
        vals[ids] = nu * visc
    return vals
