"""Independent dense-matrix assembly used to cross-check the solver kernels.

Everything here is deliberately naive: Lagrange polynomials built from their
roots with numpy's polynomial module, element tables as products of the 1D
tables over every (quadrature point, local node) multi-index pair, explicit
Python loops over elements and quadrature points, and dense global
matrices. No code is shared with the tensor-product fast path beyond the
node/weight tables.

``normal_traction_pressure`` is the one exception: a reference outflow
pressure built on the solver's own nodal gradients, against which the
boundary tests check the backflow-compensated datum.
"""

import itertools
from functools import cached_property

import numpy as np
from numpy.polynomial import polynomial as P


def close_to(got, want, rel=1e-12):
    """True when |got - want| <= rel * max(max |want|, 1) everywhere: no
    relative term per entry, so a check reads as the tolerance it states
    (``np.allclose`` alone adds its default rtol of 1e-5)."""
    atol = rel * max(np.max(np.abs(want), initial=0.0), 1)
    return np.allclose(got, want, rtol=0, atol=atol)


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
        self.jac = 1.0
        for h in mesh.h_axes:
            self.jac *= h / 2.0

        # Local multi-indices run (z, y, x) with x fastest, matching the mesh.
        # Per tensor slot s, the 1D tables at every (quadrature point, local
        # node) pair; phi and dphi are products of them over the slots.
        qmulti = np.array(list(itertools.product(range(len(xq)), repeat=dim)))
        lmulti = np.array(list(itertools.product(range(p + 1), repeat=dim)))
        qs, ls = qmulti.T[:, :, None], lmulti.T[:, None, :]
        val1, dval1 = phi1[qs, ls], dphi1[qs, ls]  # (dim, nq, nloc)
        w = np.ones(nq)
        for s in range(dim):
            w *= wq[qmulti[:, s]]
        self.wq = w * self.jac
        self.phi = np.ones((nq, nloc))
        for s in range(dim):
            self.phi *= val1[s]
        self.dphi = np.zeros((dim, nq, nloc))
        for k in range(dim):  # spatial axis k = tensor slot dim-1-k
            slot = dim - 1 - k
            self.dphi[k] = 2.0 / mesh.h_axes[k]
            for s in range(dim):
                self.dphi[k] *= dval1[s] if s == slot else val1[s]

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
        block = np.einsum("q,qi,qj->ij", self.wq, self.dphi[ka], self.dphi[kb])
        for e in range(self.mesh.n_elems):
            dofs = self.mesh.elem_to_dofs[e]
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
        """-c_s sum_e nu_e ((grad - g_h) w, (grad - g_h) phi)_e as
        -c_s R^T (nu_e w_q * R phi), R one row per (element, axis k,
        quadrature point): d_k l_i - g_h,k(l_i) there, for every i."""
        rows, row_elem, row_quad = self._lps_rows
        weight = nu_elem[row_elem] * self.wq[row_quad]
        return -c_s * (rows.T @ (weight * (rows @ phi_vals)))

    @cached_property
    def _lps_rows(self):
        mesh = self.mesh
        proj = [g / self.lumped[:, None] for g in self.grad]  # w -> g_h(w)
        rows, row_elem = [], []
        for e in range(mesh.n_elems):
            dofs = mesh.elem_to_dofs[e]
            for k in range(mesh.dim):
                # Row q: d_k l_i - g_h,k(l_i) at quadrature point q.
                block = -self.phi @ proj[k][dofs, :]
                for j, dof in enumerate(dofs):
                    block[:, dof] += self.dphi[k, :, j]
                rows.append(block)
                row_elem.append(np.full(self.nq, e))
        row_quad = np.tile(np.arange(self.nq), len(rows))
        return np.concatenate(rows), np.concatenate(row_elem), row_quad

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
