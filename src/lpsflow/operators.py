"""Global discrete operators, applied matrix-free.

Every operator is an element loop in disguise: gather element-local nodal
values with fancy indexing, hit them with a precomputed element-local
matrix (shared by all elements, since meshes are uniform boxes), and
scatter-add back with ``np.bincount``. No global matrix is ever stored;
only the lumped mass and the O(nloc^2) local blocks. The one exception is
the direct Laplacian solve on fully periodic meshes, which keeps dense 1D
eigenvector matrices, one per distinct axis.

Local DoFs are ordered (z, y, x) with x fastest, matching the global
numbering; quadrature points use the same flat ordering.
"""

import enum
from functools import cached_property

import numpy as np

from .basis import Basis1D, apply_along_axis

__all__ = [
    "ScalarField",
    "VectorField",
    "ConvectiveForm",
    "GlobalOperators",
    "assemble_lumped_mass",
]


class FieldError(ValueError):
    """Field/mesh mismatch or invalid field data."""


class ScalarField:
    """Nodal coefficients of one scalar unknown over the mesh DoFs."""

    def __init__(self, mesh, values=None):
        self.mesh = mesh
        if values is None:
            values = np.zeros(mesh.n_dofs)
        values = np.asarray(values, dtype=float)
        if values.shape != (mesh.n_dofs,):
            raise FieldError(
                f"expected {mesh.n_dofs} values, got shape {values.shape}"
            )
        self.values = values

    def copy(self):
        return ScalarField(self.mesh, self.values.copy())

    @classmethod
    def from_function(cls, mesh, fn):
        """Sample fn(x) (vectorized over points) at the mesh nodes."""
        return cls(mesh, np.asarray(fn(mesh.node_coords), dtype=float))


class VectorField:
    """A stack of ScalarFields sharing one mesh; data shape (ncomp, ndofs)."""

    def __init__(self, mesh, data=None, ncomp=None):
        self.mesh = mesh
        if data is None:
            data = np.zeros((mesh.dim if ncomp is None else ncomp, mesh.n_dofs))
        data = np.asarray(data, dtype=float)
        if data.ndim != 2 or data.shape[1] != mesh.n_dofs:
            raise FieldError(f"bad vector field shape {data.shape}")
        self.data = data

    @property
    def ncomp(self):
        return self.data.shape[0]

    def component(self, k):
        return ScalarField(self.mesh, self.data[k])

    def copy(self):
        return VectorField(self.mesh, self.data.copy())

    @classmethod
    def from_components(cls, fields):
        mesh = fields[0].mesh
        return cls(mesh, np.stack([f.values for f in fields]))

    @classmethod
    def from_function(cls, mesh, fn):
        """Sample fn(points) -> (npts, ncomp) at the mesh nodes."""
        vals = np.asarray(fn(mesh.node_coords), dtype=float)
        return cls(mesh, vals.T.copy())


class ConvectiveForm(enum.Enum):
    CONSERVATIVE = "conservative"
    NON_CONSERVATIVE = "nonconservative"
    SKEW_SYMMETRIC = "skew"

    @classmethod
    def coerce(cls, value):
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).lower())
        except ValueError:
            names = ", ".join(f.value for f in cls)
            raise ValueError(
                f"unknown convective form {value!r} (expected: {names})"
            ) from None


def _check_same_mesh(mesh, field):
    if field.mesh is not mesh:
        raise FieldError("field does not live on this operator set's mesh")


def _tensorize_rows(mats):
    """Kronecker product of 1D matrices in (z, y, x) slot order."""
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


class GlobalOperators:
    """Matrix-free actions of mass, gradient, divergence, Laplacian, ...

    Pass ``basis`` to override the mesh's quadrature (e.g. an over-integrated
    rule for verification); the nodal basis itself must match the mesh.
    """

    def __init__(self, mesh, basis: Basis1D = None):
        self.mesh = mesh
        self.basis = mesh.basis if basis is None else basis
        if not np.array_equal(self.basis.nodes, mesh.basis.nodes):
            raise ValueError("basis nodes differ from the mesh's nodal basis")

        dim = mesh.dim
        b = self.basis
        self._gidx = mesh.elem_to_dofs
        self._flat_gidx = self._gidx.ravel()
        self._nloc = b.n_nodes**dim
        self._nqd = b.n_quad**dim
        self._jac = mesh.elem_volume / 2.0**dim
        self._scale = tuple(2.0 / h for h in mesh.h_axes)

        # Flat quadrature weights (incl. |J|) and local evaluation /
        # derivative matrices: PHI (nqd, nloc), DPHI[k] with metric folded in.
        w1 = b.quad_weights
        self._wq = _tensorize_rows([w1[:, None]] * dim).ravel() * self._jac
        B, Dq = b.eval_matrix, b.quad_diff_matrix
        self._phi = _tensorize_rows([B] * dim) if dim > 1 else B
        self._dphi = []
        for k in range(dim):
            slot = dim - 1 - k  # spatial axis k lives on tensor slot dim-1-k
            mats = [Dq if a == slot else B for a in range(dim)]
            self._dphi.append(_tensorize_rows(mats) * self._scale[k])
        self._phi_is_identity = bool(b.collocated)

        wq = self._wq
        self._grad_local = [self._phi.T @ (wq[:, None] * d) for d in self._dphi]
        self._stiff_local = sum(d.T @ (wq[:, None] * d) for d in self._dphi)
        # Cross blocks for the symmetric-gradient operator.
        self._cross_local = [
            [self._dphi[k].T @ (wq[:, None] * self._dphi[m]) for m in range(dim)]
            for k in range(dim)
        ]
        self._mass_row = self._phi.T @ wq  # local lumped mass (row sums)

        self.lumped_mass = self._assemble_lumped_mass()
        self._inv_lumped = 1.0 / self.lumped_mass

    # -- kernels ---------------------------------------------------------------

    @staticmethod
    def _apply(mat, values, axis):
        """Contract a 1D matrix along one tensor axis (used on face data)."""
        moved = np.moveaxis(values, axis, -1)
        return np.moveaxis(moved @ mat.T, -1, axis)

    def _gather(self, values):
        return values[self._gidx]

    def _scatter(self, local):
        return np.bincount(
            self._flat_gidx, weights=local.ravel(), minlength=self.mesh.n_dofs
        )

    def _to_quad(self, local):
        if self._phi_is_identity:
            return local
        return local @ self._phi.T

    def _from_quad_t(self, qvals):
        if self._phi_is_identity:
            return qvals
        return qvals @ self._phi

    def _grad_component(self, local, k):
        """d/dx_k of the interpolant at the quadrature points, (E, nqd)."""
        return local @ self._dphi[k].T

    # -- assembly --------------------------------------------------------------

    def _assemble_lumped_mass(self):
        # Row sum of the consistent mass = integral of each basis function;
        # with collocated quadrature this is exactly the diagonal of m.
        local = np.broadcast_to(self._mass_row,
                                (self.mesh.n_elems, self._nloc))
        diag = self._scatter(local)
        if np.any(diag <= 0.0):
            raise FieldError(
                "lumped mass has non-positive entries; the nodal basis does "
                "not admit row-sum lumping at this order"
            )
        return diag

    def quadrature_coords(self):
        """Physical coordinates of this rule's quadrature points.

        Shape (n_elems, nq^dim, dim); follows self.basis, which may be an
        over-integrated rule rather than the mesh's collocated one.
        """
        mesh = self.mesh
        ref = self.basis.quad_nodes
        pts_1d = [(ref + 1.0) * (0.5 * h) for h in mesh.h_axes]
        grids = np.meshgrid(*pts_1d[::-1], indexing="ij")
        offs = np.stack([g.ravel() for g in grids[::-1]], axis=1)
        return mesh.elem_origins[:, None, :] + offs[None, :, :]

    def interp_to_quad(self, values):
        """Nodal values -> values at all quadrature points, (E, nq^dim)."""
        return self._to_quad(self._gather(values))

    def grad_at_quad(self, values):
        """Physical gradient of a nodal field at the quadrature points."""
        local = self._gather(values)
        return [self._grad_component(local, k) for k in range(self.mesh.dim)]

    def integrate(self, qvals):
        """Quadrature sum over the whole domain of values given at quad points."""
        return float(np.sum(qvals.reshape(-1, self._nqd) @ self._wq))

    def assemble_load(self, fn):
        """Weighted residual (integral against every test function) of fn(x)."""
        pts = self.quadrature_coords()
        fvals = np.asarray(fn(pts.reshape(-1, self.mesh.dim)), dtype=float)
        fvals = fvals.reshape(self.mesh.n_elems, self._nqd)
        return self.assemble_quad_values(fvals)

    def assemble_quad_values(self, qvals) -> ScalarField:
        """Integral against every test function of values at quad points."""
        return ScalarField(self.mesh,
                           self._scatter(self._from_quad_t(qvals * self._wq)))

    # -- spec operators ----------------------------------------------------

    def weak_divergence(self, u: VectorField) -> ScalarField:
        """Assembled residual of the divergence: entry i is quad(l_i div u)."""
        _check_same_mesh(self.mesh, u)
        acc = None
        for k in range(self.mesh.dim):
            t = self._gather(u.data[k]) @ self._grad_local[k].T
            acc = t if acc is None else acc + t
        return ScalarField(self.mesh, self._scatter(acc))

    def weak_gradient(self, p: ScalarField) -> VectorField:
        """Assembled residual of the gradient, one component per axis."""
        _check_same_mesh(self.mesh, p)
        local = self._gather(p.values)
        out = np.empty((self.mesh.dim, self.mesh.n_dofs))
        for k in range(self.mesh.dim):
            out[k] = self._scatter(local @ self._grad_local[k].T)
        return VectorField(self.mesh, out)

    def project_gradient(self, phi: ScalarField) -> VectorField:
        """Continuous (nodal) gradient: lumped-mass inverse of weak_gradient."""
        g = self.weak_gradient(phi)
        g.data *= self._inv_lumped
        return g

    def weak_laplacian(self, phi: ScalarField, elem_scale=None) -> ScalarField:
        """Stiffness action quad(grad w . grad phi), SPD sign convention.

        ``elem_scale`` optionally multiplies each element's contribution
        (used for per-element viscosities).
        """
        _check_same_mesh(self.mesh, phi)
        local = self._gather(phi.values) @ self._stiff_local
        if elem_scale is not None:
            local = local * np.asarray(elem_scale)[:, None]
        return ScalarField(self.mesh, self._scatter(local))

    def weak_div_flux(self, flux_at_quad, elem_scale=None) -> ScalarField:
        """Assemble quad(grad w . F) from a flux F given at quadrature points."""
        acc = None
        for k in range(self.mesh.dim):
            t = (flux_at_quad[k].reshape(-1, self._nqd) * self._wq) @ self._dphi[k]
            acc = t if acc is None else acc + t
        if elem_scale is not None:
            acc = acc * np.asarray(elem_scale)[:, None]
        return ScalarField(self.mesh, self._scatter(acc))

    def convective_term(self, u: VectorField, form) -> VectorField:
        """Assembled residual of the convective operator in the given form.

        The divergence (conservative) form interpolates the nodal flux
        products u_k u_m and differentiates the interpolant, as nodal codes
        do; this is the aliasing-sensitive evaluation. The advective form
        multiplies pointwise at the quadrature points, and the
        skew-symmetric form is the advective one plus (div u) u / 2, with
        the divergence taken from the exact interpolant gradient.
        """
        _check_same_mesh(self.mesh, u)
        form = ConvectiveForm.coerce(form)
        dim = self.mesh.dim
        locs = [self._gather(u.data[k]) for k in range(dim)]

        out = np.empty((dim, self.mesh.n_dofs))
        if form is ConvectiveForm.CONSERVATIVE:
            for m in range(dim):
                div_flux = (locs[0] * locs[m]) @ self._dphi[0].T
                for k in range(1, dim):
                    div_flux += (locs[k] * locs[m]) @ self._dphi[k].T
                out[m] = self._scatter(self._from_quad_t(div_flux * self._wq))
            return VectorField(self.mesh, out)

        uq = [self._to_quad(loc) for loc in locs]
        grads = [[self._grad_component(locs[m], k) for k in range(dim)]
                 for m in range(dim)]  # grads[m][k] = d u_m / d x_k
        if form is ConvectiveForm.SKEW_SYMMETRIC:
            div_q = grads[0][0]
            for k in range(1, dim):
                div_q = div_q + grads[k][k]
        for m in range(dim):
            adv = uq[0] * grads[m][0]
            for k in range(1, dim):
                adv += uq[k] * grads[m][k]
            if form is ConvectiveForm.SKEW_SYMMETRIC:
                adv += 0.5 * uq[m] * div_q
            out[m] = self._scatter(self._from_quad_t(adv * self._wq))
        return VectorField(self.mesh, out)

    def curl(self, u: VectorField) -> VectorField:
        """Nodal vorticity via lumped-mass projection of curl u.

        In 2D returns the single out-of-plane component as a 1-component
        field; in 3D all three components.
        """
        _check_same_mesh(self.mesh, u)
        dim = self.mesh.dim
        if dim == 1:
            raise FieldError("curl requires dim >= 2")
        if dim == 2:
            t = (self._gather(u.data[1]) @ self._grad_local[0].T
                 - self._gather(u.data[0]) @ self._grad_local[1].T)
            return VectorField(self.mesh,
                               (self._scatter(t) * self._inv_lumped)[None, :])
        locs = [self._gather(u.data[k]) for k in range(3)]
        pairs = ((2, 1, 1, 2), (0, 2, 2, 0), (1, 0, 0, 1))  # (c+, ax+, c-, ax-)
        out = np.empty((3, self.mesh.n_dofs))
        for i, (cp, ap, cm, am) in enumerate(pairs):
            t = locs[cp] @ self._grad_local[ap].T - locs[cm] @ self._grad_local[am].T
            out[i] = self._scatter(t) * self._inv_lumped
        return VectorField(self.mesh, out)

    def curl_of_plane_scalar(self, omega: ScalarField) -> VectorField:
        """2D vector curl of a scalar: (d omega/dy, -d omega/dx), projected."""
        _check_same_mesh(self.mesh, omega)
        if self.mesh.dim != 2:
            raise FieldError("plane-scalar curl is a 2D operation")
        local = self._gather(omega.values)
        gy = self._scatter(local @ self._grad_local[1].T)
        gx = self._scatter(local @ self._grad_local[0].T)
        data = np.stack([gy * self._inv_lumped, -gx * self._inv_lumped])
        return VectorField(self.mesh, data)

    def symmetric_gradient_stiffness(self, data, nu):
        """Assembled viscous residual quad(grad w : nu (grad u + grad u^T)).

        ``data`` is the stacked (dim, ndofs) velocity array; the component
        coupling through the transposed gradient is kept, so this is the SPD
        operator behind the implicit diffusion solve.
        """
        dim = self.mesh.dim
        locs = [self._gather(data[k]) for k in range(dim)]
        out = np.empty_like(data)
        for m in range(dim):
            acc = locs[m] @ self._stiff_local
            # Transposed-gradient coupling: sum_k C^{km} u_k with
            # C^{km} = dphi_k^T W dphi_m; batched right-multiply needs its
            # transpose C^{mk} = cross_local[m][k].
            for k in range(dim):
                acc += locs[k] @ self._cross_local[m][k]
            out[m] = nu * self._scatter(acc)
        return out

    def stiffness_diagonal(self):
        """Diagonal of the weak Laplacian (Jacobi preconditioner)."""
        local = np.broadcast_to(np.diag(self._stiff_local),
                                (self.mesh.n_elems, self._nloc))
        return self._scatter(local)

    # -- fast diagonalization of the periodic Laplacian -------------------

    def _axis_eigenpairs(self, k):
        """Generalized eigenpairs K1 S = M1 S diag(lam) of periodic axis k.

        K1 and M1 are the 1D stiffness and quadrature mass assembled with
        this operator set's rule; S is M1-orthonormal (S^T M1 S = I). The
        Cholesky factor M1 = L L^T reduces the problem to the symmetric
        eigh(L^-1 K1 L^-T) = V, S = L^-T V, for diagonal and full M1 alike.
        eigh sorts lam ascending, so lam[0] = 0 is the constant mode.
        """
        mesh, b = self.mesh, self.basis
        h, n = mesh.h_axes[k], mesh.dofs_per_axis[k]
        w, B, Dq = b.quad_weights, b.eval_matrix, b.quad_diff_matrix
        ids = mesh._axis_dof_maps[k]
        rows, cols = ids[:, :, None], ids[:, None, :]
        k1 = np.zeros((n, n))
        m1 = np.zeros((n, n))
        np.add.at(k1, (rows, cols), (2.0 / h) * (Dq.T @ (w[:, None] * Dq)))
        np.add.at(m1, (rows, cols), (0.5 * h) * (B.T @ (w[:, None] * B)))
        chol = np.linalg.cholesky(m1)
        reduced = np.linalg.solve(chol, np.linalg.solve(chol, k1).T)
        lam, v = np.linalg.eigh(reduced)
        return np.linalg.solve(chol.T, v), lam

    @cached_property
    def _laplacian_factors(self):
        """Per array axis (z, y, x) eigenvectors S, and 1 / sum of lam.

        Only meaningful on a fully periodic mesh; the reciprocal of the
        constant mode (index 0 on every axis) is set to zero.
        """
        mesh = self.mesh
        pairs = {}  # equal axes (a cube) share one factorization
        s_axes, lams = [], []
        for k in reversed(range(mesh.dim)):
            key = (mesh.elems_per_axis[k], mesh.h_axes[k])
            if key not in pairs:
                pairs[key] = self._axis_eigenpairs(k)
            s_axes.append(pairs[key][0])
            lams.append(pairs[key][1])
        lam_sum = sum(np.ix_(*lams))
        lam_sum[(0,) * mesh.dim] = np.inf
        return s_axes, 1.0 / lam_sum

    def solve_periodic_laplacian(self, values):
        """Mean-free solution of the weak Laplacian system K p = b.

        K is the sum over axes of K1 (x) M1 (x) M1, so with the per-axis
        eigenvectors S the solve is three contractions with S^T, a divide
        by lam_x + lam_y + lam_z and three contractions with S (Lynch, Rice
        & Thomas 1964). The Euclidean mean is removed from b first and
        from p last, the convention of mean-deflated CG. Fully periodic
        meshes only.
        """
        mesh = self.mesh
        if not all(mesh.periodic):
            raise FieldError("direct Laplacian solve needs a periodic mesh")
        s_axes, inv_lam = self._laplacian_factors
        x = (values - values.mean()).reshape(inv_lam.shape)
        for a, s in enumerate(s_axes):
            x = apply_along_axis(s.T, x, a)
        x *= inv_lam
        for a, s in enumerate(s_axes):
            x = apply_along_axis(s, x, a)
        x = x.ravel()
        return x - x.mean()


def assemble_lumped_mass(mesh, basis=None):
    """Diagonal lumped mass for the mesh (row sums of the consistent mass)."""
    return GlobalOperators(mesh, basis).lumped_mass
