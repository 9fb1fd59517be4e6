"""Global discrete operators, applied matrix-free.

On a uniform box every constant-coefficient operator is a Kronecker sum of
1D matrices. Each axis has a stiffness K1, a quadrature mass M1 and a
derivative form G1 (``axis_matrices``). The weak gradient, divergence,
Laplacian and curl and the lumped mass contract them along the axes of the
(z, y, x) DoF grid. The direct Laplacian solve, the diffusion
preconditioner and the wall surface integral use the same K1 and M1, so
the Laplacian applied is the one inverted. No global matrix is stored.

What varies per element or per quadrature point (convection,
stabilization, the viscous operator, integrals at the quadrature points)
is an element loop in disguise: gather element-local nodal values with
fancy indexing, differentiate them, weight them at the quadrature points
and scatter-add back with ``np.bincount``. The derivative d/dx_k and its
transpose follow from the basis alone. With collocated GLL quadrature and
p >= 4 they contract the 1D matrix D (2/h_k) along one axis of the
(E, m, ..., m) element array (sum factorization); otherwise they multiply
a dense (p+1)^d x (p+1)^d element block, which is faster at low order.

Local DoFs are ordered (z, y, x) with x fastest, matching the global
numbering; quadrature points use the same flat ordering.

Building an operator set raises glibc's mmap and trim thresholds so that a
warm step reuses freed heap memory instead of page-faulting it back in.
"""

import ctypes
from functools import cached_property, reduce

import numpy as np

from .basis import Basis1D, apply_along_axis, apply_kron
from .mesh import BoundaryTag, NameEnum

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
    def from_function(cls, mesh, fn):
        """Sample fn(points) -> (npts, ncomp) at the mesh nodes."""
        vals = np.asarray(fn(mesh.node_coords), dtype=float)
        return cls(mesh, vals.T.copy())


class ConvectiveForm(NameEnum):
    CONSERVATIVE = "conservative"
    NON_CONSERVATIVE = "nonconservative"
    SKEW_SYMMETRIC = "skew"


def _check_same_mesh(mesh, field):
    if field.mesh is not mesh:
        raise FieldError("field does not live on this operator set's mesh")


def _diagonalized_solve(x, s_axes, inv, first_axis=0):
    """S (inv * S^T x), each axis's S contracted along consecutive array
    axes of x starting at ``first_axis``."""
    x = apply_kron([s.T for s in s_axes], x, first_axis)
    x *= inv
    return apply_kron(s_axes, x, first_axis)


_held_bytes = 0  # mmap threshold set so far; mallopt is process-wide


def _hold_freed_arrays(nbytes):
    """Raise glibc's mmap threshold to 2 nbytes (1 to 32 MiB) and its trim
    threshold to 32 times that, never lowering them, so that a step's freed
    arrays stay in the heap rather than being page-faulted back in. Sized
    from the mesh: a fixed 1 MiB faults more than glibc's own at 32^3 P1,
    and the trim threshold stays resident after a peak. No-op off glibc."""
    global _held_bytes
    mmap_threshold = min(max(2 * nbytes, 1 << 20), 32 << 20)
    if mmap_threshold <= _held_bytes:
        return
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3
    if (mallopt(m_mmap_threshold, mmap_threshold)
            and mallopt(m_trim_threshold, 32 * mmap_threshold)):
        _held_bytes = mmap_threshold


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
        self._grid = mesh.dofs_per_axis[::-1]
        self._nqd = b.n_quad**dim
        self._scale = tuple(2.0 / h for h in mesh.h_axes)
        # Flat quadrature weights (incl. |J|).
        self._wq = reduce(np.kron, [b.quad_weights] * dim) * (
            mesh.elem_volume / 2.0**dim)
        # Below p = 4 dense element blocks win where it costs most: at 10^3
        # GLL P3 the single-axis viscous operator is 1.27x slower per apply,
        # and CG applies it several times a step (convection and LPS: 0.8x).
        self._single_axis = b.collocated and b.order >= 4
        self._elem_shape = ((mesh.n_elems,) + (b.n_quad,) * dim
                            if self._single_axis else (mesh.n_elems, -1))

        self.lumped_mass = self._assemble_lumped_mass()
        self._inv_lumped = 1.0 / self.lumped_mass
        self._eigenpairs = {}  # see _box_factors
        # A step's largest array: element-wise or a stacked vector field.
        _hold_freed_arrays(8 * max(mesh.n_elems * self._nqd,
                                   dim * mesh.n_dofs))

    # -- kernels ---------------------------------------------------------------

    def _gather(self, values):
        return values[self._gidx]

    def _scatter(self, local):
        return np.bincount(
            self._flat_gidx, weights=local.ravel(), minlength=self.mesh.n_dofs
        )

    def _to_quad(self, local):
        return local if self.basis.collocated else local @ self._phi.T

    def _from_quad_t(self, qvals):
        return qvals if self.basis.collocated else qvals @ self._phi

    def _deriv(self, vals, k, transpose=False):
        """d/dx_k of element-local nodal values at the quadrature points;
        ``transpose``: entry i of an element is sum_q vals[q] dl_i/dx_k (q)."""
        mat, mat_t, axis = self._kernels[k]
        return apply_along_axis(mat_t if transpose else mat,
                                vals.reshape(self._elem_shape),
                                axis).reshape(len(vals), -1)

    @cached_property
    def _kernels(self):
        """Per axis k, d/dx_k, its transpose and the element-array axis they
        contract: D (2/h_k) on one axis of (E, m, ..., m), or off the
        single-axis path the dense block DPHI[k] (nqd, nloc) on (E, nloc)."""
        dim, b = self.mesh.dim, self.basis
        if self._single_axis:
            # x is one GEMM, fastest with the matrix's transpose C-contiguous;
            # the other axes want the matrix itself C-contiguous.
            lay = [np.asfortranarray] + [np.ascontiguousarray] * (dim - 1)
            return [(lay[k](d), lay[k](d.T), dim - k) for k, d in
                    enumerate(b.quad_diff_matrix * s for s in self._scale)]
        dphi = [reduce(np.kron, [b.quad_diff_matrix if a == dim - 1 - k
                                 else b.eval_matrix for a in range(dim)])
                * self._scale[k] for k in range(dim)]
        return [(d, d.T, 1) for d in dphi]

    @cached_property
    def _phi(self):
        """Evaluation block (nqd, nloc); used only when not collocated."""
        return reduce(np.kron, [self.basis.eval_matrix] * self.mesh.dim)

    @cached_property
    def _viscous_blocks(self):
        """Dense stiffness sum_k C^kk and blocks C^km = dphi_k^T W dphi_m."""
        d = [mat for mat, _, _ in self._kernels]
        wq, dim = self._wq[:, None], self.mesh.dim
        cross = [[d[k].T @ (wq * d[m]) for m in range(dim)] for k in range(dim)]
        return sum(d_k.T @ (wq * d_k) for d_k in d), cross

    def _kron_term(self, values, k, mat):
        """Flat nodal values times ``mat`` (K1 or G1 of axis k) on axis k
        and M1 on every other axis of the (z, y, x) DoF grid."""
        mats = [mat if j == k else self._axis_masses[j]
                for j in reversed(range(self.mesh.dim))]
        return apply_kron(mats, values.reshape(self._grid)).ravel()

    def _weak_partial(self, values, k):
        """quad(l_i d(values)/dx_k) for every DoF i."""
        return self._kron_term(values, k, self.axis_matrices[k][2])

    # -- assembly --------------------------------------------------------------

    def _assemble_lumped_mass(self):
        # Row sums of the consistent mass M1 (x) M1 (x) M1 are the outer
        # product of the M1 row sums; with collocated quadrature this is
        # exactly its diagonal.
        diag = reduce(np.multiply.outer,
                      [self.axis_matrices[k][1].sum(axis=1)
                       for k in reversed(range(self.mesh.dim))]).ravel()
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
        return [self._deriv(local, k) for k in range(self.mesh.dim)]

    def integrate(self, qvals):
        """Quadrature sum over the whole domain of values given at quad points."""
        return float(np.sum(qvals.reshape(-1, self._nqd) @ self._wq))

    def assemble_load(self, fn):
        """Weighted residual (integral against every test function) of fn(x)."""
        pts = self.quadrature_coords()
        fvals = np.asarray(fn(pts.reshape(-1, self.mesh.dim)), dtype=float)
        fvals = fvals.reshape(self.mesh.n_elems, self._nqd)
        return ScalarField(self.mesh,
                           self._scatter(self._from_quad_t(fvals * self._wq)))

    # -- spec operators ----------------------------------------------------

    def weak_divergence(self, u: VectorField) -> ScalarField:
        """Assembled residual of the divergence: entry i is quad(l_i div u)."""
        _check_same_mesh(self.mesh, u)
        return ScalarField(self.mesh, sum(self._weak_partial(u.data[k], k)
                                          for k in range(self.mesh.dim)))

    def weak_gradient(self, p: ScalarField) -> VectorField:
        """Assembled residual of the gradient, one component per axis."""
        _check_same_mesh(self.mesh, p)
        return VectorField(self.mesh, np.stack(
            [self._weak_partial(p.values, k) for k in range(self.mesh.dim)]))

    def project_gradient(self, phi: ScalarField) -> VectorField:
        """Continuous (nodal) gradient: lumped-mass inverse of weak_gradient."""
        g = self.weak_gradient(phi)
        g.data *= self._inv_lumped
        return g

    def weak_laplacian(self, phi: ScalarField) -> ScalarField:
        """Stiffness action quad(grad w . grad phi), SPD sign convention:
        the sum over axes of K1 on axis k and M1 on the others, the matrix
        that :meth:`solve_laplacian` inverts."""
        _check_same_mesh(self.mesh, phi)
        return ScalarField(self.mesh, sum(
            self._kron_term(phi.values, k, self.axis_matrices[k][0])
            for k in range(self.mesh.dim)))

    def weak_div_flux(self, flux_at_quad, elem_scale=None) -> ScalarField:
        """Assemble quad(grad w . F) from a flux F given at quadrature points."""
        acc = reduce(np.add, (
            self._deriv(flux_at_quad[k].reshape(-1, self._nqd) * self._wq, k,
                        transpose=True) for k in range(self.mesh.dim)))
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
                div_flux = self._deriv(locs[0] * locs[m], 0)
                for k in range(1, dim):
                    div_flux += self._deriv(locs[k] * locs[m], k)
                out[m] = self._scatter(self._from_quad_t(div_flux * self._wq))
            return VectorField(self.mesh, out)

        uq = [self._to_quad(loc) for loc in locs]
        grads = [[self._deriv(locs[m], k) for k in range(dim)]
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
        # (c+, ax+, c-, ax-): component i is d u_c+/dx_ax+ - d u_c-/dx_ax-.
        pairs = (((1, 0, 0, 1),) if dim == 2 else
                 ((2, 1, 1, 2), (0, 2, 2, 0), (1, 0, 0, 1)))
        return VectorField(self.mesh, np.stack([
            (self._weak_partial(u.data[cp], ap)
             - self._weak_partial(u.data[cm], am)) * self._inv_lumped
            for cp, ap, cm, am in pairs]))

    def symmetric_gradient_stiffness(self, data, nu):
        """Assembled viscous residual quad(grad w : nu (grad u + grad u^T)).

        ``data`` is the stacked (dim, ndofs) velocity array; the component
        coupling through the transposed gradient is kept, so this is the SPD
        operator behind the implicit diffusion solve.
        """
        # Element kernels, not 1D Kronecker terms: on the long axis of a
        # channel (129 DoFs) the dense 1D form costs ~3x more per apply, and
        # the diffusion CG applies this operator several times per step.
        dim = self.mesh.dim
        locs = [self._gather(data[k]) for k in range(dim)]
        out = np.empty_like(data)
        for m in range(dim):
            if self._single_axis:
                # sum_k D_k^T W (d_k u_m + d_m u_k) term by term: as fast as
                # holding all dim^2 gradients, with dim^2 - 1 fewer arrays.
                acc = 0.0
                for k in range(dim):
                    s = self._deriv(locs[m], k)
                    s += s if k == m else self._deriv(locs[k], m)
                    s *= self._wq
                    acc += self._deriv(s, k, transpose=True)
            else:
                stiff, cross = self._viscous_blocks
                acc = locs[m] @ stiff
                # Transposed-gradient coupling: sum_k C^{km} u_k; batched
                # right-multiply needs its transpose C^{mk} = cross[m][k].
                for k in range(dim):
                    acc += locs[k] @ cross[m][k]
            out[m] = nu * self._scatter(acc)
        return out

    # -- fast diagonalization ----------------------------------------------

    @cached_property
    def axis_matrices(self):
        """Per spatial axis k, the 1D stiffness K1, quadrature mass M1 and
        derivative form G1 = quad(l_i l_j') (no h factor: (h/2)(2/h) = 1).

        All three are assembled over axis k's elements with this operator
        set's rule, with periodic or non-periodic ends. The weak Laplacian
        is the sum over axes of K1 (x) M1 (x) M1, the weak x-derivative is
        M1 (x) M1 (x) G1, and the mass of a box face is the product of its
        tangent axes' M1.
        """
        mesh, b = self.mesh, self.basis
        w, B, Dq = b.quad_weights, b.eval_matrix, b.quad_diff_matrix
        out = []
        for k in range(mesh.dim):
            h, n = mesh.h_axes[k], mesh.dofs_per_axis[k]
            ids = mesh._axis_dof_maps[k]
            rows, cols = ids[:, :, None], ids[:, None, :]
            k1, m1, g1 = (np.zeros((n, n)) for _ in range(3))
            np.add.at(k1, (rows, cols), (2.0 / h) * (Dq.T @ (w[:, None] * Dq)))
            np.add.at(m1, (rows, cols), (0.5 * h) * (B.T @ (w[:, None] * B)))
            np.add.at(g1, (rows, cols), B.T @ (w[:, None] * Dq))
            out.append((k1, m1, g1))
        return out

    @cached_property
    def _axis_masses(self):
        """Per axis M1, as its diagonal (a scaling) if the rule is collocated."""
        return [np.diagonal(m1) if self.basis.collocated else m1
                for _, m1, _ in self.axis_matrices]

    def _axis_eigenpairs(self, k, keep):
        """Generalized eigenpairs K1 S = M1 S diag(lam) on axis k's free DoFs.

        K1 and M1 are ``axis_matrices[k]`` restricted to the indices
        ``keep``; S is M1-orthonormal (S^T M1 S = I). With R = M1^(-1/2) from
        eigh(M1), the symmetric eigh(R K1 R) = V gives S = R V, for diagonal
        and full M1 alike. eigh sorts lam ascending, so on a pure-Neumann
        axis lam[0] = 0 is the constant mode.
        """
        k1, m1, _ = self.axis_matrices[k]
        k1, m1 = k1[keep, keep], m1[keep, keep]
        mu, q = np.linalg.eigh(m1)
        r = (q / np.sqrt(mu)) @ q.T
        lam, v = np.linalg.eigh(r @ k1 @ r)
        return r @ v, lam

    def free_slices(self, pinned):
        """Per array axis (z, y, x) the slice of the DoF grid left free when
        the DoFs of every face tagged ``pinned`` are held fixed.

        Pinning a whole face drops its axis's first or last index, so the
        free DoFs form the Cartesian sub-grid ``grid[free_slices(tag)]``.
        """
        mesh = self.mesh
        keeps = []
        for k in reversed(range(mesh.dim)):
            cut = {f.side for f in mesh.boundary_faces.values()
                   if f.axis == k and f.tag is pinned}
            keeps.append(slice(int(0 in cut),
                               mesh.dofs_per_axis[k] - int(1 in cut)))
        return tuple(keeps)

    def _box_factors(self, pinned):
        """Per array axis (z, y, x) the eigenvectors S and eigenvalues lam
        on the sub-grid :meth:`free_slices` leaves free of ``pinned`` faces.

        Factors live in one cache keyed by axis geometry and free slice, so
        equal axes (a cube) and the pressure and diffusion solves of a
        periodic box share them.
        """
        mesh = self.mesh
        s_axes, lams = [], []
        for a, keep in enumerate(self.free_slices(pinned)):
            k = mesh.dim - 1 - a
            key = (mesh.elems_per_axis[k], mesh.h_axes[k], mesh.periodic[k],
                   keep.start, keep.stop)
            if key not in self._eigenpairs:
                self._eigenpairs[key] = self._axis_eigenpairs(k, keep)
            s, lam = self._eigenpairs[key]
            s_axes.append(s)
            lams.append(lam)
        return s_axes, lams

    @cached_property
    def _laplacian_factors(self):
        """S per array axis for the pressure, whose outflow faces are
        pinned, and 1 / sum of lam over the free DoFs.

        Without any outflow face K is singular and the reciprocal of the
        constant mode (index 0 on every axis) is zero.
        """
        s_axes, lams = self._box_factors(BoundaryTag.OUTFLOW)
        lam_sum = sum(np.ix_(*lams))
        if lam_sum.size == self.mesh.n_dofs:
            lam_sum[(0,) * self.mesh.dim] = np.inf
        return s_axes, 1.0 / lam_sum

    def diffusion_block_solver(self, c):
        """Inverse of the per-component diagonal blocks of M + c S_sym.

        S_sym is :meth:`symmetric_gradient_stiffness` with nu = 1; its block
        for velocity component m is sum_k K^(k) + K^(m), where K^(k) is the
        axis-k Kronecker term of the weak Laplacian, and the mass is taken
        as M1 (x) M1 (x) M1 (the lumped mass at GLL). In the M1-orthonormal
        eigenvectors S of every axis each block is the diagonal
        1 + c (lam_x + lam_y + lam_z + lam_m). The returned callable maps r
        on the sub-grid off the walls, shape (dim, *free shape), to
        z = S (1 + c lam)^-1 S^T r, all components contracted together.
        """
        s_axes, lams = self._box_factors(BoundaryTag.DIRICHLET_WALL)
        dim = self.mesh.dim
        lam_axes = np.ix_(*lams)  # array axis a holds spatial axis dim-1-a
        lam_sum = sum(lam_axes)
        inv = np.stack([1.0 / (1.0 + c * (lam_sum + lam_axes[dim - 1 - m]))
                        for m in range(dim)])

        def solve(r):
            return _diagonalized_solve(r, s_axes, inv, first_axis=1)

        return solve

    def solve_laplacian(self, values):
        """Solution p of the weak Laplacian system K p = b, zero on outflow.

        K is the sum over axes of K1 (x) M1 (x) M1. Dropping the rows and
        columns of the outflow faces (corners included) leaves the same sum
        over each axis's free indices, so with the per-axis eigenvectors S
        the solve is a contraction with S^T per axis, a divide by
        lam_x + lam_y + lam_z and a contraction with S per axis (Lynch, Rice
        & Thomas 1964). Without an outflow face K is singular: the Euclidean
        mean is removed from b first and from p last, the convention of
        mean-deflated CG.
        """
        s_axes, inv_lam = self._laplacian_factors
        free = self.free_slices(BoundaryTag.OUTFLOW)
        singular = inv_lam.size == self.mesh.n_dofs
        if singular:
            values = values - values.mean()
        x = _diagonalized_solve(values.reshape(self._grid)[free], s_axes,
                                inv_lam)
        if singular:
            x = x.ravel()
            return x - x.mean()
        out = np.zeros(self._grid)
        out[free] = x
        return out.ravel()


def assemble_lumped_mass(mesh, basis=None):
    """Diagonal lumped mass for the mesh (row sums of the consistent mass)."""
    return GlobalOperators(mesh, basis).lumped_mass
