"""Global discrete operators, applied matrix-free.

On a uniform box every constant-coefficient operator is a Kronecker sum of
1D matrices. Each axis has a stiffness K1, a quadrature mass M1 and a
derivative form G1 (``axis_matrices``). The weak gradient, divergence,
Laplacian and curl and the lumped mass contract them along the axes of the
(z, y, x) DoF grid. One direct solve of a M + b K (``solve_helmholtz``)
serves the pressure (a = 0) and the viscous step, and it and the wall
surface integral use the same K1 and M1, so the Laplacian applied is the
one inverted; M is M1 (x) M1 (x) M1 (``tensor_mass``). No global matrix is
stored.

At a collocated rule (GLL, or equispaced p <= 2) the quadrature points
are the nodes and M1 is diagonal, so the lumped-mass projection of the
weak x-derivative is the projected derivative M1^-1 G1 contracted along
x alone (``_projected_derivs``): one 1D matrix per axis. It gives
``project_gradient``, the curl and, times the lumped mass, the weak
gradient and divergence. Convection there is evaluated on the DoF grid
from the same projected derivatives, since the lumped scatter of W f is
M_L f at the nodes; ``project_convection`` keeps it nodal. Both
stabilizations at a collocated rule are weighted forms of 1D broken
derivatives per axis (``face_jumps``), F^T (W * F phi): the low-order one
of every element's own derivative, the projection one of its jumps across
element faces. So a collocated step runs no element kernel.

Off collocation (equispaced p >= 3, over-integrated rules) convection and
LPS, and at any rule the public quadrature-point helpers, are an element
loop in disguise: gather element-local nodal values with fancy indexing,
multiply them by a dense (nq^d x (p+1)^d) element block of values or of
d/dx_k at the quadrature points, weight them there and scatter-add back
with ``np.bincount``. The blocks follow from the basis alone.

Local DoFs are ordered (z, y, x) with x fastest, matching the global
numbering; quadrature points use the same flat ordering.

Building an operator set raises glibc's mmap and trim thresholds so that a
warm step reuses freed heap memory instead of page-faulting it back in.
After a first step it also writes one step-sized array's worth of heap
above that step's peak (``reserve_heap``), so that a later step whose
arrays land in another order grows into resident pages.
"""

import ctypes
from functools import cached_property, reduce
from operator import iadd

import numpy as np

from .basis import Basis1D, apply_along_axis, apply_kron
from .mesh import NameEnum

__all__ = [
    "ScalarField",
    "VectorField",
    "ConvectiveForm",
    "GlobalOperators",
    "LinearSolveError",
]


class FieldError(ValueError):
    """Field/mesh mismatch or invalid field data."""


class LinearSolveError(RuntimeError):
    """A linear solve met data it cannot solve (non-finite right-hand side)."""


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


def _convection(form, fields, at_points, deriv, assemble, out):
    """Fill ``out`` (dim, n_dofs) with the convective residual in ``form``
    from one kernel set: ``fields`` per velocity component, ``at_points``
    their values at the evaluation points, ``deriv(f, k)`` d f/dx_k there
    and ``assemble`` the residual of values given there."""
    dim = len(fields)
    if form is ConvectiveForm.CONSERVATIVE:
        for m in range(dim):
            div_flux = deriv(fields[0] * fields[m], 0)
            for k in range(1, dim):
                div_flux += deriv(fields[k] * fields[m], k)
            out[m] = assemble(div_flux)
        return out

    # Products accumulate in the fresh partials: uq may be u's own rows.
    uq = [at_points(f) for f in fields]
    diag = [deriv(fields[k], k) for k in range(dim)]  # d u_k / d x_k
    if form is ConvectiveForm.SKEW_SYMMETRIC:
        half_div = diag[0].copy()
        for d in diag[1:]:
            half_div += d
        half_div *= 0.5
    for m in range(dim):
        grads = [diag[m] if k == m else deriv(fields[m], k)
                 for k in range(dim)]  # grads[k] = d u_m / d x_k
        adv = grads[0]
        adv *= uq[0]
        for k in range(1, dim):
            grads[k] *= uq[k]
            adv += grads[k]
        if form is ConvectiveForm.SKEW_SYMMETRIC:  # in a spent partial
            adv += np.multiply(uq[m], half_div,
                               out=grads[-1] if dim > 1 else None)
        out[m] = assemble(adv)
    return out


def _with_transpose(mat):
    """``mat`` and the transpose applied with it, both Fortran-ordered: the
    layout in which ``apply_along_axis`` contracts either along the last
    axis without copying it."""
    return np.asfortranarray(mat), np.ascontiguousarray(mat).T


def _diagonalized_solve(x, s_axes, inv, first_axis=0):
    """S (inv * S^T x), each axis's (S, S^T) contracted along consecutive
    array axes of x starting at ``first_axis``."""
    x = apply_kron([s_t for _, s_t in s_axes], x, first_axis)
    x *= inv
    return apply_kron([s for s, _ in s_axes], x, first_axis)


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


class _MallInfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks",
        "fsmblks", "uordblks", "fordblks", "keepcost")]


_reserved_arena = 0  # heap size after the last reserve, process-wide


def _reserve_heap(nbytes):
    """Grow glibc's heap by nbytes of written pages and free them again:
    with the trim threshold held they stay resident in the top chunk.
    After a first step, a warm step whose freed arrays fragment the heap
    differently (which depends on the allocation history, even on the
    interpreter's own allocator) grows into these pages instead of
    faulting new ones in. Skipped while the heap has not grown since the
    last reserve, so operator sets built one after another do not stack
    reserves. No-op unless ``_hold_freed_arrays`` took effect, since the
    blocks must stay below the mmap threshold."""
    global _reserved_arena
    mallinfo2 = getattr(ctypes.CDLL(None), "mallinfo2", None)
    if mallinfo2 is None or not _held_bytes:
        return
    mallinfo2.restype = _MallInfo2
    start = mallinfo2()
    if start.arena <= _reserved_arena:
        return
    chunk = min(nbytes, _held_bytes // 2)
    blocks = []
    # Each block either fills free heap or grows it, so this bound holds.
    for _ in range((start.fordblks + nbytes) // chunk + 2):
        if mallinfo2().arena - start.arena >= nbytes:
            break
        blocks.append(np.ones(chunk // 8))
    _reserved_arena = mallinfo2().arena


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

        self.lumped_mass = self._assemble_lumped_mass()
        self._inv_lumped = 1.0 / self.lumped_mass
        self._eigenpairs = {}  # see _box_factors
        self._diagonals = {}  # see solve_helmholtz
        # A step's largest array, a stacked vector field. The element-array
        # term stays because the heap sizing TestHeldHeap pins was tuned on it.
        self._step_bytes = 8 * max(mesh.n_elems * self._nqd,
                                   dim * mesh.n_dofs)
        self._heap_reserved = False
        _hold_freed_arrays(self._step_bytes)

    def reserve_heap(self):
        """Once per operator set, after a first step has set the heap's
        peak: write a step's largest array's worth of heap above it (see
        ``_reserve_heap``). Costs that much resident memory."""
        if not self._heap_reserved:
            self._heap_reserved = True
            _reserve_heap(self._step_bytes)

    # -- kernels ---------------------------------------------------------------

    def _gather(self, values):
        return values[self._gidx]

    def _scatter(self, local):
        return np.bincount(
            self._flat_gidx, weights=local.ravel(), minlength=self.mesh.n_dofs
        )

    def _deriv(self, vals, k=None, transpose=False):
        """Element-local nodal values at the quadrature points (``k`` None)
        or their d/dx_k there; ``transpose``: entry i of an element is
        sum_q vals[q] l_i(q), or sum_q vals[q] dl_i/dx_k (q)."""
        if k is None and self.basis.collocated:
            return vals  # the quadrature points are the nodes
        mat = self._kernels[k]
        return vals @ (mat if transpose else mat.T)

    @cached_property
    def _kernels(self):
        """Dense element blocks (nqd, nloc): key k the d/dx_k of the basis
        at the quadrature points and, off collocation, key None its
        values there."""
        dim, b = self.mesh.dim, self.basis
        blocks = {k: reduce(np.kron, [b.quad_diff_matrix if a == dim - 1 - k
                                      else b.eval_matrix for a in range(dim)])
                  * self._scale[k] for k in range(dim)}
        if not b.collocated:
            blocks[None] = reduce(np.kron, [b.eval_matrix] * dim)
        return blocks

    def _kron_term(self, values, k, mat):
        """Flat or stacked (ncomp, n_dofs) nodal values times ``mat`` (K1
        or G1 of axis k) on axis k and M1 on every other axis of the
        (z, y, x) DoF grid."""
        mats = [mat if j == k else self._axis_masses[j]
                for j in reversed(range(self.mesh.dim))]
        return apply_kron(mats, values.reshape((-1,) + self._grid),
                          first_axis=1).reshape(values.shape)

    def _partial(self, values, k):
        """d/dx_k of flat nodal values in the cheaper of two forms: at a
        collocated rule the nodal projected derivative (``_projected_derivs``
        contracted along axis k of the DoF grid), otherwise the weak partial
        quad(l_i d(values)/dx_k). ``_weak`` and ``_nodal`` take either form
        to the weak residual or to its lumped-mass projection."""
        if self.basis.collocated:
            return apply_along_axis(self._projected_derivs[k],
                                    values.reshape(self._grid),
                                    self.mesh.dim - 1 - k).ravel()
        return self._kron_term(values, k, self.axis_matrices[k][2])

    def _weak(self, partials):
        return partials * self.lumped_mass if self.basis.collocated else partials

    def _nodal(self, partials):
        return partials if self.basis.collocated else partials * self._inv_lumped

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
        return self._deriv(self._gather(values))

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
        return ScalarField(self.mesh, self._assemble(
            fvals.reshape(self.mesh.n_elems, self._nqd)))

    def _assemble(self, qvals):
        """Weighted residual quad(l_i f) of values f given at the
        quadrature points, (E, nq^dim)."""
        return self._scatter(self._deriv(qvals * self._wq, transpose=True))

    # -- spec operators ----------------------------------------------------

    def weak_divergence(self, u: VectorField) -> ScalarField:
        """Assembled residual of the divergence: entry i is quad(l_i div u)."""
        _check_same_mesh(self.mesh, u)
        return ScalarField(self.mesh, self._weak(self._divergence(u.data)))

    def project_divergence(self, u: VectorField) -> ScalarField:
        """Continuous (nodal) divergence: lumped-mass inverse of
        weak_divergence."""
        _check_same_mesh(self.mesh, u)
        return ScalarField(self.mesh, self._nodal(self._divergence(u.data)))

    def _divergence(self, data):
        return reduce(iadd, map(self._partial, data, range(self.mesh.dim)))

    def weak_gradient(self, p: ScalarField) -> VectorField:
        """Assembled residual of the gradient, one component per axis."""
        _check_same_mesh(self.mesh, p)
        return VectorField(self.mesh, np.stack(
            [self._weak(self._partial(p.values, k))
             for k in range(self.mesh.dim)]))

    def projected_partial(self, values, k):
        """Nodal d/dx_k of flat nodal values: the lumped-mass inverse of the
        weak partial quad(l_i d(values)/dx_k)."""
        return self._nodal(self._partial(values, k))

    def project_gradient(self, phi: ScalarField) -> VectorField:
        """Continuous (nodal) gradient: lumped-mass inverse of weak_gradient."""
        _check_same_mesh(self.mesh, phi)
        return VectorField(self.mesh, np.stack(
            [self.projected_partial(phi.values, k)
             for k in range(self.mesh.dim)]))

    def weak_laplacian(self, phi: ScalarField) -> ScalarField:
        """Stiffness action quad(grad w . grad phi), SPD sign convention
        (:meth:`tensor_stiffness`)."""
        _check_same_mesh(self.mesh, phi)
        return ScalarField(self.mesh, self.tensor_stiffness(phi.values))

    def tensor_stiffness(self, data):
        """The weak Laplacian K applied to flat or stacked (ncomp, n_dofs)
        nodal values: the sum over axes k of K1 on axis k and M1 on the
        others, the K that :meth:`solve_helmholtz` inverts."""
        return reduce(iadd, (self._kron_term(data, k, self.axis_matrices[k][0])
                             for k in range(self.mesh.dim)))

    def tensor_mass(self, data):
        """M1 (x) M1 (x) M1 applied to stacked (ncomp, n_dofs) nodal values:
        the lumped mass at a collocated rule, else the consistent mass."""
        if self.basis.collocated:
            return data * self.lumped_mass
        masses = [self._axis_masses[k] for k in reversed(range(self.mesh.dim))]
        return apply_kron(masses, data.reshape((len(data),) + self._grid),
                          first_axis=1).reshape(data.shape)

    def weak_div_flux(self, flux_at_quad, elem_scale) -> ScalarField:
        """Assemble quad(grad w . F) from a flux F given at quadrature points,
        each element's contribution scaled by elem_scale[e]."""
        acc = reduce(np.add, (
            self._deriv(flux_at_quad[k].reshape(-1, self._nqd) * self._wq, k,
                        transpose=True) for k in range(self.mesh.dim)))
        return ScalarField(self.mesh, self._scatter(acc * elem_scale[:, None]))

    def convective_term(self, u: VectorField, form) -> VectorField:
        """Assembled residual of the convective operator in the given form.

        The divergence (conservative) form interpolates the nodal flux
        products u_k u_m and differentiates the interpolant, as nodal codes
        do; this is the aliasing-sensitive evaluation. The advective form
        multiplies pointwise at the quadrature points, and the
        skew-symmetric form is the advective one plus (div u) u / 2, with
        the divergence taken from the exact interpolant gradient.

        At a collocated rule the quadrature points are the nodes and the
        scatter of W f is M_L f at the nodes, so every form is evaluated
        on the DoF grid with the projected derivative and multiplied by the
        lumped mass once. Otherwise element kernels evaluate it at the
        quadrature points.
        """
        return VectorField(self.mesh, self._weak(self._convect(u, form)))

    def project_convection(self, u: VectorField, form) -> VectorField:
        """Nodal convective term: lumped-mass inverse of convective_term.
        At a collocated rule it is evaluated on the DoF grid and never
        multiplied by the lumped mass."""
        return VectorField(self.mesh, self._nodal(self._convect(u, form)))

    def _convect(self, u, form):
        """The convective term in the form that ``_partial`` returns: nodal
        at a collocated rule, else the weak residual."""
        _check_same_mesh(self.mesh, u)
        form = ConvectiveForm.coerce(form)
        out = np.empty((self.mesh.dim, self.mesh.n_dofs))
        if self.basis.collocated:
            return _convection(form, u.data, lambda v: v, self._partial,
                               lambda f: f, out)
        return _convection(form, [self._gather(v) for v in u.data],
                           self._deriv, self._deriv, self._assemble, out)

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
            self._nodal(self._partial(u.data[cp], ap)
                        - self._partial(u.data[cm], am))
            for cp, ap, cm, am in pairs]))

    # -- fast diagonalization ----------------------------------------------

    @cached_property
    def axis_matrices(self):
        """Per spatial axis k, the 1D stiffness K1, quadrature mass M1,
        derivative form G1 = quad(l_i l_j') (no h factor: (h/2)(2/h) = 1)
        and G1^T.

        All are assembled over axis k's elements with this operator set's
        rule, with periodic or non-periodic ends, Fortran-ordered like
        every matrix the operators contract (``_with_transpose``). The weak
        Laplacian is the sum over axes of K1 (x) M1 (x) M1, the weak
        x-derivative is M1 (x) M1 (x) G1, and the mass of a box face is the
        product of its tangent axes' M1.
        """
        mesh, b = self.mesh, self.basis
        w, B, Dq = b.quad_weights, b.eval_matrix, b.quad_diff_matrix
        out = []
        for k in range(mesh.dim):
            h, n = mesh.h_axes[k], mesh.dofs_per_axis[k]
            ids = mesh._axis_dof_maps[k]
            rows, cols = ids[:, :, None], ids[:, None, :]
            k1, m1, g1 = (np.zeros((n, n), order="F") for _ in range(3))
            np.add.at(k1, (rows, cols), (2.0 / h) * (Dq.T @ (w[:, None] * Dq)))
            np.add.at(m1, (rows, cols), (0.5 * h) * (B.T @ (w[:, None] * B)))
            np.add.at(g1, (rows, cols), B.T @ (w[:, None] * Dq))
            out.append((k1, m1) + _with_transpose(g1))
        return out

    @cached_property
    def _projected_derivs(self):
        """Per spatial axis k, the projected derivative M1^-1 G1 (n_k x n_k)
        of a collocated rule, where M1 is diagonal: nodal values along axis
        k to the nodal d/dx_k of their lumped-mass projection, the g_h of
        the stabilization. The weak x-derivative is then M_L times it
        contracted along x."""
        return [g1 / np.diagonal(m1)[:, None]
                for _, m1, g1, _ in self.axis_matrices]

    @cached_property
    def face_jumps(self):
        """Per spatial axis k, the 1D matrices of both stabilizations at a
        collocated rule (:mod:`lpsflow.stabilization`), with D the
        derivative matrix and w the quadrature weights of the basis:

        - (B, B^T), B (N_k (p+1) x n_k): the broken derivative, every
          element's own (2/h_k) D at its nodes; row e (p+1) + i is node i
          of element e.
        - (C, C^T), C (faces x n_k): the jump B[right, 0] - B[left, p] of
          the one-sided derivative on every inter-element face. A periodic
          axis has N_k faces, a non-periodic one only its N_k - 1 interior
          faces.
        - X (n_k x N_k): element values to nodes, entries w h_k / 2.
        - left, right: the element index on either side of every face.

        Each matrix is Fortran-ordered, with its transpose kept beside it
        (``_with_transpose``).
        """
        mesh, b = self.mesh, self.basis
        D, w, p = b.quad_diff_matrix, b.quad_weights, b.order
        out = []
        for k in range(mesh.dim):
            h, n = mesh.h_axes[k], mesh.dofs_per_axis[k]
            ids, n_el = mesh._axis_dof_maps[k], mesh.elems_per_axis[k]
            rows = np.arange(n_el * (p + 1)).reshape(n_el, p + 1, 1)
            broken = np.zeros((rows.size, n))
            np.add.at(broken, (rows, ids[:, None, :]), (2.0 / h) * D)
            left = np.arange(n_el if mesh.periodic[k] else n_el - 1)
            right = (left + 1) % n_el
            jump = broken[right * (p + 1)] - broken[left * (p + 1) + p]
            expand = np.zeros((n, n_el), order="F")
            np.add.at(expand, (ids, np.arange(n_el)[:, None]), (0.5 * h) * w)
            out.append((_with_transpose(broken), _with_transpose(jump),
                        expand, left, right))
        return out

    @cached_property
    def _axis_masses(self):
        """Per axis M1, as its diagonal (a scaling) if the rule is collocated."""
        return [np.diagonal(m1) if self.basis.collocated else m1
                for _, m1, _, _ in self.axis_matrices]

    def _axis_eigenpairs(self, k, keep):
        """Generalized eigenpairs K1 S = M1 S diag(lam) on axis k's free DoFs.

        K1 and M1 are ``axis_matrices[k]`` restricted to the indices
        ``keep``; S is M1-orthonormal (S^T M1 S = I). With R = M1^(-1/2) from
        eigh(M1), the symmetric eigh(R K1 R) = V gives S = R V, for diagonal
        and full M1 alike. eigh sorts lam ascending, so on a pure-Neumann
        axis lam[0] = 0 is the constant mode. Returns ((S, S^T), lam), laid
        out by ``_with_transpose``.
        """
        k1, m1 = self.axis_matrices[k][:2]
        k1, m1 = k1[keep, keep], m1[keep, keep]
        mu, q = np.linalg.eigh(m1)
        r = (q / np.sqrt(mu)) @ q.T
        lam, v = np.linalg.eigh(r @ k1 @ r)
        return _with_transpose(r @ v), lam

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
        """Per array axis (z, y, x) the eigenvectors (S, S^T) and eigenvalues
        lam on the sub-grid :meth:`free_slices` leaves free of ``pinned`` faces.

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

    def solve_helmholtz(self, rhs, a, b, pinned, values=None):
        """Solution x of (a M + b K) x = rhs for stacked (ncomp, n_dofs)
        right-hand sides, M and K as :meth:`tensor_mass` and
        :meth:`tensor_stiffness` apply them.

        The DoFs of every face tagged ``pinned`` hold ``values`` (stacked
        like ``rhs``, zero if omitted), lifted into the right-hand side; the
        rows of ``rhs`` there are not used. The free DoFs form the sub-grid
        :meth:`free_slices` leaves, where in the M1-orthonormal
        eigenvectors S of every axis the operator is the diagonal
        a + b (lam_x + lam_y + lam_z): the solve is a contraction with S^T
        per axis, a divide and a contraction with S per axis (Lynch, Rice &
        Thomas 1964). With a = 0 and nothing pinned the operator is
        singular: the Euclidean mean is removed from rhs first and from x
        last, the convention of mean-deflated CG. The diagonal of the last
        (a, b) is kept per pinned tag.
        """
        cached = self._diagonals.get(pinned)
        if cached is None or cached[0] != (a, b):
            s_axes, lams = self._box_factors(pinned)
            diag = sum(np.ix_(*lams))
            diag *= b
            diag += a
            if a == 0 and diag.size == self.mesh.n_dofs:
                diag[(0,) * self.mesh.dim] = np.inf  # drop the constant mode
            cached = ((a, b), self.free_slices(pinned), s_axes, 1.0 / diag)
            self._diagonals[pinned] = cached
        _, free, s_axes, inv = cached
        shape = (len(rhs),) + self._grid
        full = inv.size == self.mesh.n_dofs  # nothing pinned
        free = (slice(None),) + free
        if not full:
            x = np.zeros(shape)
            if values is not None:
                x[...] = np.reshape(values, shape)
                x[free] = 0.0  # the pinned values, 0 off the pinned faces
            if x.any():
                lift = x.reshape(rhs.shape)
                rhs = rhs - b * self.tensor_stiffness(lift)
                if a:
                    rhs -= a * self.tensor_mass(lift)
        if not np.isfinite(rhs.sum()):
            raise LinearSolveError("non-finite right-hand side in the direct "
                                   "solve")
        singular = a == 0 and full
        if singular:
            rhs = rhs - rhs.mean(axis=1, keepdims=True)
        sol = _diagonalized_solve(rhs.reshape(shape)[free], s_axes, inv,
                                  first_axis=1)
        if not full:
            x[free] = sol
            return x.reshape(rhs.shape)
        sol = sol.reshape(rhs.shape)
        return sol - sol.mean(axis=1, keepdims=True) if singular else sol
