"""1D nodal Lagrange bases on Gauss-Lobatto-Legendre or equispaced points.

A ``Basis1D`` bundles everything the tensor-product kernels need: node
positions on [-1, 1], a quadrature rule, and matrices evaluating the basis
(and its derivative) at the quadrature points. With GLL nodes the quadrature
points coincide with the nodes and the evaluation matrix is the identity,
which is what makes the mass matrix diagonal.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Basis1D",
    "gll_basis",
    "equispaced_basis",
    "gll_nodes_weights",
    "lagrange_eval_matrix",
    "differentiation_matrix",
]

_NEWTON_TOL = 1e-15
_NEWTON_MAX_ITERS = 100


class RootFindingError(RuntimeError):
    """Newton iteration for quadrature nodes failed to converge."""


def _legendre_and_deriv(n, x):
    """Evaluate L_n(x) and L'_n(x) by the three-term recurrence."""
    x = np.asarray(x, dtype=float)
    p_prev = np.ones_like(x)
    if n == 0:
        return p_prev, np.zeros_like(x)
    p = x.copy()
    for k in range(1, n):
        p_next = ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
        p_prev, p = p, p_next
    # Derivative left as 0 at the endpoints (never needed there).
    denom = x * x - 1.0
    dp = np.zeros_like(x)
    np.divide(n * (x * p - p_prev), denom, out=dp, where=denom != 0.0)
    return p, dp


def gll_nodes_weights(p):
    """Gauss-Lobatto-Legendre nodes and weights for polynomial order p.

    Nodes are the roots of (1 - x^2) L'_p(x), found by Newton iteration
    seeded with Chebyshev-Gauss-Lobatto points; weights are
    2 / (p (p+1) L_p(x_i)^2).
    """
    if p < 1:
        raise ValueError(f"order must be >= 1, got {p}")
    n = p + 1
    x = -np.cos(np.pi * np.arange(n) / p)
    if p == 1:
        return np.array([-1.0, 1.0]), np.array([1.0, 1.0])

    # Newton on the interior points only; endpoints are exact.
    xi = x[1:-1]
    for it in range(_NEWTON_MAX_ITERS):
        lp, dlp = _legendre_and_deriv(p, xi)
        # f = (1 - x^2) L'_p has f' = -2x L'_p + (1 - x^2) L''_p,
        # and Legendre's ODE gives (1 - x^2) L''_p = 2x L'_p - p(p+1) L_p.
        f = (1.0 - xi * xi) * dlp
        df = -p * (p + 1) * lp
        dx = f / df
        xi = xi - dx
        if np.max(np.abs(dx)) < _NEWTON_TOL:
            break
    else:
        raise RootFindingError(
            f"GLL nodes for p={p} did not converge in {_NEWTON_MAX_ITERS} "
            f"iterations (last update {np.max(np.abs(dx)):.3e})"
        )
    x[1:-1] = xi
    lp, _ = _legendre_and_deriv(p, x)
    w = 2.0 / (p * n * lp * lp)
    return x, w


def _barycentric_weights(nodes):
    diff = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(diff, 1.0)
    return 1.0 / np.prod(diff, axis=1)


def lagrange_eval_matrix(nodes, points):
    """Matrix B with B[q, j] = l_j(points[q]) for the Lagrange basis on nodes."""
    nodes = np.asarray(nodes, dtype=float)
    points = np.asarray(points, dtype=float)
    w = _barycentric_weights(nodes)
    B = np.empty((points.size, nodes.size))
    for q, y in enumerate(points):
        d = y - nodes
        hit = np.flatnonzero(d == 0.0)
        if hit.size:
            row = np.zeros(nodes.size)
            row[hit[0]] = 1.0
        else:
            row = w / d
            row /= row.sum()
        B[q] = row
    return B


def differentiation_matrix(nodes):
    """Matrix D with D[i, j] = l'_j(nodes[i]), via barycentric weights."""
    nodes = np.asarray(nodes, dtype=float)
    w = _barycentric_weights(nodes)
    diff = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(diff, 1.0)
    D = (w[None, :] / w[:, None]) / diff
    np.fill_diagonal(D, 0.0)
    np.fill_diagonal(D, -D.sum(axis=1))
    return D


@dataclass(frozen=True)
class Basis1D:
    """Nodal Lagrange basis on [-1, 1] plus its quadrature rule.

    ``eval_matrix`` and ``quad_diff_matrix`` map nodal values to values /
    derivatives at the quadrature points; ``diff_matrix`` differentiates at
    the nodes themselves. ``collocated`` is True when quadrature points and
    nodes coincide (eval_matrix is then the identity).
    """

    order: int
    nodes: np.ndarray
    quad_nodes: np.ndarray
    quad_weights: np.ndarray
    diff_matrix: np.ndarray
    eval_matrix: np.ndarray
    quad_diff_matrix: np.ndarray
    collocated: bool

    @property
    def n_quad(self):
        return self.quad_nodes.size

    def with_quadrature(self, quad_nodes, quad_weights):
        """Same nodal basis evaluated on a different quadrature rule."""
        quad_nodes = np.asarray(quad_nodes, dtype=float)
        B = lagrange_eval_matrix(self.nodes, quad_nodes)
        collocated = quad_nodes.size == self.nodes.size and np.array_equal(
            quad_nodes, self.nodes
        )
        if collocated:
            B, Dq = np.eye(self.nodes.size), self.diff_matrix
        else:
            # l'_j has degree p-1, so its nodal interpolant is exact.
            Dq = B @ self.diff_matrix
        return Basis1D(
            order=self.order,
            nodes=self.nodes,
            quad_nodes=quad_nodes,
            quad_weights=np.asarray(quad_weights, dtype=float),
            diff_matrix=self.diff_matrix,
            eval_matrix=B,
            quad_diff_matrix=Dq,
            collocated=collocated,
        )

    def over_integrated(self):
        """Copy of this basis with a Gauss-Legendre rule exact to degree 3p.

        Used in verification paths (e.g. discrete skew-symmetry checks) that
        need exact integration of products beyond what the collocated rule
        covers.
        """
        xq, wq = np.polynomial.legendre.leggauss(3 * self.order // 2 + 1)
        return self.with_quadrature(xq, wq)


def _make_basis(nodes):
    """Nodal basis on ``nodes`` with the GLL rule of the same order."""
    nodes = np.asarray(nodes, dtype=float)
    p = nodes.size - 1
    xq, wq = gll_nodes_weights(p)
    if np.allclose(nodes, xq, atol=1e-14):
        # Snap to the quadrature points so node/quad coordinates are bitwise
        # identical and the mass matrix is exactly diagonal.
        nodes = xq
    D = differentiation_matrix(nodes)
    base = Basis1D(
        order=p,
        nodes=nodes,
        quad_nodes=nodes,  # placeholder, replaced below
        quad_weights=np.empty(0),
        diff_matrix=D,
        eval_matrix=np.eye(p + 1),
        quad_diff_matrix=D,
        collocated=True,
    )
    return base.with_quadrature(xq, wq)


def gll_basis(p):
    """Spectral basis: GLL nodes with collocated GLL quadrature."""
    xq, _ = gll_nodes_weights(p)
    return _make_basis(xq)


def equispaced_basis(p):
    """Standard Lagrange basis on uniform nodes, GLL quadrature of order p.

    For p <= 2 the uniform nodes coincide with the GLL points and the basis
    is identical to :func:`gll_basis`. For p >= 3 the quadrature points
    differ from the nodes, the consistent mass is non-diagonal, and lumping
    is by row sum.
    """
    if p < 1:
        raise ValueError(f"order must be >= 1, got {p}")
    nodes = np.linspace(-1.0, 1.0, p + 1)
    return _make_basis(nodes)


def make_basis(p, spacing):
    """Dispatch on spacing name ('gll' or 'equispaced')."""
    spacing = spacing.lower()
    if spacing == "gll":
        return gll_basis(p)
    if spacing == "equispaced":
        return equispaced_basis(p)
    raise ValueError(f"unknown node spacing {spacing!r}")


def apply_along_axis(mat, values, axis):
    """Contract ``mat`` (m_out x m_in) with ``values`` along one axis. A
    1-D ``mat`` is a diagonal matrix given by its diagonal: it scales.

    Along the first and middle axes this is one matmul, mat times a
    (pre, m_in, post) view. Along the last axis (only unit axes after it)
    it is a batch of small matmuls over the axis just before it, values
    (batch, lead, m_in) times mat^T, which the BLAS kernel runs fastest
    when mat^T is C-contiguous (``mat`` Fortran-ordered): otherwise each
    call works from a strided view. :class:`~lpsflow.operators.GlobalOperators`
    stores every matrix it contracts, and the transpose it applies, that way.
    """
    shape = values.shape
    if mat.ndim == 1:
        return values * mat.reshape(mat.shape + (1,) * (len(shape) - axis - 1))
    n, post = shape[axis], math.prod(shape[axis + 1:])
    if post == 1:
        batch = shape[:max(axis - 1, 0)]
        lead = shape[axis - 1] if axis else 1
        out = values.reshape(math.prod(batch), lead, n) @ mat.T
    else:
        out = mat @ values.reshape(math.prod(shape[:axis]), n, post)
    return out.reshape(shape[:axis] + (mat.shape[0],) + shape[axis + 1:])


def apply_kron(mats, values, first_axis=0):
    """Apply the Kronecker product of ``mats`` to ``values``: mats[i] is
    contracted along array axis first_axis + i."""
    for a, mat in enumerate(mats, start=first_axis):
        values = apply_along_axis(mat, values, a)
    return values

