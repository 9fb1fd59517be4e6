"""1D nodal Lagrange bases on Gauss-Lobatto-Legendre or equispaced points.

A ``Basis1D`` bundles everything the tensor-product kernels need: node
positions on [-1, 1], a quadrature rule, and matrices evaluating the basis
(and its derivative) at the quadrature points. With GLL nodes the quadrature
points coincide with the nodes and the evaluation matrix is the identity,
which is what makes the mass matrix diagonal. Every one is built by
``_basis`` from its nodes and rule.
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
    """Evaluate L_n(x) and L'_n(x), n >= 1, by the three-term recurrence."""
    x = np.asarray(x, dtype=float)
    p_prev = np.ones_like(x)
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
    """Matrix B with B[q, j] = l_j(points[q]) for the Lagrange basis on nodes,
    in barycentric form; a point that is a node gets its unit row exactly."""
    nodes = np.asarray(nodes, dtype=float)
    d = np.asarray(points, dtype=float).reshape(-1, 1) - nodes
    with np.errstate(divide="ignore", invalid="ignore"):
        B = _barycentric_weights(nodes) / d
        B /= B.sum(axis=1, keepdims=True)
    hit = d == 0.0
    exact = hit.any(axis=1)
    B[exact] = hit[exact]
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
        return _basis(self.nodes, quad_nodes, quad_weights)

    def over_integrated(self):
        """Copy of this basis with a Gauss-Legendre rule exact to degree 3p.

        Used in verification paths (e.g. discrete skew-symmetry checks) that
        need exact integration of products beyond what the collocated rule
        covers.
        """
        xq, wq = np.polynomial.legendre.leggauss(3 * self.order // 2 + 1)
        return self.with_quadrature(xq, wq)


def _basis(nodes, quad_nodes, quad_weights):
    """Every ``Basis1D``: the nodal basis on ``nodes`` with a quadrature
    rule, collocated if the two point sets are bitwise equal."""
    nodes = np.asarray(nodes, dtype=float)
    quad_nodes = np.asarray(quad_nodes, dtype=float)
    D = differentiation_matrix(nodes)
    collocated = np.array_equal(quad_nodes, nodes)
    if collocated:
        B, Dq = np.eye(nodes.size), D
    else:
        B = lagrange_eval_matrix(nodes, quad_nodes)
        Dq = B @ D  # l'_j has degree p-1, so its nodal interpolant is exact
    return Basis1D(
        order=nodes.size - 1,
        nodes=nodes,
        quad_nodes=quad_nodes,
        quad_weights=np.asarray(quad_weights, dtype=float),
        diff_matrix=D,
        eval_matrix=B,
        quad_diff_matrix=Dq,
        collocated=collocated,
    )


def gll_basis(p):
    """Spectral basis: GLL nodes with collocated GLL quadrature."""
    x, w = gll_nodes_weights(p)
    return _basis(x, x, w)


def equispaced_basis(p):
    """Standard Lagrange basis on uniform nodes, GLL quadrature of order p.

    For p <= 2 the uniform nodes coincide with the GLL points and the basis
    is :func:`gll_basis`, bitwise (the nodes snap to the GLL points). For
    p >= 3 the quadrature points differ from the nodes, the consistent mass
    is non-diagonal, and lumping is by row sum.
    """
    x, w = gll_nodes_weights(p)
    nodes = np.linspace(-1.0, 1.0, p + 1)
    return _basis(x if np.allclose(nodes, x, atol=1e-14) else nodes, x, w)


_SPACINGS = {"gll": gll_basis, "equispaced": equispaced_basis}


def make_basis(p, spacing):
    """The basis of a spacing name ('gll' or 'equispaced')."""
    make = _SPACINGS.get(spacing.lower())
    if make is None:
        raise ValueError(f"unknown node spacing {spacing!r}")
    return make(p)


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

