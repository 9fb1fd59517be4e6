import numpy as np
import pytest

from lpsflow.basis import (
    differentiation_matrix,
    equispaced_basis,
    gll_basis,
    gll_nodes_weights,
    lagrange_eval_matrix,
)


def test_gll_p1_is_endpoints():
    x, w = gll_nodes_weights(1)
    assert np.allclose(x, [-1.0, 1.0])
    assert np.allclose(w, [1.0, 1.0])


def test_gll_p2_closed_form():
    x, w = gll_nodes_weights(2)
    assert np.allclose(x, [-1.0, 0.0, 1.0], atol=1e-15)
    assert np.allclose(w, [1.0 / 3.0, 4.0 / 3.0, 1.0 / 3.0], atol=1e-15)


def test_gll_p4_inner_nodes():
    x, w = gll_nodes_weights(4)
    inner = np.sqrt(3.0 / 7.0)
    assert np.allclose(x, [-1.0, -inner, 0.0, inner, 1.0], atol=1e-13)
    # Nodes are roots of (1 - x^2) L'_4; check via the recurrence directly.
    from lpsflow.basis import _legendre_and_deriv

    _, dl = _legendre_and_deriv(4, x[1:-1])
    assert np.max(np.abs((1 - x[1:-1] ** 2) * dl)) < 1e-12


@pytest.mark.parametrize("p", range(1, 9))
def test_gll_weights_sum_to_measure(p):
    _, w = gll_nodes_weights(p)
    assert abs(w.sum() - 2.0) < 1e-14


@pytest.mark.parametrize("p", range(1, 9))
def test_gll_exactness_to_2p_minus_1(p):
    x, w = gll_nodes_weights(p)
    for m in range(2 * p):
        exact = 0.0 if m % 2 == 1 else 2.0 / (m + 1)
        assert abs(w @ x**m - exact) < 1e-12


def test_equispaced_p1_p2_coincide_with_gll():
    for p in (1, 2):
        eq, gl = equispaced_basis(p), gll_basis(p)
        assert np.allclose(eq.nodes, gl.nodes)
        assert eq.collocated


def test_equispaced_p3_differs_from_gll():
    eq = equispaced_basis(3)
    assert np.allclose(eq.nodes, [-1.0, -1.0 / 3.0, 1.0 / 3.0, 1.0])
    gl = gll_basis(3)
    assert np.allclose(np.abs(gl.nodes[1:3]), 1.0 / np.sqrt(5.0), atol=1e-13)
    assert not eq.collocated
    # Quadrature points are still the GLL rule of matching order.
    assert np.allclose(eq.quad_nodes, gl.quad_nodes)


@pytest.mark.parametrize("make", [gll_basis, equispaced_basis])
@pytest.mark.parametrize("p", [1, 2, 3, 5])
def test_diff_matrix_annihilates_constants(make, p):
    b = make(p)
    assert np.max(np.abs(b.diff_matrix.sum(axis=1))) < 1e-13


@pytest.mark.parametrize("make", [gll_basis, equispaced_basis])
@pytest.mark.parametrize("p", [1, 2, 4, 6])
def test_diff_matrix_exact_on_polynomials(make, p):
    b = make(p)
    for m in range(p + 1):
        vals = b.nodes**m
        expected = m * b.nodes ** (m - 1) if m > 0 else np.zeros_like(b.nodes)
        assert np.max(np.abs(b.diff_matrix @ vals - expected)) < 1e-12


def test_nodes_monotone_with_endpoints():
    for p in range(1, 13):
        b = gll_basis(p)
        assert b.nodes[0] == -1.0 and b.nodes[-1] == 1.0
        assert np.all(np.diff(b.nodes) > 0)


def test_collocated_mass_is_diagonal():
    # With quadrature points at the nodes, quad(l_i l_j) hits delta_iq twice.
    b = gll_basis(4)
    B = lagrange_eval_matrix(b.nodes, b.quad_nodes)
    mass = np.einsum("q,qi,qj->ij", b.quad_weights, B, B)
    off = mass - np.diag(np.diag(mass))
    assert np.max(np.abs(off)) == 0.0


def test_over_integration_exactness():
    b = gll_basis(2)
    oi = b.over_integrated()  # degree >= 3p = 6
    for m in range(oi.quad_exact_degree + 1):
        exact = 0.0 if m % 2 == 1 else 2.0 / (m + 1)
        assert abs(oi.quad_weights @ oi.quad_nodes**m - exact) < 1e-13


def test_eval_matrix_interpolates():
    b = equispaced_basis(3)
    pts = np.linspace(-1, 1, 17)
    B = lagrange_eval_matrix(b.nodes, pts)
    coeffs = np.array([0.3, -1.2, 0.5, 2.0])
    vals_nodes = np.polyval(coeffs, b.nodes)
    assert np.allclose(B @ vals_nodes, np.polyval(coeffs, pts), atol=1e-12)


def test_differentiation_matrix_vs_barycentric_identity():
    nodes = np.array([-1.0, -0.3, 0.4, 1.0])
    D = differentiation_matrix(nodes)
    # Derivative of x^2 sampled at arbitrary nodes.
    assert np.allclose(D @ nodes**2, 2 * nodes, atol=1e-13)
