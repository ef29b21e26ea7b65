"""Lattice calculus: frozen hand cases, adjointness, spectra, guards."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from gaugereduce.gauge import faddeev_popov, green_divergence, transverse_projector
from gaugereduce.lattice import MAX_DENSE_SITES, Lattice, LatticeSpec
from references import divergence_matrix, gradient_matrix


def test_spec_validation():
    with pytest.raises(ValueError):
        LatticeSpec(4, 4)
    with pytest.raises(ValueError):
        LatticeSpec(1, 1)
    with pytest.raises(ValueError):
        LatticeSpec(2, 4, spacing=0.0)
    assert LatticeSpec(2, 4).n_sites == 16


def test_neighbor_table_involution():
    for s, n in [(1, 4), (2, 3), (3, 2)]:
        lat = Lattice(s, n)
        tab = lat.neighbor_table
        assert tab.shape == (lat.n_sites, s, 2)
        for x in range(lat.n_sites):
            for m in range(s):
                assert tab[tab[x, m, 0], m, 1] == x
                assert tab[tab[x, m, 1], m, 0] == x


def test_gradient_of_constant_is_zero():
    lat = Lattice(2, 4)
    assert_allclose(lat.gradient(np.full(16, 3.7)), 0.0, atol=0)


def test_gradient_hand_case_n4():
    # central difference with periodic wrap, evaluated by hand
    lat = Lattice(1, 4)
    u = np.array([0.0, 1.0, 0.0, -1.0])
    assert_allclose(lat.gradient(u)[0], [1.0, 0.0, -1.0, 0.0], atol=0)


def test_divergence_of_constant_is_zero():
    lat = Lattice(2, 4)
    assert_allclose(lat.divergence(np.ones((2, 16))), 0.0, atol=0)


@pytest.mark.parametrize("s,n,h", [(1, 4, 1.0), (1, 5, 0.5), (2, 4, 1.0), (2, 3, 2.0), (3, 2, 1.0)])
def test_gradient_divergence_adjoint(s, n, h):
    # <v, grad u> = -<div v, u> checked by direct summation
    lat = Lattice(s, n, h)
    rng = np.random.default_rng(3)
    u = lat.random_scalar(rng)
    v = lat.random_vector(rng)
    hs = h ** s
    lhs = hs * np.sum(v * lat.gradient(u))
    rhs = -hs * np.sum(lat.divergence(v) * u)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_div_grad_matches_matrix_composition():
    # divergence(gradient(u)) agrees with the assembled composition matrix
    lat = Lattice(2, 4)
    rng = np.random.default_rng(4)
    u = lat.random_scalar(rng)
    via_ops = lat.divergence(lat.gradient(u))
    via_mat = lat.fp_matrix() @ u
    assert_allclose(via_ops, via_mat, atol=1e-13)
    # with trailing axes the stencils are the dense products G X and div Y, and
    # (div^T = -grad) their transposes give Z div and W G; N = 2 wraps onto itself
    for s in (1, 2, 3):
        for n in (2, 3, 4, 5):
            for h in (1.0, 0.7):
                lat = Lattice(s, n, h)
                V, G, div = lat.n_sites, gradient_matrix(lat), divergence_matrix(lat)
                X, Y = rng.standard_normal((V, 3)), rng.standard_normal((s * V, 3))
                Z, W = rng.standard_normal((3, V)), rng.standard_normal((3, s * V))
                for dense, stencil in [
                        (G @ X, lat.gradient(X).reshape(s * V, 3)),
                        (div @ Y, lat.divergence(Y.reshape(s, V, 3))),
                        (Z @ div, -lat.gradient(Z.T).reshape(s * V, 3).T),
                        (W @ G, -lat.divergence(W.T.reshape(s, V, 3)).T)]:
                    assert stencil.shape == dense.shape
                    assert np.abs(stencil - dense).max() <= 1e-15 * np.abs(dense).max()


def test_div_grad_eigenvector_oracle():
    # u an eigenvector of the composition operator: div(grad u) = lambda u
    lat = Lattice(1, 4)
    w, U = np.linalg.eigh(lat.fp_matrix())
    for k in range(4):
        assert_allclose(lat.divergence(lat.gradient(U[:, k])), w[k] * U[:, k], atol=1e-12)


def test_composition_differs_from_stencil_on_even_n():
    # central-difference composition is not the 2s-point stencil, written
    # out here for the N=4 chain
    lat = Lattice(1, 4)
    eye = np.eye(4)
    stencil = np.roll(eye, 1, axis=1) + np.roll(eye, -1, axis=1) - 2.0 * eye
    assert np.abs(lat.fp_matrix() - stencil).max() > 0.5


def test_integration_by_parts():
    # <grad u, grad u> = -<u, (div o grad) u>
    lat = Lattice(2, 4)
    rng = np.random.default_rng(7)
    u = lat.random_scalar(rng)
    g = lat.gradient(u)
    hs = lat.spacing ** lat.dim
    lhs = hs * np.sum(g * g)
    rhs = -hs * np.sum(u * (lat.fp_matrix() @ u))
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 2), st.integers(2, 5), st.integers(0, 2), st.data())
def test_translation_invariance(s, n, axis_seed, data):
    axis = axis_seed % s
    shift = data.draw(st.integers(1, n - 1))
    lat = Lattice(s, n)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 31)))
    u = lat.random_scalar(rng)

    def roll(field):
        grid = field.reshape(field.shape[:-1] + lat.shape)
        return np.roll(grid, shift, axis=-lat.dim + axis).reshape(field.shape)

    assert_allclose(lat.gradient(roll(u)), roll(lat.gradient(u)), atol=1e-12)
    v = lat.random_vector(rng)
    assert_allclose(lat.divergence(roll(v)), roll(lat.divergence(v)), atol=1e-12)


def test_dense_size_guard():
    lat = Lattice(3, 9)  # 729 sites
    assert lat.n_sites > MAX_DENSE_SITES
    for build in (Lattice.fp_matrix, faddeev_popov, transverse_projector, green_divergence):
        with pytest.raises(ValueError, match="refused"):
            build(lat)
    # stencil operations still work
    u = np.ones(lat.n_sites)
    assert_allclose(lat.gradient(u), 0.0, atol=0)


def test_zero_mode_basis():
    for s, n, k in [(1, 5, 1), (1, 4, 2), (2, 4, 4), (2, 3, 1)]:
        lat = Lattice(s, n)
        B = lat.zero_mode_basis()
        assert B.shape == (lat.n_sites, k)
        assert_allclose(B.T @ B, np.eye(k), atol=1e-12)
        assert_allclose(lat.fp_matrix() @ B, 0.0, atol=1e-12)
