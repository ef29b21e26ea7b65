"""Grid backward-equation oracle: structure, closed forms, convergence order."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gaugereduce.kolmogorov import (build_generator, compare, discretization_budget,
                                    evolve, solve_value, value_at)
from gaugereduce.sde import FKEstimate
from references import heat_value, mehler_value, sparse_solve_value

ZERO_V = lambda x: np.zeros(x.shape[0])


def test_generator_structure_1dof():
    # the 1-d three-point Laplacian, and at dof 2 and 3 the sum of its
    # Kronecker products with identities, one term per direction
    mu, kappa, g = 1.2, 0.8, 11
    eye = np.eye(g)
    lap1 = -2.0 * eye + np.eye(g, k=1) + np.eye(g, k=-1)
    for dof in (1, 2, 3):
        pde = build_generator(ZERO_V, dof, g, 1.0, mu, kappa)
        h = pde.spacing
        expect = np.zeros((g ** dof, g ** dof))
        for m in range(dof):
            term = np.ones((1, 1))
            for k in range(dof):
                term = np.kron(term, lap1 if k == m else eye)
            expect += term
        assert_allclose(pde.apply(np.eye(g ** dof)), 0.5 * mu ** 2 * kappa * expect / h ** 2,
                        atol=1e-14)
        assert pde.nodes.shape == (g ** dof, dof)
        assert_allclose(pde.nodes[1], [pde.axis[0]] * (dof - 1) + [pde.axis[1]], atol=0)


def test_generator_symmetric_with_potential():
    pde = build_generator(lambda x: -np.sum(x ** 2, axis=1), 2, 15, 2.0, 1.0, 1.0)
    gen = pde.apply(np.eye(15 ** 2))
    assert abs(gen - gen.T).max() <= 1e-14


def test_dof_cap():
    with pytest.raises(ValueError, match="desk-scale"):
        build_generator(ZERO_V, 4, 5, 1.0, 1.0, 1.0)


def test_grid_eigenvalues_match_dirichlet_formula():
    # tridiagonal (1,-2,1) eigenvalues are -4 sin^2(k pi / (2(g+1))) exactly;
    # low modes approach the continuum -(k pi / (2 L_eff))^2 at O(h^2)
    mu, kappa, g, L = 1.0, 1.0, 40, 1.0
    pde = build_generator(ZERO_V, 1, g, L, mu, kappa)
    h = pde.spacing
    evals = np.sort(np.linalg.eigvalsh(pde.apply(np.eye(g))))[::-1]
    k = np.arange(1, g + 1)
    exact_grid = -0.5 * mu ** 2 * kappa * 4.0 / h ** 2 * np.sin(k * np.pi / (2 * (g + 1))) ** 2
    assert_allclose(evals, exact_grid, atol=1e-10)
    L_eff = L + h
    continuum = -0.5 * mu ** 2 * kappa * (k[:3] * np.pi / (2 * L_eff)) ** 2
    assert_allclose(evals[:3], continuum, rtol=5e-3)


def _budget_grids():
    # the coarse, wide and fine solves of discretization_budget on the
    # compare-oracle grids of the benchmark: 201, 81 and 41 points at dof
    # 1, 2 and 3 on the halfwidth-5 box
    for dof, pts in ((1, 201), (2, 81), (3, 41)):
        m = pts // 2
        pad = -(-m // 4)
        for g, hw in ((m + 1, 5.0), (m + 2 * pad + 1, 5.0 * (m + 2 * pad) / m), (pts, 5.0)):
            yield dof, g, hw


@pytest.mark.parametrize("dof,g,hw", list(_budget_grids()))
def test_solve_value_matches_the_scipy_reference(dof, g, hw):
    # the stencil and its Taylor action against the csr generator and
    # scipy's expm_multiply, on the Mehler problem the oracle command solves
    v = lambda x: -0.5 * np.sum(x ** 2, axis=1)
    phi0 = lambda x: np.ones(x.shape[0])
    x0 = np.linspace(-0.4, 0.6, dof)
    for T in (0.025, 0.25, 1.0):
        got = solve_value(v, phi0, x0, T, 1.0, 1.0, dof, g, hw)
        want = sparse_solve_value(v, phi0, x0, T, 1.0, 1.0, dof, g, hw)
        assert abs(got - want) <= 1e-12 * abs(want), (T, got, want)


def test_evolve_time_zero_is_identity():
    pde = build_generator(ZERO_V, 1, 21, 3.0, 1.0, 1.0)
    phi0 = np.exp(-pde.nodes[:, 0] ** 2)
    psi = evolve(pde, phi0, 0.0)
    assert_allclose(psi, phi0, atol=0)


def test_heat_kernel_closed_form():
    # V = 0, Gaussian initial data: variance grows by mu^2 kappa T
    mu, kappa, T, s2 = 1.0, 1.0, 0.4, 0.3
    phi0 = lambda x: np.exp(-np.sum(x ** 2, axis=1) / (2 * s2))
    for x0 in (0.0, 0.7):
        val = solve_value(ZERO_V, phi0, np.array([x0]), T, mu, kappa, 1, 481, 6.0)
        assert abs(val - heat_value(np.array([x0]), s2, mu ** 2 * kappa, T)) <= 1e-4


def test_mehler_closed_form_1dof():
    omega, T = 1.0, 0.5
    v = lambda x: -0.5 * omega ** 2 * np.sum(x ** 2, axis=1)
    phi0 = lambda x: np.ones(x.shape[0])
    val = solve_value(v, phi0, np.array([0.3]), T, 1.0, 1.0, 1, 401, 6.0)
    assert abs(val - mehler_value(np.array([0.3]), omega, 1.0, T)) <= 1e-3


def test_mehler_closed_form_2dof_gaussian_phi0():
    omega, T, alpha = 0.8, 0.4, 0.5
    v = lambda x: -0.5 * omega ** 2 * np.sum(x ** 2, axis=1)
    phi0 = lambda x: np.exp(-0.5 * alpha * np.sum(x ** 2, axis=1))
    x0 = np.array([0.2, -0.4])
    val = solve_value(v, phi0, x0, T, 1.0, 1.0, 2, 101, 5.0)
    assert abs(val - mehler_value(x0, omega, 1.0, T, alpha)) <= 1e-3


def test_sub_markov_bounds():
    # nonpositive V and phi0 in [0,1] keep psi in [0,1] up to roundoff
    v = lambda x: -np.sum(x ** 2, axis=1)
    pde = build_generator(v, 1, 101, 4.0, 1.0, 1.0)
    phi0 = 0.5 * (1.0 + np.tanh(pde.nodes[:, 0]))
    psi = evolve(pde, phi0, 0.7)
    assert psi.min() >= -1e-12
    assert psi.max() <= 1.0 + 1e-12


def test_richardson_slope_two():
    # halving the spacing shrinks the error by ~4: log2 slope 2 +- 0.3;
    # probe at a node shared by the nested grids so interpolation stays out
    omega, T, x0 = 1.0, 0.5, np.array([0.0])
    v = lambda x: -0.5 * omega ** 2 * np.sum(x ** 2, axis=1)
    phi0 = lambda x: np.ones(x.shape[0])
    exact = mehler_value(x0, omega, 1.0, T)
    errs = []
    for g in (51, 101, 201):
        val = solve_value(v, phi0, x0, T, 1.0, 1.0, 1, g, 5.0)
        errs.append(abs(val - exact))
    s1 = math.log2(errs[0] / errs[1])
    s2 = math.log2(errs[1] / errs[2])
    assert abs(s1 - 2.0) <= 0.3
    assert abs(s2 - 2.0) <= 0.3


def test_value_at_interpolation():
    # affine functions are reproduced exactly by multilinear interpolation
    rng = np.random.default_rng(3)
    for dof in (1, 2, 3):
        pde = build_generator(ZERO_V, dof, 21, 2.0, 1.0, 1.0)
        coef = rng.uniform(-1.5, 1.5, dof)
        lin = pde.nodes @ coef + 0.5
        for x in (rng.uniform(-2.0, 2.0, dof), np.full(dof, 2.0), np.full(dof, -2.0)):
            assert value_at(pde, lin, x) == pytest.approx(x @ coef + 0.5, abs=1e-12)
        outside = np.zeros(dof)
        outside[-1] = 5.0
        with pytest.raises(ValueError):
            value_at(pde, lin, outside)


def test_budget_bounds_the_oracle_error():
    # |reference - Mehler| <= budget over dof, grid points (>= 41), box
    # halfwidth and horizon; on the halfwidth-2 box at T = 1 the Richardson
    # term alone misses the error, which is box truncation
    v = lambda x: -0.5 * np.sum(x ** 2, axis=1)
    phi0 = lambda x: np.ones(x.shape[0])
    cases = [(dof, pts, hw, T) for dof, pts in ((1, 41), (1, 201), (2, 41), (2, 81))
             for hw in (2.0, 5.0) for T in (0.25, 1.0)]
    cases += [(3, 41, 2.0, 0.25), (3, 41, 5.0, 0.25)]
    for dof, pts, hw, T in cases:
        x0 = np.full(dof, 0.5)
        ref, budget = discretization_budget(v, phi0, x0, T, 1.0, 1.0, dof, pts, hw)
        error = abs(ref - mehler_value(x0, 1.0, 1.0, T))
        assert error <= budget, (dof, pts, hw, T, error, budget)
    x0 = np.zeros(1)
    ref, budget = discretization_budget(v, phi0, x0, 1.0, 1.0, 1.0, 1, 41, 2.0)
    richardson = abs(ref - solve_value(v, phi0, x0, 1.0, 1.0, 1.0, 1, 21, 2.0)) * 4.0 / 3.0
    error = abs(ref - mehler_value(x0, 1.0, 1.0, 1.0))
    assert richardson < error <= budget
    assert error == pytest.approx(2.84e-2, abs=1e-4)


def test_compare_verdicts():
    good = FKEstimate(mean=1.0, std_error=0.01, n_paths=100)
    assert compare(good, 1.0, 0.0).passed
    assert compare(good, 1.02, 0.0).passed
    far = compare(good, 1.1, 0.0)   # ten sigma away
    assert not far.passed
    assert far.difference == pytest.approx(0.1)
    flagged = FKEstimate(mean=1.0, std_error=0.01, n_paths=100, unreliable=True)
    assert not compare(flagged, 1.0, 0.0).passed
