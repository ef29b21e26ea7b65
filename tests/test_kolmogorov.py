"""Grid backward-equation oracle: structure, closed forms, convergence order."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gaugereduce.kolmogorov import (build_generator, compare, evolve,
                                    heat_value, mehler_value, solve_value,
                                    value_at)
from gaugereduce.sde import FKEstimate

ZERO_V = lambda x: np.zeros(x.shape[0])


def test_generator_structure_1dof():
    mu, kappa = 1.2, 0.8
    pde = build_generator(ZERO_V, 1, 11, 1.0, mu, kappa)
    h = pde.spacing
    gen = pde.generator.toarray()
    expect = np.zeros((11, 11))
    for i in range(11):
        expect[i, i] = -2.0
        if i > 0:
            expect[i, i - 1] = 1.0
        if i < 10:
            expect[i, i + 1] = 1.0
    assert_allclose(gen, 0.5 * mu ** 2 * kappa * expect / h ** 2, atol=1e-14)


def test_generator_symmetric_with_potential():
    pde = build_generator(lambda x: -np.sum(x ** 2, axis=1), 2, 15, 2.0, 1.0, 1.0)
    gen = pde.generator
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
    evals = np.sort(np.linalg.eigvalsh(pde.generator.toarray()))[::-1]
    k = np.arange(1, g + 1)
    exact_grid = -0.5 * mu ** 2 * kappa * 4.0 / h ** 2 * np.sin(k * np.pi / (2 * (g + 1))) ** 2
    assert_allclose(evals, exact_grid, atol=1e-10)
    L_eff = L + h
    continuum = -0.5 * mu ** 2 * kappa * (k[:3] * np.pi / (2 * L_eff)) ** 2
    assert_allclose(evals[:3], continuum, rtol=5e-3)


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
    pde = build_generator(ZERO_V, 2, 21, 2.0, 1.0, 1.0)
    lin = 0.3 * pde.nodes[:, 0] - 1.2 * pde.nodes[:, 1] + 0.5
    assert value_at(pde, lin, np.array([0.37, -0.81])) == pytest.approx(
        0.3 * 0.37 - 1.2 * (-0.81) + 0.5, abs=1e-12)
    with pytest.raises(ValueError):
        value_at(pde, lin, np.array([5.0, 0.0]))


def test_compare_verdicts():
    good = FKEstimate(mean=1.0, std_error=0.01, n_paths=100)
    assert compare(good, 1.0, 0.0).passed
    assert compare(good, 1.02, 0.0).passed
    far = compare(good, 1.1, 0.0)   # ten sigma away
    assert not far.passed
    assert far.difference == pytest.approx(0.1)
    flagged = FKEstimate(mean=1.0, std_error=0.01, n_paths=100, unreliable=True)
    assert not compare(flagged, 1.0, 0.0).passed
