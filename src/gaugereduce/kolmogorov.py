"""Dense backward-equation oracle on tiny grids.

Solves d(psi)/dt + L psi = 0 backwards in time, i.e. psi(0) = exp(T L) phi0,
for the generator

    L = (1/2) mu^2 kappa Laplacian + (1/(mu^2 kappa)) V(x)

on a regular grid with Dirichlet-zero exterior, for at most three degrees of
freedom.  This is the independent comparison target for the Monte Carlo
estimator: the weighted expectation E[phi0(x_T) exp((1/mu^2 kappa) int V)]
of the free diffusion with variance rate v = mu^2 kappa solves the same
equation on R^d, so grid values and Monte Carlo estimates must agree within
statistics plus the discretization budget: a Richardson comparison of two
resolutions for the O(h^2) spacing error, plus a solve on a wider box for the
truncation of R^d to the grid box.

scipy is imported inside :func:`build_generator` and :func:`evolve`, the
only code in the package that uses it, so importing ``gaugereduce`` and every
command but ``compare-oracle`` run without loading it.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

MAX_DOF = 3


@dataclass
class GridPDE:
    """Grid discretization of the backward-equation generator."""

    dof: int
    points_per_dof: int
    axis: np.ndarray           # 1-d node coordinates, shared by all dofs
    nodes: np.ndarray          # (n_nodes, dof) coordinates
    generator: "scipy.sparse.csr_matrix"

    @property
    def spacing(self):
        return self.axis[1] - self.axis[0]


@dataclass
class Verdict:
    passed: bool
    mc_mean: float
    mc_std_error: float
    pde_value: float
    budget: float

    @property
    def difference(self):
        return abs(self.mc_mean - self.pde_value)


def build_generator(v, dof, points_per_dof, halfwidth, mu, kappa):
    """Assemble the grid generator; refuses dof > 3 by design."""
    if dof < 1 or dof > MAX_DOF:
        raise ValueError(f"oracle is desk-scale by design: dof must be 1..{MAX_DOF}")
    if points_per_dof < 3:
        raise ValueError(f"need at least 3 grid points per dof, got {points_per_dof}")
    import scipy.sparse
    g = points_per_dof
    axis = np.linspace(-halfwidth, halfwidth, g)
    h = axis[1] - axis[0]
    lap1 = scipy.sparse.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(g, g), format="csr") / h ** 2
    # the dof-dimensional Laplacian is the Kronecker sum of the 1-d ones
    lap = functools.reduce(lambda a, b: scipy.sparse.kronsum(a, b, format="csr"),
                           [lap1] * dof)
    nodes = np.stack(np.meshgrid(*([axis] * dof), indexing="ij"), axis=-1).reshape(-1, dof)
    v_diag = np.asarray(v(nodes), dtype=float)
    gen = 0.5 * mu ** 2 * kappa * lap + scipy.sparse.diags(v_diag / (mu ** 2 * kappa))
    return GridPDE(dof, points_per_dof, axis, nodes, gen.tocsr())


def evolve(pde, phi0_grid, T):
    """psi = exp(T * generator) phi0 on the grid."""
    if T < 0:
        raise ValueError("T must be nonnegative")
    if T == 0:
        return np.array(phi0_grid, dtype=float)
    from scipy.sparse.linalg import expm_multiply
    return expm_multiply(pde.generator * T, np.asarray(phi0_grid, dtype=float))


def value_at(pde, psi, x0):
    """Multilinear interpolation of a grid function at a point."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.size != pde.dof:
        raise ValueError(f"point must have {pde.dof} coordinates")
    axis, h, g = pde.axis, pde.spacing, pde.points_per_dof
    if not np.all((axis[0] <= x0) & (x0 <= axis[-1])):
        raise ValueError("point outside the grid box")
    lows = [min(int((c - axis[0]) / h), g - 2) for c in x0]
    ws = [(c - axis[i]) / h for c, i in zip(x0, lows)]
    grid = psi.reshape((g,) * pde.dof)
    val = 0.0
    for corner in range(2 ** pde.dof):      # the first coordinate's bit varies fastest
        bits = [(corner >> m) & 1 for m in range(pde.dof)]
        w = math.prod(wm if bit else 1.0 - wm for wm, bit in zip(ws, bits))
        val += w * grid[tuple(i + bit for i, bit in zip(lows, bits))]
    return float(val)


def solve_value(v, phi0, x0, T, mu, kappa, dof, points_per_dof, halfwidth):
    """Convenience: build, evolve and interpolate in one call."""
    pde = build_generator(v, dof, points_per_dof, halfwidth, mu, kappa)
    return value_at(pde, evolve(pde, phi0(pde.nodes), T), x0)


def discretization_budget(v, phi0, x0, T, mu, kappa, dof, points_per_dof,
                          halfwidth):
    """Reference value on the given grid and a bound on its error: the
    Richardson term (4/3)|v_fine - v_coarse| for the O(h^2) spacing error plus
    the truncation term 2|v_wide - v_coarse| for the box.  The coarse grid has
    points_per_dof // 2 + 1 points (m intervals); the wide box adds ceil(m/4)
    intervals of the coarse spacing on each side.  Grids below 41 points are
    refused, since on their coarse grid the Richardson term is not a bound.
    Bad input raises ValueError before any solve."""
    if points_per_dof < 41:
        raise ValueError(f"the error budget needs at least 41 grid points per dof, "
                         f"got {points_per_dof}")
    if not np.all(np.abs(x0) <= halfwidth):
        raise ValueError(f"point {x0} lies outside the grid box [-{halfwidth}, {halfwidth}]")
    m = points_per_dof // 2
    pad = -(-m // 4)
    problem = (v, phi0, x0, T, mu, kappa, dof)
    coarse = solve_value(*problem, m + 1, halfwidth)
    wide = solve_value(*problem, m + 2 * pad + 1, halfwidth * (m + 2 * pad) / m)
    fine = solve_value(*problem, points_per_dof, halfwidth)
    return fine, abs(fine - coarse) * 4.0 / 3.0 + 2.0 * abs(wide - coarse)


def compare(fk, pde_value, budget=0.0):
    """PASS iff |MC - PDE| <= 3 * std_error + discretization budget."""
    diff = abs(fk.mean - pde_value)
    passed = diff <= 3.0 * fk.std_error + budget and not fk.unreliable
    return Verdict(passed, fk.mean, fk.std_error, pde_value, budget)
