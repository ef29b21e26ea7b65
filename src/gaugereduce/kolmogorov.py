"""Backward-equation oracle on tiny grids, in numpy alone.

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

L is never assembled: it is applied as its stencil, the three-point
Laplacian along each axis of the (g,)*dof grid plus the diagonal, on the grid
inside one layer of zeros (the Dirichlet exterior), so that each neighbour
direction is one shifted add over the flattened array.  exp(T L)
acts on phi0 by the scaled Taylor method of Al-Mohy and Higham, "Computing
the action of the matrix exponential", SIAM J. Sci. Comput. 33(2), 2011,
algorithm 3.2, with their theta_m for tolerance 2^-53 and their early
termination.  L is symmetric, so its spectrum lies in the Gershgorin
interval [min diag - 2 dof a, max diag + 2 dof a], a = mu^2 kappa / (2 h^2)
the weight of each neighbour.  Shifted by the interval's centre, T L has
2-norm at most T times the interval's radius; L being symmetric, that bounds
every ||(T L)^p||^(1/p) the method's degree choice reads, and takes the
place of the general method's trace shift and 1-norm estimates.
"""

import math
from dataclasses import dataclass

import numpy as np

MAX_DOF = 3
# (m, theta_m) for tolerance 2^-53: a step of 2-norm <= theta_m needs m
# Taylor terms.  m <= 30 from Higham, Functions of Matrices (2008), table
# A.3; m = 35..55 from Al-Mohy and Higham (2011), table 3.1.
_THETA = ((1, 2.29e-16), (2, 2.58e-8), (3, 1.39e-5), (4, 3.40e-4), (5, 2.40e-3),
          (6, 9.07e-3), (7, 2.38e-2), (8, 5.00e-2), (9, 8.96e-2), (10, 1.44e-1),
          (11, 2.14e-1), (12, 3.00e-1), (13, 4.00e-1), (14, 5.14e-1), (15, 6.41e-1),
          (16, 7.81e-1), (17, 9.31e-1), (18, 1.09), (19, 1.26), (20, 1.44),
          (21, 1.62), (22, 1.82), (23, 2.01), (24, 2.22), (25, 2.43),
          (26, 2.64), (27, 2.86), (28, 3.08), (29, 3.31), (30, 3.54),
          (35, 4.7), (40, 6.0), (45, 7.2), (50, 8.5), (55, 9.9))
_TOL = 2.0 ** -53


@dataclass
class GridPDE:
    """Grid discretization of the backward-equation generator, kept as its
    stencil: (L psi)(x) = diagonal(x) psi(x) + coupling * (sum of psi over
    the 2 dof grid neighbours of x), psi = 0 beyond the grid."""

    dof: int
    points_per_dof: int
    axis: np.ndarray           # 1-d node coordinates, shared by all dofs
    nodes: np.ndarray          # (n_nodes, dof) coordinates
    coupling: float            # a = mu^2 kappa / (2 h^2)
    diagonal: np.ndarray       # (n_nodes,) V / (mu^2 kappa) - 2 dof a

    @property
    def spacing(self):
        return self.axis[1] - self.axis[0]

    def _padded(self, values):
        """values of shape (n_nodes, ...) on the grid inside one layer of
        zeros, the grid axes flattened: shape ((g + 2)^dof, ...)."""
        g, batch = self.points_per_dof, values.shape[1:]
        out = np.zeros((g + 2,) * self.dof + batch)
        out[(slice(1, -1),) * self.dof] = values.reshape((g,) * self.dof + batch)
        return out.reshape((-1,) + batch)

    def _interior(self, padded):
        """The inverse of :meth:`_padded`: the grid's values, (n_nodes, ...)."""
        g, batch = self.points_per_dof, padded.shape[1:]
        grid = padded.reshape((g + 2,) * self.dof + batch)[(slice(1, -1),) * self.dof]
        return grid.reshape((-1,) + batch)

    def apply(self, psi):
        """L psi for psi of shape (n_nodes, ...); trailing axes are a batch."""
        psi = self._padded(np.asarray(psi, dtype=float))
        centre = self._padded(self.diagonal / self.coupling)
        centre = centre.reshape(centre.shape + (1,) * (psi.ndim - 1))
        out = _stencil(psi, np.empty_like(psi), centre, self.points_per_dof, self.dof)
        return self.coupling * self._interior(out)


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
    """The grid generator's stencil; refuses dof > 3 by design."""
    if dof < 1 or dof > MAX_DOF:
        raise ValueError(f"oracle is desk-scale by design: dof must be 1..{MAX_DOF}")
    if points_per_dof < 3:
        raise ValueError(f"need at least 3 grid points per dof, got {points_per_dof}")
    g = points_per_dof
    axis = np.linspace(-halfwidth, halfwidth, g)
    h = axis[1] - axis[0]
    nodes = np.stack(np.meshgrid(*([axis] * dof), indexing="ij"), axis=-1).reshape(-1, dof)
    a = 0.5 * mu ** 2 * kappa / h ** 2
    diagonal = np.asarray(v(nodes), dtype=float) / (mu ** 2 * kappa) - 2 * dof * a
    return GridPDE(dof, points_per_dof, axis, nodes, a, diagonal)


def _stencil(psi, out, centre, g, dof):
    """out = centre * psi + the sum of psi over each node's 2 dof grid
    neighbours, on padded arrays (:meth:`GridPDE._padded`) whose pad layer
    of psi is zero.  A neighbour along axis k lies (g + 2)^k entries away, so
    each direction is one shifted add over the whole array.  Those adds also
    write into out's pad layer, which must be zeroed before out is fed back
    as psi.  psi and out are distinct arrays; centre broadcasts against
    them."""
    np.multiply(centre, psi, out=out)
    for k in range(dof):
        step = (g + 2) ** k
        np.add(out[:-step], psi[step:], out=out[:-step])
        np.add(out[step:], psi[:-step], out=out[step:])
    return out


def _max_abs(a):
    """max |a| without an |a| temporary."""
    return max(float(a.max()), -float(a.min()))


def evolve(pde, phi0_grid, T):
    """psi = exp(T * generator) phi0 on the grid, phi0 of shape (n_nodes,).

    The Taylor degree m and the number of steps s minimize m * s subject to
    T * radius / s <= theta_m; each step sums the series until two
    consecutive terms fall below 2^-53 of the partial sum.
    """
    if T < 0:
        raise ValueError("T must be nonnegative")
    phi0 = np.array(phi0_grid, dtype=float)
    if T == 0:
        return phi0
    reach = 2 * pde.dof * pde.coupling
    lo, hi = pde.diagonal.min() - reach, pde.diagonal.max() + reach
    shift, radius = 0.5 * (lo + hi), 0.5 * (hi - lo)
    m, s = min(((deg, math.ceil(T * radius / theta)) for deg, theta in _THETA),
               key=lambda ms: ms[0] * ms[1])
    psi = pde._padded(phi0)
    centre = pde._padded((pde.diagonal - shift) / pde.coupling)
    inside = pde._padded(np.ones_like(pde.diagonal))
    term, nxt = np.empty_like(psi), np.empty_like(psi)
    eta = math.exp(T * shift / s)
    for _ in range(s):
        term[...] = psi
        c1 = _max_abs(term)
        for j in range(m):
            _stencil(term, nxt, centre, pde.points_per_dof, pde.dof)
            nxt *= inside                   # zero the pad layer again
            nxt *= T * pde.coupling / (s * (j + 1))
            c2 = _max_abs(nxt)
            psi += nxt
            if c1 + c2 <= _TOL * _max_abs(psi):
                break
            c1 = c2
            term, nxt = nxt, term
        psi *= eta
    return pde._interior(psi)


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
