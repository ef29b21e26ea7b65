"""Dense, sparse and closed-form references that only tests read.

The package computes the reduced step's noise map, the reduction Jacobian
and the Feynman-Kac estimates in the forms its commands run
(:func:`gaugereduce.orbit.apply_N_f`, :meth:`OrbitGeometry.jacobian`, the
grid oracle).  The forms here are the independent targets they are checked
against: the gradient and divergence as dense matrices, built from the
neighbour table rather than the stencils, the frame map N_f as a dense
matrix, sigma'' as a dense Hessian,
the grid oracle's generator as a scipy sparse matrix with scipy's
``expm_multiply``, the Gaussian closed forms of the two classic oracle
benchmarks, and the writer of the field files ``gauge-reduce jacobian
--field-file`` reads.  scipy is imported inside the two functions that use
it, so the other references load without it.
"""

import functools
import math
from types import SimpleNamespace

import numpy as np

from gaugereduce.gauge import green_divergence, jbar
from gaugereduce.kolmogorov import value_at


def gradient_matrix(lat):
    """Dense (sV x V) matrix of the central-difference gradient, row m*V + x
    holding +-1/(2h) at the neighbours x +- e_m (flattened field layout)."""
    V, tab = lat.n_sites, lat.neighbor_table
    G = np.zeros((lat.dim * V, V))
    rows = np.arange(lat.dim * V)
    G[rows, tab[:, :, 0].T.reshape(-1)] += 1.0
    G[rows, tab[:, :, 1].T.reshape(-1)] -= 1.0
    return G / (2.0 * lat.spacing)


def divergence_matrix(lat):
    """Dense (V x sV) matrix of the divergence: the per-direction blocks of
    :func:`gradient_matrix` side by side (each is antisymmetric)."""
    return np.hstack(np.split(gradient_matrix(lat), lat.dim))


def dense_N_f(lat, f_tilde, g0):
    """Frame map N_f = -K_f @ green @ div as a dense (2V x sV) matrix: K_f is
    diagonal in the site, so N_f scales row x of green @ div by
    -g0 (Jbar f~)^a(x).  f_tilde may be a stack (..., 2, V); N_f then has
    shape (..., 2V, sV).  Its potential-sector partner is the transverse
    projector itself."""
    f_tilde = lat.check_doublet(f_tilde, stacked=True)
    N_f = (-g0 * jbar(f_tilde))[..., None] * green_divergence(lat)
    return N_f.reshape(f_tilde.shape[:-2] + (2 * lat.n_sites, -1))


def hess_ff(geo):
    """sigma_ab(x, y) = 2 g0^2 d_ab d_xy Dinv(x, x)
    - 4 g0^4 f~^a(x) f~^b(y) Dinv(x, y)^2 of an :class:`OrbitGeometry`,
    shape (..., 2V, 2V)."""
    V, g0, Dinv = geo.lat.n_sites, geo.g0, geo.Dinv
    f = geo.f_tilde.reshape(geo.lead + (2 * V,))
    # the Dinv(x,y)^2 factor pairs the site indices of p=(a,x), q=(b,y)
    hess = -4.0 * g0 ** 4 * f[..., :, None] * f[..., None, :] * np.tile(Dinv ** 2, (2, 2))
    hess = hess.reshape(geo.lead + (2, V, 2, V))
    diag_term = 2.0 * g0 ** 2 * np.diagonal(Dinv, axis1=-2, axis2=-1)
    sites = np.arange(V)
    for a in range(2):
        hess[..., a, sites, a, sites] += diag_term
    hess = hess.reshape(geo.lead + (2 * V, 2 * V))
    return 0.5 * (hess + np.swapaxes(hess, -2, -1))


def sparse_generator(v, dof, points_per_dof, halfwidth, mu, kappa):
    """Grid nodes and the backward-equation generator as a csr matrix:
    (1/2) mu^2 kappa times the Kronecker sum of the 1-d three-point
    Laplacians plus the diagonal V / (mu^2 kappa).  Returns (axis, nodes,
    generator)."""
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
    return axis, nodes, gen.tocsr()


def sparse_solve_value(v, phi0, x0, T, mu, kappa, dof, points_per_dof, halfwidth):
    """:func:`gaugereduce.kolmogorov.solve_value` with the generator of
    :func:`sparse_generator` and scipy's ``expm_multiply``."""
    from scipy.sparse.linalg import expm_multiply
    axis, nodes, gen = sparse_generator(v, dof, points_per_dof, halfwidth, mu, kappa)
    psi = expm_multiply(gen * T, np.asarray(phi0(nodes), dtype=float))
    grid = SimpleNamespace(dof=dof, points_per_dof=points_per_dof, axis=axis,
                           spacing=axis[1] - axis[0])
    return value_at(grid, psi, x0)


def heat_value(x0, phi0_var, v_rate, T):
    """E[phi0(x_T)] for phi0 = exp(-|x|^2 / (2 s^2)), free diffusion with
    variance rate v_rate: Gaussian convolution in closed form."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    s2 = phi0_var + v_rate * T
    pref = (phi0_var / s2) ** (x0.size / 2.0)
    return float(pref * math.exp(-float(np.sum(x0 ** 2)) / (2.0 * s2)))


def mehler_value(x0, omega, v_rate, T, alpha=0.0):
    """Quadratic-potential benchmark in closed form.

    Value of E_x0[ phi0(x_T) exp(-(omega^2/(2 v)) int |x_u|^2 du) ] for the
    free diffusion with variance rate v = v_rate and
    phi0 = exp(-alpha |x|^2 / 2); dimensions factorize.  Derived from the
    Riccati flow of the Gaussian ansatz exp(-a(t) x^2 / 2 + b(t)):

        a(T) = (omega/v) (ahat + tanh(omega T)) / (1 + ahat tanh(omega T)),
        ahat = alpha v / omega,
        prefactor per dim = (cosh(omega T) + ahat sinh(omega T))^(-1/2).
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    v = v_rate
    th = math.tanh(omega * T)
    ahat = alpha * v / omega
    a_T = (omega / v) * (ahat + th) / (1.0 + ahat * th)
    pref = (math.cosh(omega * T) + ahat * math.sinh(omega * T)) ** (-0.5)
    out = 1.0
    for c in x0:
        out *= pref * math.exp(-0.5 * a_T * c * c)
    return float(out)


def write_field_file(path, dim, n, kind, field):
    """Field file in the format :func:`gaugereduce.runner.read_field_file`
    reads: header ``dim N kind``, then one line of components per site."""
    comps = field.reshape(-1, n ** dim)
    with open(path, "w") as fh:
        fh.write(f"{dim} {n} {kind}\n")
        for x in range(n ** dim):
            fh.write(" ".join(repr(float(c[x])) for c in comps) + "\n")
