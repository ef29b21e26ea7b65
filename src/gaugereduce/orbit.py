"""Orbit geometry: orbit metric, connection, reduced drift, reduction Jacobian.

Everything here is driven by the metric on a gauge orbit, assembled from the
generators of the group action,

    D = K_A^T K_A + K_f^T K_f = -(div o grad) + diag(g0^2 |f~|^2),

a V x V symmetric matrix, positive definite whenever f~ is nonzero enough to
lift the derivative kernel.  Its inverse is the Green function of the
mechanical (Coulomb) connection, applied matrix-free to a tangent pair,

    A(vA, vf) = Dinv (g0 <Jbar f~, vf> - div vA),

whose defining property A(K(eps)) = eps holds to machine precision by
construction.  The orbit volume enters through

    sigma = log det D,
    sigma_a(x)      = 2 g0^2 f~^a(x) Dinv(x, x),
    sigma_ab(x, y)  = 2 g0^2 d_ab d_xy Dinv(x, x) - 4 g0^4 f~^a(x) f~^b(y) Dinv(x, y)^2,

closed forms that follow from d(log det D) = tr(Dinv dD) and
d(Dinv) = -Dinv (dD) Dinv.  The reduced drift -1/2 h^{BM} Gamma_{BM} + j1 + j2
(Christoffel part, orbit-space mean curvature j1 and orbit mean curvature
j2 = 1/4 h sigma') and the reduction Jacobian

    J = -(1/8) (mu^2 kappa / h^s) * (laplace_term + grad_term / 4),
    laplace_term = h^ab sigma_ab - (h Gamma)^a sigma_a,   grad_term = h^ab sigma_a sigma_b,

contract these with the horizontal metric h = blockdiag(P, I + N_f N_f^T),
N_f = -g0 Jbar f~ o (green div) the frame map of potential into scalar noise.
Two sitewise facts collapse every contraction to a closed form in Dinv:
with u = g0 Jbar f~, f~ . u = 0 at each site, and P kills gradients.  So
the potential-sector drift (its Christoffel part, j1 and j2) is
identically zero, j1 vanishes in the scalar sector too, j2 = sigma'/4 and
grad_term = |sigma'|^2.  With d = diag(Dinv) and K the kernel basis of
Phi = div o grad (D = -Phi + diag(|u|^2), Phi green = I - KK^T, K^T Phi = 0),
Dinv diag(|u|^2) = I + Dinv Phi turns the remaining Dinv products into
diag green and q = diag(Dinv K K^T), and q cancels (README has the steps):

    drift_f      = 1/2 g0^2 green(x, x) f~,
    laplace_term = g0^2 sum_x (4 d - 6 |u|^2 d^2),
    J            = -(1/8) (mu^2 kappa / h^s) g0^2 sum_x d (4 - 5 |u|^2 d).

The drift is the Ito term of the Coulomb rotation f~ = R(-g0 a) f,
a = green div A, whose angle has variance g0^2 (-green(x, x)) per unit of
A's noise, as (green div)(green div)^T = -green.  :func:`scalar_drift` and
:func:`apply_N_f`, the reduced step's drift and noise map, read no orbit
metric.  The potential-sector slots of sigma' and sigma'' vanish because D
does not depend on the potential.

:class:`OrbitGeometry` owns a state's factorization, inverse and the maps
that read it (connection, horizontal projection, sigma', Jacobian);
:func:`orbit_metric` never inverts.  Every function taking f~ accepts a
stack (..., 2, V) with one Cholesky factor and one matrix-vector product per
state, so a state's result does not depend on how many states are stacked
with it.

log det D is the bare truncated value; no continuum regularization is
applied.  Reports carry (logdet, n_sites) so counterterm subtraction can be
done externally.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .gauge import (_green_diagonal, faddeev_popov, green_divergence, jbar,
                    killing_doublet_matrix, transverse_projector)
from .lattice import matvec


class SingularOrbitMetric(Exception):
    """Raised when the orbit metric degenerates: f~ identically zero, or a D
    that floating-point Cholesky refuses (f~ too close to zero, or g0^2 |f~|^2
    too small against -div o grad); a stack raises for any of its states."""


@dataclass
class OrbitMetric:
    """Orbit metric D, its Cholesky factor and log-determinant; the inverse
    belongs to :class:`OrbitGeometry`."""

    D: np.ndarray
    chol: np.ndarray     # lower-triangular factor, D = chol @ chol.T
    logdet: float
    n_sites: int


@dataclass
class HorizontalMetric:
    """Adapted-coordinate metric blocks and their pseudo-inverse blocks.

    Blocks that are structurally constant for the Coulomb condition are not
    stored: g_ff = I, and the mixed blocks g_Ag = P_perp @ grad and
    h_Ab = P_perp @ N_f^T vanish.  Gauge-sector indices are carried both
    full-size (g_* blocks, with the derivative kernel still present) and in
    the orthonormal reduced basis ``basis`` of range(Phi), in which the
    pseudo-inversion identity is an exact block identity (see
    :meth:`pseudoinverse_residual`).
    """

    g_AA: np.ndarray      # (sV, sV)  = P_perp
    g_fg: np.ndarray      # (2V, V)   = K_f
    g_gg: np.ndarray      # (V, V)    = D
    h_AB: np.ndarray      # (sV, sV)  = P_perp
    h_ab: np.ndarray      # (2V, 2V)  = I + N_f N_f^T
    h_Ag: np.ndarray      # (sV, V)
    h_ag: np.ndarray      # (2V, V)
    h_gg: np.ndarray      # (V, V)    = -green
    basis: np.ndarray     # (V, r) orthonormal basis of range(Phi)

    def pseudoinverse_residual(self):
        """Max-abs residual of (pseudo-inverse) @ (metric) against
        blockdiag(P_perp, I, I), gauge sector in the reduced basis.  Only the
        eight nonzero blocks of the product are formed, each once and in
        place, from KB = g_fg B, DB = B^T g_gg B, HAg = h_Ag B, Hag = h_ag B
        and Hgg = B^T h_gg B; its FA block vanishes identically because h_Ab,
        g_Af and g_Ag do."""
        B = self.basis
        KB, HAg, Hag = self.g_fg @ B, self.h_Ag @ B, self.h_ag @ B
        DB, Hgg = B.T @ (self.g_gg @ B), B.T @ (self.h_gg @ B)
        AA = self.h_AB @ self.g_AA
        AA -= self.h_AB
        FF = Hag @ KB.T
        FF += self.h_ab
        FF.flat[::FF.shape[0] + 1] -= 1.0
        FG = self.h_ab @ KB
        FG += Hag @ DB
        GF = Hgg @ KB.T
        GF += Hag.T
        GG = Hag.T @ KB
        GG += Hgg @ DB
        GG.flat[::GG.shape[0] + 1] -= 1.0
        blocks = (AA, HAg @ KB.T, HAg @ DB, FF, FG, HAg.T @ self.g_AA, GF, GG)
        # a NaN in any block gives NaN; r = 0 at N = 2 leaves empty blocks
        return float(np.max([max(b.max(initial=0.0), -b.min(initial=0.0)) for b in blocks]))


@dataclass
class JacobianReport:
    """Reduction Jacobian with its ingredients and the potential correction."""

    laplace_term: float
    grad_term: float
    J: float
    V_correction: float
    logdet: float
    n_sites: int


def _nonzero_doublet(lat, f_tilde):
    """f~ as a doublet stack (..., 2, V); raises :class:`SingularOrbitMetric`
    when a state has f~ identically zero, where no orbit is lifted."""
    f_tilde = lat.check_doublet(f_tilde, stacked=True)
    if not np.any(f_tilde, axis=(-2, -1)).all():
        raise SingularOrbitMetric("orbit metric is singular for f~ identically zero")
    return f_tilde


def orbit_metric(lat, f_tilde, g0):
    """Assemble and factorize the orbit metric for scalar configuration f~,
    shape (2, V) or a stack (..., 2, V); raises :class:`SingularOrbitMetric`
    when Cholesky refuses the D of any state.  D is positive definite exactly
    whenever g0^2 |f~|^2 > 0 at every site, but Cholesky in floating point
    also needs it well enough conditioned: it refuses D for f~ = (1, 0) on
    (1, 3) at h = 1 and g0 = 1e-9, so ``jacobian`` (which needs Dinv)
    reports that state singular, while the reduced step, which reads no D,
    goes on."""
    f_tilde = _nonzero_doublet(lat, f_tilde)
    V = lat.n_sites
    # G^T G = -(div o grad) because the central differences are antisymmetric
    D = np.broadcast_to(-lat.fp_matrix(), f_tilde.shape[:-2] + (V, V)).copy()
    sites = np.arange(V)
    D[..., sites, sites] += g0 ** 2 * (f_tilde[..., 0, :] ** 2 + f_tilde[..., 1, :] ** 2)
    try:
        chol = np.linalg.cholesky(D)
    except np.linalg.LinAlgError:
        raise SingularOrbitMetric("orbit metric not positive definite") from None
    logdet = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=-2, axis2=-1)), axis=-1)
    return OrbitMetric(D, chol, logdet, V)


def horizontal_metric(lat, c, g0):
    """Adapted-coordinate metric blocks with pseudo-inverse blocks.

    Works at f~ = 0 too (the blocks themselves need no orbit inverse); the
    gauge-gauge metric block is then singular as a metric, as expected.
    """
    f_tilde = lat.check_doublet(c.f_tilde)
    fp = faddeev_popov(lat)
    P = transverse_projector(lat)
    Kf = killing_doublet_matrix(lat, f_tilde, g0)
    D = -lat.fp_matrix() + np.diag(g0 ** 2 * (f_tilde[0] ** 2 + f_tilde[1] ** 2))
    # h_ab = I + N_f N_f^T with N_f = -K_f green div and (green div)(green div)^T
    # = -green: I - u u^T o green for u = g0 Jbar f~, exactly symmetric
    u = g0 * jbar(f_tilde).reshape(-1)
    h_ab = np.eye(2 * lat.n_sites) + u[:, None] * u[None, :] * np.tile(-fp.green, (2, 2))
    # h_Ag = P (green div)^T = -(P grad) green = (div P)^T green, div P a stencil;
    # h_ag = K_f green scales row (a, x) of green by u^a(x)
    divP = lat.divergence(P.reshape(lat.dim, lat.n_sites, -1))
    return HorizontalMetric(
        g_AA=P,
        g_fg=Kf,
        g_gg=D,
        h_AB=P,
        h_ab=h_ab,
        h_Ag=divP.T @ fp.green,
        h_ag=u[:, None] * np.tile(fp.green, (2, 1)),
        h_gg=-fp.green,
        basis=fp.range_basis,
    )


class OrbitGeometry:
    """Orbit geometry of one scalar configuration f~ of shape (2, V), or of a
    stack of them, shape (..., 2, V); every piece then carries the same
    leading axes.

    Construction factorizes the orbit metric (``metric``) and inverts it once
    (``Dinv``: one LU inverse of D per state, then symmetrized), so a
    degenerate orbit raises :class:`SingularOrbitMetric` here.  The gauge
    maps apply matrix-free to tangent vectors; sigma' (``grad_f``) is built
    at most once.  The Jacobian reads sigma'' only through diag Dinv, so no
    dense sigma'' is built.
    """

    def __init__(self, lat, f_tilde, g0):
        self.lat = lat
        self.f_tilde = lat.check_doublet(f_tilde, stacked=True)
        self.g0 = g0
        self.metric = orbit_metric(lat, self.f_tilde, g0)
        Dinv = np.linalg.inv(self.metric.D)
        self.Dinv = 0.5 * (Dinv + np.swapaxes(Dinv, -2, -1))
        self.jf = jbar(self.f_tilde)
        self.u2 = g0 ** 2 * (self.f_tilde[..., 0, :] ** 2 + self.f_tilde[..., 1, :] ** 2)  # |u|^2
        self.lead = self.f_tilde.shape[:-2]

    def connection(self, vA, vf):
        """Mechanical connection Dinv (g0 <Jbar f~, vf> - div vA) of a tangent
        pair, vA of shape (..., s, V) or (..., sV) and vf (..., 2, V); (..., V)."""
        div_vA = matvec(self.lat.divergence_matrix(), np.reshape(vA, self.lead + (-1,)))
        return matvec(self.Dinv, self.g0 * np.sum(self.jf * vf, axis=-2) - div_vA)

    def horizontal(self, vA, vf):
        """Orthogonal projection (vA - grad w, vf - g0 Jbar f~ w), w the connection
        of (vA, vf), onto the horizontal subspace, in the shapes given."""
        w = self.connection(vA, vf)
        return (vA - matvec(self.lat.gradient_matrix(), w).reshape(np.shape(vA)),
                vf - self.g0 * self.jf * w[..., None, :])

    @cached_property
    def grad_f(self):
        """sigma_a(x) = 2 g0^2 f~^a(x) Dinv(x, x), shape (..., 2, V)."""
        diag = np.diagonal(self.Dinv, axis1=-2, axis2=-1)
        return 2.0 * self.g0 ** 2 * self.f_tilde * diag[..., None, :]

    def jacobian(self, mu, kappa, m=1.0):
        """Exponential part of the reduction Jacobian and the potential
        correction, scalar sector only (the potential-sector slots of sigma'
        and sigma'' are identically zero).  Fields are floats for one state
        and arrays over the leading axes for a stack.  laplace_term is
        g0^2 sum_x (4 d - 6 |u|^2 d^2), d = diag Dinv (module docstring).
        J carries the mu^2 kappa / h^s of the reduced generator, whose
        canonical increments have variance dt / h^s, so that (L0 psi) / psi
        = -J for psi = exp(sigma / 4) and L0 the generator with the
        Christoffel drift alone."""
        d = np.diagonal(self.Dinv, axis1=-2, axis2=-1)
        laplace_term = self.g0 ** 2 * np.sum(d * (4.0 - 6.0 * self.u2 * d), axis=-1)
        grad_term = np.sum(self.grad_f ** 2, axis=(-2, -1))
        J = (-0.125 * mu ** 2 * kappa * (laplace_term + 0.25 * grad_term)
             / self.lat.spacing ** self.lat.dim)
        return JacobianReport(laplace_term, grad_term, J, J / m,
                              self.metric.logdet, self.lat.n_sites)


def scalar_drift(lat, f_tilde, g0):
    """Scalar-sector geometric drift -1/2 h Gamma + j1 + j2 of the reduced
    dynamics, 1/2 g0^2 green(x, x) f~ (module docstring), before the
    mu^2 kappa / h^s prefactor; f_tilde (..., 2, V), the result likewise.
    Raises :class:`SingularOrbitMetric` for a state with f~ identically
    zero, where the reduction is undefined; states are tested one by one
    only when some entry of the stack is zero."""
    f_tilde = np.asarray(f_tilde, dtype=float)
    if f_tilde.shape[-2:] != (2, lat.n_sites) or not f_tilde.all():
        f_tilde = _nonzero_doublet(lat, f_tilde)
    return (0.5 * g0 ** 2 * _green_diagonal(lat)) * f_tilde


def apply_N_f(lat, f_tilde, g0, vA):
    """Frame map N_f vA = -g0 Jbar f~ (green div vA) of potential directions
    into the scalar sector: the reduced step's scalar noise and the map
    ``check`` verifies.  f_tilde (..., 2, V), vA (..., s, V) or (..., sV);
    returns (..., 2, V)."""
    f_tilde = lat.check_doublet(f_tilde, stacked=True)
    gd = matvec(green_divergence(lat), np.reshape(vA, f_tilde.shape[:-2] + (-1,)))
    out = np.empty(f_tilde.shape)      # -g0 Jbar f~ = (-g0 f~2, g0 f~1), exact signs
    np.multiply(f_tilde[..., 1, :], -g0, out=out[..., 0, :])
    np.multiply(f_tilde[..., 0, :], g0, out=out[..., 1, :])
    out *= gd[..., None, :]
    return out


def reduced_drift(lat, c, g0):
    """Geometric drift of the reduced dynamics at c as (drift_A, drift_f):
    drift_A is an exact zero (s, V) field and drift_f is
    :func:`scalar_drift`."""
    return np.zeros((lat.dim, lat.n_sites)), scalar_drift(lat, c.f_tilde, g0)
