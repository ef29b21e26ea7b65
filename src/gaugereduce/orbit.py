"""Orbit geometry: orbit metric, connection, curvature drifts, reduction Jacobian.

Everything here is driven by the metric on a gauge orbit, assembled from the
generators of the group action,

    D = K_A^T K_A + K_f^T K_f = -(div o grad) + diag(g0^2 |f~|^2),

a V x V symmetric matrix, positive definite whenever f~ is nonzero enough to
lift the derivative kernel.  Its inverse is the Green function entering the
mechanical (Coulomb) connection

    A_gauge(x, (j,y)) = d_j(y) Dinv(y, x),      A_scalar(x, (a,y)) = g0 Dinv(x, y) (Jbar f~)^a(y),

whose defining property A(K(eps)) = eps holds to machine precision by
construction.  The orbit volume enters through

    sigma = log det D,
    sigma_a(x)      = 2 g0^2 f~^a(x) Dinv(x, x),
    sigma_ab(x, y)  = 2 g0^2 d_ab d_xy Dinv(x, x) - 4 g0^4 f~^a(x) f~^b(y) Dinv(x, y)^2,

closed forms that follow from d(log det D) = tr(Dinv dD) and
d(Dinv) = -Dinv (dD) Dinv.  The drift pieces of the reduced dynamics are
finite contractions of the connection, its f~-derivatives and the scalar
Killing block (see :meth:`OrbitGeometry.christoffel_drift` and
:meth:`OrbitGeometry.mean_curvature_terms`), and combine into the reduction
Jacobian

    J = -(1/8) mu^2 kappa * (laplace_term + grad_term / 4)

with laplace_term = h^ab sigma_ab - (h Gamma)^a sigma_a and
grad_term = h^ab sigma_a sigma_b.  The potential-sector contributions
(capital indices) vanish identically because D does not depend on the
potential, so only the collapsed scalar-sector form is computed.
:class:`OrbitGeometry` holds all of these pieces for one state, or for a
stack of states: every function taking f~ accepts shape (..., 2, V) and
returns its results with the same leading axes, one Cholesky factor and one
matrix-vector product per state, so a state's result does not depend on how
many states are stacked with it.

log det D is the bare truncated value; no continuum regularization is
applied.  Reports carry (logdet, n_sites) so counterterm subtraction can be
done externally.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .gauge import (faddeev_popov, from_adapted, green_divergence,
                    killing_doublet_matrix, potential, projector_N,
                    transverse_projector)
from .lattice import matvec, unflat


class SingularOrbitMetric(Exception):
    """Raised when the orbit metric degenerates (f~ too close to zero).

    ``rows`` holds the indices (into the flattened leading axes of a stack)
    of the degenerate states.
    """

    def __init__(self, message, rows=()):
        super().__init__(message)
        self.rows = np.asarray(rows, dtype=int)


@dataclass
class OrbitMetric:
    """Orbit metric D, Cholesky factor and log-determinant; ``Dinv`` is built on
    first read and kept, without cached_property's lock (class-wide before 3.12)."""

    D: np.ndarray
    chol: np.ndarray     # lower-triangular factor, D = chol @ chol.T
    logdet: float
    n_sites: int
    _Dinv: np.ndarray = field(default=None, init=False, repr=False, compare=False)

    @property
    def Dinv(self):
        if self._Dinv is None:
            chol_inv = np.linalg.inv(self.chol)
            Dinv = np.swapaxes(chol_inv, -2, -1) @ chol_inv
            self._Dinv = 0.5 * (Dinv + np.swapaxes(Dinv, -2, -1))
        return self._Dinv


@dataclass
class MechanicalConnection:
    """Blocks of the mechanical connection one-form."""

    A_gauge: np.ndarray   # (V, sV)
    A_scalar: np.ndarray  # (V, 2V)

    def contract(self, vA, vf):
        """Apply the connection to a tangent pair (vA, vf); returns (V,)."""
        return self.A_gauge @ np.asarray(vA).reshape(-1) + \
            self.A_scalar @ np.asarray(vf).reshape(-1)


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
        eight nonzero blocks of the product are formed, from KB = g_fg B,
        DB = B^T g_gg B, HAg = h_Ag B, Hag = h_ag B and Hgg = B^T h_gg B; its
        FA block vanishes identically because h_Ab, g_Af and g_Ag do."""
        B = self.basis
        KB, HAg, Hag = self.g_fg @ B, self.h_Ag @ B, self.h_ag @ B
        DB, Hgg = B.T @ self.g_gg @ B, B.T @ self.h_gg @ B
        I_f, I_g = np.eye(KB.shape[0]), np.eye(B.shape[1])
        blocks = (self.h_AB @ self.g_AA - self.h_AB, HAg @ KB.T, HAg @ DB,        # AA AF AG
                  self.h_ab + Hag @ KB.T - I_f, self.h_ab @ KB + Hag @ DB,         # FF FG
                  HAg.T @ self.g_AA, Hag.T + Hgg @ KB.T, Hag.T @ KB + Hgg @ DB - I_g)  # GA GF GG
        return float(max(np.abs(b).max(initial=0.0) for b in blocks))   # r = 0 at N = 2


@dataclass
class JacobianReport:
    """Reduction Jacobian with its ingredients and the potential correction."""

    laplace_term: float
    grad_term: float
    J: float
    V_correction: float
    logdet: float
    n_sites: int


def _is_positive_definite(M):
    try:
        np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        return False
    return True


def orbit_metric(lat, f_tilde, g0):
    """Assemble and factorize the orbit metric for scalar configuration f~,
    shape (2, V) or a stack (..., 2, V)."""
    f_tilde = lat.check_doublet(f_tilde, stacked=True)
    V = lat.n_sites
    zero = ~np.any(f_tilde, axis=(-2, -1))
    if np.any(zero):
        raise SingularOrbitMetric("orbit metric is singular for f~ identically zero",
                                  rows=np.flatnonzero(zero))
    # G^T G = -(div o grad) because the central differences are antisymmetric
    D = np.broadcast_to(-lat.fp_matrix(), zero.shape + (V, V)).copy()
    sites = np.arange(V)
    D[..., sites, sites] += g0 ** 2 * (f_tilde[..., 0, :] ** 2 + f_tilde[..., 1, :] ** 2)
    try:
        chol = np.linalg.cholesky(D)
    except np.linalg.LinAlgError:
        bad = [i for i, M in enumerate(D.reshape(-1, V, V)) if not _is_positive_definite(M)]
        raise SingularOrbitMetric("orbit metric not positive definite", rows=bad) from None
    logdet = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=-2, axis2=-1)), axis=-1)
    return OrbitMetric(D, chol, logdet, V)


def _scalar_metric_block(lat, f_tilde, g0):
    """h_ff = I + N_f N_f^T for f~ of shape (..., 2, V).

    N_f = -K_f green div, and (green div)(green div)^T = -green, so
    h_ff((a,x), (b,y)) = d_ab d_xy - g0^2 (Jbar f~)^a(x) (Jbar f~)^b(y) green(x, y),
    built without the (2V x sV) factors; it is exactly symmetric.
    """
    V = lat.n_sites
    u = g0 * np.stack([f_tilde[..., 1, :], -f_tilde[..., 0, :]], axis=-2).reshape(
        f_tilde.shape[:-2] + (2 * V,))
    neg_green = np.tile(-faddeev_popov(lat).green, (2, 2))
    h = u[..., :, None] * u[..., None, :] * neg_green
    diag = np.arange(2 * V)
    h[..., diag, diag] += 1.0
    return h


def horizontal_project(lat, conn, f_tilde, g0, vA, vf):
    """Orthogonal projection of a tangent pair onto the horizontal subspace,
    v - K(A(v)); the connection annihilates the result."""
    w = conn.contract(vA, vf)
    hA = np.asarray(vA, dtype=float).reshape(-1) - lat.gradient_matrix() @ w
    hf = np.asarray(vf, dtype=float).reshape(-1) - killing_doublet_matrix(lat, f_tilde, g0) @ w
    return unflat(hA, lat.dim, lat.n_sites), unflat(hf, 2, lat.n_sites)


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
    return HorizontalMetric(
        g_AA=P,
        g_fg=Kf,
        g_gg=D,
        h_AB=P,
        h_ab=_scalar_metric_block(lat, f_tilde, g0),
        h_Ag=P @ green_divergence(lat).T,
        h_ag=Kf @ fp.green,
        h_gg=-fp.green,
        basis=fp.range_basis,
    )


class OrbitGeometry:
    """Orbit geometry of one scalar configuration f~ of shape (2, V), or of a
    stack of them, shape (..., 2, V); every piece then carries the same
    leading axes.

    Construction factorizes and inverts the orbit metric (``metric``), so a
    degenerate orbit raises :class:`SingularOrbitMetric` here.  The pieces --
    N_f, h_ff, the connection blocks, sigma' (``grad_f``), the Gamma
    contraction and, only when read, sigma'' (``hess_ff``) -- are each built
    at most once per instance; the drifts, the Jacobian and the connection
    are reads of them.
    """

    def __init__(self, lat, f_tilde, g0):
        self.lat = lat
        self.f_tilde = lat.check_doublet(f_tilde, stacked=True)
        self.g0 = g0
        self.metric = orbit_metric(lat, self.f_tilde, g0)
        self.metric.Dinv    # every piece reads it; built here, not under a property's lock
        self.jf = np.stack([self.f_tilde[..., 1, :], -self.f_tilde[..., 0, :]],
                           axis=-2)                                      # Jbar f~
        self.lead = self.f_tilde.shape[:-2]

    def _fields(self, vec, components):
        """Unflatten (..., components * V) to (..., components, V)."""
        return vec.reshape(self.lead + (components, self.lat.n_sites))

    @cached_property
    def N_f(self):
        """Scalar-sector projection block (..., 2V, sV), see :func:`projector_N`."""
        return projector_N(self.lat, self.f_tilde, self.g0)[1]

    @cached_property
    def h_ff(self):
        """Scalar-scalar block I + N_f N_f^T of the horizontal metric."""
        return _scalar_metric_block(self.lat, self.f_tilde, self.g0)

    @cached_property
    def A_gauge(self):
        """Gauge block of the connection, (..., V, sV)."""
        return self.metric.Dinv @ self.lat.gradient_matrix().T

    @cached_property
    def A_scalar(self):
        """Scalar block of the connection, (..., V, 2V)."""
        V = self.lat.n_sites
        blocks = self.metric.Dinv[..., :, None, :] * (self.g0 * self.jf)[..., None, :, :]
        return blocks.reshape(self.lead + (V, 2 * V))

    @cached_property
    def grad_f(self):
        """sigma_a(x) = 2 g0^2 f~^a(x) Dinv(x, x), shape (..., 2, V)."""
        diag = np.diagonal(self.metric.Dinv, axis1=-2, axis2=-1)
        return 2.0 * self.g0 ** 2 * self.f_tilde * diag[..., None, :]

    @cached_property
    def hess_ff(self):
        """sigma_ab(x, y), shape (..., 2V, 2V)."""
        V, g0, Dinv = self.lat.n_sites, self.g0, self.metric.Dinv
        f = self.f_tilde.reshape(self.lead + (2 * V,))
        # the Dinv(x,y)^2 factor pairs the site indices of p=(a,x), q=(b,y)
        hess = -4.0 * g0 ** 4 * f[..., :, None] * f[..., None, :] * np.tile(Dinv ** 2, (2, 2))
        hess = hess.reshape(self.lead + (2, V, 2, V))
        diag_term = 2.0 * g0 ** 2 * np.diagonal(Dinv, axis1=-2, axis2=-1)
        sites = np.arange(V)
        for a in range(2):
            hess[..., a, sites, a, sites] += diag_term
        hess = hess.reshape(self.lead + (2 * V, 2 * V))
        return 0.5 * (hess + np.swapaxes(hess, -2, -1))

    @cached_property
    def gamma(self):
        """(g_A, g_f) from :func:`_gamma_contractions`."""
        return _gamma_contractions(self)

    def connection(self):
        """Mechanical connection blocks from the orbit Green function."""
        return MechanicalConnection(self.A_gauge, self.A_scalar)

    def christoffel_drift(self):
        """Drift contribution -1/2 h^{BM} Gamma^{.}_{BM} of the reduced dynamics.

        Returns (drift_A, drift_f) as (..., s, V) and (..., 2, V) fields.
        Both vanish for f~ -> 0 at fixed orbit Green function; the
        potential-sector part is a pure gradient and is cancelled by the
        orbit-space mean curvature.
        """
        g_A, g_f = self.gamma
        return -0.5 * g_A, -0.5 * g_f

    def mean_curvature_terms(self):
        """Mean-curvature drifts: orbit space (j1) and orbit (j2).

        j1 subtracts the vertical part of the Christoffel contraction (the
        potential blocks of N do not depend on the fields, so their
        derivative terms drop); j2 = 1/4 h . sigma' with the potential-sector
        slot of sigma' identically zero.
        """
        lat = self.lat
        s, V = lat.dim, lat.n_sites
        P = transverse_projector(lat)
        gA = self.gamma[0].reshape(self.lead + (s * V,))
        sf = self.grad_f.reshape(self.lead + (2 * V,))
        N_f = self.N_f
        j1_A = self._fields(0.5 * (gA - matvec(P, gA)), s)
        j1_f = self._fields(-0.5 * matvec(N_f, gA), 2)
        j2_A = self._fields(0.25 * matvec(P, matvec(np.swapaxes(N_f, -2, -1), sf)), s)
        j2_f = self._fields(0.25 * matvec(self.h_ff, sf), 2)
        return j1_A, j1_f, j2_A, j2_f

    def drift(self):
        """Total geometric drift (-1/2 h Gamma + j1 + j2) of the reduced
        dynamics, before the mu^2 kappa prefactor.  Returns
        ((..., s, V), (..., 2, V))."""
        dA, df = self.christoffel_drift()
        j1_A, j1_f, j2_A, j2_f = self.mean_curvature_terms()
        return dA + j1_A + j2_A, df + j1_f + j2_f

    def jacobian(self, mu, kappa, m=1.0):
        """Exponential part of the reduction Jacobian and the potential
        correction, scalar sector only (the potential-sector slots of sigma'
        and sigma'' are identically zero).  Fields are floats for one state
        and arrays over the leading axes for a stack."""
        V = self.lat.n_sites
        sf = self.grad_f.reshape(self.lead + (2 * V,))
        g_f = self.gamma[1].reshape(self.lead + (2 * V,))
        laplace_term = np.sum(self.h_ff * self.hess_ff, axis=(-2, -1)) - np.sum(g_f * sf, axis=-1)
        grad_term = np.sum(sf * matvec(self.h_ff, sf), axis=-1)
        J = -0.125 * mu ** 2 * kappa * (laplace_term + 0.25 * grad_term)
        return JacobianReport(laplace_term, grad_term, J, J / m,
                              self.metric.logdet, self.lat.n_sites)


def _gamma_contractions(geo):
    """h^{BM} Gamma^{.}_{BM} contractions of the horizontal-metric Christoffel
    table for an :class:`OrbitGeometry`; returns (g_A, g_f) as fields
    ((..., s, V) and (..., 2, V)).

    Only the potential-potential and scalar-scalar blocks of h contribute
    (the mixed block vanishes identically for the Coulomb condition).  The
    scalar-sector result combines the f~-derivative of the connection, the
    f~-derivative of the scalar Killing block, and the orbit curvature of
    the scalar connection block; the potential-sector result is the pure
    gradient -grad(S) with S the h-traced connection derivative.

    Two terms of the general contraction vanish identically and are not
    formed: the curvature diagonal of the gauge block,
    diag(A_gauge P A_gauge^T) = diag(Dinv grad^T P grad Dinv), is zero
    because P kills gradients; and the derivative of Jbar in A_scalar
    contributes h^{(0x)(1x)} - h^{(1x)(0x)}, zero because h_ff is symmetric.
    """
    lat, f_tilde, jf, g0 = geo.lat, geo.f_tilde, geo.jf, geo.g0
    V = lat.n_sites
    A_s = geo.A_scalar
    AsH = A_s @ geo.h_ff                                             # (..., V, 2V)
    # TT[c, x] = (A_scalar h)(x, (c, x)) = g0 sum_{a,y} h^{(a,y)(c,x)} Dinv(x,y) (Jbar f~)^a(y)
    TT = np.diagonal(AsH.reshape(geo.lead + (V, 2, V)), axis1=-3, axis2=-1)
    # S(x) = sum_{pq} h^{pq} dA_scalar^x_p / df~^q = -2 g0^2 (Dinv sum_c f~^c TT[c])(x)
    S = matvec(geo.metric.Dinv, -2.0 * g0 ** 2 * np.sum(f_tilde * TT, axis=-2))
    diag_WF = np.sum(AsH * A_s, axis=-1)
    t2 = 2.0 * g0 * np.stack([-TT[..., 1, :], TT[..., 0, :]], axis=-2)
    g_f = -g0 ** 2 * f_tilde * diag_WF[..., None, :] + t2 - g0 * jf * S[..., None, :]
    g_A = geo._fields(-matvec(lat.gradient_matrix(), S), lat.dim)
    return g_A, g_f


def reduced_drift(lat, c, g0):
    """Total geometric drift of the reduced dynamics at c, see
    :meth:`OrbitGeometry.drift`."""
    return OrbitGeometry(lat, c.f_tilde, g0).drift()


def reduction_jacobian(lat, c, g0, mu, kappa, m=1.0):
    """Reduction Jacobian at c, see :meth:`OrbitGeometry.jacobian`."""
    return OrbitGeometry(lat, c.f_tilde, g0).jacobian(mu, kappa, m)


def effective_potential(lat, c, g0, mu, kappa, m=1.0, v0=None):
    """Potential on the gauge surface plus the reduction correction."""
    rep = reduction_jacobian(lat, c, g0, mu, kappa, m)
    return potential(lat, from_adapted(lat, c, g0), v0) + rep.V_correction
