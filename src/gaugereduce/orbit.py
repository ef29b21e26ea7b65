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
:class:`OrbitGeometry` holds all of these pieces for one state.

log det D is the bare truncated value; no continuum regularization is
applied.  Reports carry (logdet, n_sites) so counterterm subtraction can be
done externally.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from .gauge import (faddeev_popov, from_adapted, killing_doublet_matrix,
                    potential, projector_N, transverse_projector)
from .lattice import flat, unflat


class SingularOrbitMetric(Exception):
    """Raised when the orbit metric degenerates (f~ too close to zero)."""


@dataclass
class OrbitMetric:
    """Orbit metric D with Cholesky factor, inverse and log-determinant."""

    D: np.ndarray
    chol: np.ndarray     # lower-triangular factor, D = chol @ chol.T
    Dinv: np.ndarray
    logdet: float
    n_sites: int


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
        blockdiag(P_perp, I, I), gauge sector in the reduced basis."""
        B = self.basis
        sV, n2V, r = self.g_AA.shape[0], self.h_ab.shape[0], B.shape[1]
        n = sV + n2V + r
        iA = slice(0, sV)
        iF = slice(sV, sV + n2V)
        iG = slice(sV + n2V, n)
        Gt = np.zeros((n, n))
        Gt[iA, iA] = self.g_AA
        Gt[iF, iF] = np.eye(n2V)
        Gt[iF, iG] = self.g_fg @ B
        Gt[iG, iF] = Gt[iF, iG].T
        Gt[iG, iG] = B.T @ self.g_gg @ B
        Gi = np.zeros((n, n))
        Gi[iA, iA] = self.h_AB
        Gi[iF, iF] = self.h_ab
        Gi[iA, iG] = self.h_Ag @ B
        Gi[iG, iA] = Gi[iA, iG].T
        Gi[iF, iG] = self.h_ag @ B
        Gi[iG, iF] = Gi[iF, iG].T
        Gi[iG, iG] = B.T @ self.h_gg @ B
        target = np.zeros((n, n))
        target[iA, iA] = self.h_AB
        target[iF, iF] = np.eye(n2V)
        target[iG, iG] = np.eye(r)
        return float(np.abs(Gi @ Gt - target).max())


@dataclass
class JacobianReport:
    """Reduction Jacobian with its ingredients and the potential correction."""

    laplace_term: float
    grad_term: float
    J: float
    V_correction: float
    logdet: float
    n_sites: int


def orbit_metric(lat, f_tilde, g0):
    """Assemble and factorize the orbit metric for scalar configuration f~."""
    f_tilde = lat.check_doublet(f_tilde)
    if not np.any(f_tilde):
        raise SingularOrbitMetric("orbit metric is singular for f~ identically zero")
    G = lat.gradient_matrix()
    D = G.T @ G + np.diag(g0 ** 2 * (f_tilde[0] ** 2 + f_tilde[1] ** 2))
    D = 0.5 * (D + D.T)
    try:
        cho = scipy.linalg.cho_factor(D, lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise SingularOrbitMetric(f"orbit metric not positive definite: {exc}") from exc
    logdet = 2.0 * float(np.sum(np.log(np.diag(cho[0]))))
    Dinv = scipy.linalg.cho_solve(cho, np.eye(lat.n_sites))
    Dinv = 0.5 * (Dinv + Dinv.T)
    return OrbitMetric(D, np.tril(cho[0]), Dinv, logdet, lat.n_sites)


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
    G = lat.gradient_matrix()
    Kf = killing_doublet_matrix(lat, f_tilde, g0)
    _, N_f = projector_N(lat, f_tilde, g0)
    D = G.T @ G + np.diag(g0 ** 2 * (f_tilde[0] ** 2 + f_tilde[1] ** 2))
    Lam = fp.green @ lat.divergence_matrix()          # (V, sV)
    return HorizontalMetric(
        g_AA=P,
        g_fg=Kf,
        g_gg=0.5 * (D + D.T),
        h_AB=P,
        h_ab=np.eye(2 * lat.n_sites) + N_f @ N_f.T,
        h_Ag=P @ Lam.T,
        h_ag=Kf @ fp.green,
        h_gg=-fp.green,
        basis=fp.range_basis,
    )


class OrbitGeometry:
    """Orbit geometry of one scalar configuration f~.

    Construction factorizes the orbit metric (``metric``), so a degenerate
    orbit raises :class:`SingularOrbitMetric` here.  The derived pieces --
    N_f, h_ff, the connection blocks, sigma' (``grad_f``), the Gamma
    contraction and, only when read, sigma'' (``hess_ff``) -- are each built
    at most once per instance; the drifts, the Jacobian and the connection
    are reads of them.
    """

    def __init__(self, lat, f_tilde, g0):
        self.lat = lat
        self.f_tilde = lat.check_doublet(f_tilde)
        self.g0 = g0
        self.metric = orbit_metric(lat, self.f_tilde, g0)
        self.jf = np.stack([self.f_tilde[1], -self.f_tilde[0]])    # Jbar f~

    @cached_property
    def N_f(self):
        """Scalar-sector projection block (2V, sV), see :func:`projector_N`."""
        return projector_N(self.lat, self.f_tilde, self.g0)[1]

    @cached_property
    def h_ff(self):
        """Scalar-scalar block I + N_f N_f^T of the horizontal metric."""
        return np.eye(2 * self.lat.n_sites) + self.N_f @ self.N_f.T

    @cached_property
    def A_gauge(self):
        """Gauge block of the connection, (V, sV)."""
        return self.metric.Dinv @ self.lat.gradient_matrix().T

    @cached_property
    def A_scalar(self):
        """Scalar block of the connection, (V, 2V)."""
        return np.concatenate([self.metric.Dinv * (self.g0 * self.jf[a])
                               for a in range(2)], axis=1)

    @cached_property
    def grad_f(self):
        """sigma_a(x) = 2 g0^2 f~^a(x) Dinv(x, x), shape (2, V)."""
        return 2.0 * self.g0 ** 2 * self.f_tilde * np.diag(self.metric.Dinv)

    @cached_property
    def hess_ff(self):
        """sigma_ab(x, y), shape (2V, 2V)."""
        V, g0, Dinv = self.lat.n_sites, self.g0, self.metric.Dinv
        f = flat(self.f_tilde)
        hess = -4.0 * g0 ** 4 * np.einsum("p,q,pq->pq", f, f,
                                          np.tile(Dinv ** 2, (2, 2)), optimize=True)
        # careful: the Dinv(x,y)^2 factor pairs site indices of p=(a,x), q=(b,y)
        hess = hess.reshape(2, V, 2, V)
        diag_term = 2.0 * g0 ** 2 * np.diag(Dinv)
        for a in range(2):
            hess[a, np.arange(V), a, np.arange(V)] += diag_term
        hess = hess.reshape(2 * V, 2 * V)
        return 0.5 * (hess + hess.T)

    @cached_property
    def gamma(self):
        """(g_A, g_f) from :func:`_gamma_contractions`."""
        return _gamma_contractions(self)

    def connection(self):
        """Mechanical connection blocks from the orbit Green function."""
        return MechanicalConnection(self.A_gauge, self.A_scalar)

    def christoffel_drift(self):
        """Drift contribution -1/2 h^{BM} Gamma^{.}_{BM} of the reduced dynamics.

        Returns (drift_A, drift_f) as (s, V) and (2, V) fields.  Both vanish
        for f~ -> 0 at fixed orbit Green function; the potential-sector part
        is a pure gradient and is cancelled by the orbit-space mean curvature.
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
        P = transverse_projector(lat)
        gA = flat(self.gamma[0])
        sf = flat(self.grad_f)
        j1_A = unflat(0.5 * (gA - P @ gA), lat.dim, lat.n_sites)
        j1_f = unflat(-0.5 * (self.N_f @ gA), 2, lat.n_sites)
        j2_A = unflat(0.25 * (P @ (self.N_f.T @ sf)), lat.dim, lat.n_sites)
        j2_f = unflat(0.25 * (self.h_ff @ sf), 2, lat.n_sites)
        return j1_A, j1_f, j2_A, j2_f

    def drift(self):
        """Total geometric drift (-1/2 h Gamma + j1 + j2) of the reduced
        dynamics, before the mu^2 kappa prefactor.  Returns ((s,V), (2,V))."""
        dA, df = self.christoffel_drift()
        j1_A, j1_f, j2_A, j2_f = self.mean_curvature_terms()
        return dA + j1_A + j2_A, df + j1_f + j2_f

    def jacobian(self, mu, kappa, m=1.0):
        """Exponential part of the reduction Jacobian and the potential
        correction, scalar sector only (the potential-sector slots of sigma'
        and sigma'' are identically zero)."""
        sf = flat(self.grad_f)
        laplace_term = float(np.sum(self.h_ff * self.hess_ff) - flat(self.gamma[1]) @ sf)
        grad_term = float(sf @ self.h_ff @ sf)
        J = -0.125 * mu ** 2 * kappa * (laplace_term + 0.25 * grad_term)
        return JacobianReport(laplace_term, grad_term, J, J / m,
                              self.metric.logdet, self.lat.n_sites)


def _gamma_contractions(geo):
    """h^{BM} Gamma^{.}_{BM} contractions of the horizontal-metric Christoffel
    table for an :class:`OrbitGeometry`; returns (g_A, g_f) as fields
    ((s,V) and (2,V)).

    Only the potential-potential and scalar-scalar blocks of h contribute
    (the mixed block vanishes identically for the Coulomb condition).  The
    scalar-sector result combines the f~-derivative of the connection, the
    f~-derivative of the scalar Killing block, and the orbit curvature of
    both connection blocks; the potential-sector result is the pure gradient
    -grad(S) with S the h-traced connection derivative.
    """
    lat, f_tilde, jf, g0 = geo.lat, geo.f_tilde, geo.jf, geo.g0
    V = lat.n_sites
    Dinv = geo.metric.Dinv
    h4 = geo.h_ff.reshape(2, V, 2, V)

    # S(x) = sum_{pq} h^{pq} dA_scalar^x_p / df~^q
    T1 = np.einsum("aycz,zy,ay->cz", h4, Dinv, jf, optimize=True)
    tbar = np.diag(h4[0, :, 1, :]) - np.diag(h4[1, :, 0, :])
    S = -2.0 * g0 ** 3 * (Dinv @ np.sum(f_tilde * T1, axis=0)) + g0 * (Dinv @ tbar)

    # curvature diagonals W(y,y) of the connection blocks
    A_g = geo.A_gauge
    diag_WA = np.einsum("xp,pq,xq->x", A_g, transverse_projector(lat), A_g, optimize=True)
    AsH = geo.A_scalar @ geo.h_ff
    diag_WF = np.einsum("xp,xp->x", AsH, geo.A_scalar)
    AsH3 = AsH.reshape(V, 2, V)
    TT = np.stack([np.diag(AsH3[:, c, :]) for c in range(2)], axis=1)   # (V, 2)
    t2 = np.stack([-2.0 * g0 * TT[:, 1], 2.0 * g0 * TT[:, 0]])          # (2, V)

    curv = -g0 ** 2 * f_tilde * (diag_WA + diag_WF)
    g_f = curv + t2 - g0 * jf * S
    g_A = -lat.gradient(S)
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
