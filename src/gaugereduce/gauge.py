"""U(1) gauge action, Coulomb gauge fixing and projection operators.

A configuration is a pair (A, f): a gauge potential with s components per
site and a two-component scalar.  The group acts sitewise,

    A  ->  A + grad(eps),        f  ->  R(g0 * eps) f,

with R(theta) the rotation [[cos, sin], [-sin, cos]] and generator
Jbar = [[0, 1], [-1, 0]].  The Coulomb condition div(A) = 0 selects one
representative per (mean-zero) gauge parameter; the pairing of the gauge
generators with the condition is the composition operator

    Phi = div o grad

("fp_matrix" on the lattice), whose pseudo-inverse is the Green function
used throughout.  Phi is singular on constants -- a constant eps does not
move A but still rotates f; that residual global U(1) is left unfixed.  On
even-N lattices the central-difference kernel also contains the staggered
doubling modes, which are then likewise residual (see :mod:`.lattice`).

The potential functional sums the field strength term, a covariant scalar
kinetic term and an optional sitewise potential.  The scalar kinetic term
uses symmetric link transport,

    E_i(x) = [R(-g0 h A_i(x)) f(x+e_i) - R(+g0 h A_i(x)) f(x-e_i)] / (2h),

which picks up only an overall rotation under a gauge transformation, so the
summed potential is exactly gauge invariant on the lattice (a sitewise
discretization of grad f - g0 Jbar f A would not be).
"""

from dataclasses import dataclass

import numpy as np

from .lattice import per_lattice


@dataclass
class FieldPair:
    """Point of the product configuration space: potential, scalar, coupling."""

    A: np.ndarray       # (s, V)
    f: np.ndarray       # (2, V)
    g0: float

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=float)
        self.f = np.asarray(self.f, dtype=float)
        if not (np.all(np.isfinite(self.A)) and np.all(np.isfinite(self.f))):
            raise ValueError("field entries must be finite")
        if not (self.g0 > 0):
            raise ValueError(f"coupling g0 must be positive, got {self.g0}")


@dataclass
class AdaptedCoords:
    """Bundle coordinates: transverse potential, rotated scalar, gauge parameter."""

    A_star: np.ndarray   # (s, V), div(A_star) = 0
    f_tilde: np.ndarray  # (2, V)
    a: np.ndarray        # (V,), mean zero


@dataclass
class FaddeevPopov:
    """Green function of the gauge-fixing operator Phi = div o grad
    (:meth:`~.lattice.Lattice.fp_matrix`).

    ``green`` is the Moore-Penrose pseudo-inverse of Phi (symmetric,
    annihilates the kernel, in particular green @ ones = 0), a circulant
    whose diagonal is one number, G0 = green[0, 0], on every site.
    ``kernel`` is the closed-form orthonormal basis
    :meth:`~.lattice.Lattice.zero_mode_basis` of ker(Phi).
    """

    green: np.ndarray
    kernel: np.ndarray

    def range_projector(self):
        """Projector onto range(Phi) = (kernel)^perp; the pseudo-identity
        Phi @ green.  Equals I - J/V on odd-N lattices."""
        return np.eye(self.kernel.shape[0]) - self.kernel @ self.kernel.T


@per_lattice
def faddeev_popov(lat):
    """Build the Green function of Phi for a lattice, once per lattice.

    Lattice Fourier modes diagonalize Phi, with eigenvalues -sum_m sin^2(2 pi
    k_m / N) / h^2, zero exactly on the modes of ``zero_mode_basis`` (each 2 k_m
    a multiple of N); green convolves with the inverse transform of their
    reciprocals, 0 on those modes.  No dense Phi, no eigendecomposition, no
    inverse."""
    N = lat.spec.sites_per_dim
    k = np.arange(N)
    lam = -sum(np.ix_(*[np.sin(2 * np.pi * k / N) ** 2] * lat.dim)) / lat.spacing ** 2
    zero = sum(np.ix_(*[(2 * k) % N] * lat.dim)) == 0
    g = np.fft.ifftn(np.divide(1.0, lam, out=np.zeros(lam.shape), where=~zero)).real
    sites = np.unravel_index(np.arange(lat.n_sites), lat.shape)
    green = g[tuple((x[:, None] - x) % N for x in sites)]      # green(x, y) = g(x - y)
    return FaddeevPopov(0.5 * (green + green.T), lat.zero_mode_basis())


def rotate(f, theta):
    """Sitewise rotation of a doublet (..., 2, V) by angle(s) theta."""
    c, s = np.cos(theta), np.sin(theta)
    f1, f2 = f[..., 0, :], f[..., 1, :]
    return np.stack([c * f1 + s * f2, -s * f1 + c * f2], axis=-2)


def jbar(f):
    """Generator Jbar f = (f2, -f1) applied sitewise to a doublet (..., 2, V)."""
    return np.stack([f[..., 1, :], -f[..., 0, :]], axis=-2)


def gauge_transform(lat, p, eps):
    """Finite gauge transformation of a configuration by parameter eps."""
    eps = lat.check_scalar(eps)
    return FieldPair(p.A + lat.gradient(eps), rotate(p.f, p.g0 * eps), p.g0)


def killing_vector(lat, p, eps):
    """Generator of the gauge action: d/dt at t=0 of gauge_transform(p, t*eps).

    Returns the pair (grad(eps), g0 * eps * Jbar f).
    """
    eps = lat.check_scalar(eps)
    return lat.gradient(eps), p.g0 * eps * jbar(p.f)


def killing_doublet_matrix(lat, f, g0):
    """Dense (2V x V) matrix of the scalar-sector Killing components,
    K[(a,y), z] = g0 * (Jbar f)^a(y) * delta_{yz}."""
    V = lat.n_sites
    K = np.zeros((2 * V, V))
    K[np.arange(2 * V), np.tile(np.arange(V), 2)] = g0 * jbar(f).reshape(-1)
    return K


def solve_gauge_parameter(lat, A):
    """Gauge parameter moving A onto the Coulomb surface.

    Solves Phi a = div(A) through the Green function; the result has mean
    zero and div(A - grad(a)) = 0 to machine precision.
    """
    A = lat.check_vector(A)
    fp = faddeev_popov(lat)
    a = fp.green @ lat.divergence(A)
    return a - a.mean()


def to_adapted(lat, p):
    """Split a configuration into (transverse potential, rotated scalar, a)."""
    a = solve_gauge_parameter(lat, p.A)
    A_star = p.A - lat.gradient(a)
    f_tilde = rotate(p.f, -p.g0 * a)
    return AdaptedCoords(A_star, f_tilde, a)


def from_adapted(lat, c, g0):
    """Rebuild the original configuration; exact inverse of :func:`to_adapted`."""
    return FieldPair(c.A_star + lat.gradient(c.a), rotate(c.f_tilde, g0 * c.a), g0)


@per_lattice
def transverse_projector(lat):
    """Dense (sV x sV) projector onto divergence-free vector fields, once per
    lattice.

    P = I - grad o green o div.  Symmetric and idempotent; kills gradients
    exactly and div(P v) = 0 exactly, because grad, div and the Green
    function are built from the same central differences.  The gradient is
    applied as a stencil to the columns of :func:`green_divergence`.
    """
    nA = lat.dim * lat.n_sites
    P = np.eye(nA) - lat.gradient(green_divergence(lat)).reshape(nA, nA)
    return 0.5 * (P + P.T)


@per_lattice
def green_divergence(lat):
    """Dense (V x sV) product green @ div, once per lattice: green is
    symmetric and div^T = -grad, so it is -(grad o green)^T, a stencil."""
    grad_green = lat.gradient(faddeev_popov(lat).green).reshape(-1, lat.n_sites)
    return np.ascontiguousarray(-grad_green.T)


def potential(lat, p, v0=None):
    """Potential functional: field strength + covariant scalar kinetic + V0.

    V = h^s * sum_x [ 1/4 F_ij F_ij + 1/2 |E_i|^2 + V0(A, f)(x) ]

    with F_ij = d_i A_j - d_j A_i (central differences) and E_i the
    link-transported scalar derivative (module docstring).  ``v0``, if given,
    is called as ``v0(A, f)`` with the full (s, V) and (2, V) arrays and must
    return sitewise values, shape (V,); gauge invariance of the total
    requires v0 to be built from sitewise invariants such as |f|^2.  Stacks
    A (..., s, V), f (..., 2, V) give each state's value, bitwise as alone.
    """
    f = lat.check_doublet(p.f, stacked=True)
    A = np.asarray(p.A, dtype=float)
    if A.shape != f.shape[:-2] + (lat.dim, lat.n_sites):
        raise ValueError(f"vector field {A.shape} does not match the doublet {f.shape}")
    h, s, inv = lat.spacing, lat.dim, 0.5 / lat.spacing
    total = 0.0
    # field-strength term; antisymmetric in (i, j), sum over all ordered pairs
    grads = [(A.take(p_, axis=-1) - A.take(m_, axis=-1)) * inv    # grads[i][..., j, :] = d_i A_j
             for p_, m_ in zip(lat._plus, lat._minus)]
    for i in range(s):
        for j in range(i + 1, s):
            Fij = grads[i][..., j, :] - grads[j][..., i, :]
            total += 0.5 * np.sum(Fij ** 2, axis=-1)
    # covariant kinetic term with midpoint link transport
    for i in range(s):
        theta = p.g0 * h * A[..., i, :]
        E = (rotate(f[..., lat._plus[i]], -theta)
             - rotate(f[..., lat._minus[i]], theta)) / (2.0 * h)
        total += 0.5 * np.sum(E ** 2, axis=(-2, -1))
    if v0 is not None:
        total += np.sum(v0(A, f), axis=-1)
    return float(total * h ** s) if f.ndim == 2 else total * h ** s
