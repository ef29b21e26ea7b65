"""Periodic cubic lattices with finite-difference calculus.

The spatial continuum is truncated to a periodic cubic lattice of dimension
``s`` in {1, 2, 3} with ``N`` sites per direction (``V = N**s`` sites total)
and spacing ``h``.  Fields live on sites:

* scalar fields        -- shape ``(V,)``
* vector fields        -- shape ``(s, V)``   (one component per direction)
* doublet fields       -- shape ``(2, V)``   (two internal components)

Derivatives are central differences with periodic wrap, so the gradient and
minus-divergence are exact adjoints under the site inner product
``h**s * sum(u * v)``.  The second-order operator is ``fp_matrix``, the
composition divergence o gradient of the central differences, the one
consistent with the gauge-fixing machinery (see :mod:`.gauge`).  It is not
the 2s-point stencil: on lattices with even N its kernel contains, besides
the constants, the 2**s - 1 staggered (checkerboard) modes, the usual
doubling artifact of central differences (``zero_mode_basis``).

The gradient and divergence exist only as stencils.  Each dense operator
(``fp_matrix``; green, P and green o div in :mod:`.gauge`) is built once per
lattice, by :func:`per_lattice`; this is a desk-scale verification tool, and
dense assembly refuses lattices with more than ``MAX_DENSE_SITES`` sites.
"""

import functools
from dataclasses import dataclass

import numpy as np

# Dense operator matrices are only built below this site count.
MAX_DENSE_SITES = 512


def per_lattice(build):
    """Cache the dense operator ``build(lat)`` on the lattice, keyed by
    ``build``: built on first read (refused above ``MAX_DENSE_SITES``), the
    same object on every later read.  Nothing else touches ``_cache``."""
    @functools.wraps(build)
    def read(lat):
        op = lat._cache.get(build)
        if op is None:
            if lat.n_sites > MAX_DENSE_SITES:
                raise ValueError(f"dense operator matrices refused for "
                                 f"V={lat.n_sites} > {MAX_DENSE_SITES} sites")
            op = lat._cache[build] = build(lat)
        return op
    return read


@dataclass(frozen=True)
class LatticeSpec:
    """Shape of the truncation: dimension, sites per direction, spacing."""

    dim: int
    sites_per_dim: int
    spacing: float = 1.0

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {self.dim}")
        if int(self.sites_per_dim) != self.sites_per_dim or self.sites_per_dim < 2:
            raise ValueError(f"sites_per_dim must be an integer >= 2, got {self.sites_per_dim}")
        if not (self.spacing > 0):
            raise ValueError(f"spacing must be positive, got {self.spacing}")

    @property
    def n_sites(self):
        return self.sites_per_dim ** self.dim


class Lattice:
    """Periodic lattice with neighbour tables and calculus.

    Parameters
    ----------
    spec : LatticeSpec
        Lattice shape.  Convenience: ``Lattice(dim, N, spacing)`` also works.

    Notes
    -----
    All operations are pure functions of their inputs; the only mutable state
    is the cache of dense operators that :func:`per_lattice` fills.
    """

    def __init__(self, spec, sites_per_dim=None, spacing=1.0):
        if not isinstance(spec, LatticeSpec):
            spec = LatticeSpec(spec, sites_per_dim, spacing)
        self.spec = spec
        self.dim = spec.dim
        self.n_sites = spec.n_sites
        self.spacing = spec.spacing
        self.shape = (spec.sites_per_dim,) * spec.dim

        ids = np.arange(self.n_sites).reshape(self.shape)
        # _plus[m][x] is the site id of x + e_m (periodic), _minus[m] of x - e_m.
        self._plus = [np.roll(ids, -1, axis=m).ravel() for m in range(self.dim)]
        self._minus = [np.roll(ids, +1, axis=m).ravel() for m in range(self.dim)]
        self._cache = {}

    # ------------------------------------------------------------------
    # site bookkeeping
    # ------------------------------------------------------------------
    @property
    def neighbor_table(self):
        """Array of shape (V, s, 2): forward / backward neighbour ids."""
        tab = np.empty((self.n_sites, self.dim, 2), dtype=int)
        for m in range(self.dim):
            tab[:, m, 0] = self._plus[m]
            tab[:, m, 1] = self._minus[m]
        return tab

    # ------------------------------------------------------------------
    # field validation helpers
    # ------------------------------------------------------------------
    def check_scalar(self, u, trailing=False):
        u = np.asarray(u, dtype=float)
        if (u.shape[:1] if trailing else u.shape) != (self.n_sites,):
            raise ValueError(f"scalar field must have shape {(self.n_sites,)}, got {u.shape}")
        return u

    def check_vector(self, v, trailing=False):
        v = np.asarray(v, dtype=float)
        if (v.shape[:2] if trailing else v.shape) != (self.dim, self.n_sites):
            raise ValueError(
                f"vector field must have shape {(self.dim, self.n_sites)}, got {v.shape}")
        return v

    def check_doublet(self, f, stacked=False):
        """A doublet field (2, V); with ``stacked``, any leading axes are allowed."""
        f = np.asarray(f, dtype=float)
        if (f.shape[-2:] if stacked else f.shape) != (2, self.n_sites):
            raise ValueError(f"doublet field must have shape {(2, self.n_sites)}, got {f.shape}")
        return f

    # ------------------------------------------------------------------
    # calculus
    # ------------------------------------------------------------------
    def gradient(self, u):
        """Central-difference gradient of a scalar field, shape (s, V); trailing
        axes of u (V, ...) ride along, so gradient(X) is the dense gradient times X."""
        u = self.check_scalar(u, trailing=True)
        inv = 0.5 / self.spacing
        return np.stack([(u[p] - u[m]) * inv for p, m in zip(self._plus, self._minus)])

    def divergence(self, v):
        """Central-difference divergence of a vector field, shape (V,).

        Exact negative adjoint of :meth:`gradient` under the site inner product.
        Trailing axes of v (s, V, ...) ride along; as div^T = -grad, X @ div is
        -gradient(X^T)^T and X @ grad is -divergence(X^T)^T.
        """
        v = self.check_vector(v, trailing=True)
        inv = 0.5 / self.spacing
        out = np.zeros(v.shape[1:])
        for m, (p, mn) in enumerate(zip(self._plus, self._minus)):
            out += (v[m][p] - v[m][mn]) * inv
        return out

    # ------------------------------------------------------------------
    # dense operators, each built once per lattice
    # ------------------------------------------------------------------
    @per_lattice
    def fp_matrix(self):
        """Composition divergence o gradient (V x V), symmetric NSD.

        This is the operator paired with the Coulomb gauge condition in the
        gauge-fixing machinery.  Its kernel is the constants for odd N and
        additionally the staggered modes for even N.
        """
        return self.divergence(self.gradient(np.eye(self.n_sites)))

    def zero_mode_basis(self):
        """Orthonormal basis of ker(fp_matrix): constants, plus staggered
        modes on even-N lattices.  Shape (V, k)."""
        N = self.spec.sites_per_dim
        V = self.n_sites
        coords = np.stack(np.unravel_index(np.arange(V), self.shape))
        modes = [np.full(V, 1.0 / np.sqrt(V))]
        if N % 2 == 0:
            for bits in range(1, 2 ** self.dim):
                signs = np.ones(V)
                for m in range(self.dim):
                    if (bits >> m) & 1:
                        signs *= (-1.0) ** coords[m]
                modes.append(signs / np.sqrt(V))
        return np.stack(modes, axis=1)

    def random_scalar(self, rng):
        return rng.standard_normal(self.n_sites)

    def random_vector(self, rng):
        return rng.standard_normal((self.dim, self.n_sites))

    def random_doublet(self, rng):
        return rng.standard_normal((2, self.n_sites))


def matvec(M, x):
    """M @ x for every vector along the last axis of x, shape (..., n).

    Each vector gets its own matrix-vector product (M may be one matrix or a
    stack matching x's leading axes), so a row's result is bitwise the same
    whether it is computed alone or stacked with others; a single matrix
    product over the stack would let BLAS pick a kernel by stack size.
    """
    return (M @ x[..., None])[..., 0]


def flat(field):
    """Flatten a (components, V) field to component-major 1-d layout."""
    return np.asarray(field, dtype=float).reshape(-1)
