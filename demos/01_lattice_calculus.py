"""Lattice calculus tour: fields, derivatives, adjointness, spectra.

Walks through the finite truncation that everything else builds on: a
periodic cubic lattice with central-difference gradient/divergence (exact
adjoints under the site inner product h^s sum(u v)) and their composition
div o grad, the second-order operator paired with the gauge fixing.  It is
not the 2s-point stencil: on even-N lattices it picks up staggered zero
modes, the doubling artifact the gauge machinery has to respect.
"""

import numpy as np

from gaugereduce import Lattice

rng = np.random.default_rng(0)

print("=== a 4x4 periodic lattice, spacing 1 ===")
lat = Lattice(2, 4)
print(f"sites: {lat.n_sites}, neighbours per site: {2 * lat.dim}")

u = lat.random_scalar(rng)
v = lat.random_vector(rng)

print("\n--- gradient / divergence are exact adjoints ---")
hs = lat.spacing ** lat.dim
lhs = hs * np.sum(v * lat.gradient(u))
rhs = -hs * np.sum(lat.divergence(v) * u)
print(f"<v, grad u> = {lhs:+.12f}")
print(f"-<div v, u> = {rhs:+.12f}   (difference {abs(lhs - rhs):.2e})")

print("\n--- hand-checkable central difference, N=4 chain ---")
chain = Lattice(1, 4)
uu = np.array([0.0, 1.0, 0.0, -1.0])
print(f"u           = {uu}")
print(f"gradient(u) = {chain.gradient(uu)[0]}   (expected [1, 0, -1, 0])")

print("\n--- the composition div o grad ---")
comp = np.linalg.eigvalsh(chain.fp_matrix())
print(f"div o grad spectrum, N=4 chain : {np.round(comp, 12)}")
print("(the 2s-point stencil would give [-4, -2, -2, 0]: one zero mode)")
stag = chain.zero_mode_basis()[:, 1]
print(f"the extra zero mode on even N  : {np.round(stag / stag[0], 12)}, the staggered")
print("pattern, invisible to central differences:"
      f" |div grad (stag)|_max = {np.abs(chain.divergence(chain.gradient(stag))).max():.1e}")

print("\n--- kernel bookkeeping ---")
for s, n in [(1, 4), (1, 5), (2, 4), (2, 5)]:
    lat2 = Lattice(s, n)
    k = lat2.zero_mode_basis().shape[1]
    print(f"s={s}, N={n}: dim ker(div o grad) = {k}"
          f"  ({'constants only' if k == 1 else 'constants + staggered modes'})")

print("\n--- translation invariance ---")
shift = lambda f: np.roll(f.reshape(lat.shape), 1, axis=0).ravel()
a = lat.divergence(lat.gradient(shift(u)))
b = shift(lat.divergence(lat.gradient(u)))
print(f"shift then div o grad vs div o grad then shift: {np.abs(a - b).max():.2e}")
