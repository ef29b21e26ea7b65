"""Gauge fixing tour: the group action, the invariant potential, projectors.

A configuration (A, f) is moved along its orbit by A -> A + grad(eps),
f -> R(g0 eps) f.  The potential functional is exactly invariant (its scalar
kinetic term transports neighbours through midpoint link rotations), and the
Coulomb split (A*, f~, a) extracts one representative per orbit: div A* = 0,
a mean-zero, round trip exact.  The transverse projector and the gauge-fixing
Green function do all the work.
"""

import numpy as np

from gaugereduce import (FieldPair, Lattice, apply_N_f, faddeev_popov, flat,
                         from_adapted, gauge_transform, killing_vector, potential,
                         to_adapted, transverse_projector)

rng = np.random.default_rng(1)
lat = Lattice(2, 4)
g0 = 0.8
p = FieldPair(lat.random_vector(rng), lat.random_doublet(rng), g0)

print("=== exact gauge invariance of the potential ===")
v0 = lambda A, f: 0.25 * (f[0] ** 2 + f[1] ** 2) ** 2   # sitewise invariant
base = potential(lat, p, v0)
for k in range(3):
    eps = rng.standard_normal(lat.n_sites)
    moved = potential(lat, gauge_transform(lat, p, eps), v0)
    print(f"random eps #{k}: V = {moved:.12f}  (rel change {abs(moved - base) / (1 + abs(base)):.2e})")

print("\n=== adapted coordinates ===")
c = to_adapted(lat, p)
print(f"Coulomb constraint |div A*|_max = {np.abs(lat.divergence(c.A_star)).max():.2e}")
print(f"gauge parameter mean            = {c.a.mean():+.2e}")
q = from_adapted(lat, c, g0)
print(f"round-trip residual             = {max(np.abs(q.A - p.A).max(), np.abs(q.f - p.f).max()):.2e}")

print("\n=== transverse projector ===")
# grad and div are stencils; trailing axes ride along, so gradient(I) holds
# grad's columns and divergence of P's columns is div P
P = transverse_projector(lat)
grad_cols = lat.gradient(np.eye(lat.n_sites)).reshape(-1, lat.n_sites)
div_P = lat.divergence(P.reshape(lat.dim, lat.n_sites, -1))
print(f"|P^2 - P|_max      = {np.abs(P @ P - P).max():.2e}")
print(f"|P grad|_max       = {np.abs(P @ grad_cols).max():.2e}   (kills pure-gauge directions)")
print(f"|div P|_max        = {np.abs(div_P).max():.2e}   (lands on the surface)")
# the frame projection (P, N_f) sends a gauge direction K(eps) to zero when
# eps lies in range(Phi), the part of the gauge the Coulomb condition fixes;
# N_f is applied by apply_N_f, the map the reduced integrator runs
eps = faddeev_popov(lat).range_projector() @ rng.standard_normal(lat.n_sites)
kA, kf = killing_vector(lat, p, eps)
frame = max(np.abs(P @ flat(kA)).max(), np.abs(apply_N_f(lat, p.f, g0, kA) + kf).max())
print(f"|(P, N_f) K(eps)|  = {frame:.2e}   (the frame kills gauge directions)")

print("\n=== gauge-fixing operator and its Green function ===")
fp = faddeev_popov(lat)
R = fp.range_projector()
phi_green = lat.divergence(lat.gradient(fp.green))   # Phi = div o grad, as stencils
print(f"|Phi green - range projector|_max = {np.abs(phi_green - R).max():.2e}")
print(f"kernel dimension at N=4: {fp.kernel.shape[1]} (constants + staggered modes)")
lat5 = Lattice(2, 5)
fp5 = faddeev_popov(lat5)
V5 = lat5.n_sites
tgt = np.eye(V5) - np.ones((V5, V5)) / V5
phi_green5 = lat5.divergence(lat5.gradient(fp5.green))
print(f"odd N=5: |Phi green - (I - J/V)|_max = {np.abs(phi_green5 - tgt).max():.2e}")

print("\nresidual freedom: constant eps never moves A but still rotates f;")
print("on even N the staggered modes behave the same way.  Both are left")
print("unfixed, and the split quotients them out consistently.")
