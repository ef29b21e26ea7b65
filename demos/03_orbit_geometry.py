"""Orbit geometry tour: orbit metric, sigma derivatives, gauge maps, Jacobian.

The scalar field alone shapes the orbit geometry: D = -(div o grad)
+ g0^2 |f~|^2 is the metric on a gauge orbit, log det D measures orbit
volume, and its scalar derivatives feed the mean-curvature drift and the
reduction Jacobian J = -(1/8) (mu^2 kappa / h^s) (laplace_term + grad_term / 4),
which collapses to -(1/8) (mu^2 kappa / h^s) g0^2 sum_x d (4 - 5 g0^2 |f~|^2 d)
with d = diag Dinv; the drift needs no Dinv at all (demo 04).
The two-site chain is fully solvable by hand and pins the whole pipeline;
shrinking |f~| shows the small-orbit singularity that makes the Jacobian
blow up -- the quantity that would need regularization before any continuum
limit.
"""

import numpy as np

from gaugereduce import (FieldPair, Lattice, OrbitGeometry, apply_N_f, faddeev_popov,
                         killing_vector, orbit_metric)

rng = np.random.default_rng(2)

print("=== orbit metric and orbit volume ===")
lat = Lattice(2, 3)
f = lat.random_doublet(rng)
g0 = 0.8
geo = OrbitGeometry(lat, f, g0)
om = geo.metric
print(f"D is {om.D.shape[0]}x{om.D.shape[0]}, log det D = {om.logdet:+.6f} "
      f"(truncation dimension V = {om.n_sites})")

print("\n=== closed-form sigma derivatives vs finite differences ===")
d = 1e-5
a, x = 0, 4
fp_ = f.copy(); fp_[a, x] += d
fm_ = f.copy(); fm_[a, x] -= d
fd = (orbit_metric(lat, fp_, g0).logdet - orbit_metric(lat, fm_, g0).logdet) / (2 * d)
print(f"sigma_a at one slot: closed form {geo.grad_f[a, x]:+.10f}, "
      f"finite difference {fd:+.10f}")

print("\n=== mechanical connection, horizontal projection and N_f ===")
print("(matrix-free maps; the connection reads Dinv, built once, N_f reads none)")
eps = lat.random_scalar(rng)
kA, kf = killing_vector(lat, FieldPair(np.zeros((lat.dim, lat.n_sites)), f, g0), eps)
print(f"|A(K(eps)) - eps|_max = {np.abs(geo.connection(kA, kf) - eps).max():.2e}")
vA, vf = lat.random_vector(rng), lat.random_doublet(rng)
print(f"|A(horizontal(v))|_max = {np.abs(geo.connection(*geo.horizontal(vA, vf))).max():.2e}")
# N_f carries a pure-gauge potential direction grad(eps) to minus the scalar
# gauge direction, so the frame (P, N_f) kills K(eps) (eps off the kernel)
eps_r = faddeev_popov(lat).range_projector() @ eps
kA, kf = killing_vector(lat, FieldPair(np.zeros((lat.dim, lat.n_sites)), f, g0), eps_r)
print(f"|N_f grad(eps) + g0 eps Jbar f|_max = {np.abs(apply_N_f(lat, f, g0, kA) + kf).max():.2e}")

print("\n=== the hand-solvable two-site chain ===")
lat2 = Lattice(1, 2)
mu, kappa = 1.0, 1.0
c_val = 1.3
ff = np.stack([np.full(2, np.sqrt(c_val)), np.zeros(2)])
rep = OrbitGeometry(lat2, ff, g0).jacobian(mu, kappa)
print(f"uniform |f|^2 = {c_val}: J = {rep.J:.12f}, closed form mu^2 kappa/(4c) = {mu**2*kappa/(4*c_val):.12f}")
d = np.diagonal(geo.Dinv)
J_d = -0.125 * mu ** 2 * kappa * g0 ** 2 * np.sum(d * (4 - 5 * g0 ** 2 * (f ** 2).sum(axis=0) * d))
print(f"(2,3) state: J = {geo.jacobian(mu, kappa).J:+.12f}, "
      f"-(mu^2 kappa g0^2/8) sum d (4 - 5 |u|^2 d) = {J_d:+.12f}")

print("\n=== the small-orbit singularity ===")
print("scaling f~ -> lam f~: the orbit shrinks and the curvature drift and")
print("Jacobian diverge like 1/lam^2 -- the truncated version of the")
print("singular behaviour that dominates the reduction:")
lat3 = Lattice(2, 3)
fbase = lat3.random_doublet(rng)
for lam in (1.0, 0.3, 0.1, 0.03):
    r = OrbitGeometry(lat3, lam * fbase, g0).jacobian(mu, kappa)
    print(f"  lam = {lam:5.2f}:  J = {r.J:12.4f}   lam^2 J = {lam**2*r.J:9.4f}")
print("(lam^2 J approaches a constant: the divergence is exactly quadratic)")
