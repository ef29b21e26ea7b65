"""Reduced dynamics tour: drifts, constraint preservation, Girsanov check.

The reduced process moves on the Coulomb surface.  In this abelian model the
potential sector has no geometric drift at all: the Christoffel
contraction, the orbit-space curvature j1 and the orbit curvature j2 all
vanish there identically.  So A* diffuses transversally, while f~ feels the
closed-form drift g0^2 f~ (d/2 - diag W + w/2) built from the orbit Green
function Dinv (d = diag Dinv, W = Dinv + Dinv diag(g0^2 |f~|^2) (-green),
w(x) = sum_z W(x, z) Dinv(x, z) g0^2 |f~(z)|^2), whose orbit-curvature
part j2 is sigma'/4.  The Girsanov check shows the central mechanism of
the reduction: simulating with the drift is equivalent to reweighting the
driftless process by the exponential density.
"""

import math

import numpy as np

from gaugereduce import (AdaptedCoords, Lattice, OrbitGeometry, SDEConfig,
                         flat, girsanov_check, reduced_batch_diagnostics,
                         reduced_drift)

rng = np.random.default_rng(3)

print("=== drift anatomy at a random surface point (s=2, N=4) ===")
lat = Lattice(2, 4)
g0 = 0.8
f = lat.random_doublet(rng)
geo = OrbitGeometry(lat, f, g0)
df = geo.drift()
dA, _ = reduced_drift(lat, AdaptedCoords(np.zeros((2, 16)), f, np.zeros(16)), g0)
print(f"orbit curvature sigma'/4          f-sector {np.abs(geo.grad_f / 4).max():.3e}")
print(f"Christoffel part drift - sigma'/4 f-sector {np.abs(df - geo.grad_f / 4).max():.3e}")
print(f"total drift                       f-sector {np.abs(df).max():.3e}   "
      f"A-sector {np.abs(dA).max():.1f} (identically zero)")

print("\n=== constraint preservation at the path endpoints ===")
f0 = np.stack([np.ones(16), 0.5 * np.ones(16)])
c0 = AdaptedCoords(np.zeros((2, 16)), f0, np.zeros(16))
cfg = SDEConfig(mu=1.0, kappa=1.0, dt=5e-3, n_steps=60, n_paths=16, seed=12)
abort, ends = reduced_batch_diagnostics(lat, c0, g0, cfg)
worst = max(np.abs(lat.divergence(c.A_star)).max() for c in ends)
print(f"{cfg.n_paths} paths x {cfg.n_steps} steps, worst |div A*| at the endpoints = {worst:.2e}")
print(f"abort fraction: {abort}")

print("\n=== Girsanov: drift vs exponential reweighting (two-site toy) ===")
lat2 = Lattice(1, 2)
mu = kappa = 1.0
pref = mu ** 2 * kappa

def drift(x):
    v1, v2 = x[:, :2], x[:, 2:]
    r2 = v1 ** 2 + v2 ** 2
    return pref * np.concatenate([v1 / (2 * r2), v2 / (2 * r2)], axis=1)

# the closed form above is the module's orbit-curvature drift sigma'/4; on
# N = 2 the Christoffel part cancels it, so the total drift is zero
ftest = rng.standard_normal((2, 2)) + 1.5
geo2 = OrbitGeometry(lat2, ftest, g0)
j2 = geo2.grad_f / 4
print(f"vectorized drift vs sigma'/4 of the geometry module: "
      f"{np.abs(drift(flat(ftest)[None])[0] - pref * flat(j2)).max():.2e}")
print(f"total two-site drift: {np.abs(geo2.drift()).max():.2e}")

cfg2 = SDEConfig(mu, kappa, 1e-3, 250, 40_000, 99)
x0 = flat(np.stack([np.ones(2), np.zeros(2)]))
e1, e2 = girsanov_check(cfg2, x0, drift, lambda x: np.sum(x ** 2, axis=1))
band = 3 * math.hypot(e1.std_error, e2.std_error)
print(f"drifted     E[|f|^2] = {e1.mean:.5f} +- {e1.std_error:.5f}")
print(f"reweighted  E[|f|^2] = {e2.mean:.5f} +- {e2.std_error:.5f}")
print(f"|difference| = {abs(e1.mean - e2.mean):.2e}  (3-sigma band {band:.2e})")
