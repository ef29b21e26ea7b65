"""Reduced dynamics tour: drifts, constraint preservation, Girsanov check.

The reduced process moves on the Coulomb surface.  In this abelian model the
potential sector has no geometric drift at all: the Christoffel
contraction, the orbit-space curvature j1 and the orbit curvature j2 all
vanish there identically.  So A* diffuses transversally, while f~ feels the
drift 1/2 g0^2 green(x, x) f~: the Ito term of the Coulomb rotation
f~ = R(-g0 green div A) f, in which the orbit Green function Dinv of its
parts (the orbit curvature j2 = sigma'/4 and the Christoffel part)
cancels.  The Girsanov check shows the central mechanism of the
reduction: simulating with the drift is equivalent to reweighting the
driftless process by the exponential density.
"""

import math

import numpy as np

from gaugereduce import (AdaptedCoords, Lattice, OrbitGeometry, SDEConfig,
                         faddeev_popov, flat, girsanov_check, reduced_batch_diagnostics,
                         reduced_drift, scalar_drift)

rng = np.random.default_rng(3)

print("=== drift anatomy at a random surface point (s=2, N=4) ===")
lat = Lattice(2, 4)
g0 = 0.8
f = lat.random_doublet(rng)
geo = OrbitGeometry(lat, f, g0)
dA, df = reduced_drift(lat, AdaptedCoords(np.zeros((2, 16)), f, np.zeros(16)), g0)
print(f"orbit curvature sigma'/4          f-sector {np.abs(geo.grad_f / 4).max():.3e}")
print(f"Christoffel part drift - sigma'/4 f-sector {np.abs(df - geo.grad_f / 4).max():.3e}")
print(f"total drift                       f-sector {np.abs(df).max():.3e}   "
      f"A-sector {np.abs(dA).max():.1f} (identically zero)")
print(f"total drift / f~ = 1/2 g0^2 green(x, x) = "
      f"{0.5 * g0 ** 2 * faddeev_popov(lat).green[0, 0]:+.6f} at every site "
      f"(spread of the ratio {np.ptp(df / f):.1e})")

print("\n=== constraint preservation at the path endpoints ===")
x0 = np.concatenate([np.zeros(32), np.ones(16), 0.5 * np.ones(16)])   # flat (A*, f~1, f~2)
cfg = SDEConfig(mu=1.0, kappa=1.0, dt=5e-3, n_steps=60, n_paths=16, seed=12)
abort, ends = reduced_batch_diagnostics(lat, x0, g0, cfg)
worst = max(np.abs(lat.divergence(x[:32].reshape(2, 16))).max() for x in ends)
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
print(f"total two-site drift: {np.abs(scalar_drift(lat2, ftest, g0)).max():.2e}")

cfg2 = SDEConfig(mu, kappa, 1e-3, 250, 40_000, 99)
x0 = flat(np.stack([np.ones(2), np.zeros(2)]))
e1, e2 = girsanov_check(cfg2, x0, drift, lambda x: np.sum(x ** 2, axis=1))
band = 3 * math.hypot(e1.std_error, e2.std_error)
print(f"drifted     E[|f|^2] = {e1.mean:.5f} +- {e1.std_error:.5f}")
print(f"reweighted  E[|f|^2] = {e2.mean:.5f} +- {e2.std_error:.5f}")
print(f"|difference| = {abs(e1.mean - e2.mean):.2e}  (3-sigma band {band:.2e})")
