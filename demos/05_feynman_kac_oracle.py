"""Feynman-Kac tour: Monte Carlo vs grid backward-equation oracle.

The weighted expectation E[phi0(x_T) exp((1/mu^2 kappa) int V du)] of the
free diffusion solves the backward equation with generator
(1/2) mu^2 kappa Laplacian + V / (mu^2 kappa).  On one or two degrees of
freedom that equation is solved brute-force on a grid, and the quadratic
potential even has a closed form, so the estimator can be cross-checked
three ways.  A step-size sweep with common random numbers shows the
first-order weak bias of the Euler scheme once a drift is present.
"""

import math

import numpy as np

from gaugereduce import (SDEConfig, discretization_budget, compare,
                         feynman_kac, weak_convergence_estimates)

mu = kappa = 1.0
omega, T = 1.0, 0.5
phi0 = lambda x: np.ones(x.shape[0])
v = lambda x: -0.5 * omega ** 2 * np.sum(x ** 2, axis=1)

print("=== quadratic-potential toy, one degree of freedom ===")
x0 = np.array([0.3])
cfg = SDEConfig(mu, kappa, 1e-3, 500, 50_000, 7)
est = feynman_kac(phi0, v, cfg, x0)
pde_val, budget = discretization_budget(v, phi0, x0, T, mu, kappa, 1, 401, 5.0)
# Mehler kernel: cosh(omega T)^(-d/2) exp(-(omega / 2v) tanh(omega T) |x0|^2), v = mu^2 kappa
closed = (math.cosh(omega * T) ** (-x0.size / 2.0)
          * math.exp(-0.5 * omega / (mu ** 2 * kappa) * math.tanh(omega * T) * float(x0 @ x0)))
print(f"Monte Carlo : {est.mean:.6f} +- {est.std_error:.6f}  ({est.n_paths} paths)")
print(f"grid PDE    : {pde_val:.6f}  (discretization budget {budget:.1e})")
print(f"closed form : {closed:.6f}")
verdict = compare(est, pde_val, budget)
print(f"verdict     : {'PASS' if verdict.passed else 'FAIL'} "
      f"(|MC - PDE| = {verdict.difference:.2e})")

print("\n=== trivial sanity anchors ===")
cfg0 = SDEConfig(mu, kappa, 1e-2, 25, 2000, 8)
one = feynman_kac(phi0, None, cfg0, np.zeros(2))
print(f"V = 0, phi0 = 1     ->  {one.mean} +- {one.std_error} (exactly 1 +- 0)")
cst = feynman_kac(phi0, lambda x: np.full(x.shape[0], -0.8), cfg0, np.zeros(2))
print(f"V = -0.8 constant   ->  {cst.mean:.12f} vs exp(-0.8 T) = {math.exp(-0.8 * cfg0.horizon):.12f}")

print("\n=== weak order of the drifted Euler scheme ===")
gamma, y0 = 3.0, 2.0
drift = lambda x: -gamma * x
quad = lambda x: np.sum(x ** 2, axis=1)
ests = weak_convergence_estimates(quad, drift, np.array([y0]), mu, kappa,
                                  42, 50_000, [4e-3, 2e-3, 1e-3], T)
exact = y0 ** 2 * math.exp(-2 * gamma * T) + (1 - math.exp(-2 * gamma * T)) / (2 * gamma)
print(f"{'dt':>8} {'estimate':>12} {'est - exact':>12}")
for dt in sorted(ests, reverse=True):
    print(f"{dt:8.0e} {ests[dt].mean:12.6f} {ests[dt].mean - exact:+12.2e}")
vals = {dt: e.mean for dt, e in ests.items()}
d1 = vals[4e-3] - vals[2e-3]
d2 = vals[2e-3] - vals[1e-3]
print(f"successive differences halve with dt: log2 slope = {math.log2(abs(d1) / abs(d2)):.3f}")
