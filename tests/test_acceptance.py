"""Acceptance suite: twelve criteria, each printing one pass/fail line.

Run under pytest (``pytest tests/test_acceptance.py -v``) or directly
(``python tests/test_acceptance.py``), which executes every criterion,
prints one line per criterion and exits nonzero on any failure.

Every tolerance is pinned here; nothing is deferred to calibration.  The
expensive Monte Carlo criteria use fixed seeds, so reruns are bitwise
reproducible.
"""

import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from gaugereduce.gauge import (AdaptedCoords, FieldPair, faddeev_popov,
                               from_adapted, gauge_transform, killing_vector,
                               potential, projector_N, to_adapted,
                               transverse_projector)
from gaugereduce.kolmogorov import compare, discretization_budget
from gaugereduce.lattice import Lattice, flat
from gaugereduce.orbit import (OrbitGeometry, horizontal_metric,
                               horizontal_project, orbit_metric,
                               reduction_jacobian)
from gaugereduce.runner import cmd_simulate, parse_config
from gaugereduce.sde import (SDEConfig, feynman_kac, girsanov_check,
                             weak_convergence_estimates)

_RESULTS = []


def _report(number, name, passed, detail, elapsed, budget_s):
    line = (f"criterion {number:02d} {name}: {'PASS' if passed else 'FAIL'} "
            f"({detail}; {elapsed:.1f}s of {budget_s:.0f}s budget)")
    print(line)
    _RESULTS.append((number, name, passed, line))
    assert passed, line
    assert elapsed < budget_s, f"criterion {number} exceeded runtime budget: {line}"


def test_criterion_01_gauge_invariance():
    t0 = time.time()
    lat = Lattice(2, 4)
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        p = FieldPair(lat.random_vector(rng), lat.random_doublet(rng), 0.8)
        eps = lat.random_scalar(rng)
        v1 = potential(lat, p)
        v2 = potential(lat, gauge_transform(lat, p, eps))
        worst = max(worst, abs(v2 - v1) / (1.0 + abs(v1)))
    _report(1, "gauge invariance", worst <= 1e-9,
            f"worst rel residual {worst:.2e} <= 1e-9, 100 trials s=2 N=4",
            time.time() - t0, 5.0)


def test_criterion_02_projector_suite():
    t0 = time.time()
    lat = Lattice(2, 4)
    rng = np.random.default_rng(102)
    P = transverse_projector(lat)
    G = lat.gradient_matrix()
    r_idem = float(np.abs(P @ P - P).max())
    r_div = float(np.abs(lat.divergence_matrix() @ P).max())
    r_grad = float(np.abs(P @ G).max())
    N_A, _ = projector_N(lat, lat.random_doublet(rng), 0.8)
    r_eq = float(np.abs(N_A - P).max())
    ok = r_idem <= 1e-10 and r_div <= 1e-10 and r_grad <= 1e-10 and r_eq <= 1e-12
    _report(2, "projector suite", ok,
            f"idem {r_idem:.1e}, div∘P {r_div:.1e}, P∘grad {r_grad:.1e}, "
            f"N=P {r_eq:.1e}", time.time() - t0, 5.0)


def test_criterion_03_fp_inverse():
    # the I - J/V pseudo-identity requires the derivative kernel to be the
    # constants alone, so this runs on an odd-N lattice (s=2, N=5)
    t0 = time.time()
    lat = Lattice(2, 5)
    fp = faddeev_popov(lat)
    V = lat.n_sites
    target = np.eye(V) - np.ones((V, V)) / V
    r = float(np.abs(fp.matrix @ fp.green - target).max())
    _report(3, "Faddeev-Popov inverse", r <= 1e-10,
            f"|Phi Phi^-1 - (I - J/V)|_max {r:.1e} <= 1e-10 at s=2 N=5",
            time.time() - t0, 1.0)


def test_criterion_04_adapted_round_trip():
    t0 = time.time()
    lat = Lattice(2, 4)
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(100):
        p = FieldPair(lat.random_vector(rng), lat.random_doublet(rng), 0.8)
        q = from_adapted(lat, to_adapted(lat, p), p.g0)
        worst = max(worst, float(np.abs(q.A - p.A).max()),
                    float(np.abs(q.f - p.f).max()))
    _report(4, "adapted-coordinate round trip", worst <= 1e-10,
            f"worst residual {worst:.2e} <= 1e-10, 100 random p",
            time.time() - t0, 5.0)


def test_criterion_05_sigma_derivatives():
    t0 = time.time()
    rng = np.random.default_rng(105)
    g0, d = 0.8, 1e-5
    worst_a = worst_ab = 0.0
    count = 0
    plan = [((1, 2), 4), ((1, 3), 4), ((1, 4), 4), ((2, 2), 4), ((2, 3), 2), ((2, 4), 2)]
    for (s, n), n_trials in plan:
        lat = Lattice(s, n)
        V = lat.n_sites
        for _ in range(n_trials):
            f = lat.random_doublet(rng)
            count += 1
            geo = OrbitGeometry(lat, f, g0)
            fd = np.zeros_like(f)
            for a in range(2):
                for x in range(V):
                    fp_ = f.copy(); fp_[a, x] += d
                    fm_ = f.copy(); fm_[a, x] -= d
                    fd[a, x] = (orbit_metric(lat, fp_, g0).logdet
                                - orbit_metric(lat, fm_, g0).logdet) / (2 * d)
            worst_a = max(worst_a, float(np.linalg.norm(fd - geo.grad_f)
                                         / np.linalg.norm(fd)))
            hfd = np.zeros((2, V, 2, V))
            for b in range(2):
                for y in range(V):
                    fp_ = f.copy(); fp_[b, y] += d
                    fm_ = f.copy(); fm_[b, y] -= d
                    hfd[:, :, b, y] = (OrbitGeometry(lat, fp_, g0).grad_f
                                       - OrbitGeometry(lat, fm_, g0).grad_f) / (2 * d)
            hfd = hfd.reshape(2 * V, 2 * V)
            worst_ab = max(worst_ab, float(np.linalg.norm(hfd - geo.hess_ff)
                                           / np.linalg.norm(hfd)))
    ok = worst_a <= 1e-6 and worst_ab <= 1e-4 and count >= 20
    _report(5, "sigma derivatives vs finite differences", ok,
            f"{count} random fields, grad rel {worst_a:.2e} <= 1e-6, "
            f"hess rel {worst_ab:.2e} <= 1e-4", time.time() - t0, 30.0)


def test_criterion_06_pseudoinverse_identity():
    t0 = time.time()
    rng = np.random.default_rng(106)
    worst = 0.0
    for s, n in [(2, 3), (2, 4)]:
        lat = Lattice(s, n)
        for _ in range(5):
            p = FieldPair(lat.random_vector(rng), lat.random_doublet(rng), 0.8)
            c = to_adapted(lat, p)
            worst = max(worst, horizontal_metric(lat, c, 0.8).pseudoinverse_residual())
    _report(6, "pseudoinverse identity", worst <= 1e-9,
            f"worst residual {worst:.2e} <= 1e-9, 10 random adapted points",
            time.time() - t0, 30.0)


def test_criterion_07_connection():
    t0 = time.time()
    lat = Lattice(2, 4)
    rng = np.random.default_rng(107)
    f = lat.random_doublet(rng)
    conn = OrbitGeometry(lat, f, 0.8).connection()
    p = FieldPair(np.zeros((lat.dim, lat.n_sites)), f, 0.8)
    worst_rep = worst_hor = 0.0
    for _ in range(10):
        eps = lat.random_scalar(rng)
        kA, kf = killing_vector(lat, p, eps)
        worst_rep = max(worst_rep, float(np.abs(conn.contract(kA, kf) - eps).max()))
        vA, vf = lat.random_vector(rng), lat.random_doublet(rng)
        hA, hf = horizontal_project(lat, conn, f, 0.8, vA, vf)
        worst_hor = max(worst_hor, float(np.abs(conn.contract(hA, hf)).max()))
    ok = worst_rep <= 1e-9 and worst_hor <= 1e-9
    _report(7, "connection reproduction and horizontality", ok,
            f"reproduction {worst_rep:.2e}, horizontality {worst_hor:.2e}, both <= 1e-9",
            time.time() - t0, 10.0)


def test_criterion_08_jacobian_oracle():
    # hand-derived two-site closed form J = mu^2 kappa / (4 c), frozen
    # before the build (gradient/divergence vanish identically at N=2,
    # D = g0^2 diag(|f|^2), per-site bracket -1/c)
    t0 = time.time()
    lat = Lattice(1, 2)
    mu, kappa, g0 = 1.1, 0.8, 0.63
    c_val = 0.6 ** 2 + 0.9 ** 2
    f = np.stack([np.full(2, 0.6), np.full(2, -0.9)])
    cc = AdaptedCoords(np.zeros((1, 2)), f, np.zeros(2))
    rep = reduction_jacobian(lat, cc, g0, mu, kappa)
    expected = mu ** 2 * kappa / (4 * c_val)
    rel = abs(rep.J - expected) / abs(expected)
    _report(8, "two-site Jacobian oracle", rel <= 1e-10,
            f"J {rep.J:.12g} vs hand value {expected:.12g}, rel {rel:.2e} <= 1e-10",
            time.time() - t0, 1.0)


def test_criterion_09_feynman_kac_vs_pde():
    t0 = time.time()
    mu = kappa = omega = 1.0
    T = 0.5
    phi0 = lambda x: np.ones(x.shape[0])
    v = lambda x: -0.5 * omega ** 2 * np.sum(x ** 2, axis=1)
    details = []
    ok = True
    for dof, x0v, n_grid in [(1, 0.3, 401), (2, 0.2, 161)]:
        x0 = np.full(dof, x0v)
        cfg = SDEConfig(mu, kappa, 1e-3, 500, 100_000, 10_900 + dof)
        est = feynman_kac(phi0, v, cfg, x0)
        pde_val, budget = discretization_budget(v, phi0, x0, T, mu, kappa,
                                                dof, n_grid, 5.0)
        verdict = compare(est, pde_val, budget)
        ok = ok and verdict.passed and est.std_error <= 0.01 * abs(est.mean)
        details.append(f"{dof}dof |MC-PDE| {verdict.difference:.2e} <= "
                       f"3se+budget {3 * est.std_error + budget:.2e}, "
                       f"se/|mean| {est.std_error / abs(est.mean):.2e}")
    _report(9, "Feynman-Kac vs PDE oracle", ok, "; ".join(details),
            time.time() - t0, 120.0)


def test_criterion_10_girsanov_consistency():
    t0 = time.time()
    lat = Lattice(1, 2)
    mu = kappa = 1.0
    g0 = 0.8
    pref = mu ** 2 * kappa

    def drift(x):
        v1, v2 = x[:, :2], x[:, 2:]
        r2 = v1 ** 2 + v2 ** 2
        return pref * np.concatenate([v1 / (2 * r2), v2 / (2 * r2)], axis=1)

    # the vectorized drift is the orbit mean-curvature term of the module,
    # j2_f = sigma'/4
    rng = np.random.default_rng(110)
    for _ in range(5):
        f = rng.standard_normal((2, 2)) + 1.5
        j2_f = OrbitGeometry(lat, f, g0).grad_f / 4
        assert np.abs(drift(flat(f)[None, :])[0] - pref * flat(j2_f)).max() <= 1e-12

    cfg = SDEConfig(mu, kappa, 1e-3, 250, 100_000, 11_000)
    x0 = flat(np.stack([np.ones(2), np.zeros(2)]))
    phi0 = lambda x: np.sum(x ** 2, axis=1)
    e1, e2 = girsanov_check(cfg, x0, drift, phi0)
    band = 3.0 * math.hypot(e1.std_error, e2.std_error)
    diff = abs(e1.mean - e2.mean)
    _report(10, "Girsanov consistency (drift = orbit curvature)",
            diff <= band and not e2.unreliable,
            f"drifted {e1.mean:.5f}+-{e1.std_error:.5f} vs reweighted "
            f"{e2.mean:.5f}+-{e2.std_error:.5f}, |diff| {diff:.2e} <= {band:.2e}",
            time.time() - t0, 120.0)


def test_criterion_11_weak_convergence():
    # pure diffusion with V = 0 has no step-size bias, so the order-one
    # check drives the integrator's drift hook with a linear (OU) drift and
    # common random numbers; successive differences isolate the O(dt) bias
    t0 = time.time()
    gamma, x0 = 3.0, 2.0
    drift = lambda x: -gamma * x
    quad = lambda x: np.sum(x ** 2, axis=1)
    ests = weak_convergence_estimates(quad, drift, np.array([x0]), 1.0, 1.0,
                                      11_100, 100_000, [4e-3, 2e-3, 1e-3], 0.5)
    v = {dt: e.mean for dt, e in ests.items()}
    d1 = v[4e-3] - v[2e-3]
    d2 = v[2e-3] - v[1e-3]
    slope = math.log2(abs(d1) / abs(d2))
    exact = x0 ** 2 * math.exp(-2 * gamma * 0.5) + (1 - math.exp(-2 * gamma * 0.5)) / (2 * gamma)
    _report(11, "weak convergence order", abs(slope - 1.0) <= 0.3,
            f"successive-difference log2 slope {slope:.3f} in 1 +- 0.3 "
            f"(finest estimate {v[1e-3]:.5f}, exact {exact:.5f})",
            time.time() - t0, 180.0)


def test_criterion_12_determinism(tmp_path):
    t0 = time.time()
    base = str(tmp_path)
    text = "\n".join([
        "lattice.dim = 1", "lattice.sites_per_dim = 2",
        "sde.n_paths = 10000", "sde.n_steps = 100", "sde.seed = 2024",
        "simulate.phi0 = sum_squares", "simulate.potential = quadratic",
        f"output_dir = {base}",
    ])
    cfg = parse_config(text)
    outputs = []
    old = os.environ.get("GAUGE_REDUCE_THREADS")
    try:
        for threads in ("1", "4", "1", "4"):
            os.environ["GAUGE_REDUCE_THREADS"] = threads
            assert cmd_simulate(cfg) == 0
            outputs.append((threads, Path(base, "simulate.csv").read_bytes()))
    finally:
        if old is None:
            os.environ.pop("GAUGE_REDUCE_THREADS", None)
        else:
            os.environ["GAUGE_REDUCE_THREADS"] = old
    identical = all(blob == outputs[0][1] for _, blob in outputs)
    _report(12, "byte-identical CSV across reruns and thread counts", identical,
            f"4 runs (threads 1,4,1,4) all {'identical' if identical else 'DIFFERENT'}, "
            f"{len(outputs[0][1])} bytes", time.time() - t0, 120.0)


if __name__ == "__main__":
    import tempfile

    def test_criterion_12_in_temp_dir():
        with tempfile.TemporaryDirectory() as tmp:
            test_criterion_12_determinism(tmp)

    failures = 0
    for fn in [test_criterion_01_gauge_invariance, test_criterion_02_projector_suite,
               test_criterion_03_fp_inverse, test_criterion_04_adapted_round_trip,
               test_criterion_05_sigma_derivatives, test_criterion_06_pseudoinverse_identity,
               test_criterion_07_connection, test_criterion_08_jacobian_oracle,
               test_criterion_09_feynman_kac_vs_pde, test_criterion_10_girsanov_consistency,
               test_criterion_11_weak_convergence, test_criterion_12_in_temp_dir]:
        try:
            fn()
        except AssertionError as exc:
            failures += 1
            if not _RESULTS or _RESULTS[-1][3] not in str(exc):
                print(f"FAIL: {exc}")
    print(f"\n{12 - failures}/12 acceptance criteria passed")
    sys.exit(1 if failures else 0)
