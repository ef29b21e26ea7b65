"""Stochastic engine: increments, Euler steps, estimators, Girsanov, determinism."""

import math
import sys
import tracemalloc
import types

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gaugereduce import orbit, sde
from gaugereduce.gauge import AdaptedCoords, FieldPair, projector_N, transverse_projector
from gaugereduce.lattice import Lattice, flat
from gaugereduce.orbit import OrbitGeometry, SingularOrbitMetric, reduced_drift
from gaugereduce.sde import (SDEConfig, _chunk_normals, feynman_kac, girsanov_check,
                             path_rng, reduced_batch_diagnostics,
                             weak_convergence_estimates, worker_count)


def test_sde_config_validation():
    with pytest.raises(ValueError):
        SDEConfig(mu=0.0, kappa=1.0, dt=1e-3, n_steps=10, n_paths=10, seed=1)
    with pytest.raises(ValueError):
        SDEConfig(mu=1.0, kappa=1.0, dt=1e-3, n_steps=0, n_paths=10, seed=1)
    with pytest.raises(ValueError):
        SDEConfig(mu=1.0, kappa=1.0, dt=1e-3, n_steps=10, n_paths=10, seed=2 ** 64)
    cfg = SDEConfig(1.0, 1.0, 0.01, 50, 10, 1)
    assert cfg.horizon == pytest.approx(0.5)


def test_wiener_determinism():
    # the integrators' increments are sqrt(dt) times a path's chunk normals
    a = _chunk_normals(42, 0, 2, 1000, 1)
    b = _chunk_normals(42, 0, 2, 1000, 1)
    assert np.array_equal(a, b)
    assert not np.array_equal(a[0], a[1])
    assert np.array_equal(a[0], path_rng(42, 0).standard_normal((1000, 1)))


def test_wiener_moments():
    # CLT band: |mean| <= 4 sqrt(dt / n)
    dt, n = 2e-3, 10 ** 6
    w = _chunk_normals(7, 0, 1, n, 1)[0, :, 0] * math.sqrt(dt)
    assert abs(w.mean()) <= 4 * math.sqrt(dt / n)
    assert w.var() == pytest.approx(dt, rel=0.02)


def test_wiener_independence():
    # sample covariance of two components of one path, and of the same
    # component of two paths, within 4 sigma of zero
    dt, n = 1e-3, 10 ** 6
    w = _chunk_normals(8, 0, 2, n // 2, 2) * math.sqrt(dt)
    for a, b in ((w[:, :, 0], w[:, :, 1]), (w[0], w[1])):
        cov = float(np.mean(a * b))
        assert abs(cov) <= 4 * dt / math.sqrt(n)


def test_path_rng_keys_every_64_bit_seed():
    # seeds at and above 2^63 must neither collide nor wrap to another seed
    draw = lambda seed: path_rng(seed, 0).standard_normal(4)
    assert not np.array_equal(draw(2 ** 63), draw(2 ** 63 + 1))
    assert not np.array_equal(draw(2 ** 64 - 1), draw(0))


@pytest.mark.parametrize("seed,n_steps,dim", [(7, 30, 1), (2 ** 63 + 1, 5, 3)])
def test_chunk_normals_are_the_per_path_streams(seed, n_steps, dim):
    # row i of a chunk is path i's own (seed, i) stream, bit for bit, and
    # does not depend on where the chunk ends (that is, on n_paths)
    short = _chunk_normals(seed, 4096, 4100, n_steps, dim)
    for i in range(4096, 4100):
        ref = path_rng(seed, i).standard_normal((n_steps, dim))
        assert short[i - 4096].tobytes() == ref.tobytes()
    long = _chunk_normals(seed, 4096, 8192, n_steps, dim)
    assert long[:4].tobytes() == short.tobytes()


def test_worker_count_refuses_non_positive_or_non_integer(monkeypatch):
    monkeypatch.delenv("GAUGE_REDUCE_THREADS", raising=False)
    assert worker_count() == 1
    monkeypatch.setenv("GAUGE_REDUCE_THREADS", "3")
    assert worker_count() == 3
    for bad in ("abc", "", "1.5", "0", "-2"):
        monkeypatch.setenv("GAUGE_REDUCE_THREADS", bad)
        with pytest.raises(ValueError, match="GAUGE_REDUCE_THREADS"):
            worker_count()


def _original_start(lat, seed):
    rng = np.random.default_rng(seed)
    return np.concatenate([flat(lat.random_vector(rng)), flat(lat.random_doublet(rng))])


def test_euler_original_zero_mu_is_identity():
    lat = Lattice(1, 4)
    x = _original_start(lat, 0)[None, :]
    cfg0 = types.SimpleNamespace(mu=0.0, kappa=1.0, dt=1e-3)
    step = sde._flat_step(cfg0, None, lat.spacing ** -0.5)
    y, keep = step(x, _chunk_normals(1, 0, 1, 1, x.size)[:, 0] * math.sqrt(cfg0.dt))
    assert keep is None
    assert np.array_equal(y, x)


def test_euler_original_matches_manual_arithmetic():
    # one step of the original process as simulate runs it, on (A, f1, f2)
    lat = Lattice(1, 4, spacing=0.5)
    x0 = _original_start(lat, 1)
    cfg = SDEConfig(1.3, 0.7, 1e-2, 1, 1, 3)
    z = _chunk_normals(cfg.seed, 0, 1, 1, x0.size)
    x, rows, _ = sde._integrate_chunk(cfg, x0, z, sde._flat_step(cfg, None, lat.spacing ** -0.5))
    dw = path_rng(3, 0).standard_normal(3 * lat.n_sites) * math.sqrt(cfg.dt)
    scale = cfg.mu * math.sqrt(cfg.kappa) / lat.spacing ** 0.5
    assert rows.tolist() == [0]
    assert_allclose(x[0, :4], x0[:4] + scale * dw[:4], atol=0)
    assert_allclose(x[0, 4:], x0[4:] + scale * dw[4:], atol=0)


def test_original_process_martingale_and_variance():
    # E[x_T] = x_0 within 4 se; Var = mu^2 kappa T / h^s within 5 percent
    mu, kappa, h, s = 1.0, 1.0, 0.5, 1
    T = 0.25
    cfg = SDEConfig(mu, kappa, T / 25, 25, 20_000, 11)
    x0 = np.array([0.7])
    scale = h ** (-s / 2.0)
    mean_est = feynman_kac(lambda x: x[:, 0], None, cfg, x0, noise_scale=scale)
    assert abs(mean_est.mean - 0.7) <= 4 * mean_est.std_error
    var_est = feynman_kac(lambda x: (x[:, 0] - 0.7) ** 2, None, cfg, x0, noise_scale=scale)
    assert var_est.mean == pytest.approx(mu ** 2 * kappa * T / h ** s, rel=0.05)


def test_reduced_step_zero_field_raises():
    # the step's geometry raises at f~ = 0, and the integrator counts the
    # path as aborted
    lat = Lattice(1, 2)
    with pytest.raises(SingularOrbitMetric):
        OrbitGeometry(lat, np.zeros((2, 2)), 0.8)
    c = AdaptedCoords(np.zeros((1, 2)), np.zeros((2, 2)), np.zeros(2))
    abort, ends = reduced_batch_diagnostics(lat, c, 0.8, SDEConfig(1.0, 1.0, 1e-3, 1, 1, 1))
    assert abort == 1.0 and ends == []


def test_reduced_batch_aborts_near_singularity():
    # min |f~|^2 = 2e-14 is below the floor: the path aborts at step 0
    lat = Lattice(1, 2)
    c = AdaptedCoords(np.zeros((1, 2)), np.full((2, 2), 1e-7), np.zeros(2))
    abort, ends = reduced_batch_diagnostics(lat, c, 0.8, SDEConfig(1.0, 1.0, 1e-3, 10, 1, 1))
    assert abort == 1.0 and ends == []


@pytest.mark.parametrize("s,n,f0,dt,n_steps,seed", [
    (2, 3, (1.0, 0.5), 5e-3, 15, 6),
    (2, 4, (1.0, 0.3), 1e-2, 50, 5),
], ids=["s2n3", "s2n4"])
def test_reduced_with_drift_preserves_constraint(monkeypatch, s, n, f0, dt, n_steps, seed):
    lat = Lattice(s, n)
    V = lat.n_sites
    c = AdaptedCoords(np.zeros((s, V)), np.stack([np.full(V, f0[0]), np.full(V, f0[1])]),
                      np.zeros(V))
    real, states = sde._reduced_step, []

    def recording(lat, g0, cfg):           # keeps the states every step returns
        step = real(lat, g0, cfg)

        def wrapped(x, dw):
            x, keep = step(x, dw)
            states.append(x)
            return x, keep
        return wrapped

    monkeypatch.setattr(sde, "_reduced_step", recording)
    abort, _ = reduced_batch_diagnostics(lat, c, 0.8, SDEConfig(1.0, 1.0, dt, n_steps, 1, seed))
    assert abort == 0.0 and len(states) == n_steps
    for x in states:
        assert np.abs(lat.divergence(x[0, :s * V].reshape(s, V))).max() <= 1e-10


def _antithetic_normals(monkeypatch, z):
    """Patch sde._chunk_normals so path 2i steps once with +z[i], path 2i + 1
    with -z[i]."""
    rows = np.stack([z, -z], axis=1).reshape(-1, 1, z.shape[-1])

    def fixed(seed, lo, hi, n_steps, dim):
        assert n_steps == 1 and dim == z.shape[-1]
        return rows[lo:hi].copy()

    monkeypatch.setattr(sde, "_chunk_normals", fixed)


def test_reduced_one_step_mean_is_drift(monkeypatch):
    # antithetic +-z pairs cancel the noise exactly, leaving mu^2 kappa drift dt
    lat = Lattice(1, 2)
    rng = np.random.default_rng(3)
    f0 = rng.standard_normal((2, 2))
    c0 = AdaptedCoords(np.zeros((1, 2)), f0, np.zeros(2))
    g0 = 0.8
    n = 64
    cfg = SDEConfig(1.2, 0.9, 1e-2, 1, 2 * n, 1)
    drift_A, drift_f = reduced_drift(lat, c0, g0)
    _antithetic_normals(monkeypatch, rng.standard_normal((n, 6)))
    abort, ends = reduced_batch_diagnostics(lat, c0, g0, cfg)
    assert abort == 0.0
    meanA = sum(c1.A_star - c0.A_star for c1 in ends) / (2 * n)
    meanf = sum(c1.f_tilde - c0.f_tilde for c1 in ends) / (2 * n)
    pref = cfg.mu ** 2 * cfg.kappa * cfg.dt
    # potential-sector drift is zero and the step reprojects, so compare after P
    P = transverse_projector(lat)
    assert np.abs(meanA - (P @ (pref * flat(drift_A))).reshape(1, 2)).max() <= 1e-12
    assert np.abs(meanf - pref * drift_f).max() <= 1e-12


def test_reduced_noise_block_structure(monkeypatch):
    # f-sector noise is N_f dw_A + dw_f; an antithetic +-z pair cancels the
    # drift, so half the difference of the two steps is the noise
    lat = Lattice(2, 3)
    rng = np.random.default_rng(4)
    f0 = rng.standard_normal((2, 9)) + 2.0
    c0 = AdaptedCoords(np.zeros((2, 9)), f0, np.zeros(9))
    g0, cfg = 0.8, SDEConfig(1.0, 1.0, 4e-2, 1, 2, 1)
    z = rng.standard_normal(4 * 9)
    _antithetic_normals(monkeypatch, z[None, :])
    abort, (cp, cm) = reduced_batch_diagnostics(lat, c0, g0, cfg)
    assert abort == 0.0
    dw = z * math.sqrt(cfg.dt)
    P = transverse_projector(lat)
    _, N_f = projector_N(lat, f0, g0)
    expA = P @ (cfg.mu * math.sqrt(cfg.kappa) * dw[:18])
    expf = cfg.mu * math.sqrt(cfg.kappa) * (N_f @ dw[:18] + dw[18:])
    assert_allclose(0.5 * (flat(cp.A_star) - flat(cm.A_star)), expA, atol=1e-14)
    assert_allclose(0.5 * (flat(cp.f_tilde) - flat(cm.f_tilde)), expf, atol=1e-14)


def test_reduced_step_builds_one_geometry(monkeypatch):
    # one Euler step factorizes the orbit metric once, applies N_f sitewise
    # without building it, and never builds the sigma Hessian
    from gaugereduce import gauge, orbit
    namespaces = [m for name, m in sys.modules.items()
                  if name == "gaugereduce" or name.startswith("gaugereduce.")]
    counts = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module, name in [(orbit, "orbit_metric"), (gauge, "projector_N")]:
        fn = getattr(module, name)
        counts[name] = 0
        wrapper = counted(name, fn)
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if obj is fn:
                    monkeypatch.setattr(ns, attr, wrapper)

    def no_hessian(self):
        raise AssertionError("hess_ff built inside a reduced step")

    monkeypatch.setattr(orbit.OrbitGeometry, "hess_ff", property(no_hessian))
    lat = Lattice(2, 3)
    rng = np.random.default_rng(5)
    c0 = AdaptedCoords(np.zeros((2, 9)), rng.standard_normal((2, 9)) + 2.0, np.zeros(9))
    abort, _ = reduced_batch_diagnostics(lat, c0, 0.8, SDEConfig(1.0, 1.0, 1e-2, 1, 1, 1))
    assert abort == 0.0
    assert counts == {"orbit_metric": 1, "projector_N": 0}


def _uniform_start(lat):
    V = lat.n_sites
    return AdaptedCoords(np.zeros((lat.dim, V)), np.stack([np.ones(V), np.zeros(V)]),
                         np.zeros(V))


def test_reduced_batch_matches_single_steps_with_aborts(monkeypatch):
    # a raised floor makes some paths abort part way; one chunk of all paths
    # aborts exactly the paths that one-path chunks abort, and the surviving
    # endpoints are bitwise theirs
    monkeypatch.setattr(sde, "SINGULARITY_FLOOR", 0.6)
    lat = Lattice(1, 3)
    c0 = _uniform_start(lat)
    cfg = SDEConfig(1.0, 1.0, 0.03, 20, 24, 2)
    abort, ends = reduced_batch_diagnostics(lat, c0, 0.8, cfg)
    monkeypatch.setattr(sde, "_CHUNK_BYTES", 1)
    single_abort, kept = reduced_batch_diagnostics(lat, c0, 0.8, cfg)
    assert 0 < len(kept) < cfg.n_paths
    assert abort == single_abort == (cfg.n_paths - len(kept)) / cfg.n_paths
    assert len(ends) == len(kept)
    for end, ref in zip(ends, kept):
        assert np.array_equal(end.A_star, ref.A_star)
        assert np.array_equal(end.f_tilde, ref.f_tilde)


def test_reduced_batch_aborts_non_positive_definite_metric():
    # on the two-site chain D = g0^2 diag|f~|^2; with g0 = 1e-160 the entry
    # for |f~|^2 = 1e-6 (above the floor) underflows to 0, that for 1 does not
    lat = Lattice(1, 2)
    g0 = 1e-160
    f = np.zeros((3, 2, 2))
    f[:, 0] = [[1.0, 1.0], [1.0, 1e-3], [1e-3, 1.0]]
    with pytest.raises(SingularOrbitMetric) as info:
        orbit.orbit_metric(lat, f, g0)
    assert info.value.rows.tolist() == [1, 2]
    c0 = AdaptedCoords(np.zeros((1, 2)), f[1], np.zeros(2))
    abort, ends = reduced_batch_diagnostics(lat, c0, g0, SDEConfig(1.0, 1.0, 1e-3, 5, 3, 1))
    assert abort == 1.0 and ends == []


def test_reduced_batch_aborts_non_finite_states(monkeypatch):
    # a NaN increment at step 5 of path 1 and at the last step of path 2
    # makes their states non-finite: both abort, and the other paths finish
    # exactly as without them
    lat = Lattice(2, 3)
    c0 = _uniform_start(lat)
    cfg = SDEConfig(1.0, 1.0, 5e-3, 10, 4, 3)
    clean_abort, clean = reduced_batch_diagnostics(lat, c0, 0.8, cfg)
    real = sde._chunk_normals

    def poisoned(seed, lo, hi, n_steps, dim):
        z = real(seed, lo, hi, n_steps, dim)
        z[1, 5, 0] = z[2, n_steps - 1, -1] = np.nan
        return z

    monkeypatch.setattr(sde, "_chunk_normals", poisoned)
    abort, ends = reduced_batch_diagnostics(lat, c0, 0.8, cfg)
    assert clean_abort == 0.0 and abort == 0.5
    for end, i in zip(ends, (0, 3), strict=True):
        assert np.array_equal(end.f_tilde, clean[i].f_tilde)
        assert np.array_equal(end.A_star, clean[i].A_star)


def test_reduced_endpoint_independent_of_n_paths():
    # path i's endpoint is bitwise the same whatever the number of paths
    # stacked with it
    lat = Lattice(2, 3)
    c0 = _uniform_start(lat)
    runs = {}
    for n_paths in (1, 3, 7):
        abort, ends = reduced_batch_diagnostics(lat, c0, 0.8,
                                                SDEConfig(1.0, 1.0, 5e-3, 30, n_paths, 13))
        assert abort == 0.0
        runs[n_paths] = ends
    for i in range(7):
        for n_paths in (1, 3):
            if i < n_paths:
                assert np.array_equal(runs[n_paths][i].f_tilde, runs[7][i].f_tilde)
                assert np.array_equal(runs[n_paths][i].A_star, runs[7][i].A_star)


@pytest.mark.parametrize("s,n", [(3, 4), (2, 8), (3, 6)])
def test_reduced_chunk_peak_stays_under_its_charge(monkeypatch, s, n):
    # a chunk's traced peak (its noise, states and one step's geometry)
    # stays within the rows x row_bytes the byte cap charges it; the V x V
    # term of the charge dominates from V = 64 on
    lat = Lattice(s, n)
    c0 = _uniform_start(lat)
    cfg = SDEConfig(1.0, 1.0, 1e-3, 3, 6, 1)
    reduced_batch_diagnostics(lat, c0, 0.8, cfg)    # builds the lattice's cached operators
    run_chunks, peaks = sde._run_chunks, []

    def measured(run, n_paths, row_bytes):
        def wrapped(lo, hi):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            run(lo, hi)
            peaks.append((tracemalloc.get_traced_memory()[1] - base, (hi - lo) * row_bytes))
        run_chunks(wrapped, n_paths, row_bytes)

    monkeypatch.setattr(sde, "_run_chunks", measured)
    tracemalloc.start()
    try:
        reduced_batch_diagnostics(lat, c0, 0.8, cfg)
    finally:
        tracemalloc.stop()
    assert len(peaks) == 1
    for peak, charge in peaks:
        assert peak <= charge


def test_reduced_two_site_chain_grows_like_original_process():
    # On the two-site chain N_f = 0 and the Christoffel drift -1/2 h Gamma
    # cancels the orbit mean curvature j2 = sigma'/4 = f/(2|f|^2) exactly, so the
    # drift-form reduced simulator is a free diffusion of f~ = f:
    # E|f~|^2 = sum_x (|f0(x)|^2 + 2 mu^2 kappa T), the growth of the
    # original process, not the 3 mu^2 kappa T per site of the drift
    # f/(2|f|^2) alone (the girsanov oracle's drift).
    lat = Lattice(1, 2)
    rng = np.random.default_rng(12)
    for _ in range(3):
        f = rng.standard_normal((2, 2)) + 1.0
        geo = OrbitGeometry(lat, f, 0.8)
        assert np.abs(geo.drift()).max() <= 1e-14 * np.abs(geo.grad_f / 4).max()
    mu, kappa = 1.3, 0.5
    cfg = SDEConfig(mu, kappa, 0.01, 20, 10_000, 5)
    abort, ends = reduced_batch_diagnostics(lat, _uniform_start(lat), 0.8, cfg)
    assert abort == 0.0
    r2 = np.array([np.sum(c.f_tilde ** 2) for c in ends])
    mean, se = r2.mean(), r2.std(ddof=1) / math.sqrt(r2.size)
    T = cfg.horizon
    assert abs(mean - 2 * (1.0 + 2 * mu ** 2 * kappa * T)) <= 6 * se + cfg.dt
    assert abs(mean - 2 * (1.0 + 3 * mu ** 2 * kappa * T)) > 6 * se + cfg.dt


def test_feynman_kac_trapezoid_matches_manual_path():
    # one path of the original process on (A, f1, f2): its weight is the
    # exponential of a manual trapezoid of the gauge potential over the
    # states its own path_rng stream visits
    from gaugereduce.gauge import potential
    lat = Lattice(1, 4)
    x0 = _original_start(lat, 30)
    cfg = SDEConfig(1.0, 1.0, 5e-3, 12, 1, 1)

    def v(x):
        return np.array([potential(lat, FieldPair(r[:4].reshape(1, 4), r[4:].reshape(2, 4), 0.8))
                         for r in x])

    est = feynman_kac(lambda x: np.ones(x.shape[0]), v, cfg, x0)
    z = path_rng(cfg.seed, 0).standard_normal((cfg.n_steps, x0.size))
    x, vals = x0, [v(x0[None])[0]]
    for k in range(cfg.n_steps):
        x = x + cfg.mu * math.sqrt(cfg.kappa) * (z[k] * math.sqrt(cfg.dt))
        vals.append(v(x[None])[0])
    vals = np.array(vals)
    acc = np.sum(0.5 * (vals[:-1] + vals[1:]) * cfg.dt)
    assert acc != 0.0
    assert est.max_exponent == pytest.approx(abs(acc), rel=1e-12)
    assert est.mean == pytest.approx(math.exp(acc), rel=1e-12)


def test_feynman_kac_trivial():
    cfg = SDEConfig(1.0, 1.0, 1e-2, 10, 500, 2)
    est = feynman_kac(lambda x: np.ones(x.shape[0]), None, cfg, np.zeros(3))
    assert est.mean == 1.0
    assert est.std_error == 0.0
    assert est.n_paths == 500 and not est.unreliable


def test_feynman_kac_constant_potential():
    # constant V factors out exactly: exp(c T / mu^2 kappa)
    c = -0.8
    cfg = SDEConfig(1.2, 0.5, 1e-2, 20, 200, 3)
    est = feynman_kac(lambda x: np.ones(x.shape[0]),
                      lambda x: np.full(x.shape[0], c), cfg, np.zeros(2))
    expected = math.exp(c * cfg.horizon / (cfg.mu ** 2 * cfg.kappa))
    assert est.mean == pytest.approx(expected, rel=1e-12)
    assert est.std_error <= 1e-15


def test_feynman_kac_mehler_toy():
    from gaugereduce.kolmogorov import mehler_value
    omega = 1.0
    cfg = SDEConfig(1.0, 1.0, 1e-3, 250, 20_000, 13)
    x0 = np.array([0.4])
    est = feynman_kac(lambda x: np.ones(x.shape[0]),
                      lambda x: -0.5 * omega ** 2 * np.sum(x ** 2, axis=1),
                      cfg, x0)
    ref = mehler_value(x0, omega, 1.0, cfg.horizon)
    assert abs(est.mean - ref) <= 3 * est.std_error + 2e-4


def test_feynman_kac_exponent_guard():
    cfg = SDEConfig(1.0, 1.0, 1e-2, 10, 50, 4)
    est = feynman_kac(lambda x: np.ones(x.shape[0]),
                      lambda x: np.full(x.shape[0], 1e5), cfg, np.zeros(1))
    assert est.unreliable and est.n_flagged == 50
    assert est.max_exponent > 700


def test_girsanov_zero_drift_identical():
    cfg = SDEConfig(1.0, 1.0, 1e-2, 20, 300, 5)
    zero = lambda x: np.zeros_like(x)
    e1, e2 = girsanov_check(cfg, np.array([0.2]), zero, lambda x: x[:, 0] ** 2)
    assert e1.mean == e2.mean
    assert e1.std_error == e2.std_error


def test_girsanov_constant_drift_gaussian():
    # linear observable of a constant-drift path: exact mean x0 + b T
    b = 0.5
    cfg = SDEConfig(1.0, 1.0, 1e-3, 200, 30_000, 6)
    e1, e2 = girsanov_check(cfg, np.array([0.1]),
                            lambda x: np.full_like(x, b), lambda x: x[:, 0])
    exact = 0.1 + b * cfg.horizon
    assert abs(e1.mean - exact) <= 3 * e1.std_error
    assert abs(e2.mean - exact) <= 3 * e2.std_error
    assert abs(e1.mean - e2.mean) <= 3 * math.hypot(e1.std_error, e2.std_error)


def test_girsanov_orbit_curvature_drift_two_site():
    # drift = orbit mean-curvature term on the two-site chain; the closed
    # form used for speed is validated against the geometry module
    lat = Lattice(1, 2)
    mu, kappa, g0 = 1.0, 1.0, 0.8
    pref = mu ** 2 * kappa

    def drift(x):
        v1, v2 = x[:, :2], x[:, 2:]
        r2 = v1 ** 2 + v2 ** 2
        return pref * np.concatenate([v1 / (2 * r2), v2 / (2 * r2)], axis=1)

    rng = np.random.default_rng(7)
    for _ in range(3):
        f = rng.standard_normal((2, 2)) + 1.5
        j2_f = OrbitGeometry(lat, f, g0).grad_f / 4
        assert_allclose(drift(flat(f)[None, :])[0], pref * flat(j2_f), atol=1e-12)

    cfg = SDEConfig(mu, kappa, 1e-3, 100, 20_000, 8)
    x0 = flat(np.stack([np.ones(2), np.zeros(2)]))
    e1, e2 = girsanov_check(cfg, x0, drift, lambda x: np.sum(x ** 2, axis=1))
    assert abs(e1.mean - e2.mean) <= 3 * math.hypot(e1.std_error, e2.std_error)


def test_weak_convergence_common_noise_consistency():
    # at the finest dt the common-noise estimate equals a direct run bitwise
    quad = lambda x: np.sum(x ** 2, axis=1)
    drift = lambda x: -x
    ests = weak_convergence_estimates(quad, drift, np.array([1.0]), 1.0, 1.0,
                                      21, 500, [2e-3, 1e-3], 0.1)
    cfg = SDEConfig(1.0, 1.0, 1e-3, 100, 500, 21)
    direct = feynman_kac(quad, None, cfg, np.array([1.0]), drift=drift)
    assert ests[1e-3].mean == direct.mean


@pytest.mark.parametrize("d,dts", [(2, (0.004, 0.002, 0.001)),
                                   (3, (0.008, 0.004, 0.002, 0.001)),
                                   (1, (0.003, 0.001))])
def test_weak_convergence_coarse_normals_sum_fine_ones(d, dts):
    # reference: coarse normals as a literal sum over the fine ones
    quad = lambda x: np.sum(x ** 2, axis=1)
    drift = lambda x: -x
    x0 = np.linspace(0.5, 1.0, d)
    seed, n_paths, horizon = 7, 300, 0.2
    ests = weak_convergence_estimates(quad, drift, x0, 1.0, 1.0, seed, n_paths,
                                      list(dts), horizon)
    n_fine = int(round(horizon / dts[-1]))
    z = _chunk_normals(seed, 0, n_paths, n_fine, d)
    for dt in dts:
        fac = int(round(dt / dts[-1]))
        n_steps = n_fine // fac
        zc = z[:, :n_steps * fac].reshape(n_paths, n_steps, fac, d)
        zc = zc.sum(axis=2) / math.sqrt(fac)
        cfg = SDEConfig(1.0, 1.0, dt, n_steps, n_paths, seed)
        values = quad(sde._integrate_chunk(cfg, x0, zc, sde._flat_step(cfg, drift, 1.0))[0])
        ref = sde._reduce_estimate(values, 0, 0.0)
        assert (ests[dt].mean, ests[dt].std_error) == (ref.mean, ref.std_error)


def test_chunk_byte_cap_keeps_estimates(monkeypatch):
    # one row a chunk, then three, against the default cap (one chunk)
    d, n_steps = 3, 20
    cfg = SDEConfig(1.0, 1.0, 0.01, n_steps, 50, 5)
    x0 = np.array([0.3, -0.2, 0.5])
    quad = lambda x: np.sum(x ** 2, axis=1)
    v = lambda x: -0.5 * np.sum(x ** 2, axis=1)
    drift = lambda x: -x
    row_bytes = 8 * n_steps * d
    chunks = []
    run_chunks = sde._run_chunks

    def recording(run, n_paths, size):
        def wrapped(lo, hi):
            chunks.append(hi - lo)
            run(lo, hi)
        run_chunks(wrapped, n_paths, size)

    def estimates():
        chunks.clear()
        fk = feynman_kac(quad, v, cfg, x0, drift=drift)
        e1, e2 = girsanov_check(cfg, x0, drift, quad)
        wk = weak_convergence_estimates(quad, drift, x0, 1.0, 1.0, cfg.seed,
                                        cfg.n_paths, [0.02, 0.01], cfg.horizon)
        return [(e.mean, e.std_error, e.n_flagged, e.max_exponent)
                for e in (fk, e1, e2, *wk.values())]

    monkeypatch.setattr(sde, "_run_chunks", recording)
    default = estimates()
    assert chunks == [cfg.n_paths] * 3
    for rows in (1, 3):
        monkeypatch.setattr(sde, "_CHUNK_BYTES", rows * row_bytes + row_bytes - 1)
        assert estimates() == default
        assert max(chunks) == rows and sum(chunks) == 3 * cfg.n_paths


def test_weak_convergence_rejects_bad_grid():
    with pytest.raises(ValueError):
        weak_convergence_estimates(lambda x: x[:, 0], None, np.array([0.0]),
                                   1.0, 1.0, 1, 10, [3e-3, 2e-3], 0.1)
    for dts, horizon in (([3e-3], 1e-3), ([1e-3, 2e-3], 1e-3)):   # no step fits
        with pytest.raises(ValueError):
            weak_convergence_estimates(lambda x: x[:, 0], None, np.array([0.0]),
                                       1.0, 1.0, 1, 10, dts, horizon)


def test_estimator_thread_determinism(monkeypatch):
    omega = 1.0
    cfg = SDEConfig(1.0, 1.0, 1e-2, 20, 9000, 9)
    phi0 = lambda x: np.ones(x.shape[0])
    v = lambda x: -0.5 * omega ** 2 * np.sum(x ** 2, axis=1)
    monkeypatch.setenv("GAUGE_REDUCE_THREADS", "1")
    a = feynman_kac(phi0, v, cfg, np.zeros(2))
    monkeypatch.setenv("GAUGE_REDUCE_THREADS", "4")
    b = feynman_kac(phi0, v, cfg, np.zeros(2))
    assert a.mean == b.mean and a.std_error == b.std_error
