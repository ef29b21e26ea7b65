"""Stochastic engine: increments, Euler steps, estimators, Girsanov, determinism."""

import math
import sys
import tracemalloc
import types

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gaugereduce import orbit, runner, sde
from gaugereduce.gauge import AdaptedCoords, FieldPair, faddeev_popov, transverse_projector
from gaugereduce.lattice import Lattice, flat
from gaugereduce.orbit import OrbitGeometry, SingularOrbitMetric, reduced_drift, scalar_drift
from gaugereduce.sde import (SDEConfig, _chunk_normals, feynman_kac, girsanov_check,
                             path_rng, reduced_batch_diagnostics,
                             weak_convergence_estimates, worker_count)
from references import dense_N_f, mehler_value


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


@pytest.mark.parametrize("seed,n_steps,dim", [(7, 30, 1), (2 ** 63 + 1, 5, 3),
                                               (2 ** 64 - 1, 4, 2)])
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


def _start(A, f):
    """Flat reduced state (A*, f~1, f~2) of (s + 2)V entries."""
    return np.concatenate([flat(A), flat(f)])


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
    # the step's drift raises at f~ = 0, and the integrator counts the path
    # as aborted
    lat = Lattice(1, 2)
    with pytest.raises(SingularOrbitMetric):
        scalar_drift(lat, np.zeros((2, 2)), 0.8)
    abort, ends = reduced_batch_diagnostics(lat, np.zeros(6), 0.8,
                                            SDEConfig(1.0, 1.0, 1e-3, 1, 1, 1))
    assert abort == 1.0 and ends.shape == (0, 6)


def test_reduced_batch_aborts_near_singularity():
    # min |f~|^2 = 2e-14 is below the floor: the path aborts at step 0
    lat = Lattice(1, 2)
    x0 = _start(np.zeros((1, 2)), np.full((2, 2), 1e-7))
    abort, ends = reduced_batch_diagnostics(lat, x0, 0.8, SDEConfig(1.0, 1.0, 1e-3, 10, 1, 1))
    assert abort == 1.0 and ends.shape == (0, 6)


@pytest.mark.parametrize("shape", [(5,), (7,), (1, 6), (2, 3)])
def test_reduced_batch_refuses_wrong_initial_shape(shape):
    # the initial state is the flat (A*, f~1, f~2) of (s + 2)V = 6 entries
    with pytest.raises(ValueError, match="initial state"):
        reduced_batch_diagnostics(Lattice(1, 2), np.ones(shape), 0.8,
                                  SDEConfig(1.0, 1.0, 1e-3, 1, 1, 1))


@pytest.mark.parametrize("s,n,f0,dt,n_steps,seed", [
    (2, 3, (1.0, 0.5), 5e-3, 15, 6),
    (2, 4, (1.0, 0.3), 1e-2, 50, 5),
], ids=["s2n3", "s2n4"])
def test_reduced_with_drift_preserves_constraint(monkeypatch, s, n, f0, dt, n_steps, seed):
    lat = Lattice(s, n)
    V = lat.n_sites
    x0 = _start(np.zeros((s, V)), np.stack([np.full(V, f0[0]), np.full(V, f0[1])]))
    real, states = sde._reduced_step, []

    def recording(lat, g0, cfg):           # keeps the states every step returns
        step = real(lat, g0, cfg)

        def wrapped(x, dw):
            x, keep = step(x, dw)
            states.append(x)
            return x, keep
        return wrapped

    monkeypatch.setattr(sde, "_reduced_step", recording)
    abort, _ = reduced_batch_diagnostics(lat, x0, 0.8, SDEConfig(1.0, 1.0, dt, n_steps, 1, seed))
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
    x0 = _start(c0.A_star, f0)
    abort, ends = reduced_batch_diagnostics(lat, x0, g0, cfg)
    assert abort == 0.0
    mean = (ends - x0).sum(axis=0) / (2 * n)
    meanA, meanf = mean[:2].reshape(1, 2), mean[2:].reshape(2, 2)
    pref = cfg.mu ** 2 * cfg.kappa * cfg.dt
    # potential-sector drift is zero and the step reprojects, so compare after P
    P = transverse_projector(lat)
    assert np.abs(meanA - (P @ (pref * flat(drift_A))).reshape(1, 2)).max() <= 1e-12
    assert np.abs(meanf - pref * drift_f).max() <= 1e-12


def _reduced_noise(monkeypatch):
    """One antithetic pair of reduced steps: half their difference, which is
    the noise (the drift cancels), against P dw_A and N_f dw_A + dw_f built
    from the dense N_f."""
    lat = Lattice(2, 3)
    rng = np.random.default_rng(4)
    f0 = rng.standard_normal((2, 9)) + 2.0
    g0, cfg = 0.8, SDEConfig(1.0, 1.0, 4e-2, 1, 2, 1)
    z = rng.standard_normal(4 * 9)
    _antithetic_normals(monkeypatch, z[None, :])
    abort, (cp, cm) = reduced_batch_diagnostics(lat, _start(np.zeros((2, 9)), f0), g0, cfg)
    assert abort == 0.0
    dw = z * math.sqrt(cfg.dt)
    P = transverse_projector(lat)
    N_f = dense_N_f(lat, f0, g0)
    expA = P @ (cfg.mu * math.sqrt(cfg.kappa) * dw[:18])
    expf = cfg.mu * math.sqrt(cfg.kappa) * (N_f @ dw[:18] + dw[18:])
    return 0.5 * (cp[:18] - cm[:18]), expA, 0.5 * (cp[18:] - cm[18:]), expf


def test_reduced_noise_block_structure(monkeypatch):
    # f-sector noise is N_f dw_A + dw_f; A* noise is P dw_A
    gotA, expA, gotf, expf = _reduced_noise(monkeypatch)
    assert_allclose(gotA, expA, atol=1e-14)
    assert_allclose(gotf, expf, atol=1e-14)


def test_flipped_N_f_fails_check_and_noise_structure(monkeypatch, tmp_path):
    # the reduced step and `check` read the same orbit.apply_N_f, so a sign
    # error in it fails the frame row of `check` and the noise structure
    apply_N_f = orbit.apply_N_f
    for ns in (runner, sde):
        monkeypatch.setattr(ns, "apply_N_f", lambda *args: -apply_N_f(*args))
    config = runner.parse_config(f"lattice.dim = 2\nlattice.sites_per_dim = 4\n"
                                 f"fields.g0 = 0.8\noutput_dir = {tmp_path}\n")
    assert runner.cmd_check(config) == 1
    rows = (tmp_path / "check.csv").read_text().splitlines()[2:]
    assert {r.split(",")[0] for r in rows if r.endswith("fail")} == \
        {"projector_N_kills_gauge_directions"}
    gotA, expA, gotf, expf = _reduced_noise(monkeypatch)
    assert_allclose(gotA, expA, atol=1e-14)
    assert np.abs(gotf - expf).max() > 1e-3 * np.abs(expf).max()


def test_reduced_step_neither_factorizes_nor_inverts_certified_states(monkeypatch):
    # g0^2 |f~|^2 > 0 at every site certifies the orbit metric positive
    # definite, so an Euler step neither factorizes nor inverts it: no
    # orbit_metric, no np.linalg.inv, no OrbitGeometry; the paths go on at
    # g0 = 1e-9 on (1, 3), whose D Cholesky refuses, at 1e-7 and 7e-7, and
    # at 1e-160, where g0^2 |f~|^2 is subnormal
    namespaces = [m for name, m in sys.modules.items()
                  if name == "gaugereduce" or name.startswith("gaugereduce.")]
    counts = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    fn = orbit.orbit_metric
    counts["orbit_metric"] = 0
    wrapper = counted("orbit_metric", fn)
    for ns in namespaces:
        for attr, obj in list(vars(ns).items()):
            if obj is fn:
                monkeypatch.setattr(ns, attr, wrapper)
    counts["inv"] = 0
    monkeypatch.setattr(np.linalg, "inv", counted("inv", np.linalg.inv))

    def no_geometry(self, *args):
        raise AssertionError("OrbitGeometry built inside a reduced step")

    monkeypatch.setattr(orbit.OrbitGeometry, "__init__", no_geometry)
    lat = Lattice(2, 3)
    rng = np.random.default_rng(5)
    random = _start(np.zeros((2, 9)), rng.standard_normal((2, 9)) + 2.0)
    cases = [(lat, random, g0, SDEConfig(1.0, 1.0, 1e-2, 3, 2, 1)) for g0 in (0.8, 1e-160)]
    cases += [(Lattice(s, n), None, g0, SDEConfig(1.0, 1.0, 1e-2, 20, 6, 4))
              for s, n, g0 in ((1, 3, 1e-9), (1, 2, 1e-160), (2, 3, 1e-7), (2, 3, 7e-7))]
    for lat, x0, g0, cfg in cases:
        x0 = _uniform_start(lat) if x0 is None else x0
        abort, _ = reduced_batch_diagnostics(lat, x0, g0, cfg)
        assert abort == 0.0, (lat.spec, g0)
    assert counts == {"orbit_metric": 0, "inv": 0}


def _uniform_start(lat):
    V = lat.n_sites
    return _start(np.zeros((lat.dim, V)), np.stack([np.ones(V), np.zeros(V)]))


@pytest.mark.parametrize("h", [0.5, 1.0])
def test_reduced_mean_is_the_exact_euler_mean_at_any_spacing(h):
    # the noise has mean zero given the state, so E f~ follows the Euler
    # recursion m <- (1 + c dt) m exactly, c = mu^2 kappa g0^2 green(x, x) /
    # (2 h^s): the drift carries the 1/h^s variance of the canonical
    # increments (without it, E f~1 reads 0.89 against 0.80 at h = 0.5)
    lat = Lattice(1, 3, h)
    V, g0, n_steps = lat.n_sites, 1.0, 50
    cfg = SDEConfig(1.0, 1.0, 1.0 / n_steps, n_steps, 4000, 19)
    abort, ends = reduced_batch_diagnostics(lat, _uniform_start(lat), g0, cfg)
    assert abort == 0.0
    c = cfg.mu ** 2 * cfg.kappa * g0 ** 2 * faddeev_popov(lat).green[0, 0] / (2 * h ** lat.dim)
    exact = (1.0 + c * cfg.dt) ** n_steps
    f1 = ends[:, lat.dim * V:(lat.dim + 1) * V].mean(axis=1)
    assert abs(f1.mean() - exact) <= 4.0 * f1.std(ddof=1) / math.sqrt(len(f1))


@pytest.mark.parametrize("s,n,h,g0,dt,n_steps,seed", [
    (1, 3, 1.0, 3.0, 0.05, 20, 31), (2, 3, 1.0, 2.0, 0.1, 10, 32),
    (1, 5, 0.5, 2.0, 0.02, 25, 33)])
def test_reduced_second_moment_is_the_exact_euler_recurrence(s, n, h, g0, dt, n_steps, seed):
    # one Euler step moves f~ by a f~, a = mu^2 kappa dt g0^2 green(x, x) /
    # (2 h^s) < 0, and N_f dw_A adds variance -2 a |f~|^2 at a site (as
    # (green div)(green div)^T = -green), so E|f~|^2 maps to (1 + a)^2
    # E|f~|^2 - 2 a E|f~|^2 + q = (1 + a^2) E|f~|^2 + q, q = 2 mu^2 kappa dt
    # / h^s, exactly at any dt.  At these large a the mean reads 8 to 51
    # standard errors from the continuous value 1 + 2 mu^2 kappa T / h^s,
    # and drift x 0.9 or x 1.1, N_f x 0.9 or no drift move it 9 or more
    # from the recurrence
    lat = Lattice(s, n, h)
    V = lat.n_sites
    cfg = SDEConfig(1.0, 1.0, dt, n_steps, 40_000, seed)
    abort, ends = reduced_batch_diagnostics(lat, _uniform_start(lat), g0, cfg)
    assert abort == 0.0
    hs = h ** s
    a = cfg.mu ** 2 * cfg.kappa * dt * g0 ** 2 * faddeev_popov(lat).green[0, 0] / (2 * hs)
    q = 2 * cfg.mu ** 2 * cfg.kappa * dt / hs
    exact = 1.0
    for _ in range(n_steps):
        exact = (1.0 + a * a) * exact + q
    m2 = (ends[:, s * V:] ** 2).sum(axis=1) / V
    se = m2.std(ddof=1) / math.sqrt(len(m2))
    assert abs(m2.mean() - exact) <= 4.0 * se


def test_reduced_batch_matches_single_steps_with_aborts(monkeypatch):
    # a raised floor makes some paths abort part way; one chunk of all paths
    # aborts exactly the paths that one-path chunks abort, and the surviving
    # endpoints are bitwise theirs
    monkeypatch.setattr(sde, "SINGULARITY_FLOOR", 0.6)
    lat = Lattice(1, 3)
    x0 = _uniform_start(lat)
    cfg = SDEConfig(1.0, 1.0, 0.03, 20, 24, 2)
    abort, ends = reduced_batch_diagnostics(lat, x0, 0.8, cfg)
    monkeypatch.setattr(sde, "_CHUNK_BYTES", 1)
    single_abort, kept = reduced_batch_diagnostics(lat, x0, 0.8, cfg)
    assert 0 < len(kept) < cfg.n_paths
    assert abort == single_abort == (cfg.n_paths - len(kept)) / cfg.n_paths
    assert len(ends) == len(kept)
    for end, ref in zip(ends, kept):
        assert np.array_equal(end, ref)


def test_reduced_batch_aborts_non_positive_definite_metric():
    # on the two-site chain D = g0^2 diag|f~|^2; with g0 = 1e-160 the entry
    # for |f~|^2 = 1e-6 (above the floor) underflows to 0, that for 1 does
    # not: D is singular, and the step stops the path on w = 0 at a site
    lat = Lattice(1, 2)
    g0 = 1e-160
    f = np.zeros((3, 2, 2))
    f[:, 0] = [[1.0, 1.0], [1.0, 1e-3], [1e-3, 1.0]]
    orbit.orbit_metric(lat, f[0], g0)
    for k in (1, 2):
        with pytest.raises(SingularOrbitMetric):
            orbit.orbit_metric(lat, f[k], g0)
    abort, ends = reduced_batch_diagnostics(lat, _start(np.zeros((1, 2)), f[1]), g0,
                                            SDEConfig(1.0, 1.0, 1e-3, 5, 3, 1))
    assert abort == 1.0 and ends.shape == (0, 6)


def test_reduced_batch_aborts_non_finite_states(monkeypatch):
    # a NaN increment at step 5 of path 1 and at the last step of path 2
    # makes their states non-finite: both abort, and the other paths finish
    # exactly as without them
    lat = Lattice(2, 3)
    x0 = _uniform_start(lat)
    cfg = SDEConfig(1.0, 1.0, 5e-3, 10, 4, 3)
    clean_abort, clean = reduced_batch_diagnostics(lat, x0, 0.8, cfg)
    real = sde._chunk_normals

    def poisoned(seed, lo, hi, n_steps, dim):
        z = real(seed, lo, hi, n_steps, dim)
        z[1, 5, 0] = z[2, n_steps - 1, -1] = np.nan
        return z

    monkeypatch.setattr(sde, "_chunk_normals", poisoned)
    abort, ends = reduced_batch_diagnostics(lat, x0, 0.8, cfg)
    assert clean_abort == 0.0 and abort == 0.5
    for end, i in zip(ends, (0, 3), strict=True):
        assert np.array_equal(end, clean[i])


def test_reduced_endpoint_independent_of_n_paths():
    # path i's endpoint is bitwise the same whatever the number of paths
    # stacked with it
    lat = Lattice(2, 3)
    x0 = _uniform_start(lat)
    runs = {}
    for n_paths in (1, 3, 7):
        abort, ends = reduced_batch_diagnostics(lat, x0, 0.8,
                                                SDEConfig(1.0, 1.0, 5e-3, 30, n_paths, 13))
        assert abort == 0.0
        runs[n_paths] = ends
    for i in range(7):
        for n_paths in (1, 3):
            if i < n_paths:
                assert np.array_equal(runs[n_paths][i], runs[7][i])


@pytest.mark.parametrize("s,n", [(3, 4), (2, 8), (3, 6)])
def test_reduced_chunk_peak_stays_under_its_charge(monkeypatch, s, n):
    # a chunk's traced peak (its noise, states and one step's temporaries)
    # stays within the rows x row_bytes the byte cap charges it
    lat = Lattice(s, n)
    x0 = _uniform_start(lat)
    cfg = SDEConfig(1.0, 1.0, 1e-3, 3, 6, 1)
    reduced_batch_diagnostics(lat, x0, 0.8, cfg)    # builds the lattice's cached operators
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
        reduced_batch_diagnostics(lat, x0, 0.8, cfg)
    finally:
        tracemalloc.stop()
    assert len(peaks) == 1
    for peak, charge in peaks:
        assert peak <= charge


@pytest.mark.parametrize("n_steps", [3, 100])
@pytest.mark.parametrize("s,n", [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])
def test_reduced_chunk_peak_per_row_within_row_charge(monkeypatch, s, n, n_steps):
    # the traced chunk peak grows by at most the row charge per row; the
    # slope between chunks of 4 and 12 rows cancels the chunk's fixed cost
    # (Philox objects, a few KB), which dominates the small-lattice rows;
    # (1, 2), with d = 6, is the one reduced lattice with rows narrower than 8
    lat = Lattice(s, n)
    x0 = _uniform_start(lat)
    reduced_batch_diagnostics(lat, x0, 0.8, SDEConfig(1.0, 1.0, 1e-3, n_steps, 2, 1))
    run_chunks, chunks = sde._run_chunks, []

    def measured(run, n_paths, row_bytes):
        def wrapped(lo, hi):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            run(lo, hi)
            chunks.append((hi - lo, tracemalloc.get_traced_memory()[1] - base, row_bytes))
        run_chunks(wrapped, n_paths, row_bytes)

    monkeypatch.setattr(sde, "_run_chunks", measured)
    tracemalloc.start()
    try:
        for rows in (4, 12):
            reduced_batch_diagnostics(lat, x0, 0.8, SDEConfig(1.0, 1.0, 1e-3, n_steps, rows, 1))
    finally:
        tracemalloc.stop()
    (rows_a, peak_a, row_bytes), (rows_b, peak_b, _) = chunks
    assert (peak_b - peak_a) / (rows_b - rows_a) <= row_bytes


def _row_sum_cases(rng, d, n):
    """Random (n, d) arrays with signed zeros, infinities and NaNs, plus
    an all-(-0.0) row and non-contiguous column slices of a wider array."""
    a = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-8, 9, size=(n, d))
    pick = rng.random((n, d))
    specials = [0.0, -0.0, np.inf, -np.inf, np.nan]
    for i, value in enumerate(specials):
        a[(pick >= 0.04 * i) & (pick < 0.04 * (i + 1))] = value
    a[0] = -0.0
    wide = rng.standard_normal((n, 2 * d + 3))
    wide[0] = -0.0
    return [a, wide[:, 3:3 + d], wide[:, 1::2][:, :d]]


@pytest.mark.parametrize("n", [1, 7, 655, 4096])
def test_row_sum_is_numpys_row_sum_bytewise(n):
    # the column loop below 8 columns repeats numpy's in-order sum from +0.0
    # (an all-(-0.0) row sums to +0.0); a numpy that changes its order fails here
    rng = np.random.default_rng(n)
    for d in range(1, 17):
        for a in _row_sum_cases(rng, d, n):
            with np.errstate(invalid="ignore"):
                assert sde._row_sum(a).tobytes() == np.sum(a, axis=1).tobytes(), (d, a.strides)


@pytest.mark.parametrize("d", [1, 3, 9])
def test_integrate_chunk_reads_noise_as_the_manual_loop(d):
    # a step's normals are read one record a path; the step drops rows
    # through keep partway, and every step's increment is still
    # z[rows, k] * sqrt(dt), byte for byte, as are the kept rows' exponents
    n_steps = 37
    cfg = SDEConfig(1.3, 0.7, 0.01, n_steps, 11, 4)
    z = _chunk_normals(cfg.seed, 0, cfg.n_paths, n_steps, d)
    x0 = np.linspace(-1.0, 1.0, d)
    v = lambda x: -0.5 * np.sum(x ** 2, axis=1)

    def dropping_step():
        k = iter(range(n_steps))

        def step(x, dw):
            new = x - 0.1 * x * cfg.dt + dw
            if next(k) in (2, 3, 20):
                keep = np.arange(len(x)) % 3 != 1
                return new[keep], keep
            return new, None
        return step

    x, rows, exponents = sde._integrate_chunk(cfg, x0, z, dropping_step(), v)
    ref, ref_rows, step = np.tile(x0, (cfg.n_paths, 1)), np.arange(cfg.n_paths), dropping_step()
    acc, vprev = np.zeros(cfg.n_paths), v(ref)
    for k in range(n_steps):
        ref, keep = step(ref, z[ref_rows, k] * math.sqrt(cfg.dt))
        if keep is not None:
            ref_rows, acc, vprev = ref_rows[keep], acc[keep], vprev[keep]
        acc += 0.5 * (vprev + v(ref)) * cfg.dt
        vprev = v(ref)
    assert len(rows) < cfg.n_paths
    assert rows.tobytes() == ref_rows.tobytes()
    assert x.tobytes() == ref.tobytes()
    assert exponents.tobytes() == (acc / (cfg.mu ** 2 * cfg.kappa)).tobytes()
    assert sde._integrate_chunk(cfg, x0, z, dropping_step())[0].tobytes() == ref.tobytes()


@pytest.mark.parametrize("with_v", [False, True])
def test_integrate_chunk_stops_once_no_row_is_left(with_v):
    # a step that stops every row at step 0 is called once, not n_steps
    # times, and the chunk returns no state, no row and no exponent
    cfg = SDEConfig(1.0, 1.0, 0.01, 25, 3, 8)
    z = _chunk_normals(cfg.seed, 0, cfg.n_paths, cfg.n_steps, 2)
    calls = []

    def stopping(x, dw):
        calls.append(len(x))
        keep = np.zeros(len(x), dtype=bool)
        return x[keep], keep

    v = (lambda x: -np.sum(x ** 2, axis=1)) if with_v else None
    x, rows, exponents = sde._integrate_chunk(cfg, np.ones(2), z, stopping, v)
    assert calls == [cfg.n_paths]
    assert x.shape == (0, 2) and rows.shape == (0,)
    assert (exponents is None) if v is None else exponents.shape == (0,)


def _count_reduced_steps(monkeypatch):
    """The number of rows each reduced step is called on, appended as it runs."""
    real, calls = sde._reduced_step, []

    def counting(lat, g0, cfg):
        step = real(lat, g0, cfg)

        def wrapped(x, dw):
            calls.append(len(x))
            return step(x, dw)
        return wrapped

    monkeypatch.setattr(sde, "_reduced_step", counting)
    return calls


def test_reduced_chunk_aborted_at_step_0_steps_once(monkeypatch):
    # the only path of the chunk sits below the singularity floor: the step
    # runs once, and the path aborts with no endpoint
    calls = _count_reduced_steps(monkeypatch)
    lat = Lattice(1, 2)
    x0 = _start(np.zeros((1, 2)), np.full((2, 2), 1e-7))
    abort, ends = reduced_batch_diagnostics(lat, x0, 0.8, SDEConfig(1.0, 1.0, 1e-3, 10, 1, 1))
    assert calls == [1]
    assert abort == 1.0 and ends.shape == (0, 6)


def test_reduced_chunk_with_non_finite_A_star_steps_once(monkeypatch):
    # A*[0] is NaN and f~ is finite: the finite-A* test stops every path
    # before the first step.  Without it, f~ stays finite (P spreads the NaN
    # over A* only) and the paths run all 50 steps, to abort only at the
    # final finiteness filter, so only the call count tells the two apart
    calls = _count_reduced_steps(monkeypatch)
    lat = Lattice(2, 3)
    A = np.zeros((2, 9))
    A[0, 0] = np.nan
    x0 = _start(A, np.stack([np.ones(9), np.zeros(9)]))
    abort, ends = reduced_batch_diagnostics(lat, x0, 0.8, SDEConfig(1.0, 1.0, 1e-3, 50, 3, 1))
    assert calls == [3]
    assert abort == 1.0 and ends.shape == (0, 36)


# The reduced step, drift and noise map in their earlier row-by-row form,
# kept verbatim as the bitwise reference of sde._reduced_step: that step
# gathered the going rows of A, f, f2 and dw at every step and built
# -g0 Jbar f~ with a stack.  Its stop rule is the current one, g0^2 |f~|^2
# > 0 at every site, in place of the factorization it once made.  Their
# free names (SINGULARITY_FLOOR, jbar, ...) resolve in the namespace
# _frozen_run builds, a copy of orbit's and sde's, so a patched floor
# reaches them, with the frozen maps in place of sde's.

def _frozen_reduced_step(lat, g0, cfg):
    s, V = lat.dim, lat.n_sites
    nA = s * V
    noise = cfg.mu * math.sqrt(cfg.kappa) / lat.spacing ** (s / 2.0)
    pref = cfg.mu ** 2 * cfg.kappa * cfg.dt / lat.spacing ** s
    P = transverse_projector(lat)

    def step(x, dw):
        A, f = x[:, :nA], x[:, nA:].reshape(-1, 2, V)
        f2 = (f ** 2).sum(axis=-2)
        keep = (np.isfinite(A).all(axis=-1) & np.isfinite(f2).all(axis=-1)
                & (f2.min(axis=-1) >= SINGULARITY_FLOOR)
                & ((g0 ** 2 * f2).min(axis=-1) > 0))
        if not keep.any():
            return x[keep], keep
        f = f[keep]
        dw = dw[keep]
        move = pref * scalar_drift(lat, f, g0)
        NdwA = apply_N_f(lat, f, g0, dw[:, :nA])
        new = np.empty((len(dw), s + 2, V))
        new[:, :s] = matvec(P, A[keep] + noise * dw[:, :nA]).reshape(-1, s, V)
        np.add(f + move, noise * (NdwA + dw[:, nA:].reshape(NdwA.shape)),
               out=new[:, s:])
        far = (move * move).sum(axis=-2) > f2[keep]
        if far.any():
            far = far.any(axis=-1)
            keep[np.flatnonzero(keep)[far]] = False
            new = new[~far]
        return new.reshape(len(new), (s + 2) * V), keep

    return step


def _frozen_scalar_drift(lat, f_tilde, g0):
    f_tilde = _nonzero_doublet(lat, f_tilde)
    return (0.5 * g0 ** 2 * np.diagonal(faddeev_popov(lat).green)) * f_tilde


def _frozen_apply_N_f(lat, f_tilde, g0, vA):
    f_tilde = lat.check_doublet(f_tilde, stacked=True)
    gd = matvec(green_divergence(lat), np.reshape(vA, f_tilde.shape[:-2] + (-1,)))
    return -g0 * jbar(f_tilde) * gd[..., None, :]


def _frozen_run(monkeypatch, lat, x0, g0, cfg):
    """reduced_batch_diagnostics with the frozen step and maps."""
    ns = {**vars(orbit), **vars(sde)}
    for name, fn in [("_reduced_step", _frozen_reduced_step),
                     ("scalar_drift", _frozen_scalar_drift),
                     ("apply_N_f", _frozen_apply_N_f)]:
        ns[name] = types.FunctionType(fn.__code__, ns, name)
    with monkeypatch.context() as m:
        m.setattr(sde, "_reduced_step", ns["_reduced_step"])
        return reduced_batch_diagnostics(lat, x0, g0, cfg)


def _poison(monkeypatch):
    real = sde._chunk_normals

    def poisoned(seed, lo, hi, n_steps, dim):
        z = real(seed, lo, hi, n_steps, dim)
        z[1, 5, 0] = z[2, n_steps - 1, -1] = z[4, 0, dim // 2] = np.nan
        return z

    monkeypatch.setattr(sde, "_chunk_normals", poisoned)


def _underflow_start(lat):
    """f~ = (1, 0) but 1e-3 at the last site: with g0 = 1e-160,
    g0^2 |f~|^2 underflows to 0 there."""
    x0 = _uniform_start(lat)
    x0[(lat.dim + 1) * lat.n_sites - 1] = 1e-3
    return x0


_SMALL_G0 = SDEConfig(1.0, 1.0, 1e-2, 20, 6, 4)

# (lattice, g0, cfg, patch, aborts[, start]): the benchmark's reduced
# commands, a raised floor that stops paths part way, NaN-poisoned
# increments, small g0 (D near or past what Cholesky factorizes at 7e-7 and
# 1e-7, g0^2 |f~|^2 subnormal at 1e-160), g0^2 |f~|^2 underflowed to 0 at
# one site, and the far-drift guard at dt = 30, which stops every path at
# step 0; the start is the uniform f~ = (1, 0) unless given
_FROZEN_CASES = {
    "bench-2-4": ((2, 4), 1.0, SDEConfig(1.0, 1.0, 1e-3, 100, 4, 21), None, "none"),
    "bench-3-4": ((3, 4), 1.0, SDEConfig(1.0, 1.0, 1e-3, 100, 2, 22), None, "none"),
    "floor": ((1, 3), 0.8, SDEConfig(1.0, 1.0, 0.03, 20, 24, 2),
              lambda mp: mp.setattr(sde, "SINGULARITY_FLOOR", 0.6), "some"),
    "nan": ((2, 3), 0.8, SDEConfig(1.0, 1.0, 5e-3, 10, 6, 3), _poison, "some"),
    "refused": ((2, 3), 7e-7, _SMALL_G0, None, "none"),
    "g0-1e-7": ((2, 3), 1e-7, _SMALL_G0, None, "none"),
    "subnormal": ((1, 2), 1e-160, _SMALL_G0, None, "none"),
    "underflow": ((1, 2), 1e-160, _SMALL_G0, None, "all", _underflow_start),
    "far": ((1, 3), 0.8, SDEConfig(1.0, 1.0, 30.0, 5, 4, 5), None, "all"),
}


@pytest.mark.parametrize("case", list(_FROZEN_CASES))
def test_reduced_step_is_bitwise_the_frozen_row_by_row_step(monkeypatch, case):
    # endpoints and abort fractions equal those of the frozen reference
    # step, bit for bit, whether every row goes on (keep None) or some stop
    (s, n), g0, cfg, patch, aborts, *start = _FROZEN_CASES[case]
    if patch is not None:
        patch(monkeypatch)
    lat = Lattice(s, n)
    x0 = (start[0] if start else _uniform_start)(lat)
    abort, ends = reduced_batch_diagnostics(lat, x0, g0, cfg)
    ref_abort, ref = _frozen_run(monkeypatch, lat, x0, g0, cfg)
    assert abort == ref_abort
    assert ends.shape == ref.shape and np.array_equal(ends, ref)
    assert {"none": abort == 0.0, "some": 0.0 < abort < 1.0, "all": abort == 1.0}[aborts]


@pytest.mark.parametrize("s,n,g0,factorizes", [(2, 3, 7e-7, True)])
def test_reduced_step_factorizes_states_the_certificate_refuses(monkeypatch, s, n, g0, factorizes):
    # at g0 = 7e-7 on (2, 3) D sits near what Cholesky factorizes in floating
    # point, and the orbit-metric certificate the step once ran refused some
    # of the chunk's states.  A step that factorizes every state first and
    # stops the rows Cholesky refuses gives the endpoints of the step that
    # factorizes nothing, bit for bit: LAPACK accepts every state, so the
    # stop rule w > 0 loses no path a factorizing step keeps
    lat = Lattice(s, n)
    nA, V = lat.dim * lat.n_sites, lat.n_sites
    x0, cfg = _uniform_start(lat), _SMALL_G0
    abort, ends = reduced_batch_diagnostics(lat, x0, g0, cfg)
    real, counts = sde._reduced_step, {"factorized": 0, "refused": 0}

    def factorizing(lat, g0, cfg):
        step = real(lat, g0, cfg)

        def wrapped(x, dw):
            ok = np.ones(len(x), dtype=bool)
            for i, f in enumerate(x[:, nA:].reshape(-1, 2, V)):
                try:
                    orbit.orbit_metric(lat, f, g0)
                except SingularOrbitMetric:
                    ok[i] = False
            counts["factorized"] += int(ok.sum())
            counts["refused"] += int((~ok).sum())
            new, keep = step(x[ok], dw[ok])
            going = np.flatnonzero(ok) if keep is None else np.flatnonzero(ok)[keep]
            keep = np.zeros(len(x), dtype=bool)
            keep[going] = True
            return new, keep
        return wrapped

    monkeypatch.setattr(sde, "_reduced_step", factorizing)
    ref_abort, ref = reduced_batch_diagnostics(lat, x0, g0, cfg)
    assert counts["factorized"] == cfg.n_steps * cfg.n_paths
    assert (counts["refused"] == 0) == factorizes
    assert abort == ref_abort == 0.0
    assert np.array_equal(ends, ref)


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
        assert np.abs(scalar_drift(lat, f, 0.8)).max() <= 1e-14 * np.abs(geo.grad_f / 4).max()
    mu, kappa = 1.3, 0.5
    cfg = SDEConfig(mu, kappa, 0.01, 20, 10_000, 5)
    abort, ends = reduced_batch_diagnostics(lat, _uniform_start(lat), 0.8, cfg)
    assert abort == 0.0
    r2 = np.sum(ends[:, 2:] ** 2, axis=1)
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
    omega = 1.0
    cfg = SDEConfig(1.0, 1.0, 1e-3, 250, 20_000, 13)
    x0 = np.array([0.4])
    est = feynman_kac(lambda x: np.ones(x.shape[0]),
                      lambda x: -0.5 * omega ** 2 * np.sum(x ** 2, axis=1),
                      cfg, x0)
    ref = mehler_value(x0, omega, 1.0, cfg.horizon)
    assert abs(est.mean - ref) <= 3 * est.std_error + 2e-4


@pytest.mark.parametrize("estimator", ["feynman_kac", "girsanov_reweighted"])
def test_feynman_kac_exponent_guard(estimator):
    # every path's exponent (potential integral or Girsanov log density) is
    # beyond the guard: each weight is clipped at exp(700) and flagged
    cfg = SDEConfig(1.0, 1.0, 1e-2, 10, 50, 4)
    one = lambda x: np.ones(x.shape[0])
    if estimator == "feynman_kac":
        est = feynman_kac(one, lambda x: np.full(x.shape[0], 1e5), cfg, np.zeros(1))
    else:
        # drift b = 1e3: log density 1e3 sum dw - 5e5 T, T = 0.1
        est = girsanov_check(cfg, np.zeros(1), lambda x: np.full_like(x, 1e3), one)[1]
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
        ref = sde._reduce_estimate(values)
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
