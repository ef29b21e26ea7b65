"""Ito integration and potential-weighted Monte Carlo expectations.

The original process is a free diffusion on the product configuration space,

    dA = mu sqrt(kappa) dw_A,      df = mu sqrt(kappa) dw_f,

with canonical Wiener increments E[dw(x) dw(y)] = dt delta_xy / h^s (field
increments are plain N(0, dt) scaled by 1/sqrt(h^s)).  Expectations of

    phi0(path end) * exp( (1/(mu^2 kappa)) * int V du )

are estimated over independent paths with trapezoidal quadrature of the
potential integral; exponents beyond +-700 are clipped and the affected
paths are counted rather than silently discarded.

The reduced process lives on the Coulomb surface:

    dA* = mu sqrt(kappa) P dw_A,
    df~ = mu^2 kappa drift_f dt + mu sqrt(kappa) (N_f dw_A + dw_f),

with the closed-form scalar drift of :meth:`.orbit.OrbitGeometry.drift`; the
potential-sector drift is identically zero.  N_f dw_A is the sitewise
product -g0 Jbar f~ (green div dw_A), and the transverse projector is
applied to A* + mu sqrt(kappa) dw_A, which re-projects onto div(A*) = 0
after every step.  :func:`reduced_batch_diagnostics` integrates paths in
chunks whose states are stacked along a leading axis, so each step builds one
stacked :class:`~.orbit.OrbitGeometry` for all live paths of the chunk.  A
path aborts, and is reported in the abort fraction, when a step would start
from a non-finite state, from a minimum sitewise |f~|^2 below the
singularity floor or from an orbit metric that is not positive definite, or
when its final state is non-finite.  Every chunked integrator caps a
chunk's rows so its noise (and, for the reduced process, its per-path
geometry) stays within about _CHUNK_BYTES.

Reproducibility contract: every path draws from its own counter-based
stream, Philox keyed by (seed, path index), so path i's noise does not
depend on n_paths; the batch estimators and the reduced integrator meet it
by re-keying one generator per chunk of paths rather than constructing one
per path.  Per-path results land in preallocated slots and are reduced with
np.sum in path order, and a reduced path's arithmetic does not depend on the
paths stacked with it, so results are bitwise identical for a fixed (config,
seed) regardless of the chunking and the worker thread count (set by the
GAUGE_REDUCE_THREADS environment variable, an integer >= 1, default 1).
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .gauge import FieldPair, AdaptedCoords, green_divergence, transverse_projector
from .lattice import flat, matvec, unflat
from .orbit import OrbitGeometry, SingularOrbitMetric

EXPONENT_GUARD = 700.0
SINGULARITY_FLOOR = 1e-10
ABORT_LIMIT = 0.01
_CHUNK = 4096
_CHUNK_BYTES = 32 * 2 ** 20


@dataclass
class SDEConfig:
    """Integration parameters; total horizon T = dt * n_steps."""

    mu: float
    kappa: float
    dt: float
    n_steps: int
    n_paths: int
    seed: int

    def __post_init__(self):
        if not (self.mu > 0 and self.kappa > 0 and self.dt > 0):
            raise ValueError("mu, kappa, dt must be positive")
        if self.n_steps < 1 or self.n_paths < 1:
            raise ValueError("n_steps and n_paths must be >= 1")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must be a nonnegative 64-bit integer")

    @property
    def horizon(self):
        return self.dt * self.n_steps


@dataclass
class SDEPath:
    """Sampled trajectory with running potential integral."""

    times: np.ndarray
    states: list
    accumulated_potential: np.ndarray
    aborted_at: int | None = None


@dataclass
class FKEstimate:
    """Monte Carlo expectation with statistical error and diagnostics."""

    mean: float
    std_error: float
    n_paths: int
    n_flagged: int = 0
    max_exponent: float = 0.0
    abort_fraction: float = 0.0
    unreliable: bool = False


def path_rng(seed, index):
    """Counter-based per-path generator: Philox keyed by (seed, path index)."""
    key = np.array([int(seed), int(index)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def wiener_increments(n, dt, rng):
    """n i.i.d. normal(0, dt) draws from the given generator."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    return rng.standard_normal(n) * math.sqrt(dt)


def worker_count():
    """Thread-pool size from GAUGE_REDUCE_THREADS (default 1); raises
    ValueError unless it is an integer >= 1."""
    raw = os.environ.get("GAUGE_REDUCE_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 1:
        raise ValueError(
            f"GAUGE_REDUCE_THREADS must be an integer >= 1, got {raw!r}")
    return n


# ----------------------------------------------------------------------
# field-space single steps (spec'd granular operations)
# ----------------------------------------------------------------------

def euler_step_original(lat, p, cfg, rng):
    """One Euler step of the free diffusion on (A, f)."""
    scale = cfg.mu * math.sqrt(cfg.kappa) / lat.spacing ** (lat.dim / 2.0)
    nA = lat.dim * lat.n_sites
    dw = wiener_increments(nA + 2 * lat.n_sites, cfg.dt, rng)
    A = p.A + scale * unflat(dw[:nA], lat.dim, lat.n_sites)
    f = p.f + scale * unflat(dw[nA:], 2, lat.n_sites)
    return FieldPair(A, f, p.g0)


def _steppable(A, f):
    """Which states (A, f) of shape (..., sV) and (..., 2, V) a reduced step
    may start from: A finite, and every sitewise |f~|^2 finite and at or
    above the singularity floor."""
    f2 = f[..., 0, :] ** 2 + f[..., 1, :] ** 2
    return (np.isfinite(A).all(axis=-1) & np.isfinite(f2).all(axis=-1)
            & (f2.min(axis=-1) >= SINGULARITY_FLOOR))


def _reduced_increment(lat, geo, A, cfg, dw):
    """Euler update of the states of ``geo`` (and potentials A, (..., sV))
    with Wiener increments dw, (..., sV + 2V); returns the new (A, f~) as
    (..., sV) and (..., 2, V).  A* has no drift, so one projector
    application gives both the noise P dw_A and the re-projection onto
    div(A*) = 0; N_f dw_A is applied sitewise as -g0 Jbar f~ (green div dw_A)."""
    noise = cfg.mu * math.sqrt(cfg.kappa) / lat.spacing ** (lat.dim / 2.0)
    pref = cfg.mu ** 2 * cfg.kappa * cfg.dt
    nA = lat.dim * lat.n_sites
    dwA, dwf = dw[..., :nA], dw[..., nA:]
    NdwA = -geo.g0 * geo.jf * matvec(green_divergence(lat), dwA)[..., None, :]
    f_new = geo.f_tilde + pref * geo.drift() + noise * (NdwA + dwf.reshape(NdwA.shape))
    return matvec(transverse_projector(lat), A + noise * dwA), f_new


def euler_step_reduced(lat, c, g0, cfg, rng):
    """One Euler step of the reduced dynamics on the Coulomb surface.

    One :class:`OrbitGeometry` supplies both the drift and the sitewise
    noise factor -g0 Jbar f~ of N_f.  A non-finite state or one with
    min |f~|^2 below the singularity floor raises
    :class:`SingularOrbitMetric`, as does a metric that is not positive
    definite.
    """
    A = flat(c.A_star)
    if not _steppable(A, c.f_tilde):
        raise SingularOrbitMetric("reduced step at a degenerate or non-finite state")
    geo = OrbitGeometry(lat, c.f_tilde, g0)
    dw = wiener_increments(A.size + 2 * lat.n_sites, cfg.dt, rng)
    A, f = _reduced_increment(lat, geo, A, cfg, dw)
    return AdaptedCoords(unflat(A, lat.dim, lat.n_sites), f, c.a.copy())


def sample_original_path(lat, p0, cfg, rng, v0=None):
    """Integrate one path of the free field diffusion, tracking the running
    trapezoidal integral of the potential functional."""
    from .gauge import potential
    times = cfg.dt * np.arange(cfg.n_steps + 1)
    states = [p0]
    acc = np.zeros(cfg.n_steps + 1)
    vprev = potential(lat, p0, v0)
    p = p0
    for k in range(cfg.n_steps):
        p = euler_step_original(lat, p, cfg, rng)
        states.append(p)
        vcur = potential(lat, p, v0)
        acc[k + 1] = acc[k] + 0.5 * (vprev + vcur) * cfg.dt
        vprev = vcur
    return SDEPath(times, states, acc)


def sample_reduced_path(lat, c0, g0, cfg, rng, v0=None):
    """Integrate one reduced path; aborts (and records where) at a
    degenerate orbit instead of raising.  The potential integral is
    accumulated for the surface representative (A*, f~)."""
    from .gauge import FieldPair, potential

    def surface_potential(c):
        return potential(lat, FieldPair(c.A_star, c.f_tilde, g0), v0)

    times = cfg.dt * np.arange(cfg.n_steps + 1)
    states = [c0]
    acc = np.zeros(cfg.n_steps + 1)
    vprev = surface_potential(c0)
    c = c0
    for k in range(cfg.n_steps):
        try:
            c = euler_step_reduced(lat, c, g0, cfg, rng)
        except SingularOrbitMetric:
            return SDEPath(times[:k + 1], states, acc[:k + 1], aborted_at=k)
        states.append(c)
        vcur = surface_potential(c)
        acc[k + 1] = acc[k] + 0.5 * (vprev + vcur) * cfg.dt
        vprev = vcur
    return SDEPath(times, states, acc)


# ----------------------------------------------------------------------
# batch estimators on flattened states
# ----------------------------------------------------------------------

def _chunk_normals(seed, lo, hi, n_steps, dim):
    """Standard normals for paths lo..hi-1: row i - lo holds exactly the
    draws of ``path_rng(seed, i).standard_normal((n_steps, dim))``.

    One Philox generator serves the whole chunk.  Before each path it is
    reset to a copy of its unused state (counter 0, empty output buffer)
    with the key set to (seed, i), which is the state ``path_rng``
    constructs, without a fresh bit generator (and its entropy draw) per
    path.  It stays local to the call, so chunks running on different
    threads share no state.
    """
    out = np.empty((hi - lo, n_steps, dim))
    bitgen = np.random.Philox()
    gen = np.random.Generator(bitgen)
    fresh = bitgen.state
    key = fresh["state"]["key"]
    key[0] = seed
    for i in range(lo, hi):
        key[1] = i
        bitgen.state = fresh
        gen.standard_normal(out=out[i - lo])
    return out


def _integrate_chunk(cfg, initial, z, drift, v, phi0, noise_scale,
                     girsanov_drift=None):
    """Euler-integrate one chunk; returns per-path phi0 values, exponents and
    (optionally) the change-of-measure log-density for girsanov_drift."""
    m = z.shape[0]
    sigma = cfg.mu * math.sqrt(cfg.kappa) * noise_scale
    sqdt = math.sqrt(cfg.dt)
    x = np.tile(np.asarray(initial, dtype=float), (m, 1))
    acc = np.zeros(m)
    vprev = v(x) if v is not None else None
    logdens = np.zeros(m) if girsanov_drift is not None else None
    for k in range(cfg.n_steps):
        dw = z[:, k, :] * sqdt
        if girsanov_drift is not None:
            b = girsanov_drift(x)
            logdens += (b * dw).sum(axis=1) / (cfg.mu * math.sqrt(cfg.kappa)) \
                - (b * b).sum(axis=1) * cfg.dt / (2.0 * cfg.mu ** 2 * cfg.kappa)
        if drift is not None:
            x = x + drift(x) * cfg.dt + sigma * dw
        else:
            x = x + sigma * dw
        if v is not None:
            vcur = v(x)
            acc += 0.5 * (vprev + vcur) * cfg.dt
            vprev = vcur
    exponent = acc / (cfg.mu ** 2 * cfg.kappa)
    return phi0(x), exponent, logdens


def _reduce_estimate(values, n_flagged, max_exponent, abort_fraction=0.0):
    """Mean and standard error over the per-path values; unreliable when a
    path was flagged, ABORT_LIMIT or more of the paths aborted, or the
    estimate is not finite (no values at all gives NaN)."""
    n = values.shape[0]
    mean = float(np.sum(values) / n) if n else math.nan
    if n > 1:
        var = float(np.sum((values - mean) ** 2) / (n - 1))
        se = math.sqrt(var / n)
    else:
        se = 0.0 if n else math.nan
    finite = math.isfinite(mean) and math.isfinite(se)
    return FKEstimate(mean, se, n, n_flagged, max_exponent, abort_fraction,
                      unreliable=(n_flagged > 0 or abort_fraction >= ABORT_LIMIT
                                  or not finite))


def feynman_kac(phi0, v, cfg, initial, drift=None, noise_scale=1.0):
    """Estimate E[phi0(x_T) exp((1/mu^2 kappa) int V du)] over cfg.n_paths.

    ``phi0`` and ``v`` take a (batch, d) state array and return (batch,)
    values; ``v=None`` means no weight.  ``drift``, if given, adds
    drift(x) dt to the Euler step.  Deterministic for fixed (cfg, initial)
    regardless of thread count.
    """
    initial = np.asarray(initial, dtype=float).reshape(-1)
    d = initial.size
    values = np.empty(cfg.n_paths)
    exponents = np.zeros(cfg.n_paths)

    def run(lo, hi):
        z = _chunk_normals(cfg.seed, lo, hi, cfg.n_steps, d)
        p, e, _ = _integrate_chunk(cfg, initial, z, drift, v, phi0, noise_scale)
        values[lo:hi] = p
        exponents[lo:hi] = e

    _run_chunks(run, cfg.n_paths, 8 * cfg.n_steps * d)
    n_flagged = int(np.sum(np.abs(exponents) > EXPONENT_GUARD))
    if v is not None:
        weights = np.exp(np.clip(exponents, -EXPONENT_GUARD, EXPONENT_GUARD))
        values = values * weights
    max_exp = float(np.max(np.abs(exponents))) if v is not None else 0.0
    return _reduce_estimate(values, n_flagged, max_exp)


def girsanov_check(cfg, initial, drift_field, phi0, noise_scale=1.0):
    """Drifted expectation vs reweighted driftless expectation.

    Returns (drifted, reweighted) estimates of E[phi0(x_T)].  Both legs use
    the same per-path noise streams, so with drift_field == 0 they coincide
    path by path; the change of measure uses the exact discrete density
    exp{ (1/(mu sqrt(kappa))) sum b . dw - (1/(2 mu^2 kappa)) sum |b|^2 dt }.
    """
    initial = np.asarray(initial, dtype=float).reshape(-1)
    d = initial.size
    v1 = np.empty(cfg.n_paths)
    v2 = np.empty(cfg.n_paths)
    logd = np.empty(cfg.n_paths)

    def run(lo, hi):
        z = _chunk_normals(cfg.seed, lo, hi, cfg.n_steps, d)
        p1, _, _ = _integrate_chunk(cfg, initial, z, drift_field, None, phi0,
                                    noise_scale)
        p2, _, ld = _integrate_chunk(cfg, initial, z, None, None, phi0,
                                     noise_scale, girsanov_drift=drift_field)
        v1[lo:hi] = p1
        v2[lo:hi] = p2
        logd[lo:hi] = ld

    _run_chunks(run, cfg.n_paths, 8 * cfg.n_steps * d)
    n_flagged = int(np.sum(np.abs(logd) > EXPONENT_GUARD))
    weights = np.exp(np.clip(logd, -EXPONENT_GUARD, EXPONENT_GUARD))
    est1 = _reduce_estimate(v1, 0, 0.0)
    est2 = _reduce_estimate(v2 * weights, n_flagged, float(np.max(np.abs(logd))))
    return est1, est2


def weak_convergence_estimates(phi0, drift, initial, mu, kappa, seed, n_paths,
                               dt_values, horizon, noise_scale=1.0):
    """E[phi0(x_T)] at several step sizes with common random numbers.

    dt_values must be integer multiples of the smallest; coarse increments
    are sums of the finest per-path increments, so successive differences of
    the returned estimates isolate the O(dt) Euler drift bias.
    Returns {dt: FKEstimate}.
    """
    initial = np.asarray(initial, dtype=float).reshape(-1)
    d = initial.size
    dts = sorted(dt_values)
    dt_min = dts[0]
    factors = [round(dt / dt_min) for dt in dts]
    if any(abs(dt / dt_min - fac) > 1e-12 for dt, fac in zip(dts, factors)):
        raise ValueError("dt_values must be integer multiples of the smallest")
    n_fine = int(round(horizon / dt_min))
    if n_fine // factors[-1] < 1:
        raise ValueError("horizon must hold at least one step of the largest dt")
    values = {dt: np.empty(n_paths) for dt in dts}

    def run(lo, hi):
        z = _chunk_normals(seed, lo, hi, n_fine, d)
        for dt, fac in zip(dts, factors):
            n_steps = n_fine // fac
            # coarse standard normals: sum fine ones in order, rescale to unit variance;
            # bitwise sum(axis=2) / sqrt(fac) except at d = 1, fac >= 8 (pairwise sum)
            zc = z
            if fac > 1:
                zc = z[:, 0:n_steps * fac:fac].copy()
                for k in range(1, fac):
                    zc += z[:, k:n_steps * fac:fac]
                zc /= math.sqrt(fac)
            cfg = SDEConfig(mu, kappa, dt, n_steps, n_paths, seed)
            p, _, _ = _integrate_chunk(cfg, initial, zc, drift, None, phi0,
                                       noise_scale)
            values[dt][lo:hi] = p

    _run_chunks(run, n_paths, 8 * n_fine * d)
    return {dt: _reduce_estimate(values[dt], 0, 0.0) for dt in dts}


def _geometry_of_rows(lat, f, g0, keep):
    """OrbitGeometry of the states f[keep], after clearing ``keep`` for the
    states whose orbit metric is not positive definite; None if none is
    left."""
    while keep.any():
        try:
            return OrbitGeometry(lat, f[keep], g0)
        except SingularOrbitMetric as exc:
            if not exc.rows.size:
                raise
            keep[np.flatnonzero(keep)[exc.rows]] = False
    return None


def reduced_batch_diagnostics(lat, c0, g0, cfg):
    """Run cfg.n_paths reduced paths; returns (abort_fraction, endpoints).

    Paths are integrated in chunks, each chunk's states stacked along a
    leading axis so one :class:`OrbitGeometry` serves every live path of a
    step.  Path i's noise is row i of the chunk's normals, exactly the
    stream of ``path_rng(seed, i)``, and its arithmetic does not depend on
    which paths share its chunk, so its endpoint is bitwise independent of
    n_paths, the chunking and the thread count.  A path aborts, and its endpoint is
    excluded, when a step would start from a non-finite state, from min
    |f~|^2 below the singularity floor or from an orbit metric that is not
    positive definite, or when its final state is non-finite.
    """
    s, V = lat.dim, lat.n_sites
    d = (s + 2) * V
    A0 = flat(c0.A_star)
    f0 = lat.check_doublet(c0.f_tilde)
    ends_A = np.empty((cfg.n_paths, s * V))
    ends_f = np.empty((cfg.n_paths, 2, V))
    done = np.zeros(cfg.n_paths, dtype=bool)
    sqdt = math.sqrt(cfg.dt)

    def run(lo, hi):
        z = _chunk_normals(cfg.seed, lo, hi, cfg.n_steps, d)
        live = np.arange(hi - lo)
        A = np.tile(A0, (live.size, 1))
        f = np.tile(f0, (live.size, 1, 1))
        # a diverging path overflows before it aborts; the abort accounts for it
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(cfg.n_steps):
                keep = _steppable(A, f)
                geo = _geometry_of_rows(lat, f, g0, keep)
                live = live[keep]
                if geo is None:
                    return
                A, f = _reduced_increment(lat, geo, A[keep], cfg, z[live, k] * sqdt)
        keep = np.isfinite(A).all(axis=-1) & np.isfinite(f).all(axis=(-2, -1))
        paths = lo + live[keep]
        ends_A[paths], ends_f[paths], done[paths] = A[keep], f[keep], True

    # a row holds a path's noise (n_steps x d normals) and at most 8 V x V
    # arrays: the previous step's D, chol and Dinv, still referenced while
    # the next geometry is built, plus its D, chol and three temporaries of
    # the inverse (W and w take at most three beside D, chol and Dinv)
    _run_chunks(run, cfg.n_paths, 8 * (cfg.n_steps * d + 8 * V * V))
    endpoints = [AdaptedCoords(unflat(ends_A[i], s, V), ends_f[i], c0.a.copy())
                 for i in np.flatnonzero(done)]
    return (cfg.n_paths - len(endpoints)) / cfg.n_paths, endpoints


def _run_chunks(run, n_paths, row_bytes):
    """Call run(lo, hi) on worker_count() threads over chunks of the n_paths
    rows, each at most _CHUNK rows and about _CHUNK_BYTES at row_bytes a row."""
    rows = max(1, min(_CHUNK, _CHUNK_BYTES // row_bytes))
    spans = [(lo, min(lo + rows, n_paths)) for lo in range(0, n_paths, rows)]
    workers = worker_count()
    if workers == 1 or len(spans) == 1:
        for lo, hi in spans:
            run(lo, hi)
    else:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            list(ex.map(lambda span: run(*span), spans))
