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
    df~ = (mu^2 kappa / h^s) drift_f dt + mu sqrt(kappa) (N_f dw_A + dw_f),

with drift_f = 1/2 g0^2 green(x, x) f~ of :func:`.orbit.scalar_drift`, the
Ito term of the Coulomb rotation under increments of variance dt / h^s; the
potential-sector drift is identically zero.

One Euler loop, :func:`_integrate_chunk`, integrates both processes in
chunks of paths whose flat states are stacked along a leading axis.  The
process is its step callable ``step(x, dw) -> (x, keep)``: a flat process
steps x + drift(x) dt + sigma dw, and the reduced step of
:func:`_reduced_step` stops a path only on what it computes (a non-finite
state, |f~|^2 below the floor, g0^2 |f~|^2 underflowed to 0 at a site, or
a drift step beyond the scale of f~), so it never assembles the orbit
metric; stopped paths are reported in the abort fraction, and when the
whole chunk goes on at once the step gathers no rows and returns ``keep``
None.  A chunk with no path left stops, and its rows are capped so its
noise and step arrays stay within about _CHUNK_BYTES.

Reproducibility contract: every path draws from its own counter-based
stream, Philox keyed by (seed, path index), so path i's noise does not
depend on n_paths; the batch estimators and the reduced integrator meet it
by re-keying one generator per chunk of paths rather than constructing one
per path.  Per-path results land in preallocated slots and are reduced with
np.sum in path order, and a reduced path's arithmetic does not depend on the
paths stacked with it, so results are bitwise identical for a fixed (config,
seed) regardless of the chunking and the worker thread count (set by the
GAUGE_REDUCE_THREADS environment variable, an integer >= 1, default 1).
The Euler loop reads a step's normals as one record of d doubles a path,
and :func:`_row_sum` sums rows narrower than 8 column by column, in the
order np.sum(axis=1) adds them there; both keep every bit.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .gauge import transverse_projector
from .lattice import matvec
from .orbit import apply_N_f, scalar_drift

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
# batch estimators on flattened states
# ----------------------------------------------------------------------

def _chunk_normals(seed, lo, hi, n_steps, dim):
    """Standard normals for paths lo..hi-1: row i - lo holds exactly the
    draws of ``path_rng(seed, i).standard_normal((n_steps, dim))``.

    One Philox generator serves the whole chunk.  Before each path it is
    reset to the unused state (counter 0, empty output buffer) with the key
    set to (seed, i), which is the state ``path_rng`` constructs, without a
    fresh bit generator (and its entropy draw) per path.  The state is given
    in plain Python ints and lists, which the setter reads faster than
    numpy arrays.  It stays local to the call, so chunks running on
    different threads share no state.
    """
    out = np.empty((hi - lo, n_steps, dim))
    bitgen = np.random.Philox()
    gen = np.random.Generator(bitgen)
    key = [int(seed), 0]
    fresh = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": key},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for i in range(lo, hi):
        key[1] = i
        bitgen.state = fresh
        gen.standard_normal(out=out[i - lo])
    return out


def _row_sum(a):
    """np.sum(a, axis=1) of a 2-d array, byte for byte.

    Below 8 columns numpy adds a row's entries in order into a zero, which
    a loop over the columns repeats without numpy's per-row overhead; from
    8 columns on numpy sums pairwise, so it is called as is.
    """
    if a.shape[1] >= 8:
        return np.sum(a, axis=1)
    out = np.zeros(a.shape[0])
    for j in range(a.shape[1]):
        out += a[:, j]
    return out


def _integrate_chunk(cfg, initial, z, step, v=None):
    """Euler-integrate one chunk of paths from the flat state ``initial``, (d,).

    ``z`` holds the chunk's standard normals, (rows, n_steps, d), with its
    last axis contiguous.  Each step calls ``step(x, dw) -> (x, keep)`` on
    the states of the rows still going, (rows, d), and their Wiener
    increments; ``keep`` masks the rows of the given x that go on (the
    returned x holds only those), or is None when all do.  ``v``, if given,
    is integrated along each path by the trapezoidal rule.  Returns the
    final states, the chunk rows they belong to and those rows' exponents
    (1/mu^2 kappa) int v du (None without ``v``); ``step`` never sees an
    empty chunk, as the loop stops once no row is left.

    A step reads its normals with a path's d of them as one record, so
    numpy copies one record a row instead of iterating over rows of a few
    doubles; the increments are z[rows, k] * sqrt(dt) bit for bit.
    """
    m, _, d = z.shape
    sqdt = math.sqrt(cfg.dt)
    records = z.view(np.dtype((np.void, z.itemsize * d)))[..., 0]     # (m, n_steps)

    def increments(k):      # no name holds a step's increments once the step returns
        dw = (records[:, k].copy() if rows.size == m else records[rows, k]).view(z.dtype)
        dw *= sqdt
        return dw.reshape(-1, d)

    x = np.tile(initial, (m, 1))
    rows = np.arange(m)
    if v is not None:
        acc, vprev = np.zeros(m), v(x)
    for k in range(cfg.n_steps):
        x, keep = step(x, increments(k))
        if keep is not None:
            rows = rows[keep]
        if v is not None:
            if keep is not None:
                acc, vprev = acc[keep], vprev[keep]
            vcur = v(x)
            acc += 0.5 * (vprev + vcur) * cfg.dt
            vprev = vcur
        if not rows.size:
            break
    return x, rows, (acc / (cfg.mu ** 2 * cfg.kappa) if v is not None else None)


def _flat_step(cfg, drift, noise_scale):
    """Euler step x + drift(x) dt + mu sqrt(kappa) noise_scale dw of a flat
    vector process (no drift term when ``drift`` is None); no row stops."""
    sigma = cfg.mu * math.sqrt(cfg.kappa) * noise_scale
    if drift is None:
        return lambda x, dw: (x + sigma * dw, None)
    return lambda x, dw: (x + drift(x) * cfg.dt + sigma * dw, None)


def _reduce_estimate(values, exponents=None, abort_fraction=0.0):
    """Mean and standard error of the per-path values, weighted by exp(exponents)
    clipped at +-EXPONENT_GUARD when given; unreliable when an exponent was
    clipped (flagged), ABORT_LIMIT or more of the paths aborted, or the
    estimate is not finite (no values at all gives NaN)."""
    n_flagged, max_exponent = 0, 0.0
    if exponents is not None:
        n_flagged = int(np.sum(np.abs(exponents) > EXPONENT_GUARD))
        max_exponent = float(np.max(np.abs(exponents)))
        values = values * np.exp(np.clip(exponents, -EXPONENT_GUARD, EXPONENT_GUARD))
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
    step = _flat_step(cfg, drift, noise_scale)

    def run(lo, hi):
        z = _chunk_normals(cfg.seed, lo, hi, cfg.n_steps, d)
        x, _, exponents[lo:hi] = _integrate_chunk(cfg, initial, z, step, v)
        values[lo:hi] = phi0(x)

    _run_chunks(run, cfg.n_paths, 8 * cfg.n_steps * d)
    return _reduce_estimate(values, exponents if v is not None else None)


def girsanov_check(cfg, initial, drift_field, phi0):
    """Drifted expectation vs reweighted driftless expectation.

    Returns (drifted, reweighted) estimates of E[phi0(x_T)].  Both legs use
    the same per-path noise streams, so with drift_field == 0 they coincide
    path by path; the change of measure uses the exact discrete density
    exp{ (1/(mu sqrt(kappa))) sum b . dw - (1/(2 mu^2 kappa)) sum |b|^2 dt }.
    """
    initial = np.asarray(initial, dtype=float).reshape(-1)
    d = initial.size
    v1, v2 = np.empty((2, cfg.n_paths))
    logd = np.zeros(cfg.n_paths)
    drifted = _flat_step(cfg, drift_field, 1.0)
    driftless = _flat_step(cfg, None, 1.0)

    def run(lo, hi):
        z = _chunk_normals(cfg.seed, lo, hi, cfg.n_steps, d)
        v1[lo:hi] = phi0(_integrate_chunk(cfg, initial, z, drifted)[0])
        ld = logd[lo:hi]

        def reweighted(x, dw):
            b = drift_field(x)
            ld[...] += _row_sum(b * dw) / (cfg.mu * math.sqrt(cfg.kappa)) \
                - _row_sum(b * b) * cfg.dt / (2.0 * cfg.mu ** 2 * cfg.kappa)
            return driftless(x, dw)

        v2[lo:hi] = phi0(_integrate_chunk(cfg, initial, z, reweighted)[0])

    _run_chunks(run, cfg.n_paths, 8 * cfg.n_steps * d)
    return _reduce_estimate(v1), _reduce_estimate(v2, logd)


def weak_convergence_estimates(phi0, drift, initial, mu, kappa, seed, n_paths,
                               dt_values, horizon):
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
            x, _, _ = _integrate_chunk(cfg, initial, zc, _flat_step(cfg, drift, 1.0))
            values[dt][lo:hi] = phi0(x)

    _run_chunks(run, n_paths, 8 * n_fine * d)
    return {dt: _reduce_estimate(values[dt]) for dt in dts}


def _reduced_step(lat, g0, cfg):
    """Euler step of the reduced process for :func:`_integrate_chunk`, on flat
    states (A*, f~1, f~2) of (s + 2)V entries.

    A row stops before the step when its A* or a sitewise |f~|^2 is not
    finite, when its min |f~|^2 is below the singularity floor or when
    w = g0^2 |f~|^2 is 0 at a site; it stops after the step when one drift
    displacement mu^2 kappa dt |drift_f| / h^s exceeds |f~| at a site, since
    the Euler step has then left the scale on which the drift was evaluated.
    The orbit metric is D = -div o grad + diag(w), and -div o grad = G^T G
    is positive semidefinite, so w > 0 at every site gives v^T D v >=
    sum_x w(x) v(x)^2 > 0 for every v != 0: D is positive definite exactly,
    and only a w that underflows to 0 (the floor keeps |f~|^2 away from 0)
    can leave it singular.  The step never assembles D, let alone factorizes it: the
    drift (:func:`~.orbit.scalar_drift`) and the scalar-sector noise
    N_f dw_A (:func:`~.orbit.apply_N_f`, the map ``check`` verifies) read no
    orbit metric.  The tests run first on the whole chunk; when it passes,
    the chunk's arrays are stepped as they are and ``keep`` is None, and
    only otherwise are rows tested one by one and the going ones gathered.
    A* has no drift, so one projector application gives both the noise
    P dw_A and the re-projection onto div(A*) = 0.
    """
    s, V = lat.dim, lat.n_sites
    nA = s * V
    noise = cfg.mu * math.sqrt(cfg.kappa) / lat.spacing ** (s / 2.0)
    pref = cfg.mu ** 2 * cfg.kappa * cfg.dt / lat.spacing ** s
    P = transverse_projector(lat)

    def step(x, dw):
        A, f = x[:, :nA], x[:, nA:].reshape(-1, 2, V)
        f2 = (f ** 2).sum(axis=-2)
        w = g0 ** 2 * f2
        keep = None
        if not (np.isfinite(A).all() and np.isfinite(f2).all()
                and f2.min() >= SINGULARITY_FLOOR and w.min() > 0):
            keep = (np.isfinite(A).all(axis=-1) & np.isfinite(f2).all(axis=-1)
                    & (f2.min(axis=-1) >= SINGULARITY_FLOOR) & (w.min(axis=-1) > 0))
            if not keep.any():
                return x[keep], keep
            A, f, f2, dw = A[keep], f[keep], f2[keep], dw[keep]
        move = pref * scalar_drift(lat, f, g0)
        NdwA = apply_N_f(lat, f, g0, dw[:, :nA])
        new = np.empty((len(dw), s + 2, V))
        new[:, :s] = matvec(P, A + noise * dw[:, :nA]).reshape(-1, s, V)
        np.add(f + move, noise * (NdwA + dw[:, nA:].reshape(NdwA.shape)),
               out=new[:, s:])
        far = (move * move).sum(axis=-2) > f2
        if far.any():
            far = far.any(axis=-1)
            if keep is None:
                keep = np.ones(len(x), dtype=bool)
            keep[np.flatnonzero(keep)[far]] = False
            new = new[~far]
        return new.reshape(len(new), (s + 2) * V), keep

    return step


def reduced_batch_diagnostics(lat, initial, g0, cfg):
    """Run cfg.n_paths reduced paths from the flat state ``initial`` =
    (A*, f~1, f~2) of (s + 2)V entries; returns (abort_fraction, ends).

    ``ends`` holds the completed paths' final flat states, one row each in
    path order: ends[:, :sV] is A* and ends[:, sV:] is f~.  A path's
    arithmetic does not depend on which paths share its chunk, so its row
    is bitwise independent of n_paths, the chunking and the thread count.
    A path aborts, and has no row, when :func:`_reduced_step` stops it or
    when its final state is non-finite.
    """
    V = lat.n_sites
    d = (lat.dim + 2) * V
    if np.shape(initial) != (d,):
        raise ValueError(f"reduced initial state must have shape {(d,)}, got {np.shape(initial)}")
    ends = np.empty((cfg.n_paths, d))
    done = np.zeros(cfg.n_paths, dtype=bool)
    step = _reduced_step(lat, g0, cfg)

    def run(lo, hi):
        z = _chunk_normals(cfg.seed, lo, hi, cfg.n_steps, d)
        # a path may overflow in the step that stops it; the abort accounts for it
        with np.errstate(over="ignore", invalid="ignore"):
            x, rows, _ = _integrate_chunk(cfg, initial, z, step)
        keep = np.isfinite(x).all(axis=-1)
        ends[lo + rows[keep]] = x[keep]
        done[lo + rows[keep]] = True

    # a row holds a path's noise (n_steps x d normals) and one step's
    # states, increments and temporaries, a few d-vectors; no row holds an
    # orbit metric (tracemalloc beyond the noise: 7.0 d from (2, 3) to
    # (3, 6), 8.1 to 8.2 d on (1, 2) and (1, 3), whose rows are narrowest)
    _run_chunks(run, cfg.n_paths, 8 * (cfg.n_steps * d + 9 * d))
    ends = ends[done]
    return (cfg.n_paths - len(ends)) / cfg.n_paths, ends


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
