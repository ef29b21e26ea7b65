"""The three benchmark workloads and the checks on their outputs.

Every workload is a fixed list of operations built from the workload seed.
A run repeats the list ("a pass") on identical inputs, so each pass does the
same work and later passes must reproduce the first byte for byte.

* ``estimator`` -- Monte Carlo estimators against oracles, with no orbit
  geometry: ``compare-oracle`` mehler at 1, 2 and 3 degrees of freedom (the
  3-dof PDE oracle makes ``kolmogorov`` a real share), ``compare-oracle``
  girsanov on the two-site chain, ``simulate`` of the original process with
  the quadratic potential on s=2 N=4 (a 64-dof state) and one
  common-random-numbers sweep ``sde.weak_convergence_estimates``.  Random
  streams and the vectorized Euler loop dominate.
* ``reduced`` -- ``simulate`` of the reduced process, a few paths x 100
  steps on s=2 N=4 (V=16, bound by interpreter overhead) and s=3 N=4 (V=64,
  bound by arithmetic).  Per-step ``orbit`` and ``gauge`` work dominates.
* ``geometry`` -- single-state geometry near the dense cap: ``check`` and
  ``jacobian`` (random source) and ``orbit.reduced_drift`` on random states
  at (3,5) V=125, (3,6) V=216 and (2,16) V=256.  A few large LAPACK/BLAS
  factorizations per call; no Monte Carlo runs.

Oracles used by the checks are closed forms written here, independent of
the package: the Mehler value of the quadratic-potential Feynman-Kac
expectation, the growth 2 + 3 mu^2 kappa T per site of E|f|^2 under the
girsanov drift f/(2|f|^2) (Ito's formula in the plane), and the exact
discrete second moment of the Euler scheme for dx = -x dt + dw.
"""

import csv
import math
from pathlib import Path

import numpy as np

from gaugereduce import gauge, lattice, orbit, runner, sde

STATUS_OK = {"ok", "PASS", "pass"}
SIGMAS = 6.0          # Monte Carlo checks: false alarm rate ~2e-9 per check


def derive(seed, *keys):
    """A 32-bit seed for one operation, derived from the workload seed."""
    ints = [seed] + [k if isinstance(k, int) else int.from_bytes(k.encode(), "little")
                     for k in keys]
    return int(np.random.SeedSequence(ints).generate_state(1)[0])


class Outcome:
    """Result of one operation: timing, failure and correctness findings."""

    def __init__(self, seconds, payload, rc=0):
        self.seconds = seconds
        self.payload = payload
        self.rc = rc           # runner exit code
        self.failed = []       # reasons the operation counts as failed
        self.wrong = []        # reasons its output is incorrect


# ----------------------------------------------------------------------
# operations
# ----------------------------------------------------------------------

class RunnerOp:
    """One ``gauge-reduce`` command on a generated config file."""

    def __init__(self, name, command, config, oracle=None, path_steps=0,
                 geometry_evals=0, warm=None):
        self.name = name
        self.command = command
        self.config = config
        self.oracle = oracle
        self.path_steps = path_steps
        self.geometry_evals = geometry_evals
        self.warm_overrides = warm or {}
        self.kind = {"compare-oracle": "oracle"}.get(command, command)

    def prepare(self, work_dir, index):
        self.out_dir = Path(work_dir) / f"{index:02d}-{self.name}"
        self.cfg_path = self.out_dir.with_suffix(".cfg")
        self._write_config(self.cfg_path, self.config)
        if self.warm_overrides:
            self.warm_path = self.out_dir.with_suffix(".warm.cfg")
            self._write_config(self.warm_path, {**self.config, **self.warm_overrides},
                               out_dir=self.out_dir.with_name(self.out_dir.name + "-warm"))
        else:
            self.warm_path = self.cfg_path

    def _write_config(self, path, config, out_dir=None):
        lines = [f"{k} = {v}" for k, v in config.items()]
        lines.append(f"output_dir = {out_dir or self.out_dir}")
        path.write_text("\n".join(lines) + "\n")

    def warm(self):
        runner.main([self.command, str(self.warm_path)])

    def execute(self, clock):
        csv_path = self.out_dir / (self.command.replace("-", "_") + ".csv")
        csv_path.unlink(missing_ok=True)     # never read a previous pass's file
        t0 = clock()
        rc = runner.main([self.command, str(self.cfg_path)])
        seconds = clock() - t0
        return Outcome(seconds, csv_path.read_bytes() if csv_path.exists() else None, rc)

    def assess(self, out, full):
        """Failure rules, and (with ``full``) the oracle checks."""
        if out.rc != 0:
            out.failed.append(f"exit code {out.rc}")
        if out.payload is None:
            out.wrong.append("no CSV written")
            return
        lines = out.payload.decode().splitlines()
        rows = list(csv.DictReader(lines[1:]))
        if not lines[0].startswith("#") or not rows:
            out.wrong.append("malformed CSV")
            return
        status_key = "verdict" if self.kind == "oracle" else "status"
        for row in rows:
            if row[status_key] not in STATUS_OK:
                out.failed.append(f"{row.get('check_name', self.name)}: {row[status_key]}")
                if self.kind == "check":
                    out.wrong.append(f"invariant {row['check_name']} fails")
            bad = [k for k, v in row.items() if _non_finite(v)]
            if bad:
                out.failed.append(f"non-finite {bad}")
                if row[status_key] in STATUS_OK:
                    out.wrong.append(f"non-finite {bad} reported with status {row[status_key]}")
        if full and self.oracle is not None and not out.failed:
            self.oracle(self, rows, out)


class DriftOp:
    """``orbit.reduced_drift`` on one random state of a prebuilt lattice."""

    kind = "drift"
    path_steps = 0
    geometry_evals = 1

    def __init__(self, name, lat, seed):
        self.name = name
        self.lat = lat
        rng = np.random.default_rng(seed)
        f = rng.standard_normal((2, lat.n_sites))
        self.state = self._coords(f)
        self.f = f

    def _coords(self, f):
        return gauge.AdaptedCoords(np.zeros((self.lat.dim, self.lat.n_sites)), f,
                                   np.zeros(self.lat.n_sites))

    def prepare(self, work_dir, index):
        pass

    def warm(self):
        orbit.reduced_drift(self.lat, self.state, 1.0)

    def execute(self, clock):
        t0 = clock()
        drift = orbit.reduced_drift(self.lat, self.state, 1.0)
        return Outcome(clock() - t0, np.concatenate([d.reshape(-1) for d in drift]).tobytes())

    def assess(self, out, full):
        v = np.frombuffer(out.payload)
        if not np.all(np.isfinite(v)):
            out.failed.append("non-finite drift")
            out.wrong.append("non-finite drift")
            return
        if not full:
            return
        # the drift is covariant under the residual global U(1) and under
        # lattice translations; compare against two further evaluations
        sV = self.lat.dim * self.lat.n_sites
        d_f = v[sV:].reshape(2, -1)
        scale = max(float(np.abs(d_f).max()), 1e-300)
        theta = 0.7
        _, rot = orbit.reduced_drift(self.lat, self._coords(gauge.rotate(self.f, theta)), 1.0)
        shift = self.lat.neighbor_table[:, 0, 0]
        _, tra = orbit.reduced_drift(self.lat, self._coords(self.f[:, shift]), 1.0)
        err = max(float(np.abs(rot - gauge.rotate(d_f, theta)).max()),
                  float(np.abs(tra - d_f[:, shift]).max())) / scale
        if not err <= 1e-9:
            out.wrong.append(f"drift covariance residual {err:.3e}")
        if float(np.abs(v[:sV]).max()) > 1e-9 * scale:
            out.wrong.append("potential-sector drift is not zero")


class WeakSweepOp:
    """One common-random-numbers sweep ``sde.weak_convergence_estimates`` for
    dx = -x dt + dw in two dimensions, observable |x_T|^2."""

    name = "weak-sweep"
    kind = "weak"
    geometry_evals = 0
    DTS = (0.004, 0.002, 0.001)
    HORIZON = 0.2

    def __init__(self, seed, n_paths):
        self.seed = seed
        self.n_paths = n_paths
        self.path_steps = n_paths * sum(int(round(self.HORIZON / dt)) for dt in self.DTS)

    def prepare(self, work_dir, index):
        pass

    def _run(self, n_paths):
        return sde.weak_convergence_estimates(
            lambda x: np.sum(x ** 2, axis=1), lambda x: -x, np.ones(2), 1.0, 1.0,
            self.seed, n_paths, list(self.DTS), self.HORIZON)

    def warm(self):
        self._run(64)

    def execute(self, clock):
        t0 = clock()
        est = self._run(self.n_paths)
        seconds = clock() - t0
        return Outcome(seconds, np.array([[dt, est[dt].mean, est[dt].std_error]
                                          for dt in self.DTS]).tobytes())

    def assess(self, out, full):
        rows = np.frombuffer(out.payload).reshape(-1, 3)
        if not np.all(np.isfinite(rows)):
            out.failed.append("non-finite estimate")
            out.wrong.append("non-finite estimate")
            return
        if not full:
            return
        for dt, mean, se in rows:
            m = 1.0                     # exact Euler recursion per dimension
            for _ in range(int(round(self.HORIZON / dt))):
                m = (1.0 - dt) ** 2 * m + dt
            if abs(mean - 2.0 * m) > SIGMAS * se:
                out.wrong.append(f"weak sweep dt={dt}: {mean} vs exact {2.0 * m}")


def _non_finite(cell):
    try:
        return not math.isfinite(float(cell))
    except ValueError:
        return False


# ----------------------------------------------------------------------
# oracles
# ----------------------------------------------------------------------

def _mehler(x0, omega, T):
    """E[exp(-(omega^2/2) int |x|^2)] for unit-rate Brownian motion from x0."""
    x0 = np.asarray(x0, dtype=float)
    return float(math.cosh(omega * T) ** (-x0.size / 2.0)
                 * math.exp(-0.5 * omega * math.tanh(omega * T) * float(x0 @ x0)))


def _oracle_mehler(op, rows, out):
    c = op.config
    T = c["sde.dt"] * c["sde.n_steps"]
    exact = _mehler(np.zeros(c["oracle.dof"]), c["oracle.omega"], T)
    row = rows[0]
    mc, se = float(row["mc_mean"]), float(row["mc_std_error"])
    pde, budget = float(row["reference"]), float(row["budget"])
    if abs(pde - exact) > budget:
        out.wrong.append(f"PDE oracle {pde} off closed form {exact} beyond budget {budget}")
    if abs(mc - exact) > SIGMAS * se:
        out.wrong.append(f"MC mean {mc} off closed form {exact} by > {SIGMAS} se")


def _oracle_girsanov(op, rows, out):
    c = op.config
    T = c["sde.dt"] * c["sde.n_steps"]
    exact = 2.0 + 2 * 3.0 * T          # two sites, |f0|^2 = 1, mu = kappa = 1
    mc, se = float(rows[0]["mc_mean"]), float(rows[0]["mc_std_error"])
    # Euler adds O(dt T) to E|f|^2 through the |drift|^2 dt^2 term
    if abs(mc - exact) > SIGMAS * se + c["sde.dt"]:
        out.wrong.append(f"drifted mean {mc} off exact {exact}")


def _oracle_original(op, rows, out):
    c = op.config
    T = c["sde.dt"] * c["sde.n_steps"]
    V = c["lattice.sites_per_dim"] ** c["lattice.dim"]
    x0 = np.zeros((c["lattice.dim"] + 2) * V)
    x0[c["lattice.dim"] * V:(c["lattice.dim"] + 1) * V] = 1.0
    exact = _mehler(x0, c["simulate.omega"], T)
    mc, se = float(rows[0]["mean"]), float(rows[0]["std_error"])
    if abs(mc - exact) > SIGMAS * se:
        out.wrong.append(f"simulate mean {mc} off closed form {exact}")


def _oracle_jacobian(op, rows, out):
    row = {k: float(v) for k, v in rows[0].items() if k != "status"}
    seed = op.config["sde.seed"]
    n = op.config["lattice.sites_per_dim"] ** op.config["lattice.dim"]
    f = np.random.Generator(np.random.Philox(key=[seed, 0])).standard_normal((2, n))
    f2 = f[0] ** 2 + f[1] ** 2
    J = -0.125 * (row["laplace_term"] + 0.25 * row["grad_term"])
    for got, want, what in ((row["f_mean_sq"], f2.mean(), "f_mean_sq"),
                            (row["f_min_sq"], f2.min(), "f_min_sq"),
                            (row["f_max_sq"], f2.max(), "f_max_sq"),
                            (row["J"], J, "J"), (row["V_correction"], J, "V_correction")):
        if abs(got - want) > 1e-9 * max(abs(want), 1e-12):
            out.wrong.append(f"jacobian {what} {got} != {want}")


# ----------------------------------------------------------------------
# workload definitions
# ----------------------------------------------------------------------

_FIELDS = {"fields.g0": 1.0, "fields.mu": 1.0, "fields.kappa": 1.0, "fields.m": 1.0}
_MC_WARM = {"sde.n_paths": 64, "sde.n_steps": 10}


def estimator(seed):
    ops = []
    for dof, grid in ((1, 201), (2, 81), (3, 41)):
        cfg = {**_FIELDS, "oracle.kind": "mehler", "oracle.dof": dof,
               "oracle.grid_points": grid, "oracle.halfwidth": 5.0,
               "oracle.omega": 1.0, "oracle.x0": 0.0, "sde.dt": 0.0025,
               "sde.n_steps": 100, "sde.n_paths": 10000,
               "sde.seed": derive(seed, "mehler", dof)}
        ops.append(RunnerOp(f"mehler-dof{dof}", "compare-oracle", cfg, _oracle_mehler,
                            path_steps=10000 * 100, warm=_MC_WARM))
    cfg = {**_FIELDS, "oracle.kind": "girsanov", "sde.dt": 0.001, "sde.n_steps": 100,
           "sde.n_paths": 10000, "sde.seed": derive(seed, "girsanov")}
    ops.append(RunnerOp("girsanov", "compare-oracle", cfg, _oracle_girsanov,
                        path_steps=2 * 10000 * 100, warm=_MC_WARM))
    cfg = {**_FIELDS, "lattice.dim": 2, "lattice.sites_per_dim": 4,
           "sde.process": "original", "simulate.potential": "quadratic",
           "simulate.omega": 1.0, "simulate.phi0": "one", "sde.dt": 0.001,
           "sde.n_steps": 100, "sde.n_paths": 2500, "sde.seed": derive(seed, "original")}
    ops.append(RunnerOp("simulate-original", "simulate", cfg, _oracle_original,
                        path_steps=2500 * 100, warm=_MC_WARM))
    ops.append(WeakSweepOp(derive(seed, "weak"), 10000))
    return ops, []


def reduced(seed):
    ops = []
    for dim, n_paths in ((2, 4), (3, 2)):
        cfg = {**_FIELDS, "lattice.dim": dim, "lattice.sites_per_dim": 4,
               "sde.process": "reduced", "simulate.phi0": "sum_squares",
               "sde.dt": 0.001, "sde.n_steps": 100, "sde.n_paths": n_paths,
               "sde.seed": derive(seed, "reduced", dim)}
        ops.append(RunnerOp(f"reduced-s{dim}", "simulate", cfg,
                            path_steps=n_paths * 100, geometry_evals=n_paths * 100,
                            warm={"sde.n_paths": 1, "sde.n_steps": 2}))
    return ops, [(2, 4), (3, 4)]


def geometry(seed):
    ops = []
    shapes = [(3, 5), (3, 6), (2, 16)]
    for dim, n in shapes:
        cfg = {**_FIELDS, "lattice.dim": dim, "lattice.sites_per_dim": n,
               "sde.seed": derive(seed, "check", dim, n)}
        ops.append(RunnerOp(f"check-{dim}-{n}", "check", cfg))
        cfg = {**_FIELDS, "lattice.dim": dim, "lattice.sites_per_dim": n,
               "jacobian.source": "random", "jacobian.random_scale": 1.0,
               "sde.seed": derive(seed, "jacobian", dim, n)}
        ops.append(RunnerOp(f"jacobian-{dim}-{n}", "jacobian", cfg, _oracle_jacobian,
                            geometry_evals=1))
        lat = lattice.Lattice(dim, n)
        for k in range(3):
            ops.append(DriftOp(f"drift-{dim}-{n}-{k}", lat, derive(seed, "drift", dim, n, k)))
    return ops, shapes


def build(workload, seed, work_dir):
    """Operations of a workload plus the lattice shapes to warm up."""
    ops, shapes = {"estimator": estimator, "reduced": reduced,
                   "geometry": geometry}[workload](seed)
    for i, op in enumerate(ops):
        op.prepare(work_dir, i)
    return ops, shapes


def warm_up(ops, shapes):
    """Assemble the lattice operators and run every operation once."""
    for dim, n in shapes:
        gauge.transverse_projector(lattice.Lattice(dim, n))
    for op in ops:
        op.warm()
