"""Batch front end: config parsing, invariant checks, simulations, CSV output.

Config files are flat ``key = value`` text with dotted section keys::

    lattice.dim = 2
    lattice.sites_per_dim = 4
    fields.g0 = 0.8
    sde.n_paths = 10000
    output_dir = out

Unknown keys are rejected.  Each command writes one RFC-4180 CSV file into
``output_dir``; the first line is a ``#`` provenance comment carrying the
package version, the SHA-256 of the canonicalized config and the seed, so
identical (config, seed, version) runs produce byte-identical files: every
path draws from a Philox stream keyed (seed, path index), which the
estimators meet by re-keying one generator per chunk of paths.  The
environment variable GAUGE_REDUCE_THREADS (an integer >= 1, default 1) sets
the worker count used by the path estimators; any other value is a config
error.  Exit codes: 0 success, 1 check/estimate failure, 2 config error.
"""

import argparse
import csv
import hashlib
import io
import math
import sys
from dataclasses import dataclass
from functools import cache, cached_property
from pathlib import Path

import numpy as np

from . import __version__
from .gauge import (FieldPair, faddeev_popov, from_adapted, gauge_transform,
                    killing_vector, potential, to_adapted, transverse_projector)
from .kolmogorov import compare, discretization_budget
from .lattice import MAX_DENSE_SITES, Lattice, LatticeSpec, flat
from .orbit import (OrbitGeometry, SingularOrbitMetric, apply_N_f, horizontal_metric,
                    orbit_metric)
from .sde import (SINGULARITY_FLOOR, SDEConfig, _reduce_estimate, _row_sum, feynman_kac,
                  girsanov_check, path_rng, reduced_batch_diagnostics, worker_count)


class ConfigError(Exception):
    """Invalid or unparsable experiment configuration."""


# key -> (type, default); None default means required
_SCHEMA = {
    "lattice.dim": (int, 2),
    "lattice.sites_per_dim": (int, 4),
    "lattice.spacing": (float, 1.0),
    "fields.g0": (float, 1.0),
    "fields.mu": (float, 1.0),
    "fields.kappa": (float, 1.0),
    "fields.m": (float, 1.0),
    "sde.dt": (float, 1e-3),
    "sde.n_steps": (int, 100),
    "sde.n_paths": (int, 1000),
    "sde.seed": (int, 1),
    "sde.process": (str, "original"),
    "jacobian.source": (str, "uniform"),
    "jacobian.uniform_f1": (float, 1.0),
    "jacobian.uniform_f2": (float, 0.0),
    "jacobian.random_scale": (float, 1.0),
    "simulate.phi0": (str, "one"),
    "simulate.potential": (str, "zero"),
    "simulate.omega": (float, 1.0),
    "oracle.kind": (str, "mehler"),
    "oracle.dof": (int, 1),
    "oracle.grid_points": (int, 201),
    "oracle.halfwidth": (float, 5.0),
    "oracle.omega": (float, 1.0),
    "oracle.x0": (float, 0.0),
    "output_dir": (str, "out"),
}

_POSITIVE = {
    "lattice.spacing", "fields.g0", "fields.mu", "fields.kappa", "fields.m",
    "sde.dt", "simulate.omega", "oracle.omega", "oracle.halfwidth",
}

_CHOICES = {
    "sde.process": {"original", "reduced"},
    "jacobian.source": {"uniform", "random"},
    "simulate.phi0": {"one", "sum_squares"},
    "simulate.potential": {"zero", "quadratic"},
    "oracle.kind": {"mehler", "girsanov"},
}


class ExperimentConfig:
    """Validated flat configuration; values accessible by dotted key."""

    def __init__(self, values, explicit=frozenset()):
        self.values = values
        self.explicit = explicit     # keys set in the text, not defaulted

    def __getitem__(self, key):
        return self.values[key]

    @property
    def config_hash(self):
        canon = "\n".join(f"{k}={self.values[k]}" for k in sorted(self.values))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]

    def lattice(self):
        return Lattice(LatticeSpec(self["lattice.dim"],
                                   self["lattice.sites_per_dim"],
                                   self["lattice.spacing"]))

    def dense_lattice(self):
        """The lattice of a command that builds dense operators, refused above the cap."""
        lat = self.lattice()
        if lat.n_sites > MAX_DENSE_SITES:
            raise ConfigError(f"dense operators refused for V={lat.n_sites} > {MAX_DENSE_SITES}")
        return lat

    def sde(self):
        return SDEConfig(self["fields.mu"], self["fields.kappa"],
                         self["sde.dt"], self["sde.n_steps"],
                         self["sde.n_paths"], self["sde.seed"])


def parse_config(text):
    """Parse and validate a flat key/value config; strict on unknown keys."""
    values = {k: d for k, (_, d) in _SCHEMA.items()}
    explicit = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        typ, _ = _SCHEMA[key]
        explicit.add(key)
        try:
            values[key] = typ(val)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from exc
        if typ is float and not math.isfinite(values[key]):
            raise ConfigError(f"line {lineno}: {key} must be finite, got {val!r}")
    for key in _POSITIVE:
        if not values[key] > 0:
            raise ConfigError(f"{key} must be positive, got {values[key]}")
    for key, allowed in _CHOICES.items():
        if values[key] not in allowed:
            raise ConfigError(f"{key} must be one of {sorted(allowed)}")
    config = ExperimentConfig(values, frozenset(explicit))
    try:
        LatticeSpec(values["lattice.dim"], values["lattice.sites_per_dim"],
                    values["lattice.spacing"])
        config.sde()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return config


def load_config(path):
    return parse_config(Path(path).read_text())


def read_field_file(path):
    """Field file: header line ``dim N kind``, then one line per site.  A file
    that cannot be read or parsed, or holds a non-finite entry, is a config error."""
    try:
        lines = [ln.split() for ln in Path(path).read_text().splitlines() if ln.strip()]
        dim, n, kind = lines[0]
        dim, n = int(dim), int(n)
        data = np.array([[float(tok) for tok in ln] for ln in lines[1:]])
    except IndexError:
        raise ConfigError(f"field file {path} is empty") from None
    except (OSError, ValueError) as exc:
        raise ConfigError(f"field file {path}: {exc}") from None
    if kind not in ("scalar", "vector", "doublet"):
        raise ConfigError(f"unknown field kind {kind!r}")
    comps = {"scalar": 1, "vector": dim, "doublet": 2}[kind]
    if data.shape != (n ** dim, comps):
        raise ConfigError(f"field file shape {data.shape} != ({n ** dim}, {comps}) for {kind}")
    if not np.isfinite(data).all():
        raise ConfigError(f"field file {path} has a non-finite entry")
    return dim, n, kind, data.T.copy()


def _write_csv(config, name, header, rows):
    out = Path(config["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    buf = io.StringIO()
    buf.write(f"# gaugereduce-{__version__} config_sha256={config.config_hash} "
              f"seed={config['sde.seed']}\r\n")
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    path = out / f"{name}.csv"
    path.write_bytes(buf.getvalue().encode())
    return path


def _field_from_source(config, lat):
    src = config["jacobian.source"]
    if src == "uniform":
        f = np.stack([np.full(lat.n_sites, config["jacobian.uniform_f1"]),
                      np.full(lat.n_sites, config["jacobian.uniform_f2"])])
    else:
        rng = path_rng(config["sde.seed"], 0)
        f = config["jacobian.random_scale"] * rng.standard_normal((2, lat.n_sites))
    return f


@dataclass
class InvariantSample:
    """One draw for :data:`INVARIANTS`: a configuration, a gauge parameter and
    a tangent pair (vA, vf); each derived piece is built on first read."""

    lat: Lattice
    p: FieldPair
    eps: np.ndarray = None
    tangent: tuple = None
    c = cached_property(lambda x: to_adapted(x.lat, x.p))
    geo = cached_property(lambda x: OrbitGeometry(x.lat, x.p.f, x.p.g0))
    fp = cached_property(lambda x: faddeev_popov(x.lat))
    P = cached_property(lambda x: transverse_projector(x.lat))


def _frame_kills_gauge(x):
    """(P, N_f) K(eps) = 0 for eps in range(Phi), with the reduced step's N_f."""
    kA, kf = killing_vector(x.lat, x.p, x.fp.range_projector() @ x.eps)
    return np.max([np.abs(x.P @ flat(kA)).max(),
                   np.abs(apply_N_f(x.lat, x.p.f, x.p.g0, kA) + kf).max()])


def _round_trip(x):
    q = from_adapted(x.lat, x.c, x.p.g0)
    return np.max([np.abs(q.A - x.p.A).max(), np.abs(q.f - x.p.f).max()])


def _gauge_invariance(x):
    v1 = potential(x.lat, x.p)
    return abs(potential(x.lat, gauge_transform(x.lat, x.p, x.eps)) - v1) / (1.0 + abs(v1))


def _sigma_gradient_fd(x):
    lat, f, g0, d, errors = x.lat, x.p.f, x.p.g0, 1e-5, []
    for a, site in [(0, 0), (1, lat.n_sites // 2)]:
        e = np.zeros_like(f); e[a, site] = d
        fd = (orbit_metric(lat, f + e, g0).logdet - orbit_metric(lat, f - e, g0).logdet) / (2 * d)
        errors.append(abs(fd - x.geo.grad_f[a, site]) / max(abs(fd), 1e-12))
    return np.max(errors)


def _green_kills_constants(x):
    """|green 1|_inf / ||green||_inf: each entry of green 1 sums a row of V
    entries, which rounds by at most (V - 1) u ||green||_inf, 5.7e-14 at
    V = 512; green = 0 (N = 2, where Phi = 0) reads 0."""
    green = x.fp.green
    norm = np.maximum(np.abs(green).sum(axis=1).max(), np.finfo(float).tiny)
    return np.abs(green @ np.ones(x.lat.n_sites)).max() / norm


# (name, tolerance, residual(sample)), read by `check` and the acceptance suite;
# residuals are combined with np.max, so a NaN anywhere gives a NaN residual
INVARIANTS = (
    # P^T P = P holds for orthogonal projectors only; an oblique one fails it
    ("projector_idempotent", 1e-10, lambda x: np.abs(x.P.T @ x.P - x.P).max()),
    # stencils: P grad = -(div P^T)^T, div P and Phi green = div(grad green)
    ("projector_kills_gradients", 1e-10, lambda x: np.abs(x.lat.divergence(
        x.P.T.reshape(x.lat.dim, x.lat.n_sites, -1))).max()),
    ("divergence_of_projection", 1e-10, lambda x: np.abs(x.lat.divergence(
        x.P.reshape(x.lat.dim, x.lat.n_sites, -1))).max()),
    ("projector_N_kills_gauge_directions", 1e-10, _frame_kills_gauge),
    ("fp_pseudo_identity", 1e-10, lambda x: np.abs(
        x.lat.divergence(x.lat.gradient(x.fp.green)) - x.fp.range_projector()).max()),
    ("fp_green_symmetric", 1e-12, lambda x: np.abs(x.fp.green - x.fp.green.T).max()),
    ("fp_green_kills_constants", 1e-12, _green_kills_constants),
    ("coulomb_constraint", 1e-10, lambda x: np.abs(x.lat.divergence(x.c.A_star)).max()),
    ("gauge_parameter_mean_zero", 1e-14, lambda x: abs(x.c.a.mean())),
    ("adapted_round_trip", 1e-10, _round_trip),
    ("potential_gauge_invariance", 1e-9, _gauge_invariance),
    ("sigma_gradient_fd", 1e-6, _sigma_gradient_fd),
    ("pseudoinverse_identity", 1e-9,
     lambda x: horizontal_metric(x.lat, x.c, x.p.g0).pseudoinverse_residual()),
    ("connection_reproduction", 1e-9, lambda x: np.abs(
        x.geo.connection(*killing_vector(x.lat, x.p, x.eps)) - x.eps).max()),
    ("connection_horizontality", 1e-9, lambda x: np.abs(
        x.geo.connection(*x.geo.horizontal(*x.tangent))).max()),
)


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------

def _residual_or_nan(residual, x):
    """A row's residual; NaN, so the row fails, where it needs a singular D."""
    try:
        return residual(x)
    except SingularOrbitMetric:
        return math.nan


def cmd_check(config):
    """Evaluate every row of :data:`INVARIANTS` on one sample drawn from the
    (sde.seed, 0) stream -- eps, A, f, then the tangent pair -- and write one
    CSV row per invariant; exit code 1 if any row fails."""
    lat = config.dense_lattice()
    rng = path_rng(config["sde.seed"], 0)
    eps = lat.random_scalar(rng)
    p = FieldPair(lat.random_vector(rng), lat.random_doublet(rng), config["fields.g0"])
    x = InvariantSample(lat, p, eps, (lat.random_vector(rng), lat.random_doublet(rng)))
    results = [(name, tol, _residual_or_nan(residual, x)) for name, tol, residual in INVARIANTS]
    rows = [(name, f"{r:.6e}", f"{tol:.1e}", "pass" if r <= tol else "fail")
            for name, tol, r in results]
    _write_csv(config, "check", ("check_name", "residual", "tolerance", "status"), rows)
    return 0 if all(row[3] == "pass" for row in rows) else 1


def cmd_jacobian(config, field_path=None):
    """Reduction Jacobian for a generated or file-loaded scalar field."""
    lat = config.dense_lattice()
    g0 = config["fields.g0"]
    if field_path is not None:
        dim, n, kind, f = read_field_file(field_path)
        if (dim, n, kind) != (lat.dim, lat.spec.sites_per_dim, "doublet"):
            raise ConfigError("field file does not match configured lattice/kind")
    else:
        f = _field_from_source(config, lat)
    header = ("f_mean_sq", "f_min_sq", "f_max_sq", "logdet", "laplace_term",
              "grad_term", "J", "V_correction", "status")
    # an overflow or NaN shows in the row's status, not as a warning
    with np.errstate(all="ignore"):
        f2 = f[0] ** 2 + f[1] ** 2
        numbers = [f2.mean(), f2.min(), f2.max()]
        if not np.isfinite(f2).all():
            status = "non-finite"
        elif f2.min() < SINGULARITY_FLOOR:      # the reduced step's floor
            status = f"singular: min |f~|^2 {f2.min():.3g} < floor {SINGULARITY_FLOOR:g}"
        else:
            try:
                rep = OrbitGeometry(lat, f, g0).jacobian(
                    config["fields.mu"], config["fields.kappa"], config["fields.m"])
            except SingularOrbitMetric as exc:
                status = f"singular: {exc}"
            else:
                numbers += [rep.logdet, rep.laplace_term, rep.grad_term, rep.J, rep.V_correction]
                status = "ok" if np.isfinite(numbers).all() else "non-finite"
    row = [f"{x:.12g}" for x in numbers] + [""] * (len(header) - 1 - len(numbers))
    _write_csv(config, "jacobian", header, [row + [status]])
    return 0 if status == "ok" else 1


def _phi0_fn(config, lat):
    kind = config["simulate.phi0"]
    hs = lat.spacing ** lat.dim
    if kind == "one":
        return lambda x: np.ones(x.shape[0])
    return lambda x: hs * _row_sum(x ** 2)


def _v_fn(config, lat):
    if config["simulate.potential"] == "zero":
        return None
    om = config["simulate.omega"]
    hs = lat.spacing ** lat.dim
    return lambda x: -0.5 * om ** 2 * hs * _row_sum(x ** 2)


def cmd_simulate(config):
    """Feynman-Kac estimate over the configured process; CSV with diagnostics."""
    lat = config.dense_lattice() if config["sde.process"] == "reduced" else config.lattice()
    cfg = config.sde()
    header = ("process", "mean", "std_error", "n_paths", "n_flagged",
              "max_exponent", "abort_fraction", "status")
    sV, V = lat.dim * lat.n_sites, lat.n_sites
    initial = np.zeros(sV + 2 * V)      # flat (A, f1, f2) with A = 0, f = (1, 0)
    initial[sV:sV + V] = 1.0
    if config["sde.process"] == "original":
        est = feynman_kac(_phi0_fn(config, lat), _v_fn(config, lat), cfg, initial,
                          noise_scale=lat.spacing ** (-lat.dim / 2.0))
    else:
        if config["simulate.potential"] != "zero":
            raise ConfigError("simulate.potential is not applied along reduced "
                              "paths; sde.process = reduced needs potential zero")
        abort, ends = reduced_batch_diagnostics(lat, initial, config["fields.g0"], cfg)
        est = _reduce_estimate(_phi0_fn(config, lat)(ends[:, sV:]), abort_fraction=abort)
    status = "unreliable" if est.unreliable else "ok"
    _write_csv(config, "simulate", header,
               [(config["sde.process"], f"{est.mean:.12g}", f"{est.std_error:.12g}",
                 est.n_paths, est.n_flagged, f"{est.max_exponent:.6g}",
                 f"{est.abort_fraction:.6g}", status)])
    return 1 if est.unreliable else 0


def _two_site_drift(pref):
    """The drift pref * f / (2|f|^2), sitewise, on flat two-site states
    (m, 4) = (f1 at both sites, f2 at both sites): each component is divided
    through an (m, 2, 2) view by its site's 2|f|^2."""
    def drift(x):
        r2 = 2 * (x[:, :2] ** 2 + x[:, 2:] ** 2)
        f = (pref * x).reshape(-1, 2, 2)
        f /= r2[:, None, :]
        return f.reshape(x.shape)
    return drift


def cmd_compare_oracle(config):
    """Monte Carlo vs oracle on the configured toy; writes the verdict."""
    cfg = config.sde()
    mu, kappa = config["fields.mu"], config["fields.kappa"]
    header = ("kind", "mc_mean", "mc_std_error", "reference", "budget",
              "difference", "verdict")
    if config["oracle.kind"] == "mehler":
        omega = config["oracle.omega"]
        dof = config["oracle.dof"]
        x0 = np.full(dof, config["oracle.x0"])
        v = lambda x: -0.5 * omega ** 2 * _row_sum(x ** 2)
        phi0 = lambda x: np.ones(x.shape[0])
        try:    # the oracle's caps refuse before any solve, so before any path
            pde_val, budget = discretization_budget(
                v, phi0, x0, cfg.horizon, mu, kappa, dof,
                config["oracle.grid_points"], config["oracle.halfwidth"])
        except ValueError as exc:
            raise ConfigError(f"oracle: {exc}") from None
        est = feynman_kac(phi0, v, cfg, x0)
        verdict = compare(est, pde_val, budget)
        _write_csv(config, "compare_oracle", header,
                   [("mehler", f"{verdict.mc_mean:.12g}", f"{verdict.mc_std_error:.12g}",
                     f"{verdict.pde_value:.12g}", f"{verdict.budget:.6g}",
                     f"{verdict.difference:.6g}", "PASS" if verdict.passed else "FAIL")])
        return 0 if verdict.passed else 1
    # girsanov: drifted vs reweighted driftless, drift = orbit mean curvature
    # on the two-site chain (vectorized closed form f/(2|f|^2) per site).
    given = sorted(k for k in config.explicit if k.startswith("lattice."))
    if given:
        raise ConfigError(f"oracle.kind = girsanov runs on the fixed two-site chain "
                          f"(dim 1, 2 sites, spacing 1); remove {', '.join(given)}")
    f0 = np.stack([np.ones(2), np.zeros(2)])
    phi0 = lambda x: _row_sum(x ** 2)
    e1, e2 = girsanov_check(cfg, flat(f0), _two_site_drift(mu ** 2 * kappa), phi0)
    band = 3.0 * float(np.hypot(e1.std_error, e2.std_error))
    diff = abs(e1.mean - e2.mean)
    passed = diff <= band and not e2.unreliable
    _write_csv(config, "compare_oracle", header,
               [("girsanov", f"{e1.mean:.12g}", f"{e1.std_error:.12g}",
                 f"{e2.mean:.12g}", f"{band:.6g}", f"{diff:.6g}",
                 "PASS" if passed else "FAIL")])
    return 0 if passed else 1


@cache
def _parser():
    """The command-line parser, built once per process; parse_args keeps no
    state between calls, so each command parses as with a fresh one."""
    parser = argparse.ArgumentParser(
        prog="gauge-reduce",
        description="Batch runner: invariant checks, Jacobians, simulations, oracle comparisons.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("check", "jacobian", "simulate", "compare-oracle"):
        sp = sub.add_parser(name)
        sp.add_argument("config", help="path to flat key=value config file")
        if name == "jacobian":
            sp.add_argument("--field-file", default=None,
                            help="load f~ from a field file instead of a generator")
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        config = load_config(args.config)
        worker_count()  # refuse a bad GAUGE_REDUCE_THREADS before any work
    except (ConfigError, OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "check":
            return cmd_check(config)
        if args.command == "jacobian":
            return cmd_jacobian(config, args.field_file)
        if args.command == "simulate":
            return cmd_simulate(config)
        return cmd_compare_oracle(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
