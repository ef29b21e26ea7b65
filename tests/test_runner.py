"""Batch runner: config parsing, commands, CSV provenance, determinism."""

import csv
import dataclasses
import io
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from gaugereduce import kolmogorov, orbit, runner
from gaugereduce.gauge import FieldPair, faddeev_popov
from gaugereduce.lattice import Lattice
from gaugereduce.runner import (ConfigError, cmd_check, cmd_compare_oracle,
                                cmd_jacobian, cmd_simulate, main, parse_config,
                                read_field_file)
from references import write_field_file


def make_config(tmp_path, **overrides):
    base = {
        "lattice.dim": 2,
        "lattice.sites_per_dim": 4,
        "fields.g0": 0.8,
        "sde.seed": 123,
        "output_dir": str(tmp_path / "out"),
    }
    base.update(overrides)
    text = "\n".join(f"{k} = {v}" for k, v in base.items() if v is not None)
    path = tmp_path / "config.txt"
    path.write_text(text)
    return path, parse_config(text)


def read_rows(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# gaugereduce-")
    assert "config_sha256=" in lines[0] and "seed=" in lines[0]
    return list(csv.reader(io.StringIO("\n".join(lines[1:]))))


def test_parse_defaults_and_comments():
    cfg = parse_config("# a comment\n\nlattice.dim = 1\nlattice.sites_per_dim=5\n")
    assert cfg["lattice.dim"] == 1
    assert cfg["lattice.sites_per_dim"] == 5
    assert cfg["fields.mu"] == 1.0     # default


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("lattice.dims = 2\n")


def test_parse_rejects_bad_values():
    with pytest.raises(ConfigError):
        parse_config("sde.dt = -1\n")
    with pytest.raises(ConfigError):
        parse_config("lattice.sites_per_dim = 1\n")
    with pytest.raises(ConfigError):
        parse_config("sde.process = weird\n")
    with pytest.raises(ConfigError):
        parse_config("lattice.dim = two\n")
    with pytest.raises(ConfigError):
        parse_config(f"sde.seed = {2 ** 64}\n")
    # every float key must be finite, whatever its own range check says
    for text in ("fields.g0 = inf", "fields.mu = inf", "sde.dt = inf", "fields.m = nan",
                 "jacobian.uniform_f1 = nan", "jacobian.uniform_f2 = -inf",
                 "oracle.x0 = inf", "lattice.spacing = infinity"):
        with pytest.raises(ConfigError, match="must be finite"):
            parse_config(text + "\n")


def test_check_passes_on_long_chains(tmp_path):
    # green @ 1 is stated relative to ||green||_inf, so the rounding of its
    # row sums, (V - 1) u at most, stays within the 1e-12 of
    # `fp_green_kills_constants` up to V = 512 (as an absolute residual it
    # read 1.43e-12 on 257 sites)
    for n in (64, 101, 257, 512):
        path, _ = make_config(tmp_path, **{"lattice.dim": 1, "lattice.sites_per_dim": n})
        assert main(["check", str(path)]) == 0
        rows = read_rows(tmp_path / "out" / "check.csv")
        assert all(row[3] == "pass" for row in rows[1:])


@pytest.mark.parametrize("s,n,h", [(1, 3, 1.0), (1, 257, 1.0), (1, 512, 1.0),
                                   (1, 256, 100.0), (3, 8, 0.01), (2, 16, 0.01)])
def test_green_row_fails_a_green_off_the_zero_mode_projection(s, n, h):
    # green + c 1 1^T, c = 1e-6 max|green|, no longer kills constants: the
    # row reads far above its tolerance, where the true green reads rounding
    lat = Lattice(s, n, h)
    green = faddeev_popov(lat).green
    sample = types.SimpleNamespace(lat=lat, fp=types.SimpleNamespace(green=green))
    assert runner._green_kills_constants(sample) <= 1e-14
    sample.fp.green = green + 1e-6 * np.abs(green).max()
    assert runner._green_kills_constants(sample) > 1e-7


def test_main_exit_codes(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("lattice.sites_per_dim = 1\n")
    assert main(["check", str(bad)]) == 2
    assert main(["check", str(tmp_path / "missing.txt")]) == 2


def test_main_parser_keeps_no_state_between_calls(tmp_path, capsys):
    # main builds its parser once per process; a bad subcommand, a config
    # error, a passing check, jacobian with --field-file and then without it
    # each give the exit code, messages and CSV that a fresh parser gives
    bad = tmp_path / "bad.txt"
    bad.write_text("lattice.sites_per_dim = 1\n")
    path, _ = make_config(tmp_path, **{"lattice.dim": 1, "lattice.sites_per_dim": 4})
    fpath = tmp_path / "field.txt"
    write_field_file(fpath, 1, 4, "doublet", np.random.default_rng(2).standard_normal((2, 4)) + 2)
    out = tmp_path / "out"
    calls = [(["simulat", str(path)], None), (["check", str(bad)], None),
             (["check", str(path)], "check.csv"),
             (["jacobian", str(path), "--field-file", str(fpath)], "jacobian.csv"),
             (["jacobian", str(path)], "jacobian.csv")]

    def run(fresh):
        seen = []
        for argv, csv_name in calls:
            if fresh:
                runner._parser.cache_clear()
            try:
                code = main(argv)
            except SystemExit as exc:
                code = ("exit", exc.code)
            csv_path = out / csv_name if csv_name else None
            seen.append((code, capsys.readouterr(),
                         csv_path.read_bytes() if csv_path and csv_path.exists() else None))
            if csv_path:
                csv_path.unlink()
        return seen

    runner._parser.cache_clear()
    shared = run(fresh=False)
    parser = runner._parser()
    assert runner._parser.cache_info().misses == 1
    assert run(fresh=True) == shared
    assert [c for c, _, _ in shared] == [("exit", 2), 2, 0, 0, 0]
    assert "invalid choice" in shared[0][1].err
    assert shared[1][1].err.startswith("config error:")
    assert shared[3][2] != shared[4][2]           # the field file, then the generator
    assert runner._parser() is not parser         # the fresh runs rebuilt it


@pytest.mark.parametrize("threads", ["abc", "0", "-1"])
def test_main_refuses_bad_thread_count(tmp_path, monkeypatch, threads):
    path, _ = make_config(tmp_path)
    monkeypatch.setenv("GAUGE_REDUCE_THREADS", threads)
    assert main(["check", str(path)]) == 2
    assert not (tmp_path / "out").exists()


def test_cmd_check_default_passes(tmp_path):
    path, cfg = make_config(tmp_path)
    assert cmd_check(cfg) == 0
    rows = read_rows(tmp_path / "out" / "check.csv")
    assert rows[0] == ["check_name", "residual", "tolerance", "status"]
    body = rows[1:]
    assert [r[0] for r in body] == [name for name, _, _ in runner.INVARIANTS]
    assert all(r[3] == "pass" for r in body)


def test_cmd_check_corrupted_projector_fails(tmp_path, monkeypatch):
    # a constant shift of P keeps P grad = 0 and div P = 0; only idempotency sees it
    _, cfg = make_config(tmp_path)
    projector = runner.transverse_projector
    monkeypatch.setattr(runner, "transverse_projector", lambda lat: projector(lat) + 1e-3)
    assert cmd_check(cfg) == 1
    rows = read_rows(tmp_path / "out" / "check.csv")
    assert {r[0] for r in rows[1:] if r[3] == "fail"} == {"projector_idempotent"}


def test_cmd_check_oblique_projector_fails(tmp_path, monkeypatch):
    # Q = P + P X (I - P) is idempotent but not symmetric: Q Q = Q passes it,
    # Q^T Q = Q does not
    _, cfg = make_config(tmp_path)
    projector = runner.transverse_projector

    def oblique(lat):
        P = projector(lat)
        X = 1e-3 * np.random.default_rng(5).standard_normal(P.shape)
        return P + P @ X @ (np.eye(P.shape[0]) - P)

    monkeypatch.setattr(runner, "transverse_projector", oblique)
    assert cmd_check(cfg) == 1
    rows = read_rows(tmp_path / "out" / "check.csv")
    assert "projector_idempotent" in {r[0] for r in rows[1:] if r[3] == "fail"}


def _failing_rows(tmp_path, cfg):
    assert cmd_check(cfg) == 1
    rows = read_rows(tmp_path / "out" / "check.csv")
    return {r[0]: r[1] for r in rows[1:] if r[3] == "fail"}


def test_cmd_check_frame_row_propagates_nan(tmp_path, monkeypatch):
    # a NaN in N_f K + K_f, the second residual the row combines, fails it
    _, cfg = make_config(tmp_path)
    apply_N_f = runner.apply_N_f

    def poisoned(*args):
        out = apply_N_f(*args)
        out.flat[1] = np.nan
        return out

    monkeypatch.setattr(runner, "apply_N_f", poisoned)
    assert _failing_rows(tmp_path, cfg) == {"projector_N_kills_gauge_directions": "nan"}


def test_cmd_check_round_trip_row_propagates_nan(tmp_path, monkeypatch):
    # a NaN in the reconstructed f~, the second residual the row combines, fails it
    _, cfg = make_config(tmp_path)
    from_adapted = runner.from_adapted

    def poisoned(lat, c, g0):
        q = from_adapted(lat, c, g0)
        q.f[1, 0] = np.nan
        return q

    monkeypatch.setattr(runner, "from_adapted", poisoned)
    assert _failing_rows(tmp_path, cfg) == {"adapted_round_trip": "nan"}


def test_cmd_check_sigma_gradient_row_propagates_nan(tmp_path, monkeypatch):
    # a NaN log-determinant in the second central difference fails the row
    _, cfg = make_config(tmp_path)
    metric, calls = runner.orbit_metric, []

    def poisoned(lat, f, g0):
        calls.append(None)
        m = metric(lat, f, g0)
        return dataclasses.replace(m, logdet=np.nan) if len(calls) == 3 else m

    monkeypatch.setattr(runner, "orbit_metric", poisoned)
    assert _failing_rows(tmp_path, cfg) == {"sigma_gradient_fd": "nan"}
    assert len(calls) == 4


@pytest.mark.parametrize("s,n", [(1, 2), (1, 3), (2, 4), (3, 4)])
@pytest.mark.parametrize("name,tol,residual", runner.INVARIANTS,
                         ids=[name for name, _, _ in runner.INVARIANTS])
def test_invariant_row_holds(s, n, name, tol, residual):
    lat = Lattice(s, n)
    rng = np.random.default_rng(1000 * s + n)
    for _ in range(3):
        p = FieldPair(lat.random_vector(rng), lat.random_doublet(rng), 0.8)
        x = runner.InvariantSample(lat, p, lat.random_scalar(rng),
                                   (lat.random_vector(rng), lat.random_doublet(rng)))
        assert residual(x) <= tol


def test_cmd_check_builds_one_geometry(tmp_path, monkeypatch):
    # one sample: one OrbitGeometry (orbit_metric once) plus the four
    # orbit_metric calls of the sigma' central differences
    _, cfg = make_config(tmp_path)
    counts = {"geometry": 0, "orbit_metric": 0}
    init, metric = orbit.OrbitGeometry.__init__, orbit.orbit_metric

    def counted_init(self, *args):
        counts["geometry"] += 1
        init(self, *args)

    def counted_metric(*args):
        counts["orbit_metric"] += 1
        return metric(*args)

    monkeypatch.setattr(orbit.OrbitGeometry, "__init__", counted_init)
    for ns in (orbit, runner):
        monkeypatch.setattr(ns, "orbit_metric", counted_metric)
    assert cmd_check(cfg) == 0
    assert counts == {"geometry": 1, "orbit_metric": 5}


def test_cmd_jacobian_two_site_oracle(tmp_path):
    _, cfg = make_config(
        tmp_path, **{
            "lattice.dim": 1, "lattice.sites_per_dim": 2,
            "fields.g0": 0.63, "fields.mu": 1.1, "fields.kappa": 0.8, "fields.m": 2.0,
            "jacobian.source": "uniform",
            "jacobian.uniform_f1": 0.6, "jacobian.uniform_f2": -0.9,
        })
    assert cmd_jacobian(cfg) == 0
    rows = read_rows(tmp_path / "out" / "jacobian.csv")
    header, row = rows[0], rows[1]
    J = float(row[header.index("J")])
    assert J == pytest.approx(1.1 ** 2 * 0.8 / (4 * (0.6 ** 2 + 0.9 ** 2)), rel=1e-10)
    # the V_correction column is J / m, as the benchmark's jacobian oracle reads it
    assert float(row[header.index("V_correction")]) == pytest.approx(J / 2.0, rel=1e-11)
    assert row[header.index("status")] == "ok"


def test_cmd_jacobian_zero_field_exit1(tmp_path):
    _, cfg = make_config(tmp_path, **{
        "lattice.dim": 1, "lattice.sites_per_dim": 2,
        "jacobian.uniform_f1": 0.0, "jacobian.uniform_f2": 0.0,
    })
    assert cmd_jacobian(cfg) == 1
    rows = read_rows(tmp_path / "out" / "jacobian.csv")
    assert rows[1][-1].startswith("singular")


@pytest.mark.parametrize("f1", [1e-6, 1e-200])
def test_cmd_jacobian_refuses_fields_below_the_singularity_floor(tmp_path, f1):
    # min |f~|^2 below the reduced step's floor: no geometry is built, the
    # Jacobian columns stay empty and the exit code is 1, however the
    # Cholesky factorization would have rounded
    _, cfg = make_config(tmp_path, **{"lattice.dim": 1, "lattice.sites_per_dim": 4,
                                      "jacobian.uniform_f1": f1})
    assert cmd_jacobian(cfg) == 1
    header, row = read_rows(tmp_path / "out" / "jacobian.csv")
    assert row[header.index("status")].startswith("singular")
    assert float(row[header.index("f_min_sq")]) == pytest.approx(f1 ** 2)
    assert all(row[header.index(k)] == "" for k in ("logdet", "J", "V_correction"))


def test_cmd_jacobian_non_finite_row_is_not_ok(tmp_path):
    # |f~|^2 = 1e400 overflows: the row says non-finite and the exit code is 1
    _, cfg = make_config(tmp_path, **{"lattice.dim": 1, "lattice.sites_per_dim": 4,
                                      "jacobian.uniform_f1": 1e200})
    assert cmd_jacobian(cfg) == 1
    header, row = read_rows(tmp_path / "out" / "jacobian.csv")
    assert row[header.index("f_mean_sq")] == "inf"
    assert row[header.index("status")] == "non-finite"


def test_cmd_jacobian_deterministic_bytes(tmp_path):
    _, cfg = make_config(tmp_path, **{"jacobian.source": "random", "sde.seed": 9})
    assert cmd_jacobian(cfg) == 0
    first = (tmp_path / "out" / "jacobian.csv").read_bytes()
    assert cmd_jacobian(cfg) == 0
    assert (tmp_path / "out" / "jacobian.csv").read_bytes() == first


def test_field_file_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    f = rng.standard_normal((2, 4))
    path = tmp_path / "field.txt"
    write_field_file(path, 1, 4, "doublet", f)
    dim, n, kind, data = read_field_file(path)
    assert (dim, n, kind) == (1, 4, "doublet")
    np.testing.assert_array_equal(data, f)


def test_cmd_jacobian_field_file(tmp_path):
    rng = np.random.default_rng(1)
    f = rng.standard_normal((2, 4)) + 2.0
    fpath = tmp_path / "field.txt"
    write_field_file(fpath, 1, 4, "doublet", f)
    _, cfg = make_config(tmp_path, **{"lattice.dim": 1, "lattice.sites_per_dim": 4})
    assert cmd_jacobian(cfg, field_path=str(fpath)) == 0
    rows = read_rows(tmp_path / "out" / "jacobian.csv")
    f2 = f[0] ** 2 + f[1] ** 2
    assert float(rows[1][rows[0].index("f_mean_sq")]) == pytest.approx(f2.mean())


def test_cmd_jacobian_field_file_mismatch(tmp_path):
    fpath = tmp_path / "field.txt"
    write_field_file(fpath, 1, 4, "doublet", np.ones((2, 4)))
    _, cfg = make_config(tmp_path)  # 2-d lattice: mismatch
    with pytest.raises(ConfigError):
        cmd_jacobian(cfg, field_path=str(fpath))


_FIELD_FILES = {
    "non-numeric": "1 4 doublet\n1 0\n1 zero\n1 0\n1 0\n",
    "short-row": "1 4 doublet\n1 0\n1\n1 0\n1 0\n",
    "empty": "",
    "missing": None,
    "non-finite": "1 4 doublet\n1 0\nnan 0\n1 0\n1 inf\n",
}


@pytest.mark.parametrize("case", list(_FIELD_FILES))
def test_bad_field_file_is_config_error(tmp_path, capsys, case):
    # exit 2 with one config-error line and no CSV, never a traceback
    fpath = tmp_path / "field.txt"
    if _FIELD_FILES[case] is not None:
        fpath.write_text(_FIELD_FILES[case])
    path, _ = make_config(tmp_path, **{"lattice.dim": 1, "lattice.sites_per_dim": 4})
    assert main(["jacobian", str(path), "--field-file", str(fpath)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:")
    assert not (tmp_path / "out").exists()


def test_cmd_simulate_trivial(tmp_path):
    _, cfg = make_config(tmp_path, **{
        "lattice.dim": 1, "lattice.sites_per_dim": 2,
        "sde.n_paths": 500, "sde.n_steps": 20,
        "simulate.phi0": "one", "simulate.potential": "zero",
    })
    assert cmd_simulate(cfg) == 0
    rows = read_rows(tmp_path / "out" / "simulate.csv")
    header, row = rows
    assert float(row[header.index("mean")]) == 1.0
    assert float(row[header.index("std_error")]) == 0.0


def test_cmd_simulate_reduced_diagnostics(tmp_path):
    _, cfg = make_config(tmp_path, **{
        "lattice.dim": 1, "lattice.sites_per_dim": 2,
        "sde.n_paths": 20, "sde.n_steps": 25, "sde.dt": 0.002,
        "sde.process": "reduced",
    })
    code = cmd_simulate(cfg)
    rows = read_rows(tmp_path / "out" / "simulate.csv")
    header, row = rows
    abort = float(row[header.index("abort_fraction")])
    assert 0.0 <= abort < 0.01
    assert code == 0


def test_cmd_simulate_reduced_non_finite_paths_abort(tmp_path, monkeypatch):
    # a NaN increment turns one path of four non-finite; it is counted as an
    # abort (the run is unreliable, exit code 1) instead of crashing the run
    from gaugereduce import sde
    real = sde._chunk_normals

    def poisoned(seed, lo, hi, n_steps, dim):
        z = real(seed, lo, hi, n_steps, dim)
        if lo <= 1 < hi:
            z[1 - lo, 3, 0] = np.nan
        return z

    monkeypatch.setattr(sde, "_chunk_normals", poisoned)
    path, _ = make_config(tmp_path, **{
        "lattice.dim": 1, "lattice.sites_per_dim": 3, "sde.n_paths": 4,
        "sde.n_steps": 10, "sde.process": "reduced", "simulate.phi0": "sum_squares",
    })
    assert main(["simulate", str(path)]) == 1
    header, row = read_rows(tmp_path / "out" / "simulate.csv")
    assert float(row[header.index("abort_fraction")]) == 0.25
    assert row[header.index("n_paths")] == "3"
    assert row[header.index("status")] == "unreliable"


def test_cmd_simulate_reduced_divergent_step_aborts(tmp_path):
    # at dt = 30 on (1, 3) the first drift displacement is 8.5 |f~| at every
    # site of the uniform start: every path aborts instead of ending at
    # |f~|^2 ~ 1e225 with status ok; at dt = 1 the largest ratio is 0.28 and
    # no path aborts
    for dt, code, abort, status in ((30.0, 1, 1.0, "unreliable"), (1.0, 0, 0.0, "ok")):
        path, _ = make_config(tmp_path, **{
            "lattice.dim": 1, "lattice.sites_per_dim": 3, "sde.n_paths": 50,
            "sde.n_steps": 20, "sde.dt": dt, "sde.process": "reduced",
        })
        assert main(["simulate", str(path)]) == code
        header, row = read_rows(tmp_path / "out" / "simulate.csv")
        assert float(row[header.index("abort_fraction")]) == abort
        assert row[header.index("status")] == status


def test_cmd_simulate_reduced_runs_where_cholesky_refuses_the_orbit_metric(tmp_path):
    # at g0 = 1e-9 floating-point Cholesky refuses D on (1, 3) (`jacobian`
    # reports it singular), yet g0^2 |f~|^2 > 0 keeps D positive definite
    # and the step reads no D: every path completes, and E sum |f~|^2 is
    # near its g0 -> 0 value V (1 + 2T) = 3 + 6T
    path, cfg = make_config(tmp_path, **{
        "lattice.dim": 1, "lattice.sites_per_dim": 3, "fields.g0": 1e-9,
        "sde.n_paths": 200, "sde.n_steps": 50, "sde.dt": 0.01,
        "sde.process": "reduced", "simulate.phi0": "sum_squares",
    })
    assert main(["jacobian", str(path)]) == 1
    header, row = read_rows(tmp_path / "out" / "jacobian.csv")
    assert row[header.index("status")].startswith("singular")
    assert main(["simulate", str(path)]) == 0
    header, row = read_rows(tmp_path / "out" / "simulate.csv")
    assert float(row[header.index("abort_fraction")]) == 0.0
    assert row[header.index("status")] == "ok"
    mean, se = float(row[header.index("mean")]), float(row[header.index("std_error")])
    assert abs(mean - (3.0 + 6.0 * cfg.sde().horizon)) <= 4.0 * se


def test_cmd_simulate_reduced_byte_identical_across_threads_and_chunks(tmp_path,
                                                                      monkeypatch):
    # one chunk, then one path per chunk on 1 and 2 threads, then a rerun
    from gaugereduce import sde
    _, cfg = make_config(tmp_path, **{
        "lattice.dim": 2, "lattice.sites_per_dim": 3, "sde.n_paths": 6,
        "sde.n_steps": 20, "sde.dt": 0.005, "sde.process": "reduced",
        "simulate.phi0": "sum_squares",
    })
    out = tmp_path / "out" / "simulate.csv"
    blobs = []
    for cap, threads in ((None, "1"), (1, "1"), (1, "2"), (None, "2")):
        if cap is not None:
            monkeypatch.setattr(sde, "_CHUNK_BYTES", cap)
        monkeypatch.setenv("GAUGE_REDUCE_THREADS", threads)
        assert cmd_simulate(cfg) == 0
        blobs.append(out.read_bytes())
        monkeypatch.undo()
    assert all(blob == blobs[0] for blob in blobs)


@pytest.mark.parametrize("process", ["original", "reduced"])
def test_cmd_simulate_non_finite_estimate_is_unreliable(tmp_path, monkeypatch,
                                                        process):
    monkeypatch.setattr(runner, "_phi0_fn",
                        lambda config, lat: lambda x: np.full(len(x), np.nan))
    _, cfg = make_config(tmp_path, **{
        "lattice.dim": 1, "lattice.sites_per_dim": 2,
        "sde.n_paths": 4, "sde.n_steps": 5, "sde.process": process,
    })
    assert cmd_simulate(cfg) == 1
    header, row = read_rows(tmp_path / "out" / "simulate.csv")
    assert row[header.index("mean")] == "nan"
    assert row[header.index("status")] == "unreliable"


def test_simulate_reduced_refuses_potential(tmp_path):
    path, cfg = make_config(tmp_path, **{
        "lattice.dim": 1, "lattice.sites_per_dim": 2, "sde.n_paths": 2,
        "sde.process": "reduced", "simulate.potential": "quadratic",
    })
    with pytest.raises(ConfigError, match="simulate.potential"):
        cmd_simulate(cfg)
    assert main(["simulate", str(path)]) == 2


def test_cmd_simulate_byte_identical_across_threads(tmp_path, monkeypatch):
    _, cfg = make_config(tmp_path, **{
        "lattice.dim": 1, "lattice.sites_per_dim": 2,
        "sde.n_paths": 6000, "sde.n_steps": 20,
        "simulate.phi0": "sum_squares", "simulate.potential": "quadratic",
    })
    monkeypatch.setenv("GAUGE_REDUCE_THREADS", "1")
    assert cmd_simulate(cfg) == 0
    one = (tmp_path / "out" / "simulate.csv").read_bytes()
    monkeypatch.setenv("GAUGE_REDUCE_THREADS", "4")
    assert cmd_simulate(cfg) == 0
    four = (tmp_path / "out" / "simulate.csv").read_bytes()
    assert one == four


def test_cmd_compare_oracle_mehler(tmp_path):
    _, cfg = make_config(tmp_path, **{
        "sde.dt": 0.002, "sde.n_steps": 250, "sde.n_paths": 20000,
        "sde.seed": 31, "oracle.kind": "mehler", "oracle.omega": 1.0,
        "oracle.x0": 0.3,
    })
    assert cmd_compare_oracle(cfg) == 0
    rows = read_rows(tmp_path / "out" / "compare_oracle.csv")
    assert rows[1][rows[0].index("verdict")] == "PASS"


def test_two_site_drift_is_the_concatenated_closure():
    # the drift divides through an (m, 2, 2) view, bitwise the closure that
    # divided by the two-site |f|^2 concatenated to the state's width
    pref = 1.3

    def concatenated(x):
        r2 = 2 * (x[:, :2] ** 2 + x[:, 2:] ** 2)
        return pref * x / np.concatenate([r2, r2], axis=1)

    x = np.random.default_rng(8).standard_normal((4096, 4))
    for rows in (x, x[:7], x[:1]):
        assert runner._two_site_drift(pref)(rows).tobytes() == concatenated(rows).tobytes()


def test_cmd_compare_oracle_girsanov(tmp_path):
    # the girsanov oracle runs on its fixed two-site chain; lattice keys are
    # refused (see the test below), so this config leaves them out
    _, cfg = make_config(tmp_path, **{
        "lattice.dim": None, "lattice.sites_per_dim": None,
        "sde.dt": 0.002, "sde.n_steps": 100, "sde.n_paths": 10000,
        "sde.seed": 17, "oracle.kind": "girsanov",
    })
    assert cmd_compare_oracle(cfg) == 0
    rows = read_rows(tmp_path / "out" / "compare_oracle.csv")
    assert rows[1][0] == "girsanov"
    assert rows[1][rows[0].index("verdict")] == "PASS"


@pytest.mark.parametrize("key,value", [("lattice.dim", 1), ("lattice.sites_per_dim", 3),
                                       ("lattice.spacing", 0.5)])
def test_compare_oracle_girsanov_refuses_lattice_keys(tmp_path, key, value):
    path, cfg = make_config(tmp_path, **{
        "lattice.dim": None, "lattice.sites_per_dim": None, key: value,
        "sde.n_steps": 2, "sde.n_paths": 10, "oracle.kind": "girsanov",
    })
    with pytest.raises(ConfigError, match=key):
        cmd_compare_oracle(cfg)
    assert main(["compare-oracle", str(path)]) == 2
    assert not (tmp_path / "out" / "compare_oracle.csv").exists()


_BIG = {"lattice.dim": 3, "lattice.sites_per_dim": 9}     # V = 729 > MAX_DENSE_SITES


@pytest.mark.parametrize("command,overrides", [
    ("compare-oracle", {"oracle.dof": 4}),
    ("compare-oracle", {"oracle.grid_points": 2}),
    ("compare-oracle", {"oracle.grid_points": 3}),    # its Richardson grid has 2
    ("compare-oracle", {"oracle.grid_points": 39}),   # the error budget needs 41
    ("compare-oracle", {"oracle.x0": 7.0}),
    ("check", _BIG),
    ("jacobian", _BIG),
    ("simulate", {**_BIG, "sde.process": "reduced"}),
], ids=["oracle-dof-4", "oracle-2-points", "oracle-3-points", "oracle-39-points",
        "oracle-x0-outside", "check-V729", "jacobian-V729", "reduced-simulate-V729"])
def test_caps_refused_as_config_errors(tmp_path, monkeypatch, capsys, command, overrides):
    # a cap is a config error (exit 2, one line) found before any PDE solve,
    # path or CSV
    def never(*args, **kwargs):
        raise AssertionError("work started before the cap was checked")
    for module, name in [(runner, "feynman_kac"), (runner, "reduced_batch_diagnostics"),
                         (kolmogorov, "evolve")]:
        monkeypatch.setattr(module, name, never)
    path, _ = make_config(tmp_path, **{"sde.n_steps": 2, "sde.n_paths": 2, **overrides})
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:")
    assert not (tmp_path / "out").exists()


def test_original_simulate_runs_above_dense_cap(tmp_path):
    # the original process builds no dense operator, so V = 729 still runs
    path, _ = make_config(tmp_path, **{**_BIG, "sde.n_steps": 2, "sde.n_paths": 2})
    assert main(["simulate", str(path)]) == 0
    header, row = read_rows(tmp_path / "out" / "simulate.csv")
    assert row[header.index("status")] == "ok"


def test_main_runs_check(tmp_path):
    path, _ = make_config(tmp_path)
    assert main(["check", str(path)]) == 0


def test_no_command_imports_scipy(tmp_path):
    # a fresh process in which importing scipy fails runs check, jacobian,
    # both simulate processes and compare-oracle mehler and girsanov
    lattice = {"lattice.dim": 2, "lattice.sites_per_dim": 3}
    no_lattice = {"lattice.dim": None, "lattice.sites_per_dim": None}
    runs = [("check", lattice), ("jacobian", lattice),
            ("simulate", {**lattice, "sde.process": "reduced", "sde.n_steps": 10,
                          "sde.n_paths": 20}),
            ("simulate", {**lattice, "sde.process": "original", "sde.n_steps": 10,
                          "sde.n_paths": 20}),
            ("compare-oracle", {**no_lattice, "oracle.kind": "mehler", "oracle.dof": 1,
                                "oracle.grid_points": 41, "sde.dt": 0.01,
                                "sde.n_steps": 100, "sde.n_paths": 2000}),
            ("compare-oracle", {**no_lattice, "oracle.kind": "girsanov", "sde.dt": 0.002,
                                "sde.n_steps": 100, "sde.n_paths": 2000})]
    paths = []
    for i, (command, overrides) in enumerate(runs):
        (tmp_path / str(i)).mkdir()
        path, _ = make_config(tmp_path / str(i), **overrides)
        paths.append((command, str(path)))
    script = f"""
import sys
sys.modules["scipy"] = None
from gaugereduce import runner
for command, path in {paths!r}:
    assert runner.main([command, path]) == 0, (command, path)
"""
    src = str(Path(runner.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert done.returncode == 0, done.stderr
