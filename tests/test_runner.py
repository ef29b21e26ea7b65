"""Batch runner: config parsing, commands, CSV provenance, determinism."""

import csv
import io

import numpy as np
import pytest

from gaugereduce import runner
from gaugereduce.runner import (ConfigError, cmd_check, cmd_compare_oracle,
                                cmd_jacobian, cmd_simulate, main, parse_config,
                                read_field_file, write_field_file)


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


def test_main_exit_codes(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("lattice.sites_per_dim = 1\n")
    assert main(["check", str(bad)]) == 2
    assert main(["check", str(tmp_path / "missing.txt")]) == 2


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
    assert len(body) >= 12
    assert all(r[3] == "pass" for r in body)


def test_cmd_check_corrupted_projector_fails(tmp_path):
    _, cfg = make_config(tmp_path)
    assert cmd_check(cfg, corrupt=True) == 1
    rows = read_rows(tmp_path / "out" / "check.csv")
    assert any(r[3] == "fail" for r in rows[1:])


def test_cmd_jacobian_two_site_oracle(tmp_path):
    _, cfg = make_config(
        tmp_path, **{
            "lattice.dim": 1, "lattice.sites_per_dim": 2,
            "fields.g0": 0.63, "fields.mu": 1.1, "fields.kappa": 0.8,
            "jacobian.source": "uniform",
            "jacobian.uniform_f1": 0.6, "jacobian.uniform_f2": -0.9,
        })
    assert cmd_jacobian(cfg) == 0
    rows = read_rows(tmp_path / "out" / "jacobian.csv")
    header, row = rows[0], rows[1]
    J = float(row[header.index("J")])
    assert J == pytest.approx(1.1 ** 2 * 0.8 / (4 * (0.6 ** 2 + 0.9 ** 2)), rel=1e-10)
    assert row[header.index("status")] == "ok"


def test_cmd_jacobian_zero_field_exit1(tmp_path):
    _, cfg = make_config(tmp_path, **{
        "lattice.dim": 1, "lattice.sites_per_dim": 2,
        "jacobian.uniform_f1": 0.0, "jacobian.uniform_f2": 0.0,
    })
    assert cmd_jacobian(cfg) == 1
    rows = read_rows(tmp_path / "out" / "jacobian.csv")
    assert rows[1][-1].startswith("singular")


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


def test_main_runs_check(tmp_path):
    path, _ = make_config(tmp_path)
    assert main(["check", str(path)]) == 0
