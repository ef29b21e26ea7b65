"""gaugereduce benchmark: one workload run, or all three in turn.

Usage, from the repository root::

    python3 bench/run.py --workload estimator --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

A run imports the package from ``src/``, sets up (import plus lattice-
operator warm-up plus one untimed execution of every operation), then
repeats the workload's operations (see ``workloads.py``) on identical inputs
for ``--seconds`` seconds.  Every output is checked; the first pass against
closed-form oracles, later passes against the first, byte for byte.

With ``--trace 0`` it prints the end-to-end metrics: medians over passes,
with the sample count and the highest percentile that has at least ten
samples beyond it.  Set-up is repeated in fresh interpreters and its median
reported as ``setup_s``.  With ``--trace 1`` every second pass runs with the
outside wrappers of ``tracer.py`` installed, and it prints the per-layer
metrics of the traced passes and the tracing overhead (traced minus
untraced median pass time).  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Raw numbers, the machine
description and (traced) all spans go to ``.bench_out/``.

BLAS and OpenMP are pinned to one thread, numpy's huge-page advice is off
and GAUGE_REDUCE_THREADS is unset before numpy is imported, so one run is
one single-threaded process.
"""

import os
import sys
import time

T_START = time.perf_counter()
PINNED_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS"):
    os.environ[_var] = PINNED_THREADS
# numpy asks the kernel for huge pages on large arrays; whether it gets them
# depends on the host's memory fragmentation, which made per-run medians
# bimodal (about 15% apart on the geometry workload).  Plain pages are steadier.
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
os.environ.pop("GAUGE_REDUCE_THREADS", None)

import argparse                                         # noqa: E402
import ctypes                                           # noqa: E402
import json                                             # noqa: E402
import platform                                         # noqa: E402
import resource                                         # noqa: E402
import shutil                                           # noqa: E402
import statistics                                       # noqa: E402
import subprocess                                       # noqa: E402
import traceback                                        # noqa: E402
from pathlib import Path                                # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("estimator", "reduced", "geometry")
SETUP_SAMPLES = 5            # this process plus four fresh interpreters
CHILD_TIMEOUT = 170

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
# printed and recorded, not part of the JSON line: each exists on some
# workloads only, and the JSON line carries the same metrics on every one
REPORTED = {"check_s": "s", "jacobian_s": "s", "simulate_s": "s", "oracle_s": "s",
            "path_steps_per_s": "1/s", "geometry_evals_per_s": "1/s"}

LAYER_SPANS = ("orbit.orbit_metric", "orbit.sigma_derivatives", "orbit.christoffel_drift",
               "orbit.mean_curvature_terms", "orbit.reduced_drift",
               "orbit.reduction_jacobian", "gauge.projector_N", "gauge.transverse_projector",
               "gauge.potential", "gauge.faddeev_popov", "lattice.ops", "sde.path_rng",
               "sde.euler_step_reduced", "kolmogorov.build_generator", "kolmogorov.evolve")
SELF_SPANS = ("sde.feynman_kac", "sde.girsanov_check", "sde.weak_convergence_estimates")
STEP = "sde.euler_step_reduced"


def per_layer_units():
    units = {}
    for name in LAYER_SPANS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
    for name in SELF_SPANS:
        units[f"{name}.self_s"] = "s"
    units.update({
        "runner.self_s": "s",
        "orbit.gamma_per_step": "ratio", "gauge.projector_N_per_step": "ratio",
        "orbit.orbit_metric_per_step": "ratio", "sde.path_rng_per_path": "ratio",
        "sde.reduced.completed_frac": "ratio", "sde.flagged_frac": "ratio",
        "orbit.orbit_metric.flops_computed": "flop",
        "orbit.orbit_metric.gflops_per_s_computed": "GFLOP/s",
        "trace.wall_s": "s", "trace.overhead_s": "s"})
    return units


# ----------------------------------------------------------------------
# package import and machine description
# ----------------------------------------------------------------------

def import_package():
    """Import gaugereduce from this checkout's ``src``; never an installed copy."""
    src = ROOT / "src"
    if not (src / "gaugereduce" / "__init__.py").is_file():
        sys.exit(f"bench: no package source at {src / 'gaugereduce'}")
    sys.path.insert(0, str(src))
    import gaugereduce
    if Path(gaugereduce.__file__).resolve().parent != (src / "gaugereduce").resolve():
        sys.exit(f"bench: imported {gaugereduce.__file__}, not the checkout's source")
    return gaugereduce


def _openblas(libdir):
    """(version, runtime thread count) of the OpenBLAS bundled in ``libdir``."""
    for lib in sorted(Path(libdir).glob("*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for suffix in ("64_", ""):
            try:
                config = getattr(handle, f"scipy_openblas_get_config{suffix}")
                threads = getattr(handle, f"scipy_openblas_get_num_threads{suffix}")
            except AttributeError:
                continue
            config.restype = ctypes.c_char_p
            threads.restype = ctypes.c_int
            return config().decode(), threads()
    return "unknown", None


def machine():
    import numpy
    import scipy
    site = Path(numpy.__file__).resolve().parent.parent
    np_blas, np_threads = _openblas(site / "numpy.libs")
    sp_blas, sp_threads = _openblas(site / "scipy.libs")
    return {"nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "numpy_openblas": np_blas,
            "scipy_openblas": sp_blas, "blas_threads_pinned": int(PINNED_THREADS),
            "numpy_blas_threads": np_threads, "scipy_blas_threads": sp_threads,
            "GAUGE_REDUCE_THREADS": os.environ.get("GAUGE_REDUCE_THREADS"),
            "NUMPY_MADVISE_HUGEPAGE": os.environ["NUMPY_MADVISE_HUGEPAGE"],
            "platform": platform.platform()}


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------

def tail(values):
    """Highest of p50/p75/p90/p95/p99 with at least ten samples beyond it."""
    n = len(values)
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100.0 >= 10:
            return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]
    return None


def describe(name, values, unit):
    med = statistics.median(values)
    t = tail(values)
    extra = f"p{t[0]}={t[1]:.6g}" if t else "no percentile has 10 samples beyond it"
    return f"{name:44s} {med:14.6g} {unit:8s} n={len(values):<4d} {extra}"


# ----------------------------------------------------------------------
# running passes
# ----------------------------------------------------------------------

def run_pass(ops, first, clock=time.perf_counter):
    """One pass over the operations; the first pass gets the full checks."""
    outcomes = []
    for i, op in enumerate(ops):
        try:
            out = op.execute(clock)
        except Exception as exc:       # a crash is a failed, incorrect operation
            traceback.print_exc()
            out = workloads.Outcome(None, None)
            out.failed.append(repr(exc))
            out.wrong.append(f"{op.name} raised {exc!r}")
        else:
            op.assess(out, full=first is None)
            if first is not None and out.payload != first[i].payload:
                out.wrong.append(f"{op.name}: output differs from the first pass")
        outcomes.append(out)
    return outcomes


def pass_metrics(ops, outcomes):
    """Per-pass end-to-end numbers, and each operation's time under "ops";
    a metric is absent if no operation of the workload has it."""
    by_kind = {"check": "check_s", "jacobian": "jacobian_s", "simulate": "simulate_s",
               "oracle": "oracle_s"}
    m = {"wall_s": 0.0, "ops": {}}
    steps = steps_t = evals = evals_t = 0.0
    for op, out in zip(ops, outcomes):
        if out.seconds is None:
            continue
        m["ops"][op.name] = out.seconds
        m["wall_s"] += out.seconds
        if op.kind in by_kind:
            m[by_kind[op.kind]] = m.get(by_kind[op.kind], 0.0) + out.seconds
        if op.path_steps:
            steps += op.path_steps
            steps_t += out.seconds
        if op.geometry_evals:
            evals += op.geometry_evals
            evals_t += out.seconds
    if steps_t:
        m["path_steps_per_s"] = steps / steps_t
    if evals_t:
        m["geometry_evals_per_s"] = evals / evals_t
    return m


def child_setup(args):
    """Set-up time of one fresh interpreter doing this run's set-up."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def layer_metrics(spans, traced, walls_untraced, walls_traced):
    """Per-layer metrics of the traced passes.

    Returns (metrics, whether every count repeats exactly across the traced
    passes, the lattice sizes at which ``orbit_metric`` ran).
    """
    per, counters = spans.per_pass(within=STEP)
    signatures = [({n: r["calls"] for n, r in per[p].items()}, dict(counters[p]))
                  for p in traced]
    exact = all(sig == signatures[0] for sig in signatures)
    first, c0 = per[traced[0]], counters[traced[0]]

    def calls(name, key="calls"):
        return first[name][key] if name in first else 0

    def med(fn):
        return statistics.median(fn(p) for p in traced)

    def span(p, name, key):
        return per[p][name][key] if name in per[p] else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for name in LAYER_SPANS:
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.s"] = med(lambda p: span(p, name, "s"))
    for name in SELF_SPANS:
        m[f"{name}.self_s"] = med(lambda p: span(p, name, "self_s"))
    m["runner.self_s"] = med(lambda p: sum(r["self_s"] for n, r in per[p].items()
                                           if n.startswith("runner.")))
    steps = calls(STEP)
    m["orbit.gamma_per_step"] = ratio(calls("orbit._gamma_contractions", "within"), steps)
    m["gauge.projector_N_per_step"] = ratio(calls("gauge.projector_N", "within"), steps)
    m["orbit.orbit_metric_per_step"] = ratio(calls("orbit.orbit_metric", "within"), steps)
    m["sde.path_rng_per_path"] = ratio(calls("sde.path_rng"), c0["paths"])
    m["sde.reduced.completed_frac"] = ratio(c0["reduced_completed"], c0["reduced_paths"])
    m["sde.flagged_frac"] = ratio(c0["flagged"], c0["flag_paths"])
    m["orbit.orbit_metric.flops_computed"] = float(c0["orbit_metric_flops"])
    m["orbit.orbit_metric.gflops_per_s_computed"] = med(lambda p: ratio(
        counters[p]["orbit_metric_flops"], span(p, "orbit.orbit_metric", "s")) / 1e9)
    m["trace.wall_s"] = statistics.median(walls_traced)
    m["trace.overhead_s"] = m["trace.wall_s"] - statistics.median(walls_untraced)
    sizes = sorted(int(k.rsplit("V", 1)[1]) for k in c0 if k.startswith("orbit_metric_calls_V"))
    return m, exact, sizes


def measure(args, package, ops):
    """Repeat passes for ``args.seconds``.  With ``--trace 1`` the passes after
    the first alternate between traced and untraced, so both sides of the
    tracing overhead see the same machine conditions.  Returns the passes as
    (traced, outcomes) pairs and the tracer (None when untraced)."""
    spans = tracer.Tracer(package) if args.trace else None
    passes = []
    t0 = time.perf_counter()
    while (len(passes) < 2 + 3 * args.trace      # >= 2 traced passes when tracing
           or time.perf_counter() - t0 < args.seconds):
        traced = bool(args.trace) and len(passes) % 2 == 1
        if traced:
            spans.pass_index = len(passes)
            spans.install()
        try:
            passes.append((traced, run_pass(ops, passes[0][1] if passes else None)))
        finally:
            if traced:
                spans.uninstall()
    return passes, spans


def run_one(args):
    package = import_package()
    global workloads, tracer
    import workloads
    import tracer
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    try:
        ops, shapes = workloads.build(args.workload, args.seed, work)
        workloads.warm_up(ops, shapes)
        own_setup = time.perf_counter() - T_START
        if args.setup_only:
            print(json.dumps({"setup_s": own_setup}))
            return 0
        setup = [own_setup] + [child_setup(args) for _ in range(SETUP_SAMPLES - 1)]
        passes, spans = measure(args, package, ops)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    outcomes = [o for _, outs in passes for o in outs]
    attempted = len(outcomes)
    failed = sum(bool(o.failed) for o in outcomes)
    problems = sorted({w for o in outcomes for w in o.wrong})
    failures = sorted({f"{op.name}: {r}" for _, outs in passes
                       for op, o in zip(ops, outs) for r in o.failed})
    per_pass = [(traced, pass_metrics(ops, outs)) for traced, outs in passes]

    info = machine()
    lines = [f"# gaugereduce benchmark workload={args.workload} seed={args.seed} "
             f"seconds={args.seconds} trace={args.trace}",
             "# machine " + json.dumps(info),
             f"# operations per pass: {', '.join(op.name for op in ops)}",
             f"{'metric':44s} {'median':>14s} {'unit':8s} samples"]
    series = {"setup_s": setup, "peak_rss_mb": [peak_rss_mb]}
    for name in ("wall_s",) + tuple(REPORTED):
        values = [m[name] for t, m in per_pass if not t and name in m]
        if values:
            series[name] = values
    units = {**END_TO_END, **REPORTED}
    lines += [describe(name, values, units[name]) for name, values in series.items()]
    lines.append(f"{'fail_frac':44s} {failed / attempted:14.6g} {'ratio':8s} "
                 f"failed={failed} attempted={attempted}")
    metrics = {name: statistics.median(series[name]) for name in END_TO_END}
    units, exact = END_TO_END, True
    if args.trace:
        walls = {flag: [m["wall_s"] for t, m in per_pass if t == flag] for flag in (False, True)}
        traced = [i for i, (t, _) in enumerate(passes) if t]
        metrics, exact, sizes = layer_metrics(spans, traced, walls[False], walls[True])
        units = per_layer_units()
        lines.append(f"# per layer, traced passes n={len(traced)}; calls are per pass "
                     f"and {'repeat exactly' if exact else 'DIFFER between passes'}")
        lines += [f"{name:44s} {value:14.6g} {units[name]}" for name, value in metrics.items()]
        lines.append("# orbit_metric flops are computed, not measured: V^3/3 + V^2/2 + V/6 "
                     "(Cholesky) + 2 V^3 (identity solve); per call: "
                     + (", ".join(f"V={v} {tracer.orbit_metric_flops(v):.4g}" for v in sizes)
                        or "no call"))
    lines += [f"# INCORRECT: {p}" for p in problems]
    lines += [f"# failed: {f}" for f in failures]

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    raw = {"args": vars(args), "machine": info, "setup_s": setup,
           "passes": [{"traced": t, **m} for t, m in per_pass],
           "operations": [op.name for op in ops], "problems": problems,
           "failures": failures, "metrics": metrics}
    (OUT / f"{stem}.json").write_text(json.dumps(raw, indent=1))
    if spans is not None:
        spans.dump(OUT / f"{stem}.spans.jsonl.gz")
    print("\n".join(lines))
    print(json.dumps({"correct": not problems and exact, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


def run_all(args):
    """Each workload in its own process, one after the other."""
    results = {}
    for w in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", w,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT + 4 * args.seconds)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[w] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
