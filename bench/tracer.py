"""Per-layer spans, recorded from outside the package.

:class:`Tracer` wraps the public functions of ``lattice``, ``gauge``,
``orbit``, ``sde``, ``kolmogorov`` and ``runner`` (plus the dense operator
methods of ``Lattice``, grouped as the span ``lattice.ops``, and the private
Gamma contraction of ``orbit``, which the ``orbit.gamma_per_step`` ratio
counts).  Every module namespace that holds a reference to a wrapped
function is rebound, so ``sde.reduced_drift`` and ``runner.path_rng`` are
traced as well as ``orbit.reduced_drift`` and ``sde.path_rng``.  The package
source is not touched.

Spans are kept in memory as ``(name, parent, start, end, pass)`` tuples and
written out by :meth:`Tracer.dump`.  Self time of a span is its duration
minus the durations of its direct children.  The benchmark is single
threaded (``GAUGE_REDUCE_THREADS`` is unset), so one span stack suffices.
"""

import functools
import gzip
import importlib
import inspect
import json
import time
from collections import defaultdict

TRACED_MODULES = ("lattice", "gauge", "orbit", "sde", "kolmogorov", "runner")
LATTICE_OPS = ("gradient_matrix", "divergence_matrix", "laplacian_matrix",
               "fp_matrix", "fp_eig", "zero_mode_basis")
GAMMA = "_gamma_contractions"


def orbit_metric_flops(V):
    """Computed (not measured) flop count of one ``orbit_metric``: Cholesky
    of the V x V metric, V^3/3 + V^2/2 + V/6, plus the identity solve, two
    triangular solves with V right-hand sides, 2 V^3."""
    return V ** 3 / 3.0 + V ** 2 / 2.0 + V / 6.0 + 2.0 * V ** 3


def _fk_counts(a, result):
    cfg = a["cfg"]
    return {"paths": cfg.n_paths, "path_steps": cfg.n_paths * cfg.n_steps,
            "flag_paths": cfg.n_paths, "flagged": result.n_flagged}


def _girsanov_counts(a, result):
    counts = _fk_counts(a, result[1])      # flags come from the reweighted leg
    counts["path_steps"] *= 2              # drifted and reweighted legs
    return counts


def _weak_counts(a, result):
    steps = sum(int(round(a["horizon"] / dt)) for dt in a["dt_values"])
    return {"paths": a["n_paths"], "path_steps": a["n_paths"] * steps}


# span name -> counts read from the call's arguments and result
_COUNTERS = {
    "sde.feynman_kac": _fk_counts,
    "sde.girsanov_check": _girsanov_counts,
    "sde.weak_convergence_estimates": _weak_counts,
    "sde.reduced_batch_diagnostics": lambda a, r: {
        "paths": a["cfg"].n_paths, "reduced_paths": a["cfg"].n_paths,
        "reduced_completed": len(r[1])},
    "orbit.orbit_metric": lambda a, r: {
        "orbit_metric_flops": orbit_metric_flops(a["lat"].n_sites),
        f"orbit_metric_calls_V{a['lat'].n_sites}": 1},
}


class Tracer:
    """Installs and removes the outside wrappers; owns the recorded spans."""

    def __init__(self, package):
        self.package = package
        self.spans = []
        self.counts = []          # (pass, {counter: value}) per counted call
        self.stack = []
        self.pass_index = -1
        self._originals = {}      # (owner, attribute) -> original object

    # -- installation ---------------------------------------------------
    def install(self):
        pkg = self.package
        modules = [importlib.import_module(f"{pkg.__name__}.{m}") for m in TRACED_MODULES]
        wrappers = {}             # original function -> wrapper
        for short, mod in zip(TRACED_MODULES, modules):
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and (not attr.startswith("_") or attr == GAMMA)):
                    wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
        lattice_cls = pkg.lattice.Lattice
        for attr in LATTICE_OPS:
            fn = vars(lattice_cls).get(attr)
            if fn is not None:
                wrappers[fn] = self._wrap("lattice.ops", fn)
                self._originals[(lattice_cls, attr)] = fn
        # rebind every namespace of the package that imported a wrapped name
        for ns in [pkg] + modules:
            for attr, obj in vars(ns).items():
                if inspect.isfunction(obj) and obj in wrappers:
                    self._originals[(ns, attr)] = obj
        for (owner, attr), fn in self._originals.items():
            setattr(owner, attr, wrappers[fn])

    def uninstall(self):
        for (owner, attr), fn in self._originals.items():
            setattr(owner, attr, fn)
        self._originals.clear()

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        counter = _COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (name, parent, t0, t1, self.pass_index)
            if counter:
                try:
                    bound = signature.bind(*args, **kwargs).arguments
                    self.counts.append((self.pass_index, counter(bound, result)))
                except (TypeError, KeyError, AttributeError, IndexError):
                    pass            # the signature changed; the ratios read 0
            return result

        return traced

    # -- aggregation ----------------------------------------------------
    def per_pass(self, within):
        """{pass: {name: {"calls", "within", "s", "self_s"}}} plus counter sums.

        ``within`` counts the calls made inside a span named ``within``.
        ``s`` is inclusive time; a span nested inside a span of the same name
        is not added twice.  ``self_s`` is duration minus direct children.
        """
        child_time = defaultdict(float)
        inside = []               # parents precede children in self.spans
        for name, parent, t0, t1, _ in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
            inside.append(parent >= 0 and (inside[parent] or self.spans[parent][0] == within))
        out = defaultdict(lambda: defaultdict(
            lambda: {"calls": 0, "within": 0, "s": 0.0, "self_s": 0.0}))
        for sid, (name, parent, t0, t1, p) in enumerate(self.spans):
            rec = out[p][name]
            rec["calls"] += 1
            rec["within"] += inside[sid]
            rec["self_s"] += (t1 - t0) - child_time[sid]
            if not self._inside_same(sid, name):
                rec["s"] += t1 - t0
        counters = defaultdict(lambda: defaultdict(int))
        for p, c in self.counts:
            for k, v in c.items():
                counters[p][k] += v
        return out, counters

    def _inside_same(self, sid, name):
        parent = self.spans[sid][1]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][1]
        return False

    def dump(self, path):
        """Write the spans as gzipped JSON lines: a header naming the fields,
        then one ``[id, name, parent, start, end, pass]`` array per span."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps(["id", "name", "parent", "start", "end", "pass"]) + "\n")
            for sid, span in enumerate(self.spans):
                fh.write(json.dumps([sid, *span]) + "\n")
