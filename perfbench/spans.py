"""In-memory span tracer and per-layer metrics for the minvar benchmark.

The tracer wraps minvar's functions where their caller looks them up: a
module global of the calling module, or a class attribute. Each call records
one span (id, name, start, end, parent, thread, call, trial, size) in a list
that the benchmark writes out when the run ends. `size` is the work measure
the analysis needs: (N, T) of a trial, panel or covariance, k of a KKT
solve, the element count of a special-function call.

Parents come from a thread-local stack. Trial-pool workers inherit the
submitting thread's open span through a ThreadPoolExecutor subclass patched
into minvar.mc, so trial spans nest under their sweep.

A layer's self time is its span's duration minus the part of that interval
its child spans cover (the union of the children, which may overlap when
they run on the pool).
"""

from __future__ import annotations

import csv
import functools
import gzip
import importlib
import itertools
import statistics
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple


class Span(NamedTuple):
    id: int
    name: str
    start: int  # perf_counter_ns
    end: int
    parent: int  # 0 = root
    thread: int
    call: int  # index of the benchmark's CLI call
    trial: int  # trial_index within that call, -1 outside trials
    size: object


def _nt(args):
    cfg = args[0]
    return (cfg.universe.n, cfg.t)


def _elements(args):
    return getattr(args[0], "size", 1)


_SOLVERS = ("unconstrained_solution", "noshort_solution", "general_l1_solve")
_NORMS = ("norm_pdf", "norm_cdf", "norm_cdf_int", "norm_cdf_int2")

# (module whose lookup is patched, attribute path, span name, size function)
WRAP_POINTS = (
    ("minvar.cli", "sweep", "mc.sweep", None),
    ("minvar.mc", "run_trial", "mc.run_trial", _nt),
    ("minvar.mc", "generate_returns", "mc.generate_returns", _nt),
    ("minvar.qp", "CovMatrix.from_returns", "qp.CovMatrix.from_returns",
     lambda a: a[1].shape),
    ("minvar.mc", "min_variance_noshort", "qp.min_variance_noshort", None),
    ("minvar.mc", "min_variance_equality", "qp.min_variance_equality", None),
    # the one private boundary: KKT solves of the active-set solver
    ("minvar.qp", "_kkt_solve", "qp._kkt_solve", lambda a: a[0].shape[0]),
    ("minvar.mc", "true_optimum", "theory.true_optimum", None),
    *(("minvar.cli", f, f"theory.{f}", None) for f in _SOLVERS),
    ("minvar.cli", "build_mixture", "weights.build_mixture", None),
    ("minvar.weights", "WeightMixture.bin_mass", "weights.WeightMixture.bin_mass", None),
    ("minvar.cli", "write_rows", "cli.write_rows", None),
    *(("minvar.theory", f, f"special.{f}", _elements) for f in _NORMS),
    *(("minvar.weights", f, f"special.{f}", _elements) for f in _NORMS[:3]),
)


class Tracer:
    """Records spans of wrapped functions; `install` patches, `uninstall` restores."""

    def __init__(self):
        self.spans: list[Span] = []
        self.call = -1
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo = []

    def _stack(self) -> list[int]:
        loc = self._local
        if not hasattr(loc, "stack"):
            loc.stack, loc.trial = [], -1
        return loc.stack

    def wrap(self, name, fn, size=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            loc = tracer._local
            sid = next(tracer._ids)
            parent = stack[-1] if stack else 0
            outer_trial = loc.trial
            if name == "mc.run_trial":
                loc.trial = args[0].trial_index
            extra = size(args) if size else None
            stack.append(sid)
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                tracer.spans.append(Span(sid, name, t0, t1, parent, threading.get_ident(),
                                         tracer.call, loc.trial, extra))
                loc.trial = outer_trial

        return traced

    def _adopt(self, parent, trial, fn, *args, **kwargs):
        stack = self._stack()
        stack.append(parent)
        self._local.trial = trial
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()
            self._local.trial = -1

    def _pool_class(self):
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                stack = tracer._stack()
                parent = stack[-1] if stack else 0
                return super().submit(tracer._adopt, parent, tracer._local.trial,
                                      fn, *args, **kwargs)

        return TracedPool

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self):
        self.missing = []
        for mod_name, path, name, size in WRAP_POINTS:
            owner = importlib.import_module(mod_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                self.missing.append(f"{mod_name}.{path}")
                continue
            if isinstance(raw, classmethod):
                self._patch(owner, attr, classmethod(self.wrap(name, raw.__func__, size)))
            else:
                self._patch(owner, attr, self.wrap(name, raw, size))
        mc = importlib.import_module("minvar.mc")
        if "ThreadPoolExecutor" in vars(mc):
            self._patch(mc, "ThreadPoolExecutor", self._pool_class())

    def uninstall(self):
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def write_csv(self, path):
        """Write every span as gzipped CSV."""
        with gzip.open(path, "wt", encoding="utf-8", newline="") as fh:
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(Span._fields)
            out.writerows(self.spans)


def self_times(spans) -> dict[int, int]:
    """Span id -> duration minus the union of its children's intervals (ns)."""
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered, cur_a, cur_b = 0, None, None
        for a, b in sorted(children.get(s.id, ())):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if cur_b is None or a > cur_b:
                if cur_b is not None:
                    covered += cur_b - cur_a
                cur_a, cur_b = a, b
            else:
                cur_b = max(cur_b, b)
        if cur_b is not None:
            covered += cur_b - cur_a
        out[s.id] = s.end - s.start - covered
    return out


def _ms(ns) -> float:
    return ns / 1e6


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _dur(spans) -> int:
    return sum(s.end - s.start for s in spans)


def span_table(spans, selfs) -> dict:
    """Per span name: calls, total and self milliseconds."""
    table = defaultdict(lambda: {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
    for s in spans:
        row = table[s.name]
        row["calls"] += 1
        row["total_ms"] += _ms(s.end - s.start)
        row["self_ms"] += _ms(selfs[s.id])
    return dict(sorted(table.items()))


def _qp_spans(by):
    return by["qp.min_variance_noshort"] + by["qp.min_variance_equality"]


def _kkt_gflop(k) -> float:
    return 2.0 / 3.0 * (k + 1) ** 3 / 1e9


def point_breakdown(spans) -> list[dict]:
    """Per grid point (N, T): trial time, QP time and share, KKT solves."""
    trial_point = {}
    per = defaultdict(lambda: defaultdict(float))
    for s in spans:
        if s.name == "mc.run_trial":
            trial_point[(s.call, s.trial)] = s.size
            p = per[s.size]
            p["trials"] += 1
            p["trial_ms"] += _ms(s.end - s.start)
    for s in spans:
        key = trial_point.get((s.call, s.trial))
        if key is None:
            continue
        p = per[key]
        if s.name.startswith("qp.min_variance_"):
            p["qp_ms"] += _ms(s.end - s.start)
        elif s.name == "qp._kkt_solve":
            p["kkt_solves"] += 1
        elif s.name == "mc.generate_returns":
            p["generate_ms"] += _ms(s.end - s.start)
        elif s.name == "qp.CovMatrix.from_returns":
            p["cov_ms"] += _ms(s.end - s.start)
    rows = []
    for (n, t), p in sorted(per.items()):
        k = p["trials"]
        rows.append({
            "n": n, "t": t, "r": n / t, "trials": int(k),
            "ms_per_trial": p["trial_ms"] / k,
            "qp_ms_per_trial": p["qp_ms"] / k,
            "qp_share": _ratio(p["qp_ms"], p["trial_ms"]),
            "kkt_solves_per_trial": p["kkt_solves"] / k,
            "generate_cov_share": _ratio(p["generate_ms"] + p["cov_ms"], p["trial_ms"]),
        })
    return rows


def layer_metrics(spans, selfs, qp_stats, threads: int, bytes_out: float,
                  overhead_frac: float) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of BENCHMARK.json, as name -> (value, unit).

    A layer a workload does not run reads 0, and so do the KKT counters
    once minvar.qp._kkt_solve no longer exists.
    """
    by = defaultdict(list)
    for s in spans:
        by[s.name].append(s)
    trials = by["mc.run_trial"]
    nt = len(trials)
    trial_ms = sorted(_ms(s.end - s.start) for s in trials)
    kkt = by["qp._kkt_solve"]
    qp_ns = _dur(_qp_spans(by))
    gen, cov = by["mc.generate_returns"], by["qp.CovMatrix.from_returns"]
    # run_trial's own work: its self time plus the noiseless optimum
    trial_self = sum(selfs[s.id] for s in trials) + _dur(by["theory.true_optimum"])
    sweeps = by["mc.sweep"]
    solver_spans = [s for f in _SOLVERS for s in by[f"theory.{f}"]]
    points = len(solver_spans)
    special = [s for f in _NORMS for s in by[f"special.{f}"]]
    mixtures, bins = by["weights.build_mixture"], by["weights.WeightMixture.bin_mass"]
    writes = by["cli.write_rows"]
    if nt > 1:
        pct = statistics.quantiles(trial_ms, n=10, method="inclusive")
    else:
        pct = [trial_ms[0] if trial_ms else 0.0] * 9
    return {
        "qp.solve_ms_per_trial": (_ratio(_ms(qp_ns), nt), "ms"),
        "qp.kkt_solves_per_trial": (_ratio(len(kkt), nt), "count"),
        "qp.kkt_ms_per_solve": (_ratio(_ms(_dur(kkt)), len(kkt)), "ms"),
        "qp.kkt_gflop_per_trial": (_ratio(sum(_kkt_gflop(s.size) for s in kkt), nt),
                                   "GFLOP"),
        "qp.active_set_mean": (qp_stats["active_set_mean"], "count"),
        "qp.degenerate_frac": (qp_stats["degenerate_frac"], "fraction"),
        "qp.max_kkt_residual": (qp_stats["max_kkt_residual"], "1"),
        "qp.trial_share": (_ratio(qp_ns, _dur(trials)), "fraction"),
        "mc.generate_ms_per_trial": (_ratio(_ms(_dur(gen)), nt), "ms"),
        "mc.generate_bytes_per_trial": (
            _ratio(sum(8 * n * t for n, t in (s.size for s in gen)), nt), "B"),
        "qp.cov_ms_per_trial": (_ratio(_ms(_dur(cov)), nt), "ms"),
        "qp.cov_gflop_per_trial": (
            _ratio(sum(n * n * t / 1e9 for n, t in (s.size for s in cov)), nt), "GFLOP"),
        "mc.trial_samples": (nt, "count"),
        "mc.trial_ms_mean": (_ratio(sum(trial_ms), nt), "ms"),
        "mc.trial_ms_p50": (pct[4], "ms"),
        "mc.trial_ms_p90": (pct[8], "ms"),
        "mc.trial_self_ms": (_ratio(_ms(trial_self), nt), "ms"),
        "mc.sweep_self_ms": (_ratio(_ms(sum(selfs[s.id] for s in sweeps)), len(sweeps)),
                             "ms"),
        "mc.pool_efficiency": (_ratio(_dur(trials), _dur(sweeps) * threads), "fraction"),
        "theory.solve_ms_per_point": (_ratio(_ms(_dur(solver_spans)), points), "ms"),
        "theory.general_l1_ms_per_point": (
            _ratio(_ms(_dur(by["theory.general_l1_solve"])),
                   len(by["theory.general_l1_solve"])), "ms"),
        "special.calls_per_point": (_ratio(len(special), points), "count"),
        "special.elements_per_point": (_ratio(sum(s.size for s in special), points),
                                       "count"),
        "weights.build_mixture_ms": (_ratio(_ms(_dur(mixtures)), len(mixtures)), "ms"),
        "weights.bin_mass_calls": (_ratio(len(bins), len(mixtures)), "count"),
        "weights.bin_mass_us_per_call": (_ratio(_dur(bins) / 1e3, len(bins)), "us"),
        "cli.write_ms": (_ratio(_ms(_dur(writes)), len(writes)), "ms"),
        "cli.bytes_out": (bytes_out, "B"),
        "trace.overhead_frac": (overhead_frac, "fraction"),
    }
