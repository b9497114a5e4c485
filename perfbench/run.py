"""minvar benchmark: end-to-end throughput and per-layer traced metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all  --seed N --seconds S --trace 0|1

Run from the root of a minvar source tree; the package is imported from
src/. Each workload drives `minvar.cli.main(argv)` in this process.

--trace 0 measures the end-to-end metrics with tracing off: rounds of CLI
calls run until their summed wall time reaches --seconds, throughput is
their units over their summed time, and set-up time is the median of
several fresh interpreters that import, build the universe and make one
warm-up call. Both are scaled to a nominal machine speed, read from a fixed
reference kernel timed between calls (see SpeedGauge). --trace 1 runs a
fixed number of rounds, each once untraced and once traced, and reports the
per-layer metrics of the traced rounds.

Every CLI call's output is checked outside its timed interval: exit code 0,
the table parses with minvar.cli.read_table and meets the workload's
invariants, every Monte Carlo trial's KKT residual is at most 1e-8, and a
fixed-seed slice matches the reference tables in perfbench/reference/.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Details (machine facts, per-round timings,
failures, the trace summary and the spans) go to .perfbench_work/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spans
import workloads

workloads.pin_blas_threads()  # before anything imports numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
# Reference kernel time at nominal speed: an unloaded core of a 2-vCPU
# Intel Xeon VM (Python 3.11, numpy 2.4). It only sets the scale.
KERNEL_NOMINAL_S = 0.030


class SpeedGauge:
    """Times a fixed reference kernel, to scale wall times to nominal speed.

    On a shared virtual machine the host may give a vCPU a varying share of
    a physical core: wall and CPU time of the same work then stretch alike,
    by up to 60% over minutes, and every code path by about the same
    factor. The kernel, a fixed mix of interpreter and numpy work that does not touch
    minvar, is timed after every measured call. The stretch factor of an
    interval is the median time of the kernel runs around it over
    KERNEL_NOMINAL_S. Work that goes on between calls (a busy background
    thread) would slow the kernel too and be scaled away; the raw figures in
    result.json show it. README.md gives the measurements behind this.
    """

    def __init__(self):
        import numpy

        self._x = numpy.linspace(-3.0, 3.0, 4096)
        self._exp = numpy.exp
        self._kernel()  # warm-up

    def _kernel(self) -> float:
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += (i * 7) % 13
        x, exp = self._x, self._exp
        for _ in range(1000):
            exp(-x * x).sum()
        return time.perf_counter() - t0

    def sample(self, into: list[float]) -> None:
        into.append(self._kernel())

    @staticmethod
    def stretch(samples: list[float]) -> float:
        return statistics.median(samples) / KERNEL_NOMINAL_S


class QpCapture:
    """Records every solver call minvar.mc makes, for the KKT residual check."""

    def __init__(self, mc, kkt_residual):
        self._items = []
        self._kkt_residual = kkt_residual
        for name in ("min_variance_noshort", "min_variance_equality"):
            setattr(mc, name, self._recorder(getattr(mc, name)))
        self.reset()

    def _recorder(self, solve):
        items = self._items

        def record(c, *args, **kwargs):
            res = solve(c, *args, **kwargs)
            items.append((c, res, kwargs.get("budget", args[0] if args else None)))
            return res

        return record

    def reset(self):
        self.trials = self.active = self.degenerate = 0
        self.max_residual = 0.0

    def drain(self) -> tuple[int, list[str]]:
        """Check and forget the recorded calls; returns (count, failures)."""
        errs = []
        items = self._items[:]
        self._items.clear()
        for c, res, budget in items:
            resid = self._kkt_residual(c, res, c.n if budget is None else budget)
            self.trials += 1
            self.active += len(res.active_set)
            self.degenerate += bool(res.degenerate)
            self.max_residual = max(self.max_residual, resid)
            if not resid <= workloads.KKT_LIMIT:
                errs.append(f"KKT residual {resid:.3e} above {workloads.KKT_LIMIT:g}")
        return len(items), errs

    def stats(self) -> dict:
        n = self.trials
        return {
            "active_set_mean": self.active / n if n else 0.0,
            "degenerate_frac": self.degenerate / n if n else 0.0,
            "max_kkt_residual": self.max_residual,
        }


class Runner:
    """Makes checked CLI calls and counts attempted and failed operations."""

    def __init__(self, cli, capture, work: Path):
        self.cli = cli
        self.capture = capture
        self.work = work
        self.main = cli.main
        self.attempted = 0
        self.failures: list[str] = []
        self.call_index = 0
        self.tracer = None

    def fail(self, what: str, errs: list[str]):
        self.failures.append(f"{what}: " + "; ".join(errs[:5]))

    def call(self, c, out: Path, threads=None, extra_check=None):
        """One checked CLI call; returns (wall seconds, output bytes)."""
        argv = c.argv(str(out)) if threads is None else c.argv(str(out), threads)
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.call = self.call_index
        self.call_index += 1
        errs = []
        out.unlink(missing_ok=True)
        t0 = time.perf_counter()
        try:
            rc = self.main(argv)
        except Exception:
            rc = None
            errs.append(traceback.format_exc(limit=3))
        wall = time.perf_counter() - t0
        if rc != 0:
            errs.append(f"exit code {rc}")
        else:
            try:
                rows = self.cli.read_table(str(out))[1]
            except (OSError, ValueError, KeyError) as exc:
                errs.append(f"unreadable table: {exc!r}")
            else:
                errs += c.check(rows)
                if extra_check is not None:
                    errs += extra_check(rows)
        count, kkt_errs = self.capture.drain()
        errs += kkt_errs
        if isinstance(c, workloads.Simulate) and count != c.units:
            errs.append(f"{count} solver calls for {c.units} trials")
        if errs:
            self.fail(" ".join(argv), errs)
        size = out.stat().st_size if out.exists() else 0
        return wall, size


def reference_pass(run: Runner, wl: workloads.Workload):
    """Fixed-seed slice against the committed tables; also warms every path."""
    for k, (stem, c) in enumerate(wl.reference_calls()):
        ref = HERE / "reference" / f"{stem}.csv"
        noshort = isinstance(c, workloads.Simulate) and c.constraint == "noshort"

        def against_reference(rows, ref=ref, noshort=noshort):
            try:
                want = run.cli.read_table(str(ref))[1]
            except OSError as exc:
                return [f"reference missing: {exc}"]
            return workloads.compare_tables(want, rows, noshort)

        out = run.work / f"ref-{k}.csv"
        run.call(c, out, extra_check=against_reference)
        if isinstance(c, workloads.Simulate) and c.threads > 1:
            # outputs must be byte-identical for any thread count
            single = run.work / f"ref-{k}-threads1.csv"
            run.call(c, single, threads=1, extra_check=lambda rows: (
                [] if single.read_bytes() == out.read_bytes()
                else ["threads=1 output differs from threads=%d" % c.threads]))


def run_round(run: Runner, wl, seed: int, index: int, gauge=None, kernel_s=None):
    """One round of checked calls; returns (wall seconds, units, output sizes).

    With a gauge, the kernel is timed after every call into `kernel_s`.
    """
    wall = units = 0.0
    sizes = []
    for j, c in enumerate(wl.round_calls(seed, index)):
        dt, size = run.call(c, run.work / f"out-{j}.csv")
        if gauge is not None:
            gauge.sample(kernel_s)
        wall += dt
        units += c.units
        sizes.append(size)
    return wall, units, sizes


def timed_pass(run: Runner, wl, seed: int, seconds: float, gauge) -> dict:
    """Rounds until `seconds` of call time have passed, at least 3.

    The pass stops once the next round would end more than half a round past
    `seconds`, so its measured span is `seconds` on average. A round's wall
    time is divided by the stretch factor of the kernel runs just before,
    within and just after it; throughput is the units of all rounds over
    the sum of these scaled times.
    """
    units, walls, scaled, kernel_s = [], [], [], []
    gauge.sample(kernel_s)
    while True:
        first = len(kernel_s) - 1
        wall, done, _ = run_round(run, wl, seed, len(walls), gauge, kernel_s)
        units.append(done)
        walls.append(wall)
        scaled.append(wall / gauge.stretch(kernel_s[first:]))
        if len(walls) >= 3 and sum(walls) + statistics.fmean(walls) / 2 >= seconds:
            return {"throughput_per_s": sum(units) / sum(scaled),
                    "raw_throughput_per_s": sum(units) / sum(walls),
                    "units": units, "walls": walls, "scaled_walls": scaled,
                    "kernel_s": kernel_s}


def traced_pass(run: Runner, wl, seed: int, rounds: int, tracer, cli) -> dict:
    """Each round untraced, then again traced, so both see the same machine load."""
    plain, traced, sizes = [], [], []
    for i in range(rounds):
        plain.append(run_round(run, wl, seed, i)[0])
        tracer.install()
        run.main, run.tracer = tracer.wrap("cli.main", cli.main), tracer
        try:
            wall, _, out = run_round(run, wl, seed, i)
        finally:
            tracer.uninstall()
            run.main, run.tracer = cli.main, None
        traced.append(wall)
        sizes += out
    return {"untraced_walls": plain, "traced_walls": traced,
            "overhead_frac": sum(traced) / sum(plain) - 1.0,
            "bytes_per_call": statistics.fmean(sizes)}


def setup_seconds(run: Runner, wl, gauge) -> dict:
    """Median wall time of fresh interpreters doing the workload's set-up,
    divided by the stretch factor of kernel runs before and after each."""
    times, kernel_s = [], []
    gauge.sample(kernel_s)
    for _ in range(SETUP_PROBES):
        run.attempted += 1
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), wl.name, str(run.work)],
            capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        gauge.sample(kernel_s)
        if proc.returncode != 0:
            run.fail("setup probe", [proc.stderr.strip()[-500:]])
    stretch = gauge.stretch(kernel_s)
    return {"setup_s": statistics.median(times) / stretch,
            "raw_setup_s": statistics.median(times), "stretch": stretch,
            "walls": times, "kernel_s": kernel_s}


def machine_facts() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('openblas configuration', blas.get('version'))}",
        "blas_env": {v: os.environ.get(v) for v in workloads.BLAS_ENV},
    }


def run_workload(wl, seed: int, seconds: int, trace: bool) -> dict:
    import minvar.cli as cli
    import minvar.mc as mc
    import minvar.qp as qp

    work = ROOT / ".perfbench_work" / f"{wl.name}-seed{seed}-trace{int(trace)}"
    work.mkdir(parents=True, exist_ok=True)
    capture = QpCapture(mc, qp.kkt_residual)
    run = Runner(cli, capture, work)
    reference_pass(run, wl)
    detail = {"workload": wl.name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "machine": machine_facts()}
    if not trace:
        gauge = SpeedGauge()
        timed = timed_pass(run, wl, seed, seconds, gauge)
        setup = setup_seconds(run, wl, gauge)
        metrics = {
            "throughput_per_s": (timed["throughput_per_s"], "1/s"),
            "setup_s": (setup["setup_s"], "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        detail.update(timed=timed, setup=setup)
    else:
        tracer = spans.Tracer()
        capture.reset()
        rounds = max(1, round(seconds / 2 / wl.round_s))
        passes = traced_pass(run, wl, seed, rounds, tracer, cli)
        selfs = spans.self_times(tracer.spans)
        metrics = spans.layer_metrics(tracer.spans, selfs, capture.stats(), wl.threads,
                                      passes["bytes_per_call"], passes["overhead_frac"])
        tracer.write_csv(work / "spans.csv.gz")
        detail.update(passes=passes, missing_wrap_points=tracer.missing,
                      points=spans.point_breakdown(tracer.spans),
                      spans=spans.span_table(tracer.spans, selfs))
        if tracer.missing:
            print("not wrapped (absent): " + ", ".join(tracer.missing), file=sys.stderr)
    detail["failures"] = run.failures
    detail["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": detail["metrics"],
    }
    (work / "result.json").write_text(json.dumps(detail, indent=1) + "\n")
    return result


def run_all(args) -> dict:
    """Every workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900)
        if proc.returncode != 0:
            raise SystemExit(f"workload {name} exited {proc.returncode}")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for key, val in res["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = val
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        result = run_all(args)
    else:
        sys.path.insert(0, str(ROOT / "src"))
        try:
            import minvar.cli  # noqa: F401
        except ImportError as exc:
            print(f"error: cannot import minvar from {ROOT / 'src'}: {exc}", file=sys.stderr)
            return 2
        result = run_workload(workloads.WORKLOADS[args.workload], args.seed,
                              args.seconds, bool(args.trace))
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(f"attempted = {result['attempted']}, failed = {result['failed']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
