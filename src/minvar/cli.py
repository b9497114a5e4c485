"""Command-line interface: analytic curves, Monte Carlo runs, comparisons.

Subcommands

    replica    analytic order parameters on an r grid
    simulate   Monte Carlo sweep of the finite-size optimizer
    compare    z-scores of a simulation against an analytic table
    phase      probability of the zero-variance (flat) phase on an r grid:
               `simulate` with the no-short constraint and only the phase
               columns
    weights    analytic weight-distribution table, optionally with MC bins

Every output embeds its full run specification (a `# spec=` comment line
in CSV, a top-level "spec" object in JSON) so any row can be reproduced
from the file alone. The spec excludes --threads and --out on purpose:
outputs are byte-identical across thread counts.

Exit codes: 0 success, 2 malformed request (including a negative or NaN
penalty, a count below its minimum, an unreadable or unwritable file, an
unparseable table or one that lacks a number `compare` computes with, and an
out-of-range sigma, one whose mean(1/sigma) or mean(1/sigma^2) is not
positive and finite), 3 solver failure. Ratios a branch refuses (phase
boundaries) are not errors: the row is emitted with status
"critical-boundary" and empty numerics.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from . import __version__
from .errors import CovarianceError, NoConvergenceError, PhaseBoundaryError
from .mc import OBSERVABLES, POINT_FIELDS, WEIGHT_ZERO_RTOL, bin_grid, sweep, weight_histogram
from .theory import AssetUniverse, RegularizerParams, general_l1_solve
from .weights import build_mixture

__all__ = [
    "EXIT_OK", "EXIT_USAGE", "EXIT_SOLVER", "parse_r_grid", "parse_sigma",
    "write_rows", "read_table", "build_parser", "main",
]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SOLVER = 3


def parse_r_grid(text: str) -> list[float]:
    """Grid syntax: 'lo:hi:step' (inclusive within 1e-9) or 'v1,v2,...'."""
    text = text.strip()
    try:
        if ":" in text:
            parts = text.split(":")
            if len(parts) != 3:
                raise ValueError
            lo, hi, step = (float(p) for p in parts)
            if not (0 < step < math.inf and -math.inf < lo <= hi < math.inf):
                raise ValueError
            out = []
            k = 0
            while True:
                v = lo + k * step
                if v > hi + 1e-9:
                    break
                out.append(v)
                k += 1
        else:
            out = [float(p) for p in text.split(",") if p.strip()]
            if not out:
                raise ValueError
    except ValueError:
        raise ValueError(f"cannot parse r grid {text!r}") from None
    if any(not math.isfinite(v) or v <= 0 for v in out):
        raise ValueError("ratios must be positive and finite")
    return out


def parse_sigma(spec: str, n: int | None):
    """Sigma spec: const:<v> | file:<path> | lognormal:<mu>,<s>,<seed>.

    Returns (universe, resolved_sigmas_or_None). File universes resolve to
    an explicit list so the embedded spec stays self-contained. Raises
    ValueError for a malformed spec or sigmas `AssetUniverse` refuses, and
    OSError for a file that cannot be read.
    """
    kind, sep, arg = spec.partition(":")
    if not sep:
        raise ValueError(f"bad sigma spec {spec!r}")
    if kind == "const":
        try:
            v = float(arg)
        except ValueError:
            raise ValueError(f"bad sigma constant {arg!r}") from None
        return AssetUniverse.constant(v, n or 100), None
    if kind == "file":
        try:
            with open(arg, "r", encoding="utf-8") as fh:
                vals = []
                for line in fh:
                    line = line.split("#", 1)[0].strip()
                    if line:
                        vals.append(float(line))
        except ValueError:
            raise ValueError("sigma file must hold one decimal per line") from None
        if not vals:
            raise ValueError("sigma file is empty")
        if n is not None and n != len(vals):
            raise ValueError(f"--n {n} conflicts with sigma file of length {len(vals)}")
        return AssetUniverse(tuple(vals)), vals
    if kind == "lognormal":
        try:
            mu_s, s_s, seed_s = arg.split(",")
            mu, s, sd = float(mu_s), float(s_s), int(seed_s)
        except ValueError:
            raise ValueError(
                "lognormal sigma needs mu,s,seed (e.g. lognormal:0.0,0.5,7)"
            ) from None
        return AssetUniverse.lognormal(mu, s, n or 100, sd), None
    raise ValueError(f"unknown sigma kind {kind!r}")


def _int_at_least(low: int):
    """argparse type: an integer no smaller than `low`."""

    def integer(text: str) -> int:
        v = int(text)  # argparse reports a ValueError as an invalid integer
        if v < low:
            raise argparse.ArgumentTypeError(f"{v} is below the minimum {low}")
        return v

    return integer


def _spec_eta(v: float):
    return "inf" if math.isinf(v) else v


def _fmt_csv(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def write_rows(out: str, spec: dict, fieldnames: list[str], rows: list[dict], fmt: str):
    """Serialize rows to CSV (spec comment + header) or JSON (spec + rows)."""
    if fmt == "csv":
        buf = io.StringIO()
        buf.write("# spec=" + json.dumps(spec, sort_keys=True, separators=(",", ":")) + "\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(fieldnames)
        for row in rows:
            # float cells, nearly all of a table, skip _fmt_csv's type tests
            writer.writerow([format(v, ".17g") if type(v) is float else _fmt_csv(v)
                             for v in map(row.get, fieldnames)])
        text = buf.getvalue()
    else:
        payload = {"spec": spec, "rows": [{f: row.get(f) for f in fieldnames} for row in rows]}
        text = json.dumps(payload, indent=2) + "\n"
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


# CSV cells that write_rows does not write as a number or text
_CELLS = {None: None, "": None, "true": True, "false": False}


def _cell(text):
    """One CSV cell, parsed back: None, a bool, a float, or the text itself."""
    if text in _CELLS:
        return _CELLS[text]
    try:
        return float(text)
    except ValueError:
        return text


def read_table(path: str):
    """Read a table written by write_rows; returns (spec, rows) with floats parsed.

    Raises ValueError, naming `path`, for a file that is not such a table.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        if text.startswith("# spec="):
            lines = text.splitlines()
            spec = json.loads(lines[0][len("# spec="):])
            body = [ln for ln in lines[1:] if ln and not ln.startswith("#")]
            rows = [{k: _cell(v) for k, v in raw.items()} for raw in csv.DictReader(body)]
        else:
            data = json.loads(text)
            spec, rows = data["spec"], data["rows"]
        if not (isinstance(spec, dict) and isinstance(rows, list)
                and all(isinstance(row, dict) for row in rows)):
            raise TypeError("needs a spec object and a list of row objects")
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"{path} is not a minvar table: {exc!r}") from None
    return spec, rows


def _request(args, reg=None):
    """Parse the grid and sigma of a request; returns (grid, universe, spec).

    JSON output keeps the spec's key order: command, r_grid, n, [trials],
    sigma, constraint, [eta1, eta2], [seed], [bin_width], format, [sigmas].
    With penalties `reg` the constraint is the corner they solve, which
    overrides --constraint, and null for a penalized interior point.
    """
    grid = parse_r_grid(args.r_grid)
    universe, resolved = parse_sigma(args.sigma, args.n)
    spec = {"command": args.command, "r_grid": grid, "n": universe.n}
    if "trials" in args:
        spec["trials"] = args.trials
    spec.update(sigma=args.sigma,
                constraint=args.constraint if reg is None else _corner(reg))
    if reg is not None:
        spec.update(eta1=_spec_eta(reg.eta1), eta2=_spec_eta(reg.eta2))
    for key in ("seed", "bin_width"):
        if key in args:
            spec[key] = getattr(args, key)
    spec["format"] = args.format
    if resolved is not None:
        spec["sigmas"] = resolved
    return grid, universe, spec


def _corner_reg(constraint: str, eta1, eta2) -> RegularizerParams:
    if eta1 is None and eta2 is None:
        if constraint == "equality":
            return RegularizerParams.none()
        return RegularizerParams.short_ban()
    return RegularizerParams(eta1 or 0.0, eta2 or 0.0)


def _corner(reg: RegularizerParams) -> str | None:
    """The finite-size constraint `reg` corresponds to, or None if penalized."""
    if reg.eta1 == 0.0 and reg.eta2 == 0.0:
        return "equality"
    if reg.eta1 == 0.0 and reg.bans_shorts:
        return "noshort"
    return None


# replica column -> ReplicaSolution attribute
_REPLICA_COLUMNS = {
    "lambda": "lam", "delta": "delta", "q0": "q0", "q0_tilde": "q0_tilde",
    "f": "free_energy", "n0": "n0",
}
REPLICA_FIELDS = ["r", *_REPLICA_COLUMNS, "status"]


def cmd_replica(args) -> int:
    reg = _corner_reg(args.constraint, args.eta1, args.eta2)
    grid, universe, spec = _request(args, reg)
    rows = []
    for r in grid:
        try:
            sol = general_l1_solve(universe, r, reg)
        except PhaseBoundaryError:
            rows.append({"r": r, "status": "critical-boundary"})
            continue
        rows.append(
            {"r": r, **{col: getattr(sol, attr) for col, attr in _REPLICA_COLUMNS.items()},
             "status": "ok"}
        )
    write_rows(args.out, spec, REPLICA_FIELDS, rows, args.format)
    return EXIT_OK


_POINT_COLUMNS = [name for name, _ in POINT_FIELDS]
SIMULATE_FIELDS = [*_POINT_COLUMNS, *(c for o in OBSERVABLES for c in o.columns)]
# the phase columns: the shares of the boolean observables
PHASE_FIELDS = [*_POINT_COLUMNS, *(c for o in OBSERVABLES if o.boolean for c in o.columns)]


def cmd_simulate(args) -> int:
    """`simulate`, and `phase` (no-short, PHASE_FIELDS) through the same sweep."""
    if args.eta1 is not None or args.eta2 is not None:
        raise ValueError(
            "simulate only implements the equality and noshort corners; "
            "penalty values cannot be simulated"
        )
    grid, universe, spec = _request(args)
    points = sweep(
        universe, grid, args.trials, constraint=args.constraint,
        seed=args.seed, threads=args.threads,
    )
    rows = [{f: getattr(p, f) for f in args.fields} for p in points]
    write_rows(args.out, spec, args.fields, rows, args.format)
    return EXIT_OK


WEIGHTS_FIELDS = [
    "r_requested", "r", "kind", "w_lo", "w_hi",
    "analytic_mass", "mc_mass", "status",
]


def _bin_edges(mix, bw: float, pooled=None) -> np.ndarray:
    """Edges k * bw covering +-8 spreads of every component and every pooled weight."""
    b, s = mix.center_neg, mix.spread
    hi_w = float(np.max(mix.center_pos + 8.0 * s))
    lo_w = 0.0 if np.all(np.isinf(b)) else min(0.0, float(np.min(b - 8.0 * s)))
    if pooled is not None:
        live = pooled[np.abs(pooled) > WEIGHT_ZERO_RTOL]
        if live.size:
            lo_w = min(lo_w, float(live.min()))
            hi_w = max(hi_w, float(live.max()))
    return bin_grid(lo_w, hi_w, bw)


def cmd_weights(args) -> int:
    reg = _corner_reg(args.constraint, args.eta1, args.eta2)
    grid, universe, spec = _request(args, reg)
    if args.trials > 0 and _corner(reg) is None:
        raise ValueError("Monte Carlo weight bins only exist for the corner constraints")
    bw = args.bin_width
    if not (bw > 0 and math.isfinite(bw)):
        raise ValueError("bin width must be positive and finite")
    points = [None] * len(grid)
    if args.trials > 0:
        points = sweep(
            universe, grid, args.trials, constraint=_corner(reg), seed=args.seed,
            threads=args.threads, keep_weights=True,
        )
    rows = []
    for r_req, point in zip(grid, points):
        pooled, r_here = (None, r_req) if point is None else (point.weights, point.r)
        atom = {"r_requested": r_req, "r": r_here, "kind": "atom", "w_lo": 0.0, "w_hi": 0.0}
        try:
            sol = general_l1_solve(universe, r_here, reg)
        except PhaseBoundaryError:
            rows.append({**atom, "status": "critical-boundary"})
            continue
        mix = build_mixture(sol)
        edges = _bin_edges(mix, bw, pooled)
        masses = mix.bin_mass(edges)
        mc_atom, mc_masses = None, [None] * len(masses)
        if pooled is not None:
            hist = weight_histogram(pooled, edges=edges)
            mc_atom, mc_masses = hist.atom, [float(m) for m in hist.masses]
        rows.append({**atom, "analytic_mass": sol.n0, "mc_mass": mc_atom, "status": "ok"})
        rows += [
            {"r_requested": r_req, "r": r_here, "kind": "bin", "w_lo": float(lo),
             "w_hi": float(hi), "analytic_mass": float(m), "mc_mass": mc, "status": "ok"}
            for lo, hi, m, mc in zip(edges[:-1], edges[1:], masses, mc_masses)
        ]
    write_rows(args.out, spec, WEIGHTS_FIELDS, rows, args.format)
    return EXIT_OK


COMPARE_FIELDS = ["r", "metric", "analytic", "mc_mean", "mc_se", "z", "within_3se"]


def _zscore(diff: float, se: float, ref: float) -> float:
    if se > 0:
        return abs(diff) / se
    return 0.0 if abs(diff) <= 1e-12 * max(1.0, abs(ref)) else math.inf


def _number(path: str, k: int, row: dict, col: str) -> float:
    """Cell `col` of row `k` (counted from 1) of the table at `path`; it must be a number."""
    v = row.get(col)
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValueError(f"{path} row {k}: {col} = {v!r} is not a number")
    return v


def cmd_compare(args) -> int:
    spec_a, rows_a = read_table(args.analytic)
    spec_s, rows_s = read_table(args.simulation)
    ok_a = [(k, _number(args.analytic, k, row, "r"), row)
            for k, row in enumerate(rows_a, 1) if row.get("status") == "ok"]
    rows = []
    for k_s, srow in enumerate(rows_s, 1):
        r_s = _number(args.simulation, k_s, srow, "r")
        match = [(k, row) for k, r_a, row in ok_a if abs(r_a - r_s) <= 1e-9]
        if not match:
            raise ValueError(
                f"grid mismatch: no analytic row within 1e-9 of r = {r_s!r} "
                "(analytic tables must be evaluated on the simulation's "
                "achieved grid r = N/T)"
            )
        k_a, arow = match[0]
        for o in OBSERVABLES:
            metric, (mcol, scol) = o.estimates, o.columns
            if metric is None or arow.get(metric) is None or srow.get(mcol) is None:
                continue
            ref = _number(args.analytic, k_a, arow, metric)
            mean, se = (_number(args.simulation, k_s, srow, c) for c in (mcol, scol))
            z = _zscore(mean - ref, se, ref)
            rows.append(
                {"r": r_s, "metric": metric, "analytic": ref,
                 "mc_mean": mean, "mc_se": se, "z": z,
                 "within_3se": bool(z <= 3.0)}
            )
    if not rows:
        raise ValueError("nothing to compare: no shared metrics on matching rows")
    n_pass = sum(1 for row in rows if row["within_3se"])
    verdict = "PASS" if n_pass == len(rows) else "FAIL"
    spec = {
        "command": "compare",
        "analytic_spec": spec_a,
        "simulation_spec": spec_s,
        "threshold": 3.0,
        "verdict": verdict,
        "format": args.format,
    }
    write_rows(args.out, spec, COMPARE_FIELDS, rows, args.format)
    if args.out != "-":
        print(f"{verdict}: {n_pass}/{len(rows)} metrics within 3 SE")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minvar",
        description="High-dimensional minimum-variance portfolios: "
        "analytic theory and Monte Carlo verification.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    count = _int_at_least(1)

    def common(p, trials_default=None, min_trials=1):
        p.add_argument("--r-grid", required=True,
                       help="'lo:hi:step' or comma list of N/T ratios")
        p.add_argument("--n", type=count, default=None,
                       help="number of assets (default 100; fixed by file sigmas)")
        p.add_argument("--sigma", default="const:1.0",
                       help="const:<v> | file:<path> | lognormal:<mu>,<s>,<seed>")
        p.add_argument("--out", default="-", help="output path ('-' = stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        if trials_default is not None:
            p.add_argument("--trials", type=_int_at_least(min_trials), default=trials_default)
            p.add_argument("--seed", type=_int_at_least(0), default=0)
            p.add_argument("--threads", type=count, default=1)

    def penalties(p, help_eta1, help_eta2):
        p.add_argument("--constraint", choices=("equality", "noshort"), default="noshort")
        p.add_argument("--eta1", type=float, default=None, help=help_eta1)
        p.add_argument("--eta2", type=float, default=None, help=help_eta2)

    p_rep = sub.add_parser("replica", help="analytic order parameters on an r grid")
    common(p_rep)
    penalties(p_rep, "penalty per unit positive weight",
              "penalty per unit negative weight ('inf' bans shorts)")
    p_rep.set_defaults(func=cmd_replica)

    p_sim = sub.add_parser("simulate", help="Monte Carlo sweep of the optimizer")
    common(p_sim, trials_default=100)
    penalties(p_sim, argparse.SUPPRESS, argparse.SUPPRESS)
    p_sim.set_defaults(func=cmd_simulate, fields=SIMULATE_FIELDS)

    p_phase = sub.add_parser("phase", help="zero-variance phase probability curve")
    common(p_phase, trials_default=200)
    p_phase.set_defaults(func=cmd_simulate, fields=PHASE_FIELDS,
                         constraint="noshort", eta1=None, eta2=None)

    p_w = sub.add_parser("weights", help="weight-distribution table")
    common(p_w, trials_default=0, min_trials=0)
    penalties(p_w, None, None)
    p_w.add_argument("--bin-width", type=float, default=0.05)
    p_w.set_defaults(func=cmd_weights)

    p_cmp = sub.add_parser("compare", help="z-scores of simulation vs analytic table")
    p_cmp.add_argument("analytic", help="table written by 'replica'")
    p_cmp.add_argument("simulation", help="table written by 'simulate'")
    p_cmp.add_argument("--out", default="-")
    p_cmp.add_argument("--format", choices=("csv", "json"), default="csv")
    p_cmp.set_defaults(func=cmd_compare)

    return parser


# built once per process (~1.2 ms and ~1000 objects a call); parse_args
# fills a fresh Namespace each time, so no state crosses calls
_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (NoConvergenceError, CovarianceError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
