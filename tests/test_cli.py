"""Tests for the command-line interface.

Most cases drive `main(argv)` in process; one subprocess smoke test
covers the installed entry points. File outputs are parsed back with the
package's own table reader, whose round-trip fidelity is itself under
test here.
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from minvar import NoConvergenceError, unconstrained_solution, noshort_solution
from minvar import AssetUniverse, QpResult, TrialConfig, run_trial, sweep, weight_histogram
from minvar.cli import (
    EXIT_OK,
    EXIT_SOLVER,
    EXIT_USAGE,
    PHASE_FIELDS,
    UsageError,
    main,
    parse_r_grid,
    parse_sigma,
    read_table,
    write_rows,
)
from minvar.mc import OBSERVABLES


# ---------------------------------------------------------------------------
# Argument micro-parsers
# ---------------------------------------------------------------------------


def test_parse_r_grid_range():
    assert parse_r_grid("0.1:0.5:0.2") == pytest.approx([0.1, 0.3, 0.5])
    # Inclusive endpoint despite binary-float step accumulation.
    assert parse_r_grid("0.25:1.75:0.25")[-1] == pytest.approx(1.75)
    assert len(parse_r_grid("0.25:1.75:0.25")) == 7
    assert parse_r_grid("1.5,0.5") == [1.5, 0.5]
    assert parse_r_grid(" 0.7 ") == [0.7]


@pytest.mark.parametrize(
    "bad", ["", "0.5:0.1:0.2", "1:2", "a,b", "0.0", "-1.0", "inf", "1:2:0",
            "0.5:inf:0.5", "nan:1:0.5", "0.5:1:nan", "0.5:1:inf"]
)
def test_parse_r_grid_rejects(bad):
    with pytest.raises(UsageError):
        parse_r_grid(bad)


def test_parse_sigma_const_and_lognormal():
    uni, resolved = parse_sigma("const:2.0", 3)
    assert uni.sigmas == (2.0, 2.0, 2.0)
    assert resolved is None
    default_n, _ = parse_sigma("const:1.0", None)
    assert default_n.n == 100
    log1, _ = parse_sigma("lognormal:0.0,0.5,7", 10)
    log2, _ = parse_sigma("lognormal:0.0,0.5,7", 10)
    assert log1 == log2


def test_parse_sigma_file(tmp_path):
    p = tmp_path / "sig.txt"
    p.write_text("1.0\n2.0  # slow asset\n\n4.0\n")
    uni, resolved = parse_sigma(f"file:{p}", None)
    assert uni.sigmas == (1.0, 2.0, 4.0)
    assert resolved == [1.0, 2.0, 4.0]
    with pytest.raises(UsageError):
        parse_sigma(f"file:{p}", 5)  # conflicting --n
    with pytest.raises(UsageError):
        parse_sigma(f"file:{tmp_path/'missing.txt'}", None)


@pytest.mark.parametrize(
    "bad",
    ["const:-1", "const:x", "plain", "gauss:1", "lognormal:0.0,0.5", "const:inf",
     "lognormal:0.0,0.5,-1", "lognormal:0.0,nan,1", "lognormal:inf,0.5,1"],
)
def test_parse_sigma_rejects(bad):
    with pytest.raises(UsageError):
        parse_sigma(bad, None)


# ---------------------------------------------------------------------------
# replica
# ---------------------------------------------------------------------------


def run_cli(*argv):
    return main(list(argv))


def test_csv_cell_text_is_pinned(capsys):
    rows = [
        {"a": None, "b": True, "c": False, "d": 7, "e": -0.0, "f": math.inf, "g": 5e-324},
        {"a": "ok", "b": -math.inf, "c": 0.1, "d": -3, "e": 2.2250738585072014e-308 / 3,
         "f": np.float64(1.0 / 3.0), "g": 1e300},
    ]
    write_rows("-", {"command": "x"}, list("abcdefg"), rows, "csv")
    assert capsys.readouterr().out == (
        '# spec={"command":"x"}\n'
        "a,b,c,d,e,f,g\n"
        ",true,false,7,-0,inf,4.9406564584124654e-324\n"
        "ok,-inf,0.10000000000000001,-3,7.4169128616906696e-309,"
        "0.33333333333333331,1.0000000000000001e+300\n"
    )


def test_replica_csv_values(tmp_path):
    out = tmp_path / "rep.csv"
    code = run_cli(
        "replica", "--r-grid", "0.2,0.5", "--n", "2", "--constraint", "equality",
        "--out", str(out),
    )
    assert code == EXIT_OK
    spec, rows = read_table(str(out))
    assert spec["command"] == "replica"
    assert spec["constraint"] == "equality"
    assert spec["eta1"] == 0 and spec["eta2"] == 0
    assert [row["r"] for row in rows] == [0.2, 0.5]
    uni = AssetUniverse.constant(1.0, 2)
    for row in rows:
        sol = unconstrained_solution(uni, row["r"])
        assert row["lambda"] == pytest.approx(sol.lam, rel=1e-15)
        assert row["q0_tilde"] == pytest.approx(sol.q0_tilde, rel=1e-15)
        assert row["f"] == pytest.approx(sol.free_energy, rel=1e-15)
        assert row["n0"] == 0.0
        assert row["status"] == "ok"
    # First line embeds the full reproduction spec.
    first = out.read_text().splitlines()[0]
    assert first.startswith("# spec=")
    assert json.loads(first[len("# spec=") :])["command"] == "replica"


def test_replica_json_matches_csv(tmp_path):
    argv = ["replica", "--r-grid", "0.4,1.3", "--n", "3", "--constraint", "noshort"]
    cs, js = tmp_path / "a.csv", tmp_path / "a.json"
    assert run_cli(*argv, "--out", str(cs)) == EXIT_OK
    assert run_cli(*argv, "--out", str(js), "--format", "json") == EXIT_OK
    spec_c, rows_c = read_table(str(cs))
    spec_j, rows_j = read_table(str(js))
    assert rows_c == rows_j
    assert spec_c["command"] == spec_j["command"]
    raw = json.loads(js.read_text())
    assert set(raw) == {"spec", "rows"}


def test_replica_refuses_boundary_rows_but_exits_zero(tmp_path):
    out = tmp_path / "b.csv"
    code = run_cli(
        "replica", "--r-grid", "0.5,1.0,1.5", "--n", "1", "--constraint", "equality",
        "--out", str(out),
    )
    assert code == EXIT_OK
    _, rows = read_table(str(out))
    assert [row["status"] for row in rows] == ["ok", "critical-boundary", "critical-boundary"]
    assert rows[1]["lambda"] is None and rows[2]["q0_tilde"] is None
    # No-short boundary sits at r = 2 instead.
    out2 = tmp_path / "c.csv"
    assert run_cli("replica", "--r-grid", "1.5,2.5", "--n", "1", "--out", str(out2)) == EXIT_OK
    _, rows2 = read_table(str(out2))
    assert rows2[0]["status"] == "ok"
    assert rows2[1]["status"] == "critical-boundary"


def test_noshort_replica_is_critical_within_margin_of_r_2(tmp_path):
    out = tmp_path / "m.csv"
    grid = "1.9999999999998,1.999999999999999,1.9999999999999996"
    code = run_cli("replica", "--r-grid", grid, "--n", "20", "--constraint", "noshort",
                   "--sigma", "lognormal:0.0,1.5,1", "--out", str(out))
    assert code == EXIT_OK
    _, rows = read_table(str(out))
    assert [row["status"] for row in rows] == ["ok", "critical-boundary", "critical-boundary"]
    assert rows[1]["delta"] is None


def test_replica_small_ratios_solve(tmp_path):
    # Targets 1/(2r) of 1e4..5e5, where an absolute 1e-12 root residual is
    # below double-precision resolution.
    out = tmp_path / "small.csv"
    code = run_cli("replica", "--r-grid", "0.00001,0.00005,0.000001", "--out", str(out))
    assert code == EXIT_OK
    _, rows = read_table(str(out))
    assert [row["status"] for row in rows] == ["ok"] * 3
    assert all(row["lambda"] > 0 for row in rows)


def test_replica_eta_overrides(tmp_path):
    out = tmp_path / "eta.csv"
    code = run_cli(
        "replica", "--r-grid", "0.8", "--n", "1",
        "--constraint", "equality", "--eta1", "0.3", "--eta2", "1.5",
        "--out", str(out),
    )
    assert code == EXIT_OK
    spec, rows = read_table(str(out))
    assert spec["eta1"] == 0.3 and spec["eta2"] == 1.5
    from minvar import RegularizerParams, general_l1_solve

    sol = general_l1_solve(AssetUniverse.constant(1.0, 1), 0.8, RegularizerParams(0.3, 1.5))
    assert rows[0]["lambda"] == pytest.approx(sol.lam, rel=1e-12)
    # 'inf' spelled out bans shorts and reproduces the dedicated solver.
    out2 = tmp_path / "eta2.csv"
    code = run_cli(
        "replica", "--r-grid", "0.8", "--n", "1",
        "--constraint", "equality", "--eta2", "inf", "--out", str(out2),
    )
    assert code == EXIT_OK
    spec2, rows2 = read_table(str(out2))
    assert spec2["eta2"] == "inf"
    ban = noshort_solution(AssetUniverse.constant(1.0, 1), 0.8)
    assert rows2[0]["lambda"] == pytest.approx(ban.lam, rel=1e-12)


def test_penalized_replica_is_critical_from_r_2(tmp_path):
    # Beyond r = 2 a long-only zero-variance portfolio exists, so every
    # penalized problem is flat: a boundary row, not a solver failure.
    out = tmp_path / "pen.csv"
    code = run_cli(
        "replica", "--eta1", "0.3", "--eta2", "1.5", "--r-grid", "0.1:2.1:0.4",
        "--out", str(out),
    )
    assert code == EXIT_OK
    _, rows = read_table(str(out))
    assert [row["status"] for row in rows] == ["ok"] * 5 + ["critical-boundary"]
    assert all(rows[-1][k] is None for k in ("lambda", "delta", "q0", "q0_tilde", "f", "n0"))


def test_penalized_weights_are_critical_from_r_2(tmp_path):
    out = tmp_path / "penw.json"
    code = run_cli(
        "weights", "--eta1", "0.1", "--eta2", "0.5", "--r-grid", "0.5,2.5",
        "--format", "json", "--out", str(out),
    )
    assert code == EXIT_OK
    _, rows = read_table(str(out))
    assert rows[-1] == {
        "r_requested": 2.5, "r": 2.5, "kind": "atom", "w_lo": 0.0, "w_hi": 0.0,
        "analytic_mass": None, "mc_mass": None, "status": "critical-boundary",
    }
    assert all(row["status"] == "ok" for row in rows[:-1])


def test_replica_stdout(capsys):
    assert run_cli("replica", "--r-grid", "0.5", "--n", "1") == EXIT_OK
    captured = capsys.readouterr().out
    assert captured.startswith("# spec=")
    assert "critical-boundary" not in captured


# ---------------------------------------------------------------------------
# simulate / phase
# ---------------------------------------------------------------------------


def test_simulate_fields_and_thread_byte_identity(tmp_path):
    a, b = tmp_path / "t1.csv", tmp_path / "t4.csv"
    base = [
        "simulate", "--r-grid", "0.5,1.6", "--n", "10", "--trials", "8",
        "--seed", "5", "--constraint", "noshort",
    ]
    assert run_cli(*base, "--threads", "1", "--out", str(a)) == EXIT_OK
    assert run_cli(*base, "--threads", "4", "--out", str(b)) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    spec, rows = read_table(str(a))
    assert spec["seed"] == 5 and spec["trials"] == 8
    assert "threads" not in spec and "out" not in spec
    assert len(rows) == 2
    row = rows[0]
    assert row["t"] == 20 and row["n"] == 10 and row["r"] == 0.5
    assert row["lambda_hat_se"] > 0
    assert 0.0 <= row["zero_fraction_mean"] <= 1.0


def test_simulate_rejects_penalties(capsys):
    code = run_cli(
        "simulate", "--r-grid", "0.5", "--n", "4", "--trials", "2", "--eta1", "0.1"
    )
    assert code == EXIT_USAGE
    assert "corner" in capsys.readouterr().err


def test_phase_curve(tmp_path):
    out = tmp_path / "ph.csv"
    code = run_cli(
        "phase", "--r-grid", "0.5,2.5", "--n", "12", "--trials", "20",
        "--seed", "3", "--out", str(out),
    )
    assert code == EXIT_OK
    spec, rows = read_table(str(out))
    assert spec["constraint"] == "noshort"
    assert rows[0]["zero_variance_probability"] == 0.0
    assert rows[1]["zero_variance_probability"] > 0.5
    for row in rows:
        assert 0.0 <= row["zero_variance_probability"] <= 1.0


def test_monte_carlo_columns_and_attributes_are_pinned(tmp_path):
    # literal lists: the derived SIMULATE_FIELDS and PHASE_FIELDS must keep them
    simulate = [
        "r_requested", "r", "t", "n", "trials",
        "lambda_hat_mean", "lambda_hat_se", "q0_tilde_hat_mean", "q0_tilde_hat_se",
        "zero_fraction_mean", "zero_fraction_se", "objective_mean", "objective_se",
        "zero_variance_probability", "zero_variance_se",
    ]
    phase = ["r_requested", "r", "t", "n", "trials",
             "zero_variance_probability", "zero_variance_se"]
    grid = ["--r-grid", "0.5,1.0", "--n", "4"]
    for command, columns in (("simulate", simulate), ("phase", phase)):
        out = tmp_path / f"{command}.csv"
        argv = [command, *grid, "--trials", "3", "--seed", "1"]
        assert run_cli(*argv, "--out", str(out)) == EXIT_OK
        assert out.read_text().splitlines()[1].split(",") == columns
        assert run_cli(*argv, "--format", "json", "--out", str(out) + ".json") == EXIT_OK
        rows = json.loads((tmp_path / f"{command}.csv.json").read_text())["rows"]
        assert [list(row) for row in rows] == [columns, columns]
    rep, z = tmp_path / "rep.csv", tmp_path / "z.csv"
    assert run_cli("replica", *grid, "--out", str(rep)) == EXIT_OK
    assert run_cli("compare", str(rep), str(tmp_path / "simulate.csv"), "--out", str(z)) == EXIT_OK
    assert [(row["r"], row["metric"]) for row in read_table(str(z))[1]] == [
        (r, metric) for r in (0.5, 1.0) for metric in ("lambda", "q0_tilde", "n0")
    ]
    # the attributes that the tests and README's library tour read
    uni = AssetUniverse.constant(1.0, 4)
    (point,) = sweep(uni, [0.5], trials=2, constraint="noshort", seed=1)
    assert all(hasattr(point, name) for name in [*simulate, "weights"])
    cfg = TrialConfig(universe=uni, t=8, constraint="noshort", seed=1, trial_index=0)
    trial = run_trial(cfg)
    assert isinstance(trial, QpResult) and trial.weights.shape == (4,)
    assert (cfg.r, cfg.t) == (0.5, 8)
    values = {o.name: o.value(cfg, trial) for o in OBSERVABLES}
    assert list(values) == [
        "lambda_hat", "q0_tilde_hat", "zero_fraction", "objective", "zero_variance",
    ]


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------


def test_weights_analytic_table(tmp_path):
    out = tmp_path / "w.csv"
    code = run_cli(
        "weights", "--r-grid", "1.0", "--n", "1", "--constraint", "noshort",
        "--bin-width", "0.25", "--out", str(out),
    )
    assert code == EXIT_OK
    spec, rows = read_table(str(out))
    atom = [row for row in rows if row["kind"] == "atom"]
    bins = [row for row in rows if row["kind"] == "bin"]
    assert len(atom) == 1
    sol = noshort_solution(AssetUniverse.constant(1.0, 1), 1.0)
    assert atom[0]["analytic_mass"] == pytest.approx(sol.n0, rel=1e-12)
    assert atom[0]["mc_mass"] is None
    # Bin edges tile [0, max] without gaps and masses recover 1 - n0.
    assert bins[0]["w_lo"] == 0.0
    for prev, nxt in zip(bins, bins[1:]):
        assert nxt["w_lo"] == pytest.approx(prev["w_hi"], abs=1e-12)
    total = sum(row["analytic_mass"] for row in bins)
    assert total + sol.n0 == pytest.approx(1.0, abs=1e-6)


def test_weights_with_trials_populates_mc(tmp_path):
    out = tmp_path / "wmc.csv"
    code = run_cli(
        "weights", "--r-grid", "1.5", "--n", "12", "--trials", "30",
        "--seed", "2", "--constraint", "noshort", "--bin-width", "0.2",
        "--out", str(out),
    )
    assert code == EXIT_OK
    spec, rows = read_table(str(out))
    atom = next(row for row in rows if row["kind"] == "atom")
    bins = [row for row in rows if row["kind"] == "bin"]
    assert 0.0 < atom["mc_mass"] < 1.0
    assert atom["mc_mass"] + sum(row["mc_mass"] for row in bins) == pytest.approx(1.0, abs=1e-12)
    # Analytic curve evaluated at the achieved ratio of the simulation.
    assert atom["r"] == 12 / round(12 / 1.5)


def test_weights_ratios_draw_their_own_streams(tmp_path):
    # one sweep over the whole grid, as in `simulate`: a repeated ratio gets
    # fresh trial indices, and each ratio's MC column is the histogram of
    # that grid point's pooled weights on the table's own edges
    out = tmp_path / "wrep.csv"
    code = run_cli(
        "weights", "--r-grid", "0.5,0.5", "--n", "10", "--trials", "5",
        "--seed", "1", "--out", str(out),
    )
    assert code == EXIT_OK
    _, rows = read_table(str(out))
    starts = [i for i, row in enumerate(rows) if row["kind"] == "atom"]
    assert len(starts) == 2
    blocks = [rows[starts[0]:starts[1]], rows[starts[1]:]]
    assert [row["mc_mass"] for row in blocks[0]] != [row["mc_mass"] for row in blocks[1]]
    points = sweep(
        AssetUniverse.constant(1.0, 10), [0.5, 0.5], 5, constraint="noshort", seed=1,
        keep_weights=True,
    )
    for block, point in zip(blocks, points):
        edges = np.array([row["w_lo"] for row in block[1:]] + [block[-1]["w_hi"]])
        hist = weight_histogram(point.weights, edges=edges)
        assert block[0]["mc_mass"] == hist.atom
        assert [row["mc_mass"] for row in block[1:]] == hist.masses.tolist()


def test_weights_monte_carlo_uses_the_law_corner(tmp_path):
    # --eta2 inf bans short positions whatever --constraint says, so the
    # Monte Carlo next to the no-short atom must run the no-short optimizer
    out = tmp_path / "wcorner.csv"
    code = run_cli(
        "weights", "--r-grid", "0.5", "--n", "10", "--trials", "5",
        "--constraint", "equality", "--eta2", "inf", "--out", str(out),
    )
    assert code == EXIT_OK
    _, rows = read_table(str(out))
    atom = next(row for row in rows if row["kind"] == "atom")
    assert atom["analytic_mass"] > 0.0
    assert atom["mc_mass"] > 0.0


def test_spec_names_the_solved_constraint(tmp_path):
    # a penalty overrides --constraint: the spec names the corner it solves,
    # or null for a penalized interior point
    out = tmp_path / "ws.csv"
    code = run_cli(
        "weights", "--r-grid", "0.5", "--n", "10", "--trials", "5",
        "--constraint", "equality", "--eta2", "inf", "--out", str(out),
    )
    assert code == EXIT_OK
    assert read_table(str(out))[0]["constraint"] == "noshort"
    out2 = tmp_path / "rs.json"
    code = run_cli(
        "replica", "--r-grid", "0.8", "--n", "2", "--eta1", "0.3", "--eta2", "1.5",
        "--format", "json", "--out", str(out2),
    )
    assert code == EXIT_OK
    assert read_table(str(out2))[0]["constraint"] is None


def test_weights_rejects_mc_off_corners(capsys):
    code = run_cli(
        "weights", "--r-grid", "0.8", "--n", "4", "--trials", "5", "--eta2", "0.7"
    )
    assert code == EXIT_USAGE


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def write_sim_table(path, r, lam, q0t, n0, se=0.01):
    spec = {"command": "simulate", "r_grid": [r], "n": 100, "trials": 100}
    fields = [
        "r_requested", "r", "t", "n", "trials",
        "lambda_hat_mean", "lambda_hat_se",
        "q0_tilde_hat_mean", "q0_tilde_hat_se",
        "zero_fraction_mean", "zero_fraction_se",
        "objective_mean", "objective_se",
        "zero_variance_probability", "zero_variance_se",
    ]
    row = {
        "r_requested": r, "r": r, "t": 100, "n": 100, "trials": 100,
        "lambda_hat_mean": lam, "lambda_hat_se": se,
        "q0_tilde_hat_mean": q0t, "q0_tilde_hat_se": se,
        "zero_fraction_mean": n0, "zero_fraction_se": se,
        "objective_mean": lam * r, "objective_se": se,
        "zero_variance_probability": 0.0, "zero_variance_se": 0.0,
    }
    lines = ["# spec=" + json.dumps(spec, separators=(",", ":"))]
    lines.append(",".join(fields))
    lines.append(",".join(f"{row[f]:.17g}" if isinstance(row[f], float) else str(row[f]) for f in fields))
    path.write_text("\n".join(lines) + "\n")


def test_compare_pass_and_fail(tmp_path, capsys):
    rep = tmp_path / "rep.csv"
    assert run_cli(
        "replica", "--r-grid", "1.0", "--n", "1", "--constraint", "noshort",
        "--out", str(rep),
    ) == EXIT_OK
    _, rows = read_table(str(rep))
    sol = rows[0]

    good = tmp_path / "good.csv"
    write_sim_table(good, 1.0, sol["lambda"] + 0.005, sol["q0_tilde"] - 0.01, sol["n0"])
    out = tmp_path / "cmp.csv"
    assert run_cli("compare", str(rep), str(good), "--out", str(out)) == EXIT_OK
    assert "PASS" in capsys.readouterr().out
    spec, crows = read_table(str(out))
    assert spec["verdict"] == "PASS"
    assert {row["metric"] for row in crows} == {"lambda", "q0_tilde", "n0"}
    lam_row = next(row for row in crows if row["metric"] == "lambda")
    assert lam_row["z"] == pytest.approx(0.5, rel=1e-9)
    assert lam_row["within_3se"] is True

    bad = tmp_path / "bad.csv"
    write_sim_table(bad, 1.0, sol["lambda"] + 0.1, sol["q0_tilde"], sol["n0"])
    out2 = tmp_path / "cmp2.csv"
    assert run_cli("compare", str(rep), str(bad), "--out", str(out2)) == EXIT_OK
    assert "FAIL" in capsys.readouterr().out
    spec2, crows2 = read_table(str(out2))
    assert spec2["verdict"] == "FAIL"
    assert next(row for row in crows2 if row["metric"] == "lambda")["within_3se"] is False


def test_compare_real_pipeline(tmp_path):
    # End-to-end: simulate a small equality run, evaluate the analytic
    # table on the achieved grid, and compare. Only structure is asserted
    # (the verdict is a statistical outcome, exercised at full scale in
    # the acceptance suite).
    sim = tmp_path / "sim.csv"
    assert run_cli(
        "simulate", "--r-grid", "0.5", "--n", "20", "--trials", "40",
        "--seed", "9", "--constraint", "equality", "--out", str(sim),
    ) == EXIT_OK
    rep = tmp_path / "rep.csv"
    assert run_cli(
        "replica", "--r-grid", "0.5", "--n", "20", "--constraint", "equality",
        "--out", str(rep),
    ) == EXIT_OK
    out = tmp_path / "c.json"
    assert run_cli("compare", str(rep), str(sim), "--out", str(out), "--format", "json") == EXIT_OK
    spec, rows = read_table(str(out))
    assert spec["verdict"] in ("PASS", "FAIL")
    assert spec["analytic_spec"]["command"] == "replica"
    assert spec["simulation_spec"]["command"] == "simulate"
    for row in rows:
        assert row["within_3se"] == (row["z"] <= 3.0)


def test_compare_grid_mismatch(tmp_path, capsys):
    rep = tmp_path / "rep.csv"
    run_cli("replica", "--r-grid", "0.7", "--n", "1", "--out", str(rep))
    sim = tmp_path / "sim.csv"
    write_sim_table(sim, 0.8, 1.0, 1.0, 0.1)
    assert run_cli("compare", str(rep), str(sim)) == EXIT_USAGE
    assert "grid mismatch" in capsys.readouterr().err


def test_compare_skips_boundary_rows(tmp_path):
    # Analytic refusal rows must not poison the comparison; only 'ok'
    # rows are matchable.
    rep = tmp_path / "rep.csv"
    run_cli("replica", "--r-grid", "2.5", "--n", "1", "--out", str(rep))
    sim = tmp_path / "sim.csv"
    write_sim_table(sim, 2.5, 0.1, 3.0, 0.5)
    assert run_cli("compare", str(rep), str(sim)) == EXIT_USAGE


# ---------------------------------------------------------------------------
# Exit codes and entry points
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["replica", "--r-grid", "0.5", "--eta1", "-1"],
        ["replica", "--r-grid", "0.5", "--eta2", "nan"],
        ["replica", "--r-grid", "0.5", "--eta1", "inf"],
        ["replica", "--r-grid", "0.5", "--n", "-3"],
        ["replica", "--r-grid", "0.5", "--n", "0"],
        ["simulate", "--r-grid", "0.5", "--n", "4", "--trials", "0"],
        ["simulate", "--r-grid", "0.5", "--n", "4", "--trials", "2", "--threads", "0"],
        ["simulate", "--r-grid", "0.5", "--n", "4", "--trials", "2", "--seed", "-1"],
        ["phase", "--r-grid", "0.5", "--n", "4", "--trials", "0"],
        ["weights", "--r-grid", "0.5", "--n", "4", "--trials", "-1"],
        ["weights", "--r-grid", "0.5", "--n", "4", "--bin-width", "nan"],
        ["weights", "--r-grid", "0.5", "--n", "5", "--bin-width", "1e-300"],
    ],
)
def test_malformed_values_are_usage_errors(argv, tmp_path, capsys):
    out = tmp_path / "never.csv"
    assert run_cli(*argv, "--out", str(out)) == EXIT_USAGE
    assert not out.exists()
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "sigma, message",
    [
        ("file:1.0\nx\n", "sigma file must hold one decimal per line"),
        ("file:# no sigmas\n\n", "sigma file is empty"),
        ("file:1.0\n-2.0\n", "sigmas must be positive and finite"),
        ("lognormal:0,-0.5,7", "lognormal spread must be nonnegative"),
    ],
)
def test_bad_sigmas_are_usage_errors(sigma, message, tmp_path, capsys):
    kind, _, text = sigma.partition(":")
    if kind == "file":  # the rest of the spec is the file's content
        p = tmp_path / "sig.txt"
        p.write_text(text)
        sigma = f"file:{p}"
    assert run_cli("replica", "--r-grid", "0.5", "--sigma", sigma) == EXIT_USAGE
    assert message in capsys.readouterr().err


def test_unknown_command_is_usage_error(capsys):
    assert run_cli("frobnicate") == EXIT_USAGE
    capsys.readouterr()


def test_solver_error_exit_code(monkeypatch, tmp_path):
    import minvar.cli as cli

    def boom(*a, **k):
        raise NoConvergenceError("stalled", iterate=None, residual=1.0)

    monkeypatch.setattr(cli, "sweep", boom)
    code = run_cli(
        "simulate", "--r-grid", "0.5", "--n", "4", "--trials", "2",
        "--out", str(tmp_path / "x.csv"),
    )
    assert code == EXIT_SOLVER


def test_solver_failure_names_the_trial(monkeypatch, tmp_path, capsys):
    import functools

    import minvar.mc as mc
    from minvar.qp import min_variance_noshort

    monkeypatch.setattr(
        mc, "min_variance_noshort", functools.partial(min_variance_noshort, max_iter=2)
    )
    code = run_cli(
        "simulate", "--r-grid", "0.5,1.5", "--n", "8", "--trials", "3",
        "--seed", "4", "--constraint", "noshort", "--out", str(tmp_path / "x.csv"),
    )
    assert code == EXIT_SOLVER
    err = capsys.readouterr().err
    assert "trial 0 (r = 0.5, T = 16, seed 4)" in err
    assert "active-set cap 2 reached" in err


def test_one_process_serves_many_calls(tmp_path, capsys):
    # main keeps one parser per process. After a call refused on its
    # arguments, each table of a sequence of calls in this process equals
    # the one its call writes as the first call of a fresh process, and a
    # phase after a simulate keeps its own columns and constraint
    calls = {
        "simulate": ["simulate", "--constraint", "equality", "--r-grid", "0.5,1.5",
                     "--n", "10", "--trials", "4", "--seed", "2"],
        "phase": ["phase", "--r-grid", "1.5,2.5", "--n", "10", "--trials", "6",
                  "--seed", "2"],
        "replica": ["replica", "--r-grid", "0.5,1.9", "--n", "20"],
        "weights": ["weights", "--r-grid", "1.5", "--n", "10", "--trials", "3",
                    "--bin-width", "0.25"],
    }
    first = {}
    for name, argv in calls.items():
        out = tmp_path / f"first-{name}.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "minvar", *argv, "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        first[name] = out.read_bytes()
    assert run_cli("simulate", "--r-grid", "0.5", "--trials", "0") == EXIT_USAGE
    assert "error" in capsys.readouterr().err
    for i, name in enumerate(["simulate", "phase", "replica", "weights", "simulate"]):
        out = tmp_path / f"{i}-{name}.csv"
        assert run_cli(*calls[name], "--out", str(out)) == EXIT_OK
        assert out.read_bytes() == first[name], name
    spec, rows = read_table(str(tmp_path / "1-phase.csv"))
    assert spec["constraint"] == "noshort"
    assert list(rows[0]) == PHASE_FIELDS


def test_subprocess_entry_points(tmp_path):
    out = tmp_path / "sp.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "minvar", "replica", "--r-grid", "0.5",
         "--n", "1", "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
    ver = subprocess.run(
        [sys.executable, "-m", "minvar", "--version"], capture_output=True, text=True
    )
    assert ver.returncode == 0
    assert "minvar" in ver.stdout
