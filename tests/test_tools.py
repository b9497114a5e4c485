"""Tests for the table tools under tools/, which CI runs on two commits."""

import importlib.util
import pathlib

TOOLS = pathlib.Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _table(path, rows):
    lines = ['# spec={"command":"simulate"}', "r,q0_tilde_hat_mean,zero_variance_probability"]
    path.write_text("\n".join(lines + [",".join(map(str, row)) for row in rows]) + "\n")
    return str(path)


def test_diff_tables_reports_flat_rows_apart(tmp_path):
    diff = _load("diff_tables")
    # the first row is non-flat on both sides; the others are flat on the
    # side where zero_variance_probability is above 0
    a = _table(tmp_path / "a.csv", [(1.0, 2.0, 0), (1.9, 3.0, 0), (2.5, 4.0, 0.5)])
    b = _table(tmp_path / "b.csv", [(1.0, 2.0 + 1e-15, 0), (1.9, 3.3, 0.1), (2.5, 4.0, 0.5)])
    assert diff.compare(a, b) == [
        "non-flat rows: 1",
        "  q0_tilde_hat_mean: 1 float cells differ, max abs 8.88e-16, max rel 4.44e-16",
        "flat rows: 2",
        "  q0_tilde_hat_mean: 1 float cells differ, max abs 0.3, max rel 0.0909",
        "  zero_variance_probability: 1 float cells differ, max abs 0.1, max rel 1",
    ]
    assert diff.compare(a, a) == ["identical"]
    c = _table(tmp_path / "c.csv", [(1.0, 2.0, 0), (1.9, 3.0, 0), (2.5, 4.5, 0.5)])
    assert diff.compare(a, c) == [
        "non-flat rows: 2, no cell differs",
        "flat rows: 1",
        "  q0_tilde_hat_mean: 1 float cells differ, max abs 0.5, max rel 0.111",
    ]
