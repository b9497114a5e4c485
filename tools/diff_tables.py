"""Compare two directories of minvar tables cell by cell.

    PYTHONPATH=src python tools/diff_tables.py DIR_A DIR_B

Meant for the output of `tools/fixed_tables.py` run on two commits. For
each table in either directory it prints `identical` when the two files
are byte-identical; otherwise, per column, the number of float cells that
differ and their largest absolute and relative difference, the relative
one taken as |a - b| / max(|a|, |b|). A table with a
`zero_variance_probability` column reports its flat rows (that column
above 0 on either side) apart from the rest: a flat trial's no-short
optimum is a face, and a solver change may move it to another vertex,
while a non-flat row should move only in its last bits. A differing spec
line, row count or non-float cell, and a table found on one side only,
are reported as such. Tables are read through `minvar.cli.read_table`.
Exits 0 when every table is identical and 1 otherwise.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from minvar.cli import read_table


FLAT = "zero_variance_probability"


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_flat(row) -> bool:
    v = row.get(FLAT)
    return _is_number(v) and v > 0


def _column_lines(stats: dict[str, list]) -> list[str]:
    lines = []
    for key, (n, d_abs, d_rel, other) in stats.items():
        text = f"{key}: {n} float cells differ, max abs {d_abs:.3g}, max rel {d_rel:.3g}"
        if other:
            text += f"; {other} other cells differ"
        lines.append(text)
    return lines


def compare(path_a: str, path_b: str) -> list[str]:
    """Lines describing how table `path_b` differs from `path_a`."""
    with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
        if fa.read() == fb.read():
            return ["identical"]
    spec_a, rows_a = read_table(path_a)
    spec_b, rows_b = read_table(path_b)
    lines = [] if spec_a == spec_b else ["spec differs"]
    if len(rows_a) != len(rows_b):
        return lines + [f"row count differs: {len(rows_a)} vs {len(rows_b)}"]
    grouped = any(FLAT in row for row in rows_a + rows_b)
    # group -> rows in it, and group -> column -> [float cells differing,
    # max abs, max rel, other cells differing]
    rows: dict[str, int] = {}
    stats: dict[str, dict[str, list]] = {}
    for ra, rb in zip(rows_a, rows_b):
        group = ("flat" if _is_flat(ra) or _is_flat(rb) else "non-flat") if grouped else ""
        rows[group] = rows.get(group, 0) + 1
        columns = stats.setdefault(group, {})
        for key in dict.fromkeys([*ra, *rb]):
            a, b = ra.get(key), rb.get(key)
            numbers = _is_number(a) and _is_number(b)
            if a == b or (numbers and math.isnan(a) and math.isnan(b)):
                continue
            st = columns.setdefault(key, [0, 0.0, 0.0, 0])
            if numbers:
                d = abs(a - b)
                if not math.isfinite(d):  # an infinity or a nan on one side
                    d = math.inf
                st[0] += 1
                st[1] = max(st[1], d)
                st[2] = max(st[2], d / max(abs(a), abs(b)) if d < math.inf else math.inf)
            else:
                st[3] += 1
    if not grouped:
        lines += _column_lines(stats.get("", {}))
        return lines or ["same cells, different bytes"]
    for group in ("non-flat", "flat"):
        if group in rows:
            differ = _column_lines(stats[group])
            lines.append(f"{group} rows: {rows[group]}" + ("" if differ else ", no cell differs"))
            lines += ["  " + line for line in differ]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir_a")
    parser.add_argument("dir_b")
    args = parser.parse_args(argv)
    names = sorted(set(os.listdir(args.dir_a)) | set(os.listdir(args.dir_b)))
    status = 0
    for name in names:
        path_a, path_b = os.path.join(args.dir_a, name), os.path.join(args.dir_b, name)
        if not (os.path.isfile(path_a) and os.path.isfile(path_b)):
            lines = [f"only in {args.dir_a if os.path.isfile(path_a) else args.dir_b}"]
        else:
            lines = compare(path_a, path_b)
        if lines == ["identical"]:
            print(f"{name}: identical")
            continue
        status = 1
        print(f"{name}:")
        for line in lines:
            print(f"  {line}")
    return status


if __name__ == "__main__":
    sys.exit(main())
