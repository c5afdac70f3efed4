#!/usr/bin/env python3
"""Largest differences between the profile CSVs of two output directories.

    python3 scripts/profile_diff.py DIR_A DIR_B

For each ``profile_*.csv`` of the two directories it prints, per column,
the largest absolute difference |a - b| and the largest relative
difference |a - b| / max(|a|, |b|) (0 where a = b, NaN against NaN
included), then the largest of each column over every file.  A column
that is not numeric (the ball layout's ``branch``) is compared as text and
reported by the number of rows where it differs.

It exits 1 when the directories hold different sets of profile files,
when two files' headers or row counts differ, or when a text entry
differs, naming each such file on stderr; otherwise it exits 0, however
large a numeric difference is.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from pathlib import Path


def read_profile(path: Path) -> tuple[list[str], list[list[str]]]:
    """The header and the rows of a profile CSV."""
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    return (rows[0], rows[1:]) if rows else ([], [])


def _floats(entries: list[str]) -> list[float] | None:
    try:
        return [float(v) for v in entries]
    except ValueError:
        return None


def differences(a: list[float], b: list[float]) -> tuple[float, float]:
    """Largest absolute and relative difference of two equal-length columns.

    A NaN against a number, or an infinity against anything else, is an
    infinite difference.
    """
    worst_abs = worst_rel = 0.0
    for x, y in zip(a, b):
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        d = abs(x - y)
        if not math.isfinite(d):
            return math.inf, math.inf
        worst_abs = max(worst_abs, d)
        worst_rel = max(worst_rel, d / max(abs(x), abs(y)))
    return worst_abs, worst_rel


def compare(dir_a: Path, dir_b: Path) -> tuple[list[str], list[str]]:
    """The report lines and the problems (different files, headers, row counts or text)."""
    names_a = {p.name for p in dir_a.glob("profile_*.csv")}
    names_b = {p.name for p in dir_b.glob("profile_*.csv")}
    problems = [f"{name}: only in {dir_a}" for name in sorted(names_a - names_b)]
    problems += [f"{name}: only in {dir_b}" for name in sorted(names_b - names_a)]
    lines = []
    totals: dict[str, tuple[float, float]] = {}
    for name in sorted(names_a & names_b):
        head_a, rows_a = read_profile(dir_a / name)
        head_b, rows_b = read_profile(dir_b / name)
        if head_a != head_b:
            problems.append(f"{name}: headers differ: {','.join(head_a)} against {','.join(head_b)}")
            continue
        if len(rows_a) != len(rows_b) or any(len(row) != len(head_a) for row in rows_a + rows_b):
            problems.append(f"{name}: row counts or row widths differ")
            continue
        for k, column in enumerate(head_a):
            col_a, col_b = [row[k] for row in rows_a], [row[k] for row in rows_b]
            num_a, num_b = _floats(col_a), _floats(col_b)
            if num_a is None or num_b is None:
                differ = sum(x != y for x, y in zip(col_a, col_b))
                lines.append(f"{name} {column}: text differs in {differ} rows")
                if differ:
                    problems.append(f"{name}: column {column} differs in {differ} rows")
                continue
            worst = differences(num_a, num_b)
            lines.append(f"{name} {column}: abs {worst[0]:.3e} rel {worst[1]:.3e}")
            total = totals.get(column, (0.0, 0.0))
            totals[column] = (max(total[0], worst[0]), max(total[1], worst[1]))
    for column, (worst_abs, worst_rel) in totals.items():
        lines.append(f"all {column}: abs {worst_abs:.3e} rel {worst_rel:.3e}")
    return lines, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("dir_a", type=Path)
    parser.add_argument("dir_b", type=Path)
    args = parser.parse_args(argv)
    for path in (args.dir_a, args.dir_b):
        if not path.is_dir():
            parser.error(f"{path} is not a directory")
    lines, problems = compare(args.dir_a, args.dir_b)
    for line in lines:
        print(line)
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
