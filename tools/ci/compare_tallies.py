#!/usr/bin/env python3
"""Fails unless two FFIS result CSVs hold the same tallies, cell by cell.

    python3 tools/ci/compare_tallies.py SINGLE.csv FLEET.csv [LABEL:COLUMN ...]

Rows match by `label` and compare on every column but the machine- and
scheduling-dependent ones (EXCLUDE: timers, arenas and cache tiers), so a
new counter is checked without editing this.  It compares runs_synthesized,
runs_resumed_late and runs_replayed, which depend on the plan alone.  Each
LABEL:COLUMN names a cell and a column that must be non-zero in SINGLE.csv.
"""

import csv
import fnmatch
import sys

EXCLUDE = ("label", "execute_ms", "analyze_ms", "worker_id", "arena_*",
           "golden_cached", "checkpointed", "checkpoint_loaded")


def rows(path):
    with open(path, newline="") as f:
        return {row["label"]: row for row in csv.DictReader(f)}


def tallies(by_label):
    return {label: {k: v for k, v in row.items()
                    if not any(fnmatch.fnmatch(k, p) for p in EXCLUDE)}
            for label, row in by_label.items()}


single_csv, fleet_csv, *nonzero = sys.argv[1:]
single_rows = rows(single_csv)
single, fleet = tallies(single_rows), tallies(rows(fleet_csv))
if single != fleet:
    sys.exit(f"FAIL: {fleet_csv} diverges from {single_csv}\n"
             f"  single: {single}\n  fleet:  {fleet}")
for spec in nonzero:
    label, column = spec.split(":", 1)
    if int(single_rows[label][column]) == 0:
        sys.exit(f"FAIL: {label} has {column} == 0 in {single_csv}")
print(f"{fleet_csv} holds the tallies of {single_csv} bit for bit: {fleet}")
