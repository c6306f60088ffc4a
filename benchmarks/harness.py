"""Shared helpers for the benchmark harness.

Every figure/table of the paper's evaluation section has one module in this
directory.  Each module

* builds its workload,
* computes the rows of the corresponding figure or table,
* prints them (run ``pytest benchmarks/ --benchmark-only -s`` to see them),
* writes them to ``benchmarks/results/<name>.csv`` so that the data survives
  output capturing, and
* feeds the core computation to ``pytest-benchmark`` so timing is recorded.

Scale: the paper analyses SPEC and the LLVM test-suite, which are orders of
magnitude larger than what a unit-test-sized harness should chew through.
By default the harness uses reduced-but-representative workload sizes; set
``REPRO_FULL=1`` in the environment to run the full-scale configuration
(100 test-suite programs, 120 random programs, ...), which takes several
minutes.
"""

import csv
import os
import sys
from typing import Dict, List, Sequence

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def full_scale() -> bool:
    """True when ``REPRO_FULL`` requests the full-scale (paper-sized)
    configuration; an invalid value raises ``ConfigError``."""
    from repro.api.config import env_flag

    return env_flag("REPRO_FULL")


def union_fieldnames(rows: Sequence[Dict[str, object]]) -> List[str]:
    """Every key appearing in any row, in first-appearance order.

    Rows are allowed to be heterogeneous (summary rows often carry extra or
    fewer columns than per-benchmark rows); taking the keys of ``rows[0]``
    alone used to raise ``ValueError``/``KeyError`` downstream.
    """
    fieldnames: List[str] = []
    seen = set()
    for row in rows:
        for key in row:
            if key not in seen:
                seen.add(key)
                fieldnames.append(key)
    return fieldnames


def write_results(name: str, rows: Sequence[Dict[str, object]]) -> str:
    """Write ``rows`` to ``benchmarks/results/<name>.csv`` and return the path.

    Fields are the union of the keys of all rows; cells a row does not define
    are written blank.  The CSV is written to a pid-suffixed temp file and
    moved into place with ``os.replace`` so that concurrent writers (shard
    workers, parallel benchmark runs) can never interleave partial rows:
    each rename is atomic and readers only ever see a complete file.
    """
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, name + ".csv")
    if not rows:
        return path
    fieldnames = union_fieldnames(rows)
    tmp_path = "{}.tmp.{}".format(path, os.getpid())
    try:
        with open(tmp_path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.DictWriter(handle, fieldnames=fieldnames, restval="")
            writer.writeheader()
            for row in rows:
                writer.writerow(row)
        os.replace(tmp_path, path)
    finally:
        if os.path.exists(tmp_path):
            os.remove(tmp_path)
    return path


def print_table(title: str, rows: Sequence[Dict[str, object]]) -> None:
    """Print rows as an aligned text table (visible with ``-s``).

    Like :func:`write_results`, tolerates heterogeneous rows: the columns are
    the union of all keys and missing cells print blank.
    """
    print()
    print("=" * len(title))
    print(title)
    print("=" * len(title))
    if not rows:
        print("(no rows)")
        return
    headers = union_fieldnames(rows)
    widths = {h: max(len(str(h)), max(len(str(r.get(h, ""))) for r in rows))
              for h in headers}
    print("  ".join(str(h).ljust(widths[h]) for h in headers))
    for row in rows:
        print("  ".join(str(row.get(h, "")).ljust(widths[h]) for h in headers))
    print()
