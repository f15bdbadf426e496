"""Output checks of `varcausal experiment` runs.

* ``compare_reference``: records.csv and every summaries CSV agree with the
  stored reference, cell by cell, NaN-aware, within the workload's tolerance.
* ``compare_bytes``: two runs of the same seed wrote byte-identical records
  and summaries.  metadata.json is compared as data without
  ``config.threads``, which follows the CPU count.
* ``check_run``: a run of the measured configuration has the expected
  columns, files and record count, and finite analytic risks.

Each returns a list of problems; an empty list means the check passed.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

RECORDS = "records.csv"
METADATA = "metadata.json"


def output_files(out_dir: Path) -> list[str]:
    """records.csv and the summaries CSVs, sorted by name."""
    return sorted(p.name for p in Path(out_dir).glob("*.csv"))


def _rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _close(a: str, b: str, rtol: float, atol: float) -> bool:
    if a == b:
        return True
    if ";" in a or ";" in b:
        xs, ys = a.split(";"), b.split(";")
        return len(xs) == len(ys) and all(_close(x, y, rtol, atol) for x, y in zip(xs, ys))
    try:
        x, y = float(a), float(b)
    except ValueError:
        return False
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    if math.isinf(x) or math.isinf(y):
        return x == y
    return abs(x - y) <= atol + rtol * abs(y)


def compare_reference(out_dir: Path, ref_dir: Path, rtol: float, atol: float) -> list[str]:
    problems = []
    names, ref_names = output_files(out_dir), output_files(ref_dir)
    if names != ref_names:
        return [f"output files {names} differ from the reference {ref_names}"]
    for name in names:
        got, want = _rows(Path(out_dir) / name), _rows(Path(ref_dir) / name)
        if len(got) != len(want) or (got and got[0] != want[0]):
            problems.append(f"{name}: {len(got)} rows or header differ from the reference")
            continue
        bad = [
            (i, col)
            for i, (row, ref) in enumerate(zip(got[1:], want[1:]), start=2)
            for col, (a, b) in enumerate(zip(row, ref))
            if len(row) != len(ref) or not _close(a, b, rtol, atol)
        ]
        if bad:
            line, col = bad[0]
            problems.append(
                f"{name}: {len(bad)} cells differ from the reference beyond rtol {rtol}, "
                f"first at line {line} column {want[0][col]}"
            )
    return problems


def _metadata(out_dir: Path) -> dict:
    meta = json.loads((Path(out_dir) / METADATA).read_text())
    meta.get("config", {}).pop("threads", None)
    return meta


def compare_bytes(a: Path, b: Path) -> list[str]:
    names = output_files(a)
    if names != output_files(b):
        return [f"same-seed runs wrote different files: {names} vs {output_files(b)}"]
    problems = [
        f"same-seed runs differ in {name}"
        for name in names
        if (Path(a) / name).read_bytes() != (Path(b) / name).read_bytes()
    ]
    if _metadata(a) != _metadata(b):
        problems.append(f"same-seed runs differ in {METADATA}")
    return problems


def check_run(out_dir: Path, ref_dir: Path, units: int, per_unit: int, mc: bool) -> tuple[list[str], dict]:
    """Structural check of one run; also returns its metadata."""
    out_dir = Path(out_dir)
    if not (out_dir / METADATA).is_file() or not (out_dir / RECORDS).is_file():
        return [f"{out_dir.name}: outputs missing"], {}
    meta = json.loads((out_dir / METADATA).read_text())
    problems = []
    if output_files(out_dir) != output_files(ref_dir):
        problems.append(f"output files {output_files(out_dir)} differ from {output_files(ref_dir)}")
    rows = _rows(out_dir / RECORDS)
    header, records = rows[0], rows[1:]
    if header != _rows(Path(ref_dir) / RECORDS)[0]:
        problems.append("records.csv header differs from the reference")
        return problems, meta
    expected = (units - meta["skipped"]) * per_unit
    if not len(records) == meta["n_records"] == expected:
        problems.append(
            f"{len(records)} records, metadata says {meta['n_records']}, expected {expected}"
        )
    col = {name: i for i, name in enumerate(header)}
    for row in records:
        s, g, g_mc = (float(row[col[k]]) for k in ("s_analytic", "g_analytic", "g_mc"))
        if not (math.isfinite(s) and math.isfinite(g) and s > 0 and g > 0):
            problems.append(f"process {row[col['process_id']]}: analytic risks {s}, {g}")
            break
        if math.isfinite(g_mc) != mc:
            problems.append(f"process {row[col['process_id']]}: g_mc {g_mc} with mc_draws {mc}")
            break
    return problems, meta
