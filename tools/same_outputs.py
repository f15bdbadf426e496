"""Check that two checkouts of varcausal write the same study outputs.

Usage, from anywhere:

    python3 tools/same_outputs.py PARENT CHANGE [--rtol R --atol A]

PARENT and CHANGE are checkout roots.  Each runs ``varcausal experiment``
(imported from its own ``src``, single-threaded BLAS) on the same configs:

* the three ``perfbench/workloads.py`` workloads (read from CHANGE) at the
  master seeds 48, 96, 144, 192 and 240, the first seed of each of
  perfbench's runs 1 to 5;
* one config per mode, with all four estimators in standard mode and two fit
  orders at horizon 3 in confounded mode;
* lasso and elastic net at orders 3, 5 and 7 on the default coefficient box,
  and lasso across training sizes 12 and 100 at order 5, whose short folds
  are rank-deficient;
* ridge at orders 2 and 7 across training sizes 9 and 60 with 70 processes:
  two chunks of different sizes, and 2-fold designs of 1 row for 7 lags;
* misspecified orders (``order_pairs``), where the fit and true orders differ;
* orders 7 and 8 with ``max_tries = 3000``, where sampling skips processes;
* order 10, whose state dimension takes the bilinear Lyapunov solver.

Each config is reported as ``same``, ``close`` or ``differ``.  It is the same
when every ``*.csv`` is byte-identical.  With ``--rtol`` or ``--atol`` it is
close when CHANGE's CSVs pass ``compare_reference`` of CHANGE's
``perfbench/check.py`` against PARENT's: every cell within
``atol + rtol * |parent|``, NaN only against NaN, an infinity or text only
against itself; the report gives the largest relative and absolute
difference.  Either way ``metadata.json`` must hold the same
value (as JSON) for every key PARENT writes; keys only CHANGE writes are
listed but allowed.  Exit status 0 means every config was the same or
close, 1 that one differed.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import csv
import importlib.util
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SEEDS = (48, 96, 144, 192, 240)

#: name -> (config, master seed); values as in a config file.
EXTRA = {
    "standard_four_estimators": (
        {"mode": "standard", "orders": "3,5", "n_processes": 6,
         "estimators": "ols,ridge,lasso,elasticNet", "mc_draws": 200, "bucket_size": 4},
        2,
    ),
    "sample_sweep": (
        {"mode": "sampleSweep", "orders": "3,5", "n_processes": 10,
         "estimators": "ridge", "sweep_train_sizes": "20,100", "mc_draws": 100,
         "bucket_size": 5},
        5,
    ),
    "omega_sweep": (
        {"mode": "omegaSweep", "orders": "3,5", "n_processes": 10,
         "sweep_omegas": "1,5,7", "mc_draws": 200, "bucket_size": 5},
        6,
    ),
    "confounded": (
        {"mode": "confounded", "orders": "2,5", "omega": 3, "n_processes": 20,
         "mc_draws": 200, "bucket_size": 5},
        7,
    ),
    "order_pairs": (
        {"mode": "standard", "orders": 3, "order_pairs": "1:3,5:3,3:5", "n_processes": 20,
         "mc_draws": 200, "bucket_size": 5},
        10,
    ),
    "skips_max_tries_3000": (
        {"mode": "standard", "orders": "7,8", "n_processes": 30, "max_tries": 3000,
         "mc_draws": 100, "bucket_size": 5},
        8,
    ),
    "standard_lasso_elastic_net": (
        {"mode": "standard", "orders": "3,5,7", "n_processes": 20,
         "estimators": "lasso,elasticNet", "mc_draws": 100, "bucket_size": 5},
        11,
    ),
    # Size 12 leaves 7 design rows for 5 lags: the short folds are rank-deficient.
    "sample_sweep_lasso": (
        {"mode": "sampleSweep", "orders": 5, "n_processes": 20, "estimators": "lasso",
         "sweep_train_sizes": "12,100", "mc_draws": 0, "bucket_size": 5},
        12,
    ),
    # Two chunks (64 and 6 processes) per size; at size 9, order 7 leaves
    # 2 design rows, so ridge cross-validates 2 folds of 1 row for 7 lags.
    "sample_sweep_ridge_short": (
        {"mode": "sampleSweep", "orders": "2,7", "n_processes": 70, "estimators": "ridge",
         "sweep_train_sizes": "9,60", "mc_draws": 0, "bucket_size": 10},
        13,
    ),
    "order_10": (
        {"mode": "standard", "orders": 10, "n_processes": 12, "coeff_lo": -0.3,
         "coeff_hi": 0.3, "n_train": 200, "mc_draws": 200, "bucket_size": 4},
        9,
    ),
}

ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


def _perfbench(root: Path, name: str):
    """The module ``perfbench/<name>.py`` of the checkout at ``root``."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", root / "perfbench" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses looks the module up
    spec.loader.exec_module(module)
    return module


def configs(change: Path) -> list[tuple[str, dict, int]]:
    out = []
    for name, workload in _perfbench(change, "workloads").WORKLOADS.items():
        out += [(f"{name}@{seed}", workload.settings(), seed) for seed in SEEDS]
    out += [(name, cfg, seed) for name, (cfg, seed) in EXTRA.items()]
    return out


def run(root: Path, cfg: dict, seed: int, work: Path) -> tuple[int, Path]:
    work.mkdir(parents=True)
    config = work / "config.txt"
    config.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()))
    out = work / "out"
    env = {**os.environ, **ENV, "PYTHONPATH": str(root / "src")}
    argv = [sys.executable, "-m", "varcausal.cli", "experiment", "--config", str(config),
            "--seed", str(seed), "--out", str(out)]
    proc = subprocess.run(argv, env=env, cwd=work, capture_output=True, text=True)
    return proc.returncode, out


def _largest(parent: Path, change: Path, names) -> tuple[float, float]:
    """The largest relative and absolute difference between the finite
    numbers of CSV files ``names`` in two output directories."""
    rel = diff = 0.0
    for name in names:
        rows = (csv.reader((d / name).read_text().splitlines()) for d in (change, parent))
        for a, b in zip(*rows):
            for x, y in zip(";".join(a).split(";"), ";".join(b).split(";")):
                try:
                    x, y = float(x), float(y)
                except ValueError:
                    continue
                if math.isfinite(x - y) and x != y:
                    diff = max(diff, abs(x - y))
                    rel = max(rel, abs(x - y) / abs(y) if y else math.inf)
    return rel, diff


def compare(parent: Path, change: Path, check=None, rtol=None, atol=None):
    """``(status, problems, largest)``: ``same``, ``close`` or ``differ``;
    the differences between two output directories, as readable lines; and
    the largest relative and absolute difference of their CSVs' numbers.
    Without a tolerance every CSV must be byte-identical; with one, every
    cell must pass ``compare_reference`` of ``check``, a checkout's
    ``perfbench/check.py``."""
    problems = []
    csvs = sorted(p.name for p in parent.glob("*.csv"))
    if csvs != sorted(p.name for p in change.glob("*.csv")):
        problems.append(f"CSV files differ: {csvs} vs {sorted(p.name for p in change.glob('*.csv'))}")
    changed = [
        name for name in csvs
        if (change / name).exists()
        and (parent / name).read_bytes() != (change / name).read_bytes()
    ]
    if rtol is None and atol is None:
        problems += [f"{name} differs" for name in changed]
    elif changed:
        problems += check.compare_reference(change, parent, rtol or 0.0, atol or 0.0)
    old = json.loads((parent / "metadata.json").read_text())
    new = json.loads((change / "metadata.json").read_text())
    for key, value in old.items():
        if json.dumps(new.get(key), sort_keys=True) != json.dumps(value, sort_keys=True):
            problems.append(f"metadata.json[{key!r}]: {value!r} vs {new.get(key)!r}")
    status = "differ" if problems else "close" if changed else "same"
    return status, problems, _largest(parent, change, changed if status == "close" else ())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--rtol", type=float, help="relative tolerance of a close CSV cell")
    parser.add_argument("--atol", type=float, help="absolute tolerance of a close CSV cell")
    args = parser.parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    check = _perfbench(change, "check")
    tally = dict.fromkeys(("same", "close", "differ"), 0)
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        for k, (name, cfg, seed) in enumerate(configs(change)):
            code_a, out_a = run(parent, cfg, seed, Path(tmp) / str(k) / "parent")
            code_b, out_b = run(change, cfg, seed, Path(tmp) / str(k) / "change")
            if code_a != 0 or code_b != 0:
                status, largest = "differ", None
                problems = [f"exit codes {code_a} (parent) and {code_b} (change)"]
            else:
                status, problems, largest = compare(out_a, out_b, check, args.rtol, args.atol)
            meta = out_b / "metadata.json"
            extra = []
            if not problems:
                old = json.loads((out_a / "metadata.json").read_text())
                extra = sorted(set(json.loads(meta.read_text())) - set(old))
            skipped = json.loads(meta.read_text()).get("skipped") if meta.exists() else None
            print(f"{status:6} {name} (seed {seed}, skipped {skipped})"
                  + (f"; largest difference {largest[0]:.2g} relative, {largest[1]:.2g} absolute"
                     if status == "close" else "")
                  + (f"; new metadata keys {extra}" if extra else ""))
            for problem in problems:
                print(f"       {problem}")
            tally[status] += 1
    print(", ".join(f"{count} {status}" for status, count in tally.items())
          + f" of {sum(tally.values())} configs")
    return 1 if tally["differ"] else 0


if __name__ == "__main__":
    sys.exit(main())
