"""Check that two checkouts of varcausal write the same study outputs.

Usage, from anywhere:

    python3 tools/same_outputs.py PARENT CHANGE

PARENT and CHANGE are checkout roots.  Each runs ``varcausal experiment``
(imported from its own ``src``, single-threaded BLAS) on the same configs:

* the three ``perfbench/workloads.py`` workloads (read from CHANGE) at the
  master seeds 48, 96, 144, 192 and 240, the first seed of each of
  perfbench's runs 1 to 5;
* one config per mode, with all four estimators in standard mode;
* misspecified orders (``order_pairs``), where the fit and true orders differ;
* orders 7 and 8 with ``max_tries = 3000``, where sampling skips processes;
* order 10, whose state dimension takes the bilinear Lyapunov solver.

Every ``*.csv`` must be byte-identical, and ``metadata.json`` must hold the
same value (as JSON) for every key PARENT writes; keys only CHANGE writes
are listed but allowed.  Exit status 0 means every config matched, 1 that
one did not.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
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
        {"mode": "confounded", "orders": 2, "n_processes": 20, "mc_draws": 200,
         "bucket_size": 5},
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


def _workloads(root: Path) -> dict:
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", root / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses looks the module up
    spec.loader.exec_module(module)
    return module.WORKLOADS


def configs(change: Path) -> list[tuple[str, dict, int]]:
    out = []
    for name, workload in _workloads(change).items():
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


def compare(parent: Path, change: Path) -> list[str]:
    """Differences between two output directories, as readable lines."""
    problems = []
    csvs = sorted(p.name for p in parent.glob("*.csv"))
    if csvs != sorted(p.name for p in change.glob("*.csv")):
        problems.append(f"CSV files differ: {csvs} vs {sorted(p.name for p in change.glob('*.csv'))}")
    for name in csvs:
        if (change / name).exists() and (parent / name).read_bytes() != (change / name).read_bytes():
            problems.append(f"{name} differs")
    old = json.loads((parent / "metadata.json").read_text())
    new = json.loads((change / "metadata.json").read_text())
    for key, value in old.items():
        if json.dumps(new.get(key), sort_keys=True) != json.dumps(value, sort_keys=True):
            problems.append(f"metadata.json[{key!r}]: {value!r} vs {new.get(key)!r}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    failed = 0
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        for k, (name, cfg, seed) in enumerate(configs(change)):
            code_a, out_a = run(parent, cfg, seed, Path(tmp) / str(k) / "parent")
            code_b, out_b = run(change, cfg, seed, Path(tmp) / str(k) / "change")
            if code_a != 0 or code_b != 0:
                problems = [f"exit codes {code_a} (parent) and {code_b} (change)"]
            else:
                problems = compare(out_a, out_b)
            meta = out_b / "metadata.json"
            extra = []
            if not problems:
                old = json.loads((out_a / "metadata.json").read_text())
                extra = sorted(set(json.loads(meta.read_text())) - set(old))
            skipped = json.loads(meta.read_text()).get("skipped") if meta.exists() else None
            status = "same" if not problems else "DIFFERENT"
            print(f"{status:9} {name} (seed {seed}, skipped {skipped})"
                  + (f"; new metadata keys {extra}" if extra else ""))
            for problem in problems:
                print(f"          {problem}")
            failed += bool(problems)
    total = len(configs(change))
    print(f"{total - failed} of {total} configs match")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
