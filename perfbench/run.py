"""Benchmark of `varcausal experiment`: one workload per invocation of this script.

Run from the root of a checkout:

    python3 perfbench/run.py --workload study_standard --seed 1 --seconds 35 --trace 0

``--holdout-seed N`` replaces ``--seed N`` with a master seed hashed from N,
so that seeds used while a change was written never coincide with the
held-out ones used to re-check its claim.

Each interpreter is fresh (``child.py``), runs alone, has single-threaded
BLAS and imports varcausal from the checkout's ``src``.  ``--threads`` is
never passed, so the CLI's default applies.  A run:

1. checks outputs, which also warms the measuring interpreter up: it runs a
   reduced configuration twice at the reference seed; both runs must match
   the stored reference and each other byte for byte;
2. measures: the same interpreter then runs the workload's configuration
   for about ``--seconds`` seconds, at a new seed derived from the run's
   seed for each invocation.  With ``--trace 1`` untraced and traced
   invocations of one seed alternate instead;
3. adds interpreters that only set up, for three set-up samples in all.

The last line of standard output is one JSON object: end-to-end metrics
with ``--trace 0``, per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from check import check_run, compare_bytes, compare_reference  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402
from workloads import REFERENCE_SEED, WORKLOADS  # noqa: E402

WORK_DIR = ".perfbench_work"
SETUP_SAMPLES = 3  # fresh interpreters whose set-up time is measured per run
MAX_RUNS = 48  # measured invocations per run, at most
DEADLINE_S = 170.0  # a run ends well within 180 s
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "kept_ratio": "ratio",
}
PER_LAYER = {
    **LAYER_METRICS,
    "harness.skip_ratio": "ratio",
    "cli.export.bytes": "bytes",
    "trace.overhead_s": "s",
}


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seeds are non-negative integers")
    return value


def holdout_master_seed(n: int) -> int:
    digest = hashlib.sha256(f"varcausal-perfbench-holdout:{n}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


class Runner:
    """Starts the fresh interpreters of one run, one at a time."""

    def __init__(self, root: Path, work: Path, started: float):
        self.root = root
        self.work = work
        self.started = started
        self.env = {**os.environ, **BLAS_ENV}
        self.count = 0

    def child(
        self, setup_cfg: Path, invocations: list[dict], min_runs: int, seconds: float, untimed: int = 0
    ) -> dict | None:
        """Run one interpreter; return its result plus ``setup_s``, or None.

        The interpreter runs ``invocations`` in order: the first ``untimed``
        always, then at least ``min_runs`` more, and starts another only if
        it would end within ``seconds`` of the first of those.
        """
        self.count += 1
        result_path = self.work / f"child{self.count}.json"
        spec = {
            "root": str(self.root),
            "setup_argv": ["experiment", "--config", str(setup_cfg), "--out", str(self.work)],
            "invocations": invocations,
            "untimed": untimed,
            "min_runs": min_runs,
            "seconds": seconds,
            "result": str(result_path),
        }
        timeout = max(5.0, DEADLINE_S - (time.monotonic() - self.started))
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                cwd=self.root,
                env=self.env,
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:  # run() has killed and reaped it
            print(f"child {self.count}: killed after {timeout:.0f} s", file=sys.stderr)
            return None
        if proc.returncode != 0 or not result_path.is_file():
            print(f"child {self.count}: exit {proc.returncode}\n{proc.stdout.decode()[-2000:]}", file=sys.stderr)
            return None
        result = json.loads(result_path.read_text())
        result["setup_s"] = result["ready"] - spawned
        return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    seed = ap.add_mutually_exclusive_group(required=True)
    seed.add_argument("--seed", type=_seed, help="seed of the measured inputs")
    seed.add_argument("--holdout-seed", type=_seed, help="held-out seed, hashed into a master seed")
    ap.add_argument("--seconds", type=float, default=35.0, help="time spent measuring")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    started = time.monotonic()
    root = Path.cwd()
    if not (root / "src" / "varcausal" / "cli.py").is_file():
        print(f"error: no varcausal sources under {root / 'src'}; run from a checkout root", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    master = args.seed if args.seed is not None else holdout_master_seed(args.holdout_seed)
    work = root / WORK_DIR / wl.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cfg, ref_cfg = work / "study.cfg", work / "check.cfg"
    cfg.write_text(wl.config_text())
    ref_cfg.write_text(wl.config_text(reference=True))
    ref_dir = HERE / "reference" / wl.name
    runner = Runner(root, work, started)

    def invocation(config: Path, seed: int, out: str, trace: bool = False) -> dict:
        argv = ["experiment", "--config", str(config), "--seed", str(seed), "--out", str(work / out)]
        return {"argv": argv, "trace": trace, "spans": str(work / f"{out}.spans.json"), "out": out}

    attempted = failed = 0
    problems: list[str] = []
    setup: list[float] = []

    def fail(bad: list[str]) -> None:
        nonlocal failed
        if bad:
            failed += 1
            problems.extend(bad)

    # One interpreter checks, then measures.  The output check (the reduced
    # configuration at the reference seed, run twice) also warms it up.
    # Measured untraced invocations take the seeds MAX_RUNS * master + 0, 1,
    # 2, ...; a traced run alternates untraced and traced invocations of one
    # seed, so that their outputs and counts must agree.
    checks = [invocation(ref_cfg, REFERENCE_SEED, name) for name in ("check_a", "check_b")]
    seeds = [MAX_RUNS * master + (0 if args.trace else i) for i in range(MAX_RUNS)]
    plan = [invocation(cfg, sd, f"run{i}", trace=bool(args.trace) and i % 2 == 1) for i, sd in enumerate(seeds)]
    res = runner.child(
        cfg, checks + plan, min_runs=2 if args.trace else 1, seconds=args.seconds, untimed=len(checks)
    )
    measured: list[tuple[dict, dict]] = []  # (invocation, run) of correct ones
    units = skipped = 0
    attempted += len(checks)
    if res is None:
        attempted += 1
        failed += len(checks) + 1
        problems.append("interpreter failed")
    else:
        setup.append(res["setup_s"])
        check_runs, runs = res["runs"][: len(checks)], res["runs"][len(checks) :]
        broken = sum(run["code"] != 0 for run in check_runs)
        if broken:
            failed += broken
            problems.append("reference check: experiment failed")
        else:
            fail(compare_reference(work / "check_a", ref_dir, wl.rtol, wl.atol))
            fail(compare_bytes(work / "check_a", work / "check_b"))
        for inv, run in zip(plan, runs):
            attempted += 1
            if run["code"] != 0:
                fail([f"{inv['out']}: exit {run['code']}: {run['log'][-300:]}"])
                continue
            out = work / inv["out"]
            bad, meta = check_run(out, ref_dir, wl.units(), wl.records_per_unit(), wl.config["mc_draws"] > 0)
            if args.trace and measured and not bad:
                bad = compare_bytes(work / measured[0][0]["out"], out)
            if bad:
                fail([f"{inv['out']}: {p}" for p in bad])
                continue
            units += wl.units()
            skipped += meta["skipped"]
            run["bytes"] = sum(p.stat().st_size for p in out.iterdir())
            measured.append((inv, run))

    # More set-up samples, from interpreters that only set up.
    while len(setup) < SETUP_SAMPLES and time.monotonic() - started < DEADLINE_S - 10:
        res_setup = runner.child(cfg, [], min_runs=0, seconds=0.0)
        if res_setup is None:
            break
        setup.append(res_setup["setup_s"])

    plain = [run for inv, run in measured if not inv["trace"]]
    traced = [run for inv, run in measured if inv["trace"]]
    if args.trace:
        for name, unit in LAYER_METRICS.items():
            samples = [run["layers"][name] for run in traced]
            if unit == "count" and len(set(samples)) > 1:
                fail([f"{name} differs between traced invocations of one seed: {samples}"])

    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    env_line = {**BLAS_ENV, "nproc": nproc, "os.cpu_count": os.cpu_count()}
    if res is not None:
        env_line.update({k: res[k] for k in ("python", "numpy", "scipy")})
    print("env " + json.dumps(env_line))
    for inv, run in measured:
        kind = "traced" if inv["trace"] else "untraced"
        print(f"{inv['out']} seed {inv['argv'][4]} {kind}: wall {run['wall_s']:.3f} s, cpu {run['cpu_s']:.3f} s")
    print(f"setup_s samples: {' '.join(f'{s:.3f}' for s in setup)}")
    for p in problems:
        print(f"problem: {p}")

    if not plain or (args.trace and not traced) or not setup:
        print("error: no correct measured invocation", file=sys.stderr)
        return 1
    skip_ratio = skipped / units
    if args.trace:
        values = {name: statistics.median([run["layers"][name] for run in traced]) for name in LAYER_METRICS}
        values["harness.skip_ratio"] = skip_ratio
        values["cli.export.bytes"] = plain[0]["bytes"]
        values["trace.overhead_s"] = statistics.median([r["wall_s"] for r in traced]) - statistics.median(
            [r["wall_s"] for r in plain]
        )
        reported = PER_LAYER
    else:
        values = {
            "wall_s": statistics.median([r["wall_s"] for r in plain]),
            "cpu_s": statistics.median([r["cpu_s"] for r in plain]),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": res["peak_rss_mb"],
            "kept_ratio": 1.0 - skip_ratio,
        }
        reported = END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in reported.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
