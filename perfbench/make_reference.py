"""Regenerate the stored reference outputs from the checkout's sources.

Run from the root of a checkout:

    python3 perfbench/make_reference.py

For each workload it runs the reduced check configuration at the reference
seed and copies records.csv and the summaries CSVs to reference/<workload>/.
Regenerate only when a change is meant to alter the study's outputs, and
say which outputs changed and why.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(Path.cwd() / "src"))

from varcausal import cli  # noqa: E402
from workloads import REFERENCE_SEED, WORKLOADS  # noqa: E402


def main() -> int:
    for wl in WORKLOADS.values():
        with tempfile.TemporaryDirectory() as tmp:
            cfg, out = Path(tmp) / "check.cfg", Path(tmp) / "out"
            cfg.write_text(wl.config_text(reference=True))
            argv = ["experiment", "--config", str(cfg), "--seed", str(REFERENCE_SEED), "--out", str(out)]
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            if code != 0:
                print(f"{wl.name}: experiment exited {code}", file=sys.stderr)
                return code
            dest = HERE / "reference" / wl.name
            shutil.rmtree(dest, ignore_errors=True)
            dest.mkdir(parents=True)
            for path in sorted(out.glob("*.csv")):
                shutil.copy(path, dest / path.name)
            print(f"{wl.name}: {', '.join(p.name for p in sorted(dest.iterdir()))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
