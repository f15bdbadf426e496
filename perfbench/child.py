"""One fresh interpreter of the benchmark: set up varcausal, then run
``varcausal experiment`` invocations in-process through ``varcausal.cli.main``.

Usage: ``python3 perfbench/child.py '<json spec>'``; ``run.py``
builds the spec.  The spec names the checkout root (varcausal is imported
from its ``src``), the candidate invocations in order (arguments, whether to
trace), how many leading ones run outside the time window, how many of the
rest to run at least and for how many seconds to keep starting the next
one, and the file to write the JSON result to.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)  # every thread of this process
    return ru.ru_utime + ru.ru_stime


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = os.path.join(spec["root"], "src")
    sys.path.insert(0, src)

    # Set-up ends once the CLI is imported and the config is parsed.
    from varcausal import cli
    from varcausal.harness import ExperimentConfig

    if os.path.dirname(os.path.abspath(cli.__file__)) != os.path.join(src, "varcausal"):
        print(f"varcausal was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 3
    args = cli.build_parser().parse_args(spec["setup_argv"])
    ExperimentConfig.from_mapping(cli.read_config_file(args.config))
    ready = time.monotonic()

    import numpy
    import scipy

    result = {
        "ready": ready,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
        "runs": [],
    }
    # The first ``untimed`` invocations always run; the time window opens
    # after them.
    untimed = spec["untimed"]
    started = time.perf_counter()
    last = 0.0
    for k, inv in enumerate(spec["invocations"]):
        if k == untimed:
            started, last = time.perf_counter(), 0.0
        if k >= untimed + spec["min_runs"] and time.perf_counter() - started + last > spec["seconds"]:
            break
        tracer = None
        if inv.get("trace"):
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        sink = io.StringIO()
        cpu0 = _cpu_s()
        wall0 = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(inv["argv"])
        wall = last = time.perf_counter() - wall0
        cpu = _cpu_s() - cpu0
        run = {"code": code, "wall_s": wall, "cpu_s": cpu, "log": sink.getvalue()[-2000:]}
        if tracer is not None:
            from tracing import layer_metrics

            tracer.uninstall()
            tracer.dump(inv["spans"])
            run["layers"] = layer_metrics(tracer.spans)
        result["runs"].append(run)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
