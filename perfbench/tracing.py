"""Outside-in tracing of the varcausal package, installed from this directory.

Every public function of each layer module is replaced, at every name it is
bound to inside the package (its defining module and each ``from .x import``
in an importer), by a wrapper that records a span.  Function-local imports
read the module attribute at call time, so they see the wrapper too.  No
source file of the package is edited.

Spans hold a name, start, end, parent span, thread id and a few attributes.
They are kept in memory and written once, after the traced invocation.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
import time

LAYERS = ("process", "companion", "interventions", "risk", "estimators", "bounds", "harness", "cli")

#: Spans of the estimator entry points; each records the FitResult's flags.
FIT_SPANS = ("estimators.fit_ols", "estimators.fit_cv", "estimators.fit_regularized")


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "tid", "error", "attrs")

    def __init__(self, sid, name, parent, tid):
        self.sid = sid
        self.name = name
        self.parent = parent
        self.tid = tid
        self.error = None
        self.attrs = None
        self.start = time.perf_counter()
        self.end = None

    def to_list(self):
        return [self.sid, self.name, self.start, self.end, self.parent, self.tid, self.error, self.attrs]


class Tracer:
    """Span recorder; one per traced invocation."""

    def __init__(self):
        self.spans: list[Span] = []  # list.append is atomic under the GIL
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    def stack(self) -> list[Span]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def open(self, name: str, parent: int | None = None) -> Span:
        st = self.stack()
        if parent is None and st:
            parent = st[-1].sid
        span = Span(next(self._ids), name, parent, threading.get_ident())
        st.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self.stack().pop()
        self.spans.append(span)

    # -- installation -------------------------------------------------------

    def _wrap(self, name: str, func):
        tracer = self
        fit = name in FIT_SPANS

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                tracer.close(span)
            if fit:
                span.attrs = {
                    "estimator": result.estimator,
                    "converged": bool(result.converged),
                    "rank_deficient": bool(result.rank_deficient),
                }
            return result

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every public function of each layer module at all its bindings."""
        modules = {k: m for k, m in sys.modules.items() if k == "varcausal" or k.startswith("varcausal.")}
        wrappers = {}
        for layer in LAYERS:
            mod = modules.get(f"varcausal.{layer}")
            if mod is None:
                continue
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, attr, hit[1])
        self._install_model_pair(modules.get("varcausal.risk"))
        self._install_pool(modules.get("varcausal.harness"))
        self._install_eig_rows()

    def _install_model_pair(self, risk) -> None:
        cls = getattr(risk, "ModelPair", None)
        post = getattr(cls, "__post_init__", None)
        if post is None:
            return
        tracer = self

        def __post_init__(pair):
            span = tracer.open("risk.ModelPair")
            try:
                return post(pair)
            finally:
                tracer.close(span)

        self._set(cls, "__post_init__", __post_init__)

    def _install_pool(self, harness) -> None:
        """Give work items run on a harness thread pool their own spans.

        The submitting thread's wait for the results is the ``harness.pool``
        span; each item runs inside a ``harness.item`` span on its worker
        thread, whose parent is that wait span.
        """
        base = getattr(harness, "ThreadPoolExecutor", None)
        if base is None:
            return
        tracer = self

        class TracedPool(base):
            def map(self, fn, *iterables, **kwargs):
                wait = tracer.open("harness.pool")
                try:
                    def item(*args):
                        span = tracer.open("harness.item", parent=wait.sid)
                        try:
                            return fn(*args)
                        finally:
                            tracer.close(span)

                    return iter(list(super().map(item, *iterables, **kwargs)))
                finally:
                    tracer.close(wait)

        self._set(harness, "ThreadPoolExecutor", TracedPool)

    def _install_eig_rows(self) -> None:
        """Count the candidate matrices the stability sampler sends to eigvals."""
        import numpy.linalg as la

        eigvals = la.eigvals
        tracer = self

        @functools.wraps(eigvals)
        def counted(a, *args, **kwargs):
            st = tracer.stack()
            if st and st[-1].name == "process.rejection_sample_stable":
                top = st[-1]
                shape = getattr(a, "shape", ())
                rows = shape[0] if len(shape) == 3 else 1
                top.attrs = {"eig_rows": (top.attrs or {}).get("eig_rows", 0) + rows}
            return eigvals(a, *args, **kwargs)

        self._set(la, "eigvals", counted)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([s.to_list() for s in self.spans], fh, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Per-layer metrics from one invocation's spans
# ---------------------------------------------------------------------------

#: Metric prefix -> span names whose outermost calls it sums.
GROUPS = {
    "process.sample": ("process.rejection_sample_stable",),
    "process.simulate": ("process.simulate",),
    "process.autocov_blocks": ("process.autocov_blocks",),
    "companion.spectrum": ("companion.spectrum",),
    "companion.build_companion": ("companion.build_companion",),
    "interventions.interventional_cov": ("interventions.interventional_cov",),
    "risk.model_pair": ("risk.ModelPair",),
    "risk.analytic": ("risk.stat_risk", "risk.causal_risk"),
    "risk.empirical": ("risk.empirical_stat_risk",),
    "risk.mc": ("risk.mc_causal_risk", "risk.mc_stat_risk", "risk.mc_risk_gap"),
    "bounds.prop1": ("bounds.prop1_bound",),
    "bounds.cor2": ("bounds.cor2_bound",),
    "bounds.thm1": ("bounds.thm1_bound",),
    "bounds.rademacher": ("bounds.rademacher_estimate",),
    "estimators.fit_regularized": ("estimators.fit_regularized",),
    "harness.bucket": ("harness.bucket_by_kappa",),
}

ESTIMATORS = ("ols", "ridge", "lasso", "elasticNet")

#: Per-layer metrics a traced invocation reports, with their units; run.py
#: adds trace.overhead_s, harness.skip_ratio and cli.export.bytes.
LAYER_METRICS = {
    "process.sample.calls": "count",
    "process.sample.busy_s": "s",
    "process.sample.eig_rows": "count",
    "process.simulate.calls": "count",
    "process.simulate.busy_s": "s",
    "process.autocov_blocks.calls": "count",
    "companion.spectrum.calls": "count",
    "companion.spectrum.busy_s": "s",
    "companion.build_companion.calls": "count",
    "companion.build_companion.busy_s": "s",
    "interventions.interventional_cov.calls": "count",
    "risk.model_pair.calls": "count",
    "risk.analytic.busy_s": "s",
    "risk.empirical.busy_s": "s",
    "risk.mc.busy_s": "s",
    "bounds.prop1.busy_s": "s",
    "bounds.cor2.busy_s": "s",
    "bounds.thm1.busy_s": "s",
    "bounds.thm1.failed": "count",
    "bounds.rademacher.busy_s": "s",
    **{f"estimators.fit.{est}.busy_s": "s" for est in ESTIMATORS},
    "estimators.fit_regularized.calls": "count",
    "estimators.fit_regularized.busy_s": "s",
    "estimators.nonconverged": "count",
    "estimators.rank_deficient": "count",
    "harness.self_s": "s",
    "harness.pool_wait_s": "s",
    "harness.bucket.busy_s": "s",
    "cli.export.busy_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS if layer != "harness"},
}


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Aggregate spans into the per-layer metrics of ``LAYER_METRICS``.

    ``busy_s`` sums the outermost calls of a group, so a call nested in
    another call of the same group is not counted twice; it is inclusive of
    the calls into other layers.  ``self_s`` of a layer is the time its own
    spans were open on their thread minus the time covered by their direct
    children on that thread, summed over threads.  ``harness.self_s`` covers
    only the study run (export is ``cli.export.busy_s``) and leaves out the
    submitting thread's wait for pool results (``harness.pool_wait_s``).
    """
    by_id = {s.sid: s for s in spans}

    def ancestors(span):
        pid = span.parent
        while pid is not None:
            parent = by_id[pid]
            yield parent
            pid = parent.parent

    def outermost(span, names):
        return not any(a.name in names for a in ancestors(span))

    child_time: dict[int, float] = {}
    for s in spans:
        parent = by_id.get(s.parent)
        if parent is not None and parent.tid == s.tid:
            child_time[parent.sid] = child_time.get(parent.sid, 0.0) + (s.end - s.start)

    out = {name: 0.0 if unit == "s" else 0 for name, unit in LAYER_METRICS.items()}
    for prefix, names in GROUPS.items():
        members = [s for s in spans if s.name in names]
        if f"{prefix}.calls" in out:
            out[f"{prefix}.calls"] = len(members)
        if f"{prefix}.busy_s" in out:
            out[f"{prefix}.busy_s"] = sum(s.end - s.start for s in members if outermost(s, names))

    for s in spans:
        if s.name == "process.rejection_sample_stable" and s.attrs:
            out["process.sample.eig_rows"] += s.attrs["eig_rows"]
        elif s.name == "bounds.thm1_bound" and s.error == "NumericalError":
            out["bounds.thm1.failed"] += 1
        elif s.name in FIT_SPANS and s.attrs and outermost(s, FIT_SPANS):
            out[f"estimators.fit.{s.attrs['estimator']}.busy_s"] += s.end - s.start
            out["estimators.nonconverged"] += not s.attrs["converged"]
            out["estimators.rank_deficient"] += s.attrs["rank_deficient"]

        layer = s.name.split(".", 1)[0]
        own = (s.end - s.start) - child_time.get(s.sid, 0.0)
        if layer == "harness":
            if s.name == "harness.pool":
                out["harness.pool_wait_s"] += s.end - s.start
            elif s.name == "harness.run" or any(a.name == "harness.run" for a in ancestors(s)):
                out["harness.self_s"] += own
            else:
                out["cli.self_s"] += own  # CSV rendering called by the CLI's export
        elif f"{layer}.self_s" in out:
            out[f"{layer}.self_s"] += own

    runs = [s for s in spans if s.name == "harness.run" and outermost(s, ("harness.run",))]
    mains = [s for s in spans if s.name == "cli.main" and outermost(s, ("cli.main",))]
    if runs and mains:
        out["cli.export.busy_s"] = mains[-1].end - runs[-1].end
    return out
