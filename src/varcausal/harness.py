"""End-to-end simulation study: sample, fit, score, bound, bucket, export.

One loop, :func:`run`, serves four modes.  Each process samples a stable
truth and a test path; per training size it simulates a training path, fits
every estimator, and scores each fit's risks and bounds.  The modes differ
only in data:

* ``standard``     - matched orders plus any explicitly misspecified
                     ``order_pairs``; one record per (process, estimator),
                     bucketed by condition number,
* ``sampleSweep``  - the same study across training sizes, summarized by
                     distribution quantiles of |G - S| per size,
* ``omegaSweep``   - matched processes scored at several horizons under two
                     intervention regimes (most recent step only / every
                     window step), bucketed per (horizon, regime),
* ``confounded``   - a bivariate process observed through one coordinate,
                     fit as a scalar model; bounds are evaluated with
                     empirical inputs and violations are counted, not hidden.

Everything is a pure function of the config (including the master seed).
Every process draws from its own generators, derived by counter-based
splitting from the master seed and the process id, so its records depend on
nothing else.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import seeding
from .bounds import (
    admissible_block_scheme,
    autocorrelation,
    condition_number,
    cor2_bound,
    prop1_bound,
    thm1_bound,
)
from .companion import matrix_power
from .errors import ConfigError, NumericalError
from .estimators import ESTIMATORS, OLS, FitResult, build_design, fit_cv, fit_ols
from .interventions import InterventionSpec, marginal_variances
from .process import (
    SamplePath,
    VarModel,
    empirical_autocov,
    rejection_sample_stable,
    simulate,
)
from .risk import (
    ModelPair,
    causal_risk,
    empirical_stat_risk,
    mc_causal_risk,
    stat_risk,
    _draw_windows,
    _forward,
)
from .seeding import derive_rng

MODES = ("standard", "sampleSweep", "omegaSweep", "confounded")

RECORD_FIELDS = (
    "process_id",
    "order_true",
    "order_fit",
    "estimator",
    "regime",
    "kappa",
    "delta_true",
    "delta_fit",
    "coeffs_true",
    "coeffs_fit",
    "s_analytic",
    "s_empirical",
    "g_analytic",
    "g_mc",
    "abs_diff",
    "prop1_rhs",
    "cor2_rhs",
    "thm1_rhs",
    "omega",
    "n_train",
)

SUMMARY_FIELDS = ("kappa_mid", "max_diff", "mean_diff", "q90_diff", "bound", "count")

SWEEP_FIELDS = ("n_train", "q0", "q25", "q50", "q75", "q100", "mean", "std", "count")

#: Per-run counts in ``metadata.json``: fits whose ``FitResult`` flags are set,
#: and thm1 values that are NaN because ``thm1_bound`` refused the block scheme.
RUN_COUNTERS = ("fits_nonconverged", "fits_rank_deficient", "thm1_nan")


@dataclass(frozen=True)
class ExperimentConfig:
    """Configuration of a simulation run; all fields have spec defaults."""

    n_processes: int = 10_000
    orders: tuple[int, ...] = (3, 5, 7)
    coeff_lo: float = -2.0
    coeff_hi: float = 2.0
    n_train: int = 100
    n_test: int = 1000
    omega: int = 1
    estimators: tuple[str, ...] = (OLS,)
    bucket_size: int = 500
    master_seed: int = 0
    mode: str = "standard"
    noise_variance: float = 1.0
    mc_draws: int = 1000
    order_pairs: tuple[tuple[int, int], ...] = ()
    sweep_train_sizes: tuple[int, ...] = (10, 100, 1000)
    sweep_omegas: tuple[int, ...] = (1, 5, 7)
    rho: float | None = None
    confidence: float = 0.1
    rademacher_draws: int = 128
    cv_folds: int = 5
    max_tries: int = 200_000

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.n_processes < 1:
            raise ConfigError("n_processes must be positive")
        if not self.orders:
            raise ConfigError("orders must be non-empty")
        if any(p < 1 for p in self.orders):
            raise ConfigError("orders must be positive")
        if not (math.isfinite(self.coeff_lo) and math.isfinite(self.coeff_hi)):
            raise ConfigError("coeff_lo and coeff_hi must be finite")
        if self.coeff_lo >= self.coeff_hi:
            raise ConfigError("need coeff_lo < coeff_hi")
        if self.max_tries < 1:
            raise ConfigError("max_tries must be positive")
        if self.bucket_size < 1:
            raise ConfigError("bucket_size must be positive")
        if not self.estimators:
            raise ConfigError("estimators must be non-empty")
        for est in self.estimators:
            if est not in ESTIMATORS:
                raise ConfigError(f"unknown estimator {est!r}")
        # Only the standard study fits several estimators and misspecified
        # order pairs; elsewhere they would be echoed in the metadata unused.
        if self.mode != "standard" and (len(self.estimators) > 1 or self.order_pairs):
            raise ConfigError(f"{self.mode} mode takes one estimator and no order_pairs")
        if self.omega < 1 or any(w < 1 for w in self.sweep_omegas):
            raise ConfigError("omega values must be positive")
        if self.mc_draws < 0:
            raise ConfigError("mc_draws must be non-negative")
        if self.mode == "confounded" and self.mc_draws < 1:
            # Monte Carlo is the confounded mode's only causal-risk route.
            raise ConfigError("confounded mode needs mc_draws >= 1")
        # thm1 scores the fit on its own training path, which therefore
        # needs a window of every fit order plus the horizon.
        horizon = max(self.sweep_omegas, default=0) if self.mode == "omegaSweep" else self.omega
        least = max([*self.orders, *(pq[0] for pq in self.order_pairs)]) + horizon
        if self.mode == "sampleSweep":
            sizes, name = self.sweep_train_sizes, "sweep_train_sizes"
            if len(set(sizes)) != len(sizes):
                raise ConfigError("sweep_train_sizes must be distinct")
        else:
            sizes, name = (self.n_train,), "n_train"
        if not sizes or min(sizes) <= least:
            raise ConfigError(f"{name} must exceed the largest fit order plus horizon ({least})")

    def to_mapping(self) -> dict:
        out = asdict(self)
        out["orders"] = list(self.orders)
        out["estimators"] = list(self.estimators)
        out["order_pairs"] = [list(pq) for pq in self.order_pairs]
        out["sweep_train_sizes"] = list(self.sweep_train_sizes)
        out["sweep_omegas"] = list(self.sweep_omegas)
        return out

    @staticmethod
    def from_mapping(mapping: dict) -> "ExperimentConfig":
        known = {f: None for f in ExperimentConfig.__dataclass_fields__}
        kwargs = {}
        for key, value in mapping.items():
            if key not in known:
                raise ConfigError(f"unknown config key {key!r}")
            kwargs[key] = value
        for tup_key in ("orders", "estimators", "sweep_train_sizes", "sweep_omegas"):
            if tup_key in kwargs and not isinstance(kwargs[tup_key], tuple):
                value = kwargs[tup_key]
                # A bare scalar (one order, one estimator) means a 1-tuple.
                kwargs[tup_key] = tuple(value) if isinstance(value, (list, set)) else (value,)
        if "order_pairs" in kwargs:
            try:
                kwargs["order_pairs"] = tuple(tuple(pq) for pq in kwargs["order_pairs"])
            except TypeError as exc:
                raise ConfigError(f"order_pairs must be a list of (p, q) pairs: {exc}") from exc
        try:
            return ExperimentConfig(**kwargs)
        except TypeError as exc:
            raise ConfigError(f"invalid config: {exc}") from exc


@dataclass(frozen=True)
class ExperimentRecord:
    """One (process, estimator, horizon, regime) cell of the study."""

    process_id: int
    order_true: int
    order_fit: int
    estimator: str
    regime: str
    kappa: float
    delta_true: float
    delta_fit: float
    coeffs_true: tuple[float, ...]
    coeffs_fit: tuple[float, ...]
    s_analytic: float
    s_empirical: float
    g_analytic: float
    g_mc: float
    abs_diff: float
    prop1_rhs: float
    cor2_rhs: float
    thm1_rhs: float
    omega: int
    n_train: int


@dataclass(frozen=True)
class BucketSummary:
    """Statistics of |G - S| over one condition-number bucket."""

    kappa_mid: float
    max_diff: float
    mean_diff: float
    q90_diff: float
    bound: float
    count: int


@dataclass(frozen=True)
class SweepSummary:
    """Distribution summary of |G - S| for one training size."""

    n_train: int
    q0: float
    q25: float
    q50: float
    q75: float
    q100: float
    mean: float
    std: float
    count: int


@dataclass(frozen=True)
class RunResult:
    records: list = field(default_factory=list)
    summaries: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Fitting and scoring one process
# ---------------------------------------------------------------------------


def _fit(
    cfg: ExperimentConfig, train: SamplePath, p_fit: int, estimator: str, counts: dict
) -> FitResult:
    """Fit one training path and count the fit's flags into ``counts``."""
    if estimator == OLS:
        fit = fit_ols(build_design(train, p_fit))
    else:
        folds = max(2, min(cfg.cv_folds, train.n - p_fit))
        fit = fit_cv(train, p_fit, estimator, folds=folds)
    counts["fits_nonconverged"] += not fit.converged
    counts["fits_rank_deficient"] += fit.rank_deficient
    return fit


def _thm1_rhs(
    cfg: ExperimentConfig,
    pid: int,
    fitted: VarModel,
    train: SamplePath,
    omega: int,
    kappa: float,
    rho: float,
    g_analytic: float,
    counts: dict,
) -> float:
    scheme = admissible_block_scheme(train.n, rho, cfg.confidence)
    try:
        report = thm1_bound(
            fitted,
            train,
            scheme,
            omega,
            1,
            kappa=max(kappa, 1.0),
            m_trunc=None,
            rho=rho,
            confidence=cfg.confidence,
            draws=cfg.rademacher_draws,
            seed=derive_rng(cfg.master_seed, pid, seeding.STAGE_RADEMACHER),
            lhs=g_analytic if math.isfinite(g_analytic) else None,
        )
        return report.value
    except NumericalError:
        # The default scheme can be inadmissible for this rho and confidence.
        counts["thm1_nan"] += 1
        return math.nan


def _standard_record(
    cfg: ExperimentConfig,
    pid: int,
    omega: int,
    pair: ModelPair,
    train: SamplePath,
    test: SamplePath,
    fit: FitResult,
    counts: dict,
    regime: str,
) -> ExperimentRecord:
    """One record of ``fit`` against the truth; ``pair`` is (truth, fit.model),
    shared by every record of the process so its risks are computed once."""
    truth = pair.truth
    nu = pair.nu
    corr = autocorrelation(pair.autocov())
    kappa = condition_number(corr)
    lags = (0,) if regime == "single" else tuple(range(nu))
    spec = InterventionSpec.averaged(omega, components=(1,), time_lags=lags)

    s_an = float(stat_risk(pair, omega).sum())
    g_an = float(causal_risk(pair, spec).sum())
    s_emp = empirical_stat_risk(fit.model, test, omega)
    if cfg.mc_draws > 0:
        g_mc, _ = mc_causal_risk(
            pair, spec, cfg.mc_draws, derive_rng(cfg.master_seed, pid, seeding.STAGE_MC)
        )
    else:
        g_mc = math.nan

    delta_true = truth.spectrum.max_modulus
    delta_fit = fit.model.spectrum.max_modulus
    kappa_cov = condition_number(pair.autocov())
    prop1 = prop1_bound(pair, omega).value
    cor2 = cor2_bound(pair, omega).value
    rho = cfg.rho if cfg.rho is not None else min(max(delta_true, 0.01), 0.999)
    thm1 = _thm1_rhs(cfg, pid, fit.model, train, omega, kappa_cov, rho, g_an, counts)

    return ExperimentRecord(
        process_id=pid,
        order_true=truth.p,
        order_fit=fit.model.p,
        estimator=fit.estimator,
        regime=regime,
        kappa=kappa,
        delta_true=delta_true,
        delta_fit=delta_fit,
        coeffs_true=tuple(float(v) for v in truth.scalar_coeffs),
        coeffs_fit=tuple(float(v) for v in fit.model.scalar_coeffs),
        s_analytic=s_an,
        s_empirical=s_emp,
        g_analytic=g_an,
        g_mc=g_mc,
        abs_diff=abs(g_an - s_an),
        prop1_rhs=prop1,
        cor2_rhs=cor2,
        thm1_rhs=thm1,
        omega=omega,
        n_train=train.n,
    )


# ---------------------------------------------------------------------------
# The study loop
# ---------------------------------------------------------------------------


def run(cfg: ExperimentConfig) -> RunResult:
    """Run the study of ``cfg.mode``.

    Block ``b`` of :func:`_blocks` holds process ids ``b * n_processes`` to
    ``(b + 1) * n_processes - 1``.  Each process draws one truth and one test
    path, then, per training size, one training path that every estimator
    fits; each fit is scored in every (omega, regime) cell of
    :func:`_cells`.  A (process, size) unit whose sampling, fit or scoring
    raises ``NumericalError`` has no records and counts once in ``skipped``.
    """
    started = time.monotonic()
    sizes = [int(n) for n in cfg.sweep_train_sizes] if cfg.mode == "sampleSweep" else [cfg.n_train]
    per_size: list[list[ExperimentRecord]] = [[] for _ in sizes]
    skipped = 0
    counts = dict.fromkeys(RUN_COUNTERS, 0)
    for block, (p_fit, q_true, d) in enumerate(_blocks(cfg)):
        for pid in range(block * cfg.n_processes, (block + 1) * cfg.n_processes):
            stage_rng = functools.partial(derive_rng, cfg.master_seed, pid)
            try:
                truth = rejection_sample_stable(
                    q_true, d, cfg.coeff_lo, cfg.coeff_hi, stage_rng(seeding.STAGE_TRUTH),
                    max_tries=cfg.max_tries, noise_variance=cfg.noise_variance,
                )
                test = simulate(
                    truth, cfg.n_test, stage_rng(seeding.STAGE_TEST), init="stationary"
                )
            except NumericalError:
                skipped += len(sizes)
                continue
            for n_train, recs in zip(sizes, per_size):
                try:
                    train = simulate(
                        truth, n_train, stage_rng(seeding.STAGE_TRAIN), init="stationary"
                    )
                    recs.extend(_unit_records(cfg, pid, p_fit, truth, train, test, counts))
                except NumericalError:
                    skipped += 1
    for recs in per_size:
        recs.sort(key=lambda r: (r.process_id, r.estimator, r.omega, r.regime))
    records = [rec for recs in per_size for rec in recs]
    summaries, dropped = _summarize(cfg, sizes, per_size)
    meta = _metadata(cfg, records, skipped, dropped, counts)
    # Wall time goes to stderr, not into the metadata: outputs must be
    # byte-identical across reruns of the same config and seed.
    elapsed = time.monotonic() - started
    print(f"[varcausal] {cfg.mode} run finished in {elapsed:.1f}s", file=sys.stderr)
    return RunResult(records=records, summaries=summaries, metadata=meta)


def _blocks(cfg: ExperimentConfig) -> list[tuple[int, int, int]]:
    """(fit order, true order, dimension) of each block of processes."""
    if cfg.mode == "confounded":
        # A bivariate first-order truth, observed through one coordinate.
        return [(cfg.orders[0], 1, 2)]
    return [(q, q, 1) for q in cfg.orders] + [(int(p), int(q), 1) for p, q in cfg.order_pairs]


def _cells(cfg: ExperimentConfig) -> list[tuple[int, str]]:
    """The (omega, regime) cells every fit is scored in."""
    if cfg.mode == "omegaSweep":
        return [(omega, regime) for omega in cfg.sweep_omegas for regime in ("single", "all")]
    return [(cfg.omega, "single")]


def _unit_records(
    cfg: ExperimentConfig,
    pid: int,
    p_fit: int,
    truth: VarModel,
    train: SamplePath,
    test: SamplePath,
    counts: dict,
) -> list[ExperimentRecord]:
    """Every record of one (process, training size) unit."""
    if cfg.mode == "confounded":
        return [_confounded_record(cfg, pid, p_fit, truth, train, test, counts)]
    records = []
    for estimator in cfg.estimators:
        fit = _fit(cfg, train, p_fit, estimator, counts)
        pair = ModelPair(truth=truth, fitted=fit.model)
        for omega, regime in _cells(cfg):
            records.append(
                _standard_record(cfg, pid, omega, pair, train, test, fit, counts, regime)
            )
    return records


def _summarize(cfg: ExperimentConfig, sizes, per_size) -> tuple[dict, int]:
    """Summaries by output name, and the records dropped from partial buckets."""
    if cfg.mode == "sampleSweep":
        return {f"n{n}": [_sweep_summary(n, recs)] for n, recs in zip(sizes, per_size)}, 0
    (records,) = per_size
    groups = [(cfg.mode, records)]
    if cfg.mode == "omegaSweep":
        groups = [
            (f"omega{w}_{regime}", [r for r in records if (r.omega, r.regime) == (w, regime)])
            for w, regime in _cells(cfg)
        ]
    summaries, dropped = {}, 0
    for name, group in groups:
        summaries[name], tail = bucket_by_kappa(group, cfg.bucket_size)
        dropped += tail
    return summaries, dropped


def _sweep_summary(n_train: int, records) -> SweepSummary:
    diffs = np.array([r.abs_diff for r in records]) if records else np.array([0.0])
    qs = np.quantile(diffs, [0.0, 0.25, 0.5, 0.75, 1.0])
    return SweepSummary(
        n_train=int(n_train),
        q0=float(qs[0]),
        q25=float(qs[1]),
        q50=float(qs[2]),
        q75=float(qs[3]),
        q100=float(qs[4]),
        mean=float(diffs.mean()),
        std=float(diffs.std()),
        count=len(records),
    )


def _confounded_record(
    cfg: ExperimentConfig,
    pid: int,
    p_fit: int,
    truth: VarModel,
    train2: SamplePath,
    test2: SamplePath,
    counts: dict,
) -> ExperimentRecord:
    """Hidden-confounder record: fit and score the scalar model on the first
    coordinate of bivariate paths.

    The condition number is estimated from the observed test sample, the
    causal risk by do-simulation on the full bivariate truth, and the bounds
    are evaluated with these empirical inputs; their violations are counted
    in the metadata.
    """
    estimator = cfg.estimators[0]
    train = SamplePath(values=train2.values[:, :1].copy(), seed=train2.seed, burn_in=0)
    test = SamplePath(values=test2.values[:, :1].copy(), seed=test2.seed, burn_in=0)
    fit = _fit(cfg, train, p_fit, estimator, counts)

    emp_cov = empirical_autocov(test, p_fit)
    kappa = condition_number(autocorrelation(emp_cov))
    s_emp = empirical_stat_risk(fit.model, test, cfg.omega)
    g_mc = _confounded_mc_risk(
        cfg, truth, fit.model, p_fit,
        derive_rng(cfg.master_seed, pid, seeding.STAGE_MC),
    )
    diff = abs(g_mc - s_emp)
    sigma2_hat = fit.model.noise_variance
    prop1 = (2.0 * kappa - 1.0) * max(s_emp - sigma2_hat, 0.0)
    delta_true = truth.spectrum.max_modulus
    rho = cfg.rho if cfg.rho is not None else min(max(delta_true, 0.01), 0.999)
    thm1 = _thm1_rhs(cfg, pid, fit.model, train, cfg.omega, kappa, rho, g_mc, counts)
    return ExperimentRecord(
        process_id=pid,
        order_true=1,
        order_fit=p_fit,
        estimator=estimator,
        regime="confounded",
        kappa=kappa,
        delta_true=delta_true,
        delta_fit=fit.model.spectrum.max_modulus,
        coeffs_true=tuple(float(v) for v in truth.coeffs[0].ravel()),
        coeffs_fit=tuple(float(v) for v in fit.model.scalar_coeffs),
        s_analytic=math.nan,
        s_empirical=s_emp,
        g_analytic=math.nan,
        g_mc=g_mc,
        abs_diff=diff,
        prop1_rhs=prop1,
        cor2_rhs=math.nan,
        thm1_rhs=thm1,
        omega=cfg.omega,
        n_train=train.n,
    )


def _confounded_mc_risk(
    cfg: ExperimentConfig,
    truth: VarModel,
    fitted: VarModel,
    p_fit: int,
    rng: np.random.Generator,
) -> float:
    """Average causal risk of the scalar fit under do() on the observed
    coordinate of the bivariate truth, by exact-window Monte Carlo."""
    length = max(p_fit, truth.p)
    windows = _draw_windows(truth, length, cfg.mc_draws, rng)
    marg_std = math.sqrt(marginal_variances(truth)[0])
    cut = windows.copy()
    cut[:, 0] = rng.standard_normal(cfg.mc_draws) * marg_std  # observed coordinate, slot 0
    noise = rng.standard_normal((cfg.mc_draws, cfg.omega, truth.d)) * math.sqrt(
        truth.noise_variance
    )
    targets = _forward(truth, cut, cfg.omega, noise)[:, 0]
    # The scalar model sees the observed coordinate of each window step.
    obs = cut[:, 0 :: truth.d][:, :p_fit]
    weights = matrix_power(fitted.companion, cfg.omega)[0]
    preds = obs @ weights
    return float(((targets - preds) ** 2).mean())


# ---------------------------------------------------------------------------
# Bucketing and export
# ---------------------------------------------------------------------------


def bucket_by_kappa(records, bucket_size: int) -> tuple[list[BucketSummary], int]:
    """Sort by condition number, bucket, and summarize |G - S| per bucket.

    Only full buckets are kept; the dropped tail count is returned alongside.
    The bound column is the per-bucket maximum of ``thm1_rhs``.
    """
    if not records:
        return [], 0
    ordered = sorted(records, key=lambda r: (r.kappa, r.process_id, r.estimator))
    n_buckets = len(ordered) // bucket_size
    out = []
    for b in range(n_buckets):
        chunk = ordered[b * bucket_size : (b + 1) * bucket_size]
        diffs = np.array([r.abs_diff for r in chunk])
        kappas = np.array([r.kappa for r in chunk])
        bounds = np.array([r.thm1_rhs for r in chunk])
        finite = bounds[np.isfinite(bounds)]
        bound = float(bounds.max()) if finite.size == bounds.size else math.inf
        out.append(
            BucketSummary(
                kappa_mid=float(np.median(kappas)),
                max_diff=float(diffs.max()),
                mean_diff=float(diffs.mean()),
                q90_diff=float(np.quantile(diffs, 0.9)),
                bound=bound,
                count=len(chunk),
            )
        )
    return out, len(ordered) - n_buckets * bucket_size


def _metadata(
    cfg: ExperimentConfig, records, skipped: int, bucket_dropped, counts: dict
) -> dict:
    # Confounded runs have no analytic causal risk; thm1 bounds the MC one.
    g_field = "g_mc" if cfg.mode == "confounded" else "g_analytic"
    prop1_viol = sum(
        1
        for r in records
        if math.isfinite(r.prop1_rhs)
        and math.isfinite(r.abs_diff)
        and r.abs_diff > r.prop1_rhs + 1e-9 * (1.0 + abs(r.prop1_rhs))
    )
    thm1_viol = sum(
        1
        for r in records
        if math.isfinite(r.thm1_rhs)
        and math.isfinite(getattr(r, g_field))
        and getattr(r, g_field) > r.thm1_rhs + 1e-9 * (1.0 + abs(r.thm1_rhs))
    )
    return {
        "config": cfg.to_mapping(),
        "n_records": len(records),
        "skipped": skipped,
        "bucket_dropped_tail": int(bucket_dropped),
        "prop1_violations": prop1_viol,
        "thm1_violations": thm1_viol,
        **counts,
    }


def _format_value(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ";".join(repr(float(v)) for v in value)
    return str(value)


def _to_csv(fields, rows) -> str:
    lines = [",".join(fields)]
    for row in rows:
        lines.append(",".join(_format_value(getattr(row, f)) for f in fields))
    return "\n".join(lines) + "\n"


def records_to_csv(records) -> str:
    return _to_csv(RECORD_FIELDS, records)


def summaries_to_csv(summaries: list[BucketSummary]) -> str:
    return _to_csv(SUMMARY_FIELDS, summaries)


def sweep_to_csv(summaries: list[SweepSummary]) -> str:
    return _to_csv(SWEEP_FIELDS, summaries)
