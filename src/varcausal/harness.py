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
                     fit as a scalar model whose exact and Monte-Carlo risks
                     are those of its embedding in the bivariate truth; the
                     bounds are evaluated with the analyst's empirical inputs
                     and violations are counted, not hidden.

Processes run ``CHUNK_PROCESSES`` at a time.  A chunk's truths are sampled
and set up together; each process then simulates its paths; then every
path is fit, OLS one at a time and every cross-validated fit of one
training size in one batch (:func:`estimators.fit_cv_batch`); then the
fits' spectra, the companion powers, the window eigenvalues and the
analytic risks of every record of the chunk are computed in stacked calls
(:func:`process.prepare_spectra`, :func:`risk.prepare_pairs`), and last
each record reads them and adds its own draws: Monte Carlo, the empirical
risk and the thm1 bound.

Everything is a pure function of the config (including the master seed).
Every process draws from its own generators, derived by counter-based
splitting from the master seed and the process id, so its records depend on
nothing else; a stacked call gives each member the bits of its own call, so
neither does the chunk size.
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
    condition_number,
    cor2_bound,
    prop1_bound,
    thm1_bound,
)
from .errors import ConfigError, NumericalError
from .estimators import (
    ESTIMATORS,
    OLS,
    FitResult,
    build_design,
    fit_cv_batch,
    fit_ols,
)
from .interventions import InterventionSpec
from .process import (
    MIN_ESTIMATION_WINDOWS,
    SAMPLE_COUNTS,
    SamplePath,
    VarModel,
    empirical_autocov,
    prepare_models,
    prepare_spectra,
    rejection_sample_block,
    simulate,
)
from .risk import (
    ModelPair,
    causal_risk,
    empirical_stat_risk,
    mc_causal_risk,
    prepare_pairs,
    stat_risk,
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
#: thm1 values that are NaN because ``thm1_bound`` refused the block scheme, and
#: records whose window is numerically singular (a condition number of ``inf``:
#: ``kappa`` or, for thm1, that of the window covariance).
RUN_COUNTERS = ("fits_nonconverged", "fits_rank_deficient", "thm1_nan", "windows_singular")

#: Bound-violation counts in ``metadata.json``: each key counts the records
#: whose first field exceeds their second, the bound on it.
VIOLATIONS = {
    "prop1_violations": ("abs_diff", "prop1_rhs"),
    "cor2_violations": ("abs_diff", "cor2_rhs"),
    "thm1_violations": ("g_analytic", "thm1_rhs"),
}

#: Why (process, training size) units were skipped, in ``metadata.json``'s
#: ``skipped_by_reason``: the truth exhausted ``max_tries``, or simulating a
#: path, a fit or the scoring raised ``NumericalError``.
SKIP_REASONS = ("sampling", "simulation", "fit", "scoring")

#: Processes whose truths are sampled, set up and scored together (see ``run``).
CHUNK_PROCESSES = 64


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
        if any(o < 1 for o in (*self.orders, *(o for pq in self.order_pairs for o in pq))):
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
        if len(set(self.sweep_omegas)) != len(self.sweep_omegas):
            raise ConfigError("sweep_omegas must be distinct")
        if self.mc_draws < 0:
            raise ConfigError("mc_draws must be non-negative")
        if not (self.noise_variance > 0 and math.isfinite(self.noise_variance)):
            raise ConfigError("noise_variance must be positive and finite")
        if not (self.rho is None or 0.0 < self.rho < 1.0) or not 0.0 < self.confidence < 1.0:
            raise ConfigError("rho and confidence must lie in (0, 1)")
        if self.rademacher_draws < 1:
            raise ConfigError("rademacher_draws must be positive")
        if self.cv_folds < 2:
            raise ConfigError("cv_folds must be at least 2")
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
        # The empirical risk scores the fit on the test path as well.
        for name, length in ((name, min(sizes, default=0)), ("n_test", self.n_test)):
            if length <= least:
                raise ConfigError(
                    f"{name} must exceed the largest fit order plus horizon ({least})"
                )
        # A confounded analyst estimates the fit's window from the test path.
        if self.mode == "confounded" and self.n_test < max(self.orders) + MIN_ESTIMATION_WINDOWS:
            raise ConfigError(
                f"n_test must be at least the largest order plus {MIN_ESTIMATION_WINDOWS}"
            )

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


def _fits(cfg: ExperimentConfig, train: SamplePath, p_fit: int, batch: list) -> list:
    """Each estimator's fit of ``train``, in ``cfg.estimators`` order; a fit
    that raises ``NumericalError`` ends the list with its error.

    OLS is fit here.  A cross-validated fit is left as ``None``, and
    ``(list, index, job)`` is appended to ``batch`` for :func:`fit_cv_batch`
    to fill in.
    """
    fits: list = []
    for estimator in cfg.estimators:
        try:
            if estimator == OLS:
                fits.append(fit_ols(build_design(train, p_fit)))
                continue
            folds = min(cfg.cv_folds, train.n - p_fit)
            batch.append((fits, len(fits), (build_design(train, p_fit), estimator, folds)))
            fits.append(None)
        except NumericalError as exc:
            fits.append(exc)
            break
    return fits


def _spec(omega: int, regime: str, nu: int) -> InterventionSpec:
    """The intervention a record of ``regime`` is scored under: component 1 at
    the most recent window step, or at every step of the order-``nu`` window."""
    lags = (0,) if regime == "single" else tuple(range(nu))
    return InterventionSpec.averaged(omega, components=(1,), time_lags=lags)


def _thm1_rhs(
    cfg: ExperimentConfig,
    pid: int,
    fitted: VarModel,
    train: SamplePath,
    omega: int,
    kappa: float,
    delta_true: float,
    counts: dict,
) -> float:
    rho = cfg.rho if cfg.rho is not None else min(max(delta_true, 0.01), 0.999)
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
        )
        return report.value
    except NumericalError:
        # The default scheme can be inadmissible for this rho and confidence.
        counts["thm1_nan"] += 1
        return math.nan


def _g_mc(
    cfg: ExperimentConfig, pid: int, pair: ModelPair, spec: InterventionSpec, component=None
) -> float:
    """A record's Monte-Carlo causal risk (see :func:`mc_causal_risk`), NaN
    without draws."""
    if cfg.mc_draws == 0:
        return math.nan
    rng = derive_rng(cfg.master_seed, pid, seeding.STAGE_MC)
    return mc_causal_risk(pair, spec, cfg.mc_draws, rng, component)[0]


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
    shared by every record of the fit, and :func:`prepare_pairs` has filled its
    risks and window eigenvalues."""
    truth = pair.truth
    kappa = condition_number(pair.autocov().correlation)
    spec = _spec(omega, regime, pair.nu)

    s_an = float(stat_risk(pair, omega).sum())
    g_an = float(causal_risk(pair, spec).sum())
    s_emp = empirical_stat_risk(fit.model, test, omega)
    g_mc = _g_mc(cfg, pid, pair, spec)

    delta_true = truth.spectrum.max_modulus
    delta_fit = fit.model.spectrum.max_modulus
    kappa_cov = condition_number(pair.autocov())
    prop1 = prop1_bound(pair, omega).value
    cor2 = cor2_bound(pair, omega).value
    thm1 = _thm1_rhs(cfg, pid, fit.model, train, omega, kappa_cov, delta_true, counts)

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
    :func:`_cells`.  The processes run ``CHUNK_PROCESSES`` at a time, in
    phases: their truths are sampled and set up together (see
    :func:`_truths`); each process simulates its paths, then every unit is
    fit, every cross-validated fit of one size in one batch (see
    :func:`_chunk_units`); the fits' spectra, and the risks and window
    eigenvalues of every (fit, cell) of the chunk, are computed in stacked
    calls (:func:`prepare_spectra`, :func:`prepare_pairs`); and last each
    unit is scored (:func:`_score`).  A (process, size) unit whose truth
    exhausts ``max_tries``, or whose simulation, fit or scoring raises
    ``NumericalError``, has no records and counts once in ``skipped`` and
    under its reason in ``skipped_by_reason``.
    """
    started = time.monotonic()
    sizes = [int(n) for n in cfg.sweep_train_sizes] if cfg.mode == "sampleSweep" else [cfg.n_train]
    per_size: list[list[ExperimentRecord]] = [[] for _ in sizes]
    skipped = dict.fromkeys(SKIP_REASONS, 0)
    counts = dict.fromkeys(RUN_COUNTERS, 0)
    sampling: dict[str, dict] = {}
    for block, (p_fit, q_true, d) in enumerate(_blocks(cfg)):
        pids = range(block * cfg.n_processes, (block + 1) * cfg.n_processes)
        tally = sampling.setdefault(str(q_true), dict.fromkeys(SAMPLE_COUNTS, 0))
        for chunk in _truths(cfg, pids, q_true, d, tally):
            units = _chunk_units(cfg, chunk, p_fit, sizes, per_size, skipped)
            # Records read each fit's own spectrum, never its embedding's.
            prepare_spectra(
                [fit.model for unit in units for fit in unit.fits if isinstance(fit, FitResult)]
            )
            prepare_pairs(
                (pair, spec) for unit in units for pair in unit.pairs for spec in _specs(cfg, pair)
            )
            for unit in units:
                _score(cfg, unit, counts, skipped)
    for recs in per_size:
        recs.sort(key=lambda r: (r.process_id, r.estimator, r.omega, r.regime))
    records = [rec for recs in per_size for rec in recs]
    summaries, dropped = _summarize(cfg, sizes, per_size)
    meta = _metadata(cfg, records, skipped, dropped, counts, sampling)
    # Wall time goes to stderr, not into the metadata: outputs must be
    # byte-identical across reruns of the same config and seed.
    elapsed = time.monotonic() - started
    print(f"[varcausal] {cfg.mode} run finished in {elapsed:.1f}s", file=sys.stderr)
    return RunResult(records=records, summaries=summaries, metadata=meta)


@dataclass
class _Unit:
    """One (process, training size) unit between its fits and its scoring."""

    pid: int
    truth: VarModel
    train: SamplePath
    test: SamplePath
    fits: list  # see _fits
    pairs: list  # (truth, fit model) of each fit; see _embedded
    records: list  # where the unit's records go


def _chunk_units(
    cfg: ExperimentConfig, chunk, p_fit: int, sizes, per_size, skipped: dict
) -> list[_Unit]:
    """Simulate, then fit, every (process, size) unit of ``chunk``, a list of
    (process id, truth); units that fail to simulate are counted in
    ``skipped``.

    The simulate phase draws each process's test path and, per size, its
    training path.  The fit phase runs :func:`_fits` on each unit, and then
    the cross-validations of every unit of one training size in one
    :func:`fit_cv_batch` call.
    """
    units = _simulated_units(cfg, chunk, sizes, per_size, skipped)
    batches: dict[int, list] = {}
    for unit in units:
        unit.fits = _fits(cfg, unit.train, p_fit, batches.setdefault(unit.train.n, []))
    for batch in batches.values():
        for (fits, k, _), fit in zip(batch, fit_cv_batch([job for _, _, job in batch])):
            fits[k] = fit
    for unit in units:
        unit.pairs = [
            ModelPair(truth=unit.truth, fitted=_embedded(fit.model, unit.truth.d))
            for fit in unit.fits
            if isinstance(fit, FitResult)
        ]
    return units


def _simulated_units(cfg: ExperimentConfig, chunk, sizes, per_size, skipped: dict) -> list[_Unit]:
    """A unit, not yet fit, for every (process, size) of ``chunk`` whose
    paths simulate; the others are counted in ``skipped``."""
    confounded = cfg.mode == "confounded"
    units = []
    for pid, truth in chunk:
        stage_rng = functools.partial(derive_rng, cfg.master_seed, pid)
        if truth is None:
            skipped["sampling"] += len(sizes)
            continue
        try:
            test = simulate(truth, cfg.n_test, stage_rng(seeding.STAGE_TEST), init="stationary")
        except NumericalError:
            skipped["simulation"] += len(sizes)
            continue
        # A confounded analyst sees the first coordinate of the bivariate paths.
        test = _observed(test) if confounded else test
        for n_train, recs in zip(sizes, per_size):
            try:
                train = simulate(truth, n_train, stage_rng(seeding.STAGE_TRAIN), init="stationary")
            except NumericalError:
                skipped["simulation"] += 1
                continue
            train = _observed(train) if confounded else train
            units.append(_Unit(pid, truth, train, test, [], [], recs))
    return units


def _observed(path: SamplePath) -> SamplePath:
    return SamplePath(values=path.values[:, :1].copy(), seed=path.seed, burn_in=0)


def _embedded(model: VarModel, d: int) -> VarModel:
    """``model`` as a ``d``-dimensional VAR, as :func:`_observed` sees the
    truth's paths: its coordinates come first and follow their lags as before,
    and every other coordinate is predicted as zero.  A model of dimension
    ``d`` is returned as it is."""
    if model.d == d:
        return model
    blocks = tuple(np.pad(block, (0, d - model.d)) for block in model.coeffs)
    return VarModel(d=d, p=model.p, coeffs=blocks, noise_variance=model.noise_variance)


def _specs(cfg: ExperimentConfig, pair: ModelPair) -> list[InterventionSpec]:
    """The interventions the records of ``pair`` read: each cell's, and the
    single-step one that prop1 and cor2 read."""
    return list(dict.fromkeys(
        _spec(omega, r, pair.nu) for omega, regime in _cells(cfg) for r in (regime, "single")
    ))


def _score(cfg: ExperimentConfig, unit: _Unit, counts: dict, skipped: dict) -> None:
    """Score the fits of ``unit`` in order, counting each fit's flags just
    before its records, as if it had been fit there; a fit error or a
    ``NumericalError`` in scoring skips the whole unit."""
    records, singular = [], 0
    for k, fit in enumerate(unit.fits):
        if isinstance(fit, NumericalError):
            skipped["fit"] += 1
            return
        counts["fits_nonconverged"] += not fit.converged
        counts["fits_rank_deficient"] += fit.rank_deficient
        pair = unit.pairs[k]
        try:
            if cfg.mode == "confounded":
                rec = _confounded_record(cfg, unit, pair, fit, counts)
                records.append(rec)
                singular += math.isinf(rec.kappa)
                continue
            for omega, regime in _cells(cfg):
                rec = _standard_record(
                    cfg, unit.pid, omega, pair, unit.train, unit.test, fit, counts, regime
                )
                records.append(rec)
                # thm1 read the window covariance's condition number.
                singular += math.isinf(rec.kappa) or math.isinf(condition_number(pair.autocov()))
        except NumericalError:
            skipped["scoring"] += 1
            return
    counts["windows_singular"] += singular
    unit.records.extend(records)


def _blocks(cfg: ExperimentConfig) -> list[tuple[int, int, int]]:
    """(fit order, true order, dimension) of each block of processes."""
    if cfg.mode == "confounded":
        # A bivariate first-order truth, observed through one coordinate.
        return [(q, 1, 2) for q in cfg.orders]
    return [(q, q, 1) for q in cfg.orders] + [(int(p), int(q), 1) for p, q in cfg.order_pairs]


def _truths(cfg: ExperimentConfig, pids: range, q_true: int, d: int, tally: dict):
    """Each chunk's list of (process id, truth), the truth ``None`` when
    sampling exhausts ``max_tries``.

    Each truth comes from its own process's generator.  A chunk of
    ``CHUNK_PROCESSES`` processes is sampled in one
    :func:`rejection_sample_block` call and set up in one
    :func:`prepare_models` call, so the small per-model eigenvalue, Lyapunov
    and square-root problems run as stacked calls.
    """
    for start in range(0, len(pids), CHUNK_PROCESSES):
        chunk = pids[start : start + CHUNK_PROCESSES]
        rngs = [derive_rng(cfg.master_seed, pid, seeding.STAGE_TRUTH) for pid in chunk]
        truths = rejection_sample_block(
            q_true, d, cfg.coeff_lo, cfg.coeff_hi, rngs,
            max_tries=cfg.max_tries, noise_variance=cfg.noise_variance, tally=tally,
        )
        prepare_models([truth for truth in truths if truth is not None])
        yield list(zip(chunk, truths))


def _cells(cfg: ExperimentConfig) -> list[tuple[int, str]]:
    """The (omega, regime) cells every fit is scored in."""
    if cfg.mode == "omegaSweep":
        return [(omega, regime) for omega in cfg.sweep_omegas for regime in ("single", "all")]
    return [(cfg.omega, "single")]


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
    cfg: ExperimentConfig, unit: _Unit, pair: ModelPair, fit: FitResult, counts: dict
) -> ExperimentRecord:
    """Hidden-confounder record: score the scalar model ``fit`` of the first
    coordinate of bivariate paths (``unit`` holds that coordinate's paths).

    ``pair`` is (bivariate truth, the fit's embedding), filled by
    :func:`prepare_pairs`; its first output component gives the exact
    statistical and causal risks and, under do() on the observed coordinate,
    the Monte-Carlo causal risk.  The analyst cannot see the hidden
    coordinate: the condition number is estimated from the observed test
    sample, the bounds are evaluated with these empirical inputs, and their
    violations are counted in the metadata.
    """
    pid, truth, train, test = unit.pid, unit.truth, unit.train, unit.test
    spec = _spec(cfg.omega, "single", pair.nu)
    emp_cov = empirical_autocov(test, fit.model.p)
    kappa = condition_number(emp_cov.correlation)
    s_emp = empirical_stat_risk(fit.model, test, cfg.omega)
    g_mc = _g_mc(cfg, pid, pair, spec, component=1)
    sigma2_hat = fit.model.noise_variance
    prop1 = (2.0 * kappa - 1.0) * max(s_emp - sigma2_hat, 0.0)
    delta_true = truth.spectrum.max_modulus
    thm1 = _thm1_rhs(cfg, pid, fit.model, train, cfg.omega, kappa, delta_true, counts)
    return ExperimentRecord(
        process_id=pid,
        order_true=1,
        order_fit=fit.model.p,
        estimator=cfg.estimators[0],
        regime="confounded",
        kappa=kappa,
        delta_true=delta_true,
        delta_fit=fit.model.spectrum.max_modulus,
        coeffs_true=tuple(float(v) for v in truth.coeffs[0].ravel()),
        coeffs_fit=tuple(float(v) for v in fit.model.scalar_coeffs),
        s_analytic=float(stat_risk(pair, cfg.omega)[0]),
        s_empirical=s_emp,
        g_analytic=float(causal_risk(pair, spec)[0]),
        g_mc=g_mc,
        abs_diff=abs(g_mc - s_emp),
        prop1_rhs=prop1,
        cor2_rhs=math.nan,
        thm1_rhs=thm1,
        omega=cfg.omega,
        n_train=train.n,
    )


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
    cfg: ExperimentConfig, records, skipped: dict, bucket_dropped, counts: dict, sampling: dict
) -> dict:
    return {
        "config": cfg.to_mapping(),
        "n_records": len(records),
        "skipped": sum(skipped.values()),
        "skipped_by_reason": skipped,
        "bucket_dropped_tail": int(bucket_dropped),
        **{key: _violations(records, lhs, rhs) for key, (lhs, rhs) in VIOLATIONS.items()},
        **counts,
        "sampling": sampling,
    }


def _violations(records, lhs: str, rhs: str) -> int:
    """Records whose field ``lhs`` exceeds their bound ``rhs`` beyond rounding;
    a record where either is not finite is not counted."""
    return sum(
        1
        for value, bound in ((getattr(r, lhs), getattr(r, rhs)) for r in records)
        if math.isfinite(value)
        and math.isfinite(bound)
        and value > bound + 1e-9 * (1.0 + abs(bound))
    )


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
