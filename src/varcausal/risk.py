"""Statistical and interventional forecast risk for pairs of VAR models.

Everything is organized around one decomposition: with the truth lifted to a
companion matrix ``A`` and the candidate model to ``Ah`` (both padded to the
common order ``nu``), the error of the ``w``-step plug-in forecast splits
into a quadratic form of the top-block row difference ``D = (A^w - Ah^w)``
against the window second moment, plus an irreducible noise term from
innovations that arrive after the conditioning window:

    per output component i:  risk_i = D_i' M D_i + floor_i

where ``M`` is the stationary window covariance for the observational risk
and its intervened counterpart for the causal risk.  The analytic paths below
all evaluate this expression; the Monte-Carlo paths simulate it and serve as
independent oracles.

Each pair memoizes ``D``, the floors, the intervened windows and the risks.
:func:`prepare_pairs` fills them for many pairs at once, with one stacked
``matrix_power`` per companion size and horizon and one ``einsum`` per shape;
reading a value that was not prepared runs the same code for that one pair.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BadInputError, NumericalError
from .interventions import (
    ATOMIC_AVERAGED,
    ATOMIC_FIXED,
    RELATIVE_SHIFT,
    InterventionSpec,
    interventional_cov,
    marginal_variances,
)
from .process import (
    AutocovMatrix,
    SamplePath,
    VarModel,
    prepare_powers,
    prepare_spectra,
    prepare_windows,
)
from .seeding import as_rng


@dataclass(frozen=True)
class ModelPair:
    """A data-generating model and a candidate model on the same process.

    The two orders may differ; both companions are padded with zero blocks to
    the common order ``nu = max(p, q)`` so their powers live in the same
    space.  Row differences, noise floors, intervened windows and risks are
    memoized per pair; :func:`prepare_pairs` fills them for many pairs in
    stacked calls, and on a miss each is built by the same code for one pair.
    """

    truth: VarModel
    fitted: VarModel
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.truth.d != self.fitted.d:
            raise BadInputError(
                f"dimension mismatch: truth d = {self.truth.d}, fitted d = {self.fitted.d}"
            )

    def _memo(self, name: str, arg, compute) -> np.ndarray:
        """The value ``compute([(self, arg)])`` builds, once per pair."""
        if (name, arg) not in self._cache:
            _fill_pairs([(self, arg)], name, compute, strict=True)
        return self._cache[(name, arg)]

    @property
    def d(self) -> int:
        return self.truth.d

    @property
    def nu(self) -> int:
        return max(self.truth.p, self.fitted.p)

    def autocov(self) -> AutocovMatrix:
        """The truth's stationary window autocovariance at the common order."""
        return self.truth.autocov(self.nu)

    def delta_rows(self, omega: int) -> np.ndarray:
        """Top-block row difference ``(A^w - Ah^w)`` of shape (d, d * nu)."""
        if omega < 1:
            raise BadInputError("omega must be a positive integer")
        return self._memo("delta", omega, _deltas)

    def intervened_cov(self, spec: InterventionSpec) -> np.ndarray:
        """The window covariance of :meth:`autocov` under an atomic intervention."""
        return self._memo("intervened", spec, _intervened)


def prepare_pairs(items) -> None:
    """Fill the values the records of each ``(pair, spec)`` in ``items`` read.

    ``spec`` is an atomic intervention.  Each pair gets its fit's spectrum,
    the powers of both lifted companions at ``spec.omega`` (and of the fit's
    own companion), the eigenvalues of its window and of the window's
    correlation, and its memoized row difference, noise floor, statistical
    risk, intervened window and causal risk.  Values of one shape share one
    stacked call each, which gives every pair the bits of its own calls.  A
    pair whose value fails keeps it unset, so reading it raises as it would
    have alone.
    """
    items = list(items)
    pairs = list({id(pair): pair for pair, _ in items}.values())
    horizons = list({(id(pair), spec.omega): (pair, spec.omega) for pair, spec in items}.values())
    prepare_powers(
        [(m, pair.nu, omega) for pair, omega in horizons for m in (pair.truth, pair.fitted)]
        + [(pair.fitted, pair.fitted.p, omega) for pair, omega in horizons]
    )
    prepare_spectra([pair.fitted for pair in pairs])
    prepare_windows([pair.autocov() for pair in pairs if _stable_truth(pair)])
    for name, compute in (("delta", _deltas), ("floor", _floors), ("stat", _stat_risks)):
        _fill_pairs(horizons, name, compute)
    _fill_pairs(items, "intervened", _intervened)
    _fill_pairs(items, "causal", _causal_risks)


def _fill_pairs(items, name: str, compute, strict: bool = False) -> None:
    """Cache ``compute``'s value under ``(name, arg)`` for each ``(pair, arg)``
    not yet cached, read-only.  A failed value stays unset, or is raised when
    ``strict``."""
    todo = list(
        {(id(pair), arg): (pair, arg) for pair, arg in items if (name, arg) not in pair._cache}
        .values()
    )
    for (pair, arg), value in zip(todo, compute(todo) if todo else ()):
        if isinstance(value, Exception):
            if strict:
                raise value
            continue
        value.setflags(write=False)
        pair._cache[(name, arg)] = value


def _stable_truth(pair: ModelPair) -> bool:
    try:
        _require_stable_truth(pair)
    except NumericalError:
        return False
    return True


def _deltas(items) -> list:
    prepare_powers([(m, pair.nu, w) for pair, w in items for m in (pair.truth, pair.fitted)])
    return [
        pair.truth.power(w, pair.nu)[: pair.d] - pair.fitted.power(w, pair.nu)[: pair.d]
        for pair, w in items
    ]


def _floors(items) -> list:
    """Each pair's noise floor; pairs with one truth share its value."""
    truths = {(id(pair.truth), w): (pair.truth, w) for pair, w in items}
    floors = dict(zip(truths, _noise_floors(*zip(*truths.values()))))
    return [floors[(id(pair.truth), w)] for pair, w in items]


def _intervened(items) -> list:
    """Each pair's intervened window; pairs with one window share its value."""
    out, shared = [], {}
    for pair, spec in items:
        try:
            window = pair.autocov()
            key = (id(window), spec)
            if key not in shared:
                shared[key] = interventional_cov(window, spec).dense
            out.append(shared[key])
        except (BadInputError, NumericalError) as exc:
            out.append(exc)
    return out


def _stat_risks(items) -> list:
    return _risks(items, lambda pair, omega: (omega, pair.autocov().dense))


def _causal_risks(items) -> list:
    return _risks(items, lambda pair, spec: (spec.omega, pair.intervened_cov(spec)))


def _risks(items, window) -> list:
    """``D_i' M D_i + floor_i`` per output component of each ``(pair, arg)``,
    where ``window(pair, arg)`` gives the horizon and ``M``; one ``einsum`` per
    shape."""
    out: list = [None] * len(items)
    groups: dict[tuple[int, int], list] = {}
    for k, (pair, arg) in enumerate(items):
        try:
            _require_stable_truth(pair)
            omega, cov = window(pair, arg)
            member = (k, pair.delta_rows(omega), cov, pair._memo("floor", omega, _floors))
        except (BadInputError, NumericalError) as exc:
            out[k] = exc
            continue
        groups.setdefault(member[1].shape, []).append(member)
    for (d, size), members in groups.items():
        # A stack of 2 x 2 windows sums each form in another order than one
        # call does (numpy 2.4), so those are evaluated one at a time.
        for part in [members] if size > 2 else [[m] for m in members]:
            deltas = np.stack([m[1] for m in part])
            forms = np.einsum("bij,bjk,bik->bi", deltas, np.stack([m[2] for m in part]), deltas)
            for (k, _, _, floor), form in zip(part, forms):
                out[k] = form + floor
    return out


def noise_floor(truth: VarModel, omega: int, component: int | None = None):
    """Irreducible ``omega``-step forecast variance from future innovations.

    Innovations arriving strictly after the conditioning window enter the
    target through the powers ``A^0 .. A^(omega-1)`` of the companion, so the
    floor for output component ``i`` is
    ``sigma^2 * sum_{j<omega} sum_{k<=d} (A^j)_{ik}^2``.

    Returns the full per-component vector, or a single float when
    ``component`` (1-based) is given.
    """
    if omega < 1:
        raise BadInputError("omega must be a positive integer")
    (floors,) = _noise_floors([truth], [omega])
    if component is None:
        return floors
    return float(floors[component - 1])


def _noise_floors(truths, omegas) -> list:
    """:func:`noise_floor` vectors; truths of one state size and horizon share
    one stacked product per power."""
    out: list = [None] * len(truths)
    groups: dict[tuple[int, int, int], list[int]] = {}
    for i, (truth, omega) in enumerate(zip(truths, omegas)):
        groups.setdefault((truth.d, truth.d * truth.p, omega), []).append(i)
    for (d, size, omega), idx in groups.items():
        comps = np.stack([truths[i].companion.dense for i in idx])
        acc = np.zeros((len(idx), d))
        power = np.broadcast_to(np.eye(size), comps.shape)
        for _ in range(omega):
            acc += (power[:, :d, :d] ** 2).sum(axis=2)
            power = power @ comps
        for i, floors in zip(idx, acc):
            out[i] = truths[i].noise_variance * floors
    return out


def stat_risk(pair: ModelPair, omega: int) -> np.ndarray:
    """Analytic observational risk per output component (built once per pair
    and horizon; the array is read-only)."""
    _require_stable_truth(pair)
    return pair._memo("stat", omega, _stat_risks)


def causal_risk(pair: ModelPair, spec: InterventionSpec) -> np.ndarray:
    """Analytic interventional risk per output component (built once per pair
    and intervention; the array is read-only).

    For ``atomicAveraged`` this is the average causal risk with intervention
    values drawn from the stationary marginal; for ``atomicFixed`` the pinned
    values enter through their squares on the intervened diagonal.
    """
    if spec.kind not in (ATOMIC_FIXED, ATOMIC_AVERAGED):
        raise BadInputError("analytic causal risk applies to atomic interventions")
    _require_stable_truth(pair)
    return pair._memo("causal", spec, _causal_risks)


@dataclass(frozen=True)
class RiskDifference:
    """|G - S| evaluated along two independent routes.

    ``quad_form`` contracts the row differences against the (intervened minus
    observational) covariance and is authoritative for any dimension;
    ``cross_term`` expands the same quantity into the intervened row/column
    cross terms of the single intervened component.  The two must agree for
    scalar processes; for d > 1 the cross-term route keeps only the intervened
    output row and is reported for comparison.
    """

    quad_form: float
    cross_term: float


def risk_difference(pair: ModelPair, spec: InterventionSpec) -> RiskDifference:
    """Exact |G - S| for an averaged atomic intervention, two ways."""
    if spec.kind != ATOMIC_AVERAGED:
        raise BadInputError("risk difference is defined for averaged atomic interventions")
    _require_stable_truth(pair)
    delta = pair.delta_rows(spec.omega)
    sigma = pair.autocov().dense
    gamma = pair.intervened_cov(spec)
    quad = float(abs(np.einsum("ij,jk,ik->", delta, gamma - sigma, delta)))

    if len(spec.components) != 1 or spec.time_lags != (0,):
        raise BadInputError(
            "the cross-term expansion needs a single intervened component at a single step"
        )
    i = spec.components[0] - 1  # output component and window slot coincide
    row = delta[i]
    others = [k for k in range(sigma.shape[0]) if k != i]
    cross = 2.0 * abs(row[i] * sum(row[k] * sigma[i, k] for k in others))
    return RiskDifference(quad_form=quad, cross_term=float(cross))


def risk_quotient(pair: ModelPair) -> float:
    """Causal-to-statistical risk ratio under a full window intervention.

    Scalar processes, one-step horizon, and the process normalized to unit
    variance: the window covariance becomes the autocorrelation matrix, the
    intervened covariance the identity, and the noise variance is rescaled by
    the same factor.
    """
    if pair.d != 1:
        raise BadInputError("the risk quotient is defined for scalar processes")
    _require_stable_truth(pair)
    delta = pair.delta_rows(1)[0]
    sigma = pair.autocov().dense
    gamma0 = sigma[0, 0]
    corr = sigma / gamma0
    s2 = pair.truth.noise_variance / gamma0
    num = float(delta @ delta) + s2
    den = float(delta @ corr @ delta) + s2
    return num / den


def relative_shift_gap(pair: ModelPair, omega: int, alpha: float) -> float:
    """Exact causal-minus-statistical gap under a relative shift ``alpha``.

    Equals ``(A^w_11 - Ah^w_11)^2 * alpha^2`` for scalar processes: shifting
    a past value while keeping dependencies adds a deterministic offset to
    the target that the candidate model mispredicts by the top-left power
    difference.  Never negative.
    """
    if pair.d != 1:
        raise BadInputError("the relative-shift gap is defined for scalar processes")
    delta = pair.delta_rows(omega)
    return float(delta[0, 0] ** 2 * alpha**2)


def empirical_stat_risk(
    fitted: VarModel,
    path: SamplePath,
    omega: int,
    truncate: float | None = None,
) -> float:
    """Mean squared ``omega``-step prediction error over all path windows.

    The prediction iterates the fitted model with future noise set to zero,
    i.e. applies the top block row of its ``omega``-th companion power to the
    lag window.  Squared errors (summed over components) can optionally be
    truncated at ``truncate``.
    """
    return _truncated_mean(_squared_errors(fitted, path, omega), truncate)


def _truncated_mean(sq: np.ndarray, truncate: float | None) -> float:
    """Mean of the squared errors ``sq``, each first capped at ``truncate``."""
    if truncate is not None:
        sq = np.minimum(sq, truncate)
    return float(sq.mean())


def _squared_errors(fitted: VarModel, path: SamplePath, omega: int) -> np.ndarray:
    """Squared ``omega``-step prediction error, summed over components, of
    every path window, in window order."""
    if omega < 1:
        raise BadInputError("omega must be a positive integer")
    x = path.values
    n, d = x.shape
    if fitted.d != d:
        raise BadInputError(f"model dimension {fitted.d} does not match path dimension {d}")
    p = fitted.p
    if n <= p + omega:
        raise BadInputError(f"path of length {n} too short for order {p} at horizon {omega}")
    weights = fitted.power(omega)[:d]
    lagged = _lag_matrix(x, p)  # row s <-> window ending at x[s + p - 1]
    count = n - omega - p + 1
    preds = lagged[:count] @ weights.T
    errs = x[p - 1 + omega :] - preds
    return (errs**2).sum(axis=1)


def _lag_matrix(x: np.ndarray, p: int) -> np.ndarray:
    """Rows are most-recent-first flattened windows of ``p`` observations."""
    n, d = x.shape
    cols = [x[p - 1 - l : n - l] for l in range(p)]
    return np.concatenate(cols, axis=1)


def _require_stable_truth(pair: ModelPair) -> None:
    delta = pair.truth.spectrum.max_modulus
    if delta >= 1.0:
        raise NumericalError(f"analytic risk needs a stable truth (max modulus {delta:.6f})")


# ---------------------------------------------------------------------------
# Monte-Carlo machinery
# ---------------------------------------------------------------------------


def _forward(
    truth: VarModel,
    windows: np.ndarray,
    omega: int,
    noise: np.ndarray,
) -> np.ndarray:
    """Roll ``omega`` steps of the truth forward from stacked windows.

    ``windows`` has shape (N, L*d), most-recent-first; ``noise`` has shape
    (N, omega, d).  Returns the realized targets, shape (N, d).
    """
    length = windows.shape[1] // truth.d
    comp = truth.lifted(length).dense
    state = windows
    d = truth.d
    for s in range(omega):
        top = state @ comp[:d].T + noise[:, s, :]
        if s + 1 < omega:
            state = np.concatenate([top, state[:, : (length - 1) * d]], axis=1)
    return top


def _surgery(
    windows: np.ndarray,
    spec: InterventionSpec,
    d: int,
    marg_std: np.ndarray | None,
    rng: np.random.Generator,
) -> np.ndarray:
    """Vectorized window surgery; returns a modified copy."""
    out = windows.copy()
    n = out.shape[0]
    if spec.kind == ATOMIC_AVERAGED:
        for lag in spec.time_lags:
            for c in spec.components:
                out[:, lag * d + c - 1] = rng.standard_normal(n) * marg_std[c - 1]
    elif spec.kind == ATOMIC_FIXED:
        for lag in spec.time_lags:
            for c, v in zip(spec.components, spec.values):
                out[:, lag * d + c - 1] = v
    else:
        for c in spec.components:
            out[:, c - 1] += spec.alpha
    return out


def _prediction_weights(fitted: VarModel, omega: int, length: int) -> np.ndarray:
    return fitted.power(omega, length)[: fitted.d]


def _mc_window_length(pair: ModelPair, spec: InterventionSpec | None) -> int:
    length = pair.nu
    if spec is not None and spec.time_lags:
        length = max(length, max(spec.time_lags) + 1)
    return length


def mc_stat_risk(
    pair: ModelPair, omega: int, draws: int, seed: int | np.random.Generator
) -> tuple[float, float]:
    """Monte-Carlo observational risk from exact stationary windows.

    Draws i.i.d. windows from the stationary Gaussian law, rolls the truth
    forward with fresh innovations, and scores the fitted plug-in forecast.
    Returns ``(mean, standard error)``.
    """
    if draws < 1:
        raise BadInputError("draws must be positive")
    rng = as_rng(seed)
    length = _mc_window_length(pair, None)
    windows = _draw_windows(pair.truth, length, draws, rng)
    noise = rng.standard_normal((draws, omega, pair.d)) * math.sqrt(pair.truth.noise_variance)
    targets = _forward(pair.truth, windows, omega, noise)
    preds = windows @ _prediction_weights(pair.fitted, omega, length).T
    sq = ((targets - preds) ** 2).sum(axis=1)
    return float(sq.mean()), float(sq.std(ddof=1) / math.sqrt(draws))


def mc_causal_risk(
    pair: ModelPair, spec: InterventionSpec, draws: int, seed: int | np.random.Generator
) -> tuple[float, float]:
    """Monte-Carlo interventional risk; same sampling scheme as ``mc_stat_risk``
    with window surgery applied before the forward roll.  Returns
    ``(mean, standard error)``."""
    _, cut, noise, weights = _mc_intervened(pair, spec, draws, seed)
    targets = _forward(pair.truth, cut, spec.omega, noise)
    sq = ((targets - cut @ weights.T) ** 2).sum(axis=1)
    return float(sq.mean()), float(sq.std(ddof=1) / math.sqrt(draws))


def mc_risk_gap(
    pair: ModelPair, spec: InterventionSpec, draws: int, seed: int | np.random.Generator
) -> tuple[float, float]:
    """Paired Monte-Carlo estimate of ``G - S`` with common random numbers.

    Both arms share the stationary window draw and the forward innovations;
    only the surgery differs.  The per-draw differences estimate the gap with
    far lower variance than differencing two independent estimates, and their
    sample standard error makes ``mean +- 3 se`` a meaningful check.
    """
    windows, cut, noise, weights = _mc_intervened(pair, spec, draws, seed)
    targets_do = _forward(pair.truth, cut, spec.omega, noise)
    errs_do = ((targets_do - cut @ weights.T) ** 2).sum(axis=1)
    targets_obs = _forward(pair.truth, windows, spec.omega, noise)
    errs_obs = ((targets_obs - windows @ weights.T) ** 2).sum(axis=1)

    diff = errs_do - errs_obs
    return float(diff.mean()), float(diff.std(ddof=1) / math.sqrt(draws))


def _mc_intervened(
    pair: ModelPair, spec: InterventionSpec, draws: int, seed: int | np.random.Generator
):
    """Shared draws of the interventional MC routes: stationary windows, their
    surgery and forward innovations (in this generator order), plus the fitted
    forecast weights."""
    if draws < 1:
        raise BadInputError("draws must be positive")
    rng = as_rng(seed)
    length = _mc_window_length(pair, spec)
    windows = _draw_windows(pair.truth, length, draws, rng)
    marg = np.sqrt(marginal_variances(pair.truth)) if spec.kind == ATOMIC_AVERAGED else None
    cut = _surgery(windows, spec, pair.d, marg, rng)
    noise = rng.standard_normal((draws, spec.omega, pair.d)) * math.sqrt(
        pair.truth.noise_variance
    )
    return windows, cut, noise, _prediction_weights(pair.fitted, spec.omega, length)


def _draw_windows(
    truth: VarModel, length: int, draws: int, rng: np.random.Generator
) -> np.ndarray:
    return rng.standard_normal((draws, length * truth.d)) @ truth.autocov(length).root.T


def empirical_causal_risk(
    truth: VarModel,
    fitted: VarModel,
    path: SamplePath,
    spec: InterventionSpec,
    draws: int,
    seed: int | np.random.Generator,
) -> float:
    """Monte-Carlo interventional risk with windows taken from a sample path.

    Window positions are cycled round-robin; each draw applies fresh surgery
    values (averaged kind) and fresh forward innovations.  Equivalent to
    looping ``simulate_intervened`` over path windows, but vectorized.
    """
    if draws < 1:
        raise BadInputError("draws must be positive")
    if spec.kind not in (ATOMIC_AVERAGED, RELATIVE_SHIFT):
        raise BadInputError(
            "empirical causal risk averages marginal draws or relative shifts"
        )
    pair = ModelPair(truth=truth, fitted=fitted)
    length = max(_mc_window_length(pair, spec), truth.p)
    x = path.values
    n = x.shape[0]
    if n < length:
        raise BadInputError(f"path of length {n} too short for window length {length}")
    rng = as_rng(seed)

    lagged = _lag_matrix(x, length)  # (n - length + 1, length * d)
    pos = np.arange(draws) % lagged.shape[0]
    windows = lagged[pos]
    marg = np.sqrt(marginal_variances(truth)) if spec.kind == ATOMIC_AVERAGED else None
    cut = _surgery(windows, spec, truth.d, marg, rng)
    noise = rng.standard_normal((draws, spec.omega, truth.d)) * math.sqrt(
        truth.noise_variance
    )
    targets = _forward(truth, cut, spec.omega, noise)
    preds = cut @ _prediction_weights(fitted, spec.omega, length).T
    return float(((targets - preds) ** 2).sum(axis=1).mean())


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RiskReport:
    """Bundled risk values for one model pair and intervention."""

    s_omega: float
    g_do: float | None
    g_avg: float
    diff: float
    noise_floor: float
    quotient: float | None
    method: str
    omega: int
    components: tuple[int, ...]
    spec: InterventionSpec = field(repr=False)

    def to_json(self) -> str:
        payload = {
            "s_omega": self.s_omega,
            "g_do": self.g_do,
            "g_avg": self.g_avg,
            "diff": self.diff,
            "noise_floor": self.noise_floor,
            "quotient": self.quotient,
            "method": self.method,
            "omega": self.omega,
            "component": (
                self.components[0] if len(self.components) == 1 else list(self.components)
            ),
            "spec": json.loads(self.spec.to_json()),
        }
        return json.dumps(payload, indent=2)


def risk_report(pair: ModelPair, spec: InterventionSpec) -> RiskReport:
    """Analytic risk report: totals over output components.

    For atomic interventions ``g_avg`` is the marginal-averaged causal risk
    (``g_do`` additionally reported when values are pinned).  For a relative
    shift the causal risk is exactly the statistical risk plus the shift gap.
    """
    s_total = float(stat_risk(pair, spec.omega).sum())
    g_do = None
    if spec.kind == RELATIVE_SHIFT:
        g_avg = s_total + relative_shift_gap(pair, spec.omega, spec.alpha)
    else:
        averaged = spec if spec.kind == ATOMIC_AVERAGED else InterventionSpec(
            kind=ATOMIC_AVERAGED,
            omega=spec.omega,
            components=spec.components,
            time_lags=spec.time_lags,
        )
        g_avg = float(causal_risk(pair, averaged).sum())
        if spec.kind == ATOMIC_FIXED:
            g_do = float(causal_risk(pair, spec).sum())
    g_for_diff = g_do if g_do is not None else g_avg
    quotient = risk_quotient(pair) if (pair.d == 1 and spec.omega == 1) else None
    return RiskReport(
        s_omega=s_total,
        g_do=g_do,
        g_avg=g_avg,
        diff=abs(g_for_diff - s_total),
        noise_floor=float(noise_floor(pair.truth, spec.omega).sum()),
        quotient=quotient,
        method="analytic",
        omega=spec.omega,
        components=spec.components,
        spec=spec,
    )
