"""Every bound the theory provides, as executable report objects.

Four families:

* the condition-number bound ``|G - S| <= (2 kappa - 1)(S - sigma^2)`` with
  its matching two-lag tightness construction,
* the stability-parameter bound that replaces ``kappa`` with explicit
  spectral envelopes of the autocovariance,
* a sharper scalar bound built from hook-indexed Schur polynomials of the
  two spectra, which collapses to zero for nearly-low-order processes, and
* the finite-sample causal generalization bound combining the truncated
  empirical risk, an empirical Rademacher complexity over independent
  blocks, and a mixing-corrected confidence term.

Each evaluator returns a ``BoundReport`` carrying the bounded quantity, the
bound value, a holds flag with a small relative tolerance, and every named
scalar input, so experiment records stay self-describing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .companion import _real_part, complete_homogeneous, elementary_symmetric
from .errors import BadInputError, NumericalError
from .interventions import InterventionSpec
from .process import AutocovMatrix, SamplePath, VarModel
from .risk import (
    ModelPair,
    causal_risk,
    empirical_stat_risk,
    risk_difference,
    stat_risk,
    _lag_matrix,
    _squared_errors,
)
from .seeding import as_rng

HOLDS_RTOL = 1e-9

#: Sign-vector draws used by default when estimating Rademacher complexity.
DEFAULT_RADEMACHER_DRAWS = 256


@dataclass(frozen=True)
class BoundReport:
    """One evaluated bound: ``holds`` iff ``lhs <= value`` up to tolerance."""

    name: str
    value: float
    lhs: float
    holds: bool
    slack: float
    inputs: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "value": self.value,
            "lhs": self.lhs,
            "holds": self.holds,
            "slack": self.slack,
            "inputs": {k: v for k, v in self.inputs.items()},
        }


def _report(name: str, value: float, lhs: float, inputs: dict) -> BoundReport:
    # A report without a bounded quantity (lhs = nan) is vacuously holding.
    holds = bool(math.isnan(lhs) or lhs <= value + HOLDS_RTOL * (1.0 + abs(value)))
    return BoundReport(
        name=name, value=float(value), lhs=float(lhs), holds=holds,
        slack=float(value - lhs), inputs=inputs,
    )


def condition_number(cov: AutocovMatrix | np.ndarray) -> float:
    """Ratio of extreme eigenvalues; ``inf`` when numerically singular."""
    dense = cov.dense if isinstance(cov, AutocovMatrix) else np.asarray(cov, dtype=float)
    try:
        eig = np.linalg.eigvalsh(dense)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigenvalue solver failed on covariance: {exc}") from exc
    lam_min, lam_max = float(eig[0]), float(eig[-1])
    if lam_max <= 0:
        raise NumericalError("covariance matrix has no positive eigenvalues")
    if lam_min < 1e-12 * lam_max:
        return math.inf
    return lam_max / lam_min


def autocorrelation(cov: AutocovMatrix | np.ndarray) -> np.ndarray:
    """Rescale a covariance to unit diagonal."""
    dense = cov.dense if isinstance(cov, AutocovMatrix) else np.asarray(cov, dtype=float)
    scale = 1.0 / np.sqrt(np.diag(dense))
    return dense * scale[:, None] * scale[None, :]


def prop1_bound(pair: ModelPair, omega: int, component: int = 1) -> BoundReport:
    """Condition-number bound on the causal-statistical gap.

    ``|G - S| <= (2 kappa - 1) (S - sigma^2)`` where ``kappa`` is the
    condition number of the window autocovariance at the common order and
    the intervention averages the marginal of the given component.
    """
    spec = InterventionSpec.averaged(omega, components=(component,))
    s_total = float(stat_risk(pair, omega).sum())
    g_total = float(causal_risk(pair, spec).sum())
    kappa = condition_number(pair.autocov())
    sigma2 = pair.truth.noise_variance
    rhs = (2.0 * kappa - 1.0) * (s_total - sigma2)
    delta = pair.truth.spectrum.max_modulus
    delta_hat = pair.fitted.spectrum.max_modulus
    return _report(
        "prop1",
        rhs,
        abs(g_total - s_total),
        {
            "kappa": kappa,
            "sigma2": sigma2,
            "s_omega": s_total,
            "delta": delta,
            "delta_hat": delta_hat,
            "nu": pair.nu,
            "omega": omega,
            "component": component,
        },
    )


def tightness_pair(gamma_ratio: float, scale: float = 1.0, a2: float = 0.0) -> ModelPair:
    """Two-lag construction attaining the condition-number bound at omega 1.

    Builds a scalar two-lag truth whose lag-1 autocorrelation is
    ``gamma_ratio`` and perturbs it along the eigenvector of the smallest
    window eigenvalue, for which ``(G - S) / (S - sigma^2)`` equals
    ``(kappa - 1) / 2`` exactly.
    """
    if not 0.0 < gamma_ratio < 1.0:
        raise BadInputError("gamma_ratio must lie in (0, 1)")
    a1 = gamma_ratio * (1.0 - a2)
    truth = VarModel.from_coeffs([a1, a2])
    u = np.array([1.0, -1.0]) / math.sqrt(2.0)
    fitted = VarModel.from_coeffs(truth.scalar_coeffs + scale * u)
    return ModelPair(truth=truth, fitted=fitted)


def cor2_bound(pair: ModelPair, omega: int, k_const: float | None = None) -> BoundReport:
    """Stability-parameter bound for scalar processes.

    ``|G - S| <= K * S * nu * (1 + delta)^(2 nu) / (1 - delta^2)`` with
    ``delta`` the truth's stability parameter.  The default constant is
    ``K = 4 q^q`` (q the truth order): the window eigenvalues obey
    ``lam_min >= sigma^2 / (1 + delta)^(2q)`` and
    ``lam_max <= 2 q^q nu sigma^2 / (1 - delta^2)``, and chaining these
    through the condition-number bound gives the stated constant.
    """
    if pair.d != 1:
        raise BadInputError("the stability bound is stated for scalar processes")
    delta = pair.truth.spectrum.max_modulus
    delta_hat = pair.fitted.spectrum.max_modulus
    if delta >= 1.0:
        raise NumericalError(f"truth stability parameter {delta:.6f} is not below one")
    q = pair.truth.p
    k_val = 4.0 * float(q) ** q if k_const is None else float(k_const)
    s_total = float(stat_risk(pair, omega).sum())
    nu = pair.nu
    rhs = k_val * s_total * nu * (1.0 + delta) ** (2 * nu) / (1.0 - delta**2)
    spec = InterventionSpec.averaged(omega)
    lhs = risk_difference(pair, spec).quad_form
    return _report(
        "cor2",
        rhs,
        lhs,
        {
            "K_p": k_val,
            "delta": delta,
            "delta_hat": delta_hat,
            "nu": nu,
            "omega": omega,
            "s_omega": s_total,
        },
    )


def default_schur_prefactor(p: int, q: int, omega: int) -> float:
    """Smallest constant the triangle-inequality derivation supports.

    The top-left power entry is a complete homogeneous polynomial with
    ``C(p + omega - 1, omega)`` monomials, each at most ``delta^omega``, so
    the difference of the two models' entries is at most the sum of the two
    monomial counts times ``max(delta, delta_hat)^omega``.
    """
    return 2.0 * (math.comb(p + omega - 1, omega) + math.comb(q + omega - 1, omega))


def schur_tight_bound(
    pair: ModelPair, omega: int, k_const: float | None = None
) -> BoundReport:
    """Spectrum-aware scalar bound via hook-indexed Schur polynomials.

    ``|G - S| <= K max(delta, delta_hat)^omega *
    sum_k |S_hook(omega,k)(lam) - S_hook(omega,k)(lam_hat)| |gamma_{k-1}|``
    with per-summand absolute values (the summands carry mixed signs).  Each
    model's Schur values are evaluated on its own nonzero spectrum; an order
    below the common one contributes zero for hooks with too many rows.
    The evaluation is division-free, so repeated roots need no fallback.

    The default ``K`` comes from :func:`default_schur_prefactor`; the
    bare constant 2 is NOT sufficient for domination (the top-left power
    difference can exceed ``2 max(delta, delta_hat)^omega``), so a caller
    forcing ``k_const=2`` gets the literal display value, not a guarantee.
    """
    if pair.d != 1:
        raise BadInputError("the Schur bound is stated for scalar processes")
    delta = pair.truth.spectrum.max_modulus
    delta_hat = pair.fitted.spectrum.max_modulus
    if delta_hat >= 1.0:
        raise NumericalError("the Schur bound needs a stable candidate model")
    if delta >= 1.0:
        raise NumericalError("the Schur bound needs a stable truth")
    nu = pair.nu
    k_val = (
        default_schur_prefactor(pair.fitted.p, pair.truth.p, omega)
        if k_const is None
        else float(k_const)
    )
    gam = pair.autocov().dense[0]

    diffs = _hook_entry_diffs(pair, omega, nu)
    total = sum(abs(diffs[k - 2]) * abs(gam[k - 1]) for k in range(2, nu + 1))
    rhs = k_val * max(delta, delta_hat) ** omega * total
    spec = InterventionSpec.averaged(omega)
    lhs = risk_difference(pair, spec).quad_form
    return _report(
        "schurTight",
        rhs,
        lhs,
        {
            "K_pq": k_val,
            "delta": delta,
            "delta_hat": delta_hat,
            "nu": nu,
            "omega": omega,
        },
    )


def _hook_entry_diffs(pair: ModelPair, omega: int, nu: int) -> list[float]:
    """Hook Schur value differences ``s(lam) - s(lam_hat)`` for columns 2..nu.

    Up to the sign ``(-1)^(k-1)`` the ``(1, k)`` entry of the ``omega``-th
    companion power is the Schur polynomial of the hook ``(omega, 1^(k-1))``.
    The hook identity ``s_(a,1^b) = sum_i (-1)^i h_(a+i) e_(b-i)`` evaluates it
    without division, so it holds at repeated roots too.  A hook with more
    rows than eigenvalues is zero.
    """
    values = []
    for model in (pair.truth, pair.fitted):
        eig = model.spectrum.eigenvalues
        n = len(eig)
        e = [elementary_symmetric(j, eig) for j in range(n + 1)]
        h = [complete_homogeneous(omega + i, eig) for i in range(n)]
        per_k = []
        for b in range(1, nu):
            if b >= n:
                per_k.append(0.0)
                continue
            val = sum((-1) ** i * h[i] * e[b - i] for i in range(b + 1))
            per_k.append(_real_part(val, "hook Schur evaluation"))
        values.append(per_k)
    return [t - f for t, f in zip(*values)]


@dataclass(frozen=True)
class BlockScheme:
    """Independent-blocks partition: ``2 * mu * m = n`` exactly."""

    n: int
    mu: int
    m: int

    def __post_init__(self):
        if self.mu < 1 or self.m < 1:
            raise BadInputError("mu and m must be positive")
        if 2 * self.mu * self.m != self.n:
            raise BadInputError(
                f"block scheme needs 2 * mu * m = n, got 2*{self.mu}*{self.m} != {self.n}"
            )


def admissible_block_scheme(
    n: int, rho: float, confidence: float, margin: float = 0.5
) -> BlockScheme:
    """Largest block count whose mixing correction leaves usable confidence.

    Picks the largest ``mu`` with ``2 (mu - 1) rho^m <= (1 - margin) *
    confidence`` (``m = n // (2 mu)``, ``n`` shrunk to fit).  For strongly
    dependent processes no multi-block split may qualify; ``mu = 1`` is then
    returned, where the correction vanishes identically.
    """
    if n < 2:
        raise BadInputError("need at least two observations for a block scheme")
    if not 0.0 < rho < 1.0:
        raise BadInputError("rho must lie in (0, 1)")
    if not 0.0 < confidence < 1.0:
        raise BadInputError("confidence must lie in (0, 1)")
    budget = (1.0 - margin) * confidence
    for mu in range(n // 2, 0, -1):
        m = n // (2 * mu)
        if m < 1:
            continue
        if 2.0 * (mu - 1) * rho**m <= budget:
            return BlockScheme(n=2 * mu * m, mu=mu, m=m)
    return BlockScheme(n=2 * (n // 2), mu=1, m=n // 2)


def lag_window_blocks(path: SamplePath, p: int, scheme: BlockScheme) -> np.ndarray:
    """One representative lagged regressor per selected (odd-indexed) block.

    The path prefix of length ``scheme.n`` is split into ``2 mu`` consecutive
    blocks of length ``m``; every other block is kept and represented by the
    lag window ending at its last index (clamped so ``p`` lags exist).
    Returns an array of shape (mu, p * d).
    """
    x = path.values
    if x.shape[0] < scheme.n:
        raise BadInputError(f"path of length {x.shape[0]} shorter than scheme n = {scheme.n}")
    if x.shape[0] < p:
        raise BadInputError("path too short for the lag order")
    lagged = _lag_matrix(x, p)  # row s <-> window ending at x[s + p - 1]
    rows = []
    for j in range(scheme.mu):
        end = (2 * j) * scheme.m + scheme.m - 1
        rows.append(lagged[max(end - (p - 1), 0)])
    return np.stack(rows)


def rademacher_estimate(
    blocks: np.ndarray,
    radius: float,
    m_trunc: float,
    seed: int | np.random.Generator,
    draws: int = DEFAULT_RADEMACHER_DRAWS,
) -> float:
    """Monte-Carlo empirical Rademacher complexity of the truncated loss class.

    The truncated square loss is Lipschitz in the prediction with constant
    ``2 sqrt(M)``, so contraction reduces the loss class to the linear class
    of norm at most ``radius``, giving
    ``(4 sqrt(M) B / mu) E_sign || sum_j sign_j z_j ||`` with ``z_j`` the
    block regressors.  The expectation is estimated over ``draws`` sign
    vectors.  Nonnegative, and exact (sign-free) when ``mu = 1``.
    """
    z = np.asarray(blocks, dtype=float)
    if z.ndim != 2 or z.shape[0] < 1:
        raise BadInputError("blocks must be a (mu, dim) array")
    if radius <= 0:
        raise BadInputError("radius must be positive")
    if m_trunc <= 0:
        raise BadInputError("truncation level must be positive")
    if draws < 1:
        raise BadInputError("draws must be positive")
    mu = z.shape[0]
    if mu == 1:
        mean_norm = float(np.linalg.norm(z[0]))
    else:
        rng = as_rng(seed)
        signs = rng.integers(0, 2, size=(draws, mu)) * 2 - 1
        mean_norm = float(np.linalg.norm(signs @ z, axis=1).mean())
    return 4.0 * math.sqrt(m_trunc) * radius * mean_norm / mu


def default_truncation(
    fitted: VarModel, path: SamplePath, omega: int, quantile: float = 0.999
) -> float:
    """Truncation level: high quantile of the observed squared errors."""
    sq = _squared_errors(fitted, path, omega)
    return float(max(np.quantile(sq, quantile), 1e-12))


def thm1_bound(
    fitted: VarModel,
    path: SamplePath,
    scheme: BlockScheme,
    omega: int,
    component: int,
    kappa: float,
    m_trunc: float | None,
    rho: float,
    confidence: float,
    radius: float | None = None,
    draws: int = DEFAULT_RADEMACHER_DRAWS,
    seed: int | np.random.Generator = 0,
    lhs: float | None = None,
) -> BoundReport:
    """Finite-sample causal generalization bound on one path.

    ``G <= zeta * S_hat + zeta * R_hat + 3 zeta M sqrt(log(4 / conf') / (2 mu))``
    with ``zeta = 2 kappa``, ``conf' = confidence - 2 (mu - 1) rho^m`` the
    mixing-corrected confidence level, ``S_hat`` the truncated empirical risk
    on the path, and ``R_hat`` the block Rademacher estimate.

    ``kappa`` and the mixing rate ``rho`` are caller inputs: the first is
    typically the analytic window condition number when the truth is known
    (or an empirical estimate otherwise), and nothing in the data identifies
    ``rho``, so it must be supplied (a conservative choice is the truth's
    stability parameter).  ``lhs`` is an optional externally computed causal
    risk recorded for the holds flag; without it the report is vacuous.
    """
    if not 0.0 < rho < 1.0:
        raise BadInputError("rho must lie in (0, 1)")
    if not 0.0 < confidence < 1.0:
        raise BadInputError("confidence must lie in (0, 1)")
    if kappa < 1.0:
        raise BadInputError("kappa must be at least one")
    conf_eff = confidence - 2.0 * (scheme.mu - 1) * rho**scheme.m
    if conf_eff <= 0.0:
        raise NumericalError(
            f"invalid block scheme: corrected confidence {conf_eff:.3e} <= 0 "
            f"(mu = {scheme.mu}, m = {scheme.m}, rho = {rho})"
        )
    if m_trunc is None:
        m_trunc = default_truncation(fitted, path, omega)
    if radius is None:
        radius = max(1.0, float(np.linalg.norm(np.concatenate([b.ravel() for b in fitted.coeffs]))))

    s_hat = empirical_stat_risk(fitted, path, omega, truncate=m_trunc)
    blocks = lag_window_blocks(path, fitted.p, scheme)
    r_hat = rademacher_estimate(blocks, radius, m_trunc, seed, draws)
    zeta = 2.0 * kappa
    conf_term = 3.0 * zeta * m_trunc * math.sqrt(math.log(4.0 / conf_eff) / (2.0 * scheme.mu))
    rhs = zeta * s_hat + zeta * r_hat + conf_term
    return _report(
        "thm1",
        rhs,
        lhs if lhs is not None else math.nan,
        {
            "kappa": kappa,
            "zeta": zeta,
            "s_hat": s_hat,
            "rademacher": r_hat,
            "M": m_trunc,
            "rho": rho,
            "confidence": confidence,
            "confidence_effective": conf_eff,
            "mu": scheme.mu,
            "m": scheme.m,
            "n": scheme.n,
            "radius": radius,
            "omega": omega,
            "component": component,
        },
    )
