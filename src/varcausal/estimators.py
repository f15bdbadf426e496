"""Least-squares and regularized fitting of VAR coefficients from paths.

The regression lift stacks lag windows into a design matrix with
most-recent-first columns, so row ``t`` of the design is
``(x_{t-1}, ..., x_{t-p})`` aligned with target ``x_t``.  No intercept is
fitted: the processes are mean-zero by construction.

Objectives (per target column, ``T`` usable rows):

    ols:        (1/2T) ||y - X b||^2
    ridge:      (1/2T) ||y - X b||^2 + (lam/2) ||b||^2
    lasso:      (1/2T) ||y - X b||^2 + lam ||b||_1
    elasticNet: (1/2T) ||y - X b||^2 + lam (mix ||b||_1 + (1-mix)/2 ||b||^2)

Ridge is closed form through a thin SVD of the design, which gives every
strength at once.  Lasso and elastic net run cyclic coordinate descent with
soft thresholding in covariance form (on ``X'X/T`` and ``X'y/T``), stopping
on a duality-gap tolerance; cross-validation warm-starts it down the
strength grid.  ``lam = 0`` reduces every estimator to OLS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BadInputError
from .process import SamplePath, VarModel
from .seeding import as_rng

OLS = "ols"
RIDGE = "ridge"
LASSO = "lasso"
ELASTIC_NET = "elasticNet"
ESTIMATORS = (OLS, RIDGE, LASSO, ELASTIC_NET)

#: Default search grids: 20 log-spaced strengths, elastic-net mixing weights.
DEFAULT_LAMBDA_GRID = tuple(float(v) for v in np.logspace(-4, 1, 20))
DEFAULT_MIX_GRID = tuple(round(0.1 * k, 1) for k in range(1, 10))

DUALITY_GAP_TOL = 1e-8
COEF_CHANGE_TOL = 1e-10
MAX_SWEEPS = 100_000
#: Coordinate-descent sweeps between duality-gap evaluations.
GAP_CHECK_SWEEPS = 5

#: Floor applied to residual variance so fitted models remain valid even on
#: noiseless data.
NOISE_VARIANCE_FLOOR = 1e-30


@dataclass(frozen=True)
class LaggedDesign:
    """Stacked regression view of a path: ``y[t] ~ x[t] @ beta``."""

    x: np.ndarray
    y: np.ndarray
    p: int
    d: int

    @property
    def t_rows(self) -> int:
        return self.x.shape[0]


@dataclass(frozen=True)
class FitResult:
    """A fitted model plus how it was obtained."""

    model: VarModel
    estimator: str
    lam: float
    mix: float
    cv_score: float | None
    rank_deficient: bool
    converged: bool
    duality_gap: float = 0.0
    coef_matrix: np.ndarray = field(default=None, repr=False)

    def to_json_dict(self) -> dict:
        return {
            "estimator": self.estimator,
            "coeffs": [[float(v) for v in b.ravel()] for b in self.model.coeffs],
            "noise_variance": self.model.noise_variance,
            "lambda": self.lam,
            "mu_mix": self.mix,
            "cv_score": self.cv_score,
            "rank_flag": self.rank_deficient,
        }


def build_design(path: SamplePath, p: int) -> LaggedDesign:
    """Lagged design with ``n - p`` rows; raises if the path is too short."""
    if p < 1:
        raise BadInputError("p must be positive")
    x = path.values
    n, d = x.shape
    if n <= p:
        raise BadInputError(f"path of length {n} too short for order {p}")
    cols = [x[p - 1 - l : n - 1 - l] for l in range(p)]
    return LaggedDesign(x=np.concatenate(cols, axis=1), y=x[p:].copy(), p=p, d=d)


def _result_from_beta(
    design: LaggedDesign,
    beta: np.ndarray,
    estimator: str,
    lam: float,
    mix: float,
    cv_score: float | None,
    rank_deficient: bool,
    converged: bool,
    gap: float,
) -> FitResult:
    p, d = design.p, design.d
    coeffs = tuple(beta[l * d : (l + 1) * d, :].T.copy() for l in range(p))
    resid = design.y - design.x @ beta
    noise = max(float((resid**2).mean()), NOISE_VARIANCE_FLOOR)
    model = VarModel(d=d, p=p, coeffs=coeffs, noise_variance=noise)
    return FitResult(
        model=model,
        estimator=estimator,
        lam=float(lam),
        mix=float(mix),
        cv_score=cv_score,
        rank_deficient=rank_deficient,
        converged=converged,
        duality_gap=gap,
        coef_matrix=beta,
    )


def fit_ols(design: LaggedDesign) -> FitResult:
    """Least squares via orthogonal decomposition; minimum-norm if rank-deficient."""
    beta, _, rank, _ = np.linalg.lstsq(design.x, design.y, rcond=None)
    deficient = bool(rank < design.x.shape[1])
    return _result_from_beta(design, beta, OLS, 0.0, 0.0, None, deficient, True, 0.0)


def _ridge_path(x: np.ndarray, y: np.ndarray, lams: list) -> np.ndarray:
    """Ridge coefficients at each positive strength in ``lams``, shape (L, k, d).

    One thin SVD ``x = U diag(s) V'`` serves every strength (Golub, Heath &
    Wahba 1979): ``beta(lam) = V diag(s / (s^2 + T lam)) U'y``.
    """
    u, s, vt = np.linalg.svd(x, full_matrices=False)
    lams = np.asarray(lams, dtype=float)
    shrink = s[:, None] / (s[:, None] ** 2 + x.shape[0] * lams)  # (r, L)
    uty = u.T @ y  # (r, d)
    coef = vt.T @ (shrink[:, :, None] * uty[:, None, :]).reshape(len(s), -1)
    return coef.reshape(x.shape[1], len(lams), y.shape[1]).transpose(1, 0, 2)


def _moments(x: np.ndarray, y: np.ndarray) -> tuple[list, list, list]:
    """``X'X/T`` (rows), ``X'y/T`` (one list per target) and ``y'y/T`` per target."""
    t_rows = x.shape[0]
    return (
        (x.T @ x / t_rows).tolist(),
        (y.T @ x / t_rows).tolist(),
        ((y * y).sum(axis=0) / t_rows).tolist(),
    )


def _enet_cd(
    gram: list, xty: list, yy: float, lam: float, mix: float, beta: list
) -> tuple[list, bool, float]:
    """Cyclic coordinate descent for one target column, in covariance form.

    Works on the moments of ``_moments`` alone, so a sweep costs O(k^2)
    whatever the row count, and starts from ``beta`` (Friedman, Hastie &
    Tibshirani 2010).  Stops when the duality gap, evaluated every
    ``GAP_CHECK_SWEEPS`` sweeps, is within ``DUALITY_GAP_TOL``, or when no
    coefficient moves by ``COEF_CHANGE_TOL``.  Needs ``lam * mix > 0``.
    """
    beta = list(beta)
    l1, l2 = lam * mix, lam * (1.0 - mix)
    grad = [c - sum(g * b for g, b in zip(row, beta)) for c, row in zip(xty, gram)]
    tol = DUALITY_GAP_TOL * max(1.0, yy)
    gap = math.inf
    for sweep in range(MAX_SWEEPS):
        change = 0.0
        for j, row in enumerate(gram):
            diag = row[j]
            if diag == 0.0:
                continue
            old = beta[j]
            z = grad[j] + diag * old
            new = (z - l1 if z > l1 else z + l1 if z < -l1 else 0.0) / (diag + l2)
            if new != old:
                step = new - old
                beta[j] = new
                # The Gram matrix is symmetric: column j is row j.
                grad = [g - r * step for g, r in zip(grad, row)]
                change = max(change, abs(step))
        stalled = change < COEF_CHANGE_TOL
        if stalled or sweep % GAP_CHECK_SWEEPS == GAP_CHECK_SWEEPS - 1 or sweep == MAX_SWEEPS - 1:
            gap = _enet_gap(xty, yy, beta, grad, l1, l2)
            if stalled or gap <= tol:
                return beta, True, gap
    return beta, False, gap


def _enet_gap(xty: list, yy: float, beta: list, grad: list, l1: float, l2: float) -> float:
    """Duality gap of the elastic-net objective, on the per-row (1/T) scale.

    Computed through the augmented-lasso form: the squared-l2 part of the
    penalty joins the residual ``r``, leaving a plain l1 problem whose dual
    point is a scaled residual.  ``grad = X'r/T``, so ``r'r/T`` and ``r'y/T``
    follow from the moments.
    """
    b_xty = sum(b * c for b, c in zip(beta, xty))
    r_sq = yy - b_xty - sum(b * g for b, g in zip(beta, grad)) + l2 * sum(b * b for b in beta)
    dual_norm = max(abs(g - l2 * b) for g, b in zip(grad, beta))
    primal = 0.5 * r_sq + l1 * sum(abs(b) for b in beta)
    scale = min(1.0, l1 / dual_norm) if dual_norm > l1 else 1.0
    return primal - (scale * (yy - b_xty) - 0.5 * scale**2 * r_sq)


def fit_regularized(
    design: LaggedDesign,
    estimator: str,
    lam: float,
    mix: float = 0.5,
) -> FitResult:
    """Fit at a fixed regularization strength.

    ``mix`` is the l1 weight for the elastic net (1 = lasso, 0 = ridge) and
    is ignored by the other estimators.
    """
    if estimator not in ESTIMATORS:
        raise BadInputError(f"unknown estimator {estimator!r}")
    if lam < 0:
        raise BadInputError("lam must be non-negative")
    if not 0.0 <= mix <= 1.0:
        raise BadInputError("mix must lie in [0, 1]")
    if estimator == OLS or lam == 0.0:
        res = fit_ols(design)
        if estimator != OLS:
            res = FitResult(
                model=res.model,
                estimator=estimator,
                lam=0.0,
                mix=mix if estimator == ELASTIC_NET else (1.0 if estimator == LASSO else 0.0),
                cv_score=None,
                rank_deficient=res.rank_deficient,
                converged=True,
                duality_gap=0.0,
                coef_matrix=res.coef_matrix,
            )
        return res
    if estimator == RIDGE or (estimator == ELASTIC_NET and mix == 0.0):
        beta = _ridge_path(design.x, design.y, [lam])[0]
        return _result_from_beta(design, beta, estimator, lam, 0.0, None, False, True, 0.0)

    eff_mix = 1.0 if estimator == LASSO else mix
    gram, xty, yy = _moments(design.x, design.y)
    start = [0.0] * len(gram)
    cols = [_enet_cd(gram, c, s, lam, eff_mix, start) for c, s in zip(xty, yy)]
    beta = np.array([b for b, _, _ in cols]).T
    converged = all(ok for _, ok, _ in cols)
    worst_gap = max(0.0, *(gap for _, _, gap in cols))
    return _result_from_beta(
        design, beta, estimator, lam, eff_mix, None, False, converged, worst_gap
    )


def _fold_slices(t_rows: int, folds: int, shuffle: bool, seed) -> list[np.ndarray]:
    idx = np.arange(t_rows)
    if shuffle:
        as_rng(seed).shuffle(idx)
    return [f for f in np.array_split(idx, folds) if len(f)]


def fit_cv(
    path: SamplePath,
    p: int,
    estimator: str,
    lam_grid=DEFAULT_LAMBDA_GRID,
    mix_grid=DEFAULT_MIX_GRID,
    folds: int = 5,
    seed: int = 0,
    shuffle: bool = False,
) -> FitResult:
    """Grid search with k-fold cross-validation, then refit on all rows.

    Folds are contiguous row blocks by default, preserving temporal adjacency
    within folds (set ``shuffle`` for randomized folds).  Mean validation MSE
    is minimized over the grid; ties break toward the larger strength.  The
    mixing grid applies to the elastic net only.
    """
    if estimator not in ESTIMATORS:
        raise BadInputError(f"unknown estimator {estimator!r}")
    if estimator == OLS:
        return fit_ols(build_design(path, p))
    if folds < 2:
        raise BadInputError("folds must be at least 2")
    lam_grid = list(lam_grid)
    if not lam_grid:
        raise BadInputError("empty regularization grid")
    mixes = list(mix_grid) if estimator == ELASTIC_NET else [1.0 if estimator == LASSO else 0.0]
    if not mixes:
        raise BadInputError("empty mixing grid")
    if any(lam < 0 for lam in lam_grid):
        raise BadInputError("lam must be non-negative")
    if not all(0.0 <= mix <= 1.0 for mix in mixes):
        raise BadInputError("mix must lie in [0, 1]")

    design = build_design(path, p)
    if design.t_rows < folds:
        raise BadInputError(f"{design.t_rows} design rows cannot form {folds} folds")
    parts = _fold_slices(design.t_rows, folds, shuffle, seed)
    # Strong to weak, so each coordinate-descent fit warm-starts the next.
    lams = sorted(set(lam_grid), reverse=True)
    mixes = sorted(set(mixes))
    err = np.zeros((len(mixes), len(lams)))
    for val_idx in parts:
        mask = np.ones(design.t_rows, dtype=bool)
        mask[val_idx] = False
        coef = _path_coefs(design.x[mask], design.y[mask], lams, mixes)
        pred = design.x[val_idx] @ coef
        err += ((design.y[val_idx] - pred) ** 2).mean(axis=(-2, -1))
    cv = err / len(parts)

    # Walk the grid sorted by (lam, mix); <= lets the larger strength win
    # exact ties.
    best = None
    for l in reversed(range(len(lams))):
        for i, mix in enumerate(mixes):
            if best is None or cv[i, l] <= best[0]:
                best = (float(cv[i, l]), lams[l], mix)

    score, lam, mix = best
    final = fit_regularized(design, estimator, lam, mix)
    return FitResult(
        model=final.model,
        estimator=estimator,
        lam=lam,
        mix=final.mix,
        cv_score=score,
        rank_deficient=final.rank_deficient,
        converged=final.converged,
        duality_gap=final.duality_gap,
        coef_matrix=final.coef_matrix,
    )


def _path_coefs(x: np.ndarray, y: np.ndarray, lams: list, mixes: list) -> np.ndarray:
    """Coefficients (M, L, k, d) at every l1 weight and descending strength.

    Weight 0 is ridge, every strength from one SVD; other weights run
    coordinate descent down the strengths, each fit warm-starting the next.
    Strength 0 is minimum-norm least squares.
    """
    out = np.empty((len(mixes), len(lams), x.shape[1], y.shape[1]))
    pos = [lam for lam in lams if lam > 0.0]
    if len(pos) < len(lams):
        out[:, -1] = np.linalg.lstsq(x, y, rcond=None)[0]
    for i, mix in enumerate(mixes):
        if mix == 0.0:
            out[i, : len(pos)] = _ridge_path(x, y, pos)
            continue
        gram, xty, yy = _moments(x, y)
        for col in range(y.shape[1]):
            beta = [0.0] * x.shape[1]
            for l, lam in enumerate(pos):
                beta = _enet_cd(gram, xty[col], yy[col], lam, mix, beta)[0]
                out[i, l, :, col] = beta
    return out
