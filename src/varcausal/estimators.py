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
strength at once.  Lasso and elastic net share one solver, ``_enet_solve``:
cyclic coordinate descent with soft thresholding in covariance form (on
``X'X/T`` and ``X'y/T``), vectorized over a batch of independent problems
(one per target column, and in cross-validation one per fold, mix and
target).  Each duality-gap check also tries the exact solution on the
current support and signs, which usually ends a warm-started fit before
its first sweep.  Cross-validation walks the strength grid from strong to
weak, warm-starting each batch from the last.  ``lam = 0`` reduces every
estimator to OLS.
"""

from __future__ import annotations

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


def _moments(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``X'X/T`` (k, k), ``X'y/T`` (d, k, one row per target) and ``y'y/T`` (d,)."""
    t_rows = x.shape[0]
    return x.T @ x / t_rows, y.T @ x / t_rows, (y * y).sum(axis=0) / t_rows


def _enet_solve(
    gram: np.ndarray,
    xty: np.ndarray,
    yy: np.ndarray,
    l1: np.ndarray,
    l2: np.ndarray,
    beta: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cyclic coordinate descent on B independent elastic-net problems at once.

    Row ``b`` minimizes ``beta'G beta/2 - c'beta + l1 |beta|_1 + l2 |beta|^2/2``
    in covariance form (Friedman, Hastie & Tibshirani 2010), so a sweep costs
    O(k^2) per row whatever the design's row count.  ``gram`` is G, (k, k)
    shared or (B, k, k); ``xty`` is c, (B, k); ``yy``, ``l1 > 0`` and
    ``l2 >= 0`` are (B,); ``beta`` (B, k) is the start.  Each coordinate
    update is vectorized over the rows.

    The duality gap is checked before the first sweep, then every
    ``GAP_CHECK_SWEEPS`` sweeps and at ``MAX_SWEEPS``.  Each check also tries
    the exact support step of feature-sign search (Lee, Battle, Raina & Ng
    2007): solve ``(G_SS + l2 I) beta_S = c_S - l1 sign(beta_S)`` on the
    current support and signs, and keep it where its own gap passes.  A row's
    result is final at its first check with a gap within
    ``DUALITY_GAP_TOL * max(1, yy)``, or after a sweep that moved none of its
    coefficients by ``COEF_CHANGE_TOL``.  Checks act only on the rows due for
    one, so no row's result depends on which rows share its batch.

    Returns ``(beta, converged, gap)`` of shapes (B, k), (B,), (B,).
    """
    n, k = xty.shape
    beta_out, ok_out, gap_out = np.empty((k, n)), np.zeros(n, dtype=bool), np.empty(n)
    # Coordinate-major: index [j] is coordinate j across the rows, and a shared
    # Gram matrix broadcasts as a single row.  Rows whose result is final keep
    # sweeping with the rest; only their output is frozen.
    g = (gram if gram.ndim == 3 else gram[None]).transpose(1, 2, 0)
    c, b = xty.T, beta.T.copy()
    lo, tol = -l1, DUALITY_GAP_TOL * np.maximum(1.0, yy)
    diag = np.diagonal(g).T
    ridge_diag = diag + l2
    # A zero column carries no signal; dividing by inf pins its coefficient at 0.
    denom = np.where(diag != 0.0, ridge_diag, np.inf)
    grad = c - _rowsum(g * b[:, None])
    coords = list(zip(g, diag, denom, b, grad))
    start = np.empty_like(b)
    active = np.ones(n, dtype=bool)
    stalled = np.zeros(n, dtype=bool)
    sweep = 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while True:
            capped = sweep >= MAX_SWEEPS
            if capped or sweep % GAP_CHECK_SWEEPS == 0 or stalled.any():
                due = stalled | (active & (capped or sweep % GAP_CHECK_SWEEPS == 0))
                trial = _support_step(g, c, yy, l1, ridge_diag, b)
                trial_grad = c - _rowsum(g * trial[:, None])
                gap = _gap(c, yy, l1, l2, trial, trial_grad)
                take = due & (gap <= tol)
                np.copyto(b, trial, where=take)
                np.copyto(grad, trial_grad, where=take)
                if (take != due).any():
                    gap = _gap(c, yy, l1, l2, b, grad)
                ok = stalled | (gap <= tol)
                leave = due if capped else due & ok
                np.copyto(beta_out, b, where=leave)
                np.copyto(ok_out, ok, where=leave)
                np.copyto(gap_out, gap, where=leave)
                active &= ~leave
                if not active.any():
                    return beta_out.T, ok_out, gap_out
            np.copyto(start, b)
            for g_j, diag_j, denom_j, b_j, grad_j in coords:
                z = grad_j + diag_j * b_j
                new = (z - np.minimum(np.maximum(z, lo), l1)) / denom_j
                # The Gram matrix is symmetric: column j is row j.
                grad -= g_j * (new - b_j)
                b_j[...] = new
            stalled = active & (np.maximum.reduce(np.abs(b - start)) < COEF_CHANGE_TOL)
            sweep += 1


def _rowsum(v: np.ndarray) -> np.ndarray:
    """Sum over coordinates (axis 0) in a fixed order, whatever the batch size."""
    out = v[0].copy()
    for row in v[1:]:
        out += row
    return out


def _gap(
    c: np.ndarray, yy: np.ndarray, l1: np.ndarray, l2: np.ndarray, b: np.ndarray, grad: np.ndarray
) -> np.ndarray:
    """Duality gap of each row's elastic-net objective, on the per-row (1/T) scale.

    Computed through the augmented-lasso form: the squared-l2 part of the
    penalty joins the residual ``r``, leaving a plain l1 problem whose dual
    point is a scaled residual.  ``grad = X'r/T``, so ``r'r/T`` and ``r'y/T``
    follow from the moments.  Arrays are coordinate-major, (k, B) or (B,).
    """
    n = b.shape[1]
    h = grad - l2 * b
    sums = _rowsum(np.concatenate((b * c, b * (c + h), np.abs(b)), axis=1))
    b_xty, r_sq, l1_norm = sums[:n], yy - sums[n : 2 * n], sums[2 * n :]
    scale = l1 / np.maximum(np.maximum.reduce(np.abs(h)), l1)
    return 0.5 * r_sq + l1 * l1_norm - scale * ((yy - b_xty) - 0.5 * scale * r_sq)


def _support_step(
    g: np.ndarray, c: np.ndarray, yy: np.ndarray, l1: np.ndarray, ridge_diag: np.ndarray,
    b: np.ndarray,
) -> np.ndarray:
    """Solve each row's stationarity equations on its current support and signs.

    Off the support the system is the identity with a zero right-hand side,
    so every row solves a k x k system.  A row gets NaN, which no gap check
    accepts, where its system is singular or where the solution cannot be a
    minimizer: a minimizer costs no more than zero, so ``l1 |beta|_1 <=
    yy / 2``.  A numerically singular system (fewer rows than columns, or
    collinear columns) breaks that bound by many orders of magnitude, while
    its gap, computed from the same moments, may still look certified.
    """
    on = b != 0.0
    a = np.multiply(g, on[:, None] & on, out=np.empty((len(b), *b.shape)))
    a.reshape(-1, b.shape[1])[:: len(b) + 1] = np.where(on, ridge_diag, 1.0)
    rhs = np.where(on, c - l1 * np.sign(b), 0.0).T[:, :, None]
    a = a.transpose(2, 0, 1)
    try:
        sol = np.linalg.solve(a, rhs)[:, :, 0].T
    except np.linalg.LinAlgError:
        # One singular system fails the whole stack: solve row by row.
        sol = np.full(rhs.shape[:2], np.nan)
        for i in range(len(a)):
            try:
                sol[i] = np.linalg.solve(a[i], rhs[i])[:, 0]
            except np.linalg.LinAlgError:
                pass
        sol = sol.T
    return np.where(l1 * _rowsum(np.abs(sol)) <= 0.5 * yy, sol, np.nan)


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
    strength = np.full(design.d, lam)
    beta, ok, gap = _enet_solve(
        gram, xty, yy, strength * eff_mix, strength * (1.0 - eff_mix), np.zeros_like(xty)
    )
    worst_gap = max(0.0, float(gap.max()))
    return _result_from_beta(
        design, beta.T, estimator, lam, eff_mix, None, False, bool(ok.all()), worst_gap
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
    # Strong to weak, so each coordinate-descent batch warm-starts the next.
    lams = sorted(set(lam_grid), reverse=True)
    mixes = sorted(set(mixes))
    err = np.zeros((len(mixes), len(lams)))
    for val_idx, coef in zip(parts, _path_coefs(design, parts, lams, mixes)):
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


def _path_coefs(design: LaggedDesign, parts: list, lams: list, mixes: list) -> np.ndarray:
    """Coefficients (F, M, L, k, d) for every fold in ``parts`` (trained on
    the other rows), l1 weight in ascending ``mixes`` and strength in
    descending ``lams``.

    Weight 0 is ridge, every strength from one SVD per fold.  Strength 0 is
    minimum-norm least squares.  Every other cell is one row of a single
    ``_enet_solve`` batch per strength: all (fold, weight, target) rows walk
    the strengths from strong to weak together, each row warm-started from
    its solution at the previous strength.
    """
    k, d = design.x.shape[1], design.d
    out = np.empty((len(parts), len(mixes), len(lams), k, d))
    pos = [lam for lam in lams if lam > 0.0]
    l1_mix = np.array([mix for mix in mixes if mix > 0.0])
    moments = []
    for f, val_idx in enumerate(parts):
        mask = np.ones(design.t_rows, dtype=bool)
        mask[val_idx] = False
        x, y = design.x[mask], design.y[mask]
        if len(pos) < len(lams):
            out[f, :, -1] = np.linalg.lstsq(x, y, rcond=None)[0]
        if len(l1_mix) < len(mixes):
            out[f, 0, : len(pos)] = _ridge_path(x, y, pos)
        if pos and l1_mix.size:
            moments.append(_moments(x, y))
    if not moments:
        return out
    # Rows ordered (fold, weight, target).
    per_fold = l1_mix.size * d
    gram = np.repeat(np.stack([m[0] for m in moments]), per_fold, axis=0)
    xty = np.concatenate([np.tile(m[1], (l1_mix.size, 1)) for m in moments])
    yy = np.concatenate([np.tile(m[2], l1_mix.size) for m in moments])
    mix = np.tile(np.repeat(l1_mix, d), len(parts))
    beta = np.zeros_like(xty)
    reach = np.abs(xty).max(axis=1)
    for l, lam in enumerate(pos):
        l1 = lam * mix
        # While every |X'y/T| <= l1, zero is each row's exact solution.
        if (reach > l1).any():
            beta = _enet_solve(gram, xty, yy, l1, lam * (1.0 - mix), beta)[0]
        out[:, -l1_mix.size :, l] = beta.reshape(len(parts), l1_mix.size, d, k).swapaxes(2, 3)
    return out
