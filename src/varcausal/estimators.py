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

OLS and ridge are one closed form through a thin SVD of the design, which
gives every strength at once (strength 0 is minimum-norm least squares);
same-shape designs share one stacked SVD call.  Lasso and elastic net share
one exact solver, ``_enet_solve``: feature-sign search in covariance form
over a batch of independent problems, each result certified by its duality
gap.  :func:`fit_cv_batch` fits many designs of every estimator at once, in
stacks of at most ``_ROW_CAP`` design rows; :func:`fit_cv` is that batch
with one design.  ``lam = 0`` reduces every estimator to OLS.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ._stacks import stacked
from .errors import BadInputError
from .process import SamplePath, VarModel

OLS = "ols"
RIDGE = "ridge"
LASSO = "lasso"
ELASTIC_NET = "elasticNet"
ESTIMATORS = (OLS, RIDGE, LASSO, ELASTIC_NET)

#: Default search grids: 20 log-spaced strengths, elastic-net mixing weights.
DEFAULT_LAMBDA_GRID = tuple(float(v) for v in np.logspace(-4, 1, 20))
DEFAULT_MIX_GRID = tuple(round(0.1 * k, 1) for k in range(1, 10))

DUALITY_GAP_TOL = 1e-8
#: Feature-sign steps after which an uncertified lasso / elastic-net fit stops.
MAX_STEPS = 1000

#: Floor applied to residual variance so fitted models remain valid even on
#: noiseless data.
NOISE_VARIANCE_FLOOR = 1e-30

_EPS = float(np.finfo(float).eps)


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
    cv_score: float | None = None
    rank_deficient: bool = False
    converged: bool = True
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


def _result_from_beta(design: LaggedDesign, beta, estimator, lam, mix, **flags) -> FitResult:
    """The fit of coefficients ``beta`` (k, d) to ``design``; ``flags`` are
    :class:`FitResult`'s ``rank_deficient``, ``converged`` and ``duality_gap``."""
    p, d = design.p, design.d
    coeffs = tuple(beta[l * d : (l + 1) * d, :].T.copy() for l in range(p))
    resid = design.y - design.x @ beta
    noise = max(float((resid**2).mean()), NOISE_VARIANCE_FLOOR)
    model = VarModel(d=d, p=p, coeffs=coeffs, noise_variance=noise)
    return FitResult(model, estimator, float(lam), float(mix), coef_matrix=beta, **flags)


def fit_ols(design: LaggedDesign) -> FitResult:
    """Least squares: minimum-norm, and flagged, if the design is rank-deficient."""
    return fit_regularized(design, OLS, 0.0)


def _raised(value):
    """``value``, or raised if it is an exception."""
    if isinstance(value, Exception):
        raise value
    return value


def _ridge_path(x: np.ndarray, y: np.ndarray, lams) -> tuple[np.ndarray, np.ndarray]:
    """Ridge coefficients (B, L, k, d) of a stack of designs ``x`` (B, T, k)
    with targets ``y`` (B, T, d) at strengths ``lams`` >= 0, (L,) shared or
    (B, L); and each design's numerical rank, (B,).

    One thin SVD ``x = U diag(s) V'`` per design serves every strength
    (Golub, Heath & Wahba 1979): ``beta(lam) = V diag(s / (s^2 + T lam)) U'y``.
    At strength 0 (minimum-norm least squares) ``1 / s`` takes its place, and
    ``s <= eps max(T, k) s_max`` counts as zero, numpy's least-squares rank
    cut-off.  The stacked SVD and products factor and multiply each design
    on its own, so every design gets the bits of a stack of one.
    """
    u, s, vt = np.linalg.svd(x, full_matrices=False)
    lams = np.asarray(lams, dtype=float)[..., None, :]
    t_rows, k = x.shape[-2:]
    kept = s > _EPS * max(t_rows, k) * s[..., :1]
    inverse = np.divide(1.0, s, out=np.zeros_like(s), where=kept)[..., None]
    with np.errstate(divide="ignore", invalid="ignore"):
        ridge = s[..., None] / (s[..., None] ** 2 + t_rows * lams)
    shrink = np.where(lams == 0.0, inverse, ridge)  # (B, r, L)
    uty = u.swapaxes(-1, -2) @ y  # (B, r, d)
    n, r, d = len(x), s.shape[-1], y.shape[-1]
    coef = vt.swapaxes(-1, -2) @ (shrink[..., None] * uty[:, :, None]).reshape(n, r, -1)
    return coef.reshape(n, k, -1, d).transpose(0, 2, 1, 3), kept.sum(axis=-1)


#: Most design rows one stacked SVD or validation call holds; larger groups of
#: same-shape designs are split.  On perfbench's ridge_sweep (to 1000 rows)
#: peak RSS rose 6-7% over per-design calls with a chunk's designs in one
#: stack, and 1.6% at this cap.
_ROW_CAP = 4096


def _stacked(designs: list, members: list):
    """``members``, indices into ``designs`` of one shape, in runs of at most
    ``_ROW_CAP`` rows but at least one design each; yields ``(run, x, y)``
    with the run's designs stacked, x (B, T, k) and y (B, T, d)."""
    per = max(1, _ROW_CAP // designs[members[0]].t_rows)
    for start in range(0, len(members), per):
        run = members[start : start + per]
        yield run, np.stack([designs[n].x for n in run]), np.stack([designs[n].y for n in run])


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
    eig: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Feature-sign search on B independent elastic-net problems at once.

    Row ``b`` minimizes ``beta'G beta/2 - c'beta + l1 |beta|_1 + l2 |beta|^2/2``
    in covariance form.  ``gram`` is G, (k, k) shared or (B, k, k); ``xty``
    is c, (B, k); ``yy``, ``l1 > 0``, ``l2 >= 0`` are (B,); ``beta`` (B, k)
    is the start.  Feature-sign search (Lee, Battle, Raina & Ng 2007, Alg. 1)
    steps each row toward the solution on its support and signs.  At that
    solution (after a full step) a row is done once its duality gap is within
    ``DUALITY_GAP_TOL * max(1, yy)`` or no zero coefficient's gradient exceeds
    ``l1``; else the most violating one joins the support (from zero, before
    any step).  Steps lower the objective, so the search ends; ``MAX_STEPS``
    caps it.  Converged iff the gap is within tolerance; any batch gives a
    row the same result.  ``eig`` holds the ascending eigenvalues of ``gram``,
    (k,) or (B, k), for callers that solve one Gram matrix at many strengths;
    they are computed here when needed otherwise.  Returns
    ``(beta, converged, gap)``, (B, k), (B,), (B,).
    """
    n, k = xty.shape
    # Coordinate-major: index [j] is coordinate j across the rows.
    g = np.broadcast_to(gram, (n, k, k)).transpose(1, 2, 0)
    c, b = xty.T, beta.T.copy()
    tol = DUALITY_GAP_TOL * np.maximum(1.0, yy)
    eps = k * np.finfo(float).eps
    # By interlacing a support system can be singular only where G + l2 I is,
    # which needs l2 below numpy's rank tolerance.
    singular = l2 <= np.trace(gram, axis1=-2, axis2=-1) * eps
    if singular.any():
        if eig is None:
            eig = np.linalg.eigvalsh(gram)
        shifted = np.atleast_2d(eig) + l2[:, None]
        singular &= shifted[:, 0] <= shifted[:, -1] * eps
    # A zero start's gradient is c: it takes its first coefficient unchecked.
    grad, excess = c, np.abs(c) - l1
    add = ~b.any(axis=0) & (excess.max(axis=0) > 0.0)
    done = np.zeros(n, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for step in range(MAX_STEPS + 1):
            s = np.sign(b)
            if add.any():
                new = excess[:, add].argmax(axis=0)
                s[new, add] = np.sign(grad[new, add])
            # At the cap no row steps and every row's result is final.
            settled = step == MAX_STEPS
            if not settled:
                stepped, settled = _feature_sign_step(g, c, l1, l2, s, b, singular, eps)
                # A done row stays where it is, so its gap stays what it was.
                b, settled = np.where(done, b, stepped), done | settled
            grad = c - _rowsum(g * b[:, None])
            gap = _gap(c, yy, l1, l2, b, grad)
            excess = np.where(b == 0.0, np.abs(grad) - l1, 0.0)
            add = settled & (gap > tol) & (excess.max(axis=0) > 0.0) & (step < MAX_STEPS)
            done = settled & ~add
            if done.all():
                return b.T, gap <= tol, gap


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


def _feature_sign_step(
    g: np.ndarray, c: np.ndarray, l1: np.ndarray, l2: np.ndarray, s: np.ndarray, b: np.ndarray,
    singular: np.ndarray, eps: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Step each row from ``b`` toward its solution on the support and signs ``s``.

    The target solves ``(G_SS + l2 I) beta_S = c_S - l1 s_S``.  A ``singular``
    row's system may be singular (short folds, collinear columns): it is
    solved by eigendecomposition with numpy's rank tolerance ``eps``.  As
    ``c = X'y/T``, the right-hand side's weight on a null vector ``v`` of
    ``G_SS`` is ``-l1 s'v``; where it has weight the row steps along that
    null component, keeping the fit and lowering ``|beta|_1`` (Efron, Hastie,
    Johnstone & Tibshirani 2004), else toward the minimum-norm solution plus
    the null component of ``b``.  A step that turns a sign, and any null
    step, stops at the sign-change point or target of lowest objective, where
    the coefficient reaching zero leaves the support.  Returns the new
    coefficients and which rows reached their target.
    """
    k, n = b.shape
    on = s != 0.0
    # Off the support: a zero right-hand side and a multiple of the identity,
    # scaled so that numpy's rank tolerance reads the support block's rank.
    diag = np.diagonal(g).T + l2
    a = np.multiply(g, on[:, None] & on, out=np.empty((k, k, n)))
    a.reshape(-1, n)[:: k + 1] = np.where(on, diag, np.maximum.reduce(diag))
    a = a.transpose(2, 0, 1)
    rhs = np.where(on, c - l1 * s, 0.0)
    # Singular rows solve the identity here and their own system below.
    sol = np.linalg.solve(np.where(singular[:, None, None], np.eye(k), a), rhs.T[:, :, None])
    d, end = sol[..., 0].T - b, np.ones(n)
    if singular.any():
        w, v = np.linalg.eigh(a[singular])
        w, v = w.T, v.transpose(1, 2, 0)  # v[j, i]: coordinate j of eigenvector i
        null = w <= np.maximum.reduce(w) * eps
        vs, vr, vb = (_rowsum(v * u[:, None, singular]) for u in (s, rhs, b))
        # A null step goes along -P s (P projects on the null space).
        lift = _rowsum(np.where(null, vs * vs, 0.0)) > eps * eps
        coef = np.where(null, -vs * lift, (vr / w - vb) * ~lift)
        d[:, singular] = np.where(on[:, singular], _rowsum(v.swapaxes(0, 1) * coef[:, None]), 0.0)
        end[singular] = np.where(lift, np.inf, 1.0)
    # Where each coefficient reaches zero, if its sign turns before the end.
    cross = np.where(s * (b + d * end) < 0.0, -b / d, np.inf)
    turned = (cross < np.inf).any(axis=0)
    if not turned.any():
        return b + d, ~turned
    # Discrete line search: the objective at b + t d, less a constant per row.
    cand = np.concatenate((cross, end[None]))
    slope = _rowsum((c - _rowsum(g * b[:, None]) - l2 * b) * d)
    curve = _rowsum(d * (_rowsum(g * d[:, None]) + l2 * d))
    l1_norm = _rowsum(np.abs(b[:, None] + cand * d[:, None]))
    obj = cand * (0.5 * curve * cand - slope) + l1 * l1_norm
    obj[cand == np.inf] = np.inf
    t = np.where(turned, np.take_along_axis(cand, obj.argmin(axis=0)[None], 0)[0], 1.0)
    return np.where(cross == t, 0.0, b + t * d), ~turned


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
    lam = 0.0 if estimator == OLS else lam  # least squares at any strength
    return _raised(_fixed_fits([(design, estimator, lam, mix)])[0])


def _fixed_fits(items) -> list:
    """:func:`fit_regularized` of each checked ``(design, estimator, lam, mix)``,
    batched by :func:`_closed_fits` and :func:`_enet_fits`; any batch gives a
    fit the bits of its own call.  An item that is an exception is its own
    value, and a ``LinAlgError`` becomes its fit's ``NumericalError`` (see
    ``_stacks.stacked``).
    """
    items = [
        item if isinstance(item, Exception)
        else (*item[:3], item[3] if item[1] == ELASTIC_NET else float(item[1] == LASSO))
        for item in items
    ]
    return stacked(
        items,
        # Closed form where the strength or the l1 weight is 0.
        lambda item: item[0].x.shape[1] if min(item[2:]) else (item[0].x.shape, item[0].d),
        lambda group: (_enet_fits if min(group[0][2:]) else _closed_fits)(group),
        failure="fit failed",
    )


def _closed_fits(items) -> list[FitResult]:
    """The closed-form fits of ``(design, estimator, lam, l1 weight)`` items of
    one design shape, from stacked SVDs (see :func:`_ridge_path`); only
    least squares can be rank-deficient."""
    out = []
    for run, x, y in _stacked([design for design, *_ in items], range(len(items))):
        betas, ranks = _ridge_path(x, y, [[items[i][2]] for i in run])
        for i, beta, rank in zip(run, betas, ranks):
            design, est, lam, mix = items[i]
            deficient = bool(lam == 0.0 and rank < design.x.shape[1])
            out.append(_result_from_beta(design, beta[0], est, lam, mix, rank_deficient=deficient))
    return out


def _enet_fits(items) -> list[FitResult]:
    """The lasso and elastic-net fits of ``(design, estimator, lam, l1
    weight)`` items with one number of design columns: one cold
    ``_enet_solve`` call, one row per target."""
    targets = [design.d for design, *_ in items]
    moments = [_moments(design.x, design.y) for design, *_ in items]
    gram = np.repeat(np.stack([m[0] for m in moments]), targets, axis=0)
    xty, yy = (np.concatenate([m[n] for m in moments]) for n in (1, 2))
    lam, mix = (np.repeat([item[n] for item in items], targets) for n in (2, 3))
    beta, ok, gap = _enet_solve(gram, xty, yy, lam * mix, lam * (1.0 - mix), np.zeros_like(xty))
    ends = np.cumsum(targets)[:-1]
    return [
        _result_from_beta(
            d, b.T, est, lam, w, converged=bool(o.all()), duality_gap=max(0.0, float(g.max()))
        )
        for (d, est, lam, w), b, o, g in zip(items, *(np.split(a, ends) for a in (beta, ok, gap)))
    ]


def _fold_slices(t_rows: int, folds: int) -> list[np.ndarray]:
    """Row indices of each of ``folds`` contiguous, near-equal validation folds."""
    return [f for f in np.array_split(np.arange(t_rows), folds) if len(f)]


def fit_cv(
    path: SamplePath,
    p: int,
    estimator: str,
    lam_grid=DEFAULT_LAMBDA_GRID,
    mix_grid=DEFAULT_MIX_GRID,
    folds: int = 5,
) -> FitResult:
    """Grid search with k-fold cross-validation, then refit on all rows.

    Folds are contiguous row blocks, preserving temporal adjacency within
    folds.  Mean validation MSE is minimized over the grid; ties break toward
    the larger strength.  The mixing grid applies to the elastic net only.
    This is :func:`fit_cv_batch` with one member.
    """
    design = build_design(path, p)
    return _raised(fit_cv_batch([(design, estimator, folds)], lam_grid, mix_grid)[0])


def fit_cv_batch(jobs, lam_grid=DEFAULT_LAMBDA_GRID, mix_grid=DEFAULT_MIX_GRID) -> list:
    """:func:`fit_cv` of each ``(design, estimator, folds)`` job, on one grid;
    an OLS job searches nothing and is its least-squares fit, with no score.

    The jobs share the fold fits (see :func:`_path_coefs`); those with one
    design shape, fold split and number of mixing weights are validated in
    one stacked product per fold; and the final fits are batched (see
    :func:`_fixed_fits`).  Any stack or batch gives a job the bits of its own
    :func:`fit_cv` call.  A job whose solver raises ``LinAlgError`` gets a
    ``NumericalError`` in place of its fit.
    """
    jobs = list(jobs)
    lam_grid, mix_grid = list(lam_grid), list(mix_grid)
    if not lam_grid or any(lam < 0 for lam in lam_grid):
        raise BadInputError("the regularization grid must be non-empty and non-negative")
    cv_jobs, splits = [], {}
    # (score, lam, mix) of each job's choice, or the error that left it none.
    picks: list = [(None, 0.0, 0.0)] * len(jobs)
    for i, (design, estimator, folds) in enumerate(jobs):
        if estimator not in ESTIMATORS:
            raise BadInputError(f"unknown estimator {estimator!r}")
        if estimator == OLS:
            continue
        mixes = mix_grid if estimator == ELASTIC_NET else [float(estimator == LASSO)]
        if not mixes or not all(0.0 <= mix <= 1.0 for mix in mixes):
            raise BadInputError("the mixing grid must be non-empty, in [0, 1]")
        if not 2 <= folds <= design.t_rows:
            raise BadInputError(f"{folds} folds: need 2 to {design.t_rows}, the design rows")
        key = (design.t_rows, folds)
        if key not in splits:
            splits[key] = _fold_slices(design.t_rows, folds)
        cv_jobs.append((i, design, splits[key], sorted(set(mixes))))

    # Strong to weak, so each lasso / elastic-net batch warm-starts the next.
    lams = sorted(set(lam_grid), reverse=True)
    coefs = _path_coefs([job[1:] for job in cv_jobs], lams)
    designs = [design for _, design, _, _ in cv_jobs]
    groups: dict[tuple, list[int]] = {}
    for n, (i, design, parts, mixes) in enumerate(cv_jobs):
        if isinstance(coefs[n], Exception):
            picks[i] = coefs[n]
        else:
            groups.setdefault((design.x.shape, design.d, id(parts), len(mixes)), []).append(n)
    for members in groups.values():
        _, _, parts, mixes = cv_jobs[members[0]]
        for run, x, y in _stacked(designs, members):
            # Each fold's (B, M, L, k, d) coefficients are read as one
            # contiguous block, matrix by matrix as a stack of one reads them.
            coef = np.stack([coefs[n] for n in run])
            err = np.zeros((len(run), len(mixes), len(lams)))
            for f, val_idx in enumerate(parts):
                x_val, y_val = (np.take(a, val_idx, axis=1)[:, None, None] for a in (x, y))
                err += ((y_val - x_val @ coef[:, f]) ** 2).mean(axis=(-2, -1))
            for n, cv in zip(run, (err / len(parts)).transpose(0, 2, 1).tolist()):
                # Walk the grid sorted by (lam, mix); <= lets the larger
                # strength win exact ties.
                best = None
                for l in reversed(range(len(lams))):
                    for mix, score in zip(cv_jobs[n][3], cv[l]):
                        if best is None or score <= best[0]:
                            best = (score, lams[l], mix)
                picks[cv_jobs[n][0]] = best

    finals = _fixed_fits([
        pick if isinstance(pick, Exception) else (design, estimator, pick[1], pick[2])
        for (design, estimator, _), pick in zip(jobs, picks)
    ])
    return [
        fit if isinstance(fit, Exception) else replace(fit, cv_score=pick[0])
        for fit, pick in zip(finals, picks)
    ]


def _path_coefs(jobs, lams: list) -> list:
    """Coefficients (F, M, L, k, d) of each ``(design, parts, mixes)`` job:
    for every fold in ``parts`` (trained on the other rows), l1 weight in
    ascending ``mixes`` and strength in the descending ``lams`` all jobs
    share; or the ``NumericalError`` of its failed SVD or walk.

    Weight 0 (ridge) and strength 0 (least squares) are closed form, from
    stacked SVDs per fold (see :func:`_fold_paths`); every other cell comes
    from one strong-to-weak, warm-started walk per number of design columns
    (see :func:`_walk`).  Lasso is the weight-1 row.
    """
    pos = [lam for lam in lams if lam > 0.0]
    outs = stacked(
        [
            # The lowest weight's row takes the closed-form cells: every
            # strength for ridge, else strength 0 alone.
            (design, parts, lams if mixes[0] == 0.0 else lams[len(pos) :],
             np.empty((len(parts), len(mixes), len(lams), design.x.shape[1], design.d)))
            for design, parts, mixes in jobs
        ],
        lambda item: (item[0].x.shape, item[0].d, id(item[1]), len(item[2])),
        _fold_paths,
        failure="least-squares fit failed",
    )
    walks = [
        n for n, ((_, _, mixes), out) in enumerate(zip(jobs, outs))
        if pos and mixes[-1] > 0.0 and not isinstance(out, Exception)
    ]
    walked = stacked(
        [(*jobs[n], outs[n]) for n in walks],
        lambda item: item[0].x.shape[1],
        lambda items: _walk(items, pos),
        failure="lasso / elastic-net path failed",
    )
    for n, out in zip(walks, walked):
        outs[n] = out
    return outs


def _fold_paths(items) -> list[np.ndarray]:
    """The ``out`` (F, M, L, k, d) of each ``(design, parts, strengths, out)``
    item of one design shape, ``parts`` and ``strengths``, with each fold's
    closed-form cells at ``strengths`` (the last of ``out``'s) filled in:
    the lowest weight's from one stacked SVD per fold and run of designs
    (see :func:`_ridge_path`), and, at strength 0, every weight's."""
    _, parts, strengths, _ = items[0]
    outs = [out for *_, out in items]
    if not strengths:
        return outs
    for run, x, y in _stacked([design for design, *_ in items], range(len(items))):
        for f, val_idx in enumerate(parts):
            rows = _train_rows(x.shape[1], val_idx)
            x_f, y_f = np.compress(rows, x, axis=1), np.compress(rows, y, axis=1)
            for i, coef in zip(run, _ridge_path(x_f, y_f, strengths)[0]):
                outs[i][f, 0, -len(strengths) :] = coef
                if strengths[-1] == 0.0:  # every weight's least-squares cell
                    outs[i][f, 1:, -1] = coef[-1]
    return outs


def _train_rows(t_rows: int, val_idx: np.ndarray) -> np.ndarray:
    """Mask of the ``t_rows`` design rows a fold trains on: all but ``val_idx``."""
    mask = np.ones(t_rows, dtype=bool)
    mask[val_idx] = False
    return mask


def _walk(items: list, lams: list) -> list:
    """The ``out`` of each ``(design, parts, mixes, out)`` item of one number
    of design columns, with each fold's positive-weight cells filled along
    the positive, descending ``lams``: one ``_enet_solve`` call per strength
    for every (item, fold, weight, target) row, in that order.

    While every |X'y/T| <= l1 zero is each row's exact solution and the call
    is skipped; a row that is there in a batch that does run stays exactly
    at zero, so any batch gives a row the same result.
    """
    folds = []
    for design, parts, mixes, out in items:
        l1_mix = [mix for mix in mixes if mix > 0.0]
        for f, val_idx in enumerate(parts):
            rows = _train_rows(design.t_rows, val_idx)
            cells = out[f, len(mixes) - len(l1_mix) :, : len(lams)]
            folds.append((cells, _moments(design.x[rows], design.y[rows]), l1_mix))
    per_fold = [len(mixes) * len(m[2]) for _, m, mixes in folds]
    grams = np.stack([m[0] for _, m, _ in folds])
    gram = np.repeat(grams, per_fold, axis=0)
    # Every strength solves the same Gram matrices: one rank test's spectrum.
    eig = np.repeat(np.linalg.eigvalsh(grams), per_fold, axis=0)
    xty = np.concatenate([np.tile(m[1], (len(mixes), 1)) for _, m, mixes in folds])
    yy = np.concatenate([np.tile(m[2], len(mixes)) for _, m, mixes in folds])
    mix = np.concatenate([np.repeat(mixes, len(m[2])) for _, m, mixes in folds])
    beta = np.zeros_like(xty)
    reach = np.abs(xty).max(axis=1)
    path = np.empty((len(lams), *beta.shape))
    for l, lam in enumerate(lams):
        l1 = lam * mix
        if (reach > l1).any():
            beta = _enet_solve(gram, xty, yy, l1, lam * (1.0 - mix), beta, eig)[0]
        path[l] = beta
    k = xty.shape[1]
    for (cells, m, mixes), rows in zip(folds, np.split(path, np.cumsum(per_fold)[:-1], axis=1)):
        cells[...] = rows.reshape(len(lams), len(mixes), -1, k).transpose(1, 0, 3, 2)
    return [out for *_, out in items]
