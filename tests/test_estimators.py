"""Design construction, OLS, regularized fits, and cross-validation."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from varcausal import estimators
from varcausal.errors import BadInputError, NumericalError
from varcausal.estimators import (
    DEFAULT_LAMBDA_GRID,
    LaggedDesign,
    build_design,
    fit_cv,
    fit_cv_batch,
    fit_ols,
    fit_regularized,
)
from varcausal.process import SamplePath, VarModel, simulate

from conftest import random_stable_model


def column_gap(x, y, b, lam, mix):
    """Elastic-net duality gap of one target column from the residual (per-row scale).

    An independent route to the gap the covariance-form solver reports.
    """
    t_rows = x.shape[0]
    alpha, l2 = t_rows * lam * mix, t_rows * lam * (1.0 - mix)
    resid = y - x @ b
    r_sq = float(resid @ resid) + l2 * float(b @ b)
    dual_norm = float(np.abs(x.T @ resid - l2 * b).max())
    primal = 0.5 * r_sq + alpha * float(np.abs(b).sum())
    scale = min(1.0, alpha / dual_norm) if dual_norm > alpha else 1.0
    dual = scale * float(resid @ y) - 0.5 * scale**2 * r_sq
    return (primal - dual) / t_rows


def residual_gap(design, beta, lam, mix):
    """``column_gap`` of the worst target column."""
    return max(0.0, *(column_gap(design.x, y, b, lam, mix) for y, b in zip(design.y.T, beta.T)))


def per_cell_cv(path, p, estimator, lam_grid, mix_grid, folds=5):
    """Oracle: one ``fit_regularized`` per (strength, mix, fold) cell.

    Same contiguous folds and the same walk over ``sorted((lam, mix))``,
    where the last minimum wins.  Returns ``(score, lam, mix)``.
    """
    design = build_design(path, p)
    parts = [f for f in np.array_split(np.arange(design.t_rows), folds) if len(f)]
    mixes = list(mix_grid) if estimator == "elasticNet" else [1.0 if estimator == "lasso" else 0.0]
    best = None
    for lam, mix in sorted((lam, mix) for lam in lam_grid for mix in mixes):
        scores = []
        for val_idx in parts:
            mask = np.ones(design.t_rows, dtype=bool)
            mask[val_idx] = False
            sub = LaggedDesign(x=design.x[mask], y=design.y[mask], p=design.p, d=design.d)
            pred = design.x[val_idx] @ fit_regularized(sub, estimator, lam, mix).coef_matrix
            scores.append(float(((design.y[val_idx] - pred) ** 2).mean()))
        score = float(np.mean(scores))
        if best is None or score <= best[0]:
            best = (score, lam, mix)
    return best


def oracle_paths():
    """Seeded CV inputs: order 3, a d = 2 path, and a rank-deficient design."""
    out = [
        ("p3", simulate(random_stable_model(np.random.default_rng(seed), 3), 150, seed), 3)
        for seed in (1, 2)
    ]
    vec = VarModel(
        d=2,
        p=2,
        coeffs=(np.array([[0.5, 0.1], [0.0, 0.3]]), np.array([[-0.2, 0.0], [0.1, 0.1]])),
        noise_variance=1.0,
    )
    out.append(("d2", simulate(vec, 120, 5), 2))
    # 5 design rows in 5 folds: each training fold has 4 rows for 5 columns.
    out.append(("rank", simulate(VarModel.from_coeffs([0.5, 0.2, 0.1, -0.1, 0.05]), 10, 6), 5))
    return out


#: 0.0 (least squares) and a duplicate strength (an exact tie) included.
ORACLE_LAMS = (1.0, 0.2, 0.05, 0.01, 0.01, 0.001, 0.0)
ORACLE_MIXES = (0.7, 0.3, 0.7)


def exact_path(coeffs, n, seed=0, scale=1.0):
    """Noise-free recursion from random initial values: an exact linear system."""
    rng = np.random.default_rng(seed)
    p = len(coeffs)
    x = np.zeros(n)
    x[:p] = rng.uniform(-scale, scale, size=p)
    for t in range(p, n):
        x[t] = sum(coeffs[l] * x[t - 1 - l] for l in range(p))
    return SamplePath(values=x[:, None], seed=seed, burn_in=0)


class TestBuildDesign:
    def test_row_count(self):
        path = SamplePath(values=np.arange(5.0)[:, None], seed=0, burn_in=0)
        design = build_design(path, 2)
        assert design.t_rows == 3

    def test_alignment(self):
        path = SamplePath(values=np.arange(6.0)[:, None], seed=0, burn_in=0)
        design = build_design(path, 2)
        # Row for target x_2 = 2.0 holds (x_1, x_0).
        np.testing.assert_array_equal(design.y[:, 0], [2.0, 3.0, 4.0, 5.0])
        np.testing.assert_array_equal(design.x[0], [1.0, 0.0])

    def test_too_short(self):
        path = SamplePath(values=np.zeros((3, 1)) + 1.0, seed=0, burn_in=0)
        with pytest.raises(BadInputError):
            build_design(path, 3)

    def test_white_noise_coefficients_near_zero(self):
        path = simulate(VarModel.from_coeffs([0.0]), 100_000, 8)
        design = build_design(path, 3)
        fit = fit_ols(design)
        se = 1.0 / np.sqrt(design.t_rows)
        assert np.all(np.abs(fit.model.scalar_coeffs) < 3 * se)


class TestFitOLS:
    def test_exact_recovery_on_noiseless_data(self):
        path = exact_path([0.5, 0.3], 50)
        fit = fit_ols(build_design(path, 2))
        np.testing.assert_allclose(fit.model.scalar_coeffs, [0.5, 0.3], atol=1e-10)

    def test_downward_bias_of_ar1(self):
        means = []
        for rep in range(1000):
            path = simulate(VarModel.from_coeffs([0.9]), 100, rep)
            fit = fit_ols(build_design(path, 1))
            means.append(fit.model.scalar_coeffs[0])
        assert np.mean(means) < 0.9

    def test_minimum_norm_when_underdetermined(self):
        path = exact_path([0.4, 0.2, 0.1], 5, seed=3)
        design = build_design(path, 3)  # 2 rows, 3 columns
        fit = fit_ols(design)
        assert fit.rank_deficient
        resid = design.y - design.x @ fit.coef_matrix
        assert float(np.abs(resid).max()) < 1e-10

    def test_residual_orthogonality(self, rng):
        model = random_stable_model(rng, 3)
        path = simulate(model, 2000, 5)
        design = build_design(path, 3)
        fit = fit_ols(design)
        resid = design.y - design.x @ fit.coef_matrix
        lhs = float(np.abs(design.x.T @ resid).max())
        assert lhs <= 1e-8 * np.linalg.norm(design.x) * np.linalg.norm(design.y)


def least_squares_designs():
    """(name, design): random designs, designs with T close to k, duplicated,
    scaled and zero columns, an all-zero design, and d = 2."""
    rng = np.random.default_rng(31)
    out = []
    for t_rows, k in [(50, 3), (200, 7), (9, 7), (8, 7), (7, 7), (6, 7), (2, 5)]:
        x, y = rng.standard_normal((t_rows, k)), rng.standard_normal((t_rows, 1))
        out.append((f"random {t_rows}x{k}", LaggedDesign(x=x, y=y, p=k, d=1)))
    for name, col, source in [("duplicated", 3, 1), ("scaled", 2, 0), ("zero", 2, None)]:
        for t_rows in (40, 4):
            x, y = rng.standard_normal((t_rows, 4)), rng.standard_normal((t_rows, 1))
            scale = 1.0 if name == "duplicated" else -3.0
            x[:, col] = 0.0 if source is None else scale * x[:, source]
            out.append((f"{name} column {t_rows}x4", LaggedDesign(x=x, y=y, p=4, d=1)))
    zero = LaggedDesign(x=np.zeros((10, 3)), y=rng.standard_normal((10, 1)), p=3, d=1)
    out.append(("all zero", zero))
    for t_rows in (60, 5, 3):
        x, y = rng.standard_normal((t_rows, 4)), rng.standard_normal((t_rows, 2))
        out.append((f"d2 {t_rows}x4", LaggedDesign(x=x, y=y, p=2, d=2)))
    x, y = rng.standard_normal((30, 4)), rng.standard_normal((30, 2))
    x[:, 2] = x[:, 0]
    out.append(("d2 duplicated column", LaggedDesign(x=x, y=y, p=2, d=2)))
    return out


class TestLeastSquaresRoute:
    """Least squares goes through the stacked thin SVD; ``np.linalg.lstsq``
    is its oracle here."""

    @pytest.mark.parametrize("name, design", least_squares_designs())
    def test_matches_lstsq(self, name, design):
        want, _, rank, _ = np.linalg.lstsq(design.x, design.y, rcond=None)
        scale = float(np.abs(want).max())
        for fit in (fit_ols(design), fit_regularized(design, "lasso", 0.0)):
            np.testing.assert_allclose(fit.coef_matrix, want, rtol=0, atol=1e-12 * scale)
            assert fit.rank_deficient == (rank < design.x.shape[1])
        # Every short design, and every design with a dependent column, is
        # rank-deficient; the rest are not.
        dependent = any(key in name for key in ("duplicated", "scaled", "zero"))
        assert (rank < design.x.shape[1]) == (dependent or design.t_rows < design.x.shape[1])

    def test_batch_gives_each_design_its_own_bits(self, monkeypatch):
        designs = [design for _, design in least_squares_designs()]
        alone = [fit_ols(design) for design in designs]
        shapes = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: shapes.append(a.shape) or svd(a, **kw))
        batch = fit_cv_batch([(design, "ols", 5) for design in designs + designs])
        for got, want in zip(batch, alone + alone):
            assert_same_fit(got, want)
            assert got.cv_score is None and got.lam == 0.0
        # One stacked SVD per design shape and number of targets.
        keys = {(d.x.shape, d.d) for d in designs}
        assert len(shapes) == len(keys)
        assert sum(s[0] for s in shapes) == 2 * len(designs)

    def test_failed_solver_fails_only_its_own_fit(self):
        rng = np.random.default_rng(5)
        good = [
            LaggedDesign(x=rng.standard_normal((30, 3)), y=rng.standard_normal((30, 1)), p=3, d=1)
            for _ in range(3)
        ]
        bad = LaggedDesign(x=good[0].x.copy(), y=good[0].y, p=3, d=1)
        bad.x[4, 1] = np.nan
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.lstsq(bad.x, bad.y, rcond=None)
        # Lasso, and the elastic net on positive weights only, fail in the
        # strength walk's rank test rather than in an SVD.
        cases = [(est, (0.0, 0.5)) for est in ("ols", "ridge", "lasso", "elasticNet")]
        for estimator, mixes in cases + [("elasticNet", (0.5, 1.0))]:
            jobs = [(design, estimator, 5) for design in (good[0], bad, *good[1:])]
            got = fit_cv_batch(jobs, mix_grid=mixes)
            assert isinstance(got[1], NumericalError)
            for fit, design in zip(got[:1] + got[2:], good):
                assert_same_fit(fit, fit_cv_batch([(design, estimator, 5)], mix_grid=mixes)[0])
        with pytest.raises(NumericalError):
            fit_ols(bad)


class TestFitRegularized:
    def test_zero_strength_equals_ols(self, rng):
        model = random_stable_model(rng, 2)
        path = simulate(model, 500, 6)
        design = build_design(path, 2)
        base = fit_ols(design).model.scalar_coeffs
        for estimator in ("ridge", "lasso", "elasticNet"):
            got = fit_regularized(design, estimator, 0.0).model.scalar_coeffs
            np.testing.assert_allclose(got, base, atol=1e-8)

    def test_ridge_shrinks_to_zero(self):
        path = simulate(VarModel.from_coeffs([0.8]), 500, 7)
        design = build_design(path, 1)
        big = fit_regularized(design, "ridge", 1e6).model.scalar_coeffs
        assert np.abs(big).max() < 1e-3

    def test_lasso_is_soft_thresholding_in_1d(self):
        # With a single column scaled so x'x/T = 1, the lasso solution is the
        # soft-thresholded OLS value; check against a brute-force grid.
        rng = np.random.default_rng(11)
        t_rows = 200
        x = rng.standard_normal(t_rows)
        x /= np.sqrt(np.mean(x**2))
        y = 0.6 * x + 0.5 * rng.standard_normal(t_rows)
        from varcausal.estimators import LaggedDesign

        design = LaggedDesign(x=x[:, None], y=y[:, None], p=1, d=1)
        lam = 0.2
        fit = fit_regularized(design, "lasso", lam)
        beta_ols = float(x @ y) / float(x @ x)
        expect = np.sign(beta_ols) * max(abs(beta_ols) - lam, 0.0)
        assert fit.model.scalar_coeffs[0] == pytest.approx(expect, abs=1e-8)

        grid = np.linspace(expect - 0.05, expect + 0.05, 20001)
        objective = ((y[None, :] - grid[:, None] * x[None, :]) ** 2).sum(axis=1) / (
            2 * t_rows
        ) + lam * np.abs(grid)
        brute = grid[int(objective.argmin())]
        assert fit.model.scalar_coeffs[0] == pytest.approx(brute, abs=1e-6)

    def test_duality_gap_certificate(self, rng):
        model = random_stable_model(rng, 4)
        path = simulate(model, 300, 9)
        design = build_design(path, 4)
        for estimator, lam, mix in (("lasso", 0.05, 1.0), ("elasticNet", 0.05, 0.4)):
            fit = fit_regularized(design, estimator, lam, mix)
            y_scale = max(1.0, float((design.y**2).mean()))
            assert fit.converged
            assert fit.duality_gap <= 1e-8 * y_scale
            # The reported gap is the one the solver computed for these
            # coefficients.  The support step solves exactly, so both sit at
            # rounding level; the non-zero case is the sweep-cap test's.
            gap = residual_gap(design, fit.coef_matrix, lam, fit.mix)
            assert gap <= 1e-8 * y_scale
            assert fit.duality_gap == pytest.approx(gap, rel=1e-3, abs=1e-14 * y_scale)

    def test_sweep_cap_reports_nonconvergence(self, rng, monkeypatch):
        # With no steps allowed only the check at the (zero) start runs.
        design = build_design(simulate(random_stable_model(rng, 4), 300, 9), 4)
        monkeypatch.setattr(estimators, "MAX_STEPS", 0)
        fit = fit_regularized(design, "lasso", 0.01)
        assert not fit.converged
        assert not fit.coef_matrix.any()
        gap = residual_gap(design, fit.coef_matrix, 0.01, 1.0)
        assert fit.duality_gap == pytest.approx(gap, rel=1e-6)
        assert fit.duality_gap > 1e-8

    def test_ridge_matches_normal_equations(self):
        for name, path, p in oracle_paths():
            design = build_design(path, p)
            x, y = design.x, design.y
            for lam in (1e-4, 0.01, 1.0):
                got = fit_regularized(design, "ridge", lam).coef_matrix
                lhs = x.T @ x + design.t_rows * lam * np.eye(x.shape[1])
                want = np.linalg.solve(lhs, x.T @ y)
                err = np.abs(got - want).max() / np.abs(want).max()
                assert err <= 1e-10, (name, lam, err)

    def test_lasso_l1_norm_monotone_in_strength(self, rng):
        model = random_stable_model(rng, 3)
        path = simulate(model, 400, 10)
        design = build_design(path, 3)
        norms = [
            float(np.abs(fit_regularized(design, "lasso", lam).coef_matrix).sum())
            for lam in (1.0, 0.3, 0.1, 0.03, 0.01, 0.0)
        ]
        assert all(b >= a - 1e-9 for a, b in zip(norms, norms[1:]))

    def test_ridge_continuous_in_strength(self, rng):
        model = random_stable_model(rng, 2)
        path = simulate(model, 400, 12)
        design = build_design(path, 2)
        base = fit_regularized(design, "ridge", 0.1).model.scalar_coeffs
        near = fit_regularized(design, "ridge", 0.1 + 1e-7).model.scalar_coeffs
        np.testing.assert_allclose(near, base, atol=1e-6)

    def test_invalid_inputs(self, rng):
        path = simulate(VarModel.from_coeffs([0.5]), 100, 1)
        design = build_design(path, 1)
        with pytest.raises(BadInputError):
            fit_regularized(design, "huber", 0.1)
        with pytest.raises(BadInputError):
            fit_regularized(design, "lasso", -1.0)
        with pytest.raises(BadInputError):
            fit_regularized(design, "elasticNet", 0.1, mix=1.5)


def solver_rows(k):
    """(x, y, lam, mix) problems with k columns: a zero column, T < k, both
    targets of a d = 2 design and an AR(3) path, as lasso and elastic net."""
    rng = np.random.default_rng(21)
    zero = rng.standard_normal((60, k))
    zero[:, 2] = 0.0
    coef = rng.uniform(-0.5, 0.5, k)
    # At k = 10 and lam = 0.01 this short design's support system is
    # singular up to rounding; its solution runs off to |beta|_1 ~ 1e13.
    short = np.random.default_rng(1)
    designs = [
        (zero, zero @ coef + 0.3 * rng.standard_normal(60)),
        (short.standard_normal((3, k)), short.standard_normal(3)),
    ]
    d2 = build_design(oracle_paths()[2][1], k // 2)
    designs += [(d2.x, y) for y in d2.y.T]
    ar = build_design(simulate(random_stable_model(rng, 3), 200, 22), k)
    designs.append((ar.x, ar.y[:, 0]))
    penalties = ((0.05, 1.0), (0.01, 1.0), (0.002, 0.4))
    return [(x, y, lam, mix) for x, y in designs for lam, mix in penalties]


def stack_rows(rows):
    """Solver inputs (gram, xty, yy, l1, l2) for ``solver_rows``."""
    t = [x.shape[0] for x, _, _, _ in rows]
    gram = np.stack([x.T @ x / n for (x, _, _, _), n in zip(rows, t)])
    xty = np.stack([y @ x / n for (x, y, _, _), n in zip(rows, t)])
    yy = np.array([y @ y / n for (_, y, _, _), n in zip(rows, t)])
    lam = np.array([lam for _, _, lam, _ in rows])
    mix = np.array([mix for _, _, _, mix in rows])
    return gram, xty, yy, lam * mix, lam * (1.0 - mix)


@st.composite
def enet_problems(draw):
    """One to four elastic-net problems sharing a column count: designs of 2
    to 29 rows for 1 to 12 columns (so often T < k), some with a zero or a
    duplicated column, one or two targets, lasso or elastic net, strengths
    from 1e-4 to 10.  Returns ``(x, y, lam, mix)`` per target and a
    shuffled order of those rows."""
    k = draw(st.integers(1, 12))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        t_rows = draw(st.integers(2, 29))
        x = rng.standard_normal((t_rows, k)) * rng.uniform(0.1, 3.0, k)
        zero, dup = draw(st.integers(0, k - 1)), draw(st.lists(st.integers(0, k - 1), max_size=2))
        if draw(st.booleans()):
            x[:, zero] = 0.0
        if len(dup) == 2:
            x[:, dup[1]] = x[:, dup[0]]
        coef = rng.standard_normal(k) * (rng.random(k) < 0.5)
        y = x @ coef + rng.uniform(0.05, 1.0) * rng.standard_normal(t_rows)
        lam = 10.0 ** draw(st.floats(-4.0, 1.0))
        mix = draw(st.sampled_from([1.0, 0.1, 0.5, 0.9]))
        for target in (y, 2.0 * y[::-1] - x[:, 0])[: draw(st.integers(1, 2))]:
            rows.append((x, target, lam, mix))
    return rows, draw(st.permutations(range(len(rows))))


class TestEnetSolve:
    @given(problems=enet_problems())
    def test_random_problems(self, problems):
        rows, perm = problems
        args = stack_rows(rows)
        start = np.zeros_like(args[1])
        beta, ok, gap = estimators._enet_solve(*args, start)
        tol = estimators.DUALITY_GAP_TOL * np.maximum(1.0, args[2])
        # Every row converged, and converged means certified.
        assert ok.all() and (gap <= tol).all()
        for (x, y, lam, mix), b, yy, row_tol in zip(rows, beta, args[2], tol):
            assert column_gap(x, y, b, lam, mix) <= row_tol
            # No worse than the zero start, up to rounding in the objective.
            resid = y - x @ b
            penalty = lam * (mix * np.abs(b).sum() + 0.5 * (1.0 - mix) * (b @ b))
            assert 0.5 * (resid @ resid) / len(y) + penalty <= 0.5 * yy * (1.0 + 1e-12)
            assert not b[~x.any(axis=0)].any()
        shuffled = estimators._enet_solve(*(a[perm] for a in args), start[perm])
        for got, want in zip(shuffled, (beta, ok, gap)):
            np.testing.assert_array_equal(got, want[perm])
        for i in range(len(rows)):
            alone = estimators._enet_solve(*(a[i : i + 1] for a in args), start[i : i + 1])
            for got, want in zip(alone, (beta, ok, gap)):
                np.testing.assert_array_equal(got, want[i : i + 1])

    # k = 10 also covers sums over 8 or more coordinates, where numpy's own
    # reductions change order with the batch size.
    @pytest.mark.parametrize("k", [4, 10])
    def test_row_result_does_not_depend_on_batch(self, k):
        rows = solver_rows(k)
        args = stack_rows(rows)
        start = np.random.default_rng(3).normal(scale=0.2, size=args[1].shape)
        start[::2] = 0.0
        full = estimators._enet_solve(*args, start)
        assert full[1].all()
        perm = np.random.default_rng(4).permutation(len(rows))
        shuffled = estimators._enet_solve(*(a[perm] for a in args), start[perm])
        for got, want in zip(shuffled, full):
            np.testing.assert_array_equal(got, want[perm])
        for i in range(len(rows)):
            alone = estimators._enet_solve(*(a[i : i + 1] for a in args), start[i : i + 1])
            for got, want in zip(alone, full):
                np.testing.assert_array_equal(got, want[i : i + 1])

    @pytest.mark.parametrize("k", [4, 10])
    def test_gap_recomputed_from_residual(self, k):
        rows = solver_rows(k)
        args = stack_rows(rows)
        beta, ok, gap = estimators._enet_solve(*args, np.zeros_like(args[1]))
        assert ok.all()
        for (x, y, lam, mix), b, yy, reported in zip(rows, beta, args[2], gap):
            tol = estimators.DUALITY_GAP_TOL * max(1.0, yy)
            assert reported <= tol
            assert column_gap(x, y, b, lam, mix) <= tol
        # The zero column's coefficient stays at zero.
        assert not beta[:3, 2].any()

    def test_singular_support_leaves_other_rows_certified(self):
        rows = solver_rows(4)
        gram, xty, yy, l1, l2 = stack_rows(rows)
        exact = estimators._enet_solve(gram, xty, yy, l1, l2, np.zeros_like(xty))[0]
        # Same supports and signs as the solutions, but not the solutions.
        start = 1.1 * exact
        # A lasso row with two equal columns, both on its support: its
        # support system is exactly singular.
        dup = np.array([[1.0, 1.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0], [0, 0, 1.0, 0], [0, 0, 0, 1.0]])
        gram = np.concatenate([gram, dup[None]])
        xty = np.concatenate([xty, [[1.0, 1.0, 0.5, 0.0]]])
        yy, l1, l2 = np.append(yy, 2.0), np.append(l1, 0.1), np.append(l2, 0.0)
        start = np.concatenate([start, [[0.5, 0.5, 0.0, 0.0]]])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(dup[:2, :2], np.ones(2))
        beta, ok, gap = estimators._enet_solve(gram, xty, yy, l1, l2, start)
        assert ok.all()
        np.testing.assert_allclose(beta[:-1], exact, rtol=1e-9, atol=1e-12)


class TestFitCV:
    def test_single_point_grid_equals_fixed_fit(self):
        path = simulate(VarModel.from_coeffs([0.7]), 300, 13)
        cv = fit_cv(path, 1, "ridge", lam_grid=[0.05])
        fixed = fit_regularized(build_design(path, 1), "ridge", 0.05)
        np.testing.assert_allclose(
            cv.model.scalar_coeffs, fixed.model.scalar_coeffs, atol=1e-12
        )
        assert cv.lam == 0.05 and cv.cv_score is not None

    def test_pure_noise_selects_heavy_shrinkage(self):
        # On white noise the ridge CV curve favors the top of the grid.
        top_quarter = np.quantile(DEFAULT_LAMBDA_GRID, 0.75)
        hits = 0
        for rep in range(100):
            path = simulate(VarModel.from_coeffs([0.0]), 120, 1000 + rep)
            cv = fit_cv(path, 3, "ridge")
            hits += cv.lam >= top_quarter
        assert hits >= 80

    def test_strong_signal_matches_ols_validation_error(self):
        for rep in range(5):
            path = simulate(VarModel.from_coeffs([0.95]), 1000, 40 + rep)
            ridge = fit_cv(path, 1, "ridge")
            ols_cv = fit_cv(path, 1, "ridge", lam_grid=[0.0])
            assert ridge.cv_score <= ols_cv.cv_score * 1.05

    def test_elastic_net_searches_mixing_grid(self):
        path = simulate(VarModel.from_coeffs([0.6, -0.3]), 200, 14)
        fit = fit_cv(path, 2, "elasticNet", lam_grid=[0.01, 0.1], mix_grid=[0.2, 0.8])
        assert fit.mix in (0.2, 0.8)

    def test_consistency_with_sample_size(self):
        model = VarModel.from_coeffs([0.4, 0.2, -0.3])
        truth = model.scalar_coeffs
        wins = 0
        for rep in range(200):
            small = simulate(model, 100, 5000 + rep)
            large = simulate(model, 10_000, 9000 + rep)
            err_small = np.linalg.norm(
                fit_ols(build_design(small, 3)).model.scalar_coeffs - truth
            )
            err_large = np.linalg.norm(
                fit_ols(build_design(large, 3)).model.scalar_coeffs - truth
            )
            wins += err_large < err_small
        assert wins >= 190

    def test_empty_grid_rejected(self):
        path = simulate(VarModel.from_coeffs([0.5]), 100, 2)
        with pytest.raises(BadInputError):
            fit_cv(path, 1, "ridge", lam_grid=[])

    @pytest.mark.parametrize("estimator", ["ridge", "lasso", "elasticNet"])
    def test_path_matches_per_cell_fits(self, estimator, monkeypatch):
        # At the default tolerances the path picks what one fit per cell
        # picks; scores agree up to what the duality-gap tolerance allows.
        for name, path, p in oracle_paths():
            cv = fit_cv(path, p, estimator, lam_grid=ORACLE_LAMS, mix_grid=ORACLE_MIXES)
            score, lam, mix = per_cell_cv(path, p, estimator, ORACLE_LAMS, ORACLE_MIXES)
            assert (cv.lam, cv.mix) == (lam, mix), name
            assert cv.cv_score == pytest.approx(score, rel=1e-5), name
        # Solved to the last bits, warm starts and per-cell fits agree
        # closely, so only the path's bookkeeping is compared.
        monkeypatch.setattr(estimators, "DUALITY_GAP_TOL", 0.0)
        for name, path, p in oracle_paths():
            cv = fit_cv(path, p, estimator, lam_grid=ORACLE_LAMS, mix_grid=ORACLE_MIXES)
            score, lam, mix = per_cell_cv(path, p, estimator, ORACLE_LAMS, ORACLE_MIXES)
            assert (cv.lam, cv.mix) == (lam, mix), name
            assert cv.cv_score == pytest.approx(score, rel=1e-10), name

    def test_ties_break_toward_larger_strength(self):
        # Duplicate grid points force exact ties; the larger strength wins.
        path = simulate(VarModel.from_coeffs([0.5]), 200, 3)
        cv = fit_cv(path, 1, "ridge", lam_grid=[0.05, 0.05])
        assert cv.lam == 0.05
        # On white noise, strengths that zero every lasso coefficient tie
        # exactly; the largest wins.
        noise = simulate(VarModel.from_coeffs([0.0]), 200, 4)
        cv = fit_cv(noise, 2, "lasso", lam_grid=[5.0, 20.0, 10.0])
        assert cv.lam == 20.0 and not cv.coef_matrix.any()


def bits(value) -> bytes:
    """The bytes of a float or array: tells 0.0 from -0.0, unlike ==."""
    return np.asarray(value, dtype=float).tobytes()


def fold_reach(design, folds):
    """The largest |X'y/T| over the training folds of ``design``."""
    out = 0.0
    for val_idx in estimators._fold_slices(design.t_rows, folds):
        mask = np.ones(design.t_rows, dtype=bool)
        mask[val_idx] = False
        out = max(out, float(np.abs(estimators._moments(design.x[mask], design.y[mask])[1]).max()))
    return out


def assert_same_fit(got, want):
    """``got`` is ``want`` bit for bit: choice, flags, score, gap, coefficients."""
    assert got.estimator == want.estimator
    assert (got.lam, got.mix, got.converged) == (want.lam, want.mix, want.converged)
    assert got.rank_deficient == want.rank_deficient
    for a, b in [
        (got.cv_score, want.cv_score), (got.duality_gap, want.duality_gap),
        (got.coef_matrix, want.coef_matrix),
        (got.model.noise_variance, want.model.noise_variance),
    ]:
        assert bits(a) == bits(b)


class TestFitCVBatch:
    @staticmethod
    def _jobs():
        """(path, order, estimator, folds): every estimator on order 3;
        d = 2 beside a scalar order-4 path (both 4 columns); a 6-step path at
        order 3, whose 3 folds each train on 2 rows for 3 lags (singular
        Gram matrices); and a nearly silent path, whose every |X'y/T| is
        below the strengths where the louder paths' walks start."""
        loud = simulate(random_stable_model(np.random.default_rng(1), 3), 150, 1)
        d2 = oracle_paths()[2][1]
        order4 = simulate(VarModel.from_coeffs([0.4, 0.0, 0.0, 0.2]), 90, 8)
        short = simulate(VarModel.from_coeffs([0.5, -0.2, 0.1]), 6, 9)
        noise = simulate(VarModel.from_coeffs([0.0]), 120, 4)
        quiet = SamplePath(values=1e-3 * noise.values, seed=4, burn_in=0)
        return [
            (loud, 3, "lasso", 5), (loud, 3, "elasticNet", 5), (loud, 3, "ridge", 5),
            (loud, 3, "ols", 5),
            (d2, 2, "lasso", 5), (d2, 2, "elasticNet", 5), (d2, 2, "ridge", 5), (d2, 2, "ols", 5),
            (order4, 4, "lasso", 4), (order4, 4, "ridge", 4), (order4, 4, "ols", 4),
            (short, 3, "lasso", 3), (short, 3, "elasticNet", 3), (short, 3, "ridge", 3),
            (short, 3, "ols", 3),
            (quiet, 3, "lasso", 5),
        ]

    @staticmethod
    def _sized_jobs():
        """(path, order, estimator, folds) over several training sizes: order
        7 at 9 steps (2 folds of 1 row for 7 lags), 12 steps (5 rows in 3 and
        5 folds), 40 and 150 steps; two seeds per size, so same-shape designs
        stack; and a d = 2 order-2 process at 30 and 120 steps."""
        order7 = VarModel.from_coeffs([0.3, -0.2, 0.1, 0.05, 0.0, -0.1, 0.1])
        vec = oracle_paths()[2][1]
        jobs = []
        for n, folds in [(9, 2), (12, 3), (12, 5), (40, 4), (150, 5)]:
            for seed in (n, n + 1):
                path = simulate(order7, n, seed)
                jobs += [(path, 7, est, folds) for est in ("ridge", "lasso", "elasticNet")]
        for n, folds in [(30, 2), (120, 5)]:
            path = SamplePath(values=vec.values[:n], seed=vec.seed, burn_in=0)
            jobs += [(path, 2, est, folds) for est in ("ridge", "lasso", "elasticNet")]
        return jobs

    def test_batch_equals_one_fit_cv_per_path(self, monkeypatch):
        jobs = self._jobs()
        designs = [(build_design(path, p), est, folds) for path, p, est, folds in jobs]
        solve = estimators._enet_solve
        # ORACLE_LAMS holds least squares (0.0) beside positive strengths.
        grids = [(DEFAULT_LAMBDA_GRID, estimators.DEFAULT_MIX_GRID), (ORACLE_LAMS, ORACLE_MIXES)]
        for lams, mixes in grids:
            alone = [
                fit_cv(path, p, est, lam_grid=lams, mix_grid=mixes, folds=folds)
                for path, p, est, folds in jobs
            ]
            calls = []
            monkeypatch.setattr(estimators, "_enet_solve", lambda *a: calls.append(0) or solve(*a))
            batch = fit_cv_batch(designs, lams, mixes)
            monkeypatch.undo()
            # Two column counts: one walk of the grid and one cold refit each.
            assert len(calls) <= 2 * (len(set(lams)) + 1)
            for (_, _, est, _), got, want in zip(jobs, batch, alone):
                assert got.estimator == est
                assert_same_fit(got, want)

    @pytest.mark.parametrize(
        "lams, mixes",
        [(DEFAULT_LAMBDA_GRID, (0.3, 0.7)), (ORACLE_LAMS, ORACLE_MIXES), ((0.5, 0.0, 0.5, 0.02), (0.0, 0.5))],
    )
    def test_mixed_sizes_and_grids_match_fit_cv(self, lams, mixes, monkeypatch):
        # The grids hold least squares (0.0), repeated strengths and an
        # elastic-net weight 0 (ridge cells of an elastic-net job).
        jobs = self._sized_jobs()
        alone = [
            fit_cv(path, p, est, lam_grid=lams, mix_grid=mixes, folds=folds)
            for path, p, est, folds in jobs
        ]
        designs = [(build_design(path, p), est, folds) for path, p, est, folds in jobs]
        for got, want in zip(fit_cv_batch(designs, lams, mixes), alone):
            assert_same_fit(got, want)
        # A 10-row cap splits the stacks into runs of one to five designs;
        # no bit moves.
        monkeypatch.setattr(estimators, "_ROW_CAP", 10)
        for got, want in zip(fit_cv_batch(designs, lams, mixes), alone):
            assert_same_fit(got, want)

    def test_one_svd_per_fold_and_stack(self, monkeypatch):
        model = VarModel.from_coeffs([0.5, -0.2, 0.1])
        # 7 designs of 97 rows in 5 folds and 3 of 27 rows in 2 folds.
        groups = [(100, 5, 7), (30, 2, 3)]
        jobs = [
            (build_design(simulate(model, n, seed), 3), "ridge", folds)
            for n, folds, count in groups
            for seed in range(count)
        ]
        alone = [fit_cv_batch([job])[0] for job in jobs]
        shapes = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: shapes.append(a.shape) or svd(a, **kw))
        for got, want in zip(fit_cv_batch(jobs), alone):
            assert_same_fit(got, want)
        # One stacked SVD per fold and one for the final refits, per group.
        assert sorted(shapes) == sorted(
            [(7, 97 - len(f), 3) for f in np.array_split(np.arange(97), 5)] + [(7, 97, 3)]
            + [(3, 27 - len(f), 3) for f in np.array_split(np.arange(27), 2)] + [(3, 27, 3)]
        )
        # At two long designs' rows per stack the 7 designs take 4 stacks;
        # the 3 short ones (7 to a stack) still take one.
        monkeypatch.setattr(estimators, "_ROW_CAP", 2 * 97)
        shapes.clear()
        for got, want in zip(fit_cv_batch(jobs), alone):
            assert_same_fit(got, want)
        assert len(shapes) == 4 * (5 + 1) + (2 + 1)
        assert sorted(s[0] for s in shapes if s[1] > 27) == [1] * 6 + [2] * 18
        assert max(s[0] * s[1] for s in shapes) <= estimators._ROW_CAP

    def test_working_set_bounded_by_row_cap(self, monkeypatch):
        # 64 ridge designs of 1000 rows, 5 lags, 5 folds.  A stacked call holds
        # a few arrays of at most _ROW_CAP rows (the stacked designs, a fold's
        # training rows, the SVD's U, the validation predictions at every
        # strength, one row in `folds` validating); the batch also keeps
        # each job's (fold, strength) coefficients.
        p, folds, jobs_n = 5, 5, 64
        model = VarModel.from_coeffs([0.3, -0.1, 0.05, 0.0, 0.1])
        jobs = [
            (build_design(simulate(model, 1000 + p, seed), p), "ridge", folds)
            for seed in range(jobs_n)
        ]
        strengths = len(DEFAULT_LAMBDA_GRID)
        stack = 8 * estimators._ROW_CAP * (p + 1 + strengths // folds)
        kept = jobs_n * 8 * folds * strengths * p
        limit = 8 * stack + 2 * kept

        def peak() -> int:
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                fit_cv_batch(jobs)
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        assert peak() <= limit
        # One stack of all 64 designs breaks the bound.
        monkeypatch.setattr(estimators, "_ROW_CAP", 10**9)
        assert peak() > limit

    def test_row_skipped_alone_stays_exactly_zero_in_a_batch(self):
        jobs = self._jobs()
        loud, quiet = (build_design(path, p) for path, p, _, _ in (jobs[0], jobs[-1]))
        lams = sorted(DEFAULT_LAMBDA_GRID, reverse=True)
        walks = [(d, estimators._fold_slices(d.t_rows, 5), [1.0]) for d in (loud, quiet)]
        alone = estimators._path_coefs(walks[1:], lams)[0]
        together = estimators._path_coefs(walks, lams)[1]
        assert bits(together) == bits(alone)
        # At these strengths the quiet job's own walk skips the solver, and
        # the batch runs it from zero, where it stays.
        runs = [
            l for l, lam in enumerate(lams)
            if fold_reach(quiet, 5) <= lam < fold_reach(loud, 5)
        ]
        assert runs
        assert not together[:, :, runs].any() and not np.signbit(together[:, :, runs]).any()
