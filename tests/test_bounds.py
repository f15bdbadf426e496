"""Bound evaluators: condition-number, stability, Schur, and finite-sample."""

from __future__ import annotations

import math

import numpy as np
import pytest

from varcausal.bounds import (
    BlockScheme,
    admissible_block_scheme,
    autocorrelation,
    condition_number,
    cor2_bound,
    default_schur_prefactor,
    lag_window_blocks,
    prop1_bound,
    rademacher_estimate,
    schur_tight_bound,
    thm1_bound,
    tightness_pair,
)
from varcausal.errors import BadInputError, NumericalError
from varcausal.interventions import InterventionSpec
from varcausal.process import SamplePath, VarModel, exact_autocov, simulate
from varcausal.risk import ModelPair, causal_risk, empirical_stat_risk, risk_difference, stat_risk

from conftest import random_stable_model, random_stable_pair


class TestConditionNumber:
    def test_identity(self):
        assert condition_number(np.eye(4)) == 1.0

    def test_two_by_two_closed_form(self):
        gamma = 5 / 7
        cov = exact_autocov(VarModel.from_coeffs([0.5, 0.3]), 2)
        corr = autocorrelation(cov)
        assert condition_number(corr) == pytest.approx((1 + gamma) / (1 - gamma))
        assert condition_number(corr) == pytest.approx(6.0)
        # Scale invariance: covariance and autocorrelation agree for d = 1.
        assert condition_number(cov) == pytest.approx(condition_number(corr))

    def test_near_singular_is_infinite(self):
        m = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]])
        assert condition_number(m) == math.inf

    def test_degenerates_near_stability_boundary(self):
        # a_1 -> (1 - a_2) drives the two-lag window singular.
        a2 = 0.3
        kappas = [
            condition_number(exact_autocov(VarModel.from_coeffs([a1, a2]), 2))
            for a1 in (0.5, 0.68, 0.699)
        ]
        assert kappas[0] < kappas[1] < kappas[2]


class TestProp1:
    def test_perfect_fit_is_tight_at_zero(self, rng):
        model = random_stable_model(rng, 3)
        pair = ModelPair(truth=model, fitted=model)
        rep = prop1_bound(pair, 1)
        assert rep.lhs == pytest.approx(0.0, abs=1e-12)
        assert rep.value == pytest.approx(0.0, abs=1e-9)
        assert rep.holds

    def test_first_order_pair_holds_with_full_slack(self, rng):
        pair = random_stable_pair(rng, 1, 1)
        rep = prop1_bound(pair, 1)
        assert rep.lhs == pytest.approx(0.0, abs=1e-12)
        assert rep.holds and rep.slack == pytest.approx(rep.value, abs=1e-12)

    @pytest.mark.parametrize("kappa", [2.0, 10.0, 100.0])
    def test_tightness_construction(self, kappa):
        pair = tightness_pair((kappa - 1) / (kappa + 1))
        s = float(stat_risk(pair, 1).sum())
        g = float(causal_risk(pair, InterventionSpec.averaged(1)).sum())
        kap = condition_number(pair.autocov())
        ratio = (g - s) / (s - pair.truth.noise_variance)
        assert kap == pytest.approx(kappa, rel=1e-9)
        assert ratio == pytest.approx((kap - 1) / 2, rel=1e-9)

    def test_holds_on_random_pairs_and_horizons(self, rng):
        for _ in range(300):
            p, q = int(rng.integers(1, 8)), int(rng.integers(1, 8))
            pair = random_stable_pair(rng, p, q)
            rep = prop1_bound(pair, int(rng.integers(1, 11)))
            assert rep.holds

    def test_holds_for_vector_processes_all_components(self):
        rng = np.random.default_rng(77)
        for _ in range(30):
            truth = random_stable_model(rng, 2, d=2)
            fitted = random_stable_model(rng, 2, d=2)
            pair = ModelPair(truth=truth, fitted=fitted)
            for component in (1, 2):
                assert prop1_bound(pair, 1, component).holds


class TestCor2:
    def test_perfect_fit_trivial(self, rng):
        model = random_stable_model(rng, 2)
        pair = ModelPair(truth=model, fitted=model)
        rep = cor2_bound(pair, 1)
        assert rep.lhs == 0.0 and rep.holds

    def test_blows_up_at_stability_boundary(self):
        fitted = VarModel.from_coeffs([0.1])
        values = []
        for a in (0.9, 0.99, 0.999):
            pair = ModelPair(truth=VarModel.from_coeffs([a]), fitted=fitted)
            values.append(cor2_bound(pair, 1).value)
        assert values[0] < values[1] < values[2]

    def test_holds_on_random_pairs(self, rng):
        for _ in range(1000):
            p, q = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            pair = random_stable_pair(rng, p, q)
            rep = cor2_bound(pair, int(rng.integers(1, 6)))
            assert rep.holds

    def test_constant_recorded(self, rng):
        pair = random_stable_pair(rng, 2, 3)
        rep = cor2_bound(pair, 1)
        assert rep.inputs["K_p"] == pytest.approx(4.0 * 3**3)


class TestSchurTight:
    def test_perfect_fit_is_zero(self, rng):
        model = random_stable_model(rng, 3)
        pair = ModelPair(truth=model, fitted=model)
        rep = schur_tight_bound(pair, 2)
        assert rep.value == pytest.approx(0.0, abs=1e-12)
        assert rep.lhs == pytest.approx(0.0, abs=1e-12)

    def test_near_first_order_family_collapses(self):
        # Both models essentially first-order: the Schur bound vanishes with
        # the second lag while the stability bound stays bounded away from 0.
        pair = ModelPair(
            truth=VarModel.from_coeffs([0.8, 1e-6]),
            fitted=VarModel.from_coeffs([0.5, -1e-6]),
        )
        tight = schur_tight_bound(pair, 1)
        loose = cor2_bound(pair, 1)
        assert tight.value < 1e-4
        assert loose.value > 0.1
        assert tight.holds

    def test_dominates_on_random_stable_pairs(self, rng):
        for _ in range(1000):
            p, q = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            pair = random_stable_pair(rng, p, q)
            rep = schur_tight_bound(pair, int(rng.integers(1, 6)))
            assert rep.holds

    def test_decays_geometrically_in_horizon(self):
        # Decay of the display expression itself: hold the prefactor fixed
        # (the derived prefactor grows polynomially in the horizon, which can
        # mask the geometric factor at small horizons).
        pair = ModelPair(
            truth=VarModel.from_coeffs([0.5, 0.2]),
            fitted=VarModel.from_coeffs([0.3, 0.1]),
        )
        values = [schur_tight_bound(pair, w, k_const=2.0).value for w in range(1, 16)]
        assert all(b < a for a, b in zip(values, values[1:]))
        d_max = max(
            schur_tight_bound(pair, 1).inputs["delta"],
            schur_tight_bound(pair, 1).inputs["delta_hat"],
        )
        ratios = [b / a for a, b in zip(values, values[1:])]
        assert ratios[-1] <= d_max

    def test_literal_prefactor_two_is_not_a_guarantee(self):
        # Forcing the bare constant demonstrates why the derived prefactor is
        # the default: opposite-signed first lags break domination.
        pair = ModelPair(
            truth=VarModel.from_coeffs([1.5, -0.6]),
            fitted=VarModel.from_coeffs([-1.4, -0.5]),
        )
        derived = schur_tight_bound(pair, 1)
        assert derived.holds
        literal = schur_tight_bound(pair, 1, k_const=2.0)
        assert literal.inputs["K_pq"] == 2.0
        assert not literal.holds

    def test_fallback_on_repeated_spectrum_matches_direct_powers(self):
        # (lam - 0.6)^2 companion: the bialternant is refused, the direct
        # power route supplies the same summands.
        truth = VarModel.from_coeffs([1.2, -0.36])
        fitted = VarModel.from_coeffs([0.5, 0.1])
        pair = ModelPair(truth=truth, fitted=fitted)
        rep = schur_tight_bound(pair, 2)
        delta = pair.delta_rows(2)[0]
        gam1 = exact_autocov(truth, 2).dense[0, 1]
        expect = rep.inputs["K_pq"] * max(rep.inputs["delta"], rep.inputs["delta_hat"]) ** 2
        expect *= abs(delta[1]) * abs(gam1)
        assert rep.value == pytest.approx(expect, rel=1e-9)

    def test_hook_identity_matches_direct_powers(self, rng):
        from varcausal.bounds import _hook_entry_diffs

        pairs = [random_stable_pair(rng, p, q) for p in (1, 3, 7) for q in (2, 5, 7)]
        pairs.append(
            ModelPair(truth=VarModel.from_coeffs([1.2, -0.36]), fitted=VarModel.from_coeffs([0.9]))
        )
        for pair in pairs:
            for omega in range(1, 8):
                diffs = _hook_entry_diffs(pair, omega, pair.nu)
                direct = pair.delta_rows(omega)[0, 1:]
                np.testing.assert_allclose(np.abs(diffs), np.abs(direct), rtol=0, atol=1e-12)

    def test_requires_stable_candidate(self, rng):
        pair = ModelPair(
            truth=VarModel.from_coeffs([0.5]), fitted=VarModel.from_coeffs([1.2])
        )
        with pytest.raises(NumericalError):
            schur_tight_bound(pair, 1)

    def test_prefactor_formula(self):
        assert default_schur_prefactor(1, 1, 5) == 2.0 * (1 + 1)
        assert default_schur_prefactor(2, 3, 2) == 2.0 * (math.comb(3, 2) + math.comb(4, 2))


class TestBlockScheme:
    def test_exact_product_enforced(self):
        with pytest.raises(BadInputError):
            BlockScheme(n=10, mu=2, m=3)
        BlockScheme(n=12, mu=2, m=3)

    def test_admissible_scheme_respects_budget(self):
        for rho in (0.3, 0.9, 0.999):
            scheme = admissible_block_scheme(100, rho, 0.1)
            assert 2.0 * (scheme.mu - 1) * rho**scheme.m <= 0.05 + 1e-12

    def test_admissible_falls_back_to_one_block(self):
        scheme = admissible_block_scheme(100, 0.999, 0.1)
        assert scheme.mu == 1

    def test_bisection_matches_the_downward_scan(self):
        # The largest admissible block count, as a scan from n // 2 down finds it.
        def scan(n, rho, confidence, margin):
            budget = (1.0 - margin) * confidence
            for mu in range(n // 2, 0, -1):
                m = n // (2 * mu)
                if 2.0 * (mu - 1) * rho**m <= budget:
                    return BlockScheme(n=2 * mu * m, mu=mu, m=m)
            return BlockScheme(n=2 * (n // 2), mu=1, m=n // 2)

        for n in (*range(2, 130), 999, 1000, 1001, 4096):
            for rho in (0.01, 0.3, 0.7, 0.9, 0.99, 0.999):
                for confidence in (0.001, 0.1, 0.9):
                    for margin in (0.0, 0.5, 1.5):
                        args = (n, rho, confidence, margin)
                        assert admissible_block_scheme(*args) == scan(*args), args


class TestRademacher:
    def test_zero_windows_zero_complexity(self):
        assert rademacher_estimate(np.zeros((5, 3)), 1.0, 4.0, 0) == 0.0

    def test_single_block_is_exact(self):
        z = np.array([[3.0, 4.0]])
        got = rademacher_estimate(z, 2.0, 9.0, 0, draws=7)
        assert got == pytest.approx(4.0 * 3.0 * 2.0 * 5.0 / 1.0)

    def test_monotone_in_radius_and_nonnegative(self, rng):
        z = rng.standard_normal((8, 4))
        small = rademacher_estimate(z, 0.5, 4.0, 1)
        large = rademacher_estimate(z, 2.0, 4.0, 1)
        assert 0.0 <= small <= large

    def test_inverse_sqrt_scaling_in_block_count(self):
        # One long path, nested prefixes: slope of log estimate vs log mu.
        model = VarModel.from_coeffs([0.6, 0.2])
        path = simulate(model, 1600, 42)
        values = []
        mus = (10, 40, 160)
        for mu in mus:
            scheme = BlockScheme(n=2 * mu * 5, mu=mu, m=5)
            blocks = lag_window_blocks(path, 2, scheme)
            values.append(rademacher_estimate(blocks, 1.0, 4.0, 3, draws=2000))
        slope = np.polyfit(np.log(mus), np.log(values), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.15)


class TestQuantile:
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # numpy's, on inf
    def test_same_bits_as_numpy(self):
        # thm1's truncation level is numpy's linear quantile, step for step:
        # ties, infinities, NaNs, and quantiles at and next to the maximum.
        from varcausal.bounds import _quantile

        rng = np.random.default_rng(999)
        cases = [np.array([2.5]), np.array([1.0, 1.0]), np.array([0.0, np.inf, 1.0])]
        for n in (*range(2, 40), 95, 96, 100, 999, 1000, 1001, 5000):
            values = rng.standard_normal(n) ** 2 * 10.0 ** rng.uniform(-3, 3)
            cases += [values, np.round(values, 1), np.where(values > 1, np.inf, values)]
        cases += [np.array([1.0, np.nan, 2.0]), np.array([np.nan] * 3)]
        for values in cases:
            for q in (0.0, 0.25, 0.5, 0.999, 1.0 - 1e-12, 1.0):
                want = np.quantile(values, q)
                got = _quantile(values.copy(), q)
                assert got == want or (math.isnan(got) and math.isnan(want)), (values, q)

    def test_lag_window_blocks_are_rows_of_the_lag_matrix(self):
        from varcausal.risk import _lag_matrix

        x = np.arange(60.0).reshape(30, 2)
        path = SamplePath(values=x, seed=0, burn_in=0)
        for p in (1, 3, 7):
            for scheme in (BlockScheme(n=30, mu=3, m=5), BlockScheme(n=28, mu=1, m=14)):
                lagged = _lag_matrix(x, p)
                want = [lagged[max(2 * j * scheme.m + scheme.m - p, 0)] for j in range(scheme.mu)]
                np.testing.assert_array_equal(lag_window_blocks(path, p, scheme), np.stack(want))


class TestThm1:
    def _setup(self, n=200, seed=5):
        truth = VarModel.from_coeffs([0.5, 0.3])
        fitted = VarModel.from_coeffs([0.55, 0.25])
        pair = ModelPair(truth=truth, fitted=fitted)
        path = simulate(truth, n, seed)
        return pair, path

    def test_negligible_mixing_reduces_to_iid_form(self):
        pair, path = self._setup()
        scheme = BlockScheme(n=200, mu=100, m=1)
        rep = thm1_bound(
            pair.fitted, path, scheme, 1, 1, kappa=5.0, m_trunc=10.0,
            rho=1e-9, confidence=0.1,
        )
        assert rep.inputs["confidence_effective"] == pytest.approx(0.1, abs=1e-6)

    def test_effective_confidence_grows_with_block_length(self):
        pair, path = self._setup()
        rho = 0.3
        effs = []
        for mu, m in ((25, 4), (10, 10), (4, 25)):
            scheme = BlockScheme(n=200, mu=mu, m=m)
            rep = thm1_bound(
                pair.fitted, path, scheme, 1, 1, kappa=5.0, m_trunc=10.0,
                rho=rho, confidence=0.5,
            )
            effs.append(rep.inputs["confidence_effective"])
        assert effs[0] < effs[1] < effs[2] <= 0.5

    def test_invalid_scheme_raises(self):
        pair, path = self._setup()
        scheme = BlockScheme(n=200, mu=50, m=2)
        with pytest.raises(NumericalError):
            thm1_bound(
                pair.fitted, path, scheme, 1, 1, kappa=5.0, m_trunc=10.0,
                rho=0.9, confidence=0.05,
            )

    def test_dominates_analytic_causal_risk(self):
        pair, path = self._setup(n=400, seed=8)
        g = float(causal_risk(pair, InterventionSpec.averaged(1)).sum())
        kappa = condition_number(pair.autocov())
        scheme = admissible_block_scheme(400, 0.86, 0.1)
        rep = thm1_bound(
            pair.fitted, path, scheme, 1, 1, kappa=kappa, m_trunc=None,
            rho=0.86, confidence=0.1, lhs=g,
        )
        assert rep.holds

    def test_vacuous_without_lhs(self):
        pair, path = self._setup()
        scheme = admissible_block_scheme(200, 0.5, 0.1)
        rep = thm1_bound(
            pair.fitted, path, scheme, 1, 1, kappa=3.0, m_trunc=None,
            rho=0.5, confidence=0.1,
        )
        assert math.isnan(rep.lhs) and rep.holds


    @pytest.mark.parametrize("m_trunc", [None, 0.5])
    def test_one_pass_over_the_squared_errors(self, monkeypatch, m_trunc):
        # The truncation level and the truncated risk come from one array:
        # the 0.999 quantile of the squared errors, and empirical_stat_risk.
        from varcausal import bounds, risk

        pair, path = self._setup(n=400, seed=8)
        scheme = admissible_block_scheme(400, 0.86, 0.1)
        calls = []

        def counted(*args):
            calls.append(args)
            return risk._squared_errors(*args)

        monkeypatch.setattr(bounds, "_squared_errors", counted)
        rep = thm1_bound(
            pair.fitted, path, scheme, 2, 1, kappa=3.0, m_trunc=m_trunc,
            rho=0.86, confidence=0.1,
        )
        assert len(calls) == 1
        monkeypatch.undo()
        quantile = np.quantile(risk._squared_errors(pair.fitted, path, 2), 0.999)
        level = float(quantile) if m_trunc is None else m_trunc
        assert rep.inputs["M"] == level
        assert rep.inputs["s_hat"] == empirical_stat_risk(pair.fitted, path, 2, truncate=level)


class TestRiskDifferenceDominance:
    def test_both_closed_form_bounds_dominate_exact_gap(self, rng):
        # Spot check that the reported lhs in the bound objects is the exact
        # quadratic-form gap.
        pair = random_stable_pair(rng, 3, 2)
        gap = risk_difference(pair, InterventionSpec.averaged(2)).quad_form
        assert cor2_bound(pair, 2).lhs == pytest.approx(gap, rel=1e-12)
        assert schur_tight_bound(pair, 2).lhs == pytest.approx(gap, rel=1e-12)
