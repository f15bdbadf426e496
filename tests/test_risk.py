"""Analytic risks, their Monte-Carlo oracles, and the exact gap formulas."""

from __future__ import annotations

import numpy as np
import pytest

from varcausal.errors import BadInputError, NumericalError
from varcausal.interventions import InterventionSpec, interventional_cov
from varcausal.process import VarModel, exact_autocov, prepare_models, simulate
from varcausal.risk import (
    ModelPair,
    causal_risk,
    empirical_causal_risk,
    empirical_stat_risk,
    mc_causal_risk,
    mc_risk_gap,
    mc_stat_risk,
    noise_floor,
    prepare_pairs,
    relative_shift_gap,
    risk_difference,
    risk_quotient,
    risk_report,
    stat_risk,
)

from conftest import random_stable_model, random_stable_pair


class TestPairCache:
    def test_delta_rows_and_intervened_windows_are_built_once(self, rng):
        pair = random_stable_pair(rng, 2, 3)
        single = InterventionSpec.averaged(2)
        every = InterventionSpec.averaged(2, time_lags=(0, 1, 2))
        assert pair.delta_rows(2) is pair.delta_rows(2)
        assert pair.intervened_cov(single) is pair.intervened_cov(InterventionSpec.averaged(2))
        np.testing.assert_array_equal(
            pair.intervened_cov(every), interventional_cov(pair.autocov(), every).dense
        )
        assert not np.array_equal(pair.intervened_cov(single), pair.intervened_cov(every))
        assert stat_risk(pair, 2) is stat_risk(pair, 2)
        assert causal_risk(pair, single) is causal_risk(pair, InterventionSpec.averaged(2))
        assert not np.array_equal(causal_risk(pair, single), causal_risk(pair, every))
        for array in (
            pair.delta_rows(2), pair.intervened_cov(single), stat_risk(pair, 2),
            causal_risk(pair, single),
        ):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0, 0] = 0.0


def _plain_floor(truth: VarModel, omega: int) -> np.ndarray:
    """The noise floor as one model's loop of products computes it."""
    comp = truth.companion.dense
    acc = np.zeros(truth.d)
    power = np.eye(comp.shape[0])
    for _ in range(omega):
        acc += (power[: truth.d, : truth.d] ** 2).sum(axis=1)
        power = power @ comp
    return truth.noise_variance * acc


def _plain_residual(comp, eig) -> float:
    """The characteristic residual as one model's loop computes it."""
    d, p = comp.d, comp.p
    scale = 1.0 + max(float(np.abs(b).max()) for b in comp.blocks)
    denom = (1.0 + np.abs(eig)) ** (d * p) * scale**d
    if d == 1:
        poly = np.concatenate(([1.0], [-b[0, 0] for b in comp.blocks]))
        return float((np.abs(np.polyval(poly, eig)) / denom).max())
    worst = 0.0
    for lam, den in zip(eig, denom):
        m = np.eye(d, dtype=complex) * lam**p
        for l, b in enumerate(comp.blocks, start=1):
            m -= b * lam ** (p - l)
        worst = max(worst, abs(np.linalg.det(m)) / den)
    return worst


class TestPreparePairs:
    """The stacked scoring set-up gives each pair the bits of its own calls,
    and those are the bits of the plain numpy calls."""

    @staticmethod
    def _pairs():
        # 64 pairs: scalar truths of orders 1-7 with fits of the same, a lower
        # and a higher order (some fits unstable), and bivariate pairs.
        rng = np.random.default_rng(64)
        pairs = []
        for k in range(64):
            d = 2 if k >= 56 else 1
            q = 1 + k % (2 if d == 2 else 7)
            p = (q, max(1, q - 2), q + 1)[k % 3]
            truth = random_stable_model(rng, q, d)
            fitted = VarModel.from_coeffs(list(rng.uniform(-1.2, 1.2, (p, d, d))), 0.5 + k % 3)
            pairs.append((truth.coeffs, truth.noise_variance, fitted.coeffs, fitted.noise_variance))
        return [
            ModelPair(truth=VarModel.from_coeffs(tc, tn), fitted=VarModel.from_coeffs(fc, fn))
            for tc, tn, fc, fn in pairs
        ]

    @staticmethod
    def _specs(pair, omega):
        every = tuple(range(pair.nu))
        return [InterventionSpec.averaged(omega), InterventionSpec.averaged(omega, time_lags=every)]

    @pytest.mark.parametrize("omega", [1, 5, 7])
    def test_stacked_equals_one_at_a_time(self, omega):
        stacked, alone = self._pairs(), self._pairs()
        prepare_models([pair.truth for pair in stacked])
        prepare_pairs([(pair, spec) for pair in stacked for spec in self._specs(pair, omega)])
        assert len({pair.autocov().dense.shape for pair in stacked}) > 5
        for s, a in zip(stacked, alone):
            specs = self._specs(s, omega)
            # Filled by the stacked calls, before anything reads them.
            assert {("delta", omega), ("floor", omega), ("stat", omega)} <= set(s._cache)
            for spec in specs:
                assert {("intervened", spec), ("causal", spec)} <= set(s._cache)
            assert "spectrum" in vars(s.fitted)
            window = s.autocov()
            assert "eigenvalues" in vars(window) and "eigenvalues" in vars(window.correlation)

            d, nu = s.d, s.nu
            delta = s.delta_rows(omega)
            plain_delta = (
                np.linalg.matrix_power(a.truth.lifted(nu).dense, omega)[:d]
                - np.linalg.matrix_power(a.fitted.lifted(nu).dense, omega)[:d]
            )
            for want in (a.delta_rows(omega), plain_delta):
                np.testing.assert_array_equal(delta, want)
            np.testing.assert_array_equal(s.fitted.power(omega), a.fitted.power(omega))
            np.testing.assert_array_equal(
                s.fitted.power(omega), np.linalg.matrix_power(a.fitted.companion.dense, omega)
            )
            floor = s._cache[("floor", omega)]
            np.testing.assert_array_equal(floor, noise_floor(a.truth, omega))
            np.testing.assert_array_equal(floor, _plain_floor(a.truth, omega))
            for got, want, cov in [
                (stat_risk(s, omega), stat_risk(a, omega), a.autocov().dense),
                *[
                    (causal_risk(s, spec), causal_risk(a, spec), a.intervened_cov(spec))
                    for spec in specs
                ],
            ]:
                np.testing.assert_array_equal(got, want)
                plain = np.einsum("ij,jk,ik->i", plain_delta, cov, plain_delta) + floor
                np.testing.assert_array_equal(got, plain)
            for spec in specs:
                np.testing.assert_array_equal(
                    s.intervened_cov(spec), interventional_cov(a.autocov(), spec).dense
                )
            for got, want in [(window, a.autocov()), (window.correlation, a.autocov().correlation)]:
                np.testing.assert_array_equal(got.dense, want.dense)
                np.testing.assert_array_equal(got.eigenvalues, want.eigenvalues)
                np.testing.assert_array_equal(got.eigenvalues, np.linalg.eigvalsh(want.dense))
            for model, plain in [(s.fitted, a.fitted), (s.truth, a.truth)]:
                got, want = model.spectrum, plain.spectrum
                np.testing.assert_array_equal(got.eigenvalues, want.eigenvalues)
                assert got.eigenvalues.dtype == want.eigenvalues.dtype
                assert (got.max_modulus, got.min_gap, got.char_residual) == (
                    want.max_modulus, want.min_gap, want.char_residual
                )
                assert got.char_residual == _plain_residual(plain.companion, want.eigenvalues)
            for arr in (delta, floor, window.eigenvalues, s.fitted.power(omega)):
                assert not arr.flags.writeable

    def test_unstable_truth_is_left_unset(self):
        stable = ModelPair(VarModel.from_coeffs([0.5, 0.2]), VarModel.from_coeffs([0.4]))
        unstable = ModelPair(VarModel.from_coeffs([1.2, 0.1]), VarModel.from_coeffs([0.4]))
        spec = InterventionSpec.averaged(2)
        prepare_pairs([(stable, spec), (unstable, spec)])
        assert ("causal", spec) in stable._cache
        assert ("stat", 2) not in unstable._cache and ("causal", spec) not in unstable._cache
        for read in (lambda: stat_risk(unstable, 2), lambda: causal_risk(unstable, spec)):
            with pytest.raises(NumericalError):
                read()


class TestNoiseFloor:
    def test_one_step_is_noise_variance(self, rng):
        model = random_stable_model(rng, 3)
        assert noise_floor(model, 1)[0] == pytest.approx(model.noise_variance)

    def test_ar1_two_step(self):
        assert noise_floor(VarModel.from_coeffs([0.5]), 2)[0] == pytest.approx(1.25)

    def test_limit_is_marginal_variance(self):
        model = VarModel.from_coeffs([0.5])
        gamma0 = exact_autocov(model, 1).dense[0, 0]
        assert noise_floor(model, 200)[0] == pytest.approx(gamma0, rel=1e-10)

    def test_nondecreasing_in_horizon(self, rng):
        model = random_stable_model(rng, 4)
        floors = [noise_floor(model, w)[0] for w in range(1, 12)]
        assert all(b >= a - 1e-12 for a, b in zip(floors, floors[1:]))


class TestStatRisk:
    def test_perfect_model_has_only_noise(self, rng):
        model = random_stable_model(rng, 3)
        pair = ModelPair(truth=model, fitted=model)
        for w in (1, 2, 5):
            assert stat_risk(pair, w)[0] == pytest.approx(noise_floor(model, w)[0], abs=1e-12)

    def test_ar1_worked_example(self):
        pair = ModelPair(
            truth=VarModel.from_coeffs([0.5]), fitted=VarModel.from_coeffs([0.6])
        )
        gamma0 = 1.0 / (1 - 0.25)
        assert stat_risk(pair, 1)[0] == pytest.approx(0.01 * gamma0 + 1.0, rel=1e-12)

    def test_matches_monte_carlo(self, rng):
        for trial in range(3):
            pair = random_stable_pair(rng, 3, 3)
            s = float(stat_risk(pair, 2).sum())
            mc, se = mc_stat_risk(pair, 2, 400_000, 1000 + trial)
            assert abs(mc - s) < 4 * se


class TestCausalRisk:
    def test_perfect_model_has_only_noise(self, rng):
        model = random_stable_model(rng, 2)
        pair = ModelPair(truth=model, fitted=model)
        spec = InterventionSpec.averaged(1)
        assert causal_risk(pair, spec)[0] == pytest.approx(noise_floor(model, 1)[0], abs=1e-12)

    def test_first_order_models_have_no_gap(self, rng):
        for _ in range(20):
            pair = random_stable_pair(rng, 1, 1)
            spec = InterventionSpec.averaged(1)
            g = causal_risk(pair, spec)[0]
            s = stat_risk(pair, 1)[0]
            assert g == pytest.approx(s, abs=1e-12)

    def test_matches_monte_carlo(self, rng):
        for trial in range(3):
            pair = random_stable_pair(rng, 3, 3)
            spec = InterventionSpec.averaged(2)
            g = float(causal_risk(pair, spec).sum())
            mc, se = mc_causal_risk(pair, spec, 400_000, 2000 + trial)
            assert abs(mc - g) < 4 * se

    def test_vector_process_monte_carlo(self):
        rng = np.random.default_rng(8)
        truth = random_stable_model(rng, 2, d=2)
        fitted = random_stable_model(rng, 2, d=2)
        pair = ModelPair(truth=truth, fitted=fitted)
        spec = InterventionSpec.averaged(1, components=(2,))
        g = float(causal_risk(pair, spec).sum())
        mc, se = mc_causal_risk(pair, spec, 400_000, 4)
        assert abs(mc - g) < 4 * se


class TestRiskDifference:
    def test_first_order_gap_is_zero(self, rng):
        pair = random_stable_pair(rng, 1, 1)
        diff = risk_difference(pair, InterventionSpec.averaged(1))
        assert diff.quad_form == pytest.approx(0.0, abs=1e-14)

    def test_perfect_fit_gap_is_zero(self, rng):
        model = random_stable_model(rng, 4)
        pair = ModelPair(truth=model, fitted=model)
        diff = risk_difference(pair, InterventionSpec.averaged(3))
        assert diff.quad_form == 0.0 and diff.cross_term == 0.0

    def test_worked_two_lag_example(self):
        pair = ModelPair(
            truth=VarModel.from_coeffs([0.5, 0.3]),
            fitted=VarModel.from_coeffs([0.6, 0.2]),
        )
        gamma1 = exact_autocov(pair.truth, 2).dense[0, 1]
        diff = risk_difference(pair, InterventionSpec.averaged(1))
        assert diff.quad_form == pytest.approx(0.02 * gamma1, rel=1e-10)
        assert diff.cross_term == pytest.approx(0.02 * gamma1, rel=1e-10)

    def test_two_routes_agree_on_random_pairs(self, rng):
        for _ in range(200):
            p, q = int(rng.integers(1, 8)), int(rng.integers(1, 8))
            w = int(rng.integers(1, 6))
            pair = random_stable_pair(rng, p, q)
            diff = risk_difference(pair, InterventionSpec.averaged(w))
            assert diff.quad_form == pytest.approx(
                diff.cross_term, rel=1e-10, abs=1e-12
            )

    def test_gap_decays_geometrically_in_horizon(self, rng):
        # Stable pairs: the gap at horizon 20 is far below its one-step value.
        # The gap scales like max(delta, delta_hat)^(2 omega), so the 1e-3
        # factor is only guaranteed once the moduli stay below 0.8
        # (0.9^38 is already 2e-2).
        found = 0
        while found < 10:
            pair = random_stable_pair(rng, 3, 3)
            from varcausal.companion import build_companion, spectrum

            if spectrum(build_companion(pair.truth.coeffs)).max_modulus > 0.8:
                continue
            if spectrum(build_companion(pair.fitted.coeffs)).max_modulus > 0.8:
                continue
            gap1 = risk_difference(pair, InterventionSpec.averaged(1)).quad_form
            if gap1 < 1e-8:
                continue
            found += 1
            gap20 = risk_difference(pair, InterventionSpec.averaged(20)).quad_form
            assert gap20 < 1e-3 * gap1

    def test_matches_paired_monte_carlo(self, rng):
        pair = ModelPair(
            truth=VarModel.from_coeffs([0.5, 0.3]),
            fitted=VarModel.from_coeffs([0.6, 0.2]),
        )
        spec = InterventionSpec.averaged(1)
        gap, se = mc_risk_gap(pair, spec, 400_000, 31)
        analytic = float(
            causal_risk(pair, spec).sum() - stat_risk(pair, 1).sum()
        )
        assert abs(gap - analytic) < 3 * se


class TestRiskQuotient:
    def test_perfect_fit_quotient_is_one(self, rng):
        model = random_stable_model(rng, 3)
        pair = ModelPair(truth=model, fitted=model)
        assert risk_quotient(pair) == pytest.approx(1.0)

    def test_worked_example(self):
        truth = VarModel.from_coeffs([0.5, 0.3])
        u = np.array([1.0, -1.0]) / np.sqrt(2)
        fitted = VarModel.from_coeffs(truth.scalar_coeffs + u)
        gamma0 = exact_autocov(truth, 1).dense[0, 0]
        s2 = 1.0 / gamma0
        expect = (1 + s2) / (2 / 7 + s2)
        assert risk_quotient(ModelPair(truth=truth, fitted=fitted)) == pytest.approx(expect)

    def test_diverges_as_window_degenerates(self):
        # Stronger lag-1 correlation -> smaller lam_min -> larger quotient for
        # a perturbation along the small eigenvector.
        quotients = []
        for gamma in (0.5, 0.9, 0.99):
            truth = VarModel.from_coeffs([gamma, 0.0])
            u = np.array([1.0, -1.0]) / np.sqrt(2)
            fitted = VarModel.from_coeffs(truth.scalar_coeffs + u)
            quotients.append(risk_quotient(ModelPair(truth=truth, fitted=fitted)))
        assert quotients[0] < quotients[1] < quotients[2]


class TestRelativeShift:
    def test_zero_shift_zero_gap(self, rng):
        pair = random_stable_pair(rng, 2, 2)
        assert relative_shift_gap(pair, 1, 0.0) == 0.0

    def test_perfect_fit_zero_gap(self, rng):
        model = random_stable_model(rng, 2)
        pair = ModelPair(truth=model, fitted=model)
        assert relative_shift_gap(pair, 3, 2.0) == 0.0

    def test_worked_example(self):
        pair = ModelPair(
            truth=VarModel.from_coeffs([0.5]), fitted=VarModel.from_coeffs([0.6])
        )
        assert relative_shift_gap(pair, 2, 2.0) == pytest.approx(0.0484)

    def test_scales_quadratically_and_stays_nonnegative(self, rng):
        pair = random_stable_pair(rng, 3, 2)
        g1 = relative_shift_gap(pair, 2, 1.0)
        g2 = relative_shift_gap(pair, 2, 2.0)
        assert g1 >= 0.0 and g2 == pytest.approx(4 * g1, rel=1e-12)


class TestEmpiricalStatRisk:
    def test_true_model_one_step(self):
        model = VarModel.from_coeffs([0.7, -0.2])
        path = simulate(model, 300_000, 12)
        pair_risk = empirical_stat_risk(model, path, 1)
        assert pair_risk == pytest.approx(1.0, rel=0.02)

    def test_white_noise_zero_model_is_second_moment(self):
        truth = VarModel.from_coeffs([0.0])
        path = simulate(truth, 5000, 3)
        fitted = VarModel.from_coeffs([0.0])
        got = empirical_stat_risk(fitted, path, 1)
        assert got == pytest.approx(float((path.scalar[1:] ** 2).mean()), abs=1e-15)

    def test_matches_analytic_on_long_paths(self, rng):
        for trial in range(2):
            pair = random_stable_pair(np.random.default_rng(50 + trial), 3, 3)
            s = float(stat_risk(pair, 2).sum())
            path = simulate(pair.truth, 1_000_000, trial)
            emp = empirical_stat_risk(pair.fitted, path, 2)
            assert emp == pytest.approx(s, rel=0.01)

    def test_truncation_caps_errors(self):
        model = VarModel.from_coeffs([0.5])
        path = simulate(model, 5000, 4)
        full = empirical_stat_risk(model, path, 1)
        capped = empirical_stat_risk(model, path, 1, truncate=0.1)
        assert capped <= min(full, 0.1) + 1e-12

    def test_path_too_short(self):
        model = VarModel.from_coeffs([0.5, 0.1])
        path = simulate(model, 3, 0, burn_in=10)
        with pytest.raises(BadInputError):
            empirical_stat_risk(model, path, 1)


class TestEmpiricalCausalRisk:
    def test_true_model_one_step(self):
        model = VarModel.from_coeffs([0.5, 0.3])
        path = simulate(model, 100_000, 9)
        got = empirical_causal_risk(model, model, path, InterventionSpec.averaged(1), 100_000, 1)
        assert got == pytest.approx(1.0, rel=0.02)

    def test_converges_to_analytic(self, rng):
        pair = random_stable_pair(np.random.default_rng(60), 3, 3)
        spec = InterventionSpec.averaged(1)
        g = float(causal_risk(pair, spec).sum())
        path = simulate(pair.truth, 1_000_000, 2)
        emp = empirical_causal_risk(pair.truth, pair.fitted, path, spec, 1_000_000, 3)
        assert emp == pytest.approx(g, rel=0.01)

    def test_relative_shift_gap_recovered(self):
        pair = ModelPair(
            truth=VarModel.from_coeffs([0.5]), fitted=VarModel.from_coeffs([0.7])
        )
        spec = InterventionSpec.shift(2, 2.0)
        gap, se = mc_risk_gap(pair, spec, 300_000, 77)
        assert abs(gap - relative_shift_gap(pair, 2, 2.0)) < 3 * se


class TestRiskReport:
    def test_json_fields(self):
        pair = ModelPair(
            truth=VarModel.from_coeffs([0.5, 0.3]),
            fitted=VarModel.from_coeffs([0.6, 0.2]),
        )
        report = risk_report(pair, InterventionSpec.averaged(1))
        import json

        payload = json.loads(report.to_json())
        for key in ("s_omega", "g_do", "g_avg", "diff", "noise_floor", "quotient",
                    "method", "omega", "component", "spec"):
            assert key in payload
        assert payload["method"] == "analytic"
        assert payload["g_do"] is None
        assert payload["s_omega"] >= payload["noise_floor"] - 1e-12
        assert payload["g_avg"] >= payload["noise_floor"] - 1e-12

    def test_fixed_spec_reports_pinned_risk(self):
        pair = ModelPair(
            truth=VarModel.from_coeffs([0.5, 0.3]),
            fitted=VarModel.from_coeffs([0.6, 0.2]),
        )
        report = risk_report(pair, InterventionSpec.fixed(1, (1,), (0.0,)))
        assert report.g_do is not None
        assert report.g_do <= report.g_avg  # pinning at zero removes variance
