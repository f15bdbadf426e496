"""Models, stationarity, simulation, and autocovariance."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import signal

from varcausal.companion import build_companion, spectrum
from varcausal.errors import BadInputError, NumericalError
from varcausal.process import (
    _SOLVE_STEPS,
    MAX_PATH_STEPS,
    SamplePath,
    VarModel,
    _recursion,
    _step_down_unstable,
    autocov_blocks,
    default_burn_in,
    empirical_autocov,
    exact_autocov,
    is_stationary,
    rejection_sample_stable,
    simulate,
    stationary_window,
)
from varcausal.seeding import as_rng

from conftest import random_stable_model


class TestVarModel:
    def test_json_round_trip(self):
        model = VarModel.from_coeffs([[np.array([[0.1, 0.2], [0.0, 0.3]])][0], 0.2 * np.eye(2)], 2.5)
        back = VarModel.from_json(model.to_json())
        assert back.d == 2 and back.p == 2
        for a, b in zip(model.coeffs, back.coeffs):
            np.testing.assert_array_equal(a, b)
        assert back.noise_variance == 2.5

    def test_rejects_bad_noise(self):
        with pytest.raises(BadInputError):
            VarModel.from_coeffs([0.5], 0.0)

    def test_rejects_bad_json(self):
        with pytest.raises(BadInputError):
            VarModel.from_json("{not json")

    def test_cached_arrays_are_read_only(self):
        model = VarModel.from_coeffs([np.array([[0.5, 0.2], [-0.1, 0.3]]), 0.2 * np.eye(2)])
        n = 4
        cached = {
            "companion": model.companion.dense,
            "spectrum": model.spectrum.eigenvalues,
            "state_cov": model.state_cov,
            "lifted": model.lifted(model.p + 2).dense,
            "autocov": model.autocov(n).dense,
            "root": model.autocov(n).root,
        }
        for name, array in cached.items():
            with pytest.raises(ValueError):
                array[0, ...] = 0.0
            assert not array.flags.writeable, name

    def test_per_length_values_are_built_once_and_match_direct_builds(self):
        model = VarModel.from_coeffs([np.array([[0.5, 0.2], [-0.1, 0.3]]), 0.2 * np.eye(2)])
        assert model.lifted(model.p) is model.companion
        assert model.lifted(5) is model.lifted(5)
        np.testing.assert_array_equal(
            model.lifted(5).dense, build_companion(model.coeffs, order=5).dense
        )
        cov = model.autocov(4)
        assert exact_autocov(model, 4) is cov
        assert cov.root is cov.root
        np.testing.assert_allclose(cov.root @ cov.root.T, cov.dense, atol=1e-10 * cov.dense.max())
        with pytest.raises(BadInputError):
            model.lifted(model.p - 1)

    def test_unstable_model_has_no_stationary_covariance(self):
        from varcausal.interventions import marginal_variances

        model = VarModel.from_coeffs([1.1])
        with pytest.raises(NumericalError):
            model.state_cov
        with pytest.raises(NumericalError):
            marginal_variances(model)


class TestIsStationary:
    def test_stable_ar1(self):
        ok, _ = is_stationary(VarModel.from_coeffs([0.9]))
        assert ok

    def test_unit_root_is_not_stationary(self):
        ok, spec = is_stationary(VarModel.from_coeffs([1.0]))
        assert not ok and spec.max_modulus == pytest.approx(1.0)

    def test_explosive_ar2(self):
        ok, spec = is_stationary(VarModel.from_coeffs([1.2, 0.3]))
        assert not ok
        expect = (1.2 + math.sqrt(1.44 + 1.2)) / 2
        assert spec.max_modulus == pytest.approx(expect, rel=1e-9)

    def test_margin_tightens_the_test(self):
        ok, _ = is_stationary(VarModel.from_coeffs([0.95]), margin=0.1)
        assert not ok


class TestSimulate:
    def test_white_noise_variance(self):
        path = simulate(VarModel.from_coeffs([0.0]), 100_000, 1)
        assert path.scalar.var() == pytest.approx(1.0, rel=0.02)

    def test_ar1_variance(self):
        path = simulate(VarModel.from_coeffs([0.9]), 1_000_000, 2)
        assert path.scalar.var() == pytest.approx(1.0 / (1 - 0.81), rel=0.02)

    def test_deterministic_given_seed(self):
        model = VarModel.from_coeffs([0.5, 0.2])
        a = simulate(model, 500, 7)
        b = simulate(model, 500, 7)
        np.testing.assert_array_equal(a.values, b.values)

    def test_stationary_init_matches_zero_init_statistics(self):
        model = VarModel.from_coeffs([0.8])
        a = simulate(model, 200_000, 3, init="stationary")
        assert a.scalar.var() == pytest.approx(1.0 / (1 - 0.64), rel=0.03)

    def test_vector_recursion(self):
        a1 = np.array([[0.2, 0.1], [0.0, 0.3]])
        model = VarModel.from_coeffs([a1])
        path = simulate(model, 50, 11, burn_in=5)
        assert path.values.shape == (50, 2)
        _assert_matches(path.values, _reference_path(model, 50, 11, "zero", burn_in=5))

    def test_unstable_model_refused(self):
        with pytest.raises(NumericalError):
            simulate(VarModel.from_coeffs([1.01]), 10, 0)

    def test_near_unit_root_default_burn_in_is_refused(self):
        # The default burn-in here is 2.07e13 steps; it must be refused
        # before anything is allocated.
        model = VarModel.from_coeffs([0.999999999999])
        with pytest.raises(BadInputError, match="--burn-in"):
            simulate(model, 10, 0)
        with pytest.raises(BadInputError, match="--burn-in"):
            simulate(model, 10, 0, burn_in=MAX_PATH_STEPS)
        assert simulate(model, 10, 0, burn_in=100).n == 10
        assert simulate(model, 10, 0, init="stationary").n == 10

    def test_burn_in_rule(self):
        assert default_burn_in(0.0) == 1000
        assert default_burn_in(0.99) == math.ceil(math.log(1e-9) / math.log(0.99))

    def test_csv_round_trip(self):
        path = simulate(VarModel.from_coeffs([0.5]), 20, 5)
        back = SamplePath.from_csv(path.to_csv())
        np.testing.assert_array_equal(back.values, path.values)


def _loop_recursion(coeffs, history, eps):
    """Reference: the recursion as a plain per-step loop."""
    p = history.shape[0]
    buf = np.concatenate([history, np.zeros_like(eps)], axis=0)
    for t in range(len(eps)):
        acc = eps[t].copy()
        for l, block in enumerate(coeffs, start=1):
            acc += block @ buf[p + t - l]
        buf[p + t] = acc
    return buf[p:]


def _lfilter_recursion(coeffs, history, eps):
    """Reference (d = 1): the recursion as an IIR filter seeded with the lag window."""
    a_poly = np.concatenate(([1.0], [-b[0, 0] for b in coeffs]))
    zi = signal.lfiltic([1.0], a_poly, history[::-1, 0])
    out, _ = signal.lfilter([1.0], a_poly, eps[:, 0], zi=zi)
    return out[:, None]


def _reference_path(model, n, seed, init, burn_in=None):
    """``simulate``'s draws, run through a reference recursion."""
    rng = as_rng(seed)
    if init == "stationary":
        history = stationary_window(model, model.p, rng)[::-1]
        burn = 0
    else:
        history = np.zeros((model.p, model.d))
        burn = default_burn_in(model.spectrum.max_modulus) if burn_in is None else burn_in
    eps = rng.standard_normal((n + burn, model.d)) * math.sqrt(model.noise_variance)
    recursion = _lfilter_recursion if model.d == 1 else _loop_recursion
    return recursion(model.coeffs, history, eps)[burn:]


def _assert_matches(got, want):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


def _repeated_root_model(p):
    """AR(p) with double roots at 0.999 and -0.998, then distinct real roots."""
    roots = [0.999, 0.999, -0.998, -0.998, 0.3, -0.5, 0.7, -0.2][:p]
    return VarModel.from_coeffs(-np.poly(roots)[1:])


def _unit_circle_model(p, modulus):
    """AR(p) with distinct roots of one modulus: conjugate pairs, plus one real root."""
    angles = 0.4 * np.arange(1, p // 2 + 1)
    roots = [modulus] * (p % 2) + list(modulus * np.exp(1j * angles))
    roots += [np.conj(r) for r in roots[p % 2 :]]
    return VarModel.from_coeffs(-np.poly(roots).real[1:])


class TestRecursionOracle:
    """The banded solve against lfilter (d = 1) and the per-step loop (d > 1)."""

    @pytest.mark.parametrize("init", ["stationary", "zero"])
    @pytest.mark.parametrize("p", range(1, 9))
    def test_scalar_matches_lfilter(self, p, init):
        models = [
            rejection_sample_stable(p, 1, -2.0, 2.0, 300 + p),
            _repeated_root_model(p),
            _unit_circle_model(p, 0.9999),
        ]
        for seed, model in enumerate(models):
            # Zero init runs the default burn-in: 20-23 thousand steps, several
            # blocks, for the roots near one.
            got = simulate(model, 1000, seed, init=init).values
            _assert_matches(got, _reference_path(model, 1000, seed, init))

    @pytest.mark.parametrize("init", ["stationary", "zero"])
    @pytest.mark.parametrize("d, p", [(2, 1), (2, 3), (3, 2), (3, 4)])
    def test_vector_matches_loop(self, d, p, init):
        model = rejection_sample_stable(p, d, -1.0 / d, 1.0 / d, 40 + 10 * d + p, noise_variance=0.7)
        got = simulate(model, 300, 5, burn_in=60, init=init).values
        _assert_matches(got, _reference_path(model, 300, 5, init, burn_in=60))

    @pytest.mark.parametrize("d, p", [(1, 5), (2, 2), (3, 3)])
    def test_crosses_block_boundaries(self, d, p):
        rng = np.random.default_rng(d + 10 * p)
        model = rejection_sample_stable(p, d, -1.0 / d, 1.0 / d, rng)
        history = rng.standard_normal((p, d))
        eps = rng.standard_normal((2 * _SOLVE_STEPS + 37, d))
        want = _loop_recursion(model.coeffs, history, eps)
        _assert_matches(_recursion(model.coeffs, history, eps.copy()), want)
        # Shorter than one block, and exactly one block.
        for n in (1, _SOLVE_STEPS):
            _assert_matches(_recursion(model.coeffs, history, eps[:n].copy()), want[:n])

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="needs extended precision")
    @pytest.mark.parametrize("p", [5, 7, 8])
    def test_high_multiplicity_roots_no_less_accurate_than_lfilter(self, p):
        # Roots of multiplicity 3 and 4 near the circle make the recursion
        # ill-conditioned: the two float64 routes then differ by up to 5e-7
        # relative, so each is scored against an extended-precision loop.
        roots = [0.999] * (p - p // 2) + [-0.998] * (p // 2)
        model = VarModel.from_coeffs(-np.poly(roots)[1:])
        eps = as_rng(1).standard_normal((6000, 1))
        history = np.zeros((p, 1))
        a = np.array([b[0, 0] for b in model.coeffs], dtype=np.longdouble)
        exact = np.zeros(p + len(eps), dtype=np.longdouble)
        for t, e in enumerate(eps[:, 0].astype(np.longdouble)):
            exact[p + t] = e + np.dot(a, exact[t : p + t][::-1])
        exact = exact[p:, None]

        def error(x):
            return float(np.abs(x - exact).max() / np.abs(exact).max())

        banded = error(_recursion(model.coeffs, history, eps.copy()))
        assert banded <= error(_lfilter_recursion(model.coeffs, history, eps))

    def test_zero_init_burn_in_crosses_a_block(self):
        model = VarModel.from_coeffs([np.array([[0.5, 0.2], [-0.1, 0.3]]), 0.2 * np.eye(2)])
        burn = _SOLVE_STEPS + 11
        got = simulate(model, 200, 3, burn_in=burn).values
        _assert_matches(got, _reference_path(model, 200, 3, "zero", burn_in=burn))


class TestExactAutocov:
    def test_ar1_two_lags(self):
        cov = exact_autocov(VarModel.from_coeffs([0.5]), 2)
        np.testing.assert_allclose(
            cov.dense, [[4 / 3, 2 / 3], [2 / 3, 4 / 3]], rtol=1e-12
        )

    def test_ar2_lag_one_autocorrelation(self):
        cov = exact_autocov(VarModel.from_coeffs([0.5, 0.3]), 2)
        assert cov.dense[0, 1] / cov.dense[0, 0] == pytest.approx(5 / 7, abs=1e-10)

    def test_white_noise_is_identity_scale(self):
        cov = exact_autocov(VarModel.from_coeffs([0.0], 2.0), 4)
        np.testing.assert_allclose(cov.dense, 2.0 * np.eye(4), atol=1e-12)

    def test_lyapunov_residual_and_psd(self, rng):
        for _ in range(50):
            p = int(rng.integers(1, 8))
            model = random_stable_model(rng, p)
            cov = exact_autocov(model, p)
            comp = build_companion(model.coeffs).dense
            se = np.zeros_like(cov.dense)
            se[0, 0] = model.noise_variance
            resid = np.abs(cov.dense - comp @ cov.dense @ comp.T - se).max()
            gamma0 = cov.dense[0, 0]
            assert resid < 1e-9 * gamma0
            assert np.linalg.eigvalsh(exact_autocov(model, 8).dense).min() > -1e-10 * gamma0

    @pytest.mark.parametrize(
        "d, p, radius",
        [(2, 3, 0.9), (2, 6, 0.95), (5, 3, 0.98), (3, 15, 0.95), (3, 15, 0.995)],
    )
    def test_state_cov_residual_and_psd_at_large_state_dims(self, d, p, radius):
        # State dims 6 to 45: scipy switches from its Kronecker solve to
        # Bartels-Stewart at 10.  Scaling A_l by c^l scales the spectrum by c.
        rng = np.random.default_rng(d * 100 + p)
        raw = [rng.standard_normal((d, d)) for _ in range(p)]
        scale = radius / spectrum(build_companion(raw)).max_modulus
        model = VarModel.from_coeffs([b * scale ** (l + 1) for l, b in enumerate(raw)], 1.5)
        assert model.spectrum.max_modulus == pytest.approx(radius, rel=1e-9)
        state = model.state_cov
        comp = model.companion.dense
        se = np.zeros_like(comp)
        se[:d, :d] = 1.5 * np.eye(d)
        size = np.abs(state).max()
        assert np.abs(state - comp @ state @ comp.T - se).max() < 1e-9 * size
        np.testing.assert_array_equal(state, state.T)
        assert np.linalg.eigvalsh(state).min() > -1e-10 * size
        np.testing.assert_allclose(exact_autocov(model, p).dense, state, rtol=0, atol=1e-9 * size)

    def test_block_toeplitz_symmetry(self, rng):
        model = random_stable_model(rng, 3)
        dense = exact_autocov(model, 6).dense
        np.testing.assert_allclose(dense, dense.T, atol=1e-12)
        for i in range(4):
            assert dense[i, i + 1] == pytest.approx(dense[i + 1, i + 2], abs=1e-12)

    def test_min_eigenvalue_lower_bound(self, rng):
        # lam_min(Sigma_n) >= sigma^2 / (1 + delta)^(2p) on sampled processes.
        for _ in range(200):
            p = int(rng.integers(1, 8))
            model = random_stable_model(rng, p)
            delta = spectrum(build_companion(model.coeffs)).max_modulus
            dense = exact_autocov(model, min(p + 2, 8)).dense
            lam_min = np.linalg.eigvalsh(dense).min()
            assert lam_min >= (1.0 / (1 + delta) ** (2 * p)) * (1 - 1e-9)


class TestEmpiricalAutocov:
    def test_white_noise(self):
        path = simulate(VarModel.from_coeffs([0.0]), 1_000_000, 4)
        cov = empirical_autocov(path, 2)
        assert cov.dense[0, 0] == pytest.approx(1.0, rel=0.02)
        assert abs(cov.dense[0, 1]) < 0.02

    def test_ar2_lag_one(self):
        path = simulate(VarModel.from_coeffs([0.5, 0.3]), 1_000_000, 5)
        cov = empirical_autocov(path, 2)
        assert cov.dense[0, 1] / cov.dense[0, 0] == pytest.approx(5 / 7, rel=0.02)

    def test_converges_to_exact(self, rng):
        model = random_stable_model(np.random.default_rng(99), 3)
        exact = exact_autocov(model, 3).dense
        errs = []
        for n in (10**5, 10**7):
            path = simulate(model, n, 6)
            emp = empirical_autocov(path, 3).dense
            errs.append(np.abs(emp - exact).max())
        assert errs[1] < errs[0]

    def test_too_short_rejected(self):
        path = simulate(VarModel.from_coeffs([0.5]), 12, 0)
        with pytest.raises(BadInputError):
            empirical_autocov(path, 5)


class TestGammaRecursion:
    def test_matches_long_window(self, rng):
        model = random_stable_model(rng, 4)
        gam = autocov_blocks(model, 9)[:, 0, 0]
        dense = exact_autocov(model, 10).dense
        np.testing.assert_allclose(dense[0], gam, rtol=1e-9)


class TestRejectionSampling:
    def test_ar1_lands_in_open_interval(self):
        for seed in range(30):
            model = rejection_sample_stable(1, 1, -2, 2, seed)
            assert -1 < model.scalar_coeffs[0] < 1

    def test_ar2_stationarity_triangle(self):
        for seed in range(30):
            a1, a2 = rejection_sample_stable(2, 1, -2, 2, seed).scalar_coeffs
            assert abs(a2) < 1 and a2 < 1 - a1 and a2 < 1 + a1

    def test_acceptance_rate_ar1_is_about_half(self):
        hits = 0
        for seed in range(10_000):
            try:
                rejection_sample_stable(1, 1, -2, 2, seed, max_tries=1)
                hits += 1
            except NumericalError:
                pass
        assert hits / 10_000 == pytest.approx(0.5, abs=0.02)

    def test_deterministic(self):
        a = rejection_sample_stable(3, 1, -2, 2, 123)
        b = rejection_sample_stable(3, 1, -2, 2, 123)
        np.testing.assert_array_equal(a.scalar_coeffs, b.scalar_coeffs)

    def test_exhaustion_raises(self):
        # Order 7 draws are almost never stable on the first try.
        with pytest.raises(NumericalError):
            rejection_sample_stable(7, 1, -2, 2, 0, max_tries=1)

    def test_bad_range_rejected(self):
        with pytest.raises(BadInputError):
            rejection_sample_stable(1, 1, 2, -2, 0)

    @pytest.mark.parametrize(
        "lo, hi, max_tries",
        [(math.nan, 2.0, 10), (-2.0, math.nan, 10), (-math.inf, 2.0, 10), (-2.0, math.inf, 10),
         (-2.0, 2.0, 0), (-2.0, 2.0, -1)],
    )
    def test_bad_sampler_inputs_rejected(self, lo, hi, max_tries):
        with pytest.raises(BadInputError):
            rejection_sample_stable(2, 1, lo, hi, 0, max_tries=max_tries)

    @pytest.mark.parametrize("p", range(1, 11))
    def test_screen_keeps_every_stable_row(self, p):
        coeffs = np.random.default_rng(900 + p).uniform(-2.0, 2.0, size=(100_000, p))
        flagged = _step_down_unstable(coeffs)
        stable = _max_moduli(coeffs) < 1.0
        assert not np.any(flagged & stable)
        # It also leaves almost nothing for eigvals to reject.
        assert (~flagged & ~stable).sum() <= 0.001 * len(coeffs)

    def test_screen_keeps_boundary_polynomials(self):
        r = 1.0 - 1e-12
        root_sets = [
            [1.0, 0.5],
            [-1.0, -1.0],
            [1.0, 1.0, 1.0],
            [1.0, -1.0, 1j, -1j],
            [r, -r],
            [r * np.exp(1j), r * np.exp(-1j)],
            [r, 0.3, -0.7, r * np.exp(2j), r * np.exp(-2j)],
            [r] * 4,
            [0.999] * 4,
            # Without the rounding-error bound the step-down flags these two.
            [0.9995] * 4,
            [-0.998] * 5,
            [0.9999 * np.exp(0.5j)] * 3 + [0.9999 * np.exp(-0.5j)] * 3,
        ]
        for roots in root_sets:
            coeffs = -np.real(np.poly(roots))[1:]
            # Roots on or just inside the circle are never proven unstable.
            assert not _step_down_unstable(coeffs[None])[0], roots

    def test_screen_flags_polynomials_outside_the_circle(self):
        for roots in ([1.001, 0.5], [-1.0 - 1e-6, 0.2, 0.1], [1.1 * np.exp(1j), 1.1 * np.exp(-1j)]):
            coeffs = -np.real(np.poly(roots))[1:]
            assert _step_down_unstable(coeffs[None])[0], roots

    @pytest.mark.parametrize("p, d", [(p, 1) for p in range(1, 9)] + [(2, 2)])
    def test_same_draws_as_eigvals_only_sampler(self, p, d):
        for seed in range(50):
            lib_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = rejection_sample_stable(p, d, -2.0, 2.0, lib_rng)
            want = _eigvals_only_sample(p, d, -2.0, 2.0, ref_rng)
            for a, b in zip(got.coeffs, want):
                np.testing.assert_array_equal(a, b)
            assert lib_rng.random() == ref_rng.random()


def _max_moduli(coeffs: np.ndarray) -> np.ndarray:
    count, p = coeffs.shape
    comps = np.zeros((count, p, p))
    comps[:, 0, :] = coeffs
    comps[:, 1:, :-1] = np.eye(p - 1)
    return np.abs(np.linalg.eigvals(comps)).max(axis=1)


def _eigvals_only_sample(p, d, lo, hi, rng, max_tries=100_000):
    """The sampler without the step-down screen: every candidate goes to eigvals."""
    size = p * d
    tried = 0
    batch = 128
    while tried < max_tries:
        count = min(batch, max_tries - tried)
        cand = rng.uniform(lo, hi, size=(count, p, d, d))
        comps = np.zeros((count, size, size))
        for l in range(p):
            comps[:, :d, l * d : (l + 1) * d] = cand[:, l]
        if p > 1:
            comps[:, d:, : d * (p - 1)] = np.eye(d * (p - 1))
        stable = np.flatnonzero(np.abs(np.linalg.eigvals(comps)).max(axis=1) < 1.0)
        if stable.size:
            return tuple(cand[stable[0], l] for l in range(p))
        tried += count
        batch = min(4096, batch * 2)
    raise NumericalError("no stable draw")
