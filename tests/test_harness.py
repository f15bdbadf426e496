"""Experiment harness: determinism, bucketing, sweeps, confounding."""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from varcausal.errors import ConfigError
from varcausal.process import SamplePath
from varcausal.harness import (
    ExperimentConfig,
    ExperimentRecord,
    bucket_by_kappa,
    records_to_csv,
    run,
    summaries_to_csv,
    sweep_to_csv,
)


def tiny_cfg(**kw) -> ExperimentConfig:
    base = dict(
        n_processes=12,
        orders=(2,),
        n_train=60,
        n_test=200,
        mc_draws=200,
        bucket_size=6,
        master_seed=7,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def make_record(pid: int, kappa: float, diff: float, bound: float = 10.0) -> ExperimentRecord:
    return ExperimentRecord(
        process_id=pid,
        order_true=2,
        order_fit=2,
        estimator="ols",
        regime="single",
        kappa=kappa,
        delta_true=0.5,
        delta_fit=0.5,
        coeffs_true=(0.1, 0.1),
        coeffs_fit=(0.1, 0.1),
        s_analytic=1.0,
        s_empirical=1.0,
        g_analytic=1.0 + diff,
        g_mc=1.0 + diff,
        abs_diff=diff,
        prop1_rhs=bound,
        cor2_rhs=bound,
        thm1_rhs=bound,
        omega=1,
        n_train=100,
    )


class TestConfig:
    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_mapping({"n_processes": 5, "bogus": 1})

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(mode="turbo")

    @pytest.mark.parametrize(
        "bad",
        [{"max_tries": 0}, {"max_tries": -5}, {"coeff_lo": math.nan}, {"coeff_hi": math.nan},
         {"coeff_hi": math.inf}, {"coeff_lo": -math.inf}],
    )
    def test_bad_sampler_settings_rejected(self, bad):
        # These used to skip every process, or fail later inside a worker.
        with pytest.raises(ConfigError):
            tiny_cfg(**bad)

    @pytest.mark.parametrize(
        "bad",
        [
            {"mode": "sampleSweep", "sweep_train_sizes": (20, 20)},
            {"mode": "sampleSweep", "sweep_train_sizes": ()},
            {"mode": "sampleSweep", "orders": (3,), "sweep_train_sizes": (40, 3)},
            {"mode": "sampleSweep", "orders": (3,), "sweep_train_sizes": (4,)},
            {"orders": (3,), "n_train": 4},
            {"orders": (3,), "n_train": 5, "omega": 2},
            {"orders": (1,), "order_pairs": ((6, 1),), "n_train": 7},
            {"mode": "omegaSweep", "orders": (3,), "sweep_omegas": (1, 7), "n_train": 10},
            {"mode": "confounded", "orders": (2,), "n_train": 3, "mc_draws": 10},
        ],
    )
    def test_training_sizes_checked(self, bad):
        # Each size must be distinct and longer than a fit order plus the
        # horizon, which thm1 scores on the training path.
        with pytest.raises(ConfigError):
            tiny_cfg(**bad)

    @pytest.mark.parametrize(
        "bad",
        [
            {"estimators": ()},
            {"mode": "sampleSweep", "estimators": ("ols", "ridge")},
            {"mode": "omegaSweep", "estimators": ("ridge", "ols")},
            {"mode": "confounded", "estimators": ("ols", "ols")},
            {"mode": "sampleSweep", "order_pairs": ((1, 2),)},
            {"mode": "omegaSweep", "order_pairs": ((1, 2),)},
            {"mode": "confounded", "order_pairs": ((2, 1),)},
        ],
    )
    def test_unused_settings_rejected(self, bad):
        # Only the standard study fits several estimators and order pairs;
        # the other modes would echo them in the metadata without using them.
        with pytest.raises(ConfigError):
            tiny_cfg(**bad)

    @pytest.mark.parametrize(
        "bad",
        [
            {"order_pairs": ((0, 2),)},
            {"order_pairs": ((2, -1),)},
            {"rho": 0.0},
            {"rho": 1.0},
            {"confidence": 0.0},
            {"confidence": 1.5},
            {"rademacher_draws": 0},
            {"noise_variance": 0.0},
            {"noise_variance": -1.0},
            {"noise_variance": math.inf},
            {"noise_variance": math.nan},
            {"cv_folds": 1},
            {"orders": (3,), "n_test": 4},
            {"mode": "omegaSweep", "orders": (3,), "sweep_omegas": (1, 7), "n_test": 10},
            {"orders": (1,), "order_pairs": ((6, 1),), "n_test": 7},
            {"mode": "confounded", "orders": (2,), "n_test": 11, "mc_draws": 10},
        ],
    )
    def test_study_settings_checked(self, bad):
        # Each used to fail with a BadInputError after processes were
        # sampled, or (cv_folds) was silently raised to 2.
        with pytest.raises(ConfigError):
            tiny_cfg(**bad)

    def test_shortest_test_paths_run(self):
        # One step past each limit, every process is scored.
        for kw in ({"orders": (3,), "n_test": 5}, {"mode": "confounded", "n_test": 12}):
            res = run(tiny_cfg(n_processes=2, bucket_size=1, mc_draws=10, **kw))
            assert res.metadata["skipped"] == 0 and res.records

    def test_repeated_sweep_omegas_rejected(self):
        # They used to write each (process, regime) record twice, and every
        # bucket held each value twice.
        with pytest.raises(ConfigError, match="sweep_omegas"):
            tiny_cfg(mode="omegaSweep", sweep_omegas=(5, 1, 5))

    def test_smallest_training_sizes_run(self):
        # One row past the limit, every estimator fits and every record is kept.
        for kw in (
            {"mode": "sampleSweep", "sweep_train_sizes": (5, 6)},
            {"n_train": 5, "estimators": ("ols", "ridge", "lasso")},
            {"mode": "omegaSweep", "sweep_omegas": (1, 2), "n_train": 6},
        ):
            res = run(tiny_cfg(n_processes=2, orders=(3,), bucket_size=1, **kw))
            assert res.metadata["skipped"] == 0 and res.records

    def test_round_trip(self):
        cfg = tiny_cfg(order_pairs=((1, 3),))
        back = ExperimentConfig.from_mapping(cfg.to_mapping())
        assert back == cfg


class TestRunStandard:
    def test_deterministic(self):
        cfg = tiny_cfg()
        a = run(cfg)
        b = run(cfg)
        assert records_to_csv(a.records) == records_to_csv(b.records)
        assert a.metadata == b.metadata

    def test_first_order_processes_have_zero_gap(self):
        cfg = tiny_cfg(orders=(1,), n_processes=8, bucket_size=4)
        res = run(cfg)
        assert res.records
        for rec in res.records:
            assert rec.abs_diff <= 1e-12

    def test_prop1_dominates_every_record(self):
        cfg = tiny_cfg(n_processes=30, orders=(3,), bucket_size=10)
        res = run(cfg)
        assert res.metadata["prop1_violations"] == 0
        for rec in res.records:
            assert rec.abs_diff <= rec.prop1_rhs + 1e-9 * (1 + abs(rec.prop1_rhs))

    def test_misspecified_orders_run(self):
        cfg = tiny_cfg(orders=(1,), order_pairs=((1, 3), (3, 1)), n_processes=4, bucket_size=4)
        res = run(cfg)
        combos = {(r.order_fit, r.order_true) for r in res.records}
        assert combos == {(1, 1), (1, 3), (3, 1)}

    def test_multiple_estimators_per_process(self):
        cfg = tiny_cfg(estimators=("ols", "ridge"), n_processes=4, bucket_size=4)
        res = run(cfg)
        assert len(res.records) == 8
        assert {r.estimator for r in res.records} == {"ols", "ridge"}


class TestBucketing:
    def test_bucket_count_and_drop(self):
        records = [make_record(i, float(i), 0.1 * i) for i in range(1000)]
        buckets, dropped = bucket_by_kappa(records, 500)
        assert len(buckets) == 2 and dropped == 0
        buckets, dropped = bucket_by_kappa(records[:901], 300)
        assert len(buckets) == 3 and dropped == 1

    def test_identical_records_collapse(self):
        records = [make_record(i, 2.0, 0.5) for i in range(10)]
        buckets, _ = bucket_by_kappa(records, 5)
        for b in buckets:
            assert b.max_diff == b.mean_diff == b.q90_diff == 0.5

    def test_kappa_nondecreasing_across_buckets(self):
        rng = np.random.default_rng(0)
        records = [make_record(i, float(k), 0.0) for i, k in enumerate(rng.uniform(1, 100, 60))]
        buckets, _ = bucket_by_kappa(records, 20)
        mids = [b.kappa_mid for b in buckets]
        assert mids == sorted(mids)

    def test_bound_column_dominates_max_diff(self):
        cfg = tiny_cfg(n_processes=20, orders=(3,), bucket_size=10)
        res = run(cfg)
        for b in res.summaries["standard"]:
            assert b.bound >= b.max_diff

    def test_csv_shape(self):
        buckets, _ = bucket_by_kappa([make_record(i, float(i), 0.0) for i in range(4)], 2)
        text = summaries_to_csv(buckets)
        lines = text.strip().split("\n")
        assert lines[0] == "kappa_mid,max_diff,mean_diff,q90_diff,bound,count"
        assert len(lines) == 3


class TestSampleSweep:
    def test_summaries_per_size_and_determinism(self):
        cfg = tiny_cfg(
            mode="sampleSweep",
            estimators=("ridge",),
            sweep_train_sizes=(20, 60),
            n_processes=6,
            orders=(2,),
        )
        res = run(cfg)
        assert set(res.summaries) == {"n20", "n60"}
        text = sweep_to_csv(res.summaries["n20"])
        assert text.startswith("n_train,q0,q25,q50,q75,q100,mean,std,count")
        res2 = run(cfg)
        assert sweep_to_csv(res2.summaries["n20"]) == sweep_to_csv(res.summaries["n20"])

    def test_quantiles_ordered(self):
        cfg = tiny_cfg(
            mode="sampleSweep", estimators=("ridge",), sweep_train_sizes=(30,), n_processes=8
        )
        res = run(cfg)
        s = res.summaries["n30"][0]
        assert s.q0 <= s.q25 <= s.q50 <= s.q75 <= s.q100
        assert s.count == 8

    def test_each_size_matches_a_standard_run(self):
        # Seeds do not depend on the loop order, so the records of size n are
        # exactly those of a standard run at n_train = n.
        kw = dict(estimators=("ridge",), n_processes=5, orders=(2, 3), mc_draws=50)
        res = run(tiny_cfg(mode="sampleSweep", sweep_train_sizes=(20, 60), **kw))
        for n in (20, 60):
            sweep_n = [r for r in res.records if r.n_train == n]
            std = run(tiny_cfg(n_train=n, **kw))
            assert records_to_csv(sweep_n) == records_to_csv(std.records)


class TestOmegaSweep:
    def test_regimes_and_match_with_standard(self):
        cfg = tiny_cfg(mode="omegaSweep", sweep_omegas=(1, 3), n_processes=6, orders=(2,))
        res = run(cfg)
        assert set(res.summaries) == {"omega1_single", "omega1_all", "omega3_single", "omega3_all"}
        # Matched seeds: the omega-1 single-regime records coincide with a
        # standard run of the same config.
        std = run(tiny_cfg(n_processes=6, orders=(2,), omega=1))
        sweep_w1 = [r for r in res.records if r.omega == 1 and r.regime == "single"]
        assert records_to_csv(sweep_w1) == records_to_csv(std.records)

    def test_all_regime_dominates_single_in_bucket_maxima(self):
        # Zeroing every window slot moves the window moment further from the
        # observational one on the bucket worst cases (empirical regularity,
        # not a theorem; individual processes can go either way).
        cfg = tiny_cfg(
            mode="omegaSweep",
            sweep_omegas=(1,),
            n_processes=150,
            orders=(3,),
            n_test=200,
            mc_draws=0,
            bucket_size=30,
        )
        res = run(cfg)
        singles = res.summaries["omega1_single"]
        alls = res.summaries["omega1_all"]
        assert len(singles) == 5
        for s, a in zip(singles, alls):
            assert a.max_diff >= s.max_diff

    def test_bucket_dropped_tail_sums_every_cell(self):
        # 23 records per (omega, regime) cell, buckets of 10: 3 dropped in
        # each of the 6 cells.
        cfg = tiny_cfg(
            mode="omegaSweep", n_processes=23, orders=(3,), mc_draws=0, bucket_size=10
        )
        res = run(cfg)
        cells = len(cfg.sweep_omegas) * 2
        assert res.metadata["skipped"] == 0
        assert len(res.records) == 23 * cells
        assert res.metadata["bucket_dropped_tail"] == 3 * cells


class TestConfounded:
    def test_deterministic(self):
        cfg = tiny_cfg(mode="confounded", n_processes=8, orders=(3,), bucket_size=4, mc_draws=1000)
        a = run(cfg)
        b = run(cfg)
        assert records_to_csv(a.records) == records_to_csv(b.records)

    def test_violations_are_counted_not_hidden(self):
        cfg = tiny_cfg(mode="confounded", n_processes=8, orders=(3,), bucket_size=4, mc_draws=1000)
        res = run(cfg)
        assert "prop1_violations" in res.metadata
        assert res.metadata["prop1_violations"] >= 0

    def test_diagonal_coupling_reduces_to_independent_ar1(self):
        # Zero cross-coupling: the observed coordinate is its own AR(1), so the
        # correctly specified scalar fit, embedded in the bivariate truth, has
        # causal and statistical risk equal to the noise variance, and Monte
        # Carlo agrees up to its noise.
        from varcausal.harness import _embedded, _spec
        from varcausal.process import VarModel
        from varcausal.risk import ModelPair, causal_risk, mc_causal_risk, stat_risk
        from varcausal.seeding import derive_rng

        truth = VarModel.from_coeffs([np.diag([0.6, -0.3])])
        pair = ModelPair(truth=truth, fitted=_embedded(VarModel.from_coeffs([0.6]), 2))
        spec = _spec(1, "single", pair.nu)
        assert causal_risk(pair, spec)[0] == pytest.approx(1.0, rel=1e-12)
        assert stat_risk(pair, 1)[0] == pytest.approx(1.0, rel=1e-12)
        g, _ = mc_causal_risk(pair, spec, 200_000, derive_rng(3), component=1)
        assert g == pytest.approx(1.0, rel=0.03)

    def test_thm1_violations_compare_the_analytic_causal_risk(self):
        # Confounded records carry the exact causal risk, and thm1 bounds it
        # there as in every other mode.
        cfg = tiny_cfg(mode="confounded", n_processes=20, master_seed=9, mc_draws=1000)
        res = run(cfg)
        violations = sum(
            1 for r in res.records if math.isfinite(r.thm1_rhs) and r.g_analytic > r.thm1_rhs
        )
        assert violations >= 1
        assert res.metadata["thm1_violations"] == violations

    def test_mc_draws_is_honoured(self, monkeypatch):
        # Monte Carlo draws exactly mc_draws windows; with none, g_mc is NaN
        # and the exact risks are still written.
        from varcausal import risk

        with pytest.raises(ConfigError):
            tiny_cfg(mc_draws=-1)
        asked = []
        draw = risk._draw_windows

        def spy(truth, length, draws, rng):
            asked.append(draws)
            return draw(truth, length, draws, rng)

        monkeypatch.setattr(risk, "_draw_windows", spy)
        run(tiny_cfg(mode="confounded", n_processes=2, mc_draws=200))
        assert asked and set(asked) == {200}
        asked.clear()
        res = run(tiny_cfg(mode="confounded", n_processes=2, mc_draws=0))
        assert not asked and len(res.records) == 2
        for r in res.records:
            assert math.isnan(r.g_mc)
            assert math.isfinite(r.s_analytic) and math.isfinite(r.g_analytic)

    def test_mc_causal_risk_follows_its_chi_square_law(self):
        # Each Monte-Carlo draw's error on the observed coordinate is a
        # centred Gaussian whose variance is the exact causal risk, so
        # n * g_mc / g_analytic is chi-square with n = mc_draws degrees of
        # freedom.  Laurent and Massart (2000, Lemma 1) bound its tails:
        # P(X - n >= 2 sqrt(n x) + 2 x) <= e^-x and P(n - X >= 2 sqrt(n x))
        # <= e^-x; x splits a false-alarm rate of 1e-6 over both tails of
        # every record.
        cfg = tiny_cfg(mode="confounded", n_processes=30, orders=(1, 3), omega=2, mc_draws=300)
        res = run(cfg)
        n = cfg.mc_draws
        x = math.log(2 * len(res.records) / 1e-6)
        assert len(res.records) == 60
        for r in res.records:
            stat = n * r.g_mc / r.g_analytic
            assert n - 2 * math.sqrt(n * x) < stat < n + 2 * math.sqrt(n * x) + 2 * x

    def test_abs_diff_is_the_analytic_gap_without_monte_carlo(self):
        # Without draws g_mc is NaN, but abs_diff, as in every other mode, is
        # |G - S| of the exact risks, so the summaries stay finite.
        cfg = tiny_cfg(mode="confounded", orders=(2,), n_processes=10, mc_draws=0, bucket_size=5)
        res = run(cfg)
        assert len(res.records) == 10
        for r in res.records:
            assert math.isnan(r.g_mc)
            assert r.abs_diff == abs(r.g_analytic - r.s_analytic)
        buckets = res.summaries["confounded"]
        assert len(buckets) == 2
        for b in buckets:
            assert all(math.isfinite(v) for v in (b.max_diff, b.mean_diff, b.q90_diff))

    def test_every_fit_order_has_records(self):
        # One block of processes per fit order, as in standard mode.
        res = run(tiny_cfg(mode="confounded", n_processes=4, orders=(1, 3), mc_draws=0))
        assert res.metadata["skipped"] == 0
        assert [(r.process_id, r.order_fit) for r in res.records] == [
            (pid, 1 if pid < 4 else 3) for pid in range(8)
        ]


class TestDerivedQuantitiesOnce:
    def test_one_standard_process_solves_each_model_once(self, monkeypatch):
        # A chunk of three processes samples its truths in one call and sets
        # them up in one stacked call per quantity: companions, spectra,
        # Lyapunov solves and window roots.  Its fits are scored the same
        # way: one stacked call each for their companions, spectra, the
        # powers of every model at every horizon, the eigenvalues of every
        # window and of its correlation, the noise floors, and the
        # statistical and the causal risks.  Each fit needs its own spectrum
        # and companion; only truths need a stationary covariance, a window
        # autocovariance and a root.  ``items`` counts the models (or
        # windows, or risks) each stacked call handles, so each quantity is
        # computed once, however often the records and bounds ask.
        import sys

        from varcausal import harness, interventions, process, risk
        from varcausal.harness import run

        stacked = (
            "_lifts", "_spectra", "_state_covs", "_psd_roots", "_powers",
            "symmetric_eigenvalues", "_noise_floors", "_risks",
        )
        once = {
            **dict.fromkeys(stacked, 1),
            "_lifts": 2,  # the truths', then the fits'
            "_spectra": 2,
            "_risks": 2,  # statistical, then causal
            "autocov_blocks": 3,
            "interventional_cov": 3,
            "rejection_sample_block": 1,
        }
        once_items = {
            **dict.fromkeys(stacked, 3),
            "_lifts": 6,
            "_spectra": 6,
            "_powers": 6,  # the truth's and the fit's omega-th power
            "symmetric_eigenvalues": 6,  # each window and its correlation
            "_risks": 6,
        }
        counts = dict.fromkeys(once, 0)
        items = dict.fromkeys(stacked, 0)
        # Matrices numpy's solvers see: each window, each correlation matrix
        # and each (model, horizon) once.  A record scored on its own takes
        # three eigvalsh (kappa's, thm1's and prop1's) and five matrix powers.
        numpy_calls = {"eigvalsh": 0, "matrix_power": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                if name in items:
                    items[name] += len(args[0])
                return fn(*args, **kwargs)

            return wrapper

        for name in ("eigvalsh", "matrix_power"):
            def matrices(a, *args, _fn=getattr(np.linalg, name), _name=name, **kwargs):
                numpy_calls[_name] += a.shape[0] if a.ndim == 3 else 1
                return _fn(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, matrices)

        lengths = []

        def simulate(model, n, *args, **kwargs):
            lengths.append(n)
            return process.simulate(model, n, *args, **kwargs)

        for name in once:
            fn = next(
                getattr(mod, name) for mod in (process, interventions, risk) if hasattr(mod, name)
            )
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.startswith("varcausal") and getattr(mod, name, None) is fn:
                    monkeypatch.setattr(mod, name, counted(name, fn))
        monkeypatch.setattr(harness, "simulate", simulate)

        def one_chunk(**kw):
            counts.update(dict.fromkeys(once, 0))
            items.update(dict.fromkeys(stacked, 0))
            numpy_calls.update(eigvalsh=0, matrix_power=0)
            lengths.clear()
            cfg = tiny_cfg(
                n_processes=3, orders=(3,), bucket_size=1, n_test=1000, mc_draws=1000, **kw
            )
            res = run(cfg)
            assert res.records and res.metadata["skipped"] == 0
            return counts, items, numpy_calls

        assert one_chunk() == (once, once_items, {"eigvalsh": 6, "matrix_power": 6})
        # Each process's 6 records share one pair.  Per horizon: one noise
        # floor, one statistical risk, two powers, and one intervened window
        # and causal risk per regime; the every-step record's bounds reuse the
        # single-step window.
        assert one_chunk(mode="omegaSweep", sweep_omegas=(1, 5, 7)) == (
            {**once, "interventional_cov": 18},
            {**once_items, "_powers": 18, "_noise_floors": 9, "_risks": 27},
            {"eigvalsh": 6, "matrix_power": 18},
        )
        # One truth and one test path per process; one training path and one
        # fit (a companion, a spectrum and a power) per size.  Fits of one
        # truth share its window, noise floor and intervened window.
        assert one_chunk(mode="sampleSweep", sweep_train_sizes=(20, 40, 60)) == (
            once,
            {**once_items, "_lifts": 12, "_spectra": 12, "_powers": 12, "_risks": 18},
            {"eigvalsh": 6, "matrix_power": 12},
        )
        assert sorted(lengths) == [20] * 3 + [40] * 3 + [60] * 3 + [1000] * 3
        # Confounded records read the truths' spectra and the scalar fits'
        # own: one stacked call each, and none for the fits' bivariate
        # embeddings.
        calls, models, _ = one_chunk(mode="confounded")
        assert (calls["_spectra"], models["_spectra"]) == (2, 6)


class TestChunks:
    @pytest.mark.parametrize(
        "kw",
        [
            {"orders": (2, 5), "n_processes": 7},
            {"mode": "omegaSweep", "orders": (3,), "n_processes": 5, "sweep_omegas": (1, 2)},
            {"mode": "confounded", "n_processes": 6},
            # Some truths exhaust the budget and are skipped.
            {"orders": (7,), "n_processes": 8, "max_tries": 600, "mc_draws": 50},
            # Fit orders above and below the true ones.
            {"orders": (2,), "order_pairs": ((4, 2), (1, 3)), "n_processes": 5},
            # Scoring fails for process 3 (see below).
            {"orders": (3,), "n_processes": 7, "fail_pid": 3},
            # Cross-validated in one batch per chunk; at size 12 the folds
            # are rank-deficient.
            {"orders": (3,), "n_processes": 5, "estimators": ("lasso", "elasticNet")},
            {
                "mode": "sampleSweep", "orders": (5,), "n_processes": 5,
                "sweep_train_sizes": (12, 100), "estimators": ("lasso",),
            },
        ],
    )
    def test_chunk_size_does_not_change_outputs(self, monkeypatch, kw):
        from varcausal import harness
        from varcausal.errors import NumericalError

        kw = dict(kw)
        fail_pid = kw.pop("fail_pid", None)
        if fail_pid is not None:
            base = run(tiny_cfg(bucket_size=2, **kw))
            (target,) = [r.coeffs_true for r in base.records if r.process_id == fail_pid]
            real = harness.prop1_bound

            def fail_on_target(pair, omega):
                if tuple(pair.truth.scalar_coeffs) == target:
                    raise NumericalError("injected failure")
                return real(pair, omega)

            monkeypatch.setattr(harness, "prop1_bound", fail_on_target)

        to_csv = sweep_to_csv if kw.get("mode") == "sampleSweep" else summaries_to_csv

        def outputs():
            res = run(tiny_cfg(bucket_size=2, **kw))
            summaries = {k: to_csv(v) for k, v in res.summaries.items()}
            return records_to_csv(res.records), summaries, res.metadata

        default = outputs()
        for size in (1, 3):
            monkeypatch.setattr(harness, "CHUNK_PROCESSES", size)
            assert outputs() == default
        meta = default[2]
        assert meta["skipped"] == sum(meta["skipped_by_reason"].values())
        if "max_tries" in kw:
            assert 0 < meta["skipped"] < kw["n_processes"]
            assert meta["skipped_by_reason"] == {
                "sampling": meta["skipped"], "simulation": 0, "fit": 0, "scoring": 0
            }
        records = run(tiny_cfg(bucket_size=2, **kw)).records
        if "order_pairs" in kw:
            assert {(r.order_fit, r.order_true) for r in records} == {(2, 2), (4, 2), (1, 3)}
        if fail_pid is not None:
            assert meta["skipped_by_reason"]["scoring"] == meta["skipped"] == 1
            assert fail_pid not in {r.process_id for r in records}

    def test_sampling_counts_in_metadata(self):
        cfg = tiny_cfg(orders=(2, 5), order_pairs=((3, 5),), n_processes=6)
        sampling = run(cfg).metadata["sampling"]
        assert set(sampling) == {"2", "5"}
        for order, tally in sampling.items():
            assert set(tally) == {"drawn", "step_down_removed"}
            # At least one candidate per process, two order-5 blocks.
            assert tally["drawn"] >= (12 if order == "5" else 6)
            assert tally["step_down_removed"] < tally["drawn"]
        assert run(cfg).metadata["sampling"] == sampling
        confounded = run(tiny_cfg(mode="confounded", n_processes=4)).metadata["sampling"]
        assert confounded["1"]["step_down_removed"] == 0


class TestSkipReasons:
    @pytest.mark.parametrize("reason", ["simulation", "fit", "scoring"])
    def test_failing_unit_counts_under_its_reason(self, monkeypatch, reason):
        # Process 1's training path (sizes 30 and 60) fails in one stage; each
        # of its two units counts once, under that stage.
        from varcausal import harness
        from varcausal.errors import NumericalError

        cfg = tiny_cfg(
            mode="sampleSweep", n_processes=3, orders=(2,), sweep_train_sizes=(30, 60),
            mc_draws=20, bucket_size=1,
        )
        base = run(cfg)
        target = [r for r in base.records if r.process_id == 1]
        paths = []

        def simulate(model, n, seed, **kw):
            path = harness_simulate(model, n, seed, **kw)
            if tuple(model.scalar_coeffs) == target[0].coeffs_true and n != cfg.n_test:
                if reason == "simulation":
                    raise NumericalError("injected failure")
                paths.append(path)
            return path

        def build_design(path, p):
            if reason == "fit" and any(path is target_path for target_path in paths):
                raise NumericalError("injected failure")
            return harness_build_design(path, p)

        def prop1_bound(pair, omega):
            if reason == "scoring" and tuple(pair.truth.scalar_coeffs) == target[0].coeffs_true:
                raise NumericalError("injected failure")
            return harness_prop1(pair, omega)

        harness_simulate, harness_build_design = harness.simulate, harness.build_design
        harness_prop1 = harness.prop1_bound
        monkeypatch.setattr(harness, "simulate", simulate)
        monkeypatch.setattr(harness, "build_design", build_design)
        monkeypatch.setattr(harness, "prop1_bound", prop1_bound)
        meta = run(cfg).metadata
        want = dict.fromkeys(("sampling", "simulation", "fit", "scoring"), 0)
        assert base.metadata["skipped_by_reason"] == want
        assert meta["skipped_by_reason"] == {**want, reason: 2}
        assert meta["skipped"] == 2
        assert meta["n_records"] == base.metadata["n_records"] - 2


    def test_failed_least_squares_skips_only_its_unit(self, monkeypatch):
        # Process 1's design is not finite, so its SVD raises LinAlgError in
        # a stacked call of the whole chunk.  Only its unit is skipped, once,
        # under "fit"; every other record is as it was.
        from varcausal import harness
        from varcausal.estimators import LaggedDesign

        cfg = tiny_cfg(n_processes=3, orders=(2,), estimators=("ols", "ridge"), bucket_size=1)
        base = run(cfg)
        target = [r for r in base.records if r.process_id == 1][0].coeffs_true
        paths = []

        def simulate(model, n, seed, **kw):
            path = real_simulate(model, n, seed, **kw)
            if tuple(model.scalar_coeffs) == target and n == cfg.n_train:
                paths.append(path)
            return path

        def build_design(path, p):
            design = real_build_design(path, p)
            if any(path is target_path for target_path in paths):
                x = design.x.copy()
                x[5, 0] = np.nan
                design = LaggedDesign(x=x, y=design.y, p=design.p, d=design.d)
            return design

        real_simulate, real_build_design = harness.simulate, harness.build_design
        monkeypatch.setattr(harness, "simulate", simulate)
        monkeypatch.setattr(harness, "build_design", build_design)
        res = run(cfg)
        assert paths
        want = dict.fromkeys(("sampling", "simulation", "fit", "scoring"), 0)
        assert res.metadata["skipped_by_reason"] == {**want, "fit": 1}
        kept = [r for r in base.records if r.process_id != 1]
        assert len(kept) == len(base.records) - 2
        assert records_to_csv(res.records) == records_to_csv(kept)


class TestSingularWindows:
    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    def test_near_singular_window_is_counted(self, monkeypatch):
        # An AR(2) with a double root at 1 - 1e-6: its lag-one autocorrelation
        # is 1 - 5e-13, so its 2 x 2 window has condition number about 4e12,
        # past the 1e-12 cut-off, and reads as singular.
        from varcausal import harness
        from varcausal.bounds import condition_number
        from varcausal.process import VarModel

        r = 1.0 - 1e-6
        near = VarModel.from_coeffs([2.0 * r, -r * r])
        assert condition_number(near.autocov(2)) == math.inf
        assert condition_number(near.autocov(2).correlation) == math.inf
        cfg = tiny_cfg(n_processes=3, orders=(2,), mc_draws=20, bucket_size=1)
        assert run(cfg).metadata["windows_singular"] == 0
        sample = harness.rejection_sample_block

        def with_near_singular(*args, **kw):
            truths = sample(*args, **kw)
            truths[1] = near
            return truths

        monkeypatch.setattr(harness, "rejection_sample_block", with_near_singular)
        res = run(cfg)
        assert res.metadata["windows_singular"] == 1
        assert res.metadata["skipped"] == 0
        (rec,) = [r for r in res.records if r.process_id == 1]
        assert rec.kappa == math.inf and not math.isfinite(rec.thm1_rhs)
        assert all(math.isfinite(r.kappa) for r in res.records if r.process_id != 1)


class TestFitCounters:
    def test_counts_in_metadata(self):
        # Two design rows for five lags: every least-squares fit is
        # rank-deficient; ridge never is.
        kw = dict(n_processes=3, orders=(5,), n_train=7, bucket_size=1, mc_draws=0)
        meta = run(tiny_cfg(estimators=("ols", "ridge"), **kw)).metadata
        assert meta["fits_rank_deficient"] == 3
        assert meta["fits_nonconverged"] == 0

    def test_sweep_cap_is_counted(self, monkeypatch):
        from varcausal import estimators, harness

        cfg = tiny_cfg(n_processes=3, orders=(3,), estimators=("lasso",), mc_draws=0)
        assert run(cfg).metadata["fits_nonconverged"] == 0
        fits = []

        def kept(jobs, *args, **kw):
            jobs = list(jobs)
            out = estimators.fit_cv_batch(jobs, *args, **kw)
            fits.extend((design, fit) for (design, _, _), fit in zip(jobs, out))
            return out

        # A cap of 0 would leave every fold fit at zero: all strengths would
        # tie, and the largest, where zero is exact, would win.
        monkeypatch.setattr(estimators, "MAX_STEPS", 1)
        monkeypatch.setattr(harness, "fit_cv_batch", kept)
        res = run(cfg)
        assert res.metadata["fits_nonconverged"] == sum(not f.converged for _, f in fits) > 0
        assert res.metadata["n_records"] == 3
        # Counted means uncertified: the reported gap is above tolerance.
        for design, fit in fits:
            tol = estimators.DUALITY_GAP_TOL * max(1.0, float((design.y**2).mean()))
            assert fit.converged == (fit.duality_gap <= tol)

    @pytest.mark.parametrize(
        "kw",
        [
            # Three design rows for three lags: every fold trains on two rows,
            # so each Gram matrix is singular.
            dict(orders=(3,), n_train=6, estimators=("lasso", "elasticNet")),
            # Size 12 leaves 7 design rows for 5 lags: folds train on 5 or 6
            # rows, so each Gram matrix is barely determined; at the config
            # default seed one has condition number about 1e6.
            dict(
                mode="sampleSweep", orders=(5,), sweep_train_sizes=(12, 100),
                estimators=("lasso",), master_seed=0,
            ),
        ],
        ids=["standard", "sampleSweep"],
    )
    def test_short_paths_cross_validate_quickly(self, kw):
        cfg = tiny_cfg(n_processes=3, mc_draws=0, bucket_size=1, **kw)
        started = time.perf_counter()
        meta = run(cfg).metadata
        assert time.perf_counter() - started < 2.0
        assert meta["fits_nonconverged"] == 0
        assert meta["n_records"] == 6


class TestThm1NanCounter:
    @pytest.mark.parametrize("mode", ["standard", "confounded"])
    def test_refused_scheme_is_counted(self, monkeypatch, mode):
        from varcausal import harness
        from varcausal.errors import NumericalError

        cfg = tiny_cfg(mode=mode, n_processes=3, orders=(2,), mc_draws=50, bucket_size=1)
        assert run(cfg).metadata["thm1_nan"] == 0
        calls = []
        real = harness.thm1_bound

        def refuse_second(*args, **kw):
            # One thm1 evaluation per process, in process order.
            calls.append(None)
            if len(calls) == 2:
                raise NumericalError("invalid block scheme")
            return real(*args, **kw)

        monkeypatch.setattr(harness, "thm1_bound", refuse_second)
        res = run(cfg)
        assert res.metadata["skipped"] == 0 and len(calls) == 3
        assert res.metadata["thm1_nan"] == 1
        assert [r.process_id for r in res.records if math.isnan(r.thm1_rhs)] == [1]

    @pytest.mark.parametrize(
        "mode, kw",
        [
            ("standard", {}),
            ("omegaSweep", {"sweep_omegas": (1, 3)}),
            ("sampleSweep", {"sweep_train_sizes": (30, 60)}),
        ],
    )
    def test_failing_unit_is_skipped(self, monkeypatch, mode, kw):
        # One (process, training size) unit whose scoring fails is skipped;
        # the run goes on and every other record stays as it was.
        from varcausal import harness
        from varcausal.errors import NumericalError

        cfg = tiny_cfg(mode=mode, n_processes=3, orders=(2,), mc_draws=50, bucket_size=1, **kw)
        base = run(cfg)
        assert base.metadata["skipped"] == 0
        target = [r for r in base.records if r.process_id == 1][-1]
        real = harness.prop1_bound

        def fail_on_target(pair, omega):
            if tuple(pair.fitted.scalar_coeffs) == target.coeffs_fit:
                raise NumericalError("injected failure")
            return real(pair, omega)

        monkeypatch.setattr(harness, "prop1_bound", fail_on_target)
        res = run(cfg)
        assert res.metadata["skipped"] == 1
        kept = [
            r for r in base.records
            if (r.process_id, r.n_train) != (target.process_id, target.n_train)
        ]
        assert len(kept) < len(base.records)
        assert records_to_csv(res.records) == records_to_csv(kept)
        assert res.metadata["n_records"] == len(kept)

    def test_admissible_scheme_leaves_positive_confidence(self):
        # Why the counter reads 0 on ordinary runs: the scheme the harness
        # picks never drives thm1's corrected confidence to zero or below.
        from varcausal.bounds import admissible_block_scheme, thm1_bound
        from varcausal.process import VarModel, simulate

        model = VarModel.from_coeffs([0.5])
        path = simulate(model, 1000, 3)
        for n in (3, 5, 10, 37, 100, 1000):
            sub = SamplePath(values=path.values[:n], seed=0, burn_in=0)
            for rho in (0.01, 0.3, 0.7, 0.9, 0.99, 0.999):
                for confidence in (0.001, 0.05, 0.1, 0.5, 0.9):
                    scheme = admissible_block_scheme(n, rho, confidence)
                    rep = thm1_bound(
                        model, sub, scheme, 1, 1, kappa=1.0, m_trunc=None, rho=rho,
                        confidence=confidence, draws=8,
                    )
                    assert rep.inputs["confidence_effective"] > 0.0, (n, rho, confidence)


class TestEmpiricalAgreement:
    def test_analytic_vs_empirical_risk_within_five_plugin_errors(self):
        # Loose, sampling-limited: the plug-in standard error ignores window
        # autocorrelation, hence the wide factor.
        from varcausal.companion import build_companion, matrix_power
        from varcausal.process import VarModel, simulate
        from varcausal.risk import _lag_matrix
        from varcausal.seeding import STAGE_TEST, derive_rng

        cfg = tiny_cfg(n_processes=60, orders=(3,), n_train=100, n_test=1000,
                       mc_draws=0, bucket_size=30, master_seed=11)
        res = run(cfg)
        for r in res.records:
            truth = VarModel.from_coeffs(r.coeffs_true)
            fitted = VarModel.from_coeffs(r.coeffs_fit)
            test = simulate(
                truth, cfg.n_test,
                derive_rng(cfg.master_seed, r.process_id, STAGE_TEST),
                init="stationary",
            )
            x = test.values
            p = fitted.p
            weights = matrix_power(build_companion(fitted.coeffs).dense, 1)[:1]
            lagged = _lag_matrix(x, p)
            count = x.shape[0] - p
            sq = ((x[p:] - lagged[:count] @ weights.T) ** 2).ravel()
            se = sq.std() / np.sqrt(len(sq))
            assert abs(sq.mean() - r.s_analytic) <= 5 * se
            assert sq.mean() == pytest.approx(r.s_empirical, rel=1e-12)


class TestRecordCsv:
    def test_header_and_row_count(self):
        cfg = tiny_cfg(n_processes=3, bucket_size=3)
        res = run(cfg)
        lines = records_to_csv(res.records).strip().split("\n")
        assert lines[0].startswith("process_id,order_true,order_fit,estimator,regime,kappa")
        assert len(lines) == 1 + len(res.records)

    def test_nan_and_inf_render_readably(self):
        rec = make_record(0, math.inf, math.nan)
        text = records_to_csv([rec])
        assert "inf" in text and "nan" in text
