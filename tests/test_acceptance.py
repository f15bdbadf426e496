"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Two criteria are known to fail for documented
mathematical reasons and are implemented faithfully anyway:

* criterion 5: the ``p^p`` envelope constant for the top autocovariance
  eigenvalue and the lag covariances is too small near repeated companion
  roots (the quantity ``gamma_0 * (1 - delta^2)`` is unbounded along the
  double-root family, e.g. two-lag coefficients ``(1.8, -0.81)`` give
  ``gamma_0 = 264`` against an envelope of ``21``), so a few percent of
  uniformly sampled order-2/3 processes violate those two bound families.
  The minimum-eigenvalue bound is sound and always holds.
* criterion 10: for estimator fits the power-difference envelope is
  ``(omega * delta^(omega-1))^2``, which shrinks by horizon 7 only when
  ``delta < ~0.72``; rejection-sampled order-5 processes concentrate near
  the stability boundary, so bucketed worst-case gaps mostly grow from
  horizon 1 to 7 (the horizon-7 analytic gaps are Monte-Carlo verified).
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy import linalg as sla
from scipy import stats

from varcausal.bounds import condition_number, prop1_bound, tightness_pair
from varcausal.companion import (
    build_companion,
    power_partition,
    schur_polynomial,
    spectrum,
)
from varcausal.estimators import build_design, fit_ols, fit_regularized
from varcausal.harness import (
    ExperimentConfig,
    bucket_by_kappa,
    run,
)
from varcausal.interventions import InterventionSpec
from varcausal.process import (
    VarModel,
    autocov_blocks,
    empirical_autocov,
    exact_autocov,
    rejection_sample_stable,
    simulate,
)
from varcausal.risk import (
    ModelPair,
    causal_risk,
    mc_causal_risk,
    mc_risk_gap,
    relative_shift_gap,
    risk_difference,
    stat_risk,
)
from varcausal.seeding import derive_rng


def report(num: int, ok: bool, detail: str, elapsed: float, budget: float | None):
    flag = "PASS" if ok else "FAIL"
    line = f"criterion {num}: {flag} ({elapsed:.1f}s) - {detail}"
    print(line)
    if budget is not None:
        assert elapsed < budget, f"criterion {num} exceeded its runtime budget: {line}"
    assert ok, line


def test_criterion_01_schur_power_identity():
    """Hook-Schur values match direct companion powers to 1e-8 relative."""
    started = time.monotonic()
    worst = 0.0
    count = 0
    attempt = 0
    while count < 1000:
        rng = derive_rng(606, attempt)
        attempt += 1
        p = int(rng.integers(1, 8))
        model = rejection_sample_stable(p, 1, -2, 2, rng)
        comp = build_companion(model.coeffs)
        spec = spectrum(comp)
        if not spec.distinct:
            continue
        count += 1
        eig = spec.eigenvalues
        power = np.eye(p)
        for w in range(1, 11):
            power = power @ comp.dense
            for k in range(1, p + 1):
                direct = abs(power[0, k - 1])
                val = schur_polynomial(power_partition(w, k), eig)
                got = abs(val.real)
                assert abs(val.imag) < 1e-8 * (1.0 + abs(val.real))
                err = abs(got - direct)
                rel = err / direct if direct > 0 else err
                worst = max(worst, rel)
    elapsed = time.monotonic() - started
    report(1, worst <= 1e-8, f"1000 matrices, worst relative error {worst:.2e}", elapsed, 10.0)


def test_criterion_02_first_order_null_case():
    """Averaged causal risk equals statistical risk exactly for AR(1)."""
    started = time.monotonic()
    worst_abs = 0.0
    worst_z = 0.0
    for i in range(50):
        rng = derive_rng(707, i)
        truth = rejection_sample_stable(1, 1, -2, 2, rng)
        fitted = rejection_sample_stable(1, 1, -2, 2, rng)
        pair = ModelPair(truth=truth, fitted=fitted)
        spec = InterventionSpec.averaged(1)
        gap = abs(float(causal_risk(pair, spec)[0] - stat_risk(pair, 1)[0]))
        worst_abs = max(worst_abs, gap)
        mc_gap, se = mc_risk_gap(pair, spec, 1_000_000, rng)
        z = abs(mc_gap) / se if se > 0 else 0.0
        worst_z = max(worst_z, z)
    elapsed = time.monotonic() - started
    ok = worst_abs <= 1e-12 and worst_z <= 3.0
    report(
        2,
        ok,
        f"50 pairs: worst analytic gap {worst_abs:.1e}, worst Monte-Carlo z {worst_z:.2f}",
        elapsed,
        60.0,
    )


def test_criterion_03_gap_formula_cross_validation():
    """Quadratic-form gap equals the cross-term expansion; Monte Carlo agrees."""
    started = time.monotonic()
    worst_rel = 0.0
    for i in range(1000):
        rng = derive_rng(808, i)
        p, q = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        w = int(rng.integers(1, 6))
        truth = rejection_sample_stable(q, 1, -2, 2, rng)
        fitted = rejection_sample_stable(p, 1, -2, 2, rng)
        pair = ModelPair(truth=truth, fitted=fitted)
        diff = risk_difference(pair, InterventionSpec.averaged(w))
        err = abs(diff.quad_form - diff.cross_term)
        rel = err / max(diff.quad_form, 1e-12)
        worst_rel = max(worst_rel, min(rel, err))
    agree = worst_rel <= 1e-10

    worst_z = 0.0
    for i in range(20):
        rng = derive_rng(809, i)
        p, q = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        w = int(rng.integers(1, 6))
        truth = rejection_sample_stable(q, 1, -2, 2, rng)
        fitted = rejection_sample_stable(p, 1, -2, 2, rng)
        pair = ModelPair(truth=truth, fitted=fitted)
        spec = InterventionSpec.averaged(w)
        g = float(causal_risk(pair, spec).sum())
        mc, se = mc_causal_risk(pair, spec, 1_000_000, rng)
        worst_z = max(worst_z, abs(mc - g) / se)
    elapsed = time.monotonic() - started
    ok = agree and worst_z <= 3.0
    report(
        3,
        ok,
        f"1000 pairs: worst route disagreement {worst_rel:.1e}; "
        f"20 spot Monte-Carlo checks, worst z {worst_z:.2f}",
        elapsed,
        300.0,
    )


def test_criterion_04_condition_number_bound():
    """The (2 kappa - 1) bound holds on 1e4 fitted instances; tightness attained."""
    started = time.monotonic()
    violations = 0
    checked = 0

    for i in range(6000):
        rng = derive_rng(909, i)
        q = int(rng.integers(1, 8))
        p = int(rng.integers(1, 8))
        w = int(rng.integers(1, 11))
        estimator = ("ols", "ridge", "lasso", "elasticNet")[i % 4]
        truth = rejection_sample_stable(q, 1, -2, 2, rng)
        train = simulate(truth, 100, rng, init="stationary")
        design = build_design(train, p)
        if estimator == "ols":
            fit = fit_ols(design)
        else:
            fit = fit_regularized(design, estimator, 0.05, 0.5)
        pair = ModelPair(truth=truth, fitted=fit.model)
        violations += not prop1_bound(pair, w).holds
        checked += 1

    for i in range(2000):
        rng = derive_rng(910, i)
        q = int(rng.integers(1, 8))
        w = int(rng.integers(1, 11))
        truth = rejection_sample_stable(q, 1, -2, 2, rng)
        scale = 10.0 ** rng.uniform(-3, 0.5)
        fitted = VarModel.from_coeffs(truth.scalar_coeffs + scale * rng.standard_normal(q))
        violations += not prop1_bound(ModelPair(truth=truth, fitted=fitted), w).holds
        checked += 1

    for i in range(1000):
        rng = derive_rng(911, i)
        p = int(rng.integers(1, 3))
        truth = rejection_sample_stable(p, 2, -2, 2, rng)
        train = simulate(truth, 100, rng, init="stationary")
        fit = fit_ols(build_design(train, p))
        pair = ModelPair(truth=truth, fitted=fit.model)
        w = int(rng.integers(1, 11))
        for component in (1, 2):
            violations += not prop1_bound(pair, w, component).holds
            checked += 1

    worst_ratio = math.inf
    for kappa in np.linspace(2.0, 100.0, 20):
        pair = tightness_pair((kappa - 1) / (kappa + 1))
        s = float(stat_risk(pair, 1).sum())
        g = float(causal_risk(pair, InterventionSpec.averaged(1)).sum())
        kap = condition_number(pair.autocov())
        ratio = (g - s) / (s - pair.truth.noise_variance)
        worst_ratio = min(worst_ratio, ratio / ((kap - 1) / 2))
    elapsed = time.monotonic() - started
    ok = violations == 0 and checked == 10_000 and worst_ratio >= 0.9
    report(
        4,
        ok,
        f"{checked} instances, {violations} violations; "
        f"tightness ratio >= {worst_ratio:.6f} of (kappa-1)/2 over kappa in [2, 100]",
        elapsed,
        600.0,
    )


def test_criterion_05_spectral_envelope_bounds():
    """Claimed autocovariance envelopes on 1000 sampled processes, orders <= 5.

    Known to fail: the p^p constant cannot hold near repeated companion
    roots (see the module docstring); violations are counted per family.
    """
    started = time.monotonic()
    lmin_viol = 0
    lmax_viol = 0
    gamma_viol = 0
    for p in range(1, 6):
        for i in range(200):
            rng = derive_rng(111, p, i)
            model = rejection_sample_stable(p, 1, -2, 2, rng)
            delta = spectrum(build_companion(model.coeffs)).max_modulus
            gam = autocov_blocks(model, 20)[:, 0, 0]
            envelope = float(p) ** p / (1.0 - delta**2)
            if np.any(np.abs(gam) > envelope * delta ** np.arange(21) * (1 + 1e-9)):
                gamma_viol += 1
            lmin_floor = 1.0 / (1.0 + delta) ** (2 * p)
            bad_min = bad_max = False
            for n in (1, 2, 5, 10):
                eigs = np.linalg.eigvalsh(sla.toeplitz(gam[:n]))
                if eigs[0] < lmin_floor * (1 - 1e-9):
                    bad_min = True
                if eigs[-1] > 2.0 * envelope * n * (1 + 1e-9):
                    bad_max = True
            lmin_viol += bad_min
            lmax_viol += bad_max
    elapsed = time.monotonic() - started
    ok = lmin_viol == 0 and lmax_viol == 0 and gamma_viol == 0
    report(
        5,
        ok,
        f"1000 processes: lambda_min violations {lmin_viol}, "
        f"lambda_max violations {lmax_viol}, gamma_k violations {gamma_viol} "
        "(the last two are a documented defect of the p^p constant)",
        elapsed,
        60.0,
    )


def test_criterion_06_autocovariance_correctness():
    """Fixed-point residual, closed-form lag-1 ratio, and empirical agreement."""
    started = time.monotonic()

    worst_resid = 0.0
    for i in range(150):
        rng = derive_rng(222, i)
        p = int(rng.integers(1, 8))
        d = 2 if i % 5 == 0 and p <= 3 else 1
        model = rejection_sample_stable(p, d, -2, 2, rng)
        cov = exact_autocov(model, p)
        comp = build_companion(model.coeffs).dense
        se = np.zeros_like(cov.dense)
        se[:d, :d] = model.noise_variance * np.eye(d)
        resid = float(np.abs(cov.dense - comp @ cov.dense @ comp.T - se).max())
        worst_resid = max(worst_resid, resid / cov.variance_scale)
    resid_ok = worst_resid < 1e-9

    cov2 = exact_autocov(VarModel.from_coeffs([0.5, 0.3]), 2)
    ratio_err = abs(cov2.dense[0, 1] / cov2.dense[0, 0] - 5 / 7)
    ratio_ok = ratio_err <= 1e-10

    # Random stable order-5 process (moduli capped so one million steps give
    # enough effective samples for the 5 percent check).
    attempt = 0
    while True:
        rng = derive_rng(223, attempt)
        attempt += 1
        model = rejection_sample_stable(5, 1, -2, 2, rng)
        if spectrum(build_companion(model.coeffs)).max_modulus <= 0.95:
            break
    exact = exact_autocov(model, 5).dense
    path = simulate(model, 1_000_000, derive_rng(224), init="stationary")
    emp = empirical_autocov(path, 5).dense
    emp_err = float(np.abs(emp - exact).max() / exact[0, 0])
    emp_ok = emp_err < 0.05

    elapsed = time.monotonic() - started
    ok = resid_ok and ratio_ok and emp_ok
    report(
        6,
        ok,
        f"worst scaled fixed-point residual {worst_resid:.1e}; lag-1 ratio error "
        f"{ratio_err:.1e}; empirical deviation {emp_err:.3%} of the variance",
        elapsed,
        120.0,
    )


def test_criterion_07_relative_intervention_gap():
    """Monte-Carlo shift gaps match the closed form across alpha and horizon."""
    started = time.monotonic()
    worst_z = 0.0
    cells = 0
    for i in range(20):
        rng = derive_rng(333, i)
        p = int(rng.integers(1, 6))
        q = int(rng.integers(1, 6))
        truth = rejection_sample_stable(q, 1, -2, 2, rng)
        fitted = rejection_sample_stable(p, 1, -2, 2, rng)
        pair = ModelPair(truth=truth, fitted=fitted)
        for alpha in (0.0, 1.0, 2.0):
            for w in (1, 2, 5):
                cells += 1
                expect = relative_shift_gap(pair, w, alpha)
                gap, se = mc_risk_gap(
                    pair, InterventionSpec.shift(w, alpha), 200_000, derive_rng(335, i, int(alpha), w)
                )
                scale = max(se, 1e-12)
                worst_z = max(worst_z, abs(gap - expect) / scale)
    elapsed = time.monotonic() - started
    ok = worst_z <= 3.0 and cells == 180
    report(7, ok, f"{cells} cells, worst z {worst_z:.2f}", elapsed, 180.0)


def test_criterion_08_study_reproduction():
    """Standard study: heavy causal tails, bound domination, kappa monotonicity."""
    started = time.monotonic()
    cfg = ExperimentConfig(
        n_processes=2000,
        orders=(3, 5, 7),
        estimators=("ols",),
        n_train=100,
        n_test=1000,
        bucket_size=500,
        master_seed=2027,
        mc_draws=0,
    )
    res = run(cfg)
    g = np.array([r.g_analytic for r in res.records])
    s = np.array([r.s_analytic for r in res.records])
    frac = float((g > 2 * s).mean())
    buckets = res.summaries["standard"]
    dominated = all(b.bound >= b.max_diff for b in buckets)
    rho = stats.spearmanr(
        [b.kappa_mid for b in buckets], [b.max_diff for b in buckets]
    ).statistic
    elapsed = time.monotonic() - started
    ok = (
        frac > 0.0
        and dominated
        and rho > 0.8
        and res.metadata["prop1_violations"] == 0
    )
    report(
        8,
        ok,
        f"{len(res.records)} records: G > 2S on {frac:.1%}; bound dominates all "
        f"{len(buckets)} buckets: {dominated}; Spearman {rho:.3f}; "
        f"condition-number bound violations {res.metadata['prop1_violations']}",
        elapsed,
        900.0,
    )


def test_criterion_09_training_size_sweep():
    """Median |G - S| strictly decreases across training sizes with ridge."""
    started = time.monotonic()
    cfg = ExperimentConfig(
        mode="sampleSweep",
        n_processes=400,
        orders=(5,),
        estimators=("ridge",),
        sweep_train_sizes=(10, 100, 1000),
        n_test=1000,
        bucket_size=100,
        master_seed=515,
        mc_draws=0,
    )
    res = run(cfg)
    medians = [res.summaries[f"n{n}"][0].q50 for n in (10, 100, 1000)]
    elapsed = time.monotonic() - started
    ok = medians[0] > medians[1] > medians[2]
    report(
        9,
        ok,
        "medians " + " > ".join(f"{m:.4f}" for m in medians),
        elapsed,
        600.0,
    )


def test_criterion_10_horizon_decay():
    """Bucketed worst-case gap at horizon 7 below its horizon-1 value.

    Known to fail under the uniform rejection-sampling protocol: see the
    module docstring.  Implemented faithfully (stable-fit filter, matched
    seeds, 90 percent of buckets required).
    """
    started = time.monotonic()
    cfg = ExperimentConfig(
        mode="omegaSweep",
        n_processes=1100,
        orders=(5,),
        estimators=("ols",),
        sweep_omegas=(1, 5, 7),
        n_train=100,
        n_test=300,
        bucket_size=100,
        master_seed=99,
        mc_draws=0,
    )
    res = run(cfg)
    stable_pids = {
        r.process_id
        for r in res.records
        if r.regime == "single" and r.omega == 1 and r.delta_fit < 1.0
    }
    per_omega = {}
    for r in res.records:
        if r.regime == "single" and r.process_id in stable_pids:
            per_omega.setdefault(r.omega, []).append(r)
    buckets = {w: bucket_by_kappa(per_omega[w], 100)[0] for w in (1, 7)}
    n_buckets = len(buckets[1])
    decayed = sum(
        buckets[7][i].max_diff < buckets[1][i].max_diff for i in range(n_buckets)
    )
    elapsed = time.monotonic() - started
    ok = n_buckets > 0 and decayed / n_buckets >= 0.9
    report(
        10,
        ok,
        f"{len(stable_pids)} stable fits, {decayed}/{n_buckets} buckets decayed "
        "(documented defect: the power-difference envelope grows at horizon 7 "
        "for near-boundary processes)",
        elapsed,
        600.0,
    )


def test_criterion_11_cli_determinism(tmp_path, capsys):
    """Repeated CLI invocations produce byte-identical CSV/JSON outputs."""
    from varcausal.cli import main

    started = time.monotonic()
    model_file = tmp_path / "model.json"
    model_file.write_text(VarModel.from_coeffs([0.5, 0.3]).to_json())
    fitted_file = tmp_path / "fitted.json"
    fitted_file.write_text(VarModel.from_coeffs([0.6, 0.2]).to_json())

    identical = True

    paths = []
    for name in ("p1.csv", "p2.csv"):
        out = tmp_path / name
        assert main(["simulate", "--model", str(model_file), "--n", "200",
                     "--seed", "11", "--out", str(out)]) == 0
        paths.append(out.read_bytes())
    identical &= paths[0] == paths[1]

    outputs = []
    for _ in range(2):
        capsys.readouterr()  # flush anything accumulated so far
        assert main(["risk", "--truth", str(model_file), "--fitted", str(fitted_file)]) == 0
        outputs.append(capsys.readouterr().out)
    identical &= outputs[0] == outputs[1]

    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "n_processes = 8\norders = 2,3\nn_train = 60\nn_test = 120\n"
        "bucket_size = 8\nmc_draws = 50\n"
    )
    run_files = []
    for name in ("runA", "runB"):
        out_dir = tmp_path / name
        assert main(["experiment", "--config", str(cfg), "--seed", "3",
                     "--out", str(out_dir)]) == 0
        run_files.append(
            {f.name: f.read_bytes() for f in sorted(out_dir.iterdir())}
        )
    identical &= run_files[0] == run_files[1]

    sweep_cfg = tmp_path / "sweep.cfg"
    sweep_cfg.write_text(
        "mode = sampleSweep\nn_processes = 4\norders = 2\nestimators = ridge\n"
        "sweep_train_sizes = 20,40\nn_test = 60\nmc_draws = 0\n"
    )
    sweep_files = []
    for name in ("sweepA", "sweepB"):
        out_dir = tmp_path / name
        assert main(["experiment", "--config", str(sweep_cfg), "--seed", "4",
                     "--out", str(out_dir)]) == 0
        sweep_files.append(
            {f.name: f.read_bytes() for f in sorted(out_dir.iterdir())}
        )
    identical &= sweep_files[0] == sweep_files[1]

    elapsed = time.monotonic() - started
    report(11, identical, "simulate, risk, and experiment reruns byte-identical", elapsed, None)
