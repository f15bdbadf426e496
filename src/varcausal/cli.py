"""Command-line workbench: simulate | risk | bounds | experiment.

All stochastic output is fully determined by ``--seed`` (and the config's
master seed); rerunning any invocation with the same inputs reproduces every
output file byte for byte.  Errors print a single machine-parseable line
``error: <category>: <message>`` on stderr and map to exit codes:
0 ok, 2 bad input, 3 numerical failure, 4 config error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .bounds import (
    admissible_block_scheme,
    condition_number,
    cor2_bound,
    prop1_bound,
    schur_tight_bound,
    thm1_bound,
)
from .errors import BadInputError, ConfigError, NumericalError, VarCausalError
from .harness import (
    ExperimentConfig,
    records_to_csv,
    run,
    summaries_to_csv,
    sweep_to_csv,
)
from .interventions import InterventionSpec
from .process import SamplePath, VarModel, _recursion, is_stationary, simulate, values_to_csv
from .risk import ModelPair, causal_risk, risk_report
from .seeding import derive_rng

_CATEGORY = {2: "bad-input", 3: "numerical", 4: "config"}


def _read_model(path: str) -> VarModel:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise BadInputError(f"cannot read model file {path}: {exc}") from exc
    return VarModel.from_json(text)


def _read_spec(path: str) -> InterventionSpec:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise BadInputError(f"cannot read intervention file {path}: {exc}") from exc
    return InterventionSpec.from_json(text)


def _cmd_simulate(args) -> int:
    if args.n < 1:
        raise BadInputError("n must be positive")
    model = _read_model(args.model)
    ok, spec = is_stationary(model)
    if not ok and not args.allow_unstable:
        raise NumericalError(
            f"model is unstable: max eigenvalue modulus {spec.max_modulus:.6f} >= 1 "
            "(pass --allow-unstable to force)"
        )
    if ok:
        text = simulate(model, args.n, args.seed, burn_in=args.burn_in).to_csv()
    else:
        # Forced unstable simulation: zero start, no burn-in.  Divergent
        # values are written as-is (they may overflow to inf).
        rng = derive_rng(args.seed)
        eps = rng.standard_normal((args.n, model.d)) * model.noise_variance**0.5
        text = values_to_csv(_recursion(model.coeffs, np.zeros((model.p, model.d)), eps))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(text)
    print(str(out))
    return 0


def _cmd_risk(args) -> int:
    truth = _read_model(args.truth)
    fitted = _read_model(args.fitted)
    pair = ModelPair(truth=truth, fitted=fitted)
    if args.spec:
        spec = _read_spec(args.spec)
    else:
        spec = InterventionSpec.averaged(args.omega, components=(args.component,))
    report = risk_report(pair, spec)
    print(report.to_json())
    return 0


def _cmd_bounds(args) -> int:
    truth = _read_model(args.truth)
    fitted = _read_model(args.fitted)
    pair = ModelPair(truth=truth, fitted=fitted)
    reports = [prop1_bound(pair, args.omega, args.component)]
    if pair.d == 1:
        reports.append(cor2_bound(pair, args.omega))
        try:
            reports.append(schur_tight_bound(pair, args.omega))
        except (NumericalError, BadInputError):
            pass  # unstable candidate model: the Schur bound is not defined
    if args.path:
        sample = SamplePath.from_csv(Path(args.path).read_text())
        scheme = admissible_block_scheme(sample.n, args.rho, args.confidence)
        kappa = condition_number(pair.autocov())
        spec = InterventionSpec.averaged(args.omega, components=(args.component,))
        g_analytic = float(causal_risk(pair, spec).sum())
        reports.append(
            thm1_bound(
                fitted,
                sample,
                scheme,
                args.omega,
                args.component,
                kappa=max(kappa, 1.0),
                m_trunc=args.truncation,
                rho=args.rho,
                confidence=args.confidence,
                seed=args.seed,
                lhs=g_analytic,
            )
        )
    header = f"{'name':<12}{'lhs':>16}{'rhs':>16}{'holds':>8}{'slack':>16}"
    print(header)
    for rep in reports:
        print(
            f"{rep.name:<12}{rep.lhs:>16.6g}{rep.value:>16.6g}"
            f"{str(rep.holds):>8}{rep.slack:>16.6g}"
        )
    return 0


def _parse_scalar(text: str):
    low = text.strip()
    if low.lower() in ("true", "false"):
        return low.lower() == "true"
    for cast in (int, float):
        try:
            return cast(low)
        except ValueError:
            continue
    return low


def _parse_config_value(key: str, text: str):
    text = text.strip()
    if key == "order_pairs":
        if not text:
            return ()
        pairs = []
        for item in text.split(","):
            p_fit, _, q_true = item.partition(":")
            if not q_true:
                raise ConfigError(f"order_pairs entries must look like p:q, got {item!r}")
            pairs.append((int(p_fit), int(q_true)))
        return tuple(pairs)
    if "," in text:
        return tuple(_parse_scalar(v) for v in text.split(",") if v.strip())
    return _parse_scalar(text)


def read_config_file(path: str) -> dict:
    """Flat ``key = value`` lines; '#' starts a comment; lists are comma-separated."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        out[key.strip()] = _parse_config_value(key.strip(), value)
    return out


def _cmd_experiment(args) -> int:
    mapping: dict = {}
    if args.config:
        mapping.update(read_config_file(args.config))
    for override in args.set or []:
        key, eq, value = override.partition("=")
        if not eq:
            raise ConfigError(f"--set expects key=value, got {override!r}")
        mapping[key.strip()] = _parse_config_value(key.strip(), value)
    if args.seed is not None:
        mapping["master_seed"] = args.seed
    cfg = ExperimentConfig.from_mapping(mapping)

    result = run(cfg)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "records.csv").write_text(records_to_csv(result.records))
    for name, summaries in result.summaries.items():
        is_sweep = cfg.mode == "sampleSweep"
        text = sweep_to_csv(summaries) if is_sweep else summaries_to_csv(summaries)
        fname = "summaries.csv" if name in ("standard", "confounded") else f"summaries_{name}.csv"
        (out_dir / fname).write_text(text)
    (out_dir / "metadata.json").write_text(
        json.dumps(result.metadata, indent=2, sort_keys=True) + "\n"
    )
    print(str(out_dir))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="varcausal",
        description="Statistical vs. interventional forecast risk for VAR models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="simulate a sample path to CSV")
    sim.add_argument("--model", required=True, help="model JSON file")
    sim.add_argument("--n", type=int, required=True, help="path length")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--burn-in", type=int, default=None)
    sim.add_argument("--allow-unstable", action="store_true")
    sim.add_argument("--out", required=True, help="output CSV path")
    sim.set_defaults(func=_cmd_simulate)

    risk = sub.add_parser("risk", help="analytic risk report for a model pair")
    risk.add_argument("--truth", required=True)
    risk.add_argument("--fitted", required=True)
    risk.add_argument("--omega", type=int, default=1)
    risk.add_argument("--component", type=int, default=1)
    risk.add_argument("--spec", default=None, help="intervention JSON file")
    risk.set_defaults(func=_cmd_risk)

    bounds = sub.add_parser("bounds", help="evaluate all applicable bounds")
    bounds.add_argument("--truth", required=True)
    bounds.add_argument("--fitted", required=True)
    bounds.add_argument("--omega", type=int, default=1)
    bounds.add_argument("--component", type=int, default=1)
    bounds.add_argument("--path", default=None, help="sample path CSV for the finite-sample bound")
    bounds.add_argument("--rho", type=float, default=0.9, help="mixing rate (user input)")
    bounds.add_argument("--truncation", type=float, default=None, help="loss truncation level")
    bounds.add_argument("--confidence", type=float, default=0.1)
    bounds.add_argument("--seed", type=int, default=0)
    bounds.set_defaults(func=_cmd_bounds)

    exp = sub.add_parser("experiment", help="run a simulation study")
    exp.add_argument("--config", default=None, help="flat key=value config file")
    exp.add_argument("--set", action="append", metavar="KEY=VALUE", help="config override")
    exp.add_argument("--seed", type=int, default=None, help="master seed override")
    exp.add_argument("--out", required=True, help="output directory")
    exp.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except VarCausalError as exc:
        code = getattr(exc, "exit_code", 2)
        print(f"error: {_CATEGORY.get(code, 'bad-input')}: {exc}", file=sys.stderr)
        return code
    except OSError as exc:
        print(f"error: bad-input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
