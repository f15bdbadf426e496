"""The three workloads: `varcausal experiment` configurations and their checks.

Each workload is one study configuration.  ``--seed`` becomes the study's
master seed, so a seed fixes every sampled process, path and fit.  The
output check runs a reduced copy of the configuration (``check``) at
``REFERENCE_SEED`` and compares it with the files under ``reference/``.
Sizes are set so that one invocation takes one to three seconds on 2 CPUs and
the work per invocation varies little from seed to seed (see README.md).
"""

from __future__ import annotations

from dataclasses import dataclass

#: Master seed of the stored reference outputs (the config default).
REFERENCE_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict
    check: dict  # overrides of ``config`` for the reference check
    rtol: float  # relative tolerance of the reference comparison
    atol: float = 1e-9

    def settings(self, reference: bool = False) -> dict:
        return {**self.config, **self.check} if reference else dict(self.config)

    def units(self, reference: bool = False) -> int:
        """Stable-process draws the study attempts (what ``skipped`` counts)."""
        cfg = self.settings(reference)
        units = cfg["n_processes"] * len(_items(cfg["orders"]))
        if cfg["mode"] == "sampleSweep":
            units *= len(_items(cfg["sweep_train_sizes"]))
        return units

    def records_per_unit(self) -> int:
        cfg = self.config
        if cfg["mode"] == "sampleSweep":
            return 1
        return len(_items(cfg["estimators"]))

    def config_text(self, reference: bool = False) -> str:
        return "".join(f"{k} = {v}\n" for k, v in self.settings(reference).items())


def _items(value) -> list[str]:
    return [v for v in str(value).split(",") if v.strip()]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="study_standard",
            why="the paper's main study (orders 3,5,7, OLS, Monte Carlo); rejection sampling "
            "of stable processes dominates",
            config={
                "mode": "standard",
                "orders": "3,5,7",
                "n_processes": 40,
                "estimators": "ols",
                "n_train": 100,
                "n_test": 1000,
                "mc_draws": 1000,
                "bucket_size": 50,
            },
            check={"n_processes": 8, "bucket_size": 6},
            rtol=1e-6,
        ),
        Workload(
            name="ridge_sweep",
            why="training-size sweep to n_train 1000 with ridge cross-validation; the only "
            "long paths and only sweep over sizes",
            config={
                "mode": "sampleSweep",
                "orders": 5,
                "n_processes": 21,
                "estimators": "ridge",
                "sweep_train_sizes": "10,100,1000",
                "mc_draws": 0,
                "bucket_size": 50,
            },
            check={"n_processes": 6},
            rtol=1e-6,
        ),
        Workload(
            name="cd_fit",
            why="lasso and elastic-net cross-validation: coordinate-descent fits take most of "
            "the time, sampling almost none",
            config={
                "mode": "standard",
                "orders": 3,
                "n_processes": 4,
                "estimators": "lasso,elasticNet",
                "coeff_lo": -0.05,
                "coeff_hi": 0.05,
                "mc_draws": 0,
                "bucket_size": 10,
            },
            check={"n_processes": 2, "bucket_size": 2},
            rtol=1e-3,
            atol=1e-6,
        ),
    )
}
