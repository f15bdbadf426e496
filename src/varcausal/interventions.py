"""The do-operator on VAR processes.

Atomic interventions overwrite selected components of the lag window and
sever their incoming structural dependencies; the intervened slots become
independent of everything else, so the window's second-moment matrix keeps
its diagonal (or takes the squared pinned value) and loses the off-diagonal
entries of the intervened rows and columns.  Relative interventions add a
shift while keeping dependencies, leaving the window covariance unchanged.

Window convention: the stacked window is ordered most-recent-first, so the
intervened time step occupies the first block of the covariance matrix
(flat indices ``0 .. d-1``).  Simultaneous interventions on earlier window
steps are expressed through ``time_lags``; intervention values on distinct
slots are always drawn independently (product of marginals).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import BadInputError
from .process import AutocovMatrix, VarModel
from .seeding import as_rng

ATOMIC_FIXED = "atomicFixed"
ATOMIC_AVERAGED = "atomicAveraged"
RELATIVE_SHIFT = "relativeShift"
_KINDS = (ATOMIC_FIXED, ATOMIC_AVERAGED, RELATIVE_SHIFT)


@dataclass(frozen=True)
class InterventionSpec:
    """What to intervene on: kind, horizon, components, and values.

    ``omega`` is the number of steps between the intervened time step and the
    forecast target.  ``components`` are 1-based indices into the process
    dimension.  ``values`` pins each component for ``atomicFixed``;
    ``alpha`` is the additive shift for ``relativeShift``; ``atomicAveraged``
    carries no values (they are drawn from the stationary marginal).
    ``time_lags`` selects which window steps are hit (0 is the step ``omega``
    before the target); the default intervenes on that single step.
    """

    kind: str
    omega: int
    components: tuple[int, ...]
    values: tuple[float, ...] | None = None
    alpha: float | None = None
    time_lags: tuple[int, ...] = (0,)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise BadInputError(f"unknown intervention kind {self.kind!r}")
        if self.omega < 1:
            raise BadInputError("omega must be a positive integer")
        if not self.components:
            raise BadInputError("at least one component must be intervened on")
        if len(set(self.components)) != len(self.components):
            raise BadInputError("intervened components must be distinct")
        if any(c < 1 for c in self.components):
            raise BadInputError("components are 1-based indices")
        if len(set(self.time_lags)) != len(self.time_lags) or any(
            l < 0 for l in self.time_lags
        ):
            raise BadInputError("time_lags must be distinct non-negative integers")
        if self.kind == ATOMIC_FIXED:
            if self.values is None or len(self.values) != len(self.components):
                raise BadInputError("atomicFixed needs one pinned value per component")
        elif self.values is not None:
            raise BadInputError(f"{self.kind} does not take pinned values")
        if self.kind == RELATIVE_SHIFT:
            if self.alpha is None:
                raise BadInputError("relativeShift needs a shift alpha")
            if self.time_lags != (0,):
                raise BadInputError("relativeShift supports the single step omega only")
        elif self.alpha is not None:
            raise BadInputError(f"{self.kind} does not take a shift alpha")

    @staticmethod
    def averaged(omega: int, components=(1,), time_lags=(0,)) -> "InterventionSpec":
        return InterventionSpec(
            kind=ATOMIC_AVERAGED,
            omega=omega,
            components=tuple(components),
            time_lags=tuple(time_lags),
        )

    @staticmethod
    def fixed(omega: int, components, values, time_lags=(0,)) -> "InterventionSpec":
        return InterventionSpec(
            kind=ATOMIC_FIXED,
            omega=omega,
            components=tuple(components),
            values=tuple(float(v) for v in values),
            time_lags=tuple(time_lags),
        )

    @staticmethod
    def shift(omega: int, alpha: float, components=(1,)) -> "InterventionSpec":
        return InterventionSpec(
            kind=RELATIVE_SHIFT,
            omega=omega,
            components=tuple(components),
            alpha=float(alpha),
        )

    def flat_indices(self, d: int) -> list[int]:
        """0-based indices of the intervened slots in the stacked window."""
        for c in self.components:
            if c > d:
                raise BadInputError(f"component {c} out of range for dimension {d}")
        return [lag * d + (c - 1) for lag in self.time_lags for c in self.components]

    def to_json(self) -> str:
        payload: dict = {
            "kind": self.kind,
            "omega": self.omega,
            "components": list(self.components),
        }
        if self.values is not None:
            payload["values"] = list(self.values)
        if self.alpha is not None:
            payload["alpha"] = self.alpha
        if self.time_lags != (0,):
            payload["time_lags"] = list(self.time_lags)
        return json.dumps(payload)

    @staticmethod
    def from_json(text: str) -> "InterventionSpec":
        try:
            payload = json.loads(text)
            return InterventionSpec(
                kind=payload["kind"],
                omega=int(payload["omega"]),
                components=tuple(int(c) for c in payload["components"]),
                values=(
                    tuple(float(v) for v in payload["values"])
                    if "values" in payload
                    else None
                ),
                alpha=float(payload["alpha"]) if "alpha" in payload else None,
                time_lags=tuple(int(l) for l in payload.get("time_lags", (0,))),
            )
        except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
            raise BadInputError(f"invalid intervention JSON: {exc}") from exc


@dataclass(frozen=True)
class InterventionalCov:
    """Second-moment matrix of the window under an atomic intervention."""

    base: AutocovMatrix
    spec: InterventionSpec
    dense: np.ndarray = field(repr=False)


def interventional_cov(sigma: AutocovMatrix, spec: InterventionSpec) -> InterventionalCov:
    """Window second moment under the intervention.

    Every intervened slot keeps only its diagonal entry: the base diagonal for
    the averaged kind (the marginal second moment is unchanged), or the
    squared pinned value for the fixed kind.  All other entries equal the base
    matrix.
    """
    if spec.kind not in (ATOMIC_FIXED, ATOMIC_AVERAGED):
        raise BadInputError("interventional covariance applies to atomic interventions")
    idx = spec.flat_indices(sigma.d)
    size = sigma.dense.shape[0]
    if any(i >= size for i in idx):
        raise BadInputError("intervened index falls outside the covariance window")
    dense = sigma.dense.copy()
    for i in idx:
        keep = dense[i, i]
        dense[i, :] = 0.0
        dense[:, i] = 0.0
        dense[i, i] = keep
    if spec.kind == ATOMIC_FIXED:
        for lag in spec.time_lags:
            for c, v in zip(spec.components, spec.values):
                i = lag * sigma.d + (c - 1)
                dense[i, i] = v * v
    return InterventionalCov(base=sigma, spec=spec, dense=dense)


def marginal_variances(model: VarModel) -> np.ndarray:
    """Stationary marginal variance of each component (diagonal of lag 0)."""
    return np.diag(model.state_cov[: model.d, : model.d]).copy()


def simulate_intervened(
    model: VarModel,
    spec: InterventionSpec,
    history: np.ndarray,
    seed: int | np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Apply the intervention to a lag window and roll the truth forward.

    Parameters
    ----------
    history : (L, d) array
        Lag window ordered most-recent-first; ``history[0]`` is the step the
        intervention targets (``omega`` steps before the forecast target) and
        ``time_lags`` index further into the past.  ``L`` must be at least the
        model order so the structural equations can be applied.
    seed : int or Generator
        Drives the marginal draws (averaged kind, consumed first) and the
        fresh innovations of the regenerated steps.

    Returns
    -------
    (window, target)
        The surgically modified window, and the realized value ``omega``
        steps after it.
    """
    hist = np.atleast_2d(np.asarray(history, dtype=float))
    if hist.shape[1] != model.d:
        raise BadInputError(f"history rows have dimension {hist.shape[1]}, expected {model.d}")
    if hist.shape[0] < model.p:
        raise BadInputError(
            f"history too short: {hist.shape[0]} rows, need at least the model order {model.p}"
        )
    if max(spec.time_lags) >= hist.shape[0]:
        raise BadInputError("history too short for the requested time_lags")
    rng = as_rng(seed)
    window = hist.copy()

    if spec.kind == ATOMIC_AVERAGED:
        stds = np.sqrt(marginal_variances(model))
        for lag in spec.time_lags:
            for c in spec.components:
                window[lag, c - 1] = rng.standard_normal() * stds[c - 1]
    elif spec.kind == ATOMIC_FIXED:
        for lag in spec.time_lags:
            for c, v in zip(spec.components, spec.values):
                window[lag, c - 1] = v
    else:  # relative shift, dependencies retained
        for c in spec.components:
            window[0, c - 1] += spec.alpha

    sigma = np.sqrt(model.noise_variance)
    state = window[::-1].copy()  # chronological
    for _ in range(spec.omega):
        new = rng.standard_normal(model.d) * sigma
        for l, block in enumerate(model.coeffs, start=1):
            new = new + block @ state[-l]
        state = np.vstack([state, new])
    return window, state[-1].copy()
