"""VAR(p) models: stability, simulation, and exact/empirical autocovariance.

The model is ``x_t = A_1 x_{t-1} + ... + A_p x_{t-p} + eps_t`` with isotropic
Gaussian innovations of variance ``noise_variance``.  Processes are mean-zero
throughout; there is no intercept.

The ``prepare_*`` functions fill the caches of many models and windows with
one stacked numpy call per shape (see ``_stacks``); a cached property read on
a miss runs the same code on its one model.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import linalg
from scipy.linalg.blas import dtbsv

from ._stacks import cached, fill, stacked
from .companion import CompanionMatrix, Spectrum, companions, spectra
from .errors import BadInputError, NumericalError
from .seeding import as_rng

#: Transient threshold used by the default burn-in rule.
BURN_IN_DECAY = 1e-9

#: Longest path (returned steps plus burn-in) that ``simulate`` allocates:
#: 400 MB of innovations per component.
MAX_PATH_STEPS = 50_000_000

#: Steps per banded solve in ``_recursion``; bounds the band's memory.
_SOLVE_STEPS = 4096

#: Fewest sliding windows accepted when estimating an autocovariance block.
MIN_ESTIMATION_WINDOWS = 10

#: Margin the stability screen leaves for the eigenvalue check's own rounding.
_SCREEN_MARGIN = 1e-8

#: Most candidate rows one call of ``rejection_sample_block`` screens at once,
#: unless one batch is larger.  It bounds the sampler's memory: 64 processes'
#: 4096-row order-7 batches would hold 15 MB per array, and peak RSS of a
#: standard study rose 3% at 8192 rows against 1.7% at 4096 and below.
_SAMPLE_ROWS = 4096

#: Counts ``rejection_sample_block`` adds to its ``tally``: candidates drawn,
#: and rows removed by the step-down screen.
SAMPLE_COUNTS = ("drawn", "step_down_removed")

#: State dimension from which ``scipy.linalg.solve_discrete_lyapunov`` turns to
#: its bilinear method; below it the batched Kronecker solve gives its bits.
#: The Kronecker system of a state of size s is s^2 x s^2 and takes O(s^6) to
#: factor: 32 MB at s = 45 and 800 MB at s = 100, where the bilinear method
#: takes milliseconds.
_BILINEAR_SIZE = 10

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class VarModel:
    """A VAR(p) model of dimension ``d`` with isotropic noise.

    ``coeffs`` holds the lag matrices ``A_1 .. A_p`` as (d, d) arrays; for
    scalar processes each entry is a 1x1 array (scalars are accepted by the
    constructor helpers).

    The companion matrix, its spectrum, the stationary state covariance and the
    per-order padded lifts, their powers and window autocovariances are cached
    once per model.  :func:`prepare_models` fills the spectrum, state
    covariance and order-p window root of many models in stacked calls, and
    :func:`prepare_powers` their lifts and powers; on a cache miss each property
    runs the same code on its one model.
    """

    d: int
    p: int
    coeffs: tuple[np.ndarray, ...]
    noise_variance: float
    _by_length: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.d < 1 or self.p < 1:
            raise BadInputError("d and p must be positive")
        if len(self.coeffs) != self.p:
            raise BadInputError(f"expected {self.p} coefficient blocks, got {len(self.coeffs)}")
        for i, b in enumerate(self.coeffs):
            if b.shape != (self.d, self.d):
                raise BadInputError(
                    f"block {i + 1} has shape {b.shape}, expected ({self.d}, {self.d})"
                )
            if not np.all(np.isfinite(b)):
                raise BadInputError(f"block {i + 1} contains non-finite entries")
        if not (self.noise_variance > 0 and math.isfinite(self.noise_variance)):
            raise BadInputError("noise_variance must be positive and finite")

    @staticmethod
    def from_coeffs(coeffs, noise_variance: float = 1.0) -> "VarModel":
        """Build a model from scalars (AR) or a sequence of (d, d) arrays (VAR)."""
        blocks = tuple(np.atleast_2d(np.asarray(b, dtype=float)) for b in coeffs)
        if not blocks:
            raise BadInputError("at least one coefficient is required")
        return VarModel(
            d=blocks[0].shape[0], p=len(blocks), coeffs=blocks, noise_variance=float(noise_variance)
        )

    @property
    def scalar_coeffs(self) -> np.ndarray:
        """Lag coefficients as a flat vector (scalar models only)."""
        if self.d != 1:
            raise BadInputError("scalar_coeffs is defined for d = 1 models only")
        return np.array([b[0, 0] for b in self.coeffs])

    # Cached arrays are shared by every caller, so they are made read-only.

    @property
    def companion(self) -> CompanionMatrix:
        """Companion lift at the model's own order."""
        return self.lifted(self.p)

    @cached_property
    def spectrum(self) -> Spectrum:
        """Companion eigenvalues; a failed residual check raises on every access."""
        return cached(vars(self), "spectrum", self, _spectra)

    @cached_property
    def state_cov(self) -> np.ndarray:
        """Stationary covariance of the stacked state ``(x_t, ..., x_{t-p+1})``."""
        return cached(vars(self), "state_cov", self, _state_covs)

    def lifted(self, order: int) -> CompanionMatrix:
        """Companion padded with zero blocks to ``order >= p``."""
        if order < self.p:
            raise BadInputError(f"target order {order} is below the model order {self.p}")
        return cached(self._by_length, ("lifted", order), (self, order), _lifts)

    def power(self, omega: int, order: int | None = None) -> np.ndarray:
        """``omega``-th power of the companion lifted to ``order`` (default ``p``)."""
        order = self.p if order is None else order
        return cached(self._by_length, ("power", order, omega), (self, order, omega), _powers)

    def autocov(self, n: int) -> AutocovMatrix:
        """Exact stationary autocovariance of ``n`` stacked observations."""
        if n < 1:
            raise BadInputError("n must be positive")
        return cached(
            self._by_length, ("autocov", n), n, lambda ns: [_window_autocov(self, k) for k in ns]
        )

    def to_json(self) -> str:
        payload = {
            "d": self.d,
            "p": self.p,
            "coeffs": [[float(v) for v in b.ravel()] for b in self.coeffs],
            "noise_variance": float(self.noise_variance),
        }
        return json.dumps(payload)

    @staticmethod
    def from_json(text: str) -> "VarModel":
        try:
            payload = json.loads(text)
            d = int(payload["d"])
            p = int(payload["p"])
            coeffs = tuple(
                np.asarray(block, dtype=float).reshape(d, d) for block in payload["coeffs"]
            )
            noise_variance = float(payload["noise_variance"])
        except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
            raise BadInputError(f"invalid model JSON: {exc}") from exc
        if len(coeffs) != p:
            raise BadInputError(f"model JSON lists {len(coeffs)} blocks but p = {p}")
        return VarModel(d=d, p=p, coeffs=coeffs, noise_variance=noise_variance)


@dataclass(frozen=True)
class SamplePath:
    """A simulated trajectory: ``values`` has shape (n, d)."""

    values: np.ndarray
    seed: int
    burn_in: int

    def __post_init__(self):
        if self.values.ndim != 2 or len(self.values) == 0:
            raise BadInputError("path values must be a non-empty (n, d) array")
        if not np.all(np.isfinite(self.values)):
            raise BadInputError("path contains non-finite values (model likely unstable)")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]

    @property
    def scalar(self) -> np.ndarray:
        if self.d != 1:
            raise BadInputError("scalar view is defined for d = 1 paths only")
        return self.values[:, 0]

    def to_csv(self) -> str:
        return values_to_csv(self.values)

    @staticmethod
    def from_csv(text: str, seed: int = 0, burn_in: int = 0) -> "SamplePath":
        values = values_from_csv(text)
        return SamplePath(values=values, seed=seed, burn_in=burn_in)


def values_to_csv(values: np.ndarray) -> str:
    """Serialize an (n, d) array as ``t,x_1,...,x_d`` rows."""
    buf = io.StringIO()
    d = values.shape[1]
    buf.write("t," + ",".join(f"x_{i + 1}" for i in range(d)) + "\n")
    for t, row in enumerate(values):
        buf.write(str(t) + "," + ",".join(repr(float(v)) for v in row) + "\n")
    return buf.getvalue()


def values_from_csv(text: str) -> np.ndarray:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("t,"):
        raise BadInputError("path CSV must start with a 't,x_1,...' header")
    rows = []
    for ln in lines[1:]:
        cells = ln.split(",")
        rows.append([float(c) for c in cells[1:]])
    return np.asarray(rows, dtype=float)


@dataclass(frozen=True)
class AutocovMatrix:
    """Block-Toeplitz autocovariance of ``n`` stacked observations.

    Block ``(i, j)`` is the lag ``j - i`` autocovariance of the process, with
    the most recent observation first, so the dense matrix is the second
    moment of the window ``(x_t, x_{t-1}, ..., x_{t-n+1})``.
    """

    n: int
    d: int
    dense: np.ndarray = field(repr=False)

    @property
    def variance_scale(self) -> float:
        """Largest marginal variance; reference scale for tolerances."""
        return float(np.max(np.diag(self.dense)))

    def block(self, i: int, j: int) -> np.ndarray:
        d = self.d
        return self.dense[i * d : (i + 1) * d, j * d : (j + 1) * d]

    @cached_property
    def root(self) -> np.ndarray:
        """Symmetric PSD square root of ``dense`` (read-only)."""
        return cached(vars(self), "root", self, _psd_roots)

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues of ``dense`` (read-only)."""
        return cached(vars(self), "eigenvalues", self.dense, symmetric_eigenvalues)

    @cached_property
    def correlation(self) -> "AutocovMatrix":
        """The window rescaled to unit diagonal (its ``dense`` is read-only)."""
        dense = unit_diagonal(self.dense)
        dense.setflags(write=False)
        return AutocovMatrix(n=self.n, d=self.d, dense=dense)


def unit_diagonal(dense: np.ndarray) -> np.ndarray:
    """Rescale a covariance, or a stack of them, to unit diagonal."""
    scale = 1.0 / np.sqrt(np.diagonal(dense, axis1=-2, axis2=-1))
    return dense * scale[..., :, None] * scale[..., None, :]


def is_stationary(model: VarModel, margin: float = 0.0) -> tuple[bool, Spectrum]:
    """Whether all companion eigenvalues satisfy ``|lam| < 1 - margin``.

    Returns the spectrum alongside the flag so callers can reuse it.
    """
    spec = model.spectrum
    return bool(spec.max_modulus < 1.0 - margin), spec


def default_burn_in(max_modulus: float) -> int:
    """Steps until a zero-start transient decays below ``BURN_IN_DECAY``."""
    if not 0.0 <= max_modulus < 1.0:
        raise BadInputError("burn-in rule needs a stable max modulus in [0, 1)")
    if max_modulus == 0.0:
        return 1000
    return max(1000, math.ceil(math.log(BURN_IN_DECAY) / math.log(max_modulus)))


def simulate(
    model: VarModel,
    n: int,
    seed: int | np.random.Generator,
    burn_in: int | None = None,
    init: str = "zero",
) -> SamplePath:
    """Simulate ``n`` steps of the process with Gaussian innovations.

    Parameters
    ----------
    model : VarModel
        Must be stable; simulation of an unstable model is refused.
    n : int
        Returned path length.
    seed : int or Generator
        Fully determines the path.
    burn_in : int, optional
        Discarded prefix when starting from the zero state.  Defaults to
        ``max(1000, ceil(log(1e-9) / log(delta)))`` so the transient is
        negligible relative to the stationary scale.  ``n + burn_in`` may
        not exceed ``MAX_PATH_STEPS``; near a unit root the default does, and
        a shorter ``burn_in`` (or ``init="stationary"``) must be given.
    init : {"zero", "stationary"}
        "zero" starts from the origin and discards ``burn_in`` steps;
        "stationary" draws the initial lag window from the exact stationary
        Gaussian law and needs no burn-in (used by the experiment harness,
        where near-unit-root draws would make the burn-in rule very long).

    The recursion runs as banded triangular solves (see ``_recursion``), in
    O((n + burn_in) p d^2) time with no per-step Python loop.
    """
    if n < 1:
        raise BadInputError("n must be positive")
    ok, spec = is_stationary(model)
    if not ok:
        raise NumericalError(
            f"model is not stable: max eigenvalue modulus {spec.max_modulus:.6f} >= 1"
        )
    if init not in ("zero", "stationary"):
        raise BadInputError(f"unknown init mode {init!r}")
    rng = as_rng(seed)
    seed_label = seed if isinstance(seed, int) else -1
    sigma = math.sqrt(model.noise_variance)
    d, p = model.d, model.p

    if init == "stationary":
        window = stationary_window(model, p, rng)  # (p, d), most recent first
        history = window[::-1]  # chronological
        burn = 0
    else:
        history = np.zeros((p, d))
        burn = default_burn_in(spec.max_modulus) if burn_in is None else int(burn_in)
        if burn < 0:
            raise BadInputError("burn_in must be non-negative")

    total = n + burn
    if total > MAX_PATH_STEPS:
        raise BadInputError(
            f"path of {n} steps plus a burn-in of {burn} exceeds {MAX_PATH_STEPS} steps "
            f"(max modulus {spec.max_modulus:.12f}); pass a shorter --burn-in"
        )
    eps = rng.standard_normal((total, d)) * sigma
    values = _recursion(model.coeffs, history, eps)[burn:].copy()
    return SamplePath(values=values, seed=seed_label, burn_in=burn)


def _recursion(coeffs, history: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """Run ``x_t = A_1 x_{t-1} + ... + A_p x_{t-p} + eps_t`` over the rows of ``eps``.

    ``history`` (p, d) holds ``x_{-p} .. x_{-1}`` in time order.  Stacked as
    one vector ``(history, x_0, x_1, ...)``, the path solves a unit lower-
    triangular banded system: row ``t d + i`` holds ``-A_l[i, j]`` at column
    ``(t - l) d + j``, i.e. on sub-diagonal ``l d + i - j <= (p + 1) d - 1``,
    and the history rows have no off-diagonal entries, so they keep their
    values.  BLAS ``dtbsv`` solves it in O(n p d^2).  The solve runs in blocks
    of ``_SOLVE_STEPS`` steps, each starting from the last ``p`` steps of the
    one before, so one band serves every block.  The path overwrites ``eps``
    (n, d), which is returned.
    """
    p, d = history.shape
    n = eps.shape[0]
    k = (p + 1) * d - 1
    head = p * d
    # Banded storage: band[o, c] is the matrix entry (c + o, c); Fortran order
    # lets the BLAS wrapper take it without a copy.
    band = np.zeros((k + 1, head + min(n, _SOLVE_STEPS) * d), order="F")
    for l, block in enumerate(coeffs, start=1):
        for i in range(d):
            for j in range(d):
                band[l * d + i - j, j::d] = -block[i, j]
    # The history rows (c + o < head) get no off-diagonal entries.
    band[:, :head][np.add.outer(np.arange(k + 1), np.arange(head)) < head] = 0.0
    work = np.empty(band.shape[1])
    work[:head] = history.ravel()
    for start in range(0, n, _SOLVE_STEPS):
        stop = min(n, start + _SOLVE_STEPS)
        size = head + (stop - start) * d
        work[head:size] = eps[start:stop].ravel()
        x = dtbsv(k, band[:, :size], work[:size], lower=1, diag=1, overwrite_x=1)
        eps[start:stop] = x[head:].reshape(-1, d)
        work[:head] = x[size - head : size]
    return eps


def stationary_window(model: VarModel, length: int, rng: np.random.Generator) -> np.ndarray:
    """Draw one exact stationary window, shape (length, d), most recent first."""
    flat = model.autocov(length).root @ rng.standard_normal(length * model.d)
    return flat.reshape(length, model.d)


# ---------------------------------------------------------------------------
# Per-model set-up, stacked across models
# ---------------------------------------------------------------------------


def prepare_models(models) -> None:
    """Fill each model's spectrum, state covariance and order-p window root.

    Models of one shape share one stacked ``eigvals``, one batched Lyapunov
    solve and one ``eigh``, which give every model the bits of its own calls.
    A model whose spectrum check fails, or that is unstable, keeps the values
    that depend on it unset, so reading them raises as it always did.
    """
    prepare_spectra(models)
    fill([(vars(m), "state_cov", m) for m in models if "spectrum" in vars(m)], _state_covs)
    windows = [m.autocov(m.p) for m in models if "state_cov" in vars(m)]
    fill([(vars(w), "root", w) for w in windows], _psd_roots)


def prepare_spectra(models) -> None:
    """Fill each model's companion and spectrum: one stacked fill and one
    stacked ``eigvals`` per shape (see :func:`companion.spectra`)."""
    prepare_powers([(m, m.p, None) for m in models])
    fill([(vars(m), "spectrum", m) for m in models], _spectra)


def prepare_powers(items) -> None:
    """Fill ``model.lifted(order)`` and, unless ``omega`` is ``None``,
    ``model.power(omega, order)`` for each ``(model, order, omega)``.

    Lifts of one shape and order share one stacked fill, and powers of one
    size and exponent one stacked ``np.linalg.matrix_power``, which gives each
    matrix the bits of its own call.
    """
    fill([(m._by_length, ("lifted", order), (m, order)) for m, order, _ in items], _lifts)
    powers = [(m, order, w) for m, order, w in items if w is not None]
    fill([(m._by_length, ("power", order, w), (m, order, w)) for m, order, w in powers], _powers)


def _lifts(items) -> list:
    return companions([(model.coeffs, order) for model, order in items])


def _powers(items) -> list:
    return stacked(items, lambda item: (item[0].d * item[1], item[2]), _power_stack)


def _power_stack(items) -> list:
    lifts = np.stack([model.lifted(order).dense for model, order, _ in items])
    return list(np.linalg.matrix_power(lifts, items[0][2]))


def prepare_windows(windows) -> None:
    """Fill the ``eigenvalues`` of each ``AutocovMatrix`` and of its
    ``correlation``: one stacked ``eigvalsh`` per size, which gives each
    matrix the bits of its own call."""
    fill(
        [(vars(w), "eigenvalues", w.dense) for w in [*windows, *(w.correlation for w in windows)]],
        symmetric_eigenvalues,
    )


def symmetric_eigenvalues(denses) -> list:
    """Ascending eigenvalues of each symmetric matrix, or the
    ``NumericalError`` its solver raised; matrices of one size share one
    stacked ``eigvalsh``."""
    return stacked(
        denses,
        lambda dense: dense.shape[0],
        lambda group: list(np.linalg.eigvalsh(np.stack(group))),
        failure="eigenvalue solver failed on covariance",
    )


def _spectra(models) -> list:
    return spectra([m.companion for m in models])


def _state_covs(models) -> list:
    """Stationary state covariances, solving S = C S C' + S_e.

    Below ``_BILINEAR_SIZE`` the models of one state size share one batched
    ``scipy.linalg.solve`` of ``(I - C kron C) vec(S) = vec(S_e)``, the system
    ``solve_discrete_lyapunov`` solves for one model there; from that size on
    each model calls ``solve_discrete_lyapunov``, which uses its bilinear method.
    scipy (1.17) divides by a 1 x 1 system but factors a stack of them, and a
    factored solve may round differently, so scalar models are solved alone.
    A stack of systems needs scipy 1.15 or later.  That the batched solve gives
    each model the bits of its own ``solve_discrete_lyapunov`` call was checked
    on scipy 1.17; ``TestPrepareModels`` in ``tests/test_process.py`` guards it.
    """
    return stacked(
        [_stationary(m) for m in models],
        lambda model: model.d * model.p,
        _kron_solve,
        alone=lambda size: size == 1 or size >= _BILINEAR_SIZE,
        failure="stationary covariance solve failed",
    )


def _stationary(model: VarModel):
    """The model, or the ``NumericalError`` that leaves it no stationary law."""
    try:
        delta = model.spectrum.max_modulus
    except NumericalError as exc:
        return exc
    if delta >= 1.0:
        return NumericalError(f"unstable model (max modulus {delta:.6f}) has no stationary law")
    return model


def _kron_solve(models) -> list:
    size = models[0].d * models[0].p
    if size >= _BILINEAR_SIZE:  # one model (see _state_covs)
        (model,) = models
        states = [linalg.solve_discrete_lyapunov(model.companion.dense, _noise_state(model))]
    else:
        comps = np.stack([m.companion.dense for m in models])
        # I - C kron C, built as np.kron builds it (one product per entry), in
        # place: the systems of a chunk of order-7 models take 1.2 MB.
        lhs = (comps[:, :, None, :, None] * comps[:, None, :, None, :]).reshape(
            len(models), size * size, size * size
        )
        np.subtract(np.eye(size * size), lhs, out=lhs)
        rhs = np.stack([_noise_state(m).reshape(-1, 1) for m in models])
        states = linalg.solve(lhs, rhs).reshape(-1, size, size)
    return [0.5 * (state + state.T) for state in states]


def _noise_state(model: VarModel) -> np.ndarray:
    """Innovation covariance of the stacked state."""
    se = np.zeros((model.d * model.p,) * 2)
    se[: model.d, : model.d] = model.noise_variance * np.eye(model.d)
    return se


def _psd_roots(windows) -> list:
    """Symmetric PSD square roots of each ``AutocovMatrix``'s ``dense``, with
    tiny negative eigenvalues clipped to zero; matrices of one size share one
    stacked ``eigh``."""
    return stacked(
        windows, lambda window: window.dense.shape[0], _roots, failure="window square root failed"
    )


def _roots(windows) -> list:
    w, v = np.linalg.eigh(np.stack([window.dense for window in windows]))
    return list(v * np.sqrt(np.clip(w, 0.0, None))[:, None, :] @ np.swapaxes(v, 1, 2))


def autocov_blocks(model: VarModel, max_lag: int) -> np.ndarray:
    """Exact lag autocovariances ``Gamma(0..max_lag)`` as a (max_lag+1, d, d) array.

    ``Gamma(h) = E[x_{t+h} x_t^T]``.  Lags beyond the order follow the
    recursion ``Gamma(h) = sum_l A_l Gamma(h - l)``.
    """
    d, p = model.d, model.p
    state = model.state_cov
    blocks = [state[0:d, j * d : (j + 1) * d].copy() for j in range(min(p, max_lag + 1))]
    # E[x_t x_{t-j}^T] read off the first block row equals Gamma(j).
    while len(blocks) <= max_lag:
        h = len(blocks)
        acc = np.zeros((d, d))
        for l, block in enumerate(model.coeffs, start=1):
            lag = h - l
            acc += block @ (blocks[lag] if lag >= 0 else blocks[-lag].T)
        blocks.append(acc)
    out = np.stack(blocks[: max_lag + 1])
    out[0] = 0.5 * (out[0] + out[0].T)
    return out


def _assemble_toeplitz(gammas: np.ndarray, n: int, d: int) -> np.ndarray:
    dense = np.zeros((n * d, n * d))
    for i in range(n):
        for j in range(n):
            g = gammas[j - i] if j >= i else gammas[i - j].T
            dense[i * d : (i + 1) * d, j * d : (j + 1) * d] = g
    return 0.5 * (dense + dense.T)


def exact_autocov(model: VarModel, n: int) -> AutocovMatrix:
    """Exact autocovariance of ``n`` stacked observations (block-Toeplitz)."""
    return model.autocov(n)


def _window_autocov(model: VarModel, n: int) -> AutocovMatrix:
    dense = _assemble_toeplitz(autocov_blocks(model, n - 1), n, model.d)
    dense.setflags(write=False)
    return AutocovMatrix(n=n, d=model.d, dense=dense)


def empirical_autocov(
    path: SamplePath, n: int, min_windows: int = MIN_ESTIMATION_WINDOWS
) -> AutocovMatrix:
    """Sample autocovariance with biased (1/T) normalization, block-Toeplitz.

    Biased normalization keeps the assembled matrix positive semidefinite.
    Requires at least ``n + min_windows`` observations.
    """
    if n < 1:
        raise BadInputError("n must be positive")
    x = path.values
    t_len = x.shape[0]
    if t_len < n + min_windows:
        raise BadInputError(
            f"path of length {t_len} too short for {n} lags (need >= {n + min_windows})"
        )
    d = path.d
    gam = np.zeros((n, d, d))
    for h in range(n):
        gam[h] = x[h:].T @ x[: t_len - h] / t_len
    return AutocovMatrix(n=n, d=d, dense=_assemble_toeplitz(gam, n, d))


def rejection_sample_stable(
    p: int,
    d: int,
    lo: float,
    hi: float,
    seed: int | np.random.Generator,
    max_tries: int = 100_000,
    noise_variance: float = 1.0,
) -> VarModel:
    """Draw coefficients i.i.d. uniform on [lo, hi] until the process is stable.

    This is :func:`rejection_sample_block` for one generator, raising
    ``NumericalError`` when ``max_tries`` candidates hold no stable one.
    """
    (model,) = rejection_sample_block(p, d, lo, hi, [as_rng(seed)], max_tries, noise_variance)
    if model is None:
        raise NumericalError(f"no stable draw within {max_tries} tries (order {p}, dim {d})")
    return model


def rejection_sample_block(
    p: int,
    d: int,
    lo: float,
    hi: float,
    rngs,
    max_tries: int = 100_000,
    noise_variance: float = 1.0,
    tally: dict | None = None,
) -> list[VarModel | None]:
    """One stable model per generator, by uniform rejection sampling.

    Each generator draws batches of candidates, coefficients i.i.d. uniform on
    [lo, hi], of 128 rows doubling to 4096 and capped by the ``max_tries`` left;
    its model is its first stable candidate in draw order, or ``None`` when
    ``max_tries`` candidates hold none.  Stability is strict (every eigenvalue
    modulus below one).  The batches of all open generators are screened
    together, in calls of at most ``_SAMPLE_ROWS`` rows, which changes no
    result: each generator's model and final state are those of a block of one.
    For scalar processes the Schur-Cohn step-down test first discards the
    candidates it proves unstable; the eigenvalues of the rest decide
    acceptance.

    ``tally``, if given, gains the counts of ``SAMPLE_COUNTS``: candidates
    drawn, and those removed by the step-down screen.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise BadInputError("the coefficient range must be finite")
    if not lo < hi:
        raise BadInputError("need lo < hi for the coefficient range")
    if p < 1 or d < 1:
        raise BadInputError("p and d must be positive")
    if max_tries < 1:
        raise BadInputError("max_tries must be positive")
    rngs = [as_rng(rng) for rng in rngs]
    models: list[VarModel | None] = [None] * len(rngs)
    tally = tally if tally is not None else dict.fromkeys(SAMPLE_COUNTS, 0)
    waiting = list(range(len(rngs)))
    tried = 0
    batch = 128
    while waiting and tried < max_tries:
        count = min(batch, max_tries - tried)
        per_call = max(1, _SAMPLE_ROWS // count)
        for start in range(0, len(waiting), per_call):
            group = waiting[start : start + per_call]
            draws = [rngs[i].uniform(lo, hi, size=(count, p, d, d)) for i in group]
            cand = draws[0] if len(draws) == 1 else np.concatenate(draws)
            stable = _stable_rows(cand, tally)
            # The first stable row at or after each process's segment start.
            first = np.searchsorted(stable, np.arange(len(group)) * count)
            for seg, (i, at) in enumerate(zip(group, first)):
                if at < stable.size and stable[at] < (seg + 1) * count:
                    pick = cand[stable[at]]
                    models[i] = VarModel(
                        d=d,
                        p=p,
                        coeffs=tuple(pick[l].copy() for l in range(p)),
                        noise_variance=float(noise_variance),
                    )
        waiting = [i for i in waiting if models[i] is None]
        tried += count
        batch = min(4096, batch * 2)
    return models


def _stable_rows(cand: np.ndarray, tally: dict) -> np.ndarray:
    """Ascending indices of the stable candidates ``cand`` (count, p, d, d)."""
    count, p, d, _ = cand.shape
    rows = np.arange(count)
    tally["drawn"] += count
    if d == 1:
        kept = ~_step_down_unstable(cand[:, :, 0, 0])
        tally["step_down_removed"] += count - int(kept.sum())
        rows = rows[kept]
    size = p * d
    comps = np.zeros((rows.size, size, size))
    for l in range(p):
        comps[:, :d, l * d : (l + 1) * d] = cand[rows, l]
    if p > 1:
        comps[:, d:, : d * (p - 1)] = np.eye(d * (p - 1))
    moduli = np.abs(np.linalg.eigvals(comps)).max(axis=1)
    return rows[moduli < 1.0]


def _step_down_unstable(a: np.ndarray) -> np.ndarray:
    """Rows of scalar AR coefficients ``a`` (count, p) proven unstable.

    Schur-Cohn step-down (inverse Levinson-Durbin) on the monic characteristic
    polynomial ``c = [1, -a_1, ..., -a_p]``: the reflection coefficient
    ``k = c[m]`` is the product of the roots up to sign, and while ``|k| < 1``
    the reduced polynomial ``(c[:m] - k c[m:0:-1]) / (1 - k^2)`` is stable iff
    ``c`` is.  So ``|k| > 1`` after only ``|k| < 1`` steps proves a root
    outside the unit circle.  Each division by ``1 - k^2`` magnifies rounding
    error, which is large near repeated roots on the circle, so ``err`` carries
    a first-order bound on the absolute error of ``c``.  A row whose ``|k|``
    lies within ``_SCREEN_MARGIN + err`` of one stops being screened and is not
    flagged, so a flagged row is one the eigenvalue check also rejects.
    """
    count = a.shape[0]
    unstable = np.zeros(count, dtype=bool)
    rows = np.arange(count)
    c = np.concatenate([np.ones((count, 1)), -a], axis=1)
    err = np.zeros((count, 1))
    for m in range(a.shape[1], 0, -1):
        k = c[:, m : m + 1]
        excess = np.abs(k) - 1.0
        band = _SCREEN_MARGIN + err
        unstable[rows[(excess > band)[:, 0]]] = True
        screened = (excess < -band)[:, 0]
        rows, c, k, err = rows[screened], c[screened], k[screened], err[screened]
        size = np.abs(c).max(axis=1, keepdims=True)
        c = (c[:, :m] - k * c[:, m:0:-1]) / (1.0 - k * k)
        new_size = np.abs(c).max(axis=1, keepdims=True)
        grow = 1.0 + np.abs(k) + size + 2.0 * new_size
        err = (grow * err + 2.0 * _EPS * (size + new_size)) / (1.0 - k * k)
    return unstable
