"""Multi-companion matrices and symmetric-polynomial forms of their powers.

A VAR(p) recursion on ``d``-vectors lifts to a single matrix acting on the
stacked state ``(x_t, x_{t-1}, ..., x_{t-p+1})``: the first ``d`` rows carry
the coefficient blocks ``[A_1 | A_2 | ... | A_p]`` and the rows below carry a
shifted identity.  For scalar processes (``d = 1``) with distinct eigenvalues,
the top-row entries of the matrix powers admit a closed form: the ``(1, k)``
entry of the ``w``-th power equals ``(-1)**(k-1)`` times the Schur polynomial
of the eigenvalues indexed by the hook shape ``(w, 1, ..., 1)`` with ``k - 1``
ones.  Beware shortcut formulas that sum ``lam1**(w-i) * lam2**i`` over
interior ``i`` only: they are wrong already at ``w = 1``, where the ``(1, 2)``
entry of an order-2 companion equals the second coefficient, not zero.

Direct repeated-squaring powers are the ground truth everywhere; the Schur
route is a cross-checked secondary representation that degrades when
eigenvalues nearly coincide (the bialternant denominator vanishes), in which
case callers must fall back to the direct power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ._stacks import stacked
from .errors import BadInputError, NumericalError

#: Pairwise eigenvalue gaps below this are treated as a repeated spectrum.
DEFAULT_DISTINCT_TOL = 1e-7

#: Acceptance threshold for the imaginary part of a Schur value that should be
#: real (conjugate-closed spectrum): |imag| < tol * (1 + |real|).
IMAG_TOL = 1e-8

#: Maximum admissible residual of the characteristic polynomial at a computed
#: eigenvalue, relative to the polynomial's coefficient scale.
CHAR_RESIDUAL_TOL = 1e-6


@dataclass(frozen=True)
class CompanionMatrix:
    """Dense multi-companion lift of a lag-polynomial.

    Attributes
    ----------
    d : int
        Block dimension (1 for scalar AR processes).
    p : int
        Number of coefficient blocks after padding.
    blocks : tuple of (d, d) arrays
        Coefficient blocks ``A_1 .. A_p``.
    dense : (d*p, d*p) array
        The companion matrix itself.
    """

    d: int
    p: int
    blocks: tuple[np.ndarray, ...]
    dense: np.ndarray = field(repr=False)

    @property
    def size(self) -> int:
        return self.d * self.p


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues of a companion matrix plus stability metadata.

    ``max_modulus`` is the stability parameter: the process is stable iff it
    is below one.  ``distinct`` is true iff the minimum pairwise gap exceeds
    the tolerance the spectrum was computed with.
    """

    eigenvalues: np.ndarray
    max_modulus: float
    distinct: bool
    min_gap: float
    char_residual: float


def _as_blocks(blocks_or_model) -> list[np.ndarray]:
    blocks = getattr(blocks_or_model, "coeffs", blocks_or_model)
    out = []
    for b in blocks:
        arr = np.atleast_2d(np.asarray(b, dtype=float))
        out.append(arr)
    if not out:
        raise BadInputError("at least one coefficient block is required")
    d = out[0].shape[0]
    for i, b in enumerate(out):
        if b.shape != (d, d):
            raise BadInputError(
                f"coefficient block {i + 1} has shape {b.shape}, expected ({d}, {d})"
            )
        if not np.all(np.isfinite(b)):
            raise BadInputError(f"coefficient block {i + 1} contains non-finite entries")
    return out


def build_companion(blocks_or_model, order: int | None = None) -> CompanionMatrix:
    """Construct the multi-companion matrix for coefficient blocks ``A_1..A_p``.

    Parameters
    ----------
    blocks_or_model : sequence of (d, d) arrays, or an object with ``.coeffs``
        The lag coefficients.  Scalars are accepted for ``d = 1``.
    order : int, optional
        Target order ``nu >= p``.  Blocks beyond the model's own order are
        zero, so two models of different orders can be lifted to a common
        state dimension.

    Returns
    -------
    CompanionMatrix
    """
    blocks = _as_blocks(blocks_or_model)
    if order is not None and order < len(blocks):
        raise BadInputError(f"target order {order} is below the model order {len(blocks)}")
    (comp,) = companions([(blocks, order)])
    return comp


def companions(items) -> list[CompanionMatrix]:
    """:func:`build_companion` of each ``(blocks, order)`` in ``items``, for
    blocks already validated; ``order`` ``None`` is the blocks' own order.

    Items of one shape and order are filled into one stacked array, whose
    members become the companions' read-only ``dense`` matrices.
    """
    return stacked(
        [(blocks, len(blocks) if order is None else order) for blocks, order in items],
        lambda item: (item[0][0].shape, len(item[0]), item[1]),
        _companion_stack,
    )


def _companion_stack(items) -> list[CompanionMatrix]:
    first, order = items[0]
    d, p = first[0].shape[0], len(first)
    n = d * order
    dense = np.zeros((len(items), n, n))
    blocks = np.zeros((len(items), order, d, d))
    blocks[:, :p] = [item[0] for item in items]
    dense[:, :d, :] = blocks.transpose(0, 2, 1, 3).reshape(len(items), d, n)
    if order > 1:
        dense[:, d:, : d * (order - 1)] = np.eye(d * (order - 1))
    dense.setflags(write=False)  # shared by every reader of a model's lift
    return [
        CompanionMatrix(d=d, p=order, blocks=tuple(padded), dense=mat)
        for mat, padded in zip(dense, blocks)
    ]


def matrix_power(comp: CompanionMatrix | np.ndarray, power: int) -> np.ndarray:
    """Exact ``power``-th matrix power via repeated squaring (``power = 0`` gives I).

    This is the ground-truth oracle for every eigenvalue-based representation:
    it involves no eigendecomposition and is immune to near-repeated roots.
    """
    if power < 0:
        raise BadInputError("power must be a non-negative integer")
    dense = comp.dense if isinstance(comp, CompanionMatrix) else np.asarray(comp, dtype=float)
    return np.linalg.matrix_power(dense, int(power))


def _char_residuals(
    comps: Sequence[CompanionMatrix], eigs: np.ndarray, real: np.ndarray
) -> np.ndarray:
    """Max residual of det|I lam^p - A_1 lam^(p-1) - ... - A_p| over each
    companion's spectrum, relative to its scale; ``eigs`` stacks the spectra of
    companions of one shape, the members flagged ``real`` having zero imaginary
    parts, and each residual has the bits of the member's own evaluation."""
    d, p = comps[0].d, comps[0].p
    blocks = np.array([comp.blocks for comp in comps])  # (count, p, d, d)
    scale = 1.0 + np.abs(blocks).max(axis=(1, 2, 3))
    denom = (1.0 + np.abs(eigs)) ** (d * p) * (scale**d)[:, None]
    if d == 1:
        # np.polyval's Horner steps on [1, -a_1, ..., -a_p].
        vals = np.zeros_like(eigs)
        for pv in np.concatenate([np.ones((len(comps), 1)), -blocks[:, :, 0, 0]], axis=1).T:
            vals = vals * eigs + pv[:, None]
        return (np.abs(vals) / denom).max(axis=1)
    worst = np.zeros(len(comps))
    for k, (comp, row) in enumerate(zip(comps, eigs)):
        # A real lam**p may round otherwise than a complex one.
        for lam, den in zip(row.real if real[k] else row, denom[k]):
            m = np.eye(d, dtype=complex) * lam**p
            for l, b in enumerate(comp.blocks, start=1):
                m -= b * lam ** (p - l)
            worst[k] = max(worst[k], abs(np.linalg.det(m)) / den)
    return worst


def spectrum(comp: CompanionMatrix, distinct_tol: float = DEFAULT_DISTINCT_TOL) -> Spectrum:
    """Eigenvalues of the companion matrix with distinctness and residual checks.

    This is :func:`spectra` for one companion.

    Raises
    ------
    NumericalError
        If the eigensolver fails to converge or the computed eigenvalues do
        not satisfy the characteristic equation to within tolerance.
    """
    (spec,) = spectra([comp], distinct_tol)
    if isinstance(spec, NumericalError):
        raise spec
    return spec


def spectra(
    comps: Sequence[CompanionMatrix], distinct_tol: float = DEFAULT_DISTINCT_TOL
) -> list[Spectrum | NumericalError]:
    """The :func:`spectrum` of each companion, or the ``NumericalError`` it raises.

    Companions of one shape share one stacked ``eigvals`` call, which gives
    each matrix the bits of its own call; the sort, the gap and the residual
    check run elementwise over the stack, each member as it would alone.
    """
    return stacked(
        comps,
        lambda comp: (comp.d, comp.p),
        lambda group: _checked_spectra(
            group, np.linalg.eigvals(np.stack([comp.dense for comp in group])), distinct_tol
        ),
        failure="eigenvalue solver failed",
    )


def _checked_spectra(comps, eigs: np.ndarray, distinct_tol: float) -> list:
    """Sort, gap and residual check of the stacked spectra ``eigs`` (count, n)
    of companions of one shape, each member as its own call would give it."""
    count, n = eigs.shape
    # A stack is complex if any member is; a member whose eigenvalues are all
    # real is made real, as its own call returns it.  Its zero imaginary parts
    # change no modulus, gap or residual below.
    real = ~eigs.imag.any(axis=1) if np.iscomplexobj(eigs) else np.zeros(count, dtype=bool)
    eigs = np.take_along_axis(eigs, np.argsort(-np.abs(eigs), axis=1, kind="stable"), axis=1)
    eigs.setflags(write=False)  # each spectrum's eigenvalues are a view
    if n > 1:
        diffs = np.abs(eigs[:, :, None] - eigs[:, None, :])
        gaps = diffs[:, ~np.eye(n, dtype=bool)].min(axis=1)
    else:
        gaps = np.full(count, math.inf)
    residuals = _char_residuals(comps, eigs, real)
    moduli = np.abs(eigs).max(axis=1)
    out: list = []
    for eig, is_real, gap, residual, modulus in zip(eigs, real, gaps, residuals, moduli):
        if residual > CHAR_RESIDUAL_TOL:
            out.append(NumericalError(
                f"characteristic polynomial residual {residual:.3e} exceeds tolerance"
            ))
            continue
        out.append(Spectrum(
            eigenvalues=eig.real if is_real else eig,
            max_modulus=float(modulus),
            distinct=bool(gap > distinct_tol),
            min_gap=float(gap),
            char_residual=float(residual),
        ))
    return out


def _validate_partition(partition: Sequence[int]) -> tuple[int, ...]:
    parts = tuple(int(x) for x in partition)
    if any(x < 0 for x in parts):
        raise BadInputError("partition parts must be non-negative")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise BadInputError("partition parts must be weakly decreasing")
    while parts and parts[-1] == 0:
        parts = parts[:-1]
    return parts


def power_partition(power: int, k: int) -> tuple[int, ...]:
    """Hook-shaped index ``(power, 1, ..., 1)`` with ``k - 1`` ones."""
    if power < 1 or k < 1:
        raise BadInputError("power and k must be positive")
    return (power,) + (1,) * (k - 1)


def elementary_symmetric(k: int, values: Sequence[complex]) -> complex:
    """Elementary symmetric polynomial e_k: sum of all k-fold products (e_0 = 1)."""
    vals = list(values)
    if k < 0 or k > len(vals):
        raise BadInputError(f"k = {k} out of range for {len(vals)} variables")
    e = np.zeros(k + 1, dtype=complex)
    e[0] = 1.0
    for v in vals:
        # Prefix DP: e_j <- e_j + v * e_{j-1}, updated high-to-low.
        upper = min(k, len(e) - 1)
        for j in range(upper, 0, -1):
            e[j] += v * e[j - 1]
    return complex(e[k])


def complete_homogeneous(k: int, values: Sequence[complex]) -> complex:
    """Complete homogeneous symmetric polynomial h_k via the Newton-style DP.

    Uses the recurrence ``sum_{i=0}^{k} (-1)^i e_i h_{k-i} = 0`` so it stays
    valid for repeated values, unlike the bialternant quotient.
    """
    vals = list(values)
    if k < 0:
        raise BadInputError("k must be non-negative")
    e = [elementary_symmetric(i, vals) for i in range(len(vals) + 1)]
    h = np.zeros(k + 1, dtype=complex)
    h[0] = 1.0
    for m in range(1, k + 1):
        acc = 0.0 + 0.0j
        for i in range(1, min(m, len(vals)) + 1):
            acc += (-1) ** (i - 1) * e[i] * h[m - i]
        h[m] = acc
    return complex(h[k])


def vandermonde(values: Sequence[complex], partition: Sequence[int] = ()) -> np.ndarray:
    """Generalized Vandermonde matrix: row ``j`` holds ``values ** (n-1-j+mu_j)``.

    With an empty partition this is the plain Vandermonde matrix whose
    determinant is the product of pairwise differences.
    """
    vals = np.asarray(list(values), dtype=complex)
    n = len(vals)
    parts = _validate_partition(partition)
    if len(parts) > n:
        raise BadInputError("partition has more nonzero parts than variables")
    mu = np.zeros(n, dtype=int)
    mu[: len(parts)] = parts
    exponents = (n - 1 - np.arange(n)) + mu
    return vals[None, :] ** exponents[:, None]


def schur_polynomial(
    partition: Sequence[int],
    eigenvalues: Sequence[complex],
    degenerate_tol: float = DEFAULT_DISTINCT_TOL,
) -> complex:
    """Schur polynomial via the bialternant quotient det(V_mu) / det(V).

    Both determinants are evaluated by pivoted LU elimination in complex
    arithmetic.  If the partition has more nonzero parts than there are
    variables the value is identically zero; that case is returned directly
    (it is how zero-padded low-order models embed into a larger state).

    Raises
    ------
    NumericalError
        If the spectrum is degenerate: some pairwise gap (and hence the
        Vandermonde denominator) falls below tolerance.  Callers should fall
        back to the direct matrix power.
    """
    parts = _validate_partition(partition)
    vals = np.asarray(list(eigenvalues), dtype=complex)
    if len(parts) > len(vals):
        return 0.0 + 0.0j
    if len(vals) == 1:
        return complex(vals[0] ** (parts[0] if parts else 0))
    diffs = np.abs(vals[:, None] - vals[None, :])
    min_gap = float(diffs[~np.eye(len(vals), dtype=bool)].min())
    if min_gap <= degenerate_tol:
        raise NumericalError(
            f"degenerate spectrum: minimum eigenvalue gap {min_gap:.3e} <= {degenerate_tol:.1e}"
        )
    den = np.linalg.det(vandermonde(vals))
    if abs(den) < np.finfo(float).tiny * 1e4:
        raise NumericalError("degenerate spectrum: Vandermonde determinant underflow")
    num = np.linalg.det(vandermonde(vals, parts))
    return complex(num / den)


def _real_part(value: complex, context: str) -> float:
    if abs(value.imag) >= IMAG_TOL * (1.0 + abs(value.real)):
        raise NumericalError(
            f"{context}: imaginary residue {value.imag:.3e} too large for a real result"
        )
    return float(value.real)


def power_entry_via_schur(
    comp: CompanionMatrix,
    power: int,
    k: int,
    distinct_tol: float = DEFAULT_DISTINCT_TOL,
) -> float:
    """Magnitude of the ``(1, k)`` entry of the ``power``-th companion power.

    Scalar companions only (``d = 1``).  Evaluates the hook-indexed Schur
    polynomial of the eigenvalues; agrees with ``|matrix_power(...)[0, k-1]|``
    whenever the spectrum is distinct.  The sign is not exposed here: take it
    from the direct power if needed.
    """
    if comp.d != 1:
        raise BadInputError("the Schur route applies to scalar (d = 1) companions only")
    if not 1 <= k <= comp.p:
        raise BadInputError(f"k = {k} out of range for order {comp.p}")
    spec = spectrum(comp, distinct_tol)
    if not spec.distinct:
        raise NumericalError(
            f"repeated eigenvalues (min gap {spec.min_gap:.3e}); use the direct power"
        )
    value = schur_polynomial(power_partition(power, k), spec.eigenvalues, distinct_tol)
    return abs(_real_part(value, "hook Schur evaluation"))


def coefficient_bound(p: int, k: int, delta: float) -> float:
    """Upper bound ``C(p, k) * delta**k`` on the k-th lag coefficient magnitude.

    Valid for any stable scalar process whose eigenvalue moduli are at most
    ``delta`` (each coefficient is, up to sign, an elementary symmetric
    polynomial with exactly ``C(p, k)`` monomials).
    """
    if not 0.0 < delta < 1.0:
        raise BadInputError("delta must lie in (0, 1)")
    if not 1 <= k <= p:
        raise BadInputError(f"k = {k} out of range for order {p}")
    return math.comb(p, k) * delta**k
