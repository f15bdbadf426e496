"""Stacked calls over many small problems, and the caches they fill.

A study's set-up is many small problems of a few shapes: companion spectra,
Lyapunov solves, window roots and eigenvalues, powers, noise floors and risk
forms.  :func:`stacked` hands the problems of one shape to one numpy call and
splits the results back out in item order; :func:`fill` caches the values of
many problems at once, and :func:`cached` one value on a miss.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError


def stacked(items, key, solve, alone=None, failure: str = "solver failed") -> list:
    """``solve``'s value of each item, in item order.

    The items that share ``key(item)`` go to one ``solve`` call, which takes
    their list and returns one value per item; those whose key satisfies
    ``alone(key)`` go one at a time.  A ``LinAlgError`` from a call over
    several items retries them one at a time, and from a call over one item
    becomes that item's ``NumericalError``, prefixed ``failure``.  An item
    that is already an exception is its own value.
    """
    out = list(items)
    groups: dict = {}
    for i, item in enumerate(items):
        if not isinstance(item, Exception):
            groups.setdefault(key(item), []).append(i)
    for k, idx in groups.items():
        for run in [[i] for i in idx] if alone is not None and alone(k) else [idx]:
            for i, value in zip(run, _solved([items[i] for i in run], solve, failure)):
                out[i] = value
    return out


def _solved(group: list, solve, failure: str) -> list:
    try:
        return solve(group)
    except np.linalg.LinAlgError as exc:
        if len(group) > 1:  # one call each finds the member that failed
            return [value for item in group for value in _solved([item], solve, failure)]
        return [NumericalError(f"{failure}: {exc}")]


def fill(items, compute, strict: bool = False) -> None:
    """Set ``store[key]`` for each ``(store, key, arg)`` whose ``store`` lacks
    ``key``, each ``(store, key)`` once, from one ``compute`` call over their
    ``arg``s, which returns one value per arg.

    Array values are made read-only: every caller shares them.  A value that
    is an exception leaves its key unset, or is raised when ``strict``.
    """
    todo = {(id(store), key): (store, key, arg) for store, key, arg in items if key not in store}
    values = compute([arg for _, _, arg in todo.values()]) if todo else ()
    for (store, key, _), value in zip(todo.values(), values):
        if isinstance(value, Exception):
            if strict:
                raise value
            continue
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        store[key] = value


def cached(store, key, arg, compute):
    """``store[key]``, set by ``compute([arg])`` on a miss; a failed value
    raises on every read."""
    if key not in store:
        fill([(store, key, arg)], compute, strict=True)
    return store[key]
