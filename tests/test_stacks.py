"""Stacked calls and the caches they fill (``varcausal._stacks``)."""

from __future__ import annotations

import numpy as np
import pytest

from varcausal._stacks import cached, fill, stacked
from varcausal.errors import NumericalError
from varcausal.harness import ExperimentConfig, records_to_csv, run


def _doubled(calls):
    """A ``solve`` that doubles each item and logs the group it was given."""

    def solve(group):
        calls.append(list(group))
        return [2 * item for item in group]

    return solve


class TestStacked:
    def test_results_follow_item_order_when_keys_interleave(self):
        calls = []
        items = [1, 10, 2, 20, 3]
        assert stacked(items, lambda item: item >= 10, _doubled(calls)) == [2, 20, 4, 40, 6]
        assert calls == [[1, 2, 3], [10, 20]]

    def test_alone_keys_go_one_at_a_time(self):
        calls = []
        out = stacked([1, 10, 2, 20], lambda item: item >= 10, _doubled(calls), alone=bool)
        assert out == [2, 20, 4, 40]
        assert calls == [[1, 2], [10], [20]]

    def test_linalg_error_reaches_only_the_failing_member(self):
        calls = []

        def solve(group):
            calls.append(list(group))
            if 3 in group:
                raise np.linalg.LinAlgError("singular")
            return [-item for item in group]

        out = stacked([1, 2, 3, 4], lambda item: 0, solve, failure="solve failed")
        assert out[:2] + out[3:] == [-1, -2, -4]
        assert isinstance(out[2], NumericalError)
        assert str(out[2]) == "solve failed: singular"
        assert calls == [[1, 2, 3, 4], [1], [2], [3], [4]]

    def test_exception_items_pass_through(self):
        calls = []
        error = NumericalError("unstable")
        out = stacked([1, error, 2], lambda item: 0, _doubled(calls))
        assert out == [2, error, 4] and out[1] is error
        assert calls == [[1, 2]]

    def test_other_errors_propagate(self):
        def solve(group):
            raise ValueError("not a solver failure")

        with pytest.raises(ValueError):
            stacked([1, 2], lambda item: 0, solve)


class TestFill:
    def test_duplicates_are_computed_once_and_cached_keys_skipped(self):
        a, b = {}, {"x": "kept"}
        args = []

        def compute(todo):
            args.append(list(todo))
            return [f"value {arg}" for arg in todo]

        fill([(a, "x", 1), (b, "x", 2), (a, "x", 3), (a, "y", 4)], compute)
        assert args == [[3, 4]]  # (a, "x") once, with its last arg
        assert a == {"x": "value 3", "y": "value 4"} and b == {"x": "kept"}
        fill([(a, "x", 5)], compute)
        assert len(args) == 1

    def test_failures_stay_unset_and_arrays_are_frozen(self):
        store = {}
        fill(
            [(store, "ok", 1), (store, "bad", 2)],
            lambda todo: [np.ones(2), NumericalError("failed")],
        )
        assert set(store) == {"ok"}
        assert not store["ok"].flags.writeable

    def test_strict_raises_the_failure(self):
        store = {}
        with pytest.raises(NumericalError, match="failed"):
            fill([(store, "bad", 1)], lambda todo: [NumericalError("failed")], strict=True)
        assert store == {}


class TestCached:
    def test_computes_once(self):
        store, args = {}, []

        def compute(todo):
            args.extend(todo)
            return [np.arange(3)]

        first = cached(store, "k", "arg", compute)
        assert cached(store, "k", "other", compute) is first
        assert args == ["arg"] and not first.flags.writeable

    def test_failure_raises_on_every_read(self):
        store, calls = {}, []

        def compute(todo):
            calls.append(todo)
            return [NumericalError("failed")]

        for _ in range(2):
            with pytest.raises(NumericalError, match="failed"):
                cached(store, "k", None, compute)
        assert len(calls) == 2 and store == {}


def test_failed_window_root_skips_only_its_process(monkeypatch):
    # An eigh failure on one truth's window used to end the whole run with
    # LinAlgError; now that process alone is skipped at simulation.
    cfg = ExperimentConfig(
        n_processes=4, orders=(2,), n_train=40, n_test=80, mc_draws=50, bucket_size=1,
        master_seed=3,
    )
    base = run(cfg)
    eigh, target = np.linalg.eigh, []

    def failing_eigh(a, *args, **kwargs):
        mats = a if a.ndim == 3 else a[None]
        if not target:  # the chunk's stacked window roots: fail the second
            target.append(mats[1].copy())
        if any(np.array_equal(mat, target[0]) for mat in mats):
            raise np.linalg.LinAlgError("forced failure")
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
    res = run(cfg)
    assert res.metadata["skipped_by_reason"]["simulation"] == 1
    (missing,) = {r.process_id for r in base.records} - {r.process_id for r in res.records}
    kept = [r for r in base.records if r.process_id != missing]
    assert records_to_csv(res.records) == records_to_csv(kept)
