"""Shared helpers for the test suite."""

from __future__ import annotations

import os
import tempfile

import numpy as np
import pytest
from hypothesis import settings

from varcausal.process import VarModel, rejection_sample_stable

# The same examples on every run, and nothing written into the checkout:
# no example database, and Hypothesis's other caches (of constants it reads
# from the source) go to the temporary directory.
settings.register_profile(
    "varcausal", derandomize=True, database=None, deadline=None, max_examples=100
)
settings.load_profile("varcausal")
os.environ.setdefault(
    "HYPOTHESIS_STORAGE_DIRECTORY", os.path.join(tempfile.gettempdir(), "varcausal-hypothesis")
)


def random_stable_model(rng: np.random.Generator, p: int, d: int = 1) -> VarModel:
    """One rejection-sampled stable model driven by the given generator."""
    return rejection_sample_stable(p, d, -2.0, 2.0, rng)


def random_stable_pair(rng: np.random.Generator, p: int, q: int):
    from varcausal.risk import ModelPair

    truth = random_stable_model(rng, q)
    fitted = random_stable_model(rng, p)
    return ModelPair(truth=truth, fitted=fitted)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
