"""Shared fixtures for the test suite, and its Hypothesis profiles.

Tier-1 runs under the ``ci`` profile: derandomized (every run draws the same examples),
no deadline and no example database, so a green suite stays green.  Set
``HYPOTHESIS_PROFILE=explore`` to draw fresh random examples instead; a counterexample
found that way is pinned as an ``@example`` or an explicit regression test.
"""

import os

import numpy as np
import pytest
from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None, database=None)
settings.register_profile("explore", deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def small_weight(rng):
    """A small (N, K) FP weight matrix with realistic magnitude."""
    return rng.normal(0.0, 0.02, (128, 256))


@pytest.fixture
def medium_weight(rng):
    """A weight matrix large enough to span several dual-MMA tiles and groups."""
    return rng.normal(0.0, 0.02, (256, 512))


@pytest.fixture
def activations(rng):
    return rng.normal(0.0, 1.0, (16, 256))
