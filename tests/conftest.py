"""Shared fixtures for the whole test suite."""

import pytest

from bwcache import tensor


@pytest.fixture(autouse=True)
def reset_deterministic():
    """Every test starts and ends in the default (BLAS) matmul mode."""
    yield
    tensor.set_deterministic(False)
