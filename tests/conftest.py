"""Shared fixtures for the test suite.

Fixtures keep the expensive objects (trained emulators, reference functions)
session-scoped so the several-hundred test cases stay fast while still
exercising realistic configurations.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.core.emulator import GPEmulator
from repro.distributions.continuous import Gaussian
from repro.distributions.multivariate import IndependentJoint
from repro.engine import parallel
from repro.udf.base import UDF
from repro.udf.synthetic import reference_function

# Tier-1 must give the same verdict on the same code: the property tests
# search a fixed example sequence.  The randomised search keeps running as
# its own, allowed-to-fail CI job (``--hypothesis-profile=default``).
settings.register_profile("tier1", derandomize=True)
settings.load_profile("tier1")


@pytest.fixture(autouse=True)
def _patches_reach_shard_workers(request):
    """A test that patches runs its sharded queries on pools forked under its patches.

    A warm shard worker keeps the modules as they were when its pool was
    forked, so such a test starts and ends with no idle pool: its patches
    reach its workers, and no worker keeps them for later tests.
    """
    if "monkeypatch" not in request.fixturenames:
        yield
        return
    parallel._POOLS.close()
    yield
    parallel._POOLS.close()


@pytest.fixture
def rng() -> np.random.Generator:
    """A fresh deterministic generator per test."""
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def f1_udf() -> UDF:
    """The smooth single-peak reference function F1 (2-D)."""
    return reference_function("F1")


@pytest.fixture(scope="session")
def f4_udf() -> UDF:
    """The bumpy five-peak reference function F4 (2-D)."""
    return reference_function("F4")


@pytest.fixture(scope="session")
def quadratic_udf() -> UDF:
    """A simple 1-D deterministic UDF with a known closed form."""
    return UDF(lambda x: float(x[0]) ** 2 + 1.0, dimension=1, name="quadratic",
               domain=(np.array([-3.0]), np.array([3.0])))


@pytest.fixture(scope="session")
def linear_udf() -> UDF:
    """A 1-D linear UDF: outputs are analytically tractable for Gaussian input."""
    return UDF(lambda x: 2.0 * float(x[0]) + 1.0, dimension=1, name="linear",
               domain=(np.array([0.0]), np.array([10.0])))


@pytest.fixture(scope="session")
def trained_f1_emulator(f1_udf: UDF) -> GPEmulator:
    """An emulator for F1 trained on a moderate design (shared, read-only)."""
    emulator = GPEmulator(f1_udf)
    emulator.train_initial(60, design="random", random_state=0)
    return emulator


@pytest.fixture
def gaussian_2d_input() -> IndependentJoint:
    """A 2-D Gaussian input tuple inside the default [0, 10]^2 domain."""
    return IndependentJoint([Gaussian(mu=4.0, sigma=0.5), Gaussian(mu=6.0, sigma=0.5)])


@pytest.fixture
def gaussian_1d_input() -> Gaussian:
    """A 1-D Gaussian input tuple."""
    return Gaussian(mu=2.0, sigma=0.3)
