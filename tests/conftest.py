"""Shared fixtures for the test suite.

Session-scoped: dataset tasks at small scale and one fitted BClean
model per dataset actually exercised end-to-end, so the many tests that
inspect the same model don't refit it.
"""
import pytest

from repro.datasets.registry import load_task


@pytest.fixture(scope="session")
def task():
    """``task(name)`` — the dataset task at ``scale=0.25, seed=1``,
    loaded once per session."""
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = load_task(name, scale=0.25, seed=1)
        return cache[name]
    return get


@pytest.fixture(scope="session")
def fitted(spark, task):
    """``fitted(name)`` — ``BClean("PI")`` fit on ``task(name)`` with its
    UCs, numeric attributes and BN edits, once per session. Tests must
    not modify the returned object."""
    from repro.core.cleaner import BClean
    cache = {}

    def get(name):
        if name not in cache:
            t = task(name)
            cache[name] = BClean("PI").fit(
                spark, t.dirty, ucs=t.ucs, numeric_attrs=t.numeric_attrs,
                bn_edits=t.bn_edits)
        return cache[name]
    return get


@pytest.fixture(scope="session")
def hospital_task(task):
    return task("hospital")


@pytest.fixture(scope="session")
def flights_task(task):
    return task("flights")


@pytest.fixture(scope="session")
def beers_task(task):
    return task("beers")


@pytest.fixture(scope="session")
def fitted_hospital(fitted):
    return fitted("hospital")
