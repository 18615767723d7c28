"""Pytest configuration for the end-to-end benchmark's self-test.

``benchmarks/conftest.py`` turns the engine and stage caches off through an
autouse *session* fixture.  That suits the timing benchmarks beside it, but
once a test from this directory activates it, the caches stay off for every
later test of the session — and a tier-1 run collects this directory.  The
self-test runs the benchmark in subprocesses and needs no cache setting, so
the fixture is overridden here with one that leaves the caches alone.
"""

import pytest


@pytest.fixture(scope="session", autouse=True)
def _engine_cache_off():
    """Leave the engine and stage caches as the session configured them."""
    yield
