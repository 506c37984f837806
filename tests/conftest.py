"""Checks that every test of the suite carries."""

import threading

import pytest


@pytest.fixture(autouse=True)
def no_leaked_thread():
    # every helper a test starts, through the package or by itself, has
    # ended when the test does
    before = threading.active_count()
    yield
    alive = threading.enumerate()
    assert len(alive) <= before, f"threads left running: {[t.name for t in alive]}"
