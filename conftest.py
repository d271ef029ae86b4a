"""Hooks shared by every test in the repository, under ``tests/`` and
``perfbench/`` alike."""

import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_worker_outlives_its_test():
    """Fail a test that leaves a child process running, such as a pool
    worker that outlived its call, and stop the child so that the next test
    starts clean."""
    yield
    left = multiprocessing.active_children()
    for child in left:
        child.kill()
        child.join()
    assert not left, f"child processes outlived the test: {left}"
