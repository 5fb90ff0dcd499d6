"""Fixtures shared by every test module."""
import os

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process behind, running or unreaped
    (training's forked workers must all be reaped by the time `train`
    returns or raises)."""
    yield
    if not hasattr(os, "WNOHANG"):
        return
    try:
        pid, _status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left child process {pid} unreaped" if pid
                else "the test left a child process running")
