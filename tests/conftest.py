import os

import numpy as np
import pytest

from diracsea.lattice import LatticeConfig, build_basis

TWO_PI = 2.0 * np.pi


@pytest.fixture(scope="session")
def basis_n9():
    return build_basis(LatticeConfig(TWO_PI, 9, 1.0, 1.0))


@pytest.fixture(scope="session")
def basis_n5():
    return build_basis(LatticeConfig(TWO_PI, 5, 1.0, 1.0))


@pytest.fixture(scope="session")
def basis_n3():
    return build_basis(LatticeConfig(TWO_PI, 3, 1.0, 1.0))


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fails a test that leaves a child process behind, running or unreaped:
    a split run's fork and a parallel sweep's pool must both be gone.  The
    exited ones are reaped, so that the next test starts with none."""
    yield
    left = []
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:  # this process has no children
            break
        left.append(f"pid {pid} (reaped)" if pid else "one still running")
        if not pid:
            break
    if left:
        pytest.fail("the test left child processes behind: " + ", ".join(left))
