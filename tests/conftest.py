import numpy as np
import pytest

import formsim as fs


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260808)


@pytest.fixture(scope="session")
def chain5():
    return fs.validate_spanning_tree(5, [(1, 2), (2, 3), (3, 4), (4, 5)])


def chain_tree(n):
    return fs.validate_spanning_tree(n, [(k, k + 1) for k in range(1, n)])


@pytest.fixture(scope="session")
def adaptive_engine():
    """Engine for the torque-level pentagon scenario."""
    return fs.Engine(fs.get_preset("adaptive-pentagon"))


def _full_run(name):
    eng = fs.Engine(fs.get_preset(name))
    return {"engine": eng, "trace": eng.run()}


# Each full-horizon preset run is integrated once per session and shared
# by the acceptance tests and the CLI convergence test.

@pytest.fixture(scope="session")
def dynamic_run():
    """Full torque-level pentagon run: its Engine and Trace."""
    return _full_run("adaptive-pentagon")


@pytest.fixture(scope="session")
def kinematic_run():
    """Full kinematic pentagon run: its Engine and Trace."""
    return _full_run("kinematic-pentagon")
