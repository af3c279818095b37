import numpy as np
import pytest

import formsim as fs
from formsim.controller import _desired_terms, _edge_cos, _interleave, \
    _layout, _stage
from formsim.linalg import _back


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260808)


@pytest.fixture(scope="session")
def chain5():
    return fs.validate_spanning_tree(5, [(1, 2), (2, 3), (3, 4), (4, 5)])


def chain_tree(n):
    return fs.validate_spanning_tree(n, [(k, k + 1) for k in range(1, n)])


def stage_terms(tree, headings, qd, etad, etadd=None):
    """The ``_Stage`` of ``headings`` and the ``_Desired`` of the desired
    poses, twists and twist rates over ``tree``: the arguments that
    ``Engine.rate`` hands the control law's pieces."""
    lay = _layout(tree)
    arrays = [np.asarray(a, dtype=float) for a in (qd, etad, etadd)
              if a is not None]
    return _stage(lay, headings), _desired_terms(lay, *arrays)


def edge_cosines(tree, headings):
    """The tree's 0-based edges and each edge's cos(theta_p - theta_c) at
    ``headings``, as the stages pass them to ``tree_factor``."""
    st = _stage(_layout(tree), headings)
    return st.lay.edges, _edge_cos(st)


def tree_solve(edges, cos, rhs):
    """``tree_factor``'s pivots, interleaved like the twists with the w
    pivots (all 1), and the solution of G x = rhs for an interleaved
    (2n,) right-hand side, back-substituted by ``linalg._back``. G's w
    block is A_w^T A_w, so the w entries are first summed over each
    subtree, leaves first: b = A_w^{-T} rhs_w as ``_back`` takes it."""
    rhs = np.asarray(rhs, dtype=float)
    bv, bw = rhs[0::2].tolist(), rhs[1::2].tolist()
    for p, c in reversed(edges):
        bw[p] += bw[c]
    piv, mult = fs.tree_factor(edges, cos, bv)
    return (_interleave(piv, [1.0] * len(piv)),
            _interleave(*_back(edges, piv, mult, bv, bw)))


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
