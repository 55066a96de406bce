import numpy as np
import pytest

from symsq.states import (
    SpecialClassState,
    SymmetricTwoQubitState,
    from_bloch,
    random_symmetric_state,
    rho_from_bloch,
    symmetric_from_special,
)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def bell_state():
    """The symmetric Bell state |1,0> = (|01> + |10>)/sqrt(2): special-class
    (0, 0, 1/2, 0), Bloch data s = 0, T = diag(1, 1, -1)."""
    return symmetric_from_special(SpecialClassState(a=0.0, b=0.0, c=0.5, d=0.0))


@pytest.fixture
def product_state():
    """|00><00|: s = r = (0, 0, 1), T = diag(0, 0, 1)."""
    return SymmetricTwoQubitState(rho_from_bloch([0, 0, 1], [0, 0, 1], np.diag([0.0, 0.0, 1.0])))


@pytest.fixture
def maximally_mixed():
    return from_bloch([0, 0, 0], [0, 0, 0], np.zeros((3, 3)))


def _perturbed_triplet(seed, rank, eps):
    """The rho of a rank-`rank` triplet state (random_symmetric_state at
    seed) with r - s, T - T^T and Tr T - 1 moved by eps[0], eps[1] and
    eps[2] (the first two in their largest entry) and Tr rho - 1 by eps[3]."""
    rng = np.random.default_rng(seed)
    state = random_symmetric_state(rank, rng)
    u = rng.normal(size=3)
    a = rng.normal(size=(3, 3))
    a -= a.T
    r = state.s + eps[0] * u / np.max(np.abs(u))
    t = state.T + eps[1] / 2 * a / np.max(np.abs(a)) + eps[2] / 3 * np.eye(3)
    return rho_from_bloch(state.s, r, t) + eps[3] / 4 * np.eye(4)


@pytest.fixture(scope="session")
def perturbed_triplet():
    """_perturbed_triplet, as a fixture that hypothesis tests can take."""
    return _perturbed_triplet
