import numpy as np
import pytest

from symsq.states import (
    SpecialClassState,
    SymmetricTwoQubitState,
    from_bloch,
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
