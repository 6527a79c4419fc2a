"""Session fixtures shared by every test module."""
import pytest

from lacuna import integrals as ig


@pytest.fixture(scope="session")
def sweep40():
    """The diagonal sweep on its default grid: computed once per run."""
    return ig.sweep_diagonal(ig.SWEEP_N_MAX, r_max=ig.SWEEP_R_MAX)
