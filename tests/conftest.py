"""Session fixtures shared by every test module."""
import pytest

from lacuna import integrals as ig


@pytest.fixture(scope="session", autouse=True)
def _private_cache_dir(tmp_path_factory):
    # sweeps cached by the tests land in a temporary directory, never ~/.cache
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("LACUNA_CACHE_DIR", str(tmp_path_factory.mktemp("lacuna-cache")))
        yield


@pytest.fixture(scope="session")
def sweep40():
    """The diagonal sweep on its default grid: computed once per run."""
    return ig.sweep_diagonal(ig.SWEEP_N_MAX, r_max=ig.SWEEP_R_MAX, tol=ig.SWEEP_TOL)
