import pytest

from memsnn.synapse import _branch


@pytest.fixture(autouse=True)
def cold_branch_cache():
    """Every test starts with an empty branch-integration cache, so no RK4
    count or cache hit depends on which tests ran before it."""
    _branch.cache_clear()
