import pytest

from dickeqfi.budget import matched_dicke_overlap


@pytest.fixture(autouse=True)
def fresh_matched_overlap():
    """Each test counts its own recurrences: nothing memoised carries over."""
    matched_dicke_overlap.cache_clear()
