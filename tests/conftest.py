import numpy as np
import pytest
from hypothesis import settings

# Property tests draw the same examples on every run and keep no example
# database, so tier-1 results do not depend on earlier runs.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
