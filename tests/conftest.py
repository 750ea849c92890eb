import numpy as np
import pytest
from hypothesis import settings

from qheun.qheun_op import grid_points, singular_spirals

# Property tests draw the same examples on every run and keep no example
# database, so tier-1 results do not depend on earlier runs.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


def _default_grid(p, count: int = 20, seed: int = 0) -> list[complex]:
    m = min(abs(p.t1), abs(p.t2))
    return grid_points(p.q, singular_spirals(p), count, 0.1 * m, 10.0 * m, seed=seed)


@pytest.fixture
def default_grid():
    """Operator test grid: `count` log-spaced moduli in [0.1 m, 10 m],
    m = min(|t1|, |t2|), kept off the singular spirals."""
    return _default_grid
