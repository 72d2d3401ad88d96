import numpy as np
import pytest
from hypothesis import settings

from volterra import Grid

# Property tests replay the same examples on every machine and run; each
# test keeps its own max_examples.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def unit_grid():
    return Grid(0.0, 1.0, 100)
