import numpy as np
import pytest
from hypothesis import settings

from presic_lab import Box, euclidean, lp_truncated, power, squared_euclidean

# Properties draw the same examples on every run, and a slow example is not
# a failure on a loaded machine.
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")


@pytest.fixture
def unit_box():
    return Box(np.zeros(1), np.full(1, 2.0))


@pytest.fixture
def sq_space(unit_box):
    return squared_euclidean(unit_box)


@pytest.fixture
def eu_space():
    return euclidean(Box(np.full(1, -2.0), np.full(1, 2.0)))


def builtin_spaces():
    """One instance of every built-in construction, for property sweeps."""
    box1 = Box(np.zeros(1), np.full(1, 2.0))
    box2 = Box(np.full(2, -1.0), np.full(2, 1.0))
    box4 = Box(np.zeros(4), np.full(4, 2.0))
    return [
        euclidean(box1),
        euclidean(box2),
        squared_euclidean(box1),
        squared_euclidean(box2),
        power(2.0, box1),
        power(3.0, box1),
        lp_truncated(0.5, box4),
    ]


def coordinate_major(a):
    """A copy of `a` that lies in memory with its first axis last, as the
    sampled chunks do: C-contiguous `np.moveaxis(a, 0, -1)`."""
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(a, 0, -1)), -1, 0)
