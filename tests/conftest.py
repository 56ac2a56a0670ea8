import numpy as np
import pytest

from oracle import route_kernels
from proxdeblur import make_gaussian_psf


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def psf31():
    return make_gaussian_psf(3, 1.0)


@pytest.fixture(scope="session")
def psf52():
    return make_gaussian_psf(5, 2.0)


@pytest.fixture(scope="session")
def psf74():
    return make_gaussian_psf(7, 4.0)


@pytest.fixture(scope="session")
def asymmetric_psf():
    """A normalized 3x3 kernel with no flip symmetry (adjoint != forward)."""
    return route_kernels()["2d"]
