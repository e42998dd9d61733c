import numpy as np
import pytest

from duxwb.core import DualExposurePair, Illuminant, RawImage


# Upper-triangle order of the DEF's covariance block (core.covariance_triu)
_TRIU_ROWS = (0, 0, 0, 1, 1, 2)
_TRIU_COLS = (0, 1, 2, 1, 2, 2)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_image(rng, height=8, width=12, lo=0.05, hi=0.95):
    return RawImage(rng.uniform(lo, hi, size=(3, height, width)))


def scaled_pair(rng, alpha=0.125, height=8, width=12, gt=None):
    """Clean pair where the short frame is an exact scalar multiple of the long."""
    long_img = random_image(rng, height, width)
    short_img = RawImage(long_img.data * alpha)
    return DualExposurePair(long=long_img, short=short_img, exposure_factor=8.0,
                            ground_truth=gt or Illuminant(1.0, 1.0, 1.0).normalized())


def mapping_block(vec):
    """Row-major 3x3 mapping block of a 15-element DEF."""
    return vec.values[:9].reshape(3, 3)


def covariance_block(vec):
    """The symmetric 3x3 covariance rebuilt from a DEF's trailing 6 entries."""
    tri = vec.values[-6:]
    cov = np.zeros((3, 3))
    cov[_TRIU_ROWS, _TRIU_COLS] = tri
    cov[_TRIU_COLS, _TRIU_ROWS] = tri
    return cov


@pytest.fixture
def make_image():
    return random_image


@pytest.fixture
def make_scaled_pair():
    return scaled_pair
