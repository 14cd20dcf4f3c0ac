import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from arfex.image import RasterImage


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def random_raster(rng, w: int, h: int) -> RasterImage:
    return RasterImage(rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8))


def random_gray(rng, w: int, h: int) -> np.ndarray:
    return rng.integers(0, 256, size=(h, w), dtype=np.uint8)


def gray_raster(levels) -> RasterImage:
    return RasterImage.from_gray(np.asarray(levels, dtype=np.uint8))
