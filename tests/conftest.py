import numpy as np
import pytest

from geobyte import Multivector, Quaternion


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_multivector(rng) -> Multivector:
    return Multivector(rng.standard_normal(8))


def random_unit_quaternion(rng) -> Quaternion:
    v = rng.standard_normal(4)
    v /= np.sqrt(np.dot(v, v))
    return Quaternion(Multivector([v[0], 0, 0, 0, v[1], v[2], v[3], 0]))


def signed_zero_coeffs(rng, n: int) -> np.ndarray:
    """n rows of 8 finite coefficients with magnitudes 1e-30..1e150 and
    +-0.0 mixed in, for bit-for-bit comparisons."""
    x = rng.choice((-1.0, 1.0), (n, 8)) * 10.0 ** rng.uniform(-30, 150, (n, 8))
    x[rng.random((n, 8)) < 0.15] = 0.0
    x[rng.random((n, 8)) < 0.15] = -0.0
    return x
