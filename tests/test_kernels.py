"""The derived product tensor is a signed permutation table."""

import numpy as np

from geobyte import _kernels


def test_tables_consistent():
    # every blade pair multiplies to exactly one blade, with sign +-1
    for i in range(8):
        for j in range(8):
            row = _kernels.PROD_TENSOR[i, j]
            assert np.count_nonzero(row) == 1
            assert np.abs(row).max() == 1.0
