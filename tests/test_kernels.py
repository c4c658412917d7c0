"""The derived product table and the straight-line product generated from it."""

import numpy as np

from geobyte import _kernels

from conftest import signed_zero_coeffs


def test_tables_consistent():
    # every blade pair multiplies to exactly one blade, with sign +-1, and
    # left or right multiplication by one blade permutes the blades
    table = _kernels.PRODUCT_TABLE
    assert len(table) == 8
    for i in range(8):
        assert len(table[i]) == 8
        for j in range(8):
            k, sign = table[i][j]
            assert k in range(8) and sign in (1, -1)
        assert sorted(k for k, _ in table[i]) == list(range(8))
        assert sorted(table[j][i][0] for j in range(8)) == list(range(8))


def _einsum_reference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The product as a dense (8, 8, 8) sign tensor contracted by einsum."""
    tensor = np.zeros((8, 8, 8))
    for i, bi in enumerate(_kernels.BLADE_TUPLES):
        for j, bj in enumerate(_kernels.BLADE_TUPLES):
            sign, res = _kernels._blade_product(bi, bj)
            tensor[i, j, _kernels.BLADE_INDEX[res]] = sign
    return np.einsum("i,j,ijk->k", a, b, tensor)


def test_gp_matches_einsum_reference_bitwise(rng):
    a, b = signed_zero_coeffs(rng, 2000), signed_zero_coeffs(rng, 2000)
    for x, y in zip(a, b):
        got = np.array(_kernels.gp(tuple(x.tolist()), tuple(y.tolist())))
        assert got.tobytes() == _einsum_reference(x, y).tobytes(), (x, y)
