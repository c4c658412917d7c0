"""The geometric-product kernel over the 8 blade coefficients.

The blade multiplication table is derived once at import by
transposition counting and stored as an (8, 8, 8) sign tensor; the
product is a single numpy einsum over that tensor.
"""

from __future__ import annotations

import numpy as np

# Blade storage order is fixed once, everywhere: scalar, the three
# vectors, then e12, e23, e13 (note e23 before e13), then the pseudoscalar.
BLADE_TUPLES: tuple[tuple[int, ...], ...] = (
    (),
    (1,),
    (2,),
    (3,),
    (1, 2),
    (2, 3),
    (1, 3),
    (1, 2, 3),
)
BLADE_NAMES: tuple[str, ...] = (
    "e0", "e1", "e2", "e3", "e12", "e23", "e13", "e123",
)
BLADE_INDEX: dict[tuple[int, ...], int] = {t: i for i, t in enumerate(BLADE_TUPLES)}
NAME_INDEX: dict[str, int] = {n: i for i, n in enumerate(BLADE_NAMES)}


def _blade_product(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Multiply two basis blades; returns (sign, result indices).

    Sign counts the transpositions needed to sort the concatenated index
    list; equal adjacent indices then cancel pairwise (e_i e_i = e0,
    positive signature).
    """
    idx = list(a) + list(b)
    sign = 1
    # bubble sort, counting swaps
    for i in range(len(idx)):
        for j in range(len(idx) - 1 - i):
            if idx[j] > idx[j + 1]:
                idx[j], idx[j + 1] = idx[j + 1], idx[j]
                sign = -sign
    out: list[int] = []
    for k in idx:
        if out and out[-1] == k:
            out.pop()
        else:
            out.append(k)
    return sign, tuple(out)


def _build_tensor() -> np.ndarray:
    """T[i, j, k] = sign with blade_i * blade_j = sign * blade_k, else 0."""
    tensor = np.zeros((8, 8, 8), dtype=np.float64)
    for i, bi in enumerate(BLADE_TUPLES):
        for j, bj in enumerate(BLADE_TUPLES):
            s, res = _blade_product(bi, bj)
            tensor[i, j, BLADE_INDEX[res]] = s
    tensor.setflags(write=False)
    return tensor


PROD_TENSOR = _build_tensor()


def gp(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Geometric product of two 8-coefficient arrays."""
    return np.einsum("i,j,ijk->k", a, b, PROD_TENSOR)
