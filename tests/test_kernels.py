"""The derived product table and the straight-line kernels generated from
it: the product, the sandwiches and the products by a projector."""

import math
import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geobyte import (
    ComplexScalar, Multivector, _kernels, hilbert, project, spinor_from_components, transforms,
)
from geobyte.clusters import P3, _signed_unit
from geobyte.errors import DomainError
from geobyte.multivector import E1, E3

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


def test_blade_basis_tables():
    assert _kernels.BLADE_NAMES == ("e0", "e1", "e2", "e3", "e12", "e23", "e13", "e123")
    assert _kernels.BLADE_GRADES == (0, 1, 1, 1, 2, 2, 2, 3)
    assert list(_kernels.INVOLUTIONS.items()) == [
        ("reversion", (2, 3)), ("grade_involution", (1, 3)), ("clifford_conjugation", (1, 2)),
    ]


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


# -- kernels generated for fixed operands -----------------------------------


def _negate(c, grades):
    """``c`` with the blades of ``grades`` negated, as an involution does."""
    return tuple(-x if len(t) in grades else x for x, t in zip(c, _kernels.BLADE_TUPLES))


def _bits(c) -> bytes:
    """``struct.pack`` of an 8-tuple, with every NaN packed as one NaN.

    CPython fixes no NaN's sign: its own ``x + y`` gives NaN + NaN either
    sign, depending on whether the interpreter has specialised the
    instruction, so no route reproduces it.  Every other bit counts."""
    return struct.pack("8d", *(math.nan if x != x else x for x in c))


gp = _kernels.gp

#: name -> (generated sandwich, the two-product route it replaces), on 8-tuples
SANDWICHES = {
    "rotate": (transforms._rotate, lambda q, m: gp(gp(q, m), _negate(q, (2, 3)))),
    "reflect_line": (transforms._reflect_line, lambda a, m: gp(gp(a, m), a)),
    "reflect_plane": (
        transforms._reflect_plane,
        lambda b, m: gp(gp(b, _negate(m, (1, 3))), _negate(b, (2, 3))),
    ),
}
#: (ideal, variance) -> (generated projector product, the product by gp):
#: contravariant spinors absorb the projector on the right, covariant on the left
PROJECTIONS = {}
for _ideal, _p in hilbert._PROJECTORS.items():
    PROJECTIONS[_ideal, "contravariant"] = (
        hilbert._ABSORB[_ideal]["contravariant"], lambda m, p=_p._c: gp(m, p)
    )
    PROJECTIONS[_ideal, "covariant"] = (
        hilbert._ABSORB[_ideal]["covariant"], lambda m, p=_p._c: gp(p, m)
    )


def _fixed_cases(values, n=3000, seed=20260):
    """``n`` pairs of 8-tuples drawn from ``values``."""
    pick = random.Random(seed).choice
    return [(tuple(pick(values) for _ in range(8)), tuple(pick(values) for _ in range(8)))
            for _ in range(n)]


_DYADIC = [s * k / 8 for s in (1.0, -1.0) for k in range(0, 25)] + [-0.0]
_HUGE_AND_TINY = [s * 10.0 ** e for s in (1.0, -1.0) for e in (-300, -150, 0, 150, 300)]
_FINITE_CASES = _fixed_cases(_DYADIC) + _fixed_cases(_HUGE_AND_TINY + [0.0, -0.0])
_NON_FINITE_CASES = _fixed_cases(_DYADIC[::5] + _HUGE_AND_TINY + [math.inf, -math.inf, math.nan])


@pytest.mark.parametrize("name", SANDWICHES)
def test_sandwich_is_the_two_product_route_bit_for_bit(name):
    kernel, route = SANDWICHES[name]
    for x, m in _FINITE_CASES + _NON_FINITE_CASES:
        assert _bits(kernel(x, m)) == _bits(route(x, m)), (x, m)


@pytest.mark.parametrize("key", PROJECTIONS)
def test_projector_product_is_the_gp_route_bit_for_bit_on_finite_input(key):
    kernel, route = PROJECTIONS[key]
    for _, m in _FINITE_CASES:
        assert struct.pack("8d", *kernel(m)) == struct.pack("8d", *route(m)), m


_eights = st.tuples(*[st.floats()] * 8)
_finite_eights = st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 8)


@settings(max_examples=300, deadline=None)
@given(x=_eights, m=_eights)
def test_sandwiches_match_the_two_product_route(x, m):
    for kernel, route in SANDWICHES.values():
        assert _bits(kernel(x, m)) == _bits(route(x, m))


@settings(max_examples=300, deadline=None)
@given(m=_finite_eights)
def test_projector_products_match_gp(m):
    for kernel, route in PROJECTIONS.values():
        assert struct.pack("8d", *kernel(m)) == struct.pack("8d", *route(m))


def test_a_unit_constant_operand_is_elided_bit_for_bit():
    # e1 and -e123 as constants: every term is +-m_j, with no multiplication
    for blade, sign in (("e1", 1.0), ("e123", -1.0)):
        c = tuple(sign * x for x in Multivector.basis(blade)._c)
        left = _kernels.product("left", c, ("m", ()))
        right = _kernels.product("right", ("m", ()), c)
        for _, m in _FINITE_CASES:
            assert struct.pack("8d", *left(m)) == struct.pack("8d", *gp(c, m)), (blade, m)
            assert struct.pack("8d", *right(m)) == struct.pack("8d", *gp(m, c)), (blade, m)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_project_rejects_a_non_finite_input_and_names_it(bad):
    m = Multivector([1.0, bad, 0.0, 0.5, 0.0, 0.0, -2.0, 0.0])
    for ideal in ("positive", "negative"):
        for side in ("left", "right"):
            with pytest.raises(DomainError) as err:
                project(m, ideal, side)
            assert repr(m._c) in str(err.value)


# -- every spinor from the absorbing kernel, every partner from the table ---


def _embed_route(alpha: complex, beta: complex) -> tuple[float, ...]:
    """alpha*P3 + beta*(e1*P3) through the full product, with each
    component embedded with i as e123."""
    def embed(z):
        return ComplexScalar._trusted(z.real, z.imag).embed()

    return (embed(alpha) * P3 + embed(beta) * (E1 * P3))._c


_complexes = st.complex_numbers(allow_nan=False, allow_infinity=False)
_EDGE_PARTS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-309, 1e300, -1e300, 1e-300, -1e-300,
               0.375, -1.75, 1.7976931348623157e308]


@settings(max_examples=500, deadline=None)
@given(alpha=_complexes, beta=_complexes)
def test_spinor_from_components_is_the_embed_route_bit_for_bit(alpha, beta):
    got = spinor_from_components(alpha, beta).value._c
    assert struct.pack("8d", *got) == struct.pack("8d", *_embed_route(alpha, beta))


def test_spinor_from_components_on_subnormal_signed_zero_and_extreme_parts():
    pick = random.Random(20261).choice
    cases = [tuple(complex(pick(_EDGE_PARTS), pick(_EDGE_PARTS)) for _ in range(2))
             for _ in range(3000)]
    cases += [(complex(a, b), complex(c, d)) for a in (0.0, -0.0) for b in (0.0, -0.0)
              for c in (0.0, -0.0, 1e-310) for d in (0.0, -0.0, -1e300)]
    for alpha, beta in cases:
        got = spinor_from_components(alpha, beta).value._c
        assert struct.pack("8d", *got) == struct.pack("8d", *_embed_route(alpha, beta)), (
            alpha, beta)


def test_hadamard_basis_vectors_are_the_gp_route_bit_for_bit():
    vectors = hilbert.hadamard_basis_vectors()
    for s, v in zip(vectors, (E1 + E3, E1 - E3)):
        assert struct.pack("8d", *s.value._c) == struct.pack("8d", *((2.0 ** -0.5 * v) * P3)._c)
        assert (s.ideal, s.variance) == ("positive", "contravariant")


@pytest.mark.parametrize("ideal", ["positive", "negative"])
@pytest.mark.parametrize("blade", _kernels.BLADE_NAMES)
def test_degeneracy_partner_is_the_product_by_e3(blade, ideal):
    # blade * e3 = s * partner, and e3 * P3 = P3 but e3 * N3 = -N3
    k, s = _signed_unit((Multivector.basis(blade) * E3)._c)
    flip = 1 if ideal == "positive" else -1
    assert hilbert.degeneracy_partner(blade, ideal) == (_kernels.BLADE_NAMES[k], flip * s)
