"""The 2x2 complex-matrix representation: an independent dual route for
everything the multivector algebra computes."""

import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from geobyte import (
    ComplexMatrix2,
    Multivector,
    adjoint,
    basis_element,
    cayley_klein,
    from_matrix,
    paravector,
    to_matrix,
)
from geobyte._kernels import BLADE_NAMES

from conftest import random_multivector, random_unit_quaternion, signed_zero_coeffs

E = {name: basis_element(name) for name in BLADE_NAMES}


def test_matrix_value_semantics():
    m = ComplexMatrix2([[1, 2j], [3, 4]])
    assert m.m12 == 2j and m.m21 == 3
    assert m == ComplexMatrix2([[1, 2j], [3, 4]])
    assert (m * m).array[0, 0] == 1 + 6j
    assert (2 * m).array[1, 1] == 8
    assert m.det() == 4 - 6j
    with pytest.raises(ValueError):
        ComplexMatrix2([[1, 2, 3]])
    with pytest.raises(AttributeError):
        m._m = None
    with pytest.raises(ValueError):
        m.array[0, 0] = 0
    # hash agrees with == across signed zeros
    zero, negative_zero = ComplexMatrix2([[0, 0], [0, 0]]), ComplexMatrix2([[-0.0, 0], [0, 0]])
    assert zero == negative_zero and len({zero, negative_zero}) == 1


def test_matrix_json_round_trip():
    m = ComplexMatrix2([[1 + 2j, -0.5], [0.25j, -1 - 1j]])
    assert ComplexMatrix2.from_json(m.to_json()) == m


def test_generator_images():
    assert to_matrix(E["e0"]) == ComplexMatrix2([[1, 0], [0, 1]])
    assert to_matrix(E["e1"]) == ComplexMatrix2([[0, 1], [1, 0]])
    assert to_matrix(E["e2"]) == ComplexMatrix2([[0, -1j], [1j, 0]])
    assert to_matrix(E["e3"]) == ComplexMatrix2([[1, 0], [0, -1]])
    assert to_matrix(E["e123"]) == ComplexMatrix2([[1j, 0], [0, 1j]])


def test_projector_and_spinor_fixtures():
    p3 = paravector(3, "positive").value
    n3 = paravector(3, "negative").value
    assert to_matrix(p3) == ComplexMatrix2([[1, 0], [0, 0]])
    assert to_matrix(n3) == ComplexMatrix2([[0, 0], [0, 1]])
    assert to_matrix(E["e1"] * n3) == ComplexMatrix2([[0, 1], [0, 0]])
    assert to_matrix(E["e1"] * p3) == ComplexMatrix2([[0, 0], [1, 0]])


def test_from_matrix_fixtures():
    assert from_matrix(ComplexMatrix2([[1, 0], [0, 1]])) == E["e0"]
    assert from_matrix(ComplexMatrix2([[0, -1], [1, 0]])) == E["e13"]
    for name in BLADE_NAMES:
        assert from_matrix(to_matrix(E[name])) == E[name]


def test_round_trip_random(rng):
    for _ in range(1000):
        x = ComplexMatrix2(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        back = to_matrix(from_matrix(x))
        assert back.approx_eq(x, 1e-13)
    for _ in range(100):
        m = random_multivector(rng)
        assert from_matrix(to_matrix(m)).approx_eq(m, 1e-13)


def test_homomorphism(rng):
    worst = 0.0
    for _ in range(1000):
        m, n = random_multivector(rng), random_multivector(rng)
        lhs = to_matrix(m * n).array
        rhs = (to_matrix(m) * to_matrix(n)).array
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    assert worst <= 1e-12


def test_linearity(rng):
    m, n = random_multivector(rng), random_multivector(rng)
    lhs = to_matrix(2.5 * m + n).array
    rhs = 2.5 * to_matrix(m).array + to_matrix(n).array
    assert np.max(np.abs(lhs - rhs)) < 1e-14


def test_adjoint_matches_reversion():
    for name in BLADE_NAMES:
        assert adjoint(to_matrix(E[name])) == to_matrix(E[name].reversion())
    p3 = paravector(3, "positive").value
    assert adjoint(to_matrix(p3)) == to_matrix(p3)
    assert adjoint(to_matrix(E["e12"])) == -to_matrix(E["e12"])


def test_adjoint_involutive(rng):
    for _ in range(100):
        x = ComplexMatrix2(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        assert adjoint(adjoint(x)) == x


def test_unit_quaternions_are_unitary(rng):
    for _ in range(50):
        q = random_unit_quaternion(rng)
        u = to_matrix(q.value).array
        assert np.max(np.abs(u @ u.conj().T - np.eye(2))) < 1e-12
        det = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
        assert abs(det - 1.0) < 1e-12


def test_cayley_klein_matrix_layout(rng):
    for _ in range(50):
        q = random_unit_quaternion(rng)
        ck = cayley_klein(q)
        u = to_matrix(q.value).array
        want = np.array(
            [
                [ck.alpha, -ck.beta.conjugate()],
                [ck.beta, ck.alpha.conjugate()],
            ]
        )
        assert np.max(np.abs(u - want)) < 1e-14


@pytest.mark.parametrize(
    "entries",
    [[[1, 2], [3]], [[1, [2]], [3, 4]], ["12", "34"], np.ones((2, 2, 1)), [[None, 1], [2, 3]], 5],
    ids=["ragged", "nested", "strings", "3d", "none", "scalar"],
)
def test_constructor_rejects_non_2x2(entries):
    with pytest.raises(ValueError, match="ComplexMatrix2 needs a 2x2 array"):
        ComplexMatrix2(entries)


def test_constructor_takes_numpy_arrays():
    rows = [[1, 2j], [3.5, -4]]
    assert ComplexMatrix2(np.array(rows)) == ComplexMatrix2(rows)
    assert ComplexMatrix2(np.array(rows)).m21 == 3.5 and type(ComplexMatrix2(rows).m21) is complex


# -- a numpy reference: tensordot over printed images, trace formulas --

# blade images as printed fixtures, in blade order
_PAULI_IMAGES = np.array(
    [
        [[1, 0], [0, 1]],  # e0
        [[0, 1], [1, 0]],  # e1
        [[0, -1j], [1j, 0]],  # e2
        [[1, 0], [0, -1]],  # e3
        [[1j, 0], [0, -1j]],  # e12
        [[0, 1j], [1j, 0]],  # e23
        [[0, -1], [1, 0]],  # e13
        [[1j, 0], [0, 1j]],  # e123
    ],
    dtype=np.complex128,
)


def _reference_to_matrix(c) -> ComplexMatrix2:
    return ComplexMatrix2(np.tensordot(np.asarray(c, dtype=float), _PAULI_IMAGES, axes=(0, 0)))


def _reference_from_matrix(x: ComplexMatrix2) -> Multivector:
    a = x.array
    w0 = (a[0, 0] + a[1, 1]) / 2.0
    w1 = (a[0, 1] + a[1, 0]) / 2.0
    w2 = (a[0, 1] - a[1, 0]) * 0.5j
    w3 = (a[0, 0] - a[1, 1]) / 2.0
    return Multivector([w0.real, w1.real, w2.real, w3.real, w3.imag, w1.imag, -w2.imag, w0.imag])


_FINITE = st.floats(min_value=-1e300, max_value=1e300)
_DYADIC = st.integers(-(2**40), 2**40).map(lambda k: k / 2.0**20)
# few enough bits that products and sums of two products are exact
_SHORT_DYADIC = st.integers(-(2**12), 2**12).map(lambda k: k / 2.0**6)


def _assert_matches_reference(c) -> None:
    m = Multivector(c)
    x = to_matrix(m)
    assert x == _reference_to_matrix(c), c
    assert from_matrix(x) == _reference_from_matrix(x), c


@given(st.lists(_FINITE, min_size=8, max_size=8))
def test_matches_numpy_reference_dense(c):
    _assert_matches_reference(c)


def test_matches_numpy_reference_signed_zeros(rng):
    for c in signed_zero_coeffs(rng, 2000):
        _assert_matches_reference(c)


@given(st.lists(st.builds(complex, _FINITE, _FINITE), min_size=4, max_size=4))
def test_from_matrix_matches_numpy_reference_on_any_matrix(z):
    x = ComplexMatrix2([z[:2], z[2:]])
    assert from_matrix(x) == _reference_from_matrix(x)


@given(st.lists(_DYADIC, min_size=8, max_size=8))
def test_dyadic_round_trip_is_bit_exact(c):
    m = Multivector(c)
    assert struct.pack("8d", *from_matrix(to_matrix(m))._c) == struct.pack("8d", *m._c)


@given(st.lists(st.builds(complex, _SHORT_DYADIC, _SHORT_DYADIC), min_size=9, max_size=9))
def test_arithmetic_matches_numpy(z):
    x, y, s = ComplexMatrix2([z[:2], z[2:4]]), ComplexMatrix2([z[4:6], z[6:8]]), z[8]
    a, b = x.array, y.array
    assert (x + y).array.tolist() == (a + b).tolist()
    assert (x - y).array.tolist() == (a - b).tolist()
    assert (-x).array.tolist() == (-a).tolist()
    assert (x * s).array.tolist() == (a * s).tolist() == (s * x).array.tolist()
    assert adjoint(x).array.tolist() == a.conj().T.tolist()
    assert x.det() == complex(a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0])
    assert (x * y).array.tolist() == (a @ b).tolist()


# -- finite input never turns into NaN --------------------------------


def test_from_matrix_overflow_stays_in_its_coefficient():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m = from_matrix(ComplexMatrix2([[1.7e308, 0], [0, 1.7e308]]))
    assert not any(map(math.isnan, m._c))
    assert m["e123"] == 0.0
    assert m._c[1:] == (0.0,) * 7


def test_to_matrix_and_product_overflow_give_no_nan():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        image = to_matrix(Multivector([1.7e308, 0, 0, 1.7e308, 0, 0, 0, 0]))
        x = ComplexMatrix2([[1e200, 0], [0, 1]])
        square = x * x
    for z in (image.m11, square.m11):
        assert (z.real, z.imag) == (math.inf, 0.0)
    assert (image.m12, image.m21, image.m22) == (0, 0, 0)
    assert (square.m12, square.m21, square.m22) == (0, 0, 1)


@pytest.mark.parametrize("sign", (1.0, -1.0))
@pytest.mark.parametrize("blade", BLADE_NAMES)
def test_from_matrix_halves_a_finite_sum_that_overflows(blade, sign):
    """Each matrix part of 1.7e308 * blade is +-1.7e308, and every
    coefficient sums two parts, so the sum overflows before the halving."""
    m = sign * 1.7e308 * E[blade]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        back = from_matrix(to_matrix(m))
    assert back == m and back[blade] == sign * 1.7e308


def test_from_matrix_keeps_a_sum_with_a_part_that_is_not_finite():
    x = ComplexMatrix2([[complex(math.inf, 1.7e308), 0], [0, complex(1.7e308, math.nan)]])
    assert str(from_matrix(x)._c) == "(inf, 0.0, 0.0, inf, nan, 0.0, 0.0, nan)"


def test_matrix_addition_with_a_non_matrix_is_a_type_error():
    x = ComplexMatrix2([[1, 2], [3, 4]])
    for operand in (1, 2.5, 1j, E["e1"], "x"):
        with pytest.raises(TypeError):
            x + operand
        with pytest.raises(TypeError):
            x - operand
        with pytest.raises(TypeError):
            operand - x
