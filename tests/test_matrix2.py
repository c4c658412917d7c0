"""The 2x2 complex-matrix representation: an independent dual route for
everything the multivector algebra computes."""

import numpy as np
import pytest

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

from conftest import random_multivector, random_unit_quaternion

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
