"""Spinor ideals, Hilbert projections, inner/outer products, vector
reconstruction, and the qubit-style gate analogs."""

import math

import numpy as np
import pytest

from geobyte import (
    AxisAngle,
    Multivector,
    Quaternion,
    basis_element,
    cayley_klein,
    covariant,
    degeneracy_partner,
    hadamard_basis_vectors,
    hadamard_regroup,
    inner,
    not_gate,
    outer,
    paravector,
    project,
    quaternion_from_axis_angle,
    reconstruct_vector,
    rotate,
    spinor_components,
    spinor_from_components,
    spinor_pair,
    structure_element,
    to_matrix,
    to_structure_coords,
)
from geobyte._kernels import BLADE_NAMES
from geobyte.errors import DomainError
from geobyte.hilbert import Spinor

from conftest import random_unit_quaternion

E = {name: basis_element(name) for name in BLADE_NAMES}
P3 = paravector(3, "positive").value
N3 = paravector(3, "negative").value
P1 = paravector(1, "positive").value
N1 = paravector(1, "negative").value
I = E["e123"]


# -- projection tables -------------------------------------------------


def test_positive_projection_rows():
    # the four right-multiplications by P3, with their degenerate twins
    assert E["e0"] * P3 == E["e3"] * P3 == P3
    assert E["e1"] * P3 == E["e13"] * P3 == 0.5 * (E["e1"] + E["e13"])
    assert E["e2"] * P3 == E["e23"] * P3 == 0.5 * (E["e2"] + E["e23"])
    assert E["e2"] * P3 == I * (E["e1"] * P3)
    assert E["e12"] * P3 == E["e123"] * P3 == 0.5 * (E["e12"] + E["e123"])
    assert E["e12"] * P3 == I * P3


def test_negative_projection_rows():
    assert E["e0"] * N3 == -(E["e3"] * N3) == N3
    assert E["e1"] * N3 == -(E["e13"] * N3) == 0.5 * (E["e1"] - E["e13"])
    assert -(E["e2"] * N3) == E["e23"] * N3 == -0.5 * (E["e2"] - E["e23"])
    assert E["e23"] * N3 == I * (E["e1"] * N3)
    assert -(E["e12"] * N3) == E["e123"] * N3 == I * N3


def test_project_fixtures():
    assert project(E["e2"], "positive", "right").value == 0.5 * (E["e2"] + E["e23"])
    assert project(E["e0"], "negative", "right").value == N3
    # e12*N3 = (1/2)(e12 - e123), which equals -i*N3
    assert project(E["e12"], "negative", "right").value == 0.5 * (
        E["e12"] - E["e123"]
    )
    assert project(E["e12"], "negative", "right").value == -(I * N3)
    left = project(E["e1"], "positive", "left")
    assert left.variance == "covariant"
    assert left.value == P3 * E["e1"]
    with pytest.raises(DomainError):
        project(E["e1"], "positive", "middle")
    with pytest.raises(DomainError):
        project(E["e1"], "sideways", "right")


def test_degeneracy_partners():
    assert degeneracy_partner("e0", "positive") == ("e3", 1)
    assert degeneracy_partner("e1", "positive") == ("e13", 1)
    assert degeneracy_partner("e2", "positive") == ("e23", 1)
    assert degeneracy_partner("e12", "positive") == ("e123", 1)
    assert degeneracy_partner("e0", "negative") == ("e3", -1)
    assert degeneracy_partner("e2", "negative") == ("e23", -1)
    # partnership is symmetric with the same sign
    for blade in BLADE_NAMES:
        for ideal in ("positive", "negative"):
            partner, sign = degeneracy_partner(blade, ideal)
            assert degeneracy_partner(partner, ideal) == (blade, sign)
    with pytest.raises(DomainError, match="'e4'"):
        degeneracy_partner("e4", "positive")


def test_degeneracy_partner_matrix_oracle():
    # blade * proj = sign * partner * proj, checked exactly on the matrix side
    for ideal, proj in (("positive", P3), ("negative", N3)):
        pm = to_matrix(proj)
        for blade in BLADE_NAMES:
            partner, sign = degeneracy_partner(blade, ideal)
            assert partner != blade and sign in (1, -1)
            assert to_matrix(E[blade]) * pm == sign * (to_matrix(E[partner]) * pm), (
                blade, ideal)


def test_spinor_validation():
    Spinor(P3, "positive", "contravariant")
    with pytest.raises(DomainError):
        Spinor(E["e1"], "positive", "contravariant")
    with pytest.raises(DomainError):
        Spinor(P3, "negative", "contravariant")
    with pytest.raises(DomainError):
        Spinor(P3, "positive", "sideways")


def test_non_finite_spinor_inputs_rejected():
    nan, inf = float("nan"), float("inf")
    for bad in (Multivector([inf, 0, 0, 0, 0, 0, 0, 0]), nan * E["e12"]):
        for side in ("right", "left"):
            with pytest.raises(DomainError):
                project(bad, "positive", side)
    for alpha, beta in ((nan, 0), (0, complex(0, inf)), (complex(-inf, 0), 1)):
        with pytest.raises(DomainError):
            spinor_from_components(alpha, beta)


def test_spinor_json():
    s = project(E["e2"], "positive", "right")
    assert Spinor.from_json(s.to_json()) == s


# -- spinor pairs and components --------------------------------------


def test_spinor_pair_identity():
    gq = spinor_pair(Quaternion.identity())
    assert gq.positive.value == P3
    assert gq.negative.value == N3


def test_spinor_pair_completeness(rng):
    for _ in range(50):
        q = random_unit_quaternion(rng)
        gq = spinor_pair(q)
        assert gq.positive.value + gq.negative.value == q.value


def test_spinor_pair_matrix_columns(rng):
    # positive spinor is the first matrix column (alpha, beta); negative
    # is the second column (-beta*, alpha*)
    for _ in range(20):
        q = random_unit_quaternion(rng)
        ck = cayley_klein(q)
        gq = spinor_pair(q)
        mp = to_matrix(gq.positive.value).array
        mn = to_matrix(gq.negative.value).array
        assert abs(mp[0, 0] - ck.alpha) < 1e-14 and abs(mp[1, 0] - ck.beta) < 1e-14
        assert abs(mp[0, 1]) < 1e-14 and abs(mp[1, 1]) < 1e-14
        assert abs(mn[0, 1] + ck.beta.conjugate()) < 1e-14
        assert abs(mn[1, 1] - ck.alpha.conjugate()) < 1e-14
        assert abs(mn[0, 0]) < 1e-14 and abs(mn[1, 0]) < 1e-14


def test_spinor_components_round_trip(rng):
    for _ in range(20):
        q = random_unit_quaternion(rng)
        s = spinor_pair(q).positive
        alpha, beta = spinor_components(s)
        ck = cayley_klein(q)
        assert abs(alpha - ck.alpha) < 1e-14
        assert abs(beta - ck.beta) < 1e-14
        assert spinor_from_components(alpha, beta).value.approx_eq(s.value, 1e-14)
    with pytest.raises(DomainError):
        spinor_components(spinor_pair(Quaternion.identity()).negative)


def test_structure_coordinate_weights(rng):
    # the positive spinor carries the four diagonal weights on
    # (A, B, C, Dbar); the negative spinor carries the same weights on
    # (Abar, Bbar, Cbar, D); built from the even value
    # rho*e0 - nu*e12 - mu*e13 - lam*e23
    for _ in range(10):
        p = rng.standard_normal(4)
        p /= np.sqrt(np.dot(p, p))
        rho, nu, mu, lam = p
        q = Quaternion(Multivector([rho, 0, 0, 0, -nu, -lam, -mu, 0]))
        w = (
            rho - nu - mu - lam,
            rho + nu + mu - lam,
            rho + nu - mu + lam,
            rho - nu + mu + lam,
        )
        gq = spinor_pair(q)
        pos = to_structure_coords(gq.positive.value)
        neg = to_structure_coords(gq.negative.value)
        for got, want in zip(
            (pos["A"], pos["B"], pos["C"], pos["Dbar"]), w
        ):
            assert abs(got - want) < 1e-12
        for got, want in zip(
            (neg["Abar"], neg["Bbar"], neg["Cbar"], neg["D"]), w
        ):
            assert abs(got - want) < 1e-12
        for label in ("D", "Cbar", "Bbar", "Abar"):
            assert abs(pos[label]) < 1e-12
        for label in ("A", "B", "C", "Dbar"):
            assert abs(neg[label]) < 1e-12


# -- covariant spinors, inner and outer products ----------------------


def test_covariant():
    s = spinor_pair(Quaternion.identity()).positive
    c = covariant(s)
    assert c.variance == "covariant" and c.value == P3
    with pytest.raises(DomainError):
        covariant(c)


def test_covariant_conjugates_components(rng):
    q = random_unit_quaternion(rng)
    s = spinor_pair(q).positive
    c = covariant(s)
    m = to_matrix(c.value).array
    alpha, beta = spinor_components(s)
    # first row (alpha*, beta*), i.e. the adjoint of the first column
    assert abs(m[0, 0] - alpha.conjugate()) < 1e-14
    assert abs(m[0, 1] - beta.conjugate()) < 1e-14


def test_inner_products(rng):
    for _ in range(100):
        q = random_unit_quaternion(rng)
        gq = spinor_pair(q)
        pos = inner(covariant(gq.positive), gq.positive)
        neg = inner(covariant(gq.negative), gq.negative)
        assert pos.approx_eq(P3, 1e-12)
        assert neg.approx_eq(N3, 1e-12)
        assert (pos - neg).approx_eq(E["e3"], 1e-12)


def test_inner_outer_mismatch_errors(rng):
    q = random_unit_quaternion(rng)
    gq = spinor_pair(q)
    with pytest.raises(DomainError):
        inner(covariant(gq.positive), gq.negative)
    with pytest.raises(DomainError):
        inner(gq.positive, gq.positive)
    with pytest.raises(DomainError):
        outer(gq.positive, covariant(gq.negative))
    with pytest.raises(DomainError):
        outer(covariant(gq.positive), gq.positive)


def test_outer_products(rng):
    for _ in range(50):
        q = random_unit_quaternion(rng)
        gq = spinor_pair(q)
        alpha, beta = cayley_klein(q).alpha, cayley_klein(q).beta
        pos = outer(gq.positive, covariant(gq.positive)).value
        neg = outer(gq.negative, covariant(gq.negative)).value
        mp = to_matrix(pos).array
        want_p = np.array(
            [
                [alpha * alpha.conjugate(), alpha * beta.conjugate()],
                [alpha.conjugate() * beta, beta * beta.conjugate()],
            ]
        )
        assert np.max(np.abs(mp - want_p)) < 1e-12
        mn = to_matrix(neg).array
        want_n = np.array(
            [
                [beta * beta.conjugate(), -alpha * beta.conjugate()],
                [-alpha.conjugate() * beta, alpha * alpha.conjugate()],
            ]
        )
        assert np.max(np.abs(mn - want_n)) < 1e-12
        # the rotated-paravector form: (e0 +- a)/2 and the standard
        # traceless difference matrix in the vector components
        a = pos - neg
        diff = to_matrix(a).array
        a1, a2, a3 = a["e1"], a["e2"], a["e3"]
        want_d = np.array(
            [[a3, a1 - 1j * a2], [a1 + 1j * a2, -a3]]
        )
        assert np.max(np.abs(diff - want_d)) < 1e-12
        # idempotency and scalar part 1/2 of the paravector states
        assert (pos * pos).approx_eq(pos, 1e-12)
        assert abs(pos["e0"] - 0.5) < 1e-12


def test_reconstruct_vector(rng):
    assert reconstruct_vector(Quaternion.identity()) == E["e3"]
    q = quaternion_from_axis_angle(AxisAngle(1, 0, 0, math.pi / 2))
    assert reconstruct_vector(q).approx_eq(-E["e2"], 1e-15)
    for _ in range(100):
        q = random_unit_quaternion(rng)
        a = reconstruct_vector(q)
        assert a.approx_eq(rotate(E["e3"], q), 1e-12)
        assert abs(a.norm() - 1.0) < 1e-12
        assert (a - a.grade_project(1)).norm() < 1e-12


# -- gates -------------------------------------------------------------


def test_not_gate():
    s = Spinor(P3, "positive", "contravariant")
    assert not_gate(s).value == E["e1"] * P3
    assert not_gate(not_gate(s)).value == s.value
    flipped = not_gate(spinor_from_components(0.6 + 0.8j, 0))
    alpha, beta = spinor_components(flipped)
    assert abs(alpha) < 1e-15 and abs(beta - (0.6 + 0.8j)) < 1e-15
    with pytest.raises(DomainError):
        not_gate(covariant(s))


def test_not_gate_swaps_components(rng):
    q = random_unit_quaternion(rng)
    s = spinor_pair(q).positive
    alpha, beta = spinor_components(s)
    a2, b2 = spinor_components(not_gate(s))
    assert abs(a2 - beta) < 1e-14 and abs(b2 - alpha) < 1e-14


def test_hadamard_regroup_fixtures():
    terms = hadamard_regroup(spinor_from_components(1, 0))
    assert terms.coeff_plus == 1 and terms.coeff_minus == 1
    assert terms.plus_basis == P1 * P3
    assert terms.minus_basis == N1 * P3
    # the structure-element identities behind the regrouping
    assert P1 * P3 == structure_element("A") + structure_element("C")
    assert N1 * P3 == structure_element("B") + structure_element("Dbar")
    s = 2.0**-0.5
    terms = hadamard_regroup(spinor_from_components(s, s))
    assert abs(terms.coeff_plus - 2.0**0.5) < 1e-15
    assert abs(terms.coeff_minus) < 1e-15


def test_hadamard_regroup_overflow_is_a_domain_error():
    big = spinor_from_components(1.7e308, 1.7e308)
    with pytest.raises(DomainError):
        hadamard_regroup(big)
    terms = hadamard_regroup(spinor_from_components(1.7e308, -1.7e308j))
    assert terms.coeff_plus == complex(1.7e308, -1.7e308)


def test_hadamard_regroup_resums(rng):
    for _ in range(20):
        q = random_unit_quaternion(rng)
        s = spinor_pair(q).positive
        assert hadamard_regroup(s).resum().approx_eq(s.value, 1e-14)


def test_hadamard_basis_vectors():
    plus, minus = hadamard_basis_vectors()
    col = to_matrix(plus.value).array[:, 0]
    s = 2.0**-0.5
    assert np.max(np.abs(col - np.array([s, s]))) < 1e-14
    assert inner(covariant(plus), minus).norm() < 1e-14
    assert inner(covariant(plus), plus).approx_eq(P3, 1e-14)
    assert inner(covariant(minus), minus).approx_eq(P3, 1e-14)


def test_scalar_vector_ambiguity():
    # a single positive projection cannot distinguish e0 from e3
    assert project(E["e0"], "positive", "right").value == project(
        E["e3"], "positive", "right"
    ).value


def test_reconstruct_vector_is_one_sandwich(rng):
    # P3 - N3 = e3 exactly, so Q*P3*~Q - Q*N3*~Q is the rotation of e3
    assert P3 - N3 == E["e3"]
    qs = [random_unit_quaternion(rng) for _ in range(500)]
    qs += [quaternion_from_axis_angle(AxisAngle(0.0, 0.6, -0.8, t)) for t in (0.0, -0.0, math.pi)]
    for q in qs:
        a = reconstruct_vector(q)
        assert a._c == rotate(E["e3"], q)._c
        qv, qr = q.value, q.reversion()
        assert a.approx_eq(qv * P3 * qr - qv * N3 * qr, 1e-15)


def test_hadamard_bases_are_the_products():
    for s in (spinor_from_components(1, 0), spinor_from_components(0.25j, -3)):
        terms = hadamard_regroup(s)
        assert terms.plus_basis._c == (P1 * P3)._c
        assert terms.minus_basis._c == (N1 * P3)._c
