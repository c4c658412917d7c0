"""Paravectors, structure elements, byte signatures, cube faces and the
diagonal bases.  Printed table rows are frozen here as fixtures."""

import itertools

import numpy as np
import pytest

from geobyte import (
    ByteSignature,
    ComplexScalar,
    Multivector,
    complex_multiply,
    StructureCoords,
    basis_element,
    blade_to_byte_signature,
    byte_signature_to_blade,
    decompose_diag,
    diag_basis,
    diag_projection,
    face_paravector,
    from_structure_coords,
    paravector,
    structure_element,
    to_structure_coords,
)
from geobyte._kernels import BLADE_NAMES
from geobyte.clusters import LABELS, SIGN_MATRIX
from geobyte.errors import DomainError, SpanError

from conftest import random_multivector, signed_zero_coeffs

E = {name: basis_element(name) for name in BLADE_NAMES}

# eighth-scaled sign rows of the structure elements, blade storage order
# (e0, e1, e2, e3, e12, e23, e13, e123)
STRUCTURE_ROWS = {
    "A": (1, 1, 1, 1, 1, 1, 1, 1),
    "B": (1, -1, 1, 1, -1, 1, -1, -1),
    "C": (1, 1, -1, 1, -1, -1, 1, -1),
    "D": (1, 1, 1, -1, 1, -1, -1, -1),
    "Dbar": (1, -1, -1, 1, 1, -1, -1, 1),
    "Cbar": (1, -1, 1, -1, -1, -1, 1, 1),
    "Bbar": (1, 1, -1, -1, -1, 1, -1, 1),
    "Abar": (1, -1, -1, -1, 1, 1, 1, -1),
}

# byte signatures of the 8 blades
BYTE_TABLE = {
    "e0": "+++",
    "e1": "-++",
    "e2": "+-+",
    "e3": "++-",
    "e12": "--+",
    "e23": "+--",
    "e13": "-+-",
    "e123": "---",
}

# structure coordinates of the 8 blades, label order A..Abar
INNER_STRUCTURE_ROWS = {
    "e0": (1, 1, 1, 1, 1, 1, 1, 1),
    "e1": (1, -1, 1, 1, -1, -1, 1, -1),
    "e2": (1, 1, -1, 1, -1, 1, -1, -1),
    "e3": (1, 1, 1, -1, 1, -1, -1, -1),
    "e12": (1, -1, -1, 1, 1, -1, -1, 1),
    "e23": (1, 1, -1, -1, -1, -1, 1, 1),
    "e13": (1, -1, 1, -1, -1, 1, -1, 1),
    "e123": (1, -1, -1, -1, 1, 1, 1, -1),
}

# cube faces: labels carrying coefficient 1 in each paravector
FACE_TABLE = {
    (1, "positive"): {"A", "Bbar", "C", "D"},
    (1, "negative"): {"Abar", "B", "Cbar", "Dbar"},
    (2, "positive"): {"A", "B", "Cbar", "D"},
    (2, "negative"): {"Abar", "Bbar", "C", "Dbar"},
    (3, "positive"): {"A", "B", "C", "Dbar"},
    (3, "negative"): {"Abar", "Bbar", "Cbar", "D"},
}


def test_paravector_fixtures():
    p3 = paravector(3, "positive")
    assert p3.value == 0.5 * E["e0"] + 0.5 * E["e3"]
    n1 = paravector(1, "negative")
    assert n1.value == 0.5 * E["e0"] - 0.5 * E["e1"]
    p2 = paravector(2, "positive").value
    assert p2 * p2 == p2
    with pytest.raises(DomainError):
        paravector(4, "positive")


def test_paravector_complementarity():
    for axis in (1, 2, 3):
        p = paravector(axis, "positive").value
        n = paravector(axis, "negative").value
        assert p * n == Multivector.zero()
        assert n * p == Multivector.zero()
        assert p + n == E["e0"]
        assert p - n == E[f"e{axis}"]


def test_structure_element_rows():
    for label, row in STRUCTURE_ROWS.items():
        expected = Multivector(np.array(row) / 8.0)
        assert structure_element(label) == expected, label
    assert structure_element("Abar") == structure_element("A").grade_involution()
    with pytest.raises(DomainError):
        structure_element("E")


def test_structure_products_close_complexly():
    # The eight structure elements are not idempotent and do not
    # annihilate pairwise (that is impossible for eight nonzero elements
    # in an algebra isomorphic to the 2x2 complex matrices: mutually
    # annihilating idempotents each carry matrix trace >= 1, and the
    # whole algebra only has trace 2 to distribute, so at most two fit).
    # What does hold exactly: every one of the 64 products is a complex
    # multiple z*S_M of a structure element, with z = (+-1+-i)/4, where i
    # is realized as the pseudoscalar e123.  (The representation is not
    # unique: e.g. C = -i*A exactly, so the elements pair up under
    # pseudoscalar multiplication.)
    weights = [complex(sr, si) / 4.0 for sr in (1, -1) for si in (1, -1)]
    for la, lb in itertools.product(LABELS, repeat=2):
        prod = structure_element(la) * structure_element(lb)
        matches = [
            (lc, z)
            for lc in LABELS
            for z in weights
            if complex_multiply(ComplexScalar(z.real, z.imag), structure_element(lc))
            == prod
        ]
        assert matches, (la, lb)
        assert prod != Multivector.zero(), (la, lb)
        assert prod != structure_element(la), (la, lb)


def test_structure_absorption_by_projectors():
    # the property the spinor calculus actually relies on: elements
    # ending in P3 absorb P3 on the right, elements ending in N3 are
    # killed by it, and vice versa
    p3 = paravector(3, "positive").value
    n3 = paravector(3, "negative").value
    for label in LABELS:
        s = structure_element(label)
        ends_positive = label in ("A", "B", "C", "Dbar")
        if ends_positive:
            assert s * p3 == s and s * n3 == Multivector.zero()
        else:
            assert s * n3 == s and s * p3 == Multivector.zero()


def test_structure_completeness():
    total = Multivector.zero()
    for label in LABELS:
        total = total + structure_element(label)
    assert total == E["e0"]


def test_inner_structure_rows():
    for name, row in INNER_STRUCTURE_ROWS.items():
        assert to_structure_coords(E[name]).values == tuple(float(x) for x in row)
    assert to_structure_coords(structure_element("A")).values == (
        1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
    )


def test_structure_coords_round_trip(rng):
    assert from_structure_coords(StructureCoords((1,) * 8)) == E["e0"]
    assert from_structure_coords(StructureCoords((0,) * 8)) == Multivector.zero()
    # exact round trip on dyadic coefficients (the +-1 change-of-basis
    # sums are then exact in binary floating point)
    for _ in range(100):
        m = Multivector(rng.integers(-(2**20), 2**20, size=8) / 2.0**10)
        assert from_structure_coords(to_structure_coords(m)) == m
    # general floats round-trip to machine precision
    for _ in range(100):
        m = random_multivector(rng)
        back = from_structure_coords(to_structure_coords(m))
        assert back.approx_eq(m, 1e-14 * max(1.0, m.norm()))


def test_structure_matrices_are_mutual_inverses():
    # independent route: numerical inverse of the +-1/8 definition matrix
    cols = np.stack([structure_element(l).coeffs for l in LABELS], axis=1)
    inv = np.linalg.inv(cols)
    for name in BLADE_NAMES:
        coords = to_structure_coords(E[name]).values
        assert np.allclose(coords, inv @ E[name].coeffs, atol=1e-12)


def test_byte_signature_table():
    for blade, text in BYTE_TABLE.items():
        sig = ByteSignature.parse(text)
        assert byte_signature_to_blade(sig) == E[blade]
        assert str(blade_to_byte_signature(blade)) == text
    with pytest.raises(DomainError):
        blade_to_byte_signature("e21")
    with pytest.raises(DomainError):
        ByteSignature.parse("++")


def test_byte_signature_round_trip():
    for blade in BLADE_NAMES:
        sig = blade_to_byte_signature(blade)
        assert byte_signature_to_blade(sig) == E[blade]


def test_error_correction_property():
    # Hamming-1 signature pairs change exactly 4 of 8 structure signs
    pairs = 0
    for a, b in itertools.combinations(BLADE_NAMES, 2):
        sa, sb = blade_to_byte_signature(a), blade_to_byte_signature(b)
        if sa.hamming(sb) != 1:
            continue
        pairs += 1
        ra = to_structure_coords(E[a]).values
        rb = to_structure_coords(E[b]).values
        assert sum(x != y for x, y in zip(ra, rb)) == 4
    assert pairs == 12


def test_face_paravectors():
    for (axis, pol), labels in FACE_TABLE.items():
        coords = face_paravector(axis, pol)
        for label in LABELS:
            assert coords[label] == (1.0 if label in labels else 0.0)
    # P3 + N3 covers the whole cube like e0 does
    p = np.array(face_paravector(3, "positive").values)
    n = np.array(face_paravector(3, "negative").values)
    assert (p + n).tolist() == list(to_structure_coords(E["e0"]).values)


def test_vector_diag_rows():
    rows = [
        (0, 1, 1, 1, 0, 0, 0, 1),
        (0, -1, 1, 1, 0, 0, 0, -1),
        (0, 1, -1, 1, 0, 0, 0, -1),
        (0, 1, 1, -1, 0, 0, 0, -1),
    ]
    for mv, row in zip(diag_basis("vector_diag"), rows):
        assert mv == Multivector(np.array(row) / 4.0)


def test_quaternion_diag_rows_derived():
    # row B as printed duplicates row C; these are the definition-derived
    # values (the duplicated printed row matches C, not B)
    rows = [
        (1, 0, 0, 0, 1, 1, 1, 0),
        (1, 0, 0, 0, -1, 1, -1, 0),
        (1, 0, 0, 0, -1, -1, 1, 0),
        (1, 0, 0, 0, 1, -1, -1, 0),
    ]
    for mv, row in zip(diag_basis("quaternion_diag"), rows):
        assert mv == Multivector(np.array(row) / 4.0)
    with pytest.raises(DomainError):
        diag_basis("mixed")


def test_diag_span_intersection_trivial():
    # the two families live on disjoint blade sets
    for v in diag_basis("vector_diag"):
        for q in diag_basis("quaternion_diag"):
            assert float(np.dot(v.coeffs, q.coeffs)) == 0.0


def test_decompose_vector_diag():
    assert decompose_diag(E["e1"], "vector_diag") == (1.0, -1.0, 1.0, 1.0)
    a1, a2, a3 = 0.25, -1.5, 2.0
    vec = a1 * E["e1"] + a2 * E["e2"] + a3 * E["e3"]
    got = decompose_diag(vec, "vector_diag")
    expected = (a1 + a2 + a3, -a1 + a2 + a3, a1 - a2 + a3, a1 + a2 - a3)
    assert got == expected


def test_decompose_quaternion_diag():
    assert decompose_diag(E["e0"], "quaternion_diag") == (1.0, 1.0, 1.0, 1.0)
    # the traditional-basis form rho*e0 - nu*e12 - mu*e13 - lam*e23
    # regroups onto the main diagonals with these coefficients
    rho, nu, mu, lam = 0.5, -0.25, 0.125, 0.75
    q = Multivector([rho, 0, 0, 0, -nu, -lam, -mu, 0])
    got = decompose_diag(q, "quaternion_diag")
    assert got == (
        rho - nu - mu - lam,
        rho + nu + mu - lam,
        rho + nu - mu + lam,
        rho - nu + mu + lam,
    )


def test_decompose_resums(rng):
    for kind in ("vector_diag", "quaternion_diag"):
        basis = diag_basis(kind)
        for _ in range(20):
            w = rng.standard_normal(4)
            m = Multivector(sum(wi * b.coeffs for wi, b in zip(w, basis)))
            got = decompose_diag(m, kind, tol=1e-9)
            resum = Multivector(sum(g * b.coeffs for g, b in zip(got, basis)))
            assert resum.approx_eq(m, 1e-12)


def test_decompose_out_of_span():
    with pytest.raises(SpanError) as exc:
        decompose_diag(E["e1"], "quaternion_diag")
    assert exc.value.residual == 1.0
    coeffs, residual = diag_projection(E["e1"], "quaternion_diag")
    assert coeffs == (0.0, 0.0, 0.0, 0.0)
    assert residual == 1.0


def test_decompose_non_finite_out_of_span():
    for kind in ("vector_diag", "quaternion_diag"):
        with pytest.raises(SpanError):
            decompose_diag(Multivector([float("nan")] * 8), kind)


def test_structure_coords_json():
    coords = to_structure_coords(E["e12"])
    assert StructureCoords.from_json(coords.to_json()) == coords
    with pytest.raises(ValueError):
        StructureCoords.from_json({"A": 1.0})


def test_structure_coords_bitwise_numpy_product(rng):
    h = np.array(SIGN_MATRIX, dtype=float)
    zeros = np.array(list(itertools.product((0.0, -0.0), repeat=8)))
    for c in itertools.chain(zeros, signed_zero_coeffs(rng, 2000)):
        got = np.array(to_structure_coords(Multivector(c)).values)
        assert got.tobytes() == (h @ c).tobytes(), c


def test_diag_projection_against_numpy_product(rng):
    # coefficients bit for bit against the 4x4 +-1 product; the residual
    # norm within one ulp of numpy's (FMA-based) dot product
    for kind in ("vector_diag", "quaternion_diag"):
        cols = np.stack([b.coeffs for b in diag_basis(kind)], axis=1)
        live = np.flatnonzero(np.any(cols != 0.0, axis=1))
        g = np.rint(4.0 * cols[live].T)
        for c in signed_zero_coeffs(rng, 1000):
            coeffs, residual = diag_projection(Multivector(c), kind)
            assert np.array(coeffs).tobytes() == (g @ c[live]).tobytes(), c
            rest = np.delete(c, live)
            want = float(np.sqrt(np.dot(rest, rest)))
            assert abs(residual - want) <= np.spacing(want), c


def test_diag_bases_are_the_structure_sums():
    pairs = (("A", "Abar"), ("B", "Bbar"), ("C", "Cbar"), ("D", "Dbar"))
    s = structure_element
    assert [m._c for m in diag_basis("vector_diag")] == [(s(a) - s(b))._c for a, b in pairs]
    assert [m._c for m in diag_basis("quaternion_diag")] == [(s(a) + s(b))._c for a, b in pairs]


@pytest.mark.parametrize("kind", ["mixed", ["vector_diag"], None, b"vector_diag"])
def test_unknown_diag_kind_is_a_domain_error(kind):
    with pytest.raises(DomainError, match="unknown diagonal basis"):
        diag_basis(kind)
    with pytest.raises(DomainError, match="unknown diagonal basis"):
        diag_projection(E["e0"], kind)


@pytest.mark.parametrize("axis", [1.0, "1", 2.5, None])
def test_paravector_axis_must_be_an_integer(axis):
    message = f"paravector axis must be 1..3, got {axis!r}"
    for make in (paravector, face_paravector):
        with pytest.raises(DomainError) as err:
            make(axis, "positive")
        assert str(err.value) == message


def test_paravector_axis_is_stored_as_int():
    for axis in (np.int64(2), np.uint8(3), True):
        p = paravector(axis, "negative")
        assert type(p.axis) is int and p.axis == int(axis)
        assert p == paravector(int(axis), "negative")
        assert face_paravector(axis, "negative") == face_paravector(int(axis), "negative")
