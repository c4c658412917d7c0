"""Arguments of the wrong class: every callable the package exports ends a
call with ``object()``, ``None`` or ``2.0`` in any required parameter in a
result, a :class:`DomainError` or a :class:`TypeError`, and where the
parameter takes a record (a ``Multivector`` among them) the
:class:`TypeError` names it, as :func:`geobyte.errors.instance` writes it."""

import inspect
import types
import typing

import pytest

import geobyte
from geobyte import (
    AxisAngle,
    ByteSignature,
    EulerRodrigues,
    Multivector,
    Quaternion,
    Spinor,
    adjoint,
    approx_eq,
    basis_element,
    byte_signature_to_blade,
    covariant,
    decompose_diag,
    decompose_report,
    diag_projection,
    format_expression,
    from_matrix,
    from_structure_coords,
    grade_project,
    involution,
    linear_combine,
    parse,
    project,
    quaternion_from_axis_angle,
    quaternion_from_euler_rodrigues,
    render_cube,
    rodrigues_matrix,
    spinor_pair,
    to_matrix,
    to_structure_coords,
)
from geobyte._record import Record
from geobyte.clusters import N1, P1, P3
from geobyte.errors import DomainError

E1 = basis_element("e1")
E12 = basis_element("e12")
Q = quaternion_from_axis_angle(AxisAngle(0, 0, 1, 0.5))
S = project(E1, "positive", "right")
SC = covariant(S)

#: exported callable -> valid arguments, by parameter name
ARGS = {
    "ByteSignature": dict(s1=1, s2=-1, s3=1),
    "Paravector": dict(axis=1, polarity="positive", value=P1),
    "StructureCoords": dict(values=range(8)),
    "blade_to_byte_signature": dict(name="e12"),
    "byte_signature_to_blade": dict(s=ByteSignature(1, -1, 1)),
    "decompose_diag": dict(m=E1, kind="vector_diag"),
    "diag_basis": dict(kind="quaternion_diag"),
    "diag_projection": dict(m=E1, kind="vector_diag"),
    "face_paravector": dict(axis=1, polarity="negative"),
    "from_structure_coords": dict(c=to_structure_coords(E1)),
    "paravector": dict(axis=2, polarity="positive"),
    "structure_element": dict(label="A"),
    "to_structure_coords": dict(m=E1),
    "render_cube": dict(m=E1),
    "evaluate": dict(e=parse("e1 + 2*rev(e12)")),
    "evaluate_text": dict(text="e1 + 2*e12"),
    "format_expression": dict(m=E1),
    "parse": dict(text="-(e1*e2)"),
    "GeometricQubit": dict(positive=S, negative=spinor_pair(Q).negative),
    "HadamardTerms": dict(coeff_plus=1j, coeff_minus=0.5, plus_basis=P1 * P3, minus_basis=N1 * P3),
    "ParavectorState": dict(value=P3),
    "Spinor": dict(value=S.value, ideal="positive", variance="contravariant"),
    "covariant": dict(s=S),
    "degeneracy_partner": dict(blade="e1", ideal="negative"),
    "hadamard_basis_vectors": dict(),
    "hadamard_regroup": dict(s=S),
    "inner": dict(sc=SC, s=S),
    "not_gate": dict(s=S),
    "outer": dict(s=S, sc=SC),
    "project": dict(m=E1, ideal="positive", side="left"),
    "reconstruct_vector": dict(q=Q),
    "spinor_components": dict(s=S),
    "spinor_from_components": dict(alpha=0.6, beta=0.8j),
    "spinor_pair": dict(q=Q),
    "ComplexMatrix2": dict(entries=[[1, 2j], [3, -4]]),
    "adjoint": dict(x=to_matrix(E12)),
    "from_matrix": dict(x=to_matrix(E12)),
    "to_matrix": dict(m=E1),
    "ComplexScalar": dict(re=1.5, im=-2.0),
    "Multivector": dict(coeffs=range(8)),
    "approx_eq": dict(m=E1, n=E12, tol=0.5),
    "basis_element": dict(name="e23"),
    "blade_grade": dict(name="e23"),
    "complex_multiply": dict(z=1j, m=E1),
    "geometric_product": dict(m=E1, n=E12),
    "grade_project": dict(m=E1, k=1),
    "involution": dict(kind="reversion", m=E12),
    "linear_combine": dict(terms=[(2.0, E1)]),
    "DecompositionReport": dict(vars(decompose_report(E1))),
    "decompose_report": dict(m=E1),
    "AxisAngle": dict(c1=0, c2=0, c3=1, theta=0.5),
    "CayleyKlein": dict(alpha=1, beta=0),
    "EulerRodrigues": dict(rho=1, nu=0, mu=0, lam=0),
    "Quaternion": dict(value=Q.value),
    "cayley_klein": dict(q=Q),
    "compose": dict(q1=Q, q2=Q),
    "euler_rodrigues": dict(q=Q),
    "quaternion_from_axis_angle": dict(aa=AxisAngle(0, 0, 1, 0.5)),
    "quaternion_from_euler_rodrigues": dict(er=EulerRodrigues(1, 0, 0, 0)),
    "reflect_line": dict(m=E12, axis=E1),
    "reflect_plane": dict(m=E1, plane=E12),
    "reflect_point": dict(m=E1),
    "rodrigues_matrix": dict(aa=AxisAngle(0, 0, 1, 0.5)),
    "rotate": dict(m=E1, q=Q),
    "structure_permutation": dict(op="e1"),
}
#: exported callables left out, and why
EXEMPT = {
    name: "an exception class: its message and fields are whatever the raiser passes"
    for name in (
        "DomainError", "GeobyteError", "ParseError", "SpanError", "UnknownBladeError",
        "UnknownLabelError",
    )
}
#: what the guard puts in place of each argument
BAD = {"object()": object(), "None": None, "2.0": 2.0}


def _takes_a_record(documented) -> bool:
    """Whether the type ``documented`` is a record class, or a union of them."""
    union = typing.get_origin(documented) in (typing.Union, types.UnionType)
    members = typing.get_args(documented) if union else (documented,)
    return all(isinstance(t, type) and issubclass(t, Record) for t in members)


def _violations(call, args: dict) -> list[str]:
    """The calls of ``call`` with the valid ``args`` and one of :data:`BAD`
    in a required parameter that end in neither a result, a
    :class:`DomainError` nor a :class:`TypeError`, or in a
    :class:`TypeError` that does not name a parameter whose documented type
    is a record.  That type is the parameter's annotation; a record field,
    which has none, is documented as the class of its valid value."""
    call(**args)
    hints = typing.get_type_hints(call.__init__ if isinstance(call, type) else call)
    found = []
    for p in inspect.signature(call).parameters.values():
        if p.default is not p.empty:
            continue
        named = _takes_a_record(hints.get(p.name, type(args[p.name])))
        for shown, bad in BAD.items():
            try:
                call(**{**args, p.name: bad})
            except DomainError:
                pass
            except TypeError as e:
                if named and not str(e).startswith(f"{p.name} must be a "):
                    found.append(f"{p.name}={shown}: TypeError: {e}")
            except Exception as e:  # an AttributeError, say
                found.append(f"{p.name}={shown}: {type(e).__name__}: {e}")
    return found


@pytest.mark.parametrize("name", ARGS)
def test_a_wrong_class_argument_ends_in_a_result_or_a_typed_error(name):
    assert _violations(getattr(geobyte, name), ARGS[name]) == []


def test_every_exported_callable_has_a_row():
    exported = {name for name in geobyte.__all__ if callable(getattr(geobyte, name))}
    assert exported - set(EXEMPT) == set(ARGS)
    assert all(issubclass(getattr(geobyte, name), BaseException) for name in EXEMPT)


def test_guard_sees_an_unchecked_argument():
    def planted(m: Multivector, k: int) -> float:
        return m._c[k]  # AttributeError for each bad m; k's errors are plain TypeErrors

    def doubled(m: Multivector) -> Multivector:
        return m + m  # 2.0 gives a result; object() and None a TypeError naming no one

    assert len(_violations(planted, {"m": E1, "k": 1})) == 3
    assert [v.split(":")[0] for v in _violations(doubled, {"m": E1})] == ["m=object()", "m=None"]


# -- each site that read a wrong-class argument unchecked -------------------

#: site -> (a call with the value under test, the parameter, its classes)
SITES = {
    "to_structure_coords": (to_structure_coords, "m", "Multivector"),
    "from_structure_coords": (from_structure_coords, "c", "StructureCoords"),
    "diag_projection": (lambda x: diag_projection(x, "vector_diag"), "m", "Multivector"),
    "decompose_diag": (lambda x: decompose_diag(x, "vector_diag"), "m", "Multivector"),
    "decompose_report": (decompose_report, "m", "Multivector"),
    "byte_signature_to_blade": (byte_signature_to_blade, "s", "ByteSignature"),
    "to_matrix": (to_matrix, "m", "Multivector"),
    "from_matrix": (from_matrix, "x", "ComplexMatrix2"),
    "adjoint": (adjoint, "x", "ComplexMatrix2"),
    "render_cube": (render_cube, "m", "Multivector or StructureCoords"),
    "format_expression": (format_expression, "m", "Multivector"),
    "grade_project": (lambda x: grade_project(x, 1), "m", "Multivector"),
    "approx_eq m": (lambda x: approx_eq(x, E1, 0.0), "m", "Multivector"),
    "approx_eq n": (lambda x: approx_eq(E1, x, 0.0), "n", "Multivector"),
    "involution": (lambda x: involution("reversion", x), "m", "Multivector"),
    "quaternion_from_axis_angle": (quaternion_from_axis_angle, "aa", "AxisAngle"),
    "rodrigues_matrix": (rodrigues_matrix, "aa", "AxisAngle"),
    "quaternion_from_euler_rodrigues": (quaternion_from_euler_rodrigues, "er", "EulerRodrigues"),
    "Spinor": (lambda x: Spinor(value=x, ideal="positive", variance="contravariant"),
               "value", "Multivector"),
    "Quaternion": (Quaternion, "value", "Multivector"),
    "Multivector.approx_eq": (lambda x: E1.approx_eq(x, 0.0), "other", "Multivector"),
    "ComplexMatrix2.approx_eq": (lambda x: to_matrix(E1).approx_eq(x, 0.0), "other",
                                 "ComplexMatrix2"),
    "ByteSignature.hamming": (lambda x: ByteSignature(1, 1, 1).hamming(x), "other",
                              "ByteSignature"),
    "linear_combine multivector": (lambda x: linear_combine([(1.0, x)]), "terms", "Multivector"),
    "linear_combine term": (lambda x: linear_combine([x]), "terms", r"\(weight, Multivector\) pair"),
}


@pytest.mark.parametrize("bad", BAD.values(), ids=BAD)
@pytest.mark.parametrize("site", SITES)
def test_a_wrong_class_argument_is_a_type_error_that_names_it(site, bad):
    call, name, classes = SITES[site]
    with pytest.raises(TypeError, match=rf"^{name} must be a {classes}, got {type(bad).__name__}$"):
        call(bad)


@pytest.mark.parametrize("term", [(1, E1, 3), (1.0,), E1], ids=["three", "one", "Multivector"])
def test_a_linear_combine_term_that_is_no_pair_is_a_type_error_that_names_terms(term):
    with pytest.raises(TypeError, match=r"^terms must be a \(weight, Multivector\) pair, got "):
        linear_combine([(1.0, E1), term])


def test_involution_reads_its_kind_before_its_multivector():
    with pytest.raises(DomainError, match="unknown involution"):
        involution("nope", None)
