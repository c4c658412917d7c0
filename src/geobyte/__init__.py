"""geobyte: a computational engine for the geometric algebra G(3,0).

Multivectors, idempotent paravectors and their eight structure elements,
rotations and reflections, Hilbert spinor projections with qubit-style
gate analogs, and a 2x2 complex-matrix representation usable as an
independent cross-check.

Names are resolved on first access (PEP 562): ``import geobyte`` loads
no submodule, and the first access to a name loads the module that
defines it, with what that module imports.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

#: defining module -> the names it exports here
_MODULES = {
    "_kernels": ("BLADE_NAMES",),
    "clusters": (
        "LABELS",
        "ByteSignature",
        "Paravector",
        "StructureCoords",
        "blade_to_byte_signature",
        "byte_signature_to_blade",
        "decompose_diag",
        "diag_basis",
        "diag_projection",
        "face_paravector",
        "from_structure_coords",
        "paravector",
        "structure_element",
        "to_structure_coords",
    ),
    "cube": ("render_cube",),
    "errors": (
        "DomainError",
        "GeobyteError",
        "ParseError",
        "SpanError",
        "UnknownBladeError",
        "UnknownLabelError",
    ),
    "expressions": ("evaluate", "evaluate_text", "format_expression", "parse"),
    "hilbert": (
        "GeometricQubit",
        "HadamardTerms",
        "ParavectorState",
        "Spinor",
        "covariant",
        "degeneracy_partner",
        "hadamard_basis_vectors",
        "hadamard_regroup",
        "inner",
        "not_gate",
        "outer",
        "project",
        "reconstruct_vector",
        "spinor_components",
        "spinor_from_components",
        "spinor_pair",
    ),
    "matrix2": ("ComplexMatrix2", "adjoint", "from_matrix", "to_matrix"),
    "multivector": (
        "ComplexScalar",
        "Multivector",
        "approx_eq",
        "basis_element",
        "blade_grade",
        "complex_multiply",
        "geometric_product",
        "grade_project",
        "involution",
        "linear_combine",
    ),
    "report": ("DecompositionReport", "decompose_report"),
    "transforms": (
        "AxisAngle",
        "CayleyKlein",
        "EulerRodrigues",
        "Quaternion",
        "cayley_klein",
        "compose",
        "euler_rodrigues",
        "quaternion_from_axis_angle",
        "quaternion_from_euler_rodrigues",
        "reflect_line",
        "reflect_plane",
        "reflect_point",
        "rodrigues_matrix",
        "rotate",
        "structure_permutation",
    ),
}

_HOME = {name: module for module, names in _MODULES.items() for name in names}

__all__ = [*_HOME]


def __getattr__(name: str):
    """Load the module behind ``name`` and keep the value as a global, so
    later lookups never come back here.  A submodule name loads that
    submodule, which the import system binds as an attribute."""
    if name in _HOME:
        value = getattr(_import_module(f".{_HOME[name]}", __name__), name)
        globals()[name] = value
        return value
    if name in _MODULES:
        return _import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_MODULES})
