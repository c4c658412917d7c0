"""Names the API accepts: every finite domain (blades, labels, ideals,
variances, sides, diagonal families, reflections, formats, involutions,
grades, expression names) is read through :func:`geobyte.errors.lookup`,
so an unknown or unhashable name is one typed error that quotes it."""

import ast
from pathlib import Path

import pytest

from geobyte import (
    Multivector,
    Spinor,
    basis_element,
    blade_grade,
    blade_to_byte_signature,
    degeneracy_partner,
    diag_basis,
    diag_projection,
    grade_project,
    involution,
    paravector,
    project,
    render_cube,
    structure_element,
    structure_permutation,
    to_structure_coords,
)
from geobyte.errors import DomainError, UnknownBladeError, UnknownLabelError, lookup
from geobyte.expressions import BinOp, Const, Func, Literal, evaluate

SRC = Path(__file__).resolve().parent.parent / "src" / "geobyte"

E1 = basis_element("e1")
SPINOR_VALUE = project(E1, "positive", "right").value

# entry point -> (call with the name under test, error class)
NAMED = {
    "basis_element": (basis_element, UnknownBladeError),
    "Multivector.basis": (Multivector.basis, UnknownBladeError),
    "blade_grade": (blade_grade, UnknownBladeError),
    "Multivector.__getitem__": (lambda k: E1[k], UnknownBladeError),
    "blade_to_byte_signature": (blade_to_byte_signature, UnknownBladeError),
    "degeneracy_partner": (lambda k: degeneracy_partner(k, "positive"), UnknownBladeError),
    "degeneracy_partner ideal": (lambda k: degeneracy_partner("e1", k), DomainError),
    "grade_project": (lambda k: grade_project(E1, k), DomainError),
    "involution": (lambda k: involution(k, E1), DomainError),
    "paravector polarity": (lambda k: paravector(1, k), DomainError),
    "structure_element": (structure_element, DomainError),
    "diag_basis": (diag_basis, DomainError),
    "diag_projection": (lambda k: diag_projection(E1, k), DomainError),
    "structure_permutation": (structure_permutation, DomainError),
    "Spinor ideal": (lambda k: Spinor(SPINOR_VALUE, k, "contravariant"), DomainError),
    "Spinor variance": (lambda k: Spinor(SPINOR_VALUE, "positive", k), DomainError),
    "project ideal": (lambda k: project(E1, k, "right"), DomainError),
    "project side": (lambda k: project(E1, "positive", k), DomainError),
    "render_cube": (lambda k: render_cube(E1, k), DomainError),
    "evaluate constant": (lambda k: evaluate(Const(k)), DomainError),
    "evaluate function": (lambda k: evaluate(Func(k, Literal(1.0))), DomainError),
    "evaluate operator": (lambda k: evaluate(BinOp(k, Literal(1.0), Literal(2.0))), DomainError),
}


@pytest.mark.parametrize("key", ["nope", []], ids=["unknown", "unhashable"])
@pytest.mark.parametrize("entry", NAMED)
def test_unknown_name_is_one_typed_error_that_names_it(entry, key):
    call, error = NAMED[entry]
    with pytest.raises(DomainError) as info:
        call(key)
    assert type(info.value) is error
    # a blade name is a failed key lookup, the other domains are not
    assert isinstance(info.value, KeyError) == (error is UnknownBladeError)
    assert str(info.value).endswith(repr(key)), str(info.value)
    # no chained KeyError or TypeError in the traceback
    assert info.value.__context__ is None or info.value.__suppress_context__


def test_lookup_returns_the_entry_and_raises_the_given_class():
    table = {"a": 1}
    assert lookup(table, "a", "unknown letter") == 1
    with pytest.raises(UnknownBladeError, match=r"^unknown letter 'b'$"):
        lookup(table, "b", "unknown letter", UnknownBladeError)
    with pytest.raises(DomainError, match=r"^unknown letter \{\}$"):
        lookup(table, {}, "unknown letter")


@pytest.mark.parametrize(
    "tree, name",
    [
        (Const("foo"), "foo"),
        (Func("nope", Literal(1.0)), "nope"),
        (BinOp("/", Literal(1.0), Literal(2.0)), "/"),
    ],
    ids=["constant", "function", "operator"],
)
def test_evaluate_of_a_hand_built_unknown_node_is_a_domain_error(tree, name):
    with pytest.raises(DomainError) as info:
        evaluate(tree)
    assert str(info.value).endswith(repr(name))


@pytest.mark.parametrize("label", ["E", []], ids=["unknown", "unhashable"])
def test_structure_coords_label_is_a_typed_key_error(label):
    coords = to_structure_coords(E1)
    assert coords["A"] == 1.0
    with pytest.raises(UnknownLabelError) as info:
        coords[label]
    assert isinstance(info.value, DomainError) and isinstance(info.value, KeyError)
    assert str(info.value) == f"unknown structure label {label!r}"
    assert info.value.__context__ is None or info.value.__suppress_context__


def test_grade_project_reads_an_integral_float_as_its_grade():
    m = Multivector([1.5, -2.0, 3.25, 0.1, -4.0, 5.5, 6.0, -7.75])
    for k in range(4):
        assert grade_project(m, float(k)) == grade_project(m, k)
    assert grade_project(m, 1.0)._c == grade_project(m, 1)._c


def test_basis_shares_the_immutable_unit_blades():
    assert Multivector.basis("e12") is basis_element("e12")
    assert Multivector.basis("e12")._c == (0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0)


# -- guard: a new name check goes through ``lookup`` ------------------------


def _name_check_violations(path: Path) -> list[str]:
    """``except KeyError`` handlers and ``raise ...Error(f"unknown ...")`` /
    ``f"unsupported ..."`` statements in ``path``, outside
    :func:`geobyte.errors.lookup`."""
    tree = ast.parse(path.read_text(), str(path))
    inside = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and path.name == "errors.py" and node.name == "lookup":
            inside.update(range(node.lineno, node.end_lineno + 1))
    found = []
    for node in ast.walk(tree):
        if getattr(node, "lineno", None) in inside:
            continue
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if any(isinstance(c, ast.Name) and c.id in ("KeyError", "LookupError") for c in caught):
                found.append(f"{path.name}:{node.lineno}: except KeyError")
        elif isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and node.exc.args:
            first = node.exc.args[0]
            if isinstance(first, ast.JoinedStr) and first.values:
                first = first.values[0]
            text = first.value if isinstance(first, ast.Constant) else None
            if isinstance(text, str) and text.startswith(("unknown ", "unsupported ")):
                found.append(f"{path.name}:{node.lineno}: raise {text!r}")
    return found


def test_name_checks_go_through_lookup():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) >= 13
    found = [v for path in paths for v in _name_check_violations(path)]
    assert found == []


def test_guard_sees_a_hand_written_name_check(tmp_path):
    src = tmp_path / "module.py"
    src.write_text(
        "def f(table, k):\n"
        "    try:\n"
        "        return table[k]\n"
        "    except (KeyError, TypeError):\n"
        "        raise DomainError(f'unknown thing {k!r}') from None\n"
        "def g(k):\n"
        "    raise DomainError(f'unsupported format {k!r}')\n"
    )
    assert len(_name_check_violations(src)) == 3


# -- guard: outside input is checked by the package's own rules ------------


def _boundary_violations(path: Path) -> list[str]:
    """``raise ValueError(...)`` statements, and ``from_json`` methods that
    do not call :func:`geobyte.errors.read_json`, in ``path``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "ValueError":
                found.append(f"{path.name}:{node.lineno}: raise ValueError")
        elif isinstance(node, ast.FunctionDef) and node.name == "from_json":
            called = {c.func.id for c in ast.walk(node)
                      if isinstance(c, ast.Call) and isinstance(c.func, ast.Name)}
            if "read_json" not in called:
                found.append(f"{path.name}:{node.lineno}: from_json without read_json")
    return found


def test_outside_input_goes_through_the_package_rules():
    paths = sorted(SRC.glob("*.py"))
    assert sum("def from_json" in path.read_text() for path in paths) == 5
    assert [v for path in paths for v in _boundary_violations(path)] == []


def test_guard_sees_a_raised_value_error_and_a_hand_read_json(tmp_path):
    src = tmp_path / "module.py"
    src.write_text(
        "class C:\n"
        "    @classmethod\n"
        "    def from_json(cls, obj):\n"
        "        if set(obj) != {'a'}:\n"
        "            raise ValueError('needs a')\n"
        "        return cls(obj['a'])\n"
        "def f():\n"
        "    raise ValueError\n"
    )
    assert len(_boundary_violations(src)) == 3


# -- guard: a number from outside is converted once, by a reader -----------

#: file -> the functions that may call ``float``/``complex``: the readers;
#: the two text scanners, with the CLI's complex form of its own; and the
#: read-offs that build a complex number from floats the library holds.
#: ``cmath.isfinite`` is not a conversion here: once the readers have run,
#: it only sees numbers they returned or the library computed.
_CONVERTERS = {
    "errors.py": {"real", "reals", "complexes"},
    "expressions.py": {"_parse"},
    "cli.py": {"_parse_floats", "_parse_complex"},
    "transforms.py": {"cayley_klein"},
    "hilbert.py": {"spinor_components"},
    "multivector.py": {"as_complex"},
    "matrix2.py": {"from_json"},
}


def _conversion_violations(path: Path) -> list[str]:
    """``float(...)``, ``complex(...)``, ``map(float, ...)`` and
    ``map(complex, ...)`` calls in ``path``, outside the functions
    :data:`_CONVERTERS` names for its file."""
    tree = ast.parse(path.read_text(), str(path))
    inside = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name in _CONVERTERS.get(path.name, ()):
            inside.update(range(node.lineno, node.end_lineno + 1))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or node.lineno in inside:
            continue
        func, args = node.func, node.args
        if isinstance(func, ast.Name) and func.id == "map" and args:
            func = args[0]  # map(float, ...) converts as float(...) does
        if isinstance(func, ast.Name) and func.id in ("float", "complex"):
            found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    return found


def test_numbers_are_converted_only_by_the_readers():
    paths = sorted(SRC.glob("*.py"))
    assert [v for path in paths for v in _conversion_violations(path)] == []


def test_guard_sees_a_conversion_outside_the_readers(tmp_path):
    src = tmp_path / "errors.py"
    src.write_text(
        "def real(x):\n"
        "    return float(x)\n"
        "def scale(m, x):\n"
        "    return m * float(x)\n"
        "def parts(xs):\n"
        "    return tuple(map(complex, xs)), complex(xs[0])\n"
    )
    assert len(_conversion_violations(src)) == 3
