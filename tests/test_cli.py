"""CLI: every subcommand, both output formats, and the exit-code
contract (0 success, 1 domain error, 2 syntax/usage error)."""

import argparse
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import geobyte
from geobyte import (
    Multivector,
    basis_element,
    decompose_report,
    structure_element,
    to_structure_coords,
)
from geobyte._kernels import BLADE_NAMES
from geobyte.cli import _bind, build_parser, main

from conftest import perfbench_gen

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


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_blade_text(capsys):
    code, out, _ = run(capsys, "eval", "e1*e2")
    assert code == 0
    assert out.strip() == "1.0*e12"


def test_eval_blade_json(capsys):
    code, out, _ = run(capsys, "eval", "(P1-N1)*(P2-N2)*(P3-N3)", "--format", "json")
    assert code == 0
    assert Multivector.from_json(json.loads(out)) == basis_element("e123")


def test_eval_structure(capsys):
    code, out, _ = run(capsys, "eval", "e0", "--basis", "structure", "--format", "json")
    assert code == 0
    assert json.loads(out) == {label: 1.0 for label in json.loads(out)}
    code, out, _ = run(capsys, "eval", "A", "--basis", "structure")
    assert code == 0
    assert out.splitlines()[0].split() == ["A", "1"]


def test_eval_diagonal_bases(capsys):
    code, out, _ = run(capsys, "eval", "e1", "--basis", "vdiag", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["coefficients"] == [1.0, -1.0, 1.0, 1.0]
    assert payload["residual"] == 0.0
    code, out, _ = run(capsys, "eval", "e1", "--basis", "qdiag", "--format", "json")
    assert code == 0
    assert json.loads(out)["residual"] == pytest.approx(1.0)



def test_eval_diagonal_residual_of_a_huge_finite_value(capsys):
    code, out, err = run(capsys, "eval", "--basis", "qdiag", "1e200*e1")
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "residual 1e+200"


def test_rotate(capsys):
    code, out, _ = run(
        capsys,
        "rotate",
        "--axis",
        "0,0,1",
        "--theta",
        str(math.pi / 2),
        "--target",
        "e1",
        "--format",
        "json",
    )
    assert code == 0
    got = Multivector.from_json(json.loads(out))
    assert got.approx_eq(basis_element("e2"), 1e-12)


def test_rotate_default_target(capsys):
    code, out, _ = run(
        capsys, "rotate", "--axis", "0,0,1", "--theta", "0", "--format", "json"
    )
    assert code == 0
    assert Multivector.from_json(json.loads(out)) == basis_element("e3")


def test_reflect(capsys):
    code, out, _ = run(capsys, "reflect", "--in", "e23", "--target", "A", "--format", "json")
    assert code == 0
    got = Multivector.from_json(json.loads(out))
    assert got.approx_eq(structure_element("B"), 1e-15)
    code, out, _ = run(capsys, "reflect", "--in", "point", "--target", "e1")
    assert code == 0
    assert out.strip() == "-1.0*e1"


def test_project(capsys):
    code, out, _ = run(
        capsys,
        "project",
        "--ideal",
        "pos",
        "--side",
        "right",
        "--target",
        "e2",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ideal"] == "positive"
    assert payload["variance"] == "contravariant"
    value = Multivector.from_json(payload["value"])
    assert value == 0.5 * (basis_element("e2") + basis_element("e23"))


def test_gate_not(capsys):
    code, out, _ = run(
        capsys, "gate", "--name", "not", "--alpha", "1,0", "--beta", "0,0"
    )
    assert code == 0
    assert out.strip() == "0.5*e1 + 0.5*e13"


def test_gate_hadamard(capsys):
    code, out, _ = run(
        capsys,
        "gate",
        "--name",
        "hadamard",
        "--alpha",
        "1,0",
        "--beta",
        "0,0",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["coeff_plus"] == [1.0, 0.0]
    assert payload["coeff_minus"] == [1.0, 0.0]
    plus = Multivector.from_json(payload["plus_basis"])
    assert plus == structure_element("A") + structure_element("C")


def test_cube(capsys):
    code, out, _ = run(capsys, "cube", "--target", "e0")
    assert code == 0
    assert out.count("+") >= 8
    code, out, _ = run(capsys, "cube", "--target", "e12", "--format", "svg")
    assert code == 0
    assert out.startswith("<svg")


def test_signature(capsys):
    for blade, sig in BYTE_TABLE.items():
        code, out, _ = run(capsys, "signature", "--blade", blade)
        assert code == 0
        assert out.strip() == sig


def test_exit_code_syntax_error(capsys):
    code, out, err = run(capsys, "eval", "e1*")
    assert code == 2
    assert "syntax error" in err
    code, _, err = run(capsys, "eval", "nosuchname")
    assert code == 2


def test_exit_code_usage_error(capsys):
    code, _, err = run(capsys, "rotate", "--axis", "1,2", "--theta", "0.5")
    assert code == 2
    assert "usage error" in err
    code, _, err = run(capsys, "rotate", "--axis", "a,b,c", "--theta", "0.5")
    assert code == 2


def test_exit_code_domain_error(capsys):
    code, _, err = run(capsys, "rotate", "--axis", "1,1,1", "--theta", "0.5")
    assert code == 1
    assert "domain error" in err


def test_exit_code_bad_flags(capsys):
    assert run(capsys, "eval", "e1", "--basis", "nope")[0] == 2
    assert run(capsys, "nosuchcommand")[0] == 2


@pytest.mark.parametrize(
    "argv, code",
    [
        (["eval", "--", "."], 2),
        (["eval", "--", "1/."], 2),
        (["eval", "--", "\u00b2"], 2),
        (["eval", "--", "e1 + 1/0"], 2),
        (["eval", "--", "1" + "0" * 399 + "*e1"], 2),
        (["eval", "--", "1e300*1e300"], 1),
        (["eval", "--", "(" * 250 + "e1" + ")" * 250], 2),
        (["eval", "--", "-" * 1000 + "e1"], 2),
        (["eval", "--", "(" * 5000 + "e1" + ")" * 5000], 2),
        (["rotate", "--axis=0,0,1", "--theta=inf"], 2),
        (["rotate", "--axis=0,0,1", "--theta=-inf"], 2),
        (["rotate", "--axis=0,0,1", "--theta=nan"], 2),
        (["rotate", "--axis=nan,0,1", "--theta=1"], 2),
        (["rotate", "--axis=1e200,0,0", "--theta=1"], 1),
        (["gate", "--name", "not", "--alpha=nan,0", "--beta=0,0"], 2),
        (["gate", "--name", "hadamard", "--alpha=1.7e308,0", "--beta=1.7e308,0"], 1),
        # finite expressions whose printed result overflows
        (["eval", "--basis", "structure", "--", "1e308*e0+1e308*e1"], 1),
        (["eval", "--basis", "vdiag", "--", "1e308*e1+1e308*e2+1e308*e3"], 1),
        (
            ["rotate", "--axis=0,0,1", "--theta=0.7853981633974483", "--target=1.7e308*e1+1.7e308*e2"],
            1,
        ),
        (["cube", "--target", "1e308*e0+1e308*e1"], 1),
    ],
)
def test_exit_codes_for_defect_inputs(capsys, argv, code):
    got, out, err = run(capsys, *argv)
    assert got == code
    assert out == ""
    assert err.startswith("domain error:" if code == 1 else ("syntax error:", "usage error:"))


def test_overflow_is_reported_without_warnings(capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "eval", "1e308+1e308")
    assert (code, out) == (1, "")
    assert err.startswith("domain error:") and "RuntimeWarning" not in err
    assert caught == []


def _run_python(script: str, *args: str) -> subprocess.CompletedProcess:
    """``script`` in a fresh interpreter that imports this geobyte."""
    src = str(Path(geobyte.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, "-c", script, *args], env=env, capture_output=True, text=True, timeout=60
    )


def test_cli_runs_without_numpy():
    script = (
        "import sys, geobyte, geobyte.cli\n"
        "assert geobyte.cli.main(['eval', 'e1*e2']) == 0\n"
        "unused = ['numpy', 'dataclasses', 'geobyte.hilbert', 'geobyte.cube',\n"
        "          'geobyte.matrix2', 'geobyte.report', 'argparse', 'geobyte.transforms']\n"
        "loaded = [m for m in unused if m in sys.modules]\n"
        "assert not loaded, f'{loaded} were imported'\n"
        "x = geobyte.to_matrix(geobyte.basis_element('e12'))\n"
        "assert geobyte.from_matrix(x * x) == -geobyte.basis_element('e0')\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    proc = _run_python(script)
    assert (proc.returncode, proc.stdout) == (0, "1.0*e12\n"), proc.stderr


_NO_NUMPY_ARGVS = [
    ["eval", "e1*e2", "--basis", "structure", "--format", "json"],
    ["rotate", "--axis", "0,0,1", "--theta", "1.5708", "--target", "e1"],
    ["reflect", "--in", "e23", "--target", "A"],
    ["project", "--ideal", "neg", "--side", "left", "--target", "e1+e12"],
    ["gate", "--name", "hadamard", "--alpha", "1,0", "--beta", "0,1"],
    ["cube", "--target", "e12", "--format", "svg"],
    ["signature", "--blade", "e13"],
]

# the library with numpy blocked: what needs no numpy works, and the
# three numpy-valued accessors raise ImportError
_NUMPY_BLOCKED = """
import copy, contextlib, io, json, pickle, sys
sys.modules["numpy"] = None
import geobyte.cli
from geobyte import (AxisAngle, ComplexMatrix2, Multivector, adjoint, basis_element,
                     from_matrix, rodrigues_matrix, to_matrix)
results = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        results.append([geobyte.cli.main(argv), out.getvalue()])
m = Multivector([0.5, -1, 0.25, 2, 0, 1, -0.75, 3])
n = Multivector([1, 0.5, 0, -2, 0.25, 0, 1, -1])
x, y = to_matrix(m), to_matrix(n)
assert from_matrix(x) == m and from_matrix(y) == n
assert from_matrix(x + y) == m + n and from_matrix(x - y) == m - n
assert from_matrix(x * y) == m * n and from_matrix(-x) == -m
assert from_matrix(2 * x) == 2 * m and from_matrix(x * 0.5) == m * 0.5
assert adjoint(x) == to_matrix(m.reversion())
assert to_matrix(basis_element("e12")).det() == 1 and to_matrix(basis_element("e1")).det() == -1
assert x.approx_eq(to_matrix(m + 1e-15 * basis_element("e3")), 1e-14) and not x.approx_eq(y, 1)
assert x == to_matrix(m) and x != y and len({x, to_matrix(m), -(-x)}) == 1
assert ComplexMatrix2.from_json(json.loads(json.dumps(x.to_json()))) == x
assert pickle.loads(pickle.dumps(x)) == x and copy.deepcopy(x) == x
for needs_numpy in (lambda: x.array, lambda: m.coeffs,
                    lambda: rodrigues_matrix(AxisAngle(0.0, 0.0, 1.0, 0.5))):
    try:
        needs_numpy()
    except ImportError:
        pass
    else:
        raise AssertionError("numpy was not needed")
print(json.dumps(results))
"""


def test_library_runs_with_numpy_blocked(capsys):
    want = [list(run(capsys, *argv)[:2]) for argv in _NO_NUMPY_ARGVS]
    assert [code for code, _ in want] == [0] * 7
    proc = _run_python(_NUMPY_BLOCKED, json.dumps(_NO_NUMPY_ARGVS))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == want


def test_eval_printed_exponents_round_trip(capsys):
    code, out, _ = run(capsys, "eval", "1/100000 + 10000000000000000*e1")
    assert (code, out) == (0, "1e-05*e0 + 1e+16*e1\n")
    assert run(capsys, "eval", "--", out.strip()) == (0, out, "")


def test_main_is_reentrant(capsys):
    argvs = [
        ["eval", "e1*e2", "--basis", "structure"],
        ["rotate", "--axis", "0,0,1", "--theta", "0", "--format", "json"],
        ["rotate", "--axis", "1,2", "--theta", "0.5"],  # usage error
        ["eval", "e1", "--basis", "nope"],  # rejected by argparse
        ["reflect", "--in", "e23", "--target", "A"],
        ["gate", "--name", "hadamard", "--alpha", "1,0", "--beta", "0,0"],
        ["signature", "--blade", "e23"],
    ]
    alone = []
    for argv in argvs:
        build_parser.cache_clear()  # a parser of its own, as in a fresh process
        alone.append(run(capsys, *argv))
    assert [run(capsys, *argv) for argv in argvs] == alone
    assert [run(capsys, *argv) for argv in reversed(argvs)] == alone[::-1]
    assert [code for code, _, _ in alone] == [0, 0, 2, 2, 0, 0, 0]
    assert build_parser() is build_parser()


def _reference_main(argv):
    """``main`` with every argv parsed by the top-level ``parse_args``."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except geobyte.ParseError as exc:
        print(f"syntax error: {exc}", file=sys.stderr)
        return 2
    except geobyte.cli._UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except geobyte.DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 1


_COMMANDS = ("eval", "rotate", "reflect", "project", "gate", "cube", "signature")


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "e1*e2", "--basis", "structure", "--format", "json"],
        ["rotate", "--axis", "0,0,1", "--theta", "1.5708", "--target", "e1"],
        ["reflect", "--in", "e23", "--target", "A"],
        ["project", "--ideal", "neg", "--side", "left", "--target", "e1+e12"],
        ["gate", "--name", "not", "--alpha", "1,0", "--beta", "0,1"],
        ["cube", "--target", "e12", "--format", "svg"],
        ["signature", "--blade", "e13"],
        *([cmd, "-h"] for cmd in _COMMANDS),
        ["eval", "e1", "-h", "junk"],
        ["eval", "e1", "extra"],
        ["cube", "--target", "e1", "e2", "e3"],
        ["signature", "--blade", "e1", "--unknown"],
        ["eval", "e1", "--bas", "structure"],
        ["eval", "e1", "--format=json"],
        ["eval", "--", "-e1"],
        ["eval", "e1", "--", "--basis"],
        ["--", "eval", "e1"],
        ["eval"],
        ["rotate", "--axis", "0,0,1"],
        ["eval", "e1", "--basis", "nope"],
        ["eval", "e1 +"],
        ["eval", "1e308+1e308"],
        [],
        ["-h"],
        ["--he"],
        ["nope"],
        ["EVAL", "e1"],
        ["-x", "eval", "e1"],
    ],
    ids=" ".join,
)
def test_dispatch_matches_top_level_parse_args(capsys, argv):
    code = main(list(argv))
    got = code, *capsys.readouterr()
    code = _reference_main(list(argv))
    assert got == (code, *capsys.readouterr())


# -- the binder: plain argv bound without argparse ------------------------

# per subcommand: each argument (None for the positional) with values for
# it, the valid ones first
_VOCABULARY = {
    "eval": {
        None: ["e1*e2", "-e1", "1/0", "", "--"],
        "--basis": ["structure", "blade", "vdiag", "qdiag", "nope", "-1"],
        "--format": ["json", "text", "svg"],
    },
    "rotate": {
        "--axis": ["0,0,1", "1,0,0", "1,2", "-1,0,0"],
        "--theta": ["0.5", "1e-3", "-1", "nan"],
        "--target": ["e1", "e1+e2", "-e2", "e1 +"],
        "--format": ["json", "text"],
    },
    "reflect": {"--in": ["e23", "point", "e4"], "--target": ["A", "e1*e2", "-e1"], "--format": ["json"]},
    "project": {
        "--ideal": ["pos", "neg", "both"],
        "--side": ["left", "right", "up"],
        "--target": ["e1+e12", ""],
        "--format": ["text", "json"],
    },
    "gate": {
        "--name": ["not", "hadamard", "x"],
        "--alpha": ["1,0", "0.6,0.8", "-1,0"],
        "--beta": ["0,1", "nan,0"],
        "--format": ["json", "text"],
    },
    "cube": {"--target": ["e12", "A+B", "-e1"], "--format": ["ascii", "svg", "text"]},
    "signature": {"--blade": ["e13", "e0", "e4", "-e1"]},
}
# what no plain argv holds: help, "--" alone, empty and dash-only elements,
# an unknown option, an option name that is empty before "="
_ODD_PIECES = [["--"], ["-h"], ["--help"], [""], ["-"], ["-x"], ["--=e1"], ["extra"]]


@st.composite
def _argvs(draw):
    """A subcommand and its arguments, mostly each once in a valid form,
    sometimes omitted, repeated, abbreviated, given an invalid or
    dash-leading value, or mixed with odd elements, in any order."""
    cmd = draw(st.sampled_from(sorted(_VOCABULARY)))
    pieces = []
    for option, values in _VOCABULARY[cmd].items():
        for _ in range(draw(st.sampled_from((1,) * 8 + (0, 2)))):
            value = draw(st.sampled_from(values[:1] * 6 + values))
            if option is None:
                forms = [[value]] * 3 + [["--", value]]
            else:
                forms = [[option, value]] * 6 + [[f"{option}={value}"]] * 3 + [[option[:-1], value], [option]]
            pieces.append(draw(st.sampled_from(forms)))
    pieces += draw(st.sampled_from([[]] * 6 + [[piece] for piece in _ODD_PIECES]))
    return [cmd, *(arg for piece in draw(st.permutations(pieces)) for arg in piece)]


def _captured(route, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = route(list(argv))
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None)
@given(_argvs())
@example(["eval", "--", "-e1"])
@example(["eval", "--", "--"])
@example(["eval", "--format", "json", "--", "e1"])
@example(["eval", "e1", "--", "e2"])
@example(["eval", "--", "e1", "--format", "json"])
@example(["eval", "--basis=nope", "--basis", "blade", "e1"])
@example(["eval", "--basis", "structure", "--basis=blade", "e1"])
@example(["rotate", "--axis=-1,0,0", "--theta=-1", "--target="])
@example(["cube", "--target", "", "--format=svg"])
def test_binder_matches_argparse(argv):
    # argparse's handling of "--" differs across Python versions; this
    # holds the binder to the argparse that is running
    parser = build_parser()
    bound = _bind(argv)
    if bound is not None:
        args, extras = parser.parse_known_args(argv)
        assert (vars(bound), extras) == (vars(args), [])
    assert _captured(main, argv) == _captured(_reference_main, argv)


def test_declared_table_builds_the_parser():
    keywords = {"dest", "choices", "required", "default", "metavar", "help"}
    declared = geobyte.cli._COMMANDS
    for func, help_text, arguments in declared.values():
        assert callable(func) and help_text
        assert all(kw.keys() <= keywords for kw in arguments.values())
        assert sum(not name.startswith("-") for name in arguments) <= 1
    (sub,) = [a for a in build_parser()._actions if a.dest == "command"]
    assert tuple(sub.choices) == tuple(declared)


def test_fresh_help_matches_in_process(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    want = run(capsys, "eval", "-h")
    assert want[0] == 0 and want[1].startswith("usage: geobyte eval")
    proc = _run_python("import sys, geobyte.cli\nsys.exit(geobyte.cli.main(['eval', '-h']))")
    assert (proc.returncode, proc.stdout, proc.stderr) == want


class _ArgparseReached(Exception):
    pass


def test_binder_binds_the_benchmark_pool(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise _ArgparseReached

    build_parser()
    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
    for seed in (1, 7):
        for spec in perfbench_gen().cli_ops(seed, 1000):
            assert main(spec["argv"]) in (0, 1, 2)
    capsys.readouterr()
    for argv in (
        ["eval", "-h"],
        ["eval", "e1", "--bas", "structure"],
        ["rotate", "--axis", "0,0,1", "--theta", "-1"],
    ):
        with pytest.raises(_ArgparseReached):
            main(argv)


def test_main_reads_sys_argv(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["geobyte", "signature", "--blade", "e23"])
    assert (main(), capsys.readouterr().out) == (0, "+--\n")


# -- the exit-code contract on arbitrary input ---------------------------

# how repr, %g and json.dumps spell a non-finite float
_NON_FINITE = re.compile(r"(?i)nan|inf")
_FLOATS = st.floats()  # NaN, +-inf and extremes included
_GRAMMAR_TEXT = st.text(alphabet="0123456789.eE+-*/() iPNABCDbarevconj", max_size=40)


def _assert_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, code)
    if code == 0:
        assert not _NON_FINITE.search(out.getvalue()), (argv, out.getvalue())


@settings(deadline=None)
@given(st.one_of(st.text(max_size=40), _GRAMMAR_TEXT), st.sampled_from(("text", "json")))
def test_eval_contract_on_arbitrary_text(text, fmt):
    _assert_contract(["eval", "--format", fmt, "--", text])


@settings(deadline=None)
@given(
    st.one_of(
        st.tuples(_FLOATS, _FLOATS, _FLOATS),
        st.sampled_from([(0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (0.6, 0.0, -0.8)]),
    ),
    _FLOATS,
    st.sampled_from(("text", "json")),
)
def test_rotate_contract_on_arbitrary_floats(axis, theta, fmt):
    _assert_contract(
        ["rotate", "--axis=" + ",".join(map(repr, axis)), f"--theta={theta!r}", "--format", fmt]
    )


@settings(deadline=None)
@given(
    st.sampled_from(("not", "hadamard")),
    st.tuples(_FLOATS, _FLOATS, _FLOATS, _FLOATS),
    st.sampled_from(("text", "json")),
)
@example("hadamard", (1.7e308, 0.0, 1.7e308, 0.0), "text")  # alpha + beta overflows
def test_gate_contract_on_arbitrary_floats(name, parts, fmt):
    a_re, a_im, b_re, b_im = map(repr, parts)
    _assert_contract(
        ["gate", "--name", name, f"--alpha={a_re},{a_im}", f"--beta={b_re},{b_im}", "--format", fmt]
    )


# -- decomposition report (library side of the eval subcommand) --------


def test_decompose_report_fixture():
    rep = decompose_report(basis_element("e1"))
    assert rep.blade == (0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    assert rep.structure == to_structure_coords(basis_element("e1"))
    assert rep.vector_diag == (1.0, -1.0, 1.0, 1.0)
    assert rep.vector_diag_residual == 0.0
    assert rep.quaternion_diag_residual == pytest.approx(1.0)
    payload = rep.to_json()
    assert payload["blade"]["e1"] == 1.0
    assert payload["vector_diag"]["coefficients"] == [1.0, -1.0, 1.0, 1.0]


def test_decompose_report_resums(rng):
    from geobyte import diag_basis

    v_basis = diag_basis("vector_diag")
    q_basis = diag_basis("quaternion_diag")
    for _ in range(1000):
        m = Multivector(rng.standard_normal(8))
        rep = decompose_report(m)
        resum = Multivector.zero()
        for w, b in zip(rep.vector_diag, v_basis):
            resum = resum + w * b
        for w, b in zip(rep.quaternion_diag, q_basis):
            resum = resum + w * b
        # the two 4D families are complementary: together they carry the
        # whole multivector, and each residual is the mass living in the
        # other family's blade subspace
        assert resum.approx_eq(m, 1e-12 * max(1.0, m.norm()))
        even = (m.coeffs[0] ** 2 + m.coeffs[4] ** 2 + m.coeffs[5] ** 2 + m.coeffs[6] ** 2) ** 0.5
        odd = (m.coeffs[1] ** 2 + m.coeffs[2] ** 2 + m.coeffs[3] ** 2 + m.coeffs[7] ** 2) ** 0.5
        assert abs(rep.vector_diag_residual - even) < 1e-12
        assert abs(rep.quaternion_diag_residual - odd) < 1e-12


def test_quaternion_report_residual(rng):
    from conftest import random_unit_quaternion

    q = random_unit_quaternion(rng)
    rep = decompose_report(q.value)
    assert rep.quaternion_diag_residual < 1e-12
    assert rep.vector_diag_residual == pytest.approx(q.value.norm())


def test_kernel_commands_print_the_golden_text(capsys):
    # one command per generated sandwich and projector kernel; the golden
    # text is what these printed through the two-product route, and CI
    # diffs the installed console script against it without numpy
    golden = (Path(__file__).parent / "golden" / "kernels_cli.txt").read_text()
    got = []
    for line in golden.splitlines():
        if line.startswith("$ geobyte "):
            code, out, err = run(capsys, *line.removeprefix("$ geobyte ").split())
            assert (code, err) == (0, ""), line
            got.append(line + "\n" + out)
    assert len(got) == 5 and "".join(got) == golden


def test_spinor_commands_print_the_golden_text(capsys):
    # the gates build their spinor by the absorbing kernel and the basis
    # mirrors call the reflection kernels directly; the golden text is what
    # these printed through the full product, signed zeros and a subnormal
    # among the inputs, and CI diffs the installed console script against it
    golden = (Path(__file__).parent / "golden" / "spinor_cli.txt").read_text()
    got = []
    for line in golden.splitlines():
        if line.startswith("$ geobyte "):
            code, out, err = run(capsys, *line.removeprefix("$ geobyte ").split())
            assert (code, err) == (0, ""), line
            got.append(line + "\n" + out)
    assert len(got) == 4 and "".join(got) == golden


def test_eval_commands_print_the_golden_text(capsys):
    # every --basis in both formats, signed zeros, a subnormal and fractions,
    # and each way a text fails; the golden text holds stdout, then stderr
    # one line each after "stderr: ", then the exit code, as the tree-building
    # and Multivector-operator fold printed them, and CI diffs the installed
    # console script against it
    golden = (Path(__file__).parent / "golden" / "eval_cli.txt").read_text()
    got = []
    for line in golden.splitlines():
        if line.startswith("$ geobyte "):
            code, out, err = run(capsys, *line.removeprefix("$ geobyte ").split())
            got.append(f"{line}\n{out}")
            got.extend(f"stderr: {e}\n" for e in err.splitlines())
            got.append(f"exit {code}\n")
    assert golden.count("$ geobyte ") == 57 and "".join(got) == golden
