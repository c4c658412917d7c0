"""Command line front end.

Exit codes: 0 success, 1 domain error, 2 syntax or usage error.  Every
number a command prints passes :func:`_finite` first, so a value that
overflows after parsing exits 1 instead of printing inf or nan.

Dispatch: the subcommands and their arguments are declared once, in
``_COMMANDS``.  ``main`` binds a plain command line straight from that
table to a namespace (see :func:`_bind`).  Plain means a subcommand, then
each option exactly as ``--opt value`` or ``--opt=value`` (a separate
value must not start with "-"), the positional anywhere or as ``-- EXPR``
at the end, every required argument given (a repeated option keeps its
last value, as in argparse), and every value one of its choices.  Every
other command line (help, an abbreviation, an unknown option, any other
"--", an invalid choice, a missing or extra argument, an empty or unknown
command) goes to the top-level ``parse_args`` of the parser that
:func:`build_parser` builds from the same table.  argparse is imported
and that parser built only then, and both routes print the same output
and exit codes.

The transform, spinor and cube layers are imported inside the
subcommands that use them, so ``eval`` and the other commands never load
them; ``reflect --in`` declares its choices as a function for that reason.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from types import SimpleNamespace

from ._kernels import BLADE_NAMES
from .clusters import LABELS, blade_to_byte_signature, diag_projection, to_structure_coords
from .errors import DomainError, ParseError, require_finite
from .expressions import evaluate_text, format_expression
from .multivector import Multivector

_DIAG_KINDS = {"vdiag": "vector_diag", "qdiag": "quaternion_diag"}
_BASIS_CHOICES = ("blade", "structure", *_DIAG_KINDS)


class _UsageError(Exception):
    pass


def _parse_floats(text: str, n: int, what: str) -> list[float]:
    parts = text.split(",")
    if len(parts) != n:
        raise _UsageError(f"{what} needs {n} comma-separated numbers, got {text!r}")
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise _UsageError(f"bad number in {what}: {text!r}") from None
    if not all(map(math.isfinite, values)):
        raise _UsageError(f"{what} needs finite numbers, got {text!r}")
    return values


def _parse_complex(text: str, what: str) -> complex:
    re, im = _parse_floats(text, 2, what)
    return complex(re, im)


def _finite(values) -> tuple[float, ...]:
    """The values to be printed; :class:`DomainError` unless each is finite.
    A JSON object is built from what this returns, so it is checked once."""
    return require_finite(values, "result must be finite")


def _spinor_json(spinor, values: tuple[float, ...]) -> dict:
    """``spinor.to_json()``, from its value's coefficients ``values``, already checked."""
    value = dict(zip(BLADE_NAMES, values))
    return {"ideal": spinor.ideal, "variance": spinor.variance, "value": value}


def _emit_multivector(m: Multivector, fmt: str) -> None:
    values = _finite(m._c)
    if fmt == "json":
        print(json.dumps(dict(zip(BLADE_NAMES, values))))
    else:
        print(format_expression(m))


def _cmd_eval(args) -> int:
    m = evaluate_text(args.expr)
    if args.basis == "blade":
        _emit_multivector(m, args.format)
    elif args.basis == "structure":
        values = _finite(to_structure_coords(m).values)
        if args.format == "json":
            print(json.dumps(dict(zip(LABELS, values))))
        else:
            for label, value in zip(LABELS, values):
                print(f"{label:<5} {value:g}")
    else:
        coeffs, residual = diag_projection(m, _DIAG_KINDS[args.basis])
        _finite((*coeffs, residual))
        if args.format == "json":
            print(json.dumps({"coefficients": list(coeffs), "residual": residual}))
        else:
            for name, value in zip(("d1", "d2", "d3", "d4"), coeffs):
                print(f"{name} {value:g}")
            print(f"residual {residual:g}")
    return 0


def _cmd_rotate(args) -> int:
    from .transforms import AxisAngle, quaternion_from_axis_angle, rotate

    axis = _parse_floats(args.axis, 3, "--axis")
    (theta,) = _parse_floats(args.theta, 1, "--theta")
    aa = AxisAngle(axis[0], axis[1], axis[2], theta)
    q = quaternion_from_axis_angle(aa)
    target = evaluate_text(args.target)
    _emit_multivector(rotate(target, q), args.format)
    return 0


def _cmd_reflect(args) -> int:
    target = evaluate_text(args.target)
    _emit_multivector(_reflections()[args.mirror](target), args.format)
    return 0


def _cmd_project(args) -> int:
    from .hilbert import project

    target = evaluate_text(args.target)
    ideal = {"pos": "positive", "neg": "negative"}[args.ideal]
    spinor = project(target, ideal, args.side)
    values = _finite(spinor.value._c)
    if args.format == "json":
        print(json.dumps(_spinor_json(spinor, values)))
    else:
        print(f"ideal    {spinor.ideal}")
        print(f"variance {spinor.variance}")
        print(f"value    {format_expression(spinor.value)}")
    return 0


def _cmd_gate(args) -> int:
    from .hilbert import hadamard_regroup, not_gate, spinor_from_components

    alpha = _parse_complex(args.alpha, "--alpha")
    beta = _parse_complex(args.beta, "--beta")
    spinor = spinor_from_components(alpha, beta)
    if args.name == "not":
        result = not_gate(spinor)
        values = _finite(result.value._c)
        if args.format == "json":
            print(json.dumps(_spinor_json(result, values)))
        else:
            print(format_expression(result.value))
    else:  # hadamard
        terms = hadamard_regroup(spinor)
        plus, minus = ([z.real, z.imag] for z in (terms.coeff_plus, terms.coeff_minus))
        _finite(plus + minus)
        if args.format == "json":
            print(json.dumps({
                "coeff_plus": plus, "coeff_minus": minus,
                "plus_basis": terms.plus_basis.to_json(),
                "minus_basis": terms.minus_basis.to_json(),
            }))
        else:
            print(f"coeff_plus  {plus[0]:g},{plus[1]:g}")
            print(f"coeff_minus {minus[0]:g},{minus[1]:g}")
            print(f"plus_basis  {format_expression(terms.plus_basis)}")
            print(f"minus_basis {format_expression(terms.minus_basis)}")
    return 0


def _cmd_cube(args) -> int:
    from .cube import render_cube

    coords = to_structure_coords(evaluate_text(args.target))
    _finite(coords.values)
    sys.stdout.write(render_cube(coords, args.format))
    return 0


def _cmd_signature(args) -> int:
    print(str(blade_to_byte_signature(args.blade)))
    return 0


@functools.cache  # so binding and running reflect import once, not per call
def _reflections() -> dict:
    from .transforms import REFLECTIONS

    return REFLECTIONS


def _choices(keywords: dict):
    """An argument's choices (None: any value); a function returns them."""
    choices = keywords.get("choices")
    return choices() if callable(choices) else choices


_FORMAT = {"--format": {"choices": ("text", "json"), "default": "text"}}

#: each subcommand's handler, help text and arguments: the positional's
#: dest or an option's flag, each with the keywords of its ``add_argument``
_COMMANDS = {
    "eval": (_cmd_eval, "evaluate an expression", {
        "expr": {},
        "--basis": {"choices": _BASIS_CHOICES, "default": "blade"},
        **_FORMAT,
    }),
    "rotate": (_cmd_rotate, "rotate a target about an axis", {
        "--axis": {"required": True, "metavar": "X,Y,Z"},
        "--theta": {"required": True, "help": "angle in radians"},
        "--target": {"default": "e3"},
        **_FORMAT,
    }),
    "reflect": (_cmd_reflect, "reflect a target in a point, line or plane", {
        "--in": {"dest": "mirror", "required": True, "choices": _reflections},
        "--target": {"required": True},
        **_FORMAT,
    }),
    "project": (_cmd_project, "project into a spinor ideal", {
        "--ideal": {"required": True, "choices": ("pos", "neg")},
        "--side": {"required": True, "choices": ("left", "right")},
        "--target": {"required": True},
        **_FORMAT,
    }),
    "gate": (_cmd_gate, "apply a gate analog to alpha*P3 + beta*(e1*P3)", {
        "--name": {"required": True, "choices": ("not", "hadamard")},
        "--alpha": {"required": True, "metavar": "RE,IM"},
        "--beta": {"required": True, "metavar": "RE,IM"},
        **_FORMAT,
    }),
    "cube": (_cmd_cube, "render the unit-cube structure view", {
        "--target": {"required": True},
        "--format": {"choices": ("ascii", "svg"), "default": "ascii"},
    }),
    "signature": (_cmd_signature, "byte signature of a basis blade", {
        "--blade": {"required": True, "choices": BLADE_NAMES},
    }),
}


@functools.cache
def build_parser():
    """The CLI's argument parser, built once per process from
    :data:`_COMMANDS`; ``main`` only reads it, so repeated ``main(argv)``
    calls stay independent."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="geobyte",
        description="Geometric algebra G(3,0) engine: evaluate Clifford "
        "expressions, rotate, reflect, project into spinor ideals, apply "
        "gate analogs, and draw the unit-cube structure view.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, help_text, arguments) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.set_defaults(func=func)
        for name, keywords in arguments.items():
            p.add_argument(name, **{**keywords, "choices": _choices(keywords)})
    return parser


def _bind(argv: list) -> SimpleNamespace | None:
    """The namespace argparse would make of a plain ``argv`` (see the
    module docstring), read from :data:`_COMMANDS`, or None to leave
    ``argv`` to argparse."""
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    func, _, arguments = command
    positional = next((name for name in arguments if name[0] != "-"), None)
    values = {}
    rest = argv[:0:-1]  # the arguments, last first
    while rest:
        arg = rest.pop()
        if arg[:1] != "-":
            name, value = positional, arg
        elif arg == "--" and len(rest) == 1 and rest[0] != "--":
            name, value = positional, rest.pop()
        elif arg in arguments and rest and rest[-1][:1] != "-":
            name, value = arg, rest.pop()
        else:
            name, eq, value = arg.partition("=")
            if not eq:
                return None
        keywords = arguments.get(name)
        if keywords is None or name == positional and name in values:
            return None
        if "choices" in keywords and value not in _choices(keywords):
            return None
        values[name] = value
    bound = {"command": argv[0], "func": func}
    for name, keywords in arguments.items():
        if name in values:
            value = values[name]
        elif name == positional or keywords.get("required"):
            return None
        else:
            value = keywords.get("default")
        bound[keywords.get("dest", name.lstrip("-"))] = value
    return SimpleNamespace(**bound)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _bind(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"syntax error: {exc}", file=sys.stderr)
        return 2
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
