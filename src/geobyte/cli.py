"""Command line front end.

Exit codes: 0 success, 1 domain error, 2 syntax or usage error.  Every
number a command prints passes :func:`_finite` first, so a value that
overflows after parsing exits 1 instead of printing inf or nan.

Dispatch: ``main`` binds a plain command line straight to a namespace,
through a table that ``build_parser`` derives from each subcommand's
``add_argument`` actions (see :func:`_bind`).  Plain means a subcommand,
then each option exactly as ``--opt value`` or ``--opt=value`` (a
separate value must not start with "-"), the positional anywhere or as
``-- EXPR`` at the end, every required argument given (a repeated option
keeps its last value, as in argparse), and every value one of its
choices.  Every other command line (help, an abbreviation, an unknown
option, any other "--", an invalid choice, a missing or extra argument,
an empty or unknown command) goes through the top-level ``parse_args``,
so both routes print the same output and exit codes.

The spinor and cube layers are imported inside the subcommands that use
them, so ``eval`` and the other commands never load them.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from ._kernels import BLADE_NAMES
from .clusters import blade_to_byte_signature, diag_projection, to_structure_coords
from .errors import DomainError, ParseError
from .expressions import evaluate_text, format_expression
from .multivector import Multivector, require_finite
from .transforms import REFLECTIONS, AxisAngle, quaternion_from_axis_angle, rotate

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


def _finite(values) -> None:
    """:class:`DomainError` unless every value to be printed is finite."""
    require_finite(values, "result")


def _emit_multivector(m: Multivector, fmt: str) -> None:
    _finite(m._c)
    if fmt == "json":
        print(json.dumps(m.to_json()))
    else:
        print(format_expression(m))


def _cmd_eval(args) -> int:
    m = evaluate_text(args.expr)
    if args.basis == "blade":
        _emit_multivector(m, args.format)
    elif args.basis == "structure":
        coords = to_structure_coords(m)
        _finite(coords.values)
        if args.format == "json":
            print(json.dumps(coords.to_json()))
        else:
            for label, value in coords.to_json().items():
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
    axis = _parse_floats(args.axis, 3, "--axis")
    (theta,) = _parse_floats(args.theta, 1, "--theta")
    aa = AxisAngle(axis[0], axis[1], axis[2], theta)
    q = quaternion_from_axis_angle(aa)
    target = evaluate_text(args.target)
    _emit_multivector(rotate(target, q), args.format)
    return 0


def _cmd_reflect(args) -> int:
    target = evaluate_text(args.target)
    _emit_multivector(REFLECTIONS[args.mirror](target), args.format)
    return 0


def _cmd_project(args) -> int:
    from .hilbert import project

    target = evaluate_text(args.target)
    ideal = {"pos": "positive", "neg": "negative"}[args.ideal]
    spinor = project(target, ideal, args.side)
    _finite(spinor.value._c)
    if args.format == "json":
        print(json.dumps(spinor.to_json()))
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
        _finite(result.value._c)
        if args.format == "json":
            print(json.dumps(result.to_json()))
        else:
            print(format_expression(result.value))
    else:  # hadamard
        terms = hadamard_regroup(spinor)
        _finite((terms.coeff_plus.real, terms.coeff_plus.imag,
                 terms.coeff_minus.real, terms.coeff_minus.imag))
        if args.format == "json":
            print(
                json.dumps(
                    {
                        "coeff_plus": [terms.coeff_plus.real, terms.coeff_plus.imag],
                        "coeff_minus": [terms.coeff_minus.real, terms.coeff_minus.imag],
                        "plus_basis": terms.plus_basis.to_json(),
                        "minus_basis": terms.minus_basis.to_json(),
                    }
                )
            )
        else:
            print(f"coeff_plus  {terms.coeff_plus.real:g},{terms.coeff_plus.imag:g}")
            print(f"coeff_minus {terms.coeff_minus.real:g},{terms.coeff_minus.imag:g}")
            print(f"plus_basis  {format_expression(terms.plus_basis)}")
            print(f"minus_basis {format_expression(terms.minus_basis)}")
    return 0


def _cmd_cube(args) -> int:
    from .cube import render_cube

    target = evaluate_text(args.target)
    _finite(to_structure_coords(target).values)
    sys.stdout.write(render_cube(target, args.format))
    return 0


def _cmd_signature(args) -> int:
    print(str(blade_to_byte_signature(args.blade)))
    return 0


def _table(p: argparse.ArgumentParser, *actions: argparse.Action):
    """How :func:`_bind` reads the arguments of subcommand parser ``p``,
    derived from the ``actions`` that its ``add_argument`` calls returned:
    the positional, the options by option string, the set of required
    dests and the namespace defaults.  None, so that every argv goes to
    argparse, unless each action stores one plain string and at most one
    is positional."""
    positional = None
    options, required, defaults = {}, set(), {}
    for a in actions:
        if type(a) is not argparse._StoreAction or a.type is not None or a.nargs is not None:
            return None
        if not a.option_strings:
            if positional is not None:
                return None
            positional = a
        options.update(dict.fromkeys(a.option_strings, a))
        if a.required:
            required.add(a.dest)
        defaults[a.dest] = a.default
    defaults["func"] = p.get_default("func")
    return positional, options, required, defaults


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built once per process; ``main`` only
    reads it, so repeated ``main(argv)`` calls stay independent.  Its
    ``tables`` attribute maps each subcommand name to the :func:`_table`
    that :func:`_bind` reads."""
    parser = argparse.ArgumentParser(
        prog="geobyte",
        description="Geometric algebra G(3,0) engine: evaluate Clifford "
        "expressions, rotate, reflect, project into spinor ideals, apply "
        "gate analogs, and draw the unit-cube structure view.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    tables = parser.tables = {}

    p = sub.add_parser("eval", help="evaluate an expression")
    p.set_defaults(func=_cmd_eval)
    tables["eval"] = _table(
        p,
        p.add_argument("expr"),
        p.add_argument("--basis", choices=_BASIS_CHOICES, default="blade"),
        p.add_argument("--format", choices=("text", "json"), default="text"),
    )

    p = sub.add_parser("rotate", help="rotate a target about an axis")
    p.set_defaults(func=_cmd_rotate)
    tables["rotate"] = _table(
        p,
        p.add_argument("--axis", required=True, metavar="X,Y,Z"),
        p.add_argument("--theta", required=True, help="angle in radians"),
        p.add_argument("--target", default="e3"),
        p.add_argument("--format", choices=("text", "json"), default="text"),
    )

    p = sub.add_parser("reflect", help="reflect a target in a point, line or plane")
    p.set_defaults(func=_cmd_reflect)
    tables["reflect"] = _table(
        p,
        p.add_argument("--in", dest="mirror", required=True, choices=tuple(REFLECTIONS)),
        p.add_argument("--target", required=True),
        p.add_argument("--format", choices=("text", "json"), default="text"),
    )

    p = sub.add_parser("project", help="project into a spinor ideal")
    p.set_defaults(func=_cmd_project)
    tables["project"] = _table(
        p,
        p.add_argument("--ideal", required=True, choices=("pos", "neg")),
        p.add_argument("--side", required=True, choices=("left", "right")),
        p.add_argument("--target", required=True),
        p.add_argument("--format", choices=("text", "json"), default="text"),
    )

    p = sub.add_parser("gate", help="apply a gate analog to alpha*P3 + beta*(e1*P3)")
    p.set_defaults(func=_cmd_gate)
    tables["gate"] = _table(
        p,
        p.add_argument("--name", required=True, choices=("not", "hadamard")),
        p.add_argument("--alpha", required=True, metavar="RE,IM"),
        p.add_argument("--beta", required=True, metavar="RE,IM"),
        p.add_argument("--format", choices=("text", "json"), default="text"),
    )

    p = sub.add_parser("cube", help="render the unit-cube structure view")
    p.set_defaults(func=_cmd_cube)
    tables["cube"] = _table(
        p,
        p.add_argument("--target", required=True),
        p.add_argument("--format", choices=("ascii", "svg"), default="ascii"),
    )

    p = sub.add_parser("signature", help="byte signature of a basis blade")
    p.set_defaults(func=_cmd_signature)
    tables["signature"] = _table(p, p.add_argument("--blade", required=True, choices=BLADE_NAMES))

    return parser


def _bind(parser: argparse.ArgumentParser, argv: list) -> argparse.Namespace | None:
    """The namespace argparse would make of a plain ``argv`` (see the
    module docstring), or None to leave ``argv`` to argparse."""
    table = parser.tables.get(argv[0]) if argv else None
    if table is None:
        return None
    positional, options, required, defaults = table
    values = {}
    rest = argv[:0:-1]  # the arguments, last first
    while rest:
        arg = rest.pop()
        if arg[:1] != "-":
            action, value = positional, arg
        elif arg == "--" and len(rest) == 1 and rest[0] != "--":
            action, value = positional, rest.pop()
        elif arg in options and rest and rest[-1][:1] != "-":
            action, value = options[arg], rest.pop()
        else:
            option, eq, value = arg.partition("=")
            action = options.get(option) if eq else None
        if (
            action is None
            or action is positional and action.dest in values
            or action.choices is not None and value not in action.choices
        ):
            return None
        values[action.dest] = value
    if not values.keys() >= required:
        return None
    return argparse.Namespace(**{**defaults, **values, "command": argv[0]})


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = _bind(parser, argv)
    if args is None:
        try:
            args = parser.parse_args(argv)
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
