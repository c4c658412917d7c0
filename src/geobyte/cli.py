"""Command line front end.

Exit codes: 0 success, 1 domain error, 2 syntax or usage error.  Every
number a command prints passes :func:`_finite` first, so a value that
overflows after parsing exits 1 instead of printing inf or nan.

Dispatch: when the first argument names a subcommand, ``main`` hands the
rest straight to that subcommand's parser, and any argument it leaves
over is reported by the top-level parser as "unrecognized arguments",
as ``parse_args`` would.  Every other command line (help, an empty or
unknown command, a leading ``--``) goes through the top-level
``parse_args``.  Both routes print the same output and exit codes;
the direct one skips the top-level scan of every argument.

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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built once per process; ``main`` only
    reads it, so repeated ``main(argv)`` calls stay independent.  Its
    ``commands`` attribute maps each subcommand name to its parser."""
    parser = argparse.ArgumentParser(
        prog="geobyte",
        description="Geometric algebra G(3,0) engine: evaluate Clifford "
        "expressions, rotate, reflect, project into spinor ideals, apply "
        "gate analogs, and draw the unit-cube structure view.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    p = sub.add_parser("eval", help="evaluate an expression")
    p.add_argument("expr")
    p.add_argument("--basis", choices=_BASIS_CHOICES, default="blade")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("rotate", help="rotate a target about an axis")
    p.add_argument("--axis", required=True, metavar="X,Y,Z")
    p.add_argument("--theta", required=True, help="angle in radians")
    p.add_argument("--target", default="e3")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_rotate)

    p = sub.add_parser("reflect", help="reflect a target in a point, line or plane")
    p.add_argument("--in", dest="mirror", required=True, choices=tuple(REFLECTIONS))
    p.add_argument("--target", required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_reflect)

    p = sub.add_parser("project", help="project into a spinor ideal")
    p.add_argument("--ideal", required=True, choices=("pos", "neg"))
    p.add_argument("--side", required=True, choices=("left", "right"))
    p.add_argument("--target", required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_project)

    p = sub.add_parser("gate", help="apply a gate analog to alpha*P3 + beta*(e1*P3)")
    p.add_argument("--name", required=True, choices=("not", "hadamard"))
    p.add_argument("--alpha", required=True, metavar="RE,IM")
    p.add_argument("--beta", required=True, metavar="RE,IM")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_gate)

    p = sub.add_parser("cube", help="render the unit-cube structure view")
    p.add_argument("--target", required=True)
    p.add_argument("--format", choices=("ascii", "svg"), default="ascii")
    p.set_defaults(func=_cmd_cube)

    p = sub.add_parser("signature", help="byte signature of a basis blade")
    p.add_argument("--blade", required=True, choices=BLADE_NAMES)
    p.set_defaults(func=_cmd_signature)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        command = parser.commands.get(argv[0]) if argv else None
        if command is None:
            args = parser.parse_args(argv)
        else:
            args, extras = command.parse_known_args(argv[1:])
            if extras:
                parser.error(f"unrecognized arguments: {' '.join(extras)}")
            args.command = argv[0]
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
