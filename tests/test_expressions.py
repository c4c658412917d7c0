"""Expression grammar: parsing, evaluation, printing, and the printed
product identities expressed in expression syntax."""

import copy
import functools
import math
import pickle
import random
import struct
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geobyte import (
    Multivector,
    Quaternion,
    basis_element,
    evaluate_text,
    format_expression,
    parse,
    paravector,
    structure_element,
    to_matrix,
)
from geobyte._kernels import BLADE_NAMES
from geobyte._record import Record
from geobyte.clusters import LABELS
from geobyte.errors import DomainError, ParseError
from geobyte.expressions import (
    FUNC_NAMES,
    MAX_DEPTH,
    BinOp,
    Const,
    Func,
    Imaginary,
    Literal,
    Neg,
    evaluate,
)

from conftest import perfbench_gen, random_multivector
from reference_parser import reference_evaluate_text, reference_parse

E = {name: basis_element(name) for name in BLADE_NAMES}

# the eight byte products: each blade as a signed paravector product
BYTE_EXPRESSIONS = {
    "e0": "(P1+N1)*(P2+N2)*(P3+N3)",
    "e1": "(P1-N1)*(P2+N2)*(P3+N3)",
    "e2": "(P1+N1)*(P2-N2)*(P3+N3)",
    "e3": "(P1+N1)*(P2+N2)*(P3-N3)",
    "e12": "(P1-N1)*(P2-N2)*(P3+N3)",
    "e23": "(P1+N1)*(P2-N2)*(P3-N3)",
    "e13": "(P1-N1)*(P2+N2)*(P3-N3)",
    "e123": "(P1-N1)*(P2-N2)*(P3-N3)",
}

# the eight structure elements as ordered paravector triples
STRUCTURE_EXPRESSIONS = {
    "A": "P1*P2*P3",
    "B": "N1*P2*P3",
    "C": "P1*N2*P3",
    "D": "P1*P2*N3",
    "Dbar": "N1*N2*P3",
    "Cbar": "N1*P2*N3",
    "Bbar": "P1*N2*N3",
    "Abar": "N1*N2*N3",
}

# the six cube faces as structure-element sums
FACE_EXPRESSIONS = {
    "P1": "A + Bbar + C + D",
    "N1": "Abar + B + Cbar + Dbar",
    "P2": "A + B + Cbar + D",
    "N2": "Abar + Bbar + C + Dbar",
    "P3": "A + B + C + Dbar",
    "N3": "Abar + Bbar + Cbar + D",
}


def test_byte_product_expressions():
    for blade, text in BYTE_EXPRESSIONS.items():
        assert evaluate_text(text) == E[blade], blade


def test_structure_product_expressions():
    for label, text in STRUCTURE_EXPRESSIONS.items():
        assert evaluate_text(text) == structure_element(label), label


def test_paravector_sum_difference_expressions():
    for axis in (1, 2, 3):
        assert evaluate_text(f"P{axis}+N{axis}") == E["e0"]
        assert evaluate_text(f"P{axis}-N{axis}") == E[f"e{axis}"]


def test_face_expressions():
    for name, text in FACE_EXPRESSIONS.items():
        axis = int(name[1])
        pol = "positive" if name[0] == "P" else "negative"
        assert evaluate_text(text) == paravector(axis, pol).value, name


def test_evaluation_fixtures():
    assert evaluate_text("P3*N3") == Multivector.zero()
    assert evaluate_text("1/2*(e0+e3)") == paravector(3, "positive").value
    assert evaluate_text("i*i") == -E["e0"]
    assert evaluate_text("A + Abar") == 0.25 * (
        E["e0"] + E["e12"] + E["e23"] + E["e13"]
    )
    assert evaluate_text("rev(e12)") == -E["e12"]
    assert evaluate_text("bar(A)") == structure_element("Abar")
    assert evaluate_text("conj(e1)") == -E["e1"]
    assert evaluate_text("-2*e1") == -2.0 * E["e1"]
    assert evaluate_text("3/4") == 0.75 * E["e0"]
    assert evaluate_text("  e1 * e2 ") == E["e12"]


def test_ast_shape():
    tree = parse("1/2*(e0+e3)")
    assert isinstance(tree, BinOp) and tree.op == "*"
    assert tree.left == Literal(0.5)
    assert tree.right == BinOp("+", Const("e0"), Const("e3"))
    assert parse("-i") == Neg(Imaginary())
    assert parse("rev(A)") == Func("rev", Const("A"))
    assert evaluate(tree) == evaluate_text("P3")


def test_parse_errors_with_offsets():
    with pytest.raises(ParseError) as exc:
        parse("e1*")
    assert exc.value.offset == 3
    with pytest.raises(ParseError) as exc:
        parse("(e1+e2")
    assert exc.value.offset == 6
    assert ")" in exc.value.expected
    with pytest.raises(ParseError) as exc:
        parse("e1 e2")
    assert exc.value.offset == 3
    with pytest.raises(ParseError) as exc:
        parse("foo+1")
    assert exc.value.offset == 0
    with pytest.raises(ParseError) as exc:
        parse("1/")
    assert exc.value.offset == 2
    with pytest.raises(ParseError) as exc:
        parse("e1 @ e2")
    assert exc.value.offset == 3
    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(ParseError):
        parse("rev e1")


def test_precedence_and_associativity():
    assert evaluate_text("e1+e2*e3") == E["e1"] + E["e23"]
    assert evaluate_text("-e1*e2") == -(E["e12"])
    # products are left-associative; the ordered triple matters
    assert evaluate_text("e1*e2*e3") == E["e123"]


def test_format_round_trip(rng):
    for _ in range(50):
        m = random_multivector(rng)
        assert evaluate_text(format_expression(m)) == m
    assert format_expression(Multivector.zero()) == "0*e0"
    assert evaluate_text(format_expression(Multivector.zero())) == Multivector.zero()
    for label in LABELS:
        s = structure_element(label)
        assert evaluate_text(format_expression(s)) == s


def test_format_shape():
    assert format_expression(E["e1"]) == "1.0*e1"
    assert format_expression(-E["e1"] + 0.5 * E["e12"]) == "-1.0*e1 + 0.5*e12"


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=8, max_size=8))
@example([1e-05, 0, 0, 0, 0, 0, 0, 0])
@example([0, 1e16, 0, 0, 0, 0, 0, 0])
@example([0, 0, 0, 0, 0, 0, 0, -5e-324])
def test_format_round_trip_property(coeffs):
    # format_expression prints repr floats, exponents included; every
    # printed form parses back to the same coefficients
    m = Multivector(coeffs)
    back = evaluate_text(format_expression(m))
    assert back == m
    nonzero = m.coeffs != 0.0
    assert back.coeffs[nonzero].tobytes() == m.coeffs[nonzero].tobytes()


def test_exponent_numbers():
    assert evaluate_text("1e-05*e0") == 1e-05 * E["e0"]
    assert evaluate_text("1e+16*e0") == 1e16 * E["e0"]
    assert evaluate_text("1.5E+3/3") == 500.0 * E["e0"]
    # an exponent makes one number token; the blade needs an explicit '*'
    assert evaluate_text("2e12") == 2e12 * E["e0"]
    assert evaluate_text("2*e12") == 2.0 * E["e12"]
    assert evaluate_text(".5 + 1.") == 1.5 * E["e0"]


@pytest.mark.parametrize(
    "text, offset",
    [
        (".", 0),
        ("1/.", 2),
        ("\u00b2", 0),  # superscript two: a digit to str.isdigit, not to float()
        ("1/0", 0),
        ("e1 + 2/0.0e3", 5),
        pytest.param("1" + "0" * 400, 0, id="400-digit literal"),
        ("e1*1e400", 3),
        ("1e400/1e400", 0),
    ],
)
def test_bad_numbers_raise_parse_errors(text, offset):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert exc.value.offset == offset


def test_nesting_cap():
    assert evaluate_text("(" * MAX_DEPTH + "e1" + ")" * MAX_DEPTH) == E["e1"]
    assert evaluate_text("-" * MAX_DEPTH + "e1") == E["e1"]
    assert evaluate_text("rev(" * MAX_DEPTH + "e12" + ")" * MAX_DEPTH) == E["e12"]
    over = MAX_DEPTH + 1
    for text, offset in (
        ("(" * over + "e1" + ")" * over, MAX_DEPTH),
        ("-" * over + "e1", MAX_DEPTH),
        ("bar(" * over + "e1" + ")" * over, 4 * MAX_DEPTH),
        # tokens are pulled lazily: the cap is hit before the bad character
        ("(" * 5000 + "@", MAX_DEPTH),
    ):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert exc.value.offset == offset
    for text in ("(" * 250 + "e1" + ")" * 250, "-" * 1000 + "e1"):
        with pytest.raises(ParseError):
            parse(text)


def test_long_chains_evaluate_without_recursion():
    assert evaluate_text("+".join(["e1"] * 1500)) == 1500.0 * E["e1"]
    assert evaluate_text("-".join(["e2"] * 1501)) == -1499.0 * E["e2"]
    assert evaluate_text("*".join(["e1"] * 1501)) == E["e1"]


def test_non_finite_value_is_a_domain_error():
    big = "1" + "0" * 300
    for text in ("1e300*1e300", f"{big}*{big}", "1e308+1e308"):
        with pytest.raises(DomainError):
            evaluate_text(text)


# -- one parser, two builders: evaluate_text agrees with evaluate(parse) --

_ATOMS = st.sampled_from(
    ["0", "1", "2.5", ".5", "3/4", "1e300", "7e-310", "i", "e0", "e1", "e13", "e123", "P3", "N1", "Abar", "D"]
)
_VALID = st.recursive(
    _ATOMS,
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(["+", "-", "*", " * ", " - "]), inner).map("".join),
        inner.map("-{}".format),
        inner.map("({})".format),
        st.tuples(st.sampled_from(FUNC_NAMES), inner).map("{0[0]}({0[1]})".format),
    ),
    max_leaves=40,
)
# a valid text with a few arbitrary characters spliced in, or its tail cut
_SPLICED = st.tuples(_VALID, st.integers(0, 400), st.text(max_size=3)).map(
    lambda t: t[0][: t[1]] + t[2] + t[0][t[1] :]
)
_NESTED = st.tuples(
    st.sampled_from(["(", "-", "rev(", "-(", "conj(-"]),
    st.integers(MAX_DEPTH - 2, MAX_DEPTH + 2),
    _VALID,
    st.booleans(),
).map(lambda t: t[0] * t[1] + t[2] + ")" * (t[1] * t[0].count("(") - t[3]))
_TEXTS = st.one_of(
    _VALID,
    _SPLICED,
    _NESTED,
    st.text(alphabet="0123456789.eE+-*/() iPNABCDbarevconj@", max_size=40),
    st.text(max_size=20),
)


def _bits(m: Multivector) -> bytes:
    return struct.pack("8d", *m._c)


def _outcome(route):
    """The value's bits, or the ParseError's message, offset and expected
    set; a value that is not finite is reported as such."""
    try:
        m = route()
    except ParseError as exc:
        return "ParseError", str(exc), exc.offset, exc.expected
    except DomainError:
        return "not finite"
    if not all(map(math.isfinite, m._c)):
        return "not finite"
    return _bits(m)


@settings(max_examples=400)
@given(_TEXTS)
@example("(" * MAX_DEPTH + "e1" + ")" * MAX_DEPTH)
@example("-" * (MAX_DEPTH + 1) + "e1")
@example("(" * 5000 + "@")
@example("1e300*1e300 + @")
@example("-0*e1 + 0")
@example("1e308+1e308")
def test_evaluate_text_matches_evaluate_of_parse(text):
    folded = _outcome(lambda: evaluate_text(text))
    assert folded == _outcome(lambda: evaluate(parse(text)))


# -- the stack parser against the recursive-descent reference -------------

# non-ASCII digits (Arabic-Indic, Devanagari, fullwidth) are digits to
# both; superscripts and the other characters are not tokens
_WIDE_ALPHABET = "0123456789.eE+-*/() iPNABCDbarevconj@\u0661\u0969\uff15\u00b2\t\n\u00a0\u2003\u3000"
_WIDE_TEXTS = st.one_of(_TEXTS, st.text(alphabet=_WIDE_ALPHABET, max_size=40))


def _tree_outcome(route, text):
    try:
        return route(text)
    except ParseError as exc:
        return "ParseError", str(exc), exc.offset, exc.expected


def _assert_matches_reference(text):
    assert _outcome(lambda: evaluate_text(text)) == _outcome(lambda: reference_evaluate_text(text))
    assert _tree_outcome(parse, text) == _tree_outcome(reference_parse, text)


def _generator_corpus():
    """Texts as the benchmark writes them: its expressions, and the
    expression arguments of its CLI pool, invalid ones included."""
    gen = perfbench_gen()
    texts = [gen.expression(random.Random(f"corpus:{i}"))[0] for i in range(200)]
    for spec in gen.cli_ops(11, 400):
        for arg in spec["argv"][1:]:
            if "=" in arg or not arg.startswith("-"):
                texts.append(arg.split("=", 1)[-1] if arg.startswith("--") else arg)
    return texts


def test_generator_corpus_matches_reference():
    texts = _generator_corpus()
    assert len(texts) > 600
    for text in texts:
        _assert_matches_reference(text)


@settings(max_examples=300)
@given(_WIDE_TEXTS)
@example("\u0661 + \u0969/\uff15")
@example("e1 \u00a0* e2\u3000")
@example("e1 + ")
@example("(e1 e2)")
@example("rev e1")
@example("rev")
@example("+@")
@example("1/ 2")
@example("1e400/")
@example("(" * 101 + "@")
@example("(" * 5000 + "@")
@example("bar(" * 101 + "e1")
@example("-(" * 51)
@example("e1)")
def test_parser_matches_reference(text):
    _assert_matches_reference(text)


# -- evaluate of hand-built trees deeper than the recursion limit ----------

_DEEP_LEVELS = 100_000
_FUNC_METHODS = {
    "rev": Multivector.reversion,
    "bar": Multivector.grade_involution,
    "conj": Multivector.clifford_conjugation,
}
_BINOP_METHODS = {"+": Multivector.__add__, "-": Multivector.__sub__, "*": Multivector.__mul__}


def _bits(m):
    return struct.pack("8d", *m._c)


@pytest.mark.parametrize("kind", ["Neg", "Func", "BinOp"])
def test_deep_trees_evaluate_without_recursion(kind):
    tree, want = parse("1 + 2*e1 - 3*e12 + 4*e123"), Multivector([1, 2, 0, 0, -3, 0, 0, 4])
    names, ops = ("e1", "e12", "e123", "e2", "e23"), ("-", "*", "+", "*")
    for k in range(_DEEP_LEVELS):
        if kind == "Neg":
            tree, want = Neg(tree), -want
        elif kind == "Func":
            name = FUNC_NAMES[k % 3]
            tree, want = Func(name, tree), _FUNC_METHODS[name](want)
        else:  # right-deep: the new operand is the left one
            name, op = names[k % 5], ops[k % 4]
            tree, want = BinOp(op, Const(name), tree), _BINOP_METHODS[op](E[name], want)
    assert _bits(evaluate(tree)) == _bits(want)


# -- a hand-built literal is read as Multivector.scalar reads it -----------


def test_evaluate_reads_a_literal_as_multivector_scalar():
    assert _bits(evaluate(Literal("2"))) == _bits(Multivector.scalar(2.0))
    with pytest.raises(DomainError, match=r"^a scalar must be a real number, got 1000"):
        evaluate(Literal(10**400))
    with pytest.raises(TypeError, match="NoneType"):
        evaluate(Literal(None))


# -- ==, hash and repr of trees deeper than the recursion limit ------------


def _nested(node):
    """The tree as nested tuples: what the generic Record methods compare
    and hash (recursive, so for shallow trees only)."""
    if isinstance(node, Record):
        return type(node), tuple(_nested(getattr(node, f)) for f in node._FIELDS)
    return node


def _record_repr(node):
    """The generic Record repr, applied all the way down (recursive)."""
    if isinstance(node, Record):
        fields = ", ".join(f"{f}={_record_repr(getattr(node, f))}" for f in node._FIELDS)
        return f"{type(node).__name__}({fields})"
    return repr(node)


@settings(max_examples=200)
@given(_VALID, _VALID)
@example("-0", "0")
@example("e1+e2", "e1-e2")
@example("rev(e1)", "bar(e1)")
def test_tree_eq_hash_and_repr_are_the_generic_record_methods(a, b):
    ta, tb = parse(a), parse(b)
    assert repr(ta) == _record_repr(ta)
    assert (ta == tb) == (_nested(ta) == _nested(tb))
    assert ta == parse(a) and hash(ta) == hash(parse(a))
    assert (ta != tb) == (not ta == tb)
    hand = BinOp("+", ta, Neg(tb))  # not what the parser builds for b
    assert hand == BinOp("+", parse(a), Neg(parse(b))) != BinOp("-", ta, Neg(tb))


def test_chains_and_nests_of_100k_compare_hash_and_print_without_recursion():
    n = 100_000
    chain = "+".join(["e1"] * n)
    tree, again = parse(chain), parse(chain)
    assert tree == again and hash(tree) == hash(again)
    leaf = "Const(name='e1')"
    assert repr(tree) == "BinOp(op='+', left=" * (n - 1) + leaf + f", right={leaf})" * (n - 1)
    nest = Literal(0.5)
    for k in range(n):
        nest = Func("rev", nest) if k % 2 else Neg(nest)
    twin = Literal(0.5)
    for k in range(n):
        twin = Func("rev", twin) if k % 2 else Neg(twin)
    assert nest == twin and hash(nest) == hash(twin) and nest != Neg(twin)
    assert repr(nest) == "Func(name='rev', child=Neg(child=" * (n // 2) + "Literal(value=0.5)" + "))" * (n // 2)


# -- pickling and copying trees deeper than the recursion limit ------------

COPIES = {
    "pickle": lambda x: pickle.loads(pickle.dumps(x)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


@functools.cache
def _long_trees():
    """A parsed chain of 100k terms and a hand-built nest 100k levels deep."""
    n = 100_000
    nest = Literal(0.5)
    for k in range(n):
        nest = Func("rev", nest) if k % 2 else Neg(nest)
    return parse("+".join(["e1"] * n)), nest


@pytest.mark.parametrize("how", COPIES)
def test_chains_and_nests_of_100k_pickle_and_copy_without_recursion(how):
    limit = sys.getrecursionlimit()
    for tree in _long_trees():
        back = COPIES[how](tree)
        assert type(back) is type(tree) and back is not tree and back == tree
    assert sys.getrecursionlimit() == limit


def test_a_tree_pickles_as_one_flat_list_and_a_leaf_as_its_constructor_call():
    assert b"_rebuild" in pickle.dumps(parse("-e1"), protocol=0)
    assert b"_rebuild" not in pickle.dumps(Literal(0.5), protocol=0)


def test_a_value_with_methods_of_its_own_keeps_them_inside_a_tree():
    q = Quaternion(Multivector([2, 0, 0, 0, 0, 0, 0, 0]), require_unit=False)
    tree = BinOp("+", Neg(q), BinOp("*", to_matrix(E["e1"]), E["e12"]))
    for how in COPIES.values():
        back = how(tree)  # Quaternion(value) alone would reject the non-unit value
        assert back == tree and repr(back) == repr(tree)
    # a child Multivector compares by its own ==, so NaN is unequal to itself
    c = (math.nan,) + (0.0,) * 7
    assert BinOp("+", Multivector._trusted(c), Literal(1.0)) != BinOp(
        "+", Multivector._trusted(c), Literal(1.0)
    )
