"""The value records: construction, equality, hashing, repr, immutability
and copying, the same for each; unpickling runs the record's checks."""

import copy
import inspect
import pickle

import pytest

from geobyte import (
    AxisAngle,
    ByteSignature,
    CayleyKlein,
    ComplexMatrix2,
    ComplexScalar,
    EulerRodrigues,
    GeometricQubit,
    HadamardTerms,
    Multivector,
    Paravector,
    ParavectorState,
    Quaternion,
    Spinor,
    StructureCoords,
    covariant,
    from_structure_coords,
    inner,
    quaternion_from_axis_angle,
    reflect_line,
    reflect_plane,
    spinor_components,
)
from geobyte.clusters import N1, N3, P1, P3
from geobyte.errors import DomainError
from geobyte.expressions import BinOp, Const, Func, Literal, Neg

_POS = Spinor(P3, "positive", "contravariant")
_NEG = Spinor(N3, "negative", "contravariant")

# class, field names, field values, repr (the text the frozen dataclasses printed)
RECORDS = [
    (ComplexScalar, ("re", "im"), (1.5, -2.0), "ComplexScalar(re=1.5, im=-2.0)"),
    (
        Paravector,
        ("axis", "polarity", "value"),
        (1, "positive", P1),
        "Paravector(axis=1, polarity='positive', value=Multivector<0.5*e0 + 0.5*e1>)",
    ),
    (
        StructureCoords,
        ("values",),
        (tuple(float(i) for i in range(8)),),
        "StructureCoords(values=(0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0))",
    ),
    (ByteSignature, ("s1", "s2", "s3"), (1, -1, 1), "ByteSignature(s1=1, s2=-1, s3=1)"),
    (
        Spinor,
        ("value", "ideal", "variance"),
        (P3, "positive", "contravariant"),
        "Spinor(value=Multivector<0.5*e0 + 0.5*e3>, ideal='positive', variance='contravariant')",
    ),
    (
        GeometricQubit,
        ("positive", "negative"),
        (_POS, _NEG),
        "GeometricQubit(positive=Spinor(value=Multivector<0.5*e0 + 0.5*e3>, ideal='positive', "
        "variance='contravariant'), negative=Spinor(value=Multivector<0.5*e0 + -0.5*e3>, "
        "ideal='negative', variance='contravariant'))",
    ),
    (
        ParavectorState,
        ("value",),
        (P3,),
        "ParavectorState(value=Multivector<0.5*e0 + 0.5*e3>)",
    ),
    (
        HadamardTerms,
        ("coeff_plus", "coeff_minus", "plus_basis", "minus_basis"),
        (1 + 2j, -0.5j, P1 * P3, N1 * P3),
        "HadamardTerms(coeff_plus=(1+2j), coeff_minus=(-0-0.5j), "
        "plus_basis=Multivector<0.25*e0 + 0.25*e1 + 0.25*e3 + 0.25*e13>, "
        "minus_basis=Multivector<0.25*e0 + -0.25*e1 + 0.25*e3 + -0.25*e13>)",
    ),
    (
        AxisAngle,
        ("c1", "c2", "c3", "theta"),
        (0.0, 0.6, 0.8, 1.25),
        "AxisAngle(c1=0.0, c2=0.6, c3=0.8, theta=1.25)",
    ),
    (CayleyKlein, ("alpha", "beta"), (0.6 + 0j, 0.8j), "CayleyKlein(alpha=(0.6+0j), beta=0.8j)"),
    (
        EulerRodrigues,
        ("rho", "nu", "mu", "lam"),
        (0.5, -0.5, 0.5, 0.5),
        "EulerRodrigues(rho=0.5, nu=-0.5, mu=0.5, lam=0.5)",
    ),
]

COPIES = {
    "pickle": lambda x: pickle.loads(pickle.dumps(x)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


@pytest.mark.parametrize(
    "cls, names, values, text", RECORDS, ids=[r[0].__name__ for r in RECORDS]
)
def test_record(cls, names, values, text):
    rec = cls(*values)
    keyword = cls(**dict(zip(names, values)))
    assert tuple(getattr(rec, n) for n in names) == values
    assert rec == keyword and not rec != keyword
    assert hash(rec) == hash(keyword)
    assert repr(rec) == text

    # equal only within one class: not to its fields, nor to a subclass
    sub = type("Sub", (cls,), {"__slots__": ()})(*values)
    assert rec != values and rec != sub and sub != rec

    for name in (*names, "extra"):
        with pytest.raises(AttributeError):
            setattr(rec, name, None)
    for name in names:
        with pytest.raises(AttributeError):
            delattr(rec, name)
    assert tuple(getattr(rec, n) for n in names) == values

    for how in COPIES.values():
        back = how(rec)
        assert type(back) is cls and back == rec


def test_complex_scalar_imaginary_part_defaults_to_zero():
    assert ComplexScalar(2.0) == ComplexScalar(2.0, 0.0) == ComplexScalar(re=2.0)
    assert repr(ComplexScalar(2.0)) == "ComplexScalar(re=2.0, im=0.0)"


def test_unpickling_runs_the_record_checks():
    text = pickle.dumps(StructureCoords(tuple(float(i) for i in range(8))), protocol=0)
    assert text.count(b"F7.0\n") == 1
    with pytest.raises(ValueError, match="8 values"):  # a ninth value
        pickle.loads(text.replace(b"F7.0\n", b"F7.0\nF8.0\n"))

    text = pickle.dumps(ByteSignature(1, -1, 1), protocol=0)
    assert text.count(b"I-1\n") == 1
    with pytest.raises(DomainError, match=r"\+1 or -1"):  # a zero sign
        pickle.loads(text.replace(b"I-1\n", b"I0\n"))


# the value types with converting constructors: class, constructor
# arguments, field names
VALUES = [
    (Multivector, (range(8),), ("_c",)),
    (Quaternion, (Multivector([2, 0, 0, 0, 0.5, 0, -1, 0]), False), ("_value",)),
    (ComplexMatrix2, ([[1, 2j], [3, -4]],), ("_z",)),
]


@pytest.mark.parametrize("cls, args, names", VALUES, ids=[v[0].__name__ for v in VALUES])
def test_value_types_are_records(cls, args, names, monkeypatch):
    value = cls(*args)
    fields = tuple(getattr(value, n) for n in names)
    for name in (*names, "extra"):
        with pytest.raises(AttributeError, match=f"{cls.__name__} is immutable"):
            setattr(value, name, None)
    for name in names:
        with pytest.raises(AttributeError, match=f"{cls.__name__} is immutable"):
            delattr(value, name)
    assert tuple(getattr(value, n) for n in names) == fields
    assert value == cls(*args) and hash(value) == hash(cls(*args))
    assert cls._trusted(*fields) == value

    sub_cls = type("Sub", (cls,), {"__slots__": ()})
    monkeypatch.setitem(globals(), "Sub", sub_cls)  # so pickle can find it
    sub = sub_cls(*args)
    for how in COPIES.values():
        back = how(value)
        assert type(back) is cls and back == value
        assert type(how(sub)) is type(sub)


@pytest.mark.parametrize(
    "cls, names, values, text", RECORDS, ids=[r[0].__name__ for r in RECORDS]
)
def test_subclass_with_its_own_slots_keeps_the_parent_fields(
    cls, names, values, text, monkeypatch
):
    tagged = type("Tagged", (cls,), {"__slots__": ("tag",)})
    monkeypatch.setitem(globals(), "Tagged", tagged)  # so pickle can find it
    rec = tagged(*values, tag=1)
    assert rec._fields() == (*values, 1)
    assert rec == tagged(*values, 1) and rec != tagged(*values, 2)
    assert hash(rec) == hash(tagged(*values, 1))
    assert repr(rec) == "Tagged" + text[len(cls.__name__) : -1] + ", tag=1)"
    back = pickle.loads(pickle.dumps(rec))
    assert type(back) is tagged and back == rec


def test_subclass_fields_take_part_in_equality():
    tagged = type("Tagged", (AxisAngle,), {"__slots__": ("tag",)})
    assert tagged(0, 0, 1, 0.5, tag=1) != tagged(1, 0, 0, 2.0, tag=1)


def test_quaternions_compare_and_hash_by_value():
    aa = AxisAngle(0.0, 0.6, 0.8, 1.25)
    q, again = quaternion_from_axis_angle(aa), quaternion_from_axis_angle(aa)
    assert q is not again and q == again and hash(q) == hash(again)
    assert q == Quaternion(q.value) and len({q, again, -(-q)}) == 1
    assert q != -q and q != q.value


@pytest.mark.parametrize(
    "cls, names",
    [(r[0], r[1]) for r in RECORDS]
    + [(Literal, ("value",)), (Const, ("name",)), (Neg, ("child",)),
       (Func, ("name", "child")), (BinOp, ("op", "left", "right"))],
    ids=lambda x: x.__name__ if isinstance(x, type) else "",
)
def test_constructor_signature_lists_the_fields(cls, names):
    assert tuple(inspect.signature(cls).parameters) == names
    with pytest.raises(TypeError, match=rf"^{cls.__name__}\.__init__\(\) takes"):
        cls(*names, *names, None)


def test_structure_coords_convert_their_input():
    values = tuple(float(i) for i in range(8))
    listed = StructureCoords(list(range(8)))
    assert listed.values == values and type(listed.values) is tuple
    assert listed == StructureCoords(values) and hash(listed) == hash(StructureCoords(values))
    assert from_structure_coords(listed) == from_structure_coords(StructureCoords(values))
    for bad in ("abcdefgh", b"abcdefgh", list(range(7)), list(range(9))):
        with pytest.raises(ValueError, match="8 values"):
            StructureCoords(bad)
    with pytest.raises(TypeError):
        StructureCoords(8)


# the classes with a hand-written constructor: class, constructor
# arguments, arguments the constructor rejects
CONVERTING = [
    (Multivector, ([1] * 8,), ([1] * 7,)),
    (Quaternion, (quaternion_from_axis_angle(AxisAngle(0, 0.6, 0.8, 1.25)).value,),
     (Multivector([2, 0, 0, 0, 0, 0, 0, 0]),)),
    (ComplexMatrix2, ([[1, 2j], [3, -4]],), ([1, 2, 3],)),
    (StructureCoords, (range(8),), (range(7),)),
    (ComplexScalar, (1.5, -2.0), ()),
]


@pytest.mark.parametrize("cls, args, bad", CONVERTING, ids=[c[0].__name__ for c in CONVERTING])
def test_subclass_fields_below_a_converting_constructor(cls, args, bad, monkeypatch):
    tagged = type("Tagged", (cls,), {"__slots__": ("tag",)})
    twice = type("Twice", (tagged,), {"__slots__": ("note",)})
    monkeypatch.setitem(globals(), "Tagged", tagged)  # so pickle can find them
    monkeypatch.setitem(globals(), "Twice", twice)
    base = cls(*args)
    for rec, own in ((tagged(*args, 0), (0,)), (twice(*args, tag=0, note="n"), (0, "n"))):
        # the parent's constructor converted its fields
        assert rec._fields() == (*base._fields(), *own)
        for how in COPIES.values():
            back = how(rec)
            assert type(back) is type(rec) and back._fields() == rec._fields()
    if bad:
        with pytest.raises((ValueError, DomainError)):
            tagged(*bad, 0)


def test_subclass_of_multivector_stores_floats():
    rec = type("T", (Multivector,), {"__slots__": ("tag",)})([1] * 8, 0)
    assert rec._c == (1.0,) * 8 and all(type(x) is float for x in rec._c)


# -- each rejection names the value that broke its rule --------------------


@pytest.mark.parametrize(
    "reject, error, named",
    [
        (lambda: quaternion_from_axis_angle(AxisAngle(1.0, 2.0, 3.0, 0.5)), DomainError, [(1.0, 2.0, 3.0), 14.0]),
        (lambda: Quaternion(Multivector([0.5, 0, 0, 0, 0, 0, 0, 0])), DomainError, [0.5]),
        (lambda: Multivector([1.0] * 3), ValueError, [3]),
        (lambda: P1.approx_eq(N1, -0.25), DomainError, [-0.25]),
        (lambda: ByteSignature(1, 0, -1), DomainError, [0]),
        (lambda: Quaternion(Multivector([1, 0, 0, 0.25, 0, 0, 0, 0])), DomainError, [0.25]),
        (lambda: reflect_line(P1, Multivector([0, 2, 0, 0, 0, 0, 0, 0])), DomainError, [2.0]),
        (lambda: reflect_plane(P1, Multivector([0, 0.5, 0, 0, 1, 0, 0, 0])), DomainError, [0.5]),
        (lambda: StructureCoords(range(7)), DomainError, [7]),
        (lambda: covariant(covariant(_POS)), DomainError, ["positive", "covariant"]),
        (lambda: inner(covariant(_POS), _NEG), DomainError, ["negative", "contravariant"]),
        (lambda: spinor_components(_NEG), DomainError, ["negative", "contravariant"]),
        (lambda: Spinor(Multivector([0, 1, 0, 0, 0, 0, 0, 0]), "positive", "contravariant"),
         DomainError, [0.5**0.5]),
    ],
    ids=["axis", "quaternion", "coefficients", "tolerance", "signature", "quaternion evenness",
         "mirror unit", "mirror grade", "structure coords", "covariant", "inner", "components",
         "spinor ideal"],
)
def test_rejection_names_the_offending_value(reject, error, named):
    with pytest.raises(error) as info:
        reject()
    assert all(repr(value) in str(info.value) for value in named), str(info.value)
