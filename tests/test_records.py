"""The value records: construction, equality, hashing, repr, immutability
and copying, the same for each; unpickling runs the record's checks."""

import copy
import pickle

import pytest

from geobyte import (
    AxisAngle,
    ByteSignature,
    CayleyKlein,
    ComplexScalar,
    EulerRodrigues,
    GeometricQubit,
    HadamardTerms,
    Paravector,
    ParavectorState,
    Spinor,
    StructureCoords,
)
from geobyte.clusters import N1, N3, P1, P3
from geobyte.errors import DomainError

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
