"""The frozen value types: what importing them costs, the contract they keep
with the frozen dataclasses they replaced (immutability, equality and hashing by
the field tuple, the dataclass repr), and the interning of QuadField and Order."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from cuspidal import (
    CoeffField,
    CurveFitt,
    CurveIdeal,
    CurveOrder,
    CurvePoly,
    CuspBreakdown,
    CuspTerm,
    DetClass,
    FracIdeal,
    GenPair,
    GenVec,
    Order,
    PicSize,
    QIdeal,
    QuadElt,
    QuadField,
    UnimodularWitness,
    UnitInfo,
    curve_ideal_from_generators,
    parse_curve_poly,
    picard_order,
)
from cuspidal.config import budget
from cuspidal.errors import InconclusiveError
from cuspidal.value import Interned, Value


def test_importing_the_cli_loads_no_code_generation_modules():
    # -S keeps site-packages' start-up imports out of what is measured
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, cuspidal.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


_F = QuadField(-5)
_R = QuadField(5)
_O = Order(_F, 3)
_ONE, _GEN = QuadElt(_F, 1, 0), QuadElt(_F, 0, 3)
_PIC = PicSize(_O, 2, "conductor-formula")
_Q = CoeffField(0)

# class, the fields in declaration order, and a maker of one sample
SAMPLES = [
    (QuadField, ("m",), lambda: QuadField(-5)),
    (QuadElt, ("field", "a", "b"), lambda: QuadElt(_F, 1, 2)),
    (Order, ("field", "f"), lambda: Order(_F, 3)),
    (QIdeal, ("order", "a", "d", "e"), lambda: QIdeal(_O, 1, 0, 1)),
    (FracIdeal, ("num", "den"), lambda: FracIdeal(QIdeal(_O, 2, 0, 2), 4)),
    (PicSize, ("order", "h", "method"), lambda: PicSize(_O, 2, "conductor-formula")),
    (UnitInfo, ("field", "f", "maximal", "power_in_maximal", "torsion_gen",
                "torsion_order", "has_norm_minus_one"),
     lambda: UnitInfo(_R, 2, QuadElt(_R, 0, 1), 3, QuadElt(_R, -1, 0), 2, True)),
    (CuspTerm, ("f_prime", "n0", "phi", "halved", "pic"), lambda: CuspTerm(1, 3, 2, False, _PIC)),
    (CuspBreakdown, ("order", "terms"),
     lambda: CuspBreakdown(_O, (CuspTerm(1, 3, 2, False, _PIC),))),
    (GenPair, ("order", "g1", "g2"), lambda: GenPair(_O, _ONE, _GEN)),
    (GenVec, ("order", "elements"), lambda: GenVec(_O, (_ONE, _GEN, _GEN))),
    (DetClass, ("value", "modulus"), lambda: DetClass(5, 3)),
    (UnimodularWitness, ("entries",),
     lambda: UnimodularWitness(((_ONE, QuadElt(_F, 0, 0)), (QuadElt(_F, 0, 0), _ONE)))),
    (CoeffField, ("char",), lambda: CoeffField(5)),
    (CurvePoly, ("field", "nums", "den"), lambda: CurvePoly(_Q, (1, 0, 3), 2)),
    (CurveIdeal, ("field", "n", "content", "p", "nu"),
     lambda: curve_ideal_from_generators(
         _Q, 7, [parse_curve_poly(_Q, t) for t in ("1 + x + x^2", "x^3")])),
    (CurveFitt, ("field", "n", "exponent"), lambda: CurveFitt(_Q, 7, 2)),
    (CurveOrder, ("field", "n", "nu"), lambda: CurveOrder(_Q, 7, 4)),
]


# the types built once per field tuple in a session
INTERNED = (QuadField, Order)


@pytest.mark.parametrize("cls, fields, make", SAMPLES, ids=[s[0].__name__ for s in SAMPLES])
def test_value_type_contract(cls, fields, make):
    a, b = make(), make()
    assert type(a) is cls and (a is b) is (cls in INTERNED)
    values = tuple(getattr(a, name) for name in fields)
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(values)
    for name in (*fields, "undeclared"):
        with pytest.raises(AttributeError):
            setattr(a, name, 0)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert tuple(getattr(a, name) for name in fields) == values
    twin_cls = type("Twin", (cls,), {})
    twin = twin_cls(*values)
    assert type(twin) is twin_cls and (twin_cls(*values) is twin) is (cls in INTERNED)
    assert tuple(getattr(twin, name) for name in fields) == values
    assert a != twin and twin != a
    assert pickle.loads(pickle.dumps(a)) == a == copy.copy(a)
    if cls in INTERNED:
        assert pickle.loads(pickle.dumps(a)) is a is copy.copy(a) is copy.deepcopy(a)
    with pytest.raises(TypeError):
        cls(*values, 0)


def test_plain_records_take_their_fields_positionally():
    """A type with no initialiser of its own is built by Value.__init__, which takes
    exactly its fields, in declaration order, and no keywords."""
    plain = [(cls, fields, make) for cls, fields, make in SAMPLES if cls.__init__ is Value.__init__]
    assert [cls.__name__ for cls, _, _ in plain] == [
        "QuadElt", "PicSize", "UnitInfo", "CuspTerm", "CuspBreakdown", "CurvePoly"]
    for cls, fields, make in plain:
        values = tuple(getattr(make(), name) for name in fields)
        for wrong in (values[:-1], (*values, 0)):
            with pytest.raises(TypeError, match=f"^{cls.__name__} takes {len(fields)} fields,"
                                                f" got {len(wrong)}$"):
                cls(*wrong)
        with pytest.raises(TypeError):
            cls(*values[:-1], **{fields[-1]: values[-1]})


def test_reprs_keep_the_dataclass_format():
    assert repr(QuadElt(_F, 1, 2)) == "QuadElt(field=QuadField(-5), a=1, b=2)"
    assert repr(CurvePoly(_Q, (1, 0, 3), 2)) == (
        "CurvePoly(field=CoeffField(char=0), nums=(1, 0, 3), den=2)")
    assert repr(DetClass(5, 3)) == "DetClass(value=2, modulus=3)"


def test_derived_parts_survive_pickle_eq_and_hash():
    """A pair or a vector is its order and elements, and a curve ideal its field, n,
    content, p and nu: pickling rebuilds the ideal or q they determine, and two
    values built apart compare, hash and print alike."""
    g1, g2 = QuadElt(_F, 3, 0), QuadElt(_F, 1, 3)
    curve = curve_ideal_from_generators(
        _Q, 7, [parse_curve_poly(_Q, t) for t in ("1 + x + x^2", "x^3")])
    for cls, args, derived in (
        (GenPair, (_O, g1, g2), "ideal"),
        (GenVec, (_O, (g1, g2, g1 + g2)), "ideal"),
        (CurveIdeal, (_Q, 7, curve.content, curve.p, curve.nu), "q"),
    ):
        value = cls(*args)
        twin = pickle.loads(pickle.dumps(value))
        assert value.__reduce__() == (cls, args)
        assert twin == value == cls(*args) and twin is not value
        assert hash(twin) == hash(value) == hash(cls(*args))
        assert repr(twin) == repr(value)
        assert getattr(twin, derived) == getattr(value, derived)
    listed = GenVec(_O, [g1, g2, g1 + g2])  # kept as a tuple, so it hashes
    assert listed.elements == (g1, g2, g1 + g2)
    assert hash(listed) == hash(GenVec(_O, listed.elements))
    assert curve == CurveIdeal(_Q, 7, curve.content, curve.p, 2)
    assert curve.q == parse_curve_poly(_Q, "x^3")
    assert GenPair(_O, g1, g2).ideal == QIdeal(_O, 1, 0, 1)
    assert repr(GenPair(_O, g1, g2)) == (
        "GenPair(order=Order(m=-5, f=3), g1=QuadElt(field=QuadField(-5), a=3, b=0),"
        " g2=QuadElt(field=QuadField(-5), a=1, b=3))")


def test_only_the_memo_keys_are_interned():
    assert [cls for cls, _, _ in SAMPLES if isinstance(cls, Interned)] == list(INTERNED)
    with pytest.raises(TypeError):
        QuadField(m=-5)
    with pytest.raises(TypeError):
        Order(_F, f=3)


def test_values_built_before_a_clear_still_compare_hash_and_hit_memos():
    """cache_clear empties the intern tables; an order built before it equals, hashes
    like and finds the picard_order entry of one built after."""
    old = Order(QuadField(223), 12)
    pic = picard_order(old)
    QuadField.cache_clear()
    Order.cache_clear()
    new = Order(QuadField(223), 12)
    assert new is not old and new.field is not old.field
    assert new == old and old == new and new.field == old.field
    assert hash(new) == hash(old) == hash((new.field, 12)) and hash(new.field) == hash((223,))
    hits = picard_order.cache_info().hits
    assert picard_order(new) is pic
    assert picard_order.cache_info().hits == hits + 1


def test_a_failed_build_is_not_kept():
    """A build that raises stores nothing. 100160063 = 10007*10009 has no prime factor
    up to 100, so its squarefree test is inconclusive under budget 100; under the
    default budget the field builds, and budget 100 then finds that same field."""
    QuadField.cache_clear()
    token = budget.set(100)
    try:
        with pytest.raises(InconclusiveError, match="squarefree test: trial division up to 100"):
            QuadField(100160063)
    finally:
        budget.reset(token)
    field = QuadField(100160063)
    token = budget.set(100)
    try:
        assert QuadField(100160063) is field
    finally:
        budget.reset(token)
