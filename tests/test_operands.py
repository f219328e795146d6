"""The exact element types take only exact operands: a coefficient, scale
factor or index input that is not an int or a Fraction (a float, a
Decimal, text) raises TypeError instead of being read by Fraction(), a
float as its binary expansion, and an operand of another type gives
TypeError from Python's operator protocol, not an AttributeError from
inside a method."""

import re
from decimal import Decimal
from fractions import Fraction

import pytest

from spinhalg.clifford import CliffordElement, Signature
from spinhalg.ktheory import FGAbelianGroup, ZkIndexInput, aind_classify
from spinhalg.series import GradedSeries
from spinhalg.steenrod import StiefelWhitneyRing, parse_polynomial

SIG = Signature(1, 1)
X = CliffordElement(SIG, {0: 1, 0b11: Fraction(1, 2)})
S = GradedSeries(2, [1, Fraction(-1, 24), 0])
P = parse_polynomial("w2^2+w4")


def test_clifford_refuses_a_float_coefficient():
    with pytest.raises(TypeError, match="float"):
        CliffordElement(SIG, {1: 0.1})
    # an int-valued float is refused as well: no float is read at all
    with pytest.raises(TypeError, match="float"):
        CliffordElement(SIG, {0: 1, 1: 2.0})


def test_clifford_scale_refuses_a_float():
    with pytest.raises(TypeError, match="float"):
        X.scale(0.1)


def test_series_refuses_a_float_coefficient():
    with pytest.raises(TypeError, match="float"):
        GradedSeries(2, [0.1])
    with pytest.raises(TypeError, match="float"):
        GradedSeries(2, [1, Fraction(1, 2), 0.5])


def test_series_scale_refuses_a_float():
    with pytest.raises(TypeError, match="float"):
        S.scale(0.1)


# every place a scalar enters, each fed as value in a call that takes an
# int or a Fraction there
ENTRY_POINTS = {
    "CliffordElement": lambda value: CliffordElement(SIG, {1: value}),
    "CliffordElement.scale": lambda value: X.scale(value),
    "GradedSeries": lambda value: GradedSeries(2, [1, value]),
    "GradedSeries.scale": lambda value: S.scale(value),
    "ZkIndexInput.integral_term": lambda value: ZkIndexInput(4, 3, value, 0),
    "ZkIndexInput.eta_term": lambda value: ZkIndexInput(4, 3, 0, value),
    "aind_classify": lambda value: aind_classify(4, value),
}
INEXACT = {"'1/3'": "1/3", "' 2 '": " 2 ", "Decimal('0.25')": Decimal("0.25"),
           "Decimal(2)": Decimal(2), "0.1": 0.1, "2.0": 2.0}


@pytest.mark.parametrize("value", INEXACT)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_only_int_and_fraction_are_read(entry, value):
    value = INEXACT[value]
    with pytest.raises(TypeError, match=f"is a {type(value).__name__}; pass an int or a Fraction"):
        ENTRY_POINTS[entry](value)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_int_and_fraction_are_read_alike(entry):
    assert ENTRY_POINTS[entry](2) == ENTRY_POINTS[entry](Fraction(2))


# a blade key is an int bitmask: 1.0 was stored, and reading the element
# back failed inside blade_degree
@pytest.mark.parametrize("blade", [1.0, Fraction(1), "1"], ids=repr)
def test_clifford_refuses_a_non_int_blade(blade):
    message = f"blade {blade!r} is a {type(blade).__name__}; pass an int"
    with pytest.raises(TypeError, match=re.escape(message)):
        CliffordElement(Signature(1, 0), {blade: 1})


# the dimension and the modulus are ints: a modulus of 2.5 gave the
# residue 0.0, and a dimension of 8.0 failed inside epsilon
@pytest.mark.parametrize("name, value", [("k", 2.5), ("n", 8.0), ("n", Fraction(4)),
                                         ("k", Decimal(5)), ("n", "8")], ids=repr)
def test_zk_index_input_refuses_a_non_int_dimension_or_modulus(name, value):
    message = f"{name} = {value!r} is a {type(value).__name__}; pass an int"
    with pytest.raises(TypeError, match=re.escape(message)):
        ZkIndexInput(**{"n": 4, "k": 5, name: value}, integral_term=5, eta_term=0)


# group ranks and orders and Stiefel-Whitney indices are ints: a rank of
# 1.5 and an order of 4.0 built a group, and w(2.0) printed as w2.0
NON_INT_ENTRY_POINTS = {
    "rank": lambda value: FGAbelianGroup(value),
    "invariant factor": lambda value: FGAbelianGroup(0, (2, value)),
    "cyclic order": lambda value: FGAbelianGroup.from_summands(0, [2, value]),
    "index": lambda value: StiefelWhitneyRing.w(value),
}


@pytest.mark.parametrize("value", [1.5, 4.0, Fraction(4), Decimal(4), "4"], ids=repr)
@pytest.mark.parametrize("name", NON_INT_ENTRY_POINTS)
def test_group_orders_and_class_indices_refuse_a_non_int(name, value):
    message = f"{name} = {value!r} is a {type(value).__name__}; pass an int"
    with pytest.raises(TypeError, match=re.escape(message)):
        NON_INT_ENTRY_POINTS[name](value)


def test_group_orders_and_class_indices_take_an_int():
    assert str(FGAbelianGroup(1, (2, 4))) == "Z+Z2+Z4"
    assert str(FGAbelianGroup.from_summands(0, [2, 3])) == "Z6"
    assert str(StiefelWhitneyRing.w(2)) == "w2"


def test_exact_scalars_still_scale():
    assert X * 2 == X.scale(2) == X + X
    assert X * Fraction(1, 3) == CliffordElement(SIG, {0: Fraction(1, 3), 0b11: Fraction(1, 6)})
    assert S * Fraction(-2) == S.scale(-2) == GradedSeries(2, [-2, Fraction(1, 12), 0])


OPERANDS = {"x": X, "s": S, "p": P, "0.5": 0.5, "None": None, "'w2'": "w2",
            "1/2": Fraction(1, 2), "2": 2}
FOREIGN = ("0.5", "None", "'w2'", "1/2", "2")
CASES = [
    # expressions whose operands are of different types; an int or a
    # Fraction on the right of a Clifford element or a series scales it,
    # so those are left out
    *(f"x {op} {b}" for op in "+-" for b in FOREIGN + ("s",)),
    *(f"x * {b}" for b in ("0.5", "None", "'w2'", "s", "p")),
    *(f"{a} * x" for a in ("0.5", "2", "1/2")),
    *(f"s {op} {b}" for op in "+-" for b in FOREIGN + ("x",)),
    *(f"s * {b}" for b in ("0.5", "None", "'w2'", "x", "p")),
    *(f"{a} * s" for a in ("0.5", "2", "1/2")),
    *(f"p {op} {b}" for op in "+*" for b in FOREIGN + ("x", "s")),
]


@pytest.mark.parametrize("case", CASES)
def test_foreign_operand_is_a_type_error(case):
    a, op, b = case.split(" ")
    a, b = OPERANDS[a], OPERANDS[b]
    with pytest.raises(TypeError):
        a + b if op == "+" else a - b if op == "-" else a * b


def test_series_has_no_negation_or_sum():
    # only the difference is kept, the one the Chebyshev recurrence takes
    with pytest.raises(TypeError):
        -S
    with pytest.raises(TypeError):
        S + S
    assert S - S == GradedSeries(2, [0, 0, 0])
