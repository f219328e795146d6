"""The benchmark's independent oracles on values known by hand."""

import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import oracles as o  # noqa: E402

P = o.parse_poly


def test_wu_formula_on_generators():
    assert o.sq_poly(1, P("w2")) == P("w3")
    assert o.sq_poly(2, P("w2")) == P("w2^2")
    assert o.sq_poly(1, P("w3")) == P("0")
    assert o.sq_poly(2, P("w3")) == P("w2*w3+w5")
    assert o.sq_poly(3, P("w2")) == P("0")


def test_cartan_and_top_square():
    p = P("w2*w3+w5")
    assert o.sq_poly(5, p) == o.square_poly(p)
    assert o.sq_poly(1, P("w2*w3")) == P("w3^2")


def test_series_oracles():
    assert o.spinh_free_series(9) == [1, 0, 1, 1, 2, 1, 4, 3, 6, 5]
    assert o.spinh_sq1_series(12) == [1, 0, 0, 0, 2, 0, 0, 0, 4, 0, 0, 0, 7]


def test_blade_sign_in_negative_definite_signature():
    e1, e2 = 0b01, 0b10
    assert o.blade_sign(e2, e1, r=2) == -1      # e2 e1 = -e1 e2
    assert o.blade_sign(e1, e1, r=2) == -1      # e1^2 = -1
    assert o.blade_sign(e1, e1, r=0) == 1       # e1^2 = +1 in Cl(0, s)
    assert o.blade_sign(0b11, 0b11, r=2) == -1  # (e1 e2)^2 = -1


def test_invariant_factors_and_pairings():
    assert o.invariant_factors([4, 6]) == (2, 12)
    assert o.invariant_factors([2, 2, 3, 5, 5]) == (10, 30)
    assert o.pairing(3, 1) == 10 and o.pairing(1, 3) == 0
    assert o._reciprocal([Fraction(1), Fraction(1)]) == [1, -1]
