"""Acceptance suite: one test per release criterion, each printing a
PASS line with its runtime.  All arithmetic is exact, so comparisons are
equalities; the only tolerances are the stated runtime budgets.

Run with `pytest tests/test_acceptance.py -s` to see the criterion log.

Criterion 10, the headline theorems: the existence theorems themselves are
not desk-checkable; their numeric consequences are exactly the suites of
criteria 3, 6 and 8.
"""

import random
import time
from fractions import Fraction as F

import pytest

from spinhalg.clifford import (
    CliffordElement,
    Signature,
    classify,
    volume_element,
    volume_square_sign,
)
from spinhalg.modules import fundamental_dimension, ngroup
from spinhalg.ktheory import (
    FGAbelianGroup,
    IntegralityError,
    dual_group,
    k_coefficients,
    zk_sphere_group,
)
from spinhalg.series import (
    chebyshev_theta,
    genus_4manifold,
    hp_pairing_binomial,
    hp_pairing_matrix,
)
from spinhalg.steenrod import (
    StiefelWhitneyRing,
    adem_reduce,
    apply_monomial,
    apply_operation,
    bso_quotient_model,
    chi_sq,
    ideal_membership,
    sq,
    sq1_homology_oracle,
    sq1_homology_series,
    wu_classes,
)


def _report(number: int, description: str, started: float, limit: float | None = None):
    elapsed = time.perf_counter() - started
    if limit is not None:
        assert elapsed < limit, f"criterion {number} took {elapsed:.2f}s (limit {limit}s)"
    budget = f", limit {limit:g}s" if limit else ""
    print(f"ACCEPTANCE {number}: PASS - {description} ({elapsed:.2f}s{budget})")


TABLE1 = {
    (0, "Cl"): "R", (0, "CCl"): "C", (0, "Clh"): "H", (0, "CClh"): "C(2)",
    (1, "Cl"): "C", (1, "CCl"): "C+C", (1, "Clh"): "C(2)", (1, "CClh"): "C(2)+C(2)",
    (2, "Cl"): "H", (2, "CCl"): "C(2)", (2, "Clh"): "R(4)", (2, "CClh"): "C(4)",
    (3, "Cl"): "H+H", (3, "CCl"): "C(2)+C(2)", (3, "Clh"): "R(4)+R(4)", (3, "CClh"): "C(4)+C(4)",
    (4, "Cl"): "H(2)", (4, "CCl"): "C(4)", (4, "Clh"): "R(8)", (4, "CClh"): "C(8)",
    (5, "Cl"): "C(4)", (5, "CCl"): "C(4)+C(4)", (5, "Clh"): "C(8)", (5, "CClh"): "C(8)+C(8)",
    (6, "Cl"): "R(8)", (6, "CCl"): "C(8)", (6, "Clh"): "H(8)", (6, "CClh"): "C(16)",
    (7, "Cl"): "R(8)+R(8)", (7, "CCl"): "C(8)+C(8)", (7, "Clh"): "H(8)+H(8)", (7, "CClh"): "C(16)+C(16)",
    (8, "Cl"): "R(16)", (8, "CCl"): "C(16)", (8, "Clh"): "H(16)", (8, "CClh"): "C(32)",
}

TABLE3 = {
    "R": [2, 4, 8, 8, 16, 16, 16, 16],
    "C": [4, 4, 8, 8, 16, 16, 32, 32],
    "H": [8, 8, 8, 8, 16, 32, 64, 64],
}

TABLE2_R = ["Z2", "Z2", "0", "Z", "0", "0", "0", "Z"]
TABLE2_H = ["0", "0", "0", "Z", "Z2", "Z2", "0", "Z"]


def test_criterion_1_table1_classification():
    started = time.perf_counter()
    for (n, variant), expected in TABLE1.items():
        assert str(classify(n, variant)) == expected, (n, variant)
    _report(1, "all 36 classification table entries reproduced", started, limit=1.0)


def test_criterion_2_table3_dimensions():
    started = time.perf_counter()
    for field, row in TABLE3.items():
        assert [fundamental_dimension(n, field) for n in range(1, 9)] == row
    for field in TABLE3:
        for n in range(1, 25):
            assert fundamental_dimension(n + 8, field) == 16 * fundamental_dimension(n, field)
    _report(2, "all 24 fundamental dimensions plus the 16x recursion through n=24", started)


def test_criterion_3_table2_module_groups():
    started = time.perf_counter()
    assert [str(ngroup(n, "R")) for n in range(1, 9)] == TABLE2_R
    assert [str(ngroup(n, "H")) for n in range(1, 9)] == TABLE2_H
    assert [str(ngroup(n, "C")) for n in range(1, 3)] == ["0", "Z"]
    # K-theory read against the hand-typed rows, not against ngroup (which
    # the K-theory table is built from)
    for n in range(0, 17):
        assert str(k_coefficients("KO", n)) == TABLE2_R[(n - 1) % 8]
        assert str(k_coefficients("KSp", n)) == TABLE2_H[(n - 1) % 8]
        assert str(k_coefficients("KU", n)) == ("0" if n % 2 else "Z")
    _report(3, "module Grothendieck table plus K-theory cross-check to n=16", started)


def _random_element(rng, sig, max_terms=4):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        terms[rng.randrange(1 << sig.n)] = F(rng.randint(-9, 9), rng.randint(1, 4))
    return CliffordElement(sig, terms)


def test_criterion_4_clifford_property_suite():
    started = time.perf_counter()
    # exhaustive small cases: generator relations and both volume laws
    signatures = [Signature(r, s) for r in range(0, 7) for s in range(0, 7 - r)]
    for sig in signatures:
        for i in range(1, sig.n + 1):
            ei = CliffordElement.generator(sig, i)
            assert ei * ei == CliffordElement(sig, {0: sig.generator_square(i)})
            for j in range(i + 1, sig.n + 1):
                ej = CliffordElement.generator(sig, j)
                assert (ei * ej + ej * ei).is_zero()
    for r in range(0, 11):
        for s in range(0, 11 - r):
            if r + s == 0:
                continue
            sig = Signature(r, s)
            w = volume_element(sig)
            assert w * w == CliffordElement(sig, {0: volume_square_sign(r, s)})
    # definite-case sign law omega_n^2 = (-1)^(n(n+1)/2)
    for n in range(1, 11):
        assert volume_square_sign(n, 0) == (-1) ** (n * (n + 1) // 2)
    # 1000 randomized cases across associativity, grading, transpose
    rng = random.Random(271828)
    for case in range(1000):
        r = rng.randint(0, 4)
        s = rng.randint(0, min(4, 6 - r))
        sig = Signature(r, s)
        a, b, c = (_random_element(rng, sig) for _ in range(3))
        if case % 3 == 0:
            assert (a * b) * c == a * (b * c)
        elif case % 3 == 1:
            assert (a * b).transpose() == b.transpose() * a.transpose()
        else:
            if sig.n:
                ka, kb = rng.randint(0, sig.n), rng.randint(0, sig.n)
                prod = a.grade_part(ka) * b.grade_part(kb)
                assert prod.is_zero() or prod.parity() == (ka + kb) % 2
    _report(4, "Clifford relations/volume laws exhaustively plus 1000 random cases",
            started, limit=10.0)


def test_criterion_5_genus_values_and_grid():
    started = time.perf_counter()
    assert genus_4manifold(0, 2, "+") == 1
    assert genus_4manifold(0, 2, "-") == -1
    assert genus_4manifold(1, 3, "+") == 2
    assert genus_4manifold(1, 3, "-") == -1
    # genus_4manifold recomputes the value from the A-hat and twist series
    # and raises on any disagreement, so the grid sweep is the two-path
    # comparison; where sig and euler differ mod 2 no closed oriented
    # 4-manifold exists and the genus is refused
    for sig in range(-20, 21):
        for euler in range(-20, 21):
            for orientation in ("+", "-"):
                if (sig - euler) % 2:
                    with pytest.raises(IntegralityError, match="differ mod 2"):
                        genus_4manifold(sig, euler, orientation)
                    continue
                value = genus_4manifold(sig, euler, orientation)
                o = 1 if orientation == "+" else -1
                assert value == F(sig + o * euler, 2)
    _report(5, "4-manifold genus table values and the 41x41 two-path grid", started)


def test_criterion_6_hp_triple_oracle():
    started = time.perf_counter()
    binomial = hp_pairing_matrix(10, 10, "binomial")
    residue = hp_pairing_matrix(10, 10, "residue")      # integrality enforced inside
    chebyshev = hp_pairing_matrix(10, 10, "chebyshev")
    assert binomial == residue == chebyshev
    for i in range(11):
        assert binomial[i][i] == 1
        for j in range(i + 1, 11):
            assert binomial[i][j] == 0
    # spot values against the closed form
    assert binomial[2][1] == 4 and binomial[3][1] == 10
    _report(6, "121 pairing entries agree across three methods, unit lower-triangular",
            started, limit=5.0)


def test_criterion_7_steenrod_suite():
    started = time.perf_counter()
    ring = StiefelWhitneyRing()
    cap = 20

    assert sq(1, ring.w(2)) == ring.w(3)
    nu = wu_classes(cap + 1)
    assert nu[4] == ring.w(4) + ring.w(2) * ring.w(2)
    assert sq(1, nu[4]) == ring.w(5)
    assert chi_sq(3) == frozenset({(2, 1)})
    assert chi_sq(7) == frozenset({(4, 2, 1)})

    # Cartan battery through degree 16
    rng = random.Random(7)
    def random_poly(max_degree):
        out = ring.zero()
        for _ in range(rng.randint(1, 3)):
            mono = ring.one()
            budget = rng.randint(2, max_degree)
            while budget >= 2:
                i = rng.randint(2, budget)
                mono = mono * ring.w(i)
                budget -= i
            out = out + mono
        return out
    for _ in range(25):
        p, q = random_poly(8), random_poly(8)
        for k in range(0, 9):
            rhs = ring.zero()
            for i in range(k + 1):
                rhs = rhs + sq(i, p) * sq(k - i, q)
            assert sq(k, p * q) == rhs

    # Adem soundness battery: every inadmissible pair with a+b <= 16,
    # evaluated against its admissible reduction on all monomials of
    # degree <= 16
    monomials = []
    for d in range(2, 17):
        monomials.extend(ring.monomial_basis(d))
    polys = [ring.from_monomials([m]) for m in monomials]
    pairs = [(a, b) for a in range(1, 16) for b in range(1, 16)
             if a < 2 * b and a + b <= 16]
    for a, b in pairs:
        reduced = adem_reduce((a, b))
        for p in polys:
            assert apply_monomial((a, b), p) == apply_operation(reduced, p)

    model = bso_quotient_model("spinh", cap)
    target = ring.w(9) + ring.w(2) * ring.w(7) + ring.w(3) * ring.w(6)
    assert ideal_membership(target, model.ideal)
    assert model.poincare_series() == model.free_series()
    assert sq1_homology_series(model) == sq1_homology_oracle(model)
    _report(7, "Steenrod values, Cartan/Adem batteries, quotient and Sq1 series",
            started, limit=60.0)


def test_criterion_8_ktheory_tables():
    started = time.perf_counter()
    expected = ["Z", "0", "0", "0", "Z", "Z2", "Z2", "0"]
    assert [str(k_coefficients("KSp", n)) for n in range(8)] == expected
    assert [str(k_coefficients("KSp", n)) for n in range(8, 16)] == expected
    qz_expected = ["Q/Z", "0", "0", "0", "Q/Z", "0", "Z2", "Z2"]
    assert [str(k_coefficients("KSp", n, "Q/Z")) for n in range(16)] == qz_expected * 2
    for m in (8, 12, 16, 20):
        for k in (2, 3, 4, 5):
            res = zk_sphere_group("KO", m, k)
            assert res.group is not None and str(res.group) == f"Z{k}"
            assert res.complexification == ("iso" if m % 8 == 0 else "x2")
            resu = zk_sphere_group("KU", m, k)
            assert resu.group is not None and str(resu.group) == f"Z{k}"
    _report(8, "KSp integral and Q/Z tables, torsion spheres with comparison maps",
            started)


def test_criterion_9_duality_verification():
    started = time.perf_counter()
    for n in range(2, 31):
        report = dual_group(FGAbelianGroup(0, (n,)))
        assert report.verified, n
        assert report.torsion_candidates == n * n
        assert report.torsion_valid == n
    for a in range(2, 13):
        for b in range(2, 13):
            group = FGAbelianGroup.from_summands(0, [a, b])
            assert dual_group(group).verified, (a, b)
    free = dual_group(FGAbelianGroup(1, ()))
    assert free.verified
    _report(9, "double duality for all Z_n (n<=30) and Z_a x Z_b (a,b<=12)", started)
