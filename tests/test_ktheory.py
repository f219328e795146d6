import itertools
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction as F
from math import gcd, lcm
from pathlib import Path

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form

import spinhalg
from spinhalg.modules import AbGroupExpr, fundamental_dimension, ngroup
from spinhalg.ktheory import (
    THEORIES,
    CoefficientRing,
    DualityReport,
    FGAbelianGroup,
    IndexClassification,
    IntegralityError,
    UndeterminedExtension,
    VerificationBoundExceeded,
    ZkIndexInput,
    aind_classify,
    dual_group,
    integral_table,
    k_coefficients,
    k_coefficients_extension,
    zk_index,
    zk_sphere_group,
)
from spinhalg.ktheory import _TO_KU, _element_orders, _forced
from spinhalg.series import genus_4manifold


class TestCoefficientRing:
    def test_parse(self):
        assert CoefficientRing.parse("Q/Z").tag == "Q/Z"
        assert CoefficientRing.parse("Z12") == CoefficientRing("Zk", 12)
        assert str(CoefficientRing.parse("Z5")) == "Z5"

    def test_validation(self):
        with pytest.raises(ValueError):
            CoefficientRing("Zk", 1)
        with pytest.raises(ValueError):
            CoefficientRing("Z", 3)
        with pytest.raises(ValueError):
            CoefficientRing.parse("R")

    @pytest.mark.parametrize("text", ["Z\u0663", "Z1_2", "Z\u00b2"])
    def test_parse_takes_ascii_digits_only(self, text):
        # str.isdigit alone also passes the digits of other scripts
        with pytest.raises(ValueError, match="cannot parse coefficient ring"):
            CoefficientRing.parse(text)

    def test_qz_normalization(self):
        assert qz(F(7, 3)) == F(1, 3)
        assert qz(F(-1, 4)) == F(3, 4)
        assert qz(5) == 0


KSP_INTEGRAL = ["Z", "0", "0", "0", "Z", "Z2", "Z2", "0"]
KO_INTEGRAL = ["Z", "Z2", "Z2", "0", "Z", "0", "0", "0"]
KSP_QZ_0_15 = ["Q/Z", "0", "0", "0", "Q/Z", "0", "Z2", "Z2",
               "Q/Z", "0", "0", "0", "Q/Z", "0", "Z2", "Z2"]


class TestIntegralTables:
    def test_ksp_period8(self):
        assert [str(k_coefficients("KSp", n)) for n in range(8)] == KSP_INTEGRAL

    def test_ko_period8(self):
        assert [str(k_coefficients("KO", n)) for n in range(8)] == KO_INTEGRAL

    def test_ku_period2(self):
        assert [str(k_coefficients("KU", n)) for n in range(4)] == ["Z", "0", "Z", "0"]

    def test_negative_degrees(self):
        assert k_coefficients("KO", -1) == k_coefficients("KO", 7)
        assert k_coefficients("KSp", -4) == k_coefficients("KSp", 4)

    @pytest.mark.parametrize("n", range(0, 17))
    def test_bott_shift(self, n):
        assert integral_table("KSp", n) == integral_table("KO", n + 4)

    @pytest.mark.parametrize("n", range(0, 17))
    def test_abs_consistency_with_module_groups(self, n):
        assert ngroup(n, "R") == k_coefficients("KO", n)
        assert ngroup(n, "H") == k_coefficients("KSp", n)
        assert ngroup(n, "C") == k_coefficients("KU", n)

    def test_unknown_theory(self):
        with pytest.raises(ValueError):
            k_coefficients("KX", 0)


# Anderson duality shift of each theory: I_Z KO = S^4 KO (Anderson 1969;
# Heard & Stojanoska 2014), I_Z KSp = S^4 KSp by Bott periodicity, and
# I_Z KU = KU.
ANDERSON_SHIFT = {"KO": 4, "KSp": 4, "KU": 0}


class TestAndersonSelfDuality:
    # At a point the Anderson sequence 0 -> Ext(T_{n-1}, Z) -> T_{-n-d} ->
    # Hom(T_n, Z) -> 0 splits: T_{-n-d} = free(T_n) + tors(T_{n-1}).  Mutants
    # of modules._KO fail it (Z2s at 2 and 3, one Z2 only, Z2 in place of
    # KO_4 = Z, Z4 at 2), but KSp's table put in place of _KO passes, so
    # this test cannot tell KO from KSp; the literal tables of
    # TestIntegralTables do.
    @pytest.mark.parametrize("theory", sorted(ANDERSON_SHIFT))
    @pytest.mark.parametrize("n", range(-16, 17))
    def test_table_is_anderson_self_dual(self, theory, n):
        d = ANDERSON_SHIFT[theory]
        degree_n, below = integral_table(theory, n), integral_table(theory, n - 1)
        dual = integral_table(theory, -n - d)
        assert dual == AbGroupExpr.free(degree_n.rank) + AbGroupExpr(below.torsion)
        # the torsion half read through the Q/Z pairing of dual_group
        report = dual_group(FGAbelianGroup.from_summands(0, below.torsion))
        assert report.verified
        assert report.group.torsion == FGAbelianGroup.from_summands(0, dual.torsion).torsion


class TestCoefficientChanges:
    def test_ksp_qz_display(self):
        assert [str(k_coefficients("KSp", n, "Q/Z")) for n in range(16)] == KSP_QZ_0_15

    def test_spot_values(self):
        assert str(k_coefficients("KSp", 6, "Q/Z")) == "Z2"
        assert str(k_coefficients("KSp", 2, "Q/Z")) == "0"

    @pytest.mark.parametrize("theory", ["KO", "KU", "KSp"])
    @pytest.mark.parametrize("n", range(0, 12))
    def test_rational_ranks(self, theory, n):
        rational = k_coefficients(theory, n, "Q")
        base = k_coefficients(theory, n)
        assert rational.summands == ("Q",) * base.rank

    @pytest.mark.parametrize("n", range(0, 16))
    def test_qz_consistency_with_les(self, n):
        # long-exact-sequence route: Q/Z part = (rank of n) copies of Q/Z
        # plus the torsion of degree n-1
        viasum = AbGroupExpr(("Q/Z",) * integral_table("KSp", n).rank
                             + integral_table("KSp", n - 1).torsion)
        assert k_coefficients("KSp", n, "Q/Z") == viasum

    def test_zk_on_free_degree(self):
        assert str(k_coefficients("KSp", 4, "Z5")) == "Z5"
        assert str(k_coefficients("KSp", 8, "Z12")) == "Z12"

    def test_zk_ambiguous_extension_flagged(self):
        with pytest.raises(UndeterminedExtension):
            k_coefficients("KO", 2, "Z2")
        report = k_coefficients_extension("KO", 2, CoefficientRing("Zk", 2))
        assert report.group is None
        assert str(report.sub) == "Z2" and str(report.quot) == "Z2"

    def test_forced_extension_rule(self):
        # over the period tables the split case never meets two nonzero
        # ends (Q kills Tor; over Q/Z rank and torsion sit in other
        # degrees), so the rule is checked on its own
        z2, zero = AbGroupExpr((2,)), AbGroupExpr.zero()
        assert _forced(AbGroupExpr(("Q/Z",)), z2, split=True) == AbGroupExpr(("Q/Z", 2))
        assert _forced(z2, z2, split=True) == AbGroupExpr((2, 2))
        assert _forced(z2, z2, split=False) is None
        assert _forced(z2, zero, split=False) == z2
        assert _forced(zero, z2, split=False) == z2

    def test_zk_tor_only(self):
        # KO_3(pt; Z2): tensor side zero, Tor(KO_2) = Z2
        assert str(k_coefficients("KO", 3, "Z2")) == "Z2"


class TestZkSphere:
    def test_ku_even(self):
        res = zk_sphere_group("KU", 6, 3)
        assert res.group is not None and str(res.group) == "Z3"

    def test_ko_dim8_iso(self):
        res = zk_sphere_group("KO", 8, 5)
        assert res.group is not None and str(res.group) == "Z5"
        assert res.complexification == "iso"

    def test_ko_dim12_doubling(self):
        res = zk_sphere_group("KO", 12, 4)
        assert res.group is not None and str(res.group) == "Z4"
        assert res.complexification == "x2"

    @pytest.mark.parametrize("m,expected", [(8, "iso"), (12, "x2"), (16, "iso"), (20, "x2")])
    def test_complexification_window(self, m, expected):
        assert zk_sphere_group("KO", m, 3).complexification == expected

    def test_undetermined_extension_reported(self):
        res = zk_sphere_group("KO", 2, 2)
        assert res.group is None
        assert not res.quot.is_zero()

    def test_input_validation(self):
        with pytest.raises(ValueError):
            zk_sphere_group("KSp", 8, 3)
        with pytest.raises(ValueError):
            zk_sphere_group("KO", 1, 3)
        with pytest.raises(ValueError):
            zk_sphere_group("KO", 8, 1)


# The universal-coefficient assembly as it stood before zk_sphere_group
# read its Moore part from k_coefficients_extension: one tensor and one
# Tor rule per ring, summand by summand.
def old_tensor_with(group, ring):
    parts = []
    for token in group.summands:
        if token == "Z":
            if ring.tag == "Q":
                parts.append("Q")
            elif ring.tag == "Q/Z":
                parts.append("Q/Z")
            else:
                parts.append(ring.k)
        else:  # finite cyclic of order token
            if ring.tag in ("Q", "Q/Z"):
                continue
            d = gcd(token, ring.k)
            if d > 1:
                parts.append(d)
    return AbGroupExpr(tuple(parts))


def old_tor_with(group, ring):
    if ring.tag == "Q":
        return AbGroupExpr.zero()
    parts = []
    for token in group.torsion:
        if ring.tag == "Q/Z":
            parts.append(token)  # Tor(Z_m, Q/Z) = Z_m
        else:
            d = gcd(token, ring.k)
            if d > 1:
                parts.append(d)
    return AbGroupExpr(tuple(parts))


def old_extension(theory, n, ring):
    if ring.tag == "Z":
        return integral_table(theory, n), AbGroupExpr.zero()
    return (old_tensor_with(integral_table(theory, n), ring),
            old_tor_with(integral_table(theory, n - 1), ring))


def old_sphere(theory, m, k, star):
    ring = CoefficientRing("Zk", k)
    wedge_piece = integral_table(theory, -(star - m + 1))
    tensor_part = old_tensor_with(integral_table(theory, -(star - m)), ring)
    sub = AbGroupExpr(wedge_piece.summands * (k - 1)) + tensor_part
    comparison = None
    if theory == "KO" and star == 0 and m % 4 == 0:
        comparison = "iso" if m % 8 == 0 else "x2"
    return sub, old_tor_with(wedge_piece, ring), comparison


class TestOldAssembly:
    RINGS = [CoefficientRing.parse(text) for text in ("Z", "Q", "Q/Z", "Z2", "Z3", "Z4", "Z12")]

    def test_coefficient_changes(self):
        for theory, n, ring in itertools.product(THEORIES, range(-16, 17), self.RINGS):
            result = k_coefficients_extension(theory, n, ring)
            sub, quot = old_extension(theory, n, ring)
            assert (result.sub, result.quot) == (sub, quot), (theory, n, ring)
            split = ring.tag != "Zk" or quot.is_zero() or sub.is_zero()
            assert result.group == (sub + quot if split else None)

    @pytest.mark.parametrize("theory", ["KO", "KU"])
    def test_torsion_spheres(self, theory):
        for m, k, star in itertools.product(range(2, 21), range(2, 13), range(-9, 10)):
            result = zk_sphere_group(theory, m, k, star)
            sub, quot, comparison = old_sphere(theory, m, k, star)
            assert (result.sub, result.quot, result.complexification) == \
                (sub, quot, comparison), (m, k, star)
            assert result.group == (sub + quot if sub.is_zero() or quot.is_zero() else None)


class TestComplexification:
    """The factor by which complexification multiplies a generator of
    KO_n(pt) = Z or KSp_n(pt) = Z, read off the Clifford modules: an
    irreducible real Cl_n-module is one or two irreducible complex ones
    over R, and an irreducible quaternionic one is this many complex ones."""

    @pytest.mark.parametrize("n", range(4, 65, 4))
    def test_table_against_clifford_modules(self, n):
        complex_dim = fundamental_dimension(n, "C")
        ko = 2 * fundamental_dimension(n, "R") // complex_dim
        ksp = fundamental_dimension(n, "H") // complex_dim
        assert (_TO_KU["KO"][n % 8 // 4], _TO_KU["KSp"][n % 8 // 4]) == (ko, ksp)
        # and the three readers of the table
        assert ZkIndexInput(n, 3, 0, 0).epsilon == ksp
        assert aind_classify(n, genus_value=2).value == 2 // ksp
        assert zk_sphere_group("KO", n, 3).complexification == ("iso" if ko == 1 else f"x{ko}")


class TestZkIndex:
    def test_direct_arithmetic(self):
        assert zk_index(ZkIndexInput(4, 3, F(5), F(2))) == 0
        assert zk_index(ZkIndexInput(8, 3, F(6), F(0))) == 0
        assert zk_index(ZkIndexInput(4, 5, F(7), F(-1))) == 3

    def test_non_integral_rejected(self):
        with pytest.raises(IntegralityError):
            zk_index(ZkIndexInput(8, 5, F(7), F(0)))

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            ZkIndexInput(6, 3, F(1), F(0))
        with pytest.raises(ValueError):
            ZkIndexInput(4, 1, F(1), F(0))

    def test_additivity(self):
        a = ZkIndexInput(4, 7, F(5), F(2))
        b = ZkIndexInput(4, 7, F(9), F(1))
        combined = ZkIndexInput(4, 7, F(14), F(3))
        assert zk_index(combined) == (zk_index(a) + zk_index(b)) % 7

    @pytest.mark.parametrize("l", [2, 3, 5])
    def test_modulus_lift(self, l):
        # scaling the cycle by l multiplies both terms and the answer by l
        base = ZkIndexInput(8, 3, F(10), F(4))
        lifted = ZkIndexInput(8, 3 * l, F(10) * l, F(4) * l)
        assert zk_index(lifted) == (l * zk_index(base)) % (3 * l)


# each index a geometry forces to be an integer is checked in the library,
# and a non-integral input raises the same error everywhere
NON_INTEGRAL = {
    "zk_index": (lambda: zk_index(ZkIndexInput(8, 5, F(7), F(0))),
                 "(7 - 0)/2 is not an integer"),
    "aind_classify": (lambda: aind_classify(4, genus_value=F(1, 2)),
                      "genus value 1/2 is not an integer"),
    "genus_4manifold": (lambda: genus_4manifold(3, 0, "+"),
                        "signature 3 and Euler characteristic 0 differ mod 2"),
}


@pytest.mark.parametrize("entry", NON_INTEGRAL)
def test_non_integral_input_is_an_integrality_error(entry):
    call, message = NON_INTEGRAL[entry]
    with pytest.raises(IntegralityError) as caught:
        call()
    assert str(caught.value) == message


class TestAindClassify:
    def test_examples(self):
        assert aind_classify(4, genus_value=1).value == 1
        assert aind_classify(0, genus_value=2).value == 1
        zero = aind_classify(7)
        assert zero.group.is_zero() and zero.value == 0

    def test_parities(self):
        assert aind_classify(5, harmonic_dim=3).value == 1
        assert aind_classify(6, harmonic_dim=4).value == 0
        assert str(aind_classify(13, harmonic_dim=2).group) == "Z2"

    def test_groups_match_ksp(self):
        for n in range(-16, 24):
            kwargs = {}
            if n % 8 in (0, 4):
                kwargs["genus_value"] = 2
            if n % 8 in (5, 6):
                kwargs["harmonic_dim"] = 1
            assert aind_classify(n, **kwargs).group == k_coefficients("KSp", n)

    def test_errors(self):
        with pytest.raises(ValueError):
            aind_classify(4)
        with pytest.raises(ValueError):
            aind_classify(5)
        with pytest.raises(IntegralityError):
            aind_classify(0, genus_value=3)  # odd in residue 0
        with pytest.raises(IntegralityError):
            aind_classify(4, genus_value=F(1, 2))
        with pytest.raises(ValueError, match="not a nonnegative integer"):
            aind_classify(5, harmonic_dim=-3)
        with pytest.raises(ValueError, match="not a nonnegative integer"):
            aind_classify(6, harmonic_dim=2.5)
        with pytest.raises(ValueError, match="does not read"):
            aind_classify(7, genus_value=3, harmonic_dim=9)
        with pytest.raises(ValueError, match="does not read a harmonic dimension"):
            aind_classify(4, genus_value=2, harmonic_dim=0)
        with pytest.raises(ValueError, match="does not read a genus value"):
            aind_classify(5, genus_value=2, harmonic_dim=1)


class TestFGAbelianGroup:
    def test_chain_validation(self):
        FGAbelianGroup(0, (2, 4, 8))
        with pytest.raises(ValueError):
            FGAbelianGroup(0, (4, 2))
        with pytest.raises(ValueError):
            FGAbelianGroup(0, (2, 3))

    def test_from_summands(self):
        assert FGAbelianGroup.from_summands(0, [4, 6]).torsion == (2, 12)
        assert FGAbelianGroup.from_summands(0, [2, 3]).torsion == (6,)
        assert FGAbelianGroup.from_summands(2, []).rank == 2
        assert FGAbelianGroup.from_summands(0, [1, 1]).torsion == ()

    def test_str(self):
        assert str(FGAbelianGroup(1, (6,))) == "Z+Z6"

    @staticmethod
    def check_against_smith_normal_form(orders):
        # the non-unit diagonal of sympy's Smith normal form of the diagonal
        # relation matrix, with the orders listed both ways
        diagonal = ()
        if orders:
            snf = smith_normal_form(sympy.diag(*orders), domain=sympy.ZZ)
            diagonal = (abs(int(snf[i, i])) for i in range(len(orders)))
        expected = tuple(f for f in diagonal if f != 1)
        for listed in (orders, orders[::-1]):
            assert FGAbelianGroup.from_summands(0, listed).torsion == expected, listed

    def test_invariant_factors_by_smith_normal_form(self):
        # every list of cyclic orders >= 2 whose product is at most 64
        def torsion_lists(bound, least=2):
            yield ()
            for m in range(least, bound + 1):
                for tail in torsion_lists(bound // m, m):
                    yield (m,) + tail
        checked = 0
        for orders in torsion_lists(64):
            self.check_against_smith_normal_form(orders)
            checked += 1
        assert checked == 198  # unordered factorizations of 1..64

    @pytest.mark.parametrize("orders", [
        (2**61 - 1, 4 * (2**61 - 1), 6),
        (2**127 - 1, 6),
        (2**61 - 1, 2**31 - 1, 6 * (2**31 - 1), 10),
    ])
    def test_large_prime_factors_by_smith_normal_form(self, orders):
        # Mersenne primes, far past what trial division could factor
        self.check_against_smith_normal_form(orders)


class TestDualGroup:
    def test_z6_enumeration_counts(self):
        report = dual_group(FGAbelianGroup(0, (6,)))
        assert report.verified
        assert report.torsion_candidates == 36
        assert report.torsion_valid == 6

    def test_trivial_group(self):
        assert dual_group(FGAbelianGroup()).verified

    @pytest.mark.parametrize("n", [2, 5, 12, 30])
    def test_cyclic_battery(self, n):
        assert dual_group(FGAbelianGroup(0, (n,))).verified

    @pytest.mark.parametrize("a,b", [(2, 2), (2, 12), (3, 9), (4, 12)])
    def test_product_battery(self, a, b):
        group = FGAbelianGroup.from_summands(0, [a, b])
        assert dual_group(group).verified

    def test_mixed_rank_and_torsion(self):
        assert dual_group(FGAbelianGroup(1, (4,))).verified

    def test_bounds(self):
        with pytest.raises(VerificationBoundExceeded):
            dual_group(FGAbelianGroup(3, ()))
        with pytest.raises(VerificationBoundExceeded):
            dual_group(FGAbelianGroup(0, (1009,)))

    def test_large_prime_order_is_refused_at_once(self):
        # the invariant factors come from gcd and lcm, so a 30-digit prime
        # reaches the order cap without being factored
        env = dict(os.environ, PYTHONPATH=str(Path(spinhalg.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "spinhalg.cli", "dual",
             "--torsion", "1000000000000000000000000000057"],
            env=env, capture_output=True, text=True, timeout=10)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.startswith("error[VerificationBoundExceeded]: ")
        assert "Traceback" not in proc.stderr


def enumerated_element_orders(factors):
    """Oracle: (order -> count) of the element orders of a product of cyclic
    groups, walking every element."""
    counts = {}
    for tup in itertools.product(*(range(n) for n in factors)):
        o = 1
        for x, n in zip(tup, factors):
            if x:
                o = lcm(o, n // gcd(x, n))
        counts[o] = counts.get(o, 0) + 1
    return counts


def qz(x):
    """Canonical representative of x in Q/Z: the fractional part in [0, 1)."""
    f = F(x)
    return f - (f.numerator // f.denominator)


def brute_force_dual_group(group):
    """Reference: the enumeration dual_group used to run, walking every
    one of the prod(n_i^2) candidate assignments and storing each dual
    functional as a tuple built by calling the pairing per element."""
    factors = group.torsion
    elements = list(itertools.product(*(range(n) for n in factors)))
    denominator = 1
    for n in factors:
        denominator = lcm(denominator, n)
    weights = [denominator // n for n in factors]

    def pairing(a, x):
        return sum(ai * xi * w for ai, xi, w in zip(a, x, weights)) % denominator

    dual_tables = {a: tuple(pairing(a, x) for x in elements) for a in elements}
    evaluation_bijective = len(set(dual_tables.values())) == len(elements)
    stride = max(1, len(elements) // 12)
    sample = elements[::stride]
    for x in sample:
        for a1 in sample:
            for a2 in sample:
                s = tuple((u + v) % n for u, v, n in zip(a1, a2, factors))
                if (pairing(a1, x) + pairing(a2, x)) % denominator != pairing(s, x):
                    evaluation_bijective = False
    basis = [tuple(1 if j == i else 0 for j in range(len(factors)))
             for i in range(len(factors))]
    candidates = valid = 0
    for raw in itertools.product(*(range(n * n) for n in factors)):
        candidates += 1
        if any(t % n for t, n in zip(raw, factors)):
            continue
        x = tuple(t // n for t, n in zip(raw, factors))
        if all(F(pairing(b, x), denominator) == qz(F(t, n * n))
               for b, t, n in zip(basis, raw, factors)):
            valid += 1
    dual_orders = {}
    for a in elements:
        shared = denominator
        for value in dual_tables[a]:
            shared = gcd(shared, value)
        dual_orders[denominator // shared] = dual_orders.get(denominator // shared, 0) + 1
    if not elements:
        dual_orders[1] = 1
    orders_match = enumerated_element_orders(factors) == dual_orders
    verified = evaluation_bijective and valid == len(elements) and orders_match
    return DualityReport(group, verified, candidates, valid)


def torsion_lists(max_order):
    yield from ([n] for n in range(1, max_order + 1))
    yield from ([a, b] for a in range(2, max_order + 1)
                for b in range(a, max_order // a + 1))


class TestDualGroupParity:
    def test_element_orders_match_the_enumeration(self):
        assert _element_orders(()) == enumerated_element_orders(()) == {1: 1}
        for orders in torsion_lists(64):
            assert _element_orders(tuple(orders)) == enumerated_element_orders(orders), orders

    @pytest.mark.parametrize("rank", [0, 1, 2])
    def test_every_field_matches_the_enumeration(self, rank):
        groups = {FGAbelianGroup.from_summands(rank, orders) for orders in torsion_lists(64)}
        for group in sorted(groups, key=str):
            assert dual_group(group) == brute_force_dual_group(group), group

    def test_peak_allocation_on_z600(self):
        # tracemalloc peak of dual_group(Z_600): 23,932,320 bytes with the
        # enumeration above, 9,560,224 bytes with the current code
        # (Python 3.11).
        group = FGAbelianGroup(0, (600,))
        tracemalloc.start()
        try:
            report = dual_group(group)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.verified and report.torsion_candidates == 360000
        assert peak <= 23_932_320 // 2

    def test_peak_allocation_on_z870(self):
        # tracemalloc peak of dual_group(Z_870): 23,218,640 bytes with a
        # table of all |G| dual rows, 126,040 bytes with one row at a time
        # (Python 3.11).  The bound is 1 MiB.
        group = FGAbelianGroup(0, (870,))
        tracemalloc.start()
        try:
            report = dual_group(group)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.verified and report.torsion_valid == 870
        assert peak <= 1 << 20
