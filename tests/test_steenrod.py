import importlib.util
import itertools
import random
import tracemalloc
from functools import lru_cache
from math import comb
from pathlib import Path

import pytest
import sympy
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from spinhalg.steenrod import (
    BASE_INDEX,
    UNIT,
    DegreeCapExceeded,
    GradedIdeal,
    StiefelWhitneyRing,
    adem_reduce,
    apply_monomial,
    apply_operation,
    binom2,
    bso_quotient_model,
    chi_sq,
    free_subalgebra_series,
    ideal_membership,
    monomial_degree,
    parse_polynomial,
    sq,
    sq1_homology_oracle,
    sq1_homology_series,
    wu_classes,
)
from spinhalg import steenrod
from spinhalg.steenrod import _echelon, _reduce_row, _sq1_monomial

RING = StiefelWhitneyRing()


def w(*factors):
    """Monomial helper: w(2, 2, 3) = w2^2 * w3."""
    out = RING.one()
    for i in factors:
        out = out * RING.w(i)
    return out


def graded_part(p, degree):
    """The terms of p of the given degree."""
    return RING.from_monomials(m for m in p.terms if monomial_degree(m) == degree)


def is_admissible(mono):
    """Sq^{i1}...Sq^{ik} with each index at least twice the next."""
    return all(mono[t] >= 2 * mono[t + 1] for t in range(len(mono) - 1))


def random_polynomial(rng, ring, max_degree=10, max_terms=3):
    out = ring.zero()
    for _ in range(rng.randint(1, max_terms)):
        mono = ring.one()
        budget = rng.randint(2, max_degree)
        while budget >= 2:
            i = rng.randint(2, budget)
            mono = mono * ring.w(i)
            budget -= i
        out = out + mono
    return out


class TestGeneratorAction:
    def test_sq1_w2(self):
        assert sq(1, RING.w(2)) == RING.w(3)

    def test_top_square(self):
        assert sq(2, RING.w(2)) == w(2, 2)
        assert sq(4, RING.w(4)) == w(4, 4)

    def test_above_degree_vanishes(self):
        assert sq(3, RING.w(2)).is_zero()
        assert sq(5, RING.w(4)).is_zero()

    def test_sq0_identity(self):
        p = w(2, 3) + RING.w(7)
        assert sq(0, p) == p

    def test_sq1_w4(self):
        assert sq(1, RING.w(4)) == RING.w(5)

    def test_sq3_w4_adem_consistency(self):
        # Sq3 = Sq1 Sq2 on anything of degree >= 3
        assert sq(3, RING.w(4)) == sq(1, sq(2, RING.w(4)))
        assert sq(3, RING.w(4)) == w(2, 5) + w(3, 4) + RING.w(7)

    def test_binom2_generalized(self):
        assert binom2(-1, 1) == 1
        assert binom2(-2, 1) == 0
        assert binom2(-1, 3) == 1
        assert binom2(3, 5) == 0
        assert binom2(4, 2) == 0

    def test_binom2_against_comb(self):
        # rows a >= 0 by math.comb; rows a < 0 by Pascal's rule run downward
        # from binom(0, t) = [t == 0]: binom(a, t) = binom(a + 1, t) - binom(a, t - 1)
        ts = range(-3, 300)
        row = {t: int(t == 0) for t in ts}
        for a in range(-1, -301, -1):
            below = {}
            for t in ts:
                below[t] = 1 if t == 0 else 0 if t < 0 else (row[t] + below[t - 1]) % 2
            row = below
            assert [binom2(a, t) for t in ts] == [row[t] for t in ts], a
        for a in range(300):
            assert [binom2(a, t) for t in ts] == [comb(a, t) % 2 if t >= 0 else 0 for t in ts], a


class TestCartan:
    def test_cartan_formula_randomized(self):
        rng = random.Random(1234)
        for _ in range(40):
            p = random_polynomial(rng, RING, max_degree=8)
            q = random_polynomial(rng, RING, max_degree=8)
            for k in range(0, 9):
                lhs = sq(k, p * q)
                rhs = RING.zero()
                for i in range(0, k + 1):
                    rhs = rhs + sq(i, p) * sq(k - i, q)
                assert lhs == rhs

    def test_unstable_axioms_randomized(self):
        rng = random.Random(99)
        for _ in range(30):
            p = random_polynomial(rng, RING, max_degree=10, max_terms=1)
            d = p.degree()
            if d < 0:
                continue
            assert sq(d, p) == p * p
            assert sq(d + 1, p).is_zero()
            assert sq(d + 3, p).is_zero()


@lru_cache(maxsize=None)
def wu_reference(i, j):
    """Sq^i(w_j) for i <= j from Wu's formula as printed in Milnor-Stasheff
    §8, sum_t binom(j - i + t - 1, t) w_{i-t} w_{j+t}, binomials by sympy."""
    total = RING.zero()
    for t in range(i + 1):
        if sympy.binomial(j - i + t - 1, t) % 2:
            total = total + RING.w(i - t) * RING.w(j + t)
    return total


def graded_product(a, b):
    """Product of two lists of graded parts, truncated to the shorter one."""
    top = min(len(a), len(b))
    out = [RING.zero()] * top
    for d, x in enumerate(a[:top]):
        if not x.is_zero():
            for c, y in enumerate(b[:top - d]):
                out[d + c] = out[d + c] + x * y
    return out


def total_square_of_generator(j, top):
    """Graded parts 0..top of Sq(w_j)."""
    return [wu_reference(a, j) if a <= j else RING.zero() for a in range(top + 1)]


def frobenius(p, m):
    """p^(2^m), by doubling exponents m times."""
    return RING.from_monomials(tuple((g, e << m) for g, e in mono) for mono in p.terms)


def total_square_of_power(j, e, top):
    """Graded parts 0..top of Sq(w_j^e): the product over the binary digits
    2^m of e of Sq(w_j)^(2^m), whose degree-(a 2^m) part is the m-fold
    Frobenius of Sq^a(w_j)."""
    reference = [RING.one()] + [RING.zero()] * top
    for m in range(e.bit_length()):
        if e >> m & 1:
            factor = [RING.zero()] * (top + 1)
            for a, part in enumerate(total_square_of_generator(j, top >> m)):
                factor[a << m] = frobenius(part, m)
            reference = graded_product(reference, factor)
    return reference


class TestCartanReference:
    def test_monomials_against_unit_expansion(self):
        # the Cartan rule applied one generator factor at a time
        rng = random.Random(2024)
        for _ in range(20):
            gens = rng.sample(range(2, 9), rng.randint(1, 4))
            exps = {j: rng.randint(1, 12) for j in gens}
            top = rng.randint(1, 20)
            mono = RING.from_monomials([tuple(sorted(exps.items()))])
            reference = [RING.one()] + [RING.zero()] * top
            for j, e in exps.items():
                for _ in range(e):
                    reference = graded_product(reference, total_square_of_generator(j, top))
            for k in range(top + 1):
                assert sq(k, mono) == reference[k], (k, mono)

    def test_frobenius_identities(self):
        rng = random.Random(77)
        for _ in range(25):
            x = random_polynomial(rng, RING, max_degree=9)
            for i in range(x.degree() + 2):
                assert sq(2 * i, x * x) == sq(i, x) * sq(i, x)
                assert sq(2 * i + 1, x * x).is_zero()

    @pytest.mark.parametrize("j", [2, 3, 7])
    @pytest.mark.parametrize("e", [2000, 2047, 3001, 4095, 4096])
    def test_large_powers(self, j, e):
        reference = total_square_of_power(j, e, 20)
        power = RING.w(j) ** e
        for k in (1, 2, 3, 4, 8, 13, 16, 20):
            assert sq(k, power) == reference[k], (j, e, k)

    @pytest.mark.parametrize("e", [127, 128, 255, 256, 511])
    def test_exponents_at_the_field_width_edges(self, e):
        # the packed kernels size each exponent field from a bound on the
        # exponents a call reaches; w2^e * w3 reaches w2^(e + k/2)
        top = 20
        reference = graded_product(total_square_of_power(2, e, top),
                                   total_square_of_generator(3, top))
        x = RING.w(2) ** e * RING.w(3)
        for k in range(top + 1):
            assert sq(k, x) == reference[k], (e, k)

    def test_two_large_generators(self):
        # far past the packed layouts' base block: the codes must stay
        # small (an index-based layout would need gigabytes here)
        a, b, k = 30000, 40000, 120
        x = RING.w(a) * RING.w(b)
        tracemalloc.start()
        try:
            got = sq(k, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        expected = RING.zero()
        for i in range(k + 1):
            expected = expected + wu_reference(i, a) * wu_reference(k - i, b)
        assert got == expected
        assert peak < 16 * 2**20

    def test_squares_of_a_power_of_two(self):
        x = RING.w(2) ** 4096
        assert sq(1, RING.w(2) ** 2000).is_zero()
        assert sq(16, x).is_zero()
        assert sq(4096, x) == RING.w(3) ** 4096
        assert sq(8192, x) == x * x
        assert sq(8193, x).is_zero()


monomial_lists = st.lists(st.lists(st.integers(2, 8), min_size=0, max_size=3),
                          min_size=1, max_size=3)


def poly_from_lists(lists):
    return sum((w(*factors) for factors in lists), RING.zero())


class TestPower:
    def test_square_and_multiply_matches_repeated_products(self):
        rng = random.Random(31)
        for _ in range(12):
            p = random_polynomial(rng, RING, max_degree=8)
            product = RING.one()
            for e in range(41):
                assert p ** e == product, (p, e)
                product = product * p

    def test_huge_power_of_a_generator(self):
        assert (RING.w(2) ** 10**6).terms == frozenset({((2, 10**6),)})
        assert str(RING.w(2) ** 10**6) == "w2^1000000"


# generator indices on both sides of the packed layouts' base block, so
# that p, q and p*q get different layouts
layout_lists = st.lists(
    st.lists(st.one_of(st.integers(2, 12),
                       st.integers(BASE_INDEX - 10, BASE_INDEX + 10)),
             min_size=0, max_size=2),
    min_size=1, max_size=2)


class TestCartanProperty:
    @settings(max_examples=40, deadline=2000, derandomize=True, database=None)
    @given(monomial_lists, monomial_lists, st.integers(0, 12))
    def test_cartan(self, p_lists, q_lists, k):
        p, q = poly_from_lists(p_lists), poly_from_lists(q_lists)
        rhs = RING.zero()
        for i in range(k + 1):
            rhs = rhs + sq(i, p) * sq(k - i, q)
        assert sq(k, p * q) == rhs

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(layout_lists, layout_lists, st.integers(0, 20))
    def test_cartan_across_layouts(self, p_lists, q_lists, k):
        p, q = poly_from_lists(p_lists), poly_from_lists(q_lists)
        rhs = RING.zero()
        for i in range(k + 1):
            rhs = rhs + sq(i, p) * sq(k - i, q)
        assert sq(k, p * q) == rhs


def is_canonical(mono):
    """Each generator w_i, i >= 2, listed once, by increasing index, with
    an exponent of at least 1."""
    return (all(i >= 2 and e >= 1 for i, e in mono)
            and all(a[0] < b[0] for a, b in zip(mono, mono[1:])))


def canonical(p):
    return all(map(is_canonical, p.terms))


def solve_membership(p, ideal):
    """An independent oracle for ideal_membership: the products of p's
    slice, (multiplier, generator number) pairs, whose sum is p, or None
    when p is not in the ideal.

    Gaussian elimination on the products as sets of monomials, each tagged
    with the products it sums, pivoting on its largest monomial; the
    solution is replayed with F2Polynomial products."""
    if p.is_zero():
        return ()
    products = ideal.slice(p.degree()).products
    basis = {}  # largest monomial -> (monomials, product numbers)

    def reduce(terms, tags):
        # a basis entry has no monomial above its pivot, so clearing the
        # pivots from the top down sets none back
        for lead in sorted(basis, reverse=True):
            if lead in terms:
                terms, tags = terms ^ basis[lead][0], tags ^ basis[lead][1]
        return terms, tags

    for i, (mult, gnum) in enumerate(products):
        terms, tags = reduce((RING.from_monomials([mult]) * ideal.generators[gnum]).terms,
                             frozenset({i}))
        if terms:
            basis[max(terms)] = (terms, tags)
    terms, tags = reduce(p.terms, frozenset())
    if terms:
        return None
    combination = tuple(products[i] for i in sorted(tags))
    replay = sum((RING.from_monomials([mult]) * ideal.generators[gnum]
                  for mult, gnum in combination), RING.zero())
    assert replay == p
    return combination


# polynomial texts with factors w<i>^e and v<k>^e, exponent 0 included
factor_texts = st.builds("{}{}^{}".format, st.sampled_from("wv"), st.integers(0, 10),
                         st.integers(0, 3))
poly_texts = st.lists(st.lists(factor_texts, min_size=1, max_size=3).map("*".join),
                      min_size=1, max_size=3).map("+".join)


class TestCanonicalMonomials:
    # F2Polynomial.__str__ prints each monomial's generators in stored order
    @settings(max_examples=60, deadline=None, database=None)
    @seed(20)
    @given(poly_texts, poly_texts, st.integers(0, 5), st.integers(0, 12),
           st.integers(0, 16))
    def test_every_operation_keeps_monomials_canonical(self, a, b, e, k, top):
        p, q = parse_polynomial(a), parse_polynomial(b)
        assert canonical(p) and canonical(q)
        assert canonical(p * q)
        assert canonical(p ** e)
        assert canonical(sq(k, p * q))
        assert all(map(canonical, wu_classes(top)))
        ideal = GradedIdeal([graded_part(q, d) for d in range(top + 1)], 24)
        for d in range(top + 1):
            assert all(map(is_canonical, ideal.slice(d).monomials))
            # the degree-d part of p * q lies in the ideal of q's parts,
            # a sum of products with canonical multipliers
            part = graded_part(p * q, d)
            assert ideal_membership(part, ideal)
            assert solve_membership(part, ideal) is not None
            assert all(is_canonical(mult) for mult, _ in ideal.slice(d).products)


def cartan_bound(k, p):
    return sum(steenrod._cartan_terms(k, mono) for mono in p.terms)


@pytest.fixture
def uncapped_bound(monkeypatch):
    """The Cartan bound without its cap; the count caches hold capped
    values, so they are emptied on both sides."""
    caches = (steenrod._cartan_terms, steenrod._power_terms)
    for cache in caches:
        cache.cache_clear()
    monkeypatch.setattr(steenrod, "MAX_CARTAN_TERMS", 10 ** 30)
    yield
    for cache in caches:
        cache.cache_clear()


class TestCartanBound:
    def test_count_disjoint_against_enumeration(self):
        for n in range(70):
            for mask in range(70):
                expected = sum(1 for t in range(n + 1) if t & mask == 0)
                assert steenrod._count_disjoint(n, mask) == expected, (n, mask)

    def test_generator_count_is_the_length_of_wu_formula(self):
        # Wu's formula never cancels: distinct t give distinct products
        for j in range(2, 41):
            for i in range(j + 3):
                expected = len(wu_reference(i, j).terms) if i <= j else 0
                assert steenrod._power_terms(j, 1, i) == expected, (i, j)

    def test_bound_covers_the_output(self):
        rng = random.Random(77)
        for _ in range(60):
            p = random_polynomial(rng, RING, max_degree=14)
            p = p * p if rng.random() < 0.3 else p
            for k in range(0, 16):
                assert cartan_bound(k, p) >= len(sq(k, p).terms), (k, p)

    def test_bound_recurses_no_deeper_than_the_expansion(self):
        # one frame per generator, like _sq_code: 399 distinct generators
        p = w(*range(2, 401))
        assert cartan_bound(1, p) >= len(sq(1, p).terms) > 0

    def test_large_generators_count_without_a_loop_over_t(self):
        assert cartan_bound(20000, RING.w(40000)) == 64

    @pytest.mark.parametrize("k, text, bound", [
        (8, "v40*v2", 731_800),
        (64, "w200*w300*w500", 305_469),
        (16, "v40*v2", 15_906_444),
        (40, "w2*w3*w4*w5*w6*w7*w8*w9*w10*w11*w12", 93_765_599_603),
    ])
    def test_pinned_bounds(self, uncapped_bound, k, text, bound):
        assert cartan_bound(k, parse_polynomial(text)) == bound

    def test_capped_count_saturates(self):
        p = parse_polynomial("w2*w3*w4*w5*w6*w7*w8*w9*w10*w11*w12")
        assert cartan_bound(40, p) == steenrod.MAX_CARTAN_TERMS + 1

    @pytest.mark.parametrize("k, text", [
        (40, "w2*w3*w4*w5*w6*w7*w8*w9*w10*w11*w12"),
        (16, "v40*v2"),
    ])
    def test_sq_over_the_cap_is_an_error(self, k, text):
        p = parse_polynomial(text)
        with pytest.raises(ValueError, match=f"Cartan expansion of Sq\\^{k} may form "
                                             "more than 1000000 products"):
            sq(k, p)


def bench_oracles():
    """bench/oracles.py, whose total-square Steenrod action on bit-packed
    monomials shares no code with spinhalg.steenrod."""
    path = Path(__file__).resolve().parents[1] / "bench" / "oracles.py"
    spec = importlib.util.spec_from_file_location("bench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestWuClasses:
    def test_total_identity_by_the_bench_oracle(self):
        # Sq(v) = w through degree 28, on the printed classes
        oracles = bench_oracles()
        top = 28
        classes = [oracles.parse_poly(str(v)) for v in wu_classes(top)]
        for n in range(top + 1):
            total = set()
            for i in range(n + 1):
                total ^= oracles.sq_poly(i, classes[n - i])
            w_n = oracles._w(n)
            assert total == (set() if w_n is None else {w_n}), f"degree {n}"

    def test_low_values(self):
        nu = wu_classes(8)
        assert nu[0] == RING.one()
        assert nu[1].is_zero()
        assert nu[2] == RING.w(2)
        assert nu[3].is_zero()
        assert nu[4] == RING.w(4) + w(2, 2)

    def test_sq1_nu4_is_w5(self):
        nu = wu_classes(4)
        assert sq(1, nu[4]) == RING.w(5)

    def test_total_identity(self):
        # Sq(v) = w through degree 16, with Sq the sum of Sq^0..Sq^top
        top = 16
        nu = wu_classes(top)
        total = RING.zero()
        for k in range(0, top + 1):
            for i in range(0, top + 1):
                total = total + sq(i, nu[k])
        for d in range(0, top + 1):
            assert graded_part(total, d) == RING.w(d), f"degree {d}"

    def test_odd_equations_hold(self):
        # the solve skips odd k, so each odd equation of Sq(v) = w is checked
        # on the returned classes through the public sq, degree 31 included
        top = 31
        nu = wu_classes(top)
        for k in range(1, top + 1, 2):
            total = RING.w(k)
            for i in range(1, k):
                total = total + sq(i, nu[k - i])
            assert (str(total), str(nu[k])) == ("0", "0"), f"degree {k}"


class TestAdem:
    def test_sq1sq1(self):
        assert adem_reduce((1, 1)) == frozenset()

    def test_sq2sq3(self):
        assert adem_reduce((2, 3)) == frozenset({(5,), (4, 1)})

    def test_sq2sq7(self):
        # standard Adem: Sq2 Sq7 = Sq9 + Sq8 Sq1 (binom(6,2) = 15 is odd)
        assert adem_reduce((2, 7)) == frozenset({(9,), (8, 1)})

    def test_admissible_fixed(self):
        assert adem_reduce((4, 2, 1)) == frozenset({(4, 2, 1)})
        assert is_admissible((4, 2, 1))
        assert not is_admissible((2, 3))

    def test_reduction_is_admissible(self):
        for a in range(1, 9):
            for b in range(1, 9):
                for mono in adem_reduce((a, b)):
                    assert is_admissible(mono)

    def test_soundness_battery(self):
        # both sides agree as operations on all monomials through degree 10
        monomials = []
        for d in range(2, 11):
            monomials.extend(RING.monomial_basis(d))
        polys = [RING.from_monomials([m]) for m in monomials]
        for a in range(1, 8):
            for b in range(1, 8):
                if a >= 2 * b or a + b > 12:
                    continue
                reduced = adem_reduce((a, b))
                for p in polys:
                    assert apply_monomial((a, b), p) == apply_operation(reduced, p)


class TestAdemProperty:
    @settings(max_examples=60, deadline=4000, derandomize=True, database=None)
    @given(st.lists(st.integers(1, 8), min_size=2, max_size=3), monomial_lists)
    def test_adem_reduce_acts_as_the_squares(self, mono, p_lists):
        p, mono = poly_from_lists(p_lists), tuple(mono)
        assert apply_monomial(mono, p) == apply_operation(adem_reduce(mono), p)


class TestChi:
    def test_chi_sq1(self):
        assert chi_sq(1) == frozenset({(1,)})

    def test_chi_sq3(self):
        assert chi_sq(3) == frozenset({(2, 1)})

    def test_chi_sq7(self):
        assert chi_sq(7) == frozenset({(4, 2, 1)})

    def test_chi_inverts_total_square(self):
        # sum_{i+j=n} Sq^i chi(Sq^j) = 0 as operations, checked on classes
        rng = random.Random(5)
        polys = [random_polynomial(rng, RING, max_degree=6) for _ in range(5)]
        for n in range(1, 7):
            for p in polys:
                total = RING.zero()
                for i in range(0, n + 1):
                    total = total + sq(i, apply_operation(chi_sq(n - i), p))
                assert total.is_zero()


def row_space(rows):
    """Every F2 sum of the rows, enumerated."""
    space = {0}
    for row in rows:
        space |= {v ^ row for v in space}
    return space


class TestF2Elimination:
    def test_against_the_enumerated_row_space(self):
        # _echelon keeps rank-many rows, and _reduce_row clears every pivot
        # column, removing a sum of the rows
        rng = random.Random(12)
        for case in range(300):
            width, count = rng.randint(1, 16), rng.randint(0, 12)
            raw = [rng.getrandbits(width) for _ in range(count)]
            rows, pivots = _echelon(raw)
            space = row_space(raw)
            assert 1 << len(rows) == len(space), case
            v = rng.getrandbits(width)
            reduced = _reduce_row(v, rows, pivots)
            assert not any(reduced >> b & 1 for b in pivots), case
            assert v ^ reduced in space, case


class TestIdeals:
    # solve_membership, an elimination of its own that replays what it
    # solves, checks the answers of the first three tests and the battery
    def test_w5_membership(self):
        nu = wu_classes(4)
        ideal = GradedIdeal([sq(1, nu[4])], 24)
        assert ideal_membership(RING.w(5), ideal)
        # the generator itself: unit multiplier against generator 0
        assert solve_membership(RING.w(5), ideal) == (((), 0),)

    def test_w2_not_member(self):
        nu = wu_classes(4)
        ideal = GradedIdeal([sq(1, nu[4])], 24)
        assert not ideal_membership(RING.w(2), ideal)
        assert solve_membership(RING.w(2), ideal) is None

    def test_w9_certificate(self):
        model = bso_quotient_model("spinh", 12)
        target = RING.w(9) + w(2, 7) + w(3, 6)
        assert ideal_membership(target, model.ideal)
        assert solve_membership(target, model.ideal) is not None

    def test_sq1_nu8_leading_term(self):
        # Sq1 v8 = w9 + decomposables, and both relation generators sit
        # inside the ideal they generate
        nu = wu_classes(8)
        relation = sq(1, nu[8])
        assert ((9, 1),) in relation.terms  # the singleton monomial w9
        decomposables = relation + RING.w(9)
        assert all(len(m) > 1 or m[0][1] > 1 for m in decomposables.terms)
        model = bso_quotient_model("spinh", 12)
        assert ideal_membership(relation, model.ideal)
        assert ideal_membership(sq(1, nu[4]), model.ideal)

    def test_degree_cap(self):
        ideal = GradedIdeal([RING.w(2)], degree_cap=6)
        with pytest.raises(DegreeCapExceeded):
            ideal.slice(7)

    def test_inhomogeneous_generator_rejected(self):
        with pytest.raises(ValueError):
            GradedIdeal([RING.w(2) + RING.w(3)], 24)

    def test_inhomogeneous_polynomial_rejected(self):
        # the check is what lets a slice index every monomial of p
        ideal = GradedIdeal([RING.w(2)], 24)
        with pytest.raises(ValueError, match="^membership test expects a homogeneous polynomial$"):
            ideal_membership(RING.w(2) + w(2, 2), ideal)

    def test_membership_battery(self):
        # on random homogeneous p up to degree 14: adding m*g for a monomial
        # m and a relation generator g keeps p's membership, and m*g itself
        # is a member
        ideal = bso_quotient_model("spinh", 14).ideal
        rng = random.Random(6)
        added = members = 0
        for _ in range(80):
            degree = rng.randint(2, 14)
            basis = RING.monomial_basis(degree)
            p = RING.from_monomials(rng.sample(basis, rng.randint(1, min(4, len(basis)))))
            member = ideal_membership(p, ideal)
            assert member == (solve_membership(p, ideal) is not None)
            members += member
            gens = [g for g in ideal.generators
                    if RING.monomial_basis(degree - g.degree())]
            if gens:
                g = rng.choice(gens)
                product = RING.from_monomials([rng.choice(RING.monomial_basis(degree - g.degree()))]) * g
                assert ideal_membership(product, ideal)
                assert ideal_membership(p + product, ideal) == member
                added += 1
        assert added >= 40 and 0 < members < 80


SPINH_SERIES_20 = [1, 0, 1, 1, 2, 1, 4, 3, 6, 5, 10, 9, 16, 15, 25, 25, 38, 38, 58, 60, 85]


class TestQuotientSeries:
    def test_spinh_matches_free_subalgebra(self):
        model = bso_quotient_model("spinh", 20)
        series = model.poincare_series()
        assert series == model.free_series()
        assert series == SPINH_SERIES_20

    def test_low_degrees(self):
        # degree 5 drops to 1: the quotient kills w5, leaving only w2*w3
        model = bso_quotient_model("spinh", 6)
        assert model.poincare_series()[:6] == [1, 0, 1, 1, 2, 1]

    @pytest.mark.parametrize("kind", ["spin", "spinc"])
    def test_remark_quotients(self, kind):
        model = bso_quotient_model(kind, 16)
        assert model.poincare_series() == model.free_series()

    def test_spin_low_degrees(self):
        # classical: 1, 0, 0, 0, w4, 0, w6, w7, ...
        model = bso_quotient_model("spin", 8)
        assert model.poincare_series() == [1, 0, 0, 0, 1, 0, 1, 1, 2]

    def test_free_series_with_repeats(self):
        assert free_subalgebra_series([2, 2], 4) == [1, 0, 2, 0, 3]

    @pytest.mark.parametrize("degrees", [[], [2]])
    def test_free_series_of_negative_degree_is_an_error(self, degrees):
        with pytest.raises(ValueError, match="^max_degree must be nonnegative$"):
            free_subalgebra_series(degrees, -1)

    @pytest.mark.parametrize("kind", ["spin", "spinc", "spinh"])
    @pytest.mark.parametrize("max_degree", [0, 1])
    def test_smallest_windows(self, kind, max_degree):
        # nothing of positive degree below 2 survives; v2 = w2 meets the
        # window of spin once max_degree + 1 reaches its degree
        model = bso_quotient_model(kind, max_degree)
        expected = [1, 0][:max_degree + 1]
        assert model.poincare_series() == model.free_series() == expected
        assert sq1_homology_series(model) == sq1_homology_oracle(model) == expected
        spin_v2 = kind == "spin" and max_degree == 1
        assert [str(g) for g in model.ideal.generators] == (["w2"] if spin_v2 else [])

    @pytest.mark.parametrize("kind", ["spin", "spinc", "spinh"])
    def test_dimension_is_basis_size_less_ideal_rank(self, kind):
        # the series reads each slice's width; the ambient basis itself is
        # the oracle
        model = bso_quotient_model(kind, 16)
        expected = [len(StiefelWhitneyRing.monomial_basis(k)) - len(model.ideal.slice(k).rows)
                    for k in range(17)]
        assert model.poincare_series() == expected

    @pytest.mark.parametrize("kind", ["spin", "spinc", "spinh"])
    def test_negative_degree_is_an_error(self, kind):
        with pytest.raises(ValueError, match="^max_degree must be nonnegative$"):
            bso_quotient_model(kind, -1)

    def test_unknown_kind_is_refused_before_any_solve(self, monkeypatch):
        def no_solve(max_degree):
            raise AssertionError("wu_classes called for an unknown kind")

        monkeypatch.setattr(steenrod, "wu_classes", no_solve)
        with pytest.raises(ValueError, match="^kind must be spinh, spin or spinc$"):
            bso_quotient_model("spinx", 8)


class TestBeyondTheModel:
    # the relation list is complete through max_degree + 1, the ideal's
    # cap, so degrees past it are refused rather than answered
    def test_membership_above_the_cap_is_refused(self):
        model = bso_quotient_model("spinh", 10)
        relation = sq(1, wu_classes(8)[8])
        assert ideal_membership(RING.w(2) * relation, model.ideal)
        with pytest.raises(DegreeCapExceeded, match="^degree 12 exceeds cap 11$"):
            ideal_membership(RING.w(3) * relation, model.ideal)

    def test_sq1_homology_past_the_model_is_refused(self):
        # the series reads its degree from the model, whose ideal refuses
        # the slice that Sq1 homology one degree higher would need
        model = bso_quotient_model("spinh", 10)
        series = sq1_homology_series(model)
        assert len(series) == 11 and series == sq1_homology_oracle(model)
        with pytest.raises(DegreeCapExceeded, match="^degree 12 exceeds cap 11$"):
            model.ideal.slice(12)


class TestSq1Formula:
    def test_images_match_the_engine(self):
        # every basis monomial through degree 24
        for d in range(25):
            for mono in RING.monomial_basis(d):
                expected = sq(1, RING.from_monomials([mono])).terms
                assert sorted(_sq1_monomial(mono)) == sorted(expected), mono


class TestQuotientGenerators:
    @pytest.mark.parametrize("kind", ["spin", "spinc", "spinh"])
    @pytest.mark.parametrize("max_degree", [0, 1, 2, 3, 4, 5, 8, 9, 16, 17, 32, 33])
    def test_match_the_solve_through_the_window(self, kind, max_degree):
        # the model solves only up to the highest class a relation reads;
        # its relations equal those read off the solve through max_degree + 1
        top = max_degree + 1
        nu = wu_classes(top)
        expected = []
        if kind == "spin" and top >= 2:
            expected.append(nu[2])
        if kind in ("spin", "spinc") and top >= 3:
            expected.append(sq(1, nu[2]))
        expected += [sq(1, nu[p]) for p in (4, 8, 16, 32) if p + 1 <= top]
        assert bso_quotient_model(kind, max_degree).ideal.generators == expected


class TestSq1Homology:
    def test_matches_polynomial_oracle(self):
        model = bso_quotient_model("spinh", 16)
        assert sq1_homology_series(model) == sq1_homology_oracle(model)

    # the oracle reads the kind's rational generators and no relation, so
    # a relation missing from the table, or a rational generator in the
    # wrong degree or missing, fails here
    @pytest.mark.parametrize("kind, max_degree", [("spin", 24), ("spinc", 24),
                                                  ("spinh", 32)])
    def test_every_kind_matches_its_rational_cohomology(self, kind, max_degree):
        model = bso_quotient_model(kind, max_degree)
        assert sq1_homology_series(model) == sq1_homology_oracle(model)

    @pytest.mark.parametrize("kind, expected", [
        ("spin", [1, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 3]),
        ("spinc", [1, 0, 1, 0, 2, 0, 2, 0, 4, 0, 4, 0, 7]),
        ("spinh", [1, 0, 0, 0, 2, 0, 0, 0, 4, 0, 0, 0, 7]),
    ])
    def test_oracle_is_the_rational_poincare_series(self, kind, expected):
        # Q[p1, p2, p3], with c1 (degree 2) for spin^c and p1' (degree 4)
        # for spin^h; built with a placeholder ideal, which it never reads
        model = steenrod.QuotientModel(kind, 12, None)
        assert sq1_homology_oracle(model) == expected

    def test_frozen_values(self):
        model = bso_quotient_model("spinh", 8)
        assert sq1_homology_series(model) == [1, 0, 0, 0, 2, 0, 0, 0, 4]

    def test_odd_degrees_vanish(self):
        for kind in ("spin", "spinc", "spinh"):
            model = bso_quotient_model(kind, 9)
            assert all(v == 0 for v in sq1_homology_series(model)[1::2]), kind


class TestMonicity:
    def test_monicity_battery(self):
        cls = RING.w(2)
        images = {
            0: cls,
            1: sq(1, cls),
            2: sq(2, sq(1, cls)),
            3: sq(4, sq(2, sq(1, cls))),
        }
        assert images[1] == RING.w(3)

        def contains_generator(p, idx):
            return ((idx, 1),) in p.terms

        # leading terms w5 and w9 in degrees 5 and 9
        assert contains_generator(images[2], 5)
        assert contains_generator(images[3], 9)
        # distinct leading monomials in distinct degrees: independence
        degrees = {p.degree() for p in images.values()}
        assert degrees == {2, 3, 5, 9}


def reference_basis(degree):
    """The plain recursive enumeration, without memoisation: generators in
    index order, highest exponent first."""
    gens = range(2, degree + 1)

    def build(remaining, pos):
        if remaining == 0:
            return [[]]
        if pos >= len(gens):
            return []
        out = []
        for e in range(remaining // gens[pos], -1, -1):
            for tail in build(remaining - e * gens[pos], pos + 1):
                out.append(([(gens[pos], e)] if e else []) + tail)
        return out

    return [tuple(m) for m in build(degree, 0)] if degree >= 0 else []


class TestMonomialBasis:
    def test_size_is_partitions_into_parts_at_least_two(self):
        for d in range(41):
            assert len(RING.monomial_basis(d)) == sympy.partition(d) - sympy.partition(d - 1)

    def test_order_matches_plain_recursion(self):
        for d in range(-1, 19):
            assert RING.monomial_basis(d) == reference_basis(d)

    def test_returns_a_fresh_list(self):
        first = RING.monomial_basis(12)
        expected = list(first)
        first.reverse()
        first.append(UNIT)
        assert RING.monomial_basis(12) == expected
        assert RING.monomial_basis(12) is not RING.monomial_basis(12)


class TestNoRingArgument:
    # the ring carries no state: the Steenrod API takes none, and the
    # package calls the ring's methods on the class
    def test_wu_classes(self):
        assert wu_classes(4) == [RING.one(), RING.zero(), RING.w(2), RING.zero(),
                                 RING.w(4) + w(2, 2)]

    def test_parse_polynomial(self):
        assert parse_polynomial("v8*w2") == wu_classes(8)[8] * RING.w(2)

    def test_graded_ideal(self):
        ideal = GradedIdeal([RING.w(2)], degree_cap=6)
        # multiples of w2: one per monomial of degree d - 2
        assert [len(ideal.slice(d).rows) for d in range(7)] == [0, 0, 1, 0, 1, 1, 2]
        assert not hasattr(ideal, "ring")

    def test_methods_are_called_on_the_class(self, monkeypatch):
        # a plain function in place of the class attribute, as a tracer
        # installs it, receives no instance
        calls = []
        original = StiefelWhitneyRing.monomial_basis

        def counted(degree):
            calls.append(degree)
            return original(degree)

        monkeypatch.setattr(StiefelWhitneyRing, "monomial_basis", counted)
        model = bso_quotient_model("spinh", 12)
        assert model.poincare_series() == model.free_series()
        assert sq1_homology_series(model) == sq1_homology_oracle(model)
        assert sorted(set(calls)) == list(range(14))


class TestParser:
    def test_round_trip(self):
        p = parse_polynomial("w2*w4+w3^2")
        assert p == RING.w(2) * RING.w(4) + RING.w(3) ** 2

    def test_wu_generators(self):
        assert parse_polynomial("v4") == RING.w(4) + w(2, 2)

    def test_whitespace_and_unit(self):
        assert parse_polynomial(" 1 + w2 ") == RING.one() + RING.w(2)
        assert parse_polynomial("0").is_zero()
        assert parse_polynomial("w3*w2^0*w2^-0") == RING.w(3)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_polynomial("x2")
        with pytest.raises(ValueError):
            parse_polynomial("")

    def test_wu_factor_at_the_degree_cap(self, monkeypatch):
        # v40 parses at the cap, and its one solve serves the later factor
        # v2; v41 is refused before any solve
        solves = []

        def counted(max_degree):
            solves.append(max_degree)
            return wu_classes(max_degree)

        monkeypatch.setattr(steenrod, "wu_classes", counted)
        p = parse_polynomial("v40*v2")
        assert solves == [40]
        assert p.is_homogeneous() and p.degree() == 42
        with pytest.raises(ValueError, match="v41 has degree 41, over the cap 40"):
            parse_polynomial("v41")
        assert solves == [40]

    def test_deterministic_str(self):
        p = parse_polynomial("w3^2+w2*w4")
        assert str(p) == "w2*w4+w3^2"
