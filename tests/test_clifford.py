import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinhalg import clifford
from spinhalg.clifford import (
    AlgebraDescriptor,
    CliffordElement,
    GradedTensorReport,
    Signature,
    SignatureMismatch,
    blade_degree,
    blade_from_indices,
    blade_indices,
    blade_product,
    classify,
    classify_indefinite,
    graded_tensor_check,
    volume_element,
    volume_square_sign,
)


def elem(sig, *index_lists, coeffs=None):
    out = CliffordElement.zero(sig)
    for k, idx in enumerate(index_lists):
        c = 1 if coeffs is None else coeffs[k]
        out = out + CliffordElement.blade(sig, idx, c)
    return out


def algebra_dimension(d):
    """Real dimension of the algebra K(N) or K(N)+K(N) that d names: N
    columns, each an irreducible module K^N."""
    return d.size * d.irreducible_real_dimension * (1 if d.simple else 2)


def random_element(rng, sig, max_terms=4):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        blade = rng.randrange(1 << sig.n)
        terms[blade] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
    return CliffordElement(sig, terms)


class TestBladeArithmetic:
    def test_generator_squares(self):
        sig = Signature(2, 0)
        e1 = CliffordElement.generator(sig, 1)
        assert e1 * e1 == CliffordElement(sig, {0: -1})

    def test_mixed_signature_squares(self):
        sig = Signature(1, 2)
        e1 = CliffordElement.generator(sig, 1)
        e2 = CliffordElement.generator(sig, 2)
        e3 = CliffordElement.generator(sig, 3)
        assert e1 * e1 == CliffordElement(sig, {0: -1})
        assert e2 * e2 == CliffordElement(sig, {0: 1})
        assert e3 * e3 == CliffordElement(sig, {0: 1})

    def test_bivector_square(self):
        # e1e2e1e2 = -e1e1e2e2 = -(-1)(-1) = -1 in Cl(2,0)
        sig = Signature(2, 0)
        b = CliffordElement.blade(sig, [1, 2])
        assert b * b == CliffordElement(sig, {0: -1})

    def test_anticommutation(self):
        sig = Signature(3, 2)
        for i in range(1, 6):
            for j in range(1, 6):
                if i == j:
                    continue
                ei = CliffordElement.generator(sig, i)
                ej = CliffordElement.generator(sig, j)
                assert (ei * ej + ej * ei).is_zero()

    def test_signature_mismatch_rejected(self):
        a = CliffordElement.generator(Signature(2, 0), 1)
        b = CliffordElement.generator(Signature(1, 1), 1)
        with pytest.raises(SignatureMismatch):
            a * b
        with pytest.raises(SignatureMismatch):
            a + b

    def test_associativity_randomized(self):
        rng = random.Random(20240811)
        for _ in range(200):
            r = rng.randint(0, 3)
            s = rng.randint(0, 3)
            sig = Signature(r, s)
            a, b, c = (random_element(rng, sig) for _ in range(3))
            assert (a * b) * c == a * (b * c)

    def test_grading_multiplicative(self):
        rng = random.Random(7)
        for _ in range(100):
            sig = Signature(rng.randint(0, 2), rng.randint(0, 2))
            if sig.n == 0:
                continue
            ka = rng.randint(0, sig.n)
            kb = rng.randint(0, sig.n)
            a = random_element(rng, sig).grade_part(ka)
            b = random_element(rng, sig).grade_part(kb)
            prod = a * b
            if prod.is_zero():
                continue
            assert prod.parity() == (ka + kb) % 2

    def test_blade_helpers(self):
        assert blade_from_indices([1, 3]) == 0b101
        assert blade_degree(0b1101) == 3
        with pytest.raises(ValueError):
            blade_from_indices([3, 1])


# Reference product: the shift-loop reorder sign and one Fraction product
# per blade pair, a path independent of the kernel's per-blade sign mask
# and integer numerators.

def shift_loop_sign(r, a, b):
    swaps = 0
    x = a >> 1
    while x:
        swaps += bin(x & b).count("1")
        x >>= 1
    if bin(a & b & ((1 << r) - 1)).count("1") & 1:
        swaps += 1
    return -1 if swaps & 1 else 1


def reference_product(x, y):
    out = {}
    for b1, c1 in x.terms.items():
        for b2, c2 in y.terms.items():
            sign = shift_loop_sign(x.signature.r, b1, b2)
            out[b1 ^ b2] = out.get(b1 ^ b2, Fraction(0)) + sign * c1 * c2
    return {b: c for b, c in out.items() if c}


def coefficients(rng, blades, kind):
    """'Z': nonzero integers; 'Z/2': odd halves; 'Q': denominators up to 12."""
    out = {}
    for b in blades:
        num = rng.choice([k for k in range(-9, 10) if k])
        if kind == "Z/2":
            out[b] = Fraction(2 * num + 1, 2)
        elif kind == "Q":
            out[b] = Fraction(num, rng.randint(1, 12))
        else:
            out[b] = num
    return out


KIND_PAIRS = [("Z", "Z"), ("Z", "Z/2"), ("Z/2", "Z"), ("Z/2", "Z/2"), ("Q", "Z/2")]


def assert_matches_reference(x, y):
    product = x * y
    assert product.terms == reference_product(x, y)
    assert all(type(c) is Fraction and c for c in product.terms.values())


class TestProductAgainstReference:
    @pytest.mark.parametrize("n", range(0, 8))
    def test_dense(self, n):
        rng = random.Random(1000 + n)
        for r in range(n + 1):
            ka, kb = KIND_PAIRS[r % len(KIND_PAIRS)]
            sig = Signature(r, n - r)
            x = CliffordElement(sig, coefficients(rng, range(1 << n), ka))
            y = CliffordElement(sig, coefficients(rng, range(1 << n), kb))
            assert_matches_reference(x, y)

    @pytest.mark.parametrize("n", range(9, 13))
    def test_sparse(self, n):
        rng = random.Random(2000 + n)
        for r in range(n + 1):
            sig = Signature(r, n - r)
            for ka, kb in KIND_PAIRS:
                x = CliffordElement(sig, coefficients(rng, rng.sample(range(1 << n), 24), ka))
                y = CliffordElement(sig, coefficients(rng, rng.sample(range(1 << n), 40), kb))
                assert_matches_reference(x, y)

    def test_cancelled_blades_are_dropped(self):
        sig = Signature(2, 0)
        e1, e2 = (CliffordElement.generator(sig, i) for i in (1, 2))
        # (e1 + e2)(e1 - e2) = -1 - 2 e1e2 + 1: the scalar cancels
        product = (e1 + e2) * (e1 - e2)
        assert product.terms == {0b11: Fraction(-2)}
        half = CliffordElement(sig, {0: Fraction(1, 2), 0b11: Fraction(1, 2)})
        # (1/2 + e12/2)(1/2 - e12/2) = 1/4 - e12^2/4 = 1/2
        assert (half * CliffordElement(sig, {0: Fraction(1, 2), 0b11: Fraction(-1, 2)})
                ).terms == {0: Fraction(1, 2)}

    def test_sign_matches_inversion_count(self):
        # every blade pair at n = 8 for every r; the sign of e_A e_B depends
        # only on (A, B, r), so this covers every signature with n <= 8
        n = 8
        indices = [blade_indices(b) for b in range(1 << n)]
        for a in range(1 << n):
            ia = indices[a]
            for b in range(1 << n):
                ib = indices[b]
                inversions = sum(1 for i in ia for j in ib if j < i)
                common = [i for i in ia if i in ib]
                for r in range(n + 1):
                    negative = sum(1 for i in common if i <= r)
                    sign = -1 if (inversions + negative) & 1 else 1
                    assert blade_product(Signature(r, n - r), a, b) == (sign, a ^ b)

    @settings(max_examples=80, deadline=2000, derandomize=True, database=None)
    @given(st.data())
    def test_associativity_property(self, data):
        n = data.draw(st.integers(0, 6))
        r = data.draw(st.integers(0, n))
        sig = Signature(r, n - r)
        coeff = st.one_of(
            st.integers(-9, 9),
            st.fractions(min_value=-9, max_value=9, max_denominator=12))
        element = st.dictionaries(st.integers(0, (1 << n) - 1), coeff, max_size=10)
        x, y, z = (CliffordElement(sig, data.draw(element)) for _ in range(3))
        assert (x * y) * z == x * (y * z)


def assert_reduced(x):
    """The stored form: a positive denominator, nonzero integer
    numerators, and gcd 1 across them all."""
    den, nums = x._den, x._nums
    assert type(den) is int and den > 0
    assert all(type(n) is int and n for n in nums.values())
    assert gcd(den, *nums.values()) == 1


class TestStoredNumerators:
    """An element keeps one denominator and integer numerators in lowest
    terms, so equal values store equal data whatever built them."""

    def test_every_operation_leaves_lowest_terms(self):
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randint(0, 5)
            r = rng.randint(0, n)
            sig = Signature(r, n - r)
            x, y = random_element(rng, sig, 6), random_element(rng, sig, 6)
            results = [x, y, x * y, x + y, x - y, x - x, x.scale(0), x.scale(Fraction(4, 6)),
                       x.transpose(), -x, *(x.grade_part(k) for k in range(n + 1))]
            for z in results:
                assert_reduced(z)

    def test_cancellation_reduces_the_denominator(self):
        sig = Signature(0, 1)
        x = CliffordElement(sig, {0: Fraction(1, 2), 1: Fraction(1, 2)})
        y = CliffordElement(sig, {0: Fraction(1, 2), 1: Fraction(-1, 2)})
        one = CliffordElement(sig, {0: 1})
        # x + y = 1, and over R+R, (1 + e1)/2 is an idempotent
        for z, expected in ((x + y, one), (x * x, x), (x - x, CliffordElement.zero(sig)),
                            (x.grade_part(0) * 2, one), (x.scale(0), CliffordElement.zero(sig))):
            assert_reduced(z)
            assert z == expected and hash(z) == hash(expected)
            assert (z._den, z._nums) == (expected._den, expected._nums)

    def test_equal_values_from_different_paths(self):
        rng = random.Random(11)
        for _ in range(100):
            sig = Signature(rng.randint(0, 3), rng.randint(0, 3))
            x, y = random_element(rng, sig, 6), random_element(rng, sig, 6)
            two = CliffordElement(sig, {0: 2})
            paths = [
                (x + x, x.scale(2)),
                (x + x, two * x),
                (x.scale(Fraction(3, 9)).scale(3), x),
                ((x - y) + y, x),
                (x - y, x + (-y)),
                (x * y - x * y, CliffordElement.zero(sig)),
                (sum((x.grade_part(k) for k in range(sig.n + 1)),
                     CliffordElement.zero(sig)), x),
                ((x * y).transpose(), y.transpose() * x.transpose()),
                (CliffordElement(sig, {b: 2 * c for b, c in x.terms.items()}), x.scale(2)),
            ]
            for a, b in paths:
                assert a == b and hash(a) == hash(b) and repr(a) == repr(b)

    def test_terms_is_a_fresh_dict(self):
        sig = Signature(2, 1)
        x = CliffordElement(sig, {0: Fraction(1, 2), 0b11: 2, 0b101: Fraction(-3, 4)})
        before = (hash(x), repr(x), x.terms)
        view = x.terms
        assert view is not x.terms
        assert all(type(c) is Fraction for c in view.values())
        view[0] = Fraction(5)
        view[0b111] = 1
        del view[0b11]
        assert (hash(x), repr(x), x.terms) == before
        assert x == CliffordElement(sig, {0: Fraction(1, 2), 0b11: 2, 0b101: Fraction(-3, 4)})


class TestTranspose:
    def test_two_blade(self):
        sig = Signature(2, 0)
        b = CliffordElement.blade(sig, [1, 2])
        assert b.transpose() == -b

    def test_unit_fixed(self):
        sig = Signature(1, 1)
        one = CliffordElement(sig, {0: 1})
        assert one.transpose() == one

    def test_three_blade_brute_force(self):
        # (e1e2e3)^t = e3e2e1 computed by explicit multiplication
        sig = Signature(3, 0)
        e = [CliffordElement.generator(sig, i) for i in (1, 2, 3)]
        reversed_product = e[2] * e[1] * e[0]
        assert CliffordElement.blade(sig, [1, 2, 3]).transpose() == reversed_product
        assert reversed_product == -CliffordElement.blade(sig, [1, 2, 3])

    def test_anti_automorphism_randomized(self):
        rng = random.Random(99)
        for _ in range(150):
            sig = Signature(rng.randint(0, 3), rng.randint(0, 3))
            a = random_element(rng, sig)
            b = random_element(rng, sig)
            assert (a * b).transpose() == b.transpose() * a.transpose()
            assert a.transpose().transpose() == a


class TestVolumeElement:
    def test_omega4_squares_to_one(self):
        sig = Signature(4, 0)
        w = volume_element(sig)
        assert w * w == CliffordElement(sig, {0: 1})

    def test_signature_1_1(self):
        sig = Signature(1, 1)
        w = volume_element(sig)
        assert volume_square_sign(1, 1) == 1
        assert w * w == CliffordElement(sig, {0: 1})

    def test_omega3(self):
        sig = Signature(3, 0)
        w = volume_element(sig)
        assert volume_square_sign(3, 0) == 1
        assert w * w == CliffordElement(sig, {0: 1})

    @pytest.mark.parametrize("r", range(0, 8))
    @pytest.mark.parametrize("s", range(0, 8))
    def test_square_law_blades_vs_formula(self, r, s):
        if r + s == 0 or r + s > 10:
            return
        sig = Signature(r, s)
        w = volume_element(sig)
        expected = CliffordElement(sig, {0: volume_square_sign(r, s)})
        assert w * w == expected

    @pytest.mark.parametrize("n", range(1, 8))
    def test_centrality_law(self, n):
        # e w_n = (-1)^(n-1) w_n e for e in the generating space
        sig = Signature(n, 0)
        w = volume_element(sig)
        sign = 1 if (n - 1) % 2 == 0 else -1
        for i in range(1, n + 1):
            e = CliffordElement.generator(sig, i)
            assert e * w == (w * e).scale(sign)


# Table 1 of the classification, frozen entry by entry.
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

# Cl(0,n), generators squaring to +1
TABLE_NEG = ["R", "R+R", "R(2)", "C(2)", "H(2)", "H(2)+H(2)", "H(4)", "C(8)", "R(16)"]


class TestClassification:
    @pytest.mark.parametrize("key", sorted(TABLE1))
    def test_table_entries(self, key):
        n, variant = key
        assert str(classify(n, variant)) == TABLE1[key]

    @pytest.mark.parametrize("n", range(len(TABLE_NEG)))
    def test_negative_definite_entries(self, n):
        assert str(classify_indefinite(0, n)) == TABLE_NEG[n]

    def test_periodicity_example(self):
        # Cl_14 = Cl_6 (x) R(16) = R(128)
        assert str(classify(14, "Cl")) == "R(128)"

    def test_quaternionic_examples(self):
        assert str(classify(6, "Clh")) == "H(8)"
        assert str(classify(0, "CClh")) == "C(2)"

    @pytest.mark.parametrize("n", range(0, 33))
    def test_dimension_audit(self, n):
        assert algebra_dimension(classify(n, "Cl")) == 2 ** n
        assert algebra_dimension(classify(n, "CCl")) == 2 ** (n + 1)
        assert algebra_dimension(classify(n, "Clh")) == 2 ** (n + 2)
        assert algebra_dimension(classify(n, "CClh")) == 2 ** (n + 3)

    @pytest.mark.parametrize("n", range(0, 33))
    def test_morita_shift(self, n):
        # Cl_{n+4} = Cl^h_n (x) R(2): same field, double the matrix size
        shifted = classify(n + 4, "Cl")
        quat = classify(n, "Clh")
        assert shifted.field == quat.field
        assert shifted.simple == quat.simple
        assert shifted.size == 2 * quat.size

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            classify(-1, "Cl")
        with pytest.raises(ValueError):
            classify(3, "Spin")


class TestIndefiniteClassification:
    def test_spot_values(self):
        assert str(classify_indefinite(1, 1)) == "R(2)"
        assert str(classify_indefinite(5, 1)) == "H(4)"
        assert str(classify_indefinite(4, 0, quaternionic=True)) == "R(8)"

    @pytest.mark.parametrize("n", range(0, 12))
    def test_agrees_with_definite(self, n):
        assert classify_indefinite(n, 0) == classify(n, "Cl")
        assert classify_indefinite(n, 0, quaternionic=True) == classify(n, "Clh")

    @pytest.mark.parametrize("r", range(0, 9))
    @pytest.mark.parametrize("s", range(0, 9))
    def test_shift_laws(self, r, s):
        base = classify_indefinite(r, s)
        # (1,1)-shift: size doubles, field preserved
        shifted = classify_indefinite(r + 1, s + 1)
        assert (shifted.field, shifted.simple) == (base.field, base.simple)
        assert shifted.size == 2 * base.size
        # Cl(r+4,s) = Cl^h(r,s) (x) R(2)
        quat = classify_indefinite(r, s, quaternionic=True)
        plus4 = classify_indefinite(r + 4, s)
        assert plus4 == quat.tensor_matrices(2)
        # Cl^h(r+4,s) = Cl(r,s) (x) R(8)
        assert classify_indefinite(r + 4, s, quaternionic=True) == base.tensor_matrices(8)

    @pytest.mark.parametrize("r", range(0, 7))
    @pytest.mark.parametrize("s", range(0, 7))
    def test_dimension(self, r, s):
        assert algebra_dimension(classify_indefinite(r, s)) == 2 ** (r + s)

    @pytest.mark.parametrize("r", range(0, 8))
    @pytest.mark.parametrize("s", range(0, 8))
    def test_center_structure_oracle(self, r, s):
        # Blade-level oracle: for odd total dimension the center is
        # spanned by 1 and the volume element, so the square of the
        # volume element decides the normal form (+1: split, -1: complex
        # type); for even total dimension the algebra is simple and not
        # of complex type.
        if r + s == 0:
            return
        desc = classify_indefinite(r, s)
        if (r + s) % 2 == 0:
            assert desc.simple and desc.field in ("R", "H")
        elif volume_square_sign(r, s) == 1:
            assert not desc.simple
        else:
            assert desc.simple and desc.field == "C"

    @pytest.mark.parametrize("n", range(1, 7))
    def test_center_is_what_the_oracle_assumes(self, n):
        # verify the centrality facts the oracle rests on, by blades
        for r in range(0, n + 1):
            sig = Signature(r, n - r)
            w = volume_element(sig)
            central = all(
                w * CliffordElement.generator(sig, i)
                == CliffordElement.generator(sig, i) * w
                for i in range(1, n + 1))
            assert central == (n % 2 == 1)


class TestGradedTensor:
    @pytest.mark.parametrize("m,n", [(1, 1), (4, 4), (2, 3), (0, 5), (3, 0), (6, 6)])
    def test_decompositions_pass(self, m, n):
        report = graded_tensor_check(m, n)
        assert report.passed
        assert report.dimension == 2 ** (m + n)

    def test_cap_enforced(self, monkeypatch):
        with pytest.raises(ValueError, match=r"^m\+n=13 exceeds blade enumeration cap 12$"):
            graded_tensor_check(7, 6)
        monkeypatch.setattr(clifford, "MAX_TENSOR_TOTAL", 13)
        assert graded_tensor_check(7, 6).passed

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 3), (4, 4)])
    def test_wrong_koszul_sign_fails_the_basis_check(self, m, n, monkeypatch):
        monkeypatch.setattr(clifford, "_pair_product", left_koszul_pair_product)
        report = graded_tensor_check(m, n)
        assert report.relations_ok
        assert not report.basis_bijective

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 3), (4, 4)])
    def test_missing_koszul_sign_fails_the_relations(self, m, n, monkeypatch):
        monkeypatch.setattr(clifford, "_pair_product", plain_pair_product)
        assert graded_tensor_check(m, n).relations_ok is False

    @pytest.mark.parametrize("total", range(0, 10))
    def test_matches_per_blade_loop(self, total):
        for m in range(total + 1):
            assert graded_tensor_check(m, total - m) == reference_graded_tensor_check(m, total - m)


def left_koszul_pair_product(sig1, sig2, x, y):
    """A wrong graded product: the Koszul sign (-1)^(|a1||b2|) from the left
    factor instead of (-1)^(|b1||a2|).  Generators still square to -1 and
    anticommute under it; only the basis map shows the error."""
    (s1, a1, b1), (s2, a2, b2) = x, y
    sign1, a = blade_product(sig1, a1, a2)
    sign2, b = blade_product(sig2, b1, b2)
    koszul = -1 if a1.bit_count() & b2.bit_count() & 1 else 1
    return s1 * s2 * sign1 * sign2 * koszul, a, b


def plain_pair_product(sig1, sig2, x, y):
    """The ungraded tensor product, with no Koszul sign: a generator of the
    first factor commutes with one of the second, so the anticommutation
    relations fail whenever both factors have one."""
    (s1, a1, b1), (s2, a2, b2) = x, y
    sign1, a = blade_product(sig1, a1, a2)
    sign2, b = blade_product(sig2, b1, b2)
    return s1 * s2 * sign1 * sign2, a, b


def reference_pair_mul(m, n, x, y):
    out = {}
    for (a1, b1), c1 in x.items():
        for (a2, b2), c2 in y.items():
            koszul = -1 if bin(b1).count("1") & bin(a2).count("1") & 1 else 1
            sign = koszul * shift_loop_sign(m, a1, a2) * shift_loop_sign(n, b1, b2)
            key = (a1 ^ a2, b1 ^ b2)
            out[key] = out.get(key, Fraction(0)) + sign * c1 * c2
    return {k: v for k, v in out.items() if v}


def reference_graded_tensor_check(m, n):
    """graded_tensor_check with one product per set bit of each blade."""
    total = m + n

    def image(i):
        return {(1 << (i - 1), 0): Fraction(1)} if i <= m else {(0, 1 << (i - m - 1)): Fraction(1)}

    relations_ok = all(reference_pair_mul(m, n, image(i), image(i)) == {(0, 0): -1}
                       for i in range(1, total + 1))
    for i in range(1, total + 1):
        for j in range(i + 1, total + 1):
            anti = reference_pair_mul(m, n, image(i), image(j))
            for k, v in reference_pair_mul(m, n, image(j), image(i)).items():
                anti[k] = anti.get(k, Fraction(0)) + v
            relations_ok = relations_ok and not any(anti.values())
    # every blade must reach its closed-form pair +1 (blade & low, blade >> m)
    low = (1 << m) - 1
    bijective = True
    for blade in range(1 << total):
        acc = {(0, 0): Fraction(1)}
        for i in range(1, total + 1):
            if blade >> (i - 1) & 1:
                acc = reference_pair_mul(m, n, acc, image(i))
        if acc != {(blade & low, blade >> m): 1}:
            bijective = False
            break
    return GradedTensorReport(m, n, 1 << total, relations_ok, bijective)


class TestDescriptor:
    def test_invalid(self):
        with pytest.raises(ValueError):
            AlgebraDescriptor("Q", 2)
        with pytest.raises(ValueError):
            AlgebraDescriptor("R", 0)
