import random
import re
from fractions import Fraction as F

import pytest
import sympy

from spinhalg import _numerators, series
from spinhalg.cli import main
from spinhalg.ktheory import IntegralityError
from spinhalg.series import (
    GradedSeries,
    _residue_entry,
    _sinh_series,
    a_hat_series,
    character_ratio_series,
    chebyshev_theta,
    cosh_sqrt_series,
    genus_4manifold,
    hp_a_hat_class,
    hp_pairing_binomial,
    hp_pairing_matrix,
    hp_pairing_residue,
)


class TestGradedSeries:
    def test_geometric_series(self):
        one_minus_t = GradedSeries(2, [1, -1, 0, 0, 0, 0])
        assert one_minus_t.reciprocal().coeffs == (1, 1, 1, 1, 1, 1)

    def test_difference_of_squares(self):
        a = GradedSeries(2, [1, 1, 0, 0])
        b = GradedSeries(2, [1, -1, 0, 0])
        assert (a * b).coeffs == (1, 0, -1, 0)

    def test_reciprocal_requires_unit(self):
        with pytest.raises(ValueError):
            GradedSeries(2, [0, 1, 0]).reciprocal()

    def test_mismatched_truncations_rejected(self):
        with pytest.raises(ValueError):
            GradedSeries(2, [1, 0]) * GradedSeries(2, [1, 0, 0])
        with pytest.raises(ValueError):
            GradedSeries(2, [1, 0]) + GradedSeries(4, [1, 0])

    def test_pow_and_scale_variable(self):
        t = GradedSeries(2, [1, 1, 0, 0, 0])
        assert (t ** 3).coeffs == (1, 3, 3, 1, 0)
        doubled = t.scale_variable(2)
        assert doubled.coeffs == (1, 2, 0, 0, 0)


def fraction_mul(a, b):
    """The Fraction-per-term product that the integer kernel replaced."""
    top = a.trunc
    out = [F(0)] * (top + 1)
    for i, x in enumerate(a.coeffs):
        if not x:
            continue
        for j in range(top + 1 - i):
            y = b.coeffs[j]
            if y:
                out[i + j] += x * y
    return out


def fraction_reciprocal(a):
    """The Fraction-per-term inverse that the integer kernel replaced."""
    c0 = a.coeffs[0]
    inv = [F(0)] * (a.trunc + 1)
    inv[0] = 1 / c0
    for k in range(1, a.trunc + 1):
        acc = F(0)
        for i in range(1, k + 1):
            if a.coeffs[i]:
                acc += a.coeffs[i] * inv[k - i]
        inv[k] = -acc / c0
    return inv


def seeded_series(rng, trunc, constant):
    """A series with the given constant term and, past it, a third zeros
    and the rest signed fractions with denominators up to 60."""
    rest = [rng.choice([0, F(rng.randint(-40, 40), rng.randint(1, 60)),
                        F(rng.randint(-40, 40), rng.randint(1, 60))])
            for _ in range(trunc)]
    return GradedSeries(2, [constant, *rest])


# constant terms: one, minus one, and values that are not units of Z
CONSTANTS = [F(1), F(-1), F(3), F(-2, 7), F(5, 12)]


class TestIntegerKernels:
    """Products and inverses on integer numerators over common
    denominators equal the Fraction-per-term reference coefficient by
    coefficient, and every coefficient is a Fraction."""

    @pytest.mark.parametrize("trunc", range(65))
    def test_product_matches_reference(self, trunc):
        rng = random.Random(f"mul:{trunc}")
        for constant in CONSTANTS:
            a = seeded_series(rng, trunc, constant)
            b = seeded_series(rng, trunc, rng.choice(CONSTANTS + [F(0)]))
            for x, y in ((a, b), (b, a), (a, a)):
                got = (x * y).coeffs
                assert list(got) == fraction_mul(x, y)
                assert all(type(c) is F for c in got)

    @pytest.mark.parametrize("trunc", range(65))
    def test_reciprocal_matches_reference(self, trunc):
        rng = random.Random(f"reciprocal:{trunc}")
        for constant in CONSTANTS:
            a = seeded_series(rng, trunc, constant)
            inverse = a.reciprocal()
            assert list(inverse.coeffs) == fraction_reciprocal(a)
            assert all(type(c) is F for c in inverse.coeffs)
            assert a * inverse == GradedSeries.one(2, trunc)

    def test_integer_series_keep_fraction_coefficients(self):
        a = GradedSeries(2, [2, -1, 0, 3])
        for got in ((a * a).coeffs, a.reciprocal().coeffs, (a ** -2).coeffs):
            assert all(type(c) is F for c in got)
        assert (a * a).coeffs == (4, -4, 1, 12)
        assert a.reciprocal().coeffs == (F(1, 2), F(1, 4), F(1, 8), F(-11, 16))


# Frozen from a symbolic expansion of x/(2 sinh(x/2)):
A_HAT_COEFFS = {0: F(1), 2: F(-1, 24), 4: F(7, 5760), 6: F(-31, 967680),
                8: F(127, 154828800)}


class TestAHatSeries:
    def test_low_coefficients(self):
        s = a_hat_series(8)
        for power, value in A_HAT_COEFFS.items():
            assert s.coeff(power) == value

    def test_even(self):
        assert a_hat_series(20).is_even()

    def test_self_inverse_check(self):
        s = a_hat_series(16)
        assert (s.reciprocal() * s).coeffs == GradedSeries.one(2, 16).coeffs

    def test_inverse_x2_coefficient(self):
        assert a_hat_series(6).reciprocal().coeff(2) == F(1, 24)


class TestCoshSqrtSeries:
    def test_coefficients(self):
        s = cosh_sqrt_series(3)
        assert s.coeff(0) == 2
        assert s.coeff(1) == F(1, 4)
        assert s.coeff(2) == F(1, 192)
        assert s.coeff(3) == F(1, 23040)

    def test_point_value(self):
        # A-hat^h of a point is the constant term
        assert cosh_sqrt_series(5).constant == 2


class TestGenus4Manifold:
    def test_hp1(self):
        assert genus_4manifold(0, 2, "+") == 1
        assert genus_4manifold(0, 2, "-") == -1

    def test_cp2(self):
        assert genus_4manifold(1, 3, "+") == 2
        assert genus_4manifold(1, 3, "-") == -1

    def test_half_integers_allowed(self):
        assert genus_4manifold(1, 2, "+") == F(3, 2)

    def test_grid_agreement(self):
        # both computation paths run inside genus_4manifold and must agree
        for sig in range(-20, 21):
            for euler in range(-20, 21, 5):
                for o in ("+", "-"):
                    genus_4manifold(sig, euler, o)

    def test_orientation_validation(self):
        with pytest.raises(ValueError):
            genus_4manifold(0, 2, "x")

    # A wrong A-hat or twist series must reach the genus: either mutant
    # makes the two paths disagree.
    WRONG_SERIES = {
        # t -> 2t quadruples A-hat_1: -p1/6 instead of -p1/24
        "a_hat_series": (lambda trunc: a_hat_series(trunc).scale_variable(2),
                         (1, 3, "+")),
        # halved: ch(twist) = 1 + p1/8 + ...
        "cosh_sqrt_series": (lambda trunc: cosh_sqrt_series(trunc).scale(F(1, 2)),
                             (0, 2, "+")),
    }

    @pytest.mark.parametrize("name", WRONG_SERIES)
    def test_wrong_series_breaks_the_genus(self, monkeypatch, name):
        wrong, args = self.WRONG_SERIES[name]
        monkeypatch.setattr(series, name, wrong)
        with pytest.raises(ArithmeticError, match="genus paths disagree"):
            genus_4manifold(*args)

    @pytest.mark.parametrize("name", WRONG_SERIES)
    def test_wrong_series_is_a_cli_error(self, monkeypatch, capsys, name):
        wrong, (sig, euler, orientation) = self.WRONG_SERIES[name]
        monkeypatch.setattr(series, name, wrong)
        code = main(["genus", "--sig", str(sig), "--euler", str(euler),
                     "--orientation", orientation])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err.startswith("error[ArithmeticError]: genus paths disagree")


class TestHPPairing:
    def test_diagonal_and_below(self):
        assert hp_pairing_binomial(2, 2) == 1
        assert hp_pairing_binomial(1, 3) == 0
        assert hp_pairing_binomial(0, 5) == 0

    def test_off_diagonal_values(self):
        assert hp_pairing_binomial(2, 1) == 4   # C(4,1)
        assert hp_pairing_binomial(2, 0) == 3   # C(3,2)
        assert hp_pairing_binomial(3, 1) == 10  # C(5,2)

    def test_residue_small(self):
        assert hp_pairing_residue(0, 0) == 1
        assert hp_pairing_residue(1, 1) == 1
        assert hp_pairing_residue(3, 1) == 10

    @pytest.mark.parametrize("i", range(0, 7))
    @pytest.mark.parametrize("j", range(0, 5))
    def test_residue_matches_binomial(self, i, j):
        assert hp_pairing_residue(i, j) == hp_pairing_binomial(i, j)

    def test_matrix_shape_and_orientation(self):
        m = hp_pairing_matrix(2, 2)
        assert m == [[1, 0, 0], [2, 1, 0], [3, 4, 1]]

    def test_matrix_methods_agree(self):
        b = hp_pairing_matrix(4, 4, "binomial")
        assert hp_pairing_matrix(4, 4, "residue") == b
        assert hp_pairing_matrix(4, 4, "chebyshev") == b

    def test_bad_method(self):
        with pytest.raises(ValueError):
            hp_pairing_matrix(1, 1, "magic")

    @pytest.mark.parametrize("method", ["binomial", "residue", "chebyshev"])
    @pytest.mark.parametrize("max_i, max_j", [(-1, 2), (2, -1), (-1, -1)])
    def test_negative_sizes_rejected(self, method, max_i, max_j):
        with pytest.raises(ValueError, match="indices must be nonnegative"):
            hp_pairing_matrix(max_i, max_j, method)


SIZES = range(13)


@pytest.fixture(scope="module")
def per_entry_tables():
    """Every entry for i, j <= 12, one series build per entry."""
    residue = {(i, j): hp_pairing_residue(i, j) for i in SIZES for j in SIZES}
    chebyshev = {(i, j): chebyshev_theta(i, 2 * max(i, j)).coeff(2 * j)
                 for i in SIZES for j in SIZES}
    return residue, chebyshev


class TestPairingMatrixParity:
    """The matrix builds each row's and each column's series once; its
    entries must equal the per-entry computations."""

    @pytest.mark.parametrize("max_i", SIZES)
    def test_every_size_up_to_twelve(self, per_entry_tables, max_i):
        residue, chebyshev = per_entry_tables
        for max_j in SIZES:
            cells = [[(i, j) for j in range(max_j + 1)] for i in range(max_i + 1)]
            assert hp_pairing_matrix(max_i, max_j, "residue") == \
                [[residue[c] for c in row] for row in cells]
            assert hp_pairing_matrix(max_i, max_j, "chebyshev") == \
                [[chebyshev[c] for c in row] for row in cells]

    @pytest.mark.parametrize("max_i, max_j, trunc", [(6, 12, 25), (12, 5, 17), (3, 9, 30)])
    def test_explicit_truncation(self, max_i, max_j, trunc):
        """The table's entries are those of per-entry series, and of
        Chebyshev rows built to an explicit truncation past 2 max_j."""
        assert hp_pairing_matrix(max_i, max_j, "residue") == [
            [hp_pairing_residue(i, j) for j in range(max_j + 1)]
            for i in range(max_i + 1)]
        assert hp_pairing_matrix(max_i, max_j, "chebyshev") == [
            [chebyshev_theta(i, trunc).coeff(2 * j) for j in range(max_j + 1)]
            for i in range(max_i + 1)]

    @pytest.mark.parametrize("max_i, max_j", [(6, 6), (9, 4)])
    def test_series_stop_at_the_last_power_read(self, monkeypatch, max_i, max_j):
        """Every series is built to x^(2 max_j), on a square table and on a
        tall one (max_i > max_j)."""
        built = []
        for name in ("a_hat_series", "_sinh_series", "chebyshev_theta"):
            def record(*args, _build=getattr(series, name), _name=name):
                built.append((_name, args[-1]))
                return _build(*args)
            monkeypatch.setattr(series, name, record)
        expected = hp_pairing_matrix(max_i, max_j, "binomial")
        for method in ("residue", "chebyshev"):
            built.clear()
            assert hp_pairing_matrix(max_i, max_j, method) == expected
            assert built and {t for _, t in built} == {2 * max_j}, method
            assert {n for n, _ in built} == ({"a_hat_series", "_sinh_series"}
                                             if method == "residue"
                                             else {"chebyshev_theta"})

    @pytest.mark.parametrize("top", [0, 7, 24, 31])
    def test_cancellation_identity(self, top):
        """ch(E_i) * A-hat(HP^j) = sinh((i+1)x)/x * F^(2j+2), the product
        the residue method reads, since 1/F(2x) = sinh(x)/x."""
        f = a_hat_series(top)
        for j in range(top // 2 + 1):
            a_hat_class, power = hp_a_hat_class(j, top), f ** (2 * j + 2)
            for i in range(7):
                assert character_ratio_series(i, top) * a_hat_class == \
                    _sinh_series(i + 1, top).scale(i + 1) * power, (i, j)

    def test_wrong_power_of_f_is_refused(self):
        """Entries read against F^(2j+1) in place of F^(2j+2) are proper
        fractions, and the integrality check names the one it found."""
        with pytest.raises(IntegralityError) as caught:
            _residue_entry(2, 1, _numerators(_sinh_series(3, 2).scale(3).coeffs),
                           _numerators((a_hat_series(2) ** 3).coeffs))
        assert str(caught.value) == "pairing (2,1) extracted 33/8; series engine is inconsistent"
        for j in range(1, 6):
            f = a_hat_series(2 * j)
            column = _numerators((f ** (2 * j + 1)).coeffs)
            for i in range(6):
                row = _numerators(_sinh_series(i + 1, 2 * j).scale(i + 1).coeffs)
                value = (character_ratio_series(i, 2 * j) * f ** (2 * j + 1)
                         * f.scale_variable(2).reciprocal()).coeff(2 * j)
                assert value.denominator != 1, (i, j)
                with pytest.raises(IntegralityError, match=re.escape(
                        f"pairing ({i},{j}) extracted {value}; series engine is inconsistent")):
                    _residue_entry(i, j, row, column)


class TestChebyshevTheta:
    def test_theta0(self):
        assert chebyshev_theta(0).coeffs == (F(1),)

    def test_theta1(self):
        assert chebyshev_theta(1).coeffs == (2, 0, 1)

    def test_theta2(self):
        assert chebyshev_theta(2).coeffs == (3, 0, 4, 0, 1)

    @pytest.mark.parametrize("i", range(0, 9))
    def test_coefficients_are_pairings(self, i):
        theta = chebyshev_theta(i)
        for j in range(0, i + 1):
            assert theta.coeff(2 * j) == hp_pairing_binomial(i, j)

    def test_odd_coefficients_vanish(self):
        assert chebyshev_theta(5).is_even()

    @pytest.mark.parametrize("i", range(21))
    def test_against_sympy(self, i):
        y = sympy.symbols("y")
        poly = sympy.Poly(sympy.expand(sympy.chebyshevu(i, 1 + y**2 / 2)), y)
        for t in sorted({0, 1, 2, i, 2 * i - 1, 2 * i, 2 * i + 3} - {-1}):
            expected = [F(str(poly.coeff_monomial(y**k))) for k in range(t + 1)]
            assert list(chebyshev_theta(i, t).coeffs) == expected, t


class TestSinhSeries:
    @pytest.mark.parametrize("c", [F(1, 2), 1, 2, 5])
    def test_against_sympy(self, c):
        x = sympy.symbols("x")
        cx = sympy.Rational(str(c)) * x
        expansion = sympy.series(sympy.sinh(cx) / cx, x, 0, 25).removeO()
        expected = [F(str(expansion.coeff(x, k))) for k in range(25)]
        for t in range(25):
            assert list(_sinh_series(c, t).coeffs) == expected[:t + 1], t

    def test_inverse_root_is_the_reciprocal_of_a_hat(self):
        # 1/A-hat of one Chern root, built directly as sinh(x/2)/(x/2)
        for trunc in range(49):
            root = _sinh_series(F(1, 2), trunc)
            assert root == a_hat_series(trunc).reciprocal(), trunc


class TestCharacterRatio:
    def test_weight_zero_is_one(self):
        assert character_ratio_series(0, 8).coeffs == GradedSeries.one(2, 8).coeffs

    def test_constant_term_is_rank(self):
        # sinh((i+1)x)/sinh(x) -> i+1 at x = 0
        for i in range(5):
            assert character_ratio_series(i, 4).constant == i + 1

    def test_hp_a_hat_constant(self):
        assert hp_a_hat_class(3, 8).constant == 1

    @pytest.mark.parametrize("j", range(7))
    def test_hp_a_hat_class_against_sympy(self, j):
        x = sympy.symbols("x")
        expr = (x / (2 * sympy.sinh(x / 2))) ** (2 * j + 2) * sympy.sinh(x) / x
        expansion = sympy.series(expr, x, 0, 2 * j + 1).removeO()
        expected = [F(str(expansion.coeff(x, k))) for k in range(2 * j + 1)]
        assert list(hp_a_hat_class(j, 2 * j).coeffs) == expected
