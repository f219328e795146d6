"""Truncated power series with exact rational coefficients, and the
characteristic-class calculus built on them.

One formal variable per series; the variable carries a cohomological
degree (2 for a Chern root x, 4 for a Pontryagin-type class p).  All
arithmetic is truncated at a fixed top power and exact throughout.

The geometric layer provides the single-root A-hat factor
x/(2 sinh(x/2)), the rank-two twist 2 cosh(sqrt(p)/2) stored directly as
a series in p, genus evaluation for closed oriented 4-manifolds, and the
quaternionic projective pairing table computed three independent ways
(binomial formula, residue extraction, Chebyshev recursion).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, gcd
from operator import mul
from typing import Sequence, Union

from . import _exact_reader, _numerators, _require_int

Rational = Union[int, Fraction]
_fraction = _exact_reader(Fraction)


class GradedSeries:
    """Polynomial-truncated power series a_0 + a_1 t + ... + a_trunc t^trunc
    where the variable t has a fixed cohomological degree."""

    __slots__ = ("variable_degree", "coeffs")

    def __init__(self, variable_degree: int, coeffs: Sequence[Rational]):
        if variable_degree < 1:
            raise ValueError("variable degree must be positive")
        if not coeffs:
            raise ValueError("need at least the constant coefficient")
        object.__setattr__(self, "variable_degree", variable_degree)
        object.__setattr__(self, "coeffs", tuple(map(_fraction, coeffs)))

    def __setattr__(self, *args):
        raise AttributeError("GradedSeries is immutable")

    @classmethod
    def _adopt(cls, variable_degree: int, coeffs: list[Fraction]) -> "GradedSeries":
        """Wrap coefficients that are already Fractions, without the
        constructor's conversion of each."""
        self = object.__new__(cls)
        object.__setattr__(self, "variable_degree", variable_degree)
        object.__setattr__(self, "coeffs", tuple(coeffs))
        return self

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, variable_degree: int, trunc: int) -> "GradedSeries":
        return cls(variable_degree, [0] * (trunc + 1))

    @classmethod
    def one(cls, variable_degree: int, trunc: int) -> "GradedSeries":
        return cls(variable_degree, [1] + [0] * trunc)

    # -- basics ----------------------------------------------------------------

    @property
    def trunc(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, power: int) -> Fraction:
        if not 0 <= power <= self.trunc:
            raise ValueError(f"power {power} beyond truncation {self.trunc}")
        return self.coeffs[power]

    @property
    def constant(self) -> Fraction:
        return self.coeffs[0]

    def _check(self, other: "GradedSeries"):
        if self.variable_degree != other.variable_degree:
            raise ValueError("variable degrees differ")
        if self.trunc != other.trunc:
            raise ValueError(f"truncations differ: {self.trunc} and {other.trunc}")

    # -- ring operations ---------------------------------------------------------

    def __sub__(self, other):
        if not isinstance(other, GradedSeries):
            return NotImplemented
        self._check(other)
        return GradedSeries(self.variable_degree,
                            [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def scale(self, factor: Rational) -> "GradedSeries":
        f = _fraction(factor)
        return GradedSeries(self.variable_degree, [f * a for a in self.coeffs])

    def __mul__(self, other):
        if not isinstance(other, GradedSeries):
            if isinstance(other, (int, Fraction)):
                return self.scale(other)
            return NotImplemented
        self._check(other)
        # convolve integer numerators over the product of the common
        # denominators: one Fraction, and one gcd, per nonzero output
        # coefficient; the zeros share one Fraction
        da, a = _numerators(self.coeffs)
        db, b = _numerators(other.coeffs)
        top = self.trunc
        b.reverse()
        d = da * db
        zero = Fraction(0)
        out = []
        for k in range(top + 1):
            n = sum(map(mul, a[:k + 1], b[top - k:]))
            out.append(Fraction(n, d) if n else zero)
        return GradedSeries._adopt(self.variable_degree, out)

    def __pow__(self, exponent: int) -> "GradedSeries":
        if exponent < 0:
            return self.reciprocal() ** (-exponent)
        result = GradedSeries.one(self.variable_degree, self.trunc)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            exponent >>= 1
            if exponent:
                base = base * base
        return result

    def reciprocal(self) -> "GradedSeries":
        """Multiplicative inverse; requires an invertible constant term.

        With f = F/D (integer numerators over one denominator) and the
        inverse so far g = G/E, the next coefficient is
        -(F_1 G_(k-1) + ... + F_k G_0) / (E F_0).  E grows, and the G
        are rescaled, only when that coefficient's reduced denominator
        does not divide it."""
        d, f = _numerators(self.coeffs)
        f0 = f[0]
        if f0 == 0:
            raise ValueError("reciprocal requires a unit constant term")
        c = Fraction(d, f0)
        inv, g, e = [c], [c.numerator], c.denominator
        for k in range(1, self.trunc + 1):
            c = Fraction(-sum(map(mul, f[1:k + 1], reversed(g))), e * f0)
            m = c.denominator
            if e % m:
                grow = m // gcd(e, m)
                g = [x * grow for x in g]
                e *= grow
            g.append(c.numerator * (e // m))
            inv.append(c)
        return GradedSeries._adopt(self.variable_degree, inv)

    def __eq__(self, other):
        if not isinstance(other, GradedSeries):
            return NotImplemented
        return (self.variable_degree == other.variable_degree
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.variable_degree, self.coeffs))

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[:8])
        tail = ", ..." if self.trunc >= 8 else ""
        return f"GradedSeries(deg={self.variable_degree}, [{head}{tail}])"


# --------------------------------------------------------------------------
# characteristic-class series
# --------------------------------------------------------------------------

def _sinh_series(c: Rational, trunc: int) -> GradedSeries:
    """sinh(cx)/(cx) = sum c^(2k) x^(2k) / (2k+1)!, an even series in x:
    1/A-hat of one Chern root at c = 1/2, and at c = i + 1, scaled by
    i + 1, the factor sinh((i+1)x)/x of the residue pairing."""
    c_squared = Fraction(c) ** 2
    coeffs = [Fraction(0)] * (trunc + 1)
    for k in range(0, trunc // 2 + 1):
        coeffs[2 * k] = c_squared ** k / factorial(2 * k + 1)
    return GradedSeries(2, coeffs)


def a_hat_series(trunc: int) -> GradedSeries:
    """Single Chern-root A-hat factor x / (2 sinh(x/2)).

    Expansion starts 1 - x^2/24 + 7 x^4/5760 - ...
    """
    return _sinh_series(Fraction(1, 2), trunc).reciprocal()


def cosh_sqrt_series(trunc: int) -> GradedSeries:
    """2 cosh(sqrt(p)/2) as a series in the degree-4 variable p:
    2 * sum p^k / (4^k (2k)!), starting 2 + p/4 + p^2/192 + ...

    The square root never materializes; cosh is even."""
    coeffs = [2 * Fraction(1, 4 ** k * factorial(2 * k)) for k in range(trunc + 1)]
    return GradedSeries(4, coeffs)


# --------------------------------------------------------------------------
# genus of oriented 4-manifolds (self-dual / anti-self-dual twists)
# --------------------------------------------------------------------------

def genus_4manifold(signature: int, euler: int, orientation: str) -> Fraction:
    """Twisted A-hat genus of a closed oriented 4-manifold whose rank-3
    twist is the bundle of (anti-)self-dual two-forms.

    Closed form (signature +- euler)/2; recomputed from the series engine
    as the integral of ch(twist) * A-hat, with A-hat_1 = a p1 read off the
    single-root A-hat series, ch(twist) = ch0 + c p1(twist) read off
    2 cosh(sqrt(p)/2), p1(twist) = p1 +- 2e and the signature convention
    integral(p1) = 3*signature.  Both paths must agree.  orientation is
    '+' (self-dual) or '-' (anti-self-dual).  On a closed oriented
    4-manifold the signature is the Euler characteristic mod 2, so the
    genus is an integer; other inputs raise IntegralityError.  Both
    numbers are ints: a Fraction or a bool raises TypeError.
    """
    _require_int("signature", signature)
    _require_int("euler", euler)
    if orientation not in ("+", "-"):
        raise ValueError("orientation must be '+' or '-'")
    if (signature - euler) % 2:
        from .ktheory import IntegralityError
        raise IntegralityError(
            f"signature {signature} and Euler characteristic {euler} differ mod 2")
    o = 1 if orientation == "+" else -1
    closed_form = Fraction(signature + o * euler, 2)

    a = a_hat_series(2).coeff(2)
    twist = cosh_sqrt_series(1)
    ch0, c = twist.constant, twist.coeff(1)
    integrated = (ch0 * a + c) * 3 * signature + c * 2 * o * euler
    if integrated != closed_form:
        raise ArithmeticError(
            f"genus paths disagree: series {integrated} vs closed form {closed_form}")
    return closed_form


# --------------------------------------------------------------------------
# quaternionic projective pairing table, three ways
# --------------------------------------------------------------------------

def hp_pairing_binomial(i: int, j: int) -> int:
    """Pairing of the weight-i bundle against the j-th quaternionic
    projective space: binomial(i+j+1, i-j), zero for i < j."""
    if i < 0 or j < 0:
        raise ValueError("indices must be nonnegative")
    return comb(i + j + 1, i - j) if i >= j else 0


def _residue_entry(i: int, j: int, row: tuple[int, list[int]],
                   column: tuple[int, list[int]]) -> int:
    """The x^(2j) coefficient of ch(E_i) * A-hat(HP^j), which must be an
    integer.  Since 1/F(2x) = sinh(x)/x, that product is
    sinh((i+1)x)/x * F^(2j+2): row holds _numerators of the first factor
    and column those of F^(2j+2), both reaching at least x^(2j)."""
    top = 2 * j
    (row_d, row_n), (col_d, col_n) = row, column
    d = row_d * col_d
    total = sum(map(mul, row_n[:top + 1], col_n[top::-1]))
    value, remainder = divmod(total, d)
    if remainder:
        from .ktheory import IntegralityError
        raise IntegralityError(
            f"pairing ({i},{j}) extracted {Fraction(total, d)}; series engine is inconsistent")
    return value


def hp_pairing_residue(i: int, j: int) -> int:
    """Same pairing computed as the x^(2j) coefficient of
    ch(weight-i bundle) * A-hat(HP^j), all inside the complex projective
    variable.  With F(x) = x/(2 sinh(x/2)) the product is
    [sinh((i+1)x)/sinh(x)] * [F^(2j+2)/F(2x)] = sinh((i+1)x)/x * F^(2j+2),
    since 1/F(2x) = sinh(x)/x.  Both factors are built to x^(2j), the one
    power read; the extraction must land on an integer."""
    if i < 0 or j < 0:
        raise ValueError("indices must be nonnegative")
    row = _sinh_series(i + 1, 2 * j).scale(i + 1)
    column = a_hat_series(2 * j) ** (2 * j + 2)
    return _residue_entry(i, j, _numerators(row.coeffs), _numerators(column.coeffs))


def chebyshev_theta(i: int, trunc: int | None = None) -> GradedSeries:
    """Second-kind Chebyshev polynomial U_i evaluated at z = 1 + y^2/2,
    as a polynomial series in y whose y^(2j) coefficient is the pairing
    binomial(i+j+1, i-j); U_(k+1) = 2z U_k - U_(k-1) runs on the series."""
    if i < 0:
        raise ValueError("index must be nonnegative")
    top = 2 * i if trunc is None else trunc
    two_z = GradedSeries(2, ([2, 0, 1] + [0] * top)[:top + 1])
    prev, cur = GradedSeries.zero(2, top), GradedSeries.one(2, top)  # U_-1, U_0
    for _ in range(i):
        prev, cur = cur, two_z * cur - prev
    return cur


def hp_pairing_matrix(max_i: int, max_j: int, method: str = "binomial") -> list[list[int]]:
    """Pairing table with rows indexed by the bundle weight i and columns
    by the projective index j.  The non-closed-form methods build each
    row's and each column's series once, up to x^(2 max_j), the highest
    power an entry reads: the table's size sets every truncation.  The
    residue method reads ch(E_i) * A-hat(HP^j) as
    sinh((i+1)x)/x * F^(2j+2), since 1/F(2x) = sinh(x)/x: a closed-form
    row, a column one multiplication by F^2 from the last, and each entry
    one integer dot product.  The Chebyshev recurrence has integer
    coefficients, so its entries are read directly."""
    if method not in ("binomial", "residue", "chebyshev"):
        raise ValueError("method must be binomial, residue or chebyshev")
    if max_i < 0 or max_j < 0:
        raise ValueError("indices must be nonnegative")
    rows, cols = range(max_i + 1), range(max_j + 1)
    if method == "binomial":
        return [[hp_pairing_binomial(i, j) for j in cols] for i in rows]
    top = 2 * max_j
    if method == "residue":
        f = a_hat_series(top)
        f_squared = f * f
        power, columns = f_squared, []
        for j in cols:
            columns.append(_numerators(power.coeffs[:2 * j + 1]))
            if j < max_j:
                power = power * f_squared
        matrix = []
        for i in rows:
            row = _numerators(_sinh_series(i + 1, top).scale(i + 1).coeffs)
            matrix.append([_residue_entry(i, j, row, columns[j]) for j in cols])
        return matrix
    matrix = []
    for i in rows:
        theta = chebyshev_theta(i, top)
        matrix.append([int(theta.coeff(2 * j)) for j in cols])
    return matrix

