"""Bott-periodic coefficient tables for the three K-theories, with
coefficient changes, torsion-sphere computations, mod-k index
arithmetic, and an algebraic double-duality check for finitely
generated abelian groups.

The duality check pairs into Q/Z through its subgroup (1/N)Z/Z, N the
exponent of the group, so a pairing value is its integer numerator
mod N.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm, prod
from typing import Iterable, Union

from . import _exact_reader, _is_digits, _require_int, _value_class
from .modules import _0, _Z, _Z2, AbGroupExpr, ngroup

Rational = Union[int, Fraction]
_fraction = _exact_reader(Fraction)

THEORIES = ("KO", "KU", "KSp")


class IntegralityError(ArithmeticError):
    """Input data violating an integrality forced by the index theory."""


class UndeterminedExtension(ValueError):
    """A universal-coefficient extension this module refuses to guess."""

    def __init__(self, sub: AbGroupExpr, quot: AbGroupExpr):
        self.sub = sub
        self.quot = quot
        super().__init__(f"extension of {quot} by {sub} undetermined")


# --------------------------------------------------------------------------
# coefficient rings
# --------------------------------------------------------------------------

@_value_class
class CoefficientRing:
    tag: str        # "Z" | "Q" | "Q/Z" | "Zk"
    k: int = 0

    def __post_init__(self):
        if self.tag not in ("Z", "Q", "Q/Z", "Zk"):
            raise ValueError(f"unknown coefficient ring {self.tag!r}")
        if self.tag == "Zk" and self.k < 2:
            raise ValueError("Zk needs k >= 2")
        if self.tag != "Zk" and self.k:
            raise ValueError("k only applies to Zk")

    @classmethod
    def parse(cls, text: str) -> "CoefficientRing":
        text = text.strip()
        if text in ("Z", "Q", "Q/Z"):
            return cls(text)
        if text.startswith("Z") and _is_digits(text[1:]):
            return cls("Zk", int(text[1:]))
        raise ValueError(f"cannot parse coefficient ring {text!r}")

    def __str__(self):
        return f"Z{self.k}" if self.tag == "Zk" else self.tag


# --------------------------------------------------------------------------
# integral coefficient tables (period 8 / 2)
# --------------------------------------------------------------------------

# Atiyah-Bott-Shapiro: theory_n(pt) is the graded-module group N_n over
# the matching field.
_MODULE_FIELD = {"KO": "R", "KU": "C", "KSp": "H"}


def integral_table(theory: str, n: int) -> AbGroupExpr:
    """Homotopy of the coefficient spectrum: theory_n(pt), any integer n."""
    if theory not in _MODULE_FIELD:
        raise ValueError(f"theory must be one of {THEORIES}")
    return ngroup(n % 8, _MODULE_FIELD[theory])


# Complexification theory_n(pt) = Z -> KU_n(pt) = Z multiplies a generator
# by _TO_KU[theory][n % 8 // 4], for n = 0 or 4 mod 8.
_TO_KU = {"KO": (1, 2), "KSp": (2, 1)}


def _mod_k(orders, k: int) -> AbGroupExpr:
    """Z_gcd(m, k) for each Z_m in orders, Z counting as Z_0: that is
    both Z_m (x) Z_k and Tor(Z_m, Z_k)."""
    return AbGroupExpr(tuple(d for d in (gcd(0 if m == "Z" else m, k) for m in orders) if d > 1))


def _forced(sub: AbGroupExpr, quot: AbGroupExpr, split: bool) -> AbGroupExpr | None:
    """The middle group of 0 -> sub -> ? -> quot -> 0 when the sequence
    forces it (it splits, or an end vanishes), otherwise None."""
    if split or quot.is_zero():
        return sub + quot
    if sub.is_zero():
        return quot
    return None


def _group_text(result) -> str:
    """The group of a result, else the two ends of its extension."""
    if result.group is None:
        return f"extension({result.quot} by {result.sub})"
    return str(result.group)


@_value_class
class CoefficientGroup:
    """Universal-coefficient answer: the group when the extension is
    forced, otherwise None with the two ends."""

    theory: str
    n: int
    ring: CoefficientRing
    group: AbGroupExpr | None
    sub: AbGroupExpr
    quot: AbGroupExpr

    __str__ = _group_text


def k_coefficients_extension(theory: str, n: int, ring: CoefficientRing) -> CoefficientGroup:
    """theory_n(pt; ring) through the universal-coefficient sequence
    0 -> G_n (x) ring -> result -> Tor(G_{n-1}, ring) -> 0."""
    base = integral_table(theory, n)
    if ring.tag == "Z":
        sub, quot = base, _0
    elif ring.tag == "Zk":
        sub = _mod_k(base.summands, ring.k)
        quot = _mod_k(integral_table(theory, n - 1).torsion, ring.k)
    else:
        # a divisible ring kills torsion; Tor(Z_m, Q/Z) = Z_m, Tor(Z_m, Q) = 0
        sub = AbGroupExpr((ring.tag,) * base.rank)
        quot = AbGroupExpr(integral_table(theory, n - 1).torsion) if ring.tag == "Q/Z" else _0
    # over Q and Q/Z the subgroup is divisible, so the sequence splits
    group = _forced(sub, quot, split=ring.tag != "Zk")
    return CoefficientGroup(theory, n, ring, group, sub, quot)


def k_coefficients(theory: str, n: int, ring: str = "Z") -> AbGroupExpr:
    """Coefficient group as an abelian-group expression; raises
    UndeterminedExtension when both ends of the sequence are nonzero
    over Z_k (e.g. KO_2(pt; Z_2), which is in fact a nonsplit Z_4)."""
    result = k_coefficients_extension(theory, n, CoefficientRing.parse(ring))
    if result.group is None:
        raise UndeterminedExtension(result.sub, result.quot)
    return result.group


# --------------------------------------------------------------------------
# reduced K-theory of torsion spheres
# --------------------------------------------------------------------------

@_value_class
class ZkSphereResult:
    theory: str
    m: int
    k: int
    star: int
    group: AbGroupExpr | None
    sub: AbGroupExpr
    quot: AbGroupExpr
    complexification: str | None  # "iso" | "x2" | None

    def __str__(self):
        body = _group_text(self)
        if self.complexification:
            body += f" [complexification: {self.complexification}]"
        return body


def zk_sphere_group(theory: str, m: int, k: int, star: int = 0) -> ZkSphereResult:
    """Reduced theory of the mod-k sphere in dimension m at degree star.

    Assembled from the splitting into a wedge of (k-1) ordinary
    (m-1)-spheres and a mod-k Moore part:

      0 -> h^{star-m+1}(pt)^(k-1) (+) (h^{star-m}(pt) (x) Z_k)
             -> reduced h^star -> Tor(h^{star-m+1}(pt), Z_k) -> 0,

    the Moore part being h_{m-star}(pt; Z_k), as h^j(pt) = h_{-j}(pt).
    When the Tor term vanishes the middle group is reported; otherwise
    the two ends come back with no group.  For KO in dimensions divisible
    by four the complexification map multiplies by _TO_KU's factor.
    """
    if theory not in ("KO", "KU"):
        raise ValueError("torsion-sphere groups computed for KO and KU")
    if m < 2:
        raise ValueError("need m >= 2")
    if k < 2:
        raise ValueError("need k >= 2")
    moore = k_coefficients_extension(theory, m - star, CoefficientRing("Zk", k))
    sub = AbGroupExpr(integral_table(theory, m - star - 1).summands * (k - 1)) + moore.sub
    comparison = None
    if theory == "KO" and star == 0 and m % 4 == 0:
        factor = _TO_KU["KO"][m % 8 // 4]
        comparison = "iso" if factor == 1 else f"x{factor}"
    group = _forced(sub, moore.quot, split=False)
    return ZkSphereResult(theory, m, k, star, group, sub, moore.quot, comparison)


# --------------------------------------------------------------------------
# mod-k index arithmetic
# --------------------------------------------------------------------------

@_value_class
class ZkIndexInput:
    """Arithmetic inputs of the mod-k index: the characteristic-class
    integral and the (already k-scaled) boundary eta correction."""

    n: int
    k: int
    integral_term: Fraction
    eta_term: Fraction

    def __post_init__(self):
        _require_int("n", self.n)
        _require_int("k", self.k)
        if self.n % 4 != 0:
            raise ValueError("dimension must be divisible by four")
        if self.k < 2:
            raise ValueError("modulus must be at least two")
        object.__setattr__(self, "integral_term", _fraction(self.integral_term))
        object.__setattr__(self, "eta_term", _fraction(self.eta_term))

    @property
    def epsilon(self) -> int:
        return _TO_KU["KSp"][self.n % 8 // 4]


def zk_index(data: ZkIndexInput) -> int:
    """((integral - eta) / epsilon) mod k, with epsilon the _TO_KU factor
    of KSp: 2 in dimensions divisible by eight (the quaternionic structure
    makes the un-reduced index even) and 1 otherwise.  A non-integral
    quotient means the inputs cannot come from an actual geometry."""
    quotient = (data.integral_term - data.eta_term) / data.epsilon
    if quotient.denominator != 1:
        raise IntegralityError(
            f"({data.integral_term} - {data.eta_term})/{data.epsilon} "
            "is not an integer")
    return int(quotient) % data.k


# --------------------------------------------------------------------------
# index classification by dimension residue
# --------------------------------------------------------------------------

@_value_class
class IndexClassification:
    n: int
    group: AbGroupExpr
    value: int

    def __str__(self):
        if self.group.is_zero():
            return "0 (zero group)"
        return f"{self.value} in {self.group}"


def aind_classify(n: int, genus_value: Rational | None = None,
                  harmonic_dim: int | None = None) -> IndexClassification:
    """Element of KSp_n(pt), read through integral_table, carried by a
    closed manifold: the genus where the group is Z (divided by the _TO_KU
    factor: halved, and forced even, in residue 0 mod 8), the
    harmonic-kernel parity where it is Z2, and zero otherwise.  An
    argument the group does not read is refused."""
    residue = n % 8
    group = integral_table("KSp", n)
    given = {"genus value": genus_value, "harmonic dimension": harmonic_dim}
    reads = {_Z: "genus value", _Z2: "harmonic dimension"}.get(group)
    if reads and given[reads] is None:
        raise ValueError(f"residue {residue}: {reads} required")
    for name, value in given.items():
        if value is not None and name != reads:
            raise ValueError(f"residue {residue}: KSp_n(pt) = {group} does not read a {name}")
    if group == _Z:
        g = _fraction(genus_value)
        if g.denominator != 1:
            raise IntegralityError(f"genus value {g} is not an integer")
        factor = _TO_KU["KSp"][residue // 4]
        if g % factor:
            raise IntegralityError(
                f"genus value {g} must be even in dimensions 0 mod 8")
        return IndexClassification(n, group, int(g) // factor)
    if group == _Z2:
        if not isinstance(harmonic_dim, int) or harmonic_dim < 0:
            raise ValueError(f"harmonic dimension {harmonic_dim!r} is not a nonnegative integer")
        return IndexClassification(n, group, harmonic_dim % 2)
    return IndexClassification(n, group, 0)


# --------------------------------------------------------------------------
# finitely generated abelian groups and double duality
# --------------------------------------------------------------------------

@_value_class
class FGAbelianGroup:
    """rank + invariant factors n1 | n2 | ... (each dividing the next)."""

    rank: int = 0
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        _require_int("rank", self.rank)
        if self.rank < 0:
            raise ValueError("rank must be nonnegative")
        object.__setattr__(self, "torsion", tuple(self.torsion))
        for t in self.torsion:
            _require_int("invariant factor", t)
            if t < 2:
                raise ValueError("invariant factors are at least two")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise ValueError("invariant factors must form a divisibility chain")

    @classmethod
    def from_summands(cls, rank: int = 0, orders: Iterable[int] = ()) -> "FGAbelianGroup":
        """Normalize an arbitrary direct sum of cyclic groups into
        invariant-factor form.  By Z_a + Z_b = Z_gcd(a,b) + Z_lcm(a,b),
        each order passes up the chain f1 | f2 | ..., leaving the gcd in
        each place and carrying the lcm on."""
        chain: list[int] = []
        for m in orders:
            _require_int("cyclic order", m)
            if m < 1:
                raise ValueError("cyclic orders must be positive")
            for i, f in enumerate(chain):
                chain[i], m = gcd(f, m), lcm(f, m)
            chain.append(m)
        return cls(rank, tuple(f for f in chain if f > 1))

    @property
    def order(self) -> int:
        """Order of the torsion part."""
        return prod(self.torsion)

    def to_expr(self) -> AbGroupExpr:
        return AbGroupExpr(("Z",) * self.rank + self.torsion)

    def __str__(self):
        return str(self.to_expr())


class VerificationBoundExceeded(ValueError):
    pass


# Largest torsion order dual_group verifies: it builds one dual row of |G|
# pairings for each of the |G| elements.
MAX_DUAL_ORDER = 1000


@_value_class
class DualityReport:
    group: FGAbelianGroup
    verified: bool
    torsion_candidates: int      # prod n_i^2 candidate generator assignments
    torsion_valid: int           # |G| of them are homomorphisms


def _element_orders(factors: tuple[int, ...]) -> dict[int, int]:
    """Multiset (order -> count) of element orders of a product of cyclic
    groups, without enumerating it: d kills prod gcd(d, n_i) elements, and
    those of order exactly d are what is left after the divisors of d."""
    exponent = lcm(*factors)
    counts: dict[int, int] = {}
    for d in range(1, exponent + 1):
        if exponent % d == 0:
            counts[d] = prod(gcd(d, n) for n in factors) - sum(
                c for e, c in counts.items() if d % e == 0)
    return counts


def dual_group(group: FGAbelianGroup) -> DualityReport:
    """Double dual of a finitely generated abelian group under the
    rational-circle pairing, with an order-count verification.

    The duality is the identity on isomorphism classes.  For the torsion
    part every homomorphism into Q/Z is liftable (there is nothing to
    lift).  The candidate generator assignments for maps Hom(A, Q/Z) ->
    Q/Z number prod n_i^2 and the homomorphisms among them |G|; both are
    reported by formula, and only the test oracle
    tests/test_ktheory.py::brute_force_dual_group enumerates them.  The
    verification walks the |G| dual rows <a, .>, takes the order of
    each, and compares the order counts with those of A, counted by the
    divisor identity of _element_orders.  Finite abelian groups with the
    same number of elements of each order are isomorphic, so the order
    comparison decides the isomorphism type.
    """
    if group.rank > 2:
        raise VerificationBoundExceeded("free rank capped at two for verification")
    if group.order > MAX_DUAL_ORDER:
        raise VerificationBoundExceeded(
            f"torsion order {group.order} exceeds bound {MAX_DUAL_ORDER}")

    factors = group.torsion
    elements = list(itertools.product(*(range(n) for n in factors)))

    # pairing values live in (1/N)Z/Z for N = exponent; store numerators
    denominator = lcm(*factors)
    weights = [denominator // n for n in factors]

    # dual side: each a defines phi_a = <a, .>; all duals are of this form.
    # Row phi_a lists <a, x> over elements, summed from per-factor columns.
    columns = [[x[i] * w for x in elements] for i, w in enumerate(weights)]

    def dual_row(a) -> list[int]:
        row = [0] * len(elements)
        for ai, column in zip(a, columns):
            if ai:
                row = [r + ai * c for r, c in zip(row, column)]
        return [r % denominator for r in row]

    # Rows are not kept: each one gives its order and is dropped.  Only the
    # zero row has order 1, and a -> phi_a is additive, so equal order
    # counts (one order-1 element on each side) also make it injective.
    dual_orders: dict[int, int] = {}
    for a in elements:
        order = denominator // gcd(denominator, *dual_row(a))
        dual_orders[order] = dual_orders.get(order, 0) + 1

    # double dual: candidate images of each dual generator delta_i are
    # drawn from the (1/n_i^2)-grid.  The candidates of order dividing n_i
    # are t_i = x_i/n_i, and each is evaluation at x, so all are valid.
    candidates = prod(n * n for n in factors)
    verified = _element_orders(factors) == dual_orders
    return DualityReport(group, verified, candidates, len(elements))
