"""Exact Clifford algebra arithmetic over the rationals.

Elements of Cl(r,s) are sparse rational combinations of basis blades
e_{i1}...e_{ik}.  The first r generators square to -1, the last s square
to +1, and distinct generators anticommute.  A blade is encoded as a
bitmask over the generator set, so a blade product reduces to a
transposition count plus a sign for each repeated generator.

The classification half of the module turns an algebra label (definite
or indefinite signature, optionally tensored with the quaternions or
complexified) into the matrix-algebra normal form K(N) or K(N)+K(N)
with K one of R, C, H.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Union

from . import _exact_reader, _numerators, _value_class

Rational = Union[int, Fraction]
_fraction = _exact_reader(Fraction)


class SignatureMismatch(ValueError):
    """Raised when combining elements that live in different algebras."""


# --------------------------------------------------------------------------
# signatures and blades
# --------------------------------------------------------------------------

@_value_class
class Signature:
    """Signature (r, s): r generators squaring to -1, then s squaring to +1."""

    r: int
    s: int

    def __post_init__(self):
        if self.r < 0 or self.s < 0:
            raise ValueError("signature components must be nonnegative")

    @property
    def n(self) -> int:
        return self.r + self.s

    def generator_square(self, i: int) -> int:
        """Square of e_i, generators numbered 1..n."""
        if not 1 <= i <= self.n:
            raise ValueError(f"generator index {i} out of range for {self}")
        return -1 if i <= self.r else 1

    def __str__(self):
        return f"Cl({self.r},{self.s})"


def blade_from_indices(indices: Iterable[int]) -> int:
    """Bitmask blade for strictly ascending 1-based generator indices."""
    mask = 0
    prev = 0
    for i in indices:
        if i <= prev:
            raise ValueError("blade indices must be strictly ascending")
        mask |= 1 << (i - 1)
        prev = i
    return mask


def blade_indices(blade: int) -> tuple[int, ...]:
    out = []
    i = 1
    while blade:
        if blade & 1:
            out.append(i)
        blade >>= 1
        i += 1
    return tuple(out)


def blade_degree(blade: int) -> int:
    return blade.bit_count()


def _sign_mask(a: int, neg_mask: int) -> int:
    """Mask S_a with e_A e_B = (-1)^popcount(B & S_a) e_{A xor B}.

    neg_mask = (1 << r) - 1 marks the generators that square to -1.
    Sorting the concatenated index lists moves generator j of B past the
    generators of A above j, so bit j - 1 of the reorder mask is the parity
    of A's generators above j: the suffix XOR of a >> 1, taken in
    O(log n) shifts.  XOR-ing in a & neg_mask adds one sign for each
    repeated generator that squares to -1.
    """
    m = a >> 1
    shift = 1
    while m >> shift:
        m ^= m >> shift
        shift <<= 1
    return m ^ (a & neg_mask)


def blade_product(sig: Signature, a: int, b: int) -> tuple[int, int]:
    """Product of two basis blades: returns (sign, result blade)."""
    odd = (b & _sign_mask(a, (1 << sig.r) - 1)).bit_count() & 1
    return (-1 if odd else 1), a ^ b


# --------------------------------------------------------------------------
# elements
# --------------------------------------------------------------------------

class CliffordElement:
    """Rational linear combination of blades in a fixed Cl(r,s).

    Immutable; all arithmetic returns fresh elements.  An element stores
    one positive denominator and a dict of nonzero integer numerators,
    one per blade, whose gcd with the denominator is 1, so equal elements
    store equal data.
    """

    __slots__ = ("signature", "_den", "_nums")

    def __init__(self, signature: Signature, terms: Mapping[int, Rational] = ()):
        clean: dict[int, Fraction] = {}
        top = 1 << signature.n
        for blade, coeff in dict(terms).items():
            if not isinstance(blade, int) or isinstance(blade, bool):
                raise TypeError(f"blade {blade!r} is a {type(blade).__name__}; pass an int")
            if not 0 <= blade < top:
                raise ValueError(f"blade {blade:#b} invalid for {signature}")
            c = _fraction(coeff)
            if c:
                clean[blade] = c
        # over the lcm of reduced denominators the numerators are coprime
        # to it: a prime's top power in the lcm divides one denominator
        # exactly, and that numerator is coprime to it
        den, nums = _numerators(clean.values())
        object.__setattr__(self, "signature", signature)
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_nums", dict(zip(clean, nums)))

    def __setattr__(self, *args):
        raise AttributeError("CliffordElement is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def _reduced(cls, sig: Signature, den: int, nums: dict[int, int]) -> "CliffordElement":
        """The element sum nums[b]/den e_b (den > 0, valid blades): drops
        the zero numerators and divides out the common gcd."""
        nums = {b: n for b, n in nums.items() if n}
        g = gcd(den, *nums.values())
        if g > 1:
            den //= g
            nums = {b: n // g for b, n in nums.items()}
        return cls._adopt(sig, den, nums)

    @classmethod
    def _adopt(cls, sig: Signature, den: int, nums: dict[int, int]) -> "CliffordElement":
        """Adopt numerators that are already reduced over den."""
        self = object.__new__(cls)
        object.__setattr__(self, "signature", sig)
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_nums", nums)
        return self

    @classmethod
    def zero(cls, sig: Signature) -> "CliffordElement":
        return cls(sig)

    @classmethod
    def generator(cls, sig: Signature, i: int) -> "CliffordElement":
        sig.generator_square(i)  # range check
        return cls(sig, {1 << (i - 1): 1})

    @classmethod
    def blade(cls, sig: Signature, indices: Iterable[int], coeff: Rational = 1) -> "CliffordElement":
        return cls(sig, {blade_from_indices(indices): coeff})

    # -- helpers -------------------------------------------------------------

    @property
    def terms(self) -> dict[int, Fraction]:
        """The nonzero coefficients as {blade: Fraction}, built afresh on
        each read: changing the dict leaves the element as it was."""
        den = self._den
        return {b: Fraction(n, den) for b, n in self._nums.items()}

    def _check(self, other: "CliffordElement"):
        if self.signature != other.signature:
            raise SignatureMismatch(
                f"cannot combine {self.signature} and {other.signature}")

    def is_zero(self) -> bool:
        return not self._nums

    def grade_part(self, k: int) -> "CliffordElement":
        return CliffordElement._reduced(
            self.signature, self._den,
            {b: n for b, n in self._nums.items() if blade_degree(b) == k})

    def parity(self) -> int | None:
        """0 or 1 for homogeneous elements, None for mixed (0 for zero)."""
        seen = {blade_degree(b) & 1 for b in self._nums}
        if not seen:
            return 0
        if len(seen) == 1:
            return seen.pop()
        return None

    # -- ring operations -----------------------------------------------------

    def _combine(self, other, sign: int):
        """self + sign * other, over the lcm of the two denominators;
        NotImplemented when other is not an element."""
        if not isinstance(other, CliffordElement):
            return NotImplemented
        self._check(other)
        den = lcm(self._den, other._den)
        left, right = den // self._den, sign * (den // other._den)
        out = {b: n * left for b, n in self._nums.items()}
        for b, n in other._nums.items():
            out[b] = out.get(b, 0) + n * right
        return CliffordElement._reduced(self.signature, den, out)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self) -> "CliffordElement":
        return CliffordElement._adopt(self.signature, self._den,
                                      {b: -n for b, n in self._nums.items()})

    def scale(self, factor: Rational) -> "CliffordElement":
        f = _fraction(factor)
        return CliffordElement._reduced(
            self.signature, self._den * f.denominator,
            {b: n * f.numerator for b, n in self._nums.items()})

    def __mul__(self, other):
        if not isinstance(other, CliffordElement):
            if isinstance(other, (int, Fraction)):
                return self.scale(other)
            return NotImplemented
        self._check(other)
        sig = self.signature
        neg_mask = (1 << sig.r) - 1
        right = list(other._nums.items())
        acc: dict[int, int] = {}
        get = acc.get
        for b1, n1 in self._nums.items():
            sign_mask = _sign_mask(b1, neg_mask)
            for b2, n2 in right:
                blade = b1 ^ b2
                if (b2 & sign_mask).bit_count() & 1:
                    acc[blade] = get(blade, 0) - n1 * n2
                else:
                    acc[blade] = get(blade, 0) + n1 * n2
        return CliffordElement._reduced(sig, self._den * other._den, acc)

    def transpose(self) -> "CliffordElement":
        """Blade reversal e_{i1}..e_{ik} -> e_{ik}..e_{i1}.

        Reversal of a degree-k blade contributes (-1)^(k(k-1)/2).  The
        quaternion conjugation of the scalar-extended transpose is not
        modelled here; coefficients are plain rationals.
        """
        out = {}
        for b, n in self._nums.items():
            k = blade_degree(b)
            out[b] = -n if (k * (k - 1) // 2) & 1 else n
        return CliffordElement._adopt(self.signature, self._den, out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CliffordElement):
            return NotImplemented
        return (self.signature == other.signature and self._den == other._den
                and self._nums == other._nums)

    def __hash__(self):
        return hash((self.signature, self._den, frozenset(self._nums.items())))

    def __repr__(self):
        if not self._nums:
            return "0"
        bits = []
        for blade in sorted(self._nums, key=lambda b: (blade_degree(b), b)):
            c = Fraction(self._nums[blade], self._den)
            name = "1" if blade == 0 else "e" + "e".join(str(i) for i in blade_indices(blade))
            bits.append(f"{c}*{name}" if blade else f"{c}")
        return " + ".join(bits)


def volume_element(sig: Signature) -> CliffordElement:
    """The top blade e_1 e_2 ... e_n."""
    return CliffordElement(sig, {(1 << sig.n) - 1: 1})


def volume_square_sign(r: int, s: int) -> int:
    """Closed-form sign of the volume element squared in Cl(r,s)."""
    exponent = ((r + s) ** 2 + (r - s)) // 2
    return -1 if exponent & 1 else 1


# --------------------------------------------------------------------------
# matrix-algebra normal forms
# --------------------------------------------------------------------------

_FIELD_DIM = {"R": 1, "C": 2, "H": 4}


@_value_class
class AlgebraDescriptor:
    """Normal form K(N) (simple) or K(N)+K(N) (simple=False), K in {R,C,H}."""

    field: str
    size: int
    simple: bool = True

    def __post_init__(self):
        if self.field not in _FIELD_DIM:
            raise ValueError(f"unknown base field {self.field!r}")
        if self.size < 1:
            raise ValueError("matrix size must be positive")

    @property
    def irreducible_real_dimension(self) -> int:
        """Real dimension of an irreducible (column) module K^N."""
        return self.size * _FIELD_DIM[self.field]

    def tensor_matrices(self, m: int) -> "AlgebraDescriptor":
        """Tensor with R(m) over the reals."""
        return AlgebraDescriptor(self.field, self.size * m, self.simple)

    def tensor_quaternions(self) -> "AlgebraDescriptor":
        """Tensor with H over the reals."""
        rules = {"R": ("H", 1), "C": ("C", 2), "H": ("R", 4)}
        field, factor = rules[self.field]
        return AlgebraDescriptor(field, self.size * factor, self.simple)

    def complexify(self) -> "AlgebraDescriptor":
        """Tensor with C over the reals."""
        if self.field == "R":
            return AlgebraDescriptor("C", self.size, self.simple)
        if self.field == "H":
            return AlgebraDescriptor("C", self.size * 2, self.simple)
        # C(N) (x)_R C = C(N) + C(N)
        if not self.simple:
            raise ValueError("complexification of a split complex algebra "
                             "is not a one- or two-factor normal form")
        return AlgebraDescriptor("C", self.size, simple=False)

    def __str__(self):
        one = self.field if self.size == 1 else f"{self.field}({self.size})"
        return one if self.simple else f"{one}+{one}"


def _definite_tables() -> tuple[tuple[AlgebraDescriptor, ...], tuple[AlgebraDescriptor, ...]]:
    """Table 1 of the definite algebras, period 8 with R(16) steps:
    pos[n] = Cl(n,0) and neg[n] = Cl(0,n) for 0 <= n <= 7, from the seeds
    Cl(0,0) = R, Cl(1,0) = C, Cl(0,1) = R+R and the two shifts
    Cl(n+2,0) = Cl(0,n) (x) H and Cl(0,n+2) = Cl(n,0) (x) R(2)."""
    pos = [AlgebraDescriptor("R", 1), AlgebraDescriptor("C", 1)]
    neg = [AlgebraDescriptor("R", 1), AlgebraDescriptor("R", 1, simple=False)]
    for n in range(6):
        pos.append(neg[n].tensor_quaternions())
        neg.append(pos[n].tensor_matrices(2))
    return tuple(pos), tuple(neg)


_CL_POS, _CL_NEG = _definite_tables()

VARIANTS = ("Cl", "CCl", "Clh", "CClh")

# Largest total dimension n = r + s that classify and classify_indefinite
# accept.  The matrix size grows as 16^(n/8), so at the cap it has about
# 155 decimal digits; far larger n would only produce numbers too long to
# print (CPython refuses int-to-str past 4300 digits, near n = 28,000).
MAX_CLASSIFY_N = 1024


def _check_classify_n(n: int) -> None:
    if n > MAX_CLASSIFY_N:
        raise ValueError(f"n = {n} exceeds the classification cap {MAX_CLASSIFY_N}")


def _definite(n: int, table) -> AlgebraDescriptor:
    return table[n % 8].tensor_matrices(16 ** (n // 8))


def classify(n: int, variant: str = "Cl") -> AlgebraDescriptor:
    """Normal form of Cl_n and its quaternionic/complex companions.

    variant: "Cl" (real), "CCl" (complexified), "Clh" (tensored with H),
    "CClh" (both).  n >= 8 is reduced mod 8 and padded with R(16) factors.
    n above MAX_CLASSIFY_N raises ValueError.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    _check_classify_n(n)
    desc = _definite(n, _CL_POS)
    if variant in ("Clh", "CClh"):
        desc = desc.tensor_quaternions()
    if variant in ("CCl", "CClh"):
        desc = desc.complexify()
    return desc


def classify_indefinite(r: int, s: int, quaternionic: bool = False) -> AlgebraDescriptor:
    """Normal form of Cl(r,s), optionally tensored with H.

    Uses the (1,1)-shift Cl(r+1,s+1) = Cl(r,s) (x) R(2) to reduce to a
    definite signature.  r + s above MAX_CLASSIFY_N raises ValueError.
    """
    if r < 0 or s < 0:
        raise ValueError("signature components must be nonnegative")
    _check_classify_n(r + s)
    m = min(r, s)
    r, s = r - m, s - m
    desc = _definite(r, _CL_POS) if s == 0 else _definite(s, _CL_NEG)
    desc = desc.tensor_matrices(2 ** m)
    if quaternionic:
        desc = desc.tensor_quaternions()
    return desc


# --------------------------------------------------------------------------
# graded tensor decomposition check
# --------------------------------------------------------------------------

# Largest m + n that graded_tensor_check accepts: it takes one signed pair
# product for each of the 2^(m+n) basis blades.
MAX_TENSOR_TOTAL = 12


def _pair_product(sig1: Signature, sig2: Signature, x: tuple[int, int, int],
                  y: tuple[int, int, int]) -> tuple[int, int, int]:
    """Product of signed basis pairs (s, a, b), meaning s * (e_a (x) e_b):
    the blade signs in each factor, then the Koszul sign (-1)^(|b1||a2|)."""
    s1, a1, b1 = x
    s2, a2, b2 = y
    sign1, a = blade_product(sig1, a1, a2)
    sign2, b = blade_product(sig2, b1, b2)
    koszul = -1 if b1.bit_count() & a2.bit_count() & 1 else 1
    return s1 * s2 * sign1 * sign2 * koszul, a, b


@_value_class
class GradedTensorReport:
    m: int
    n: int
    dimension: int
    relations_ok: bool
    basis_bijective: bool

    @property
    def passed(self) -> bool:
        return self.relations_ok and self.basis_bijective


def graded_tensor_check(m: int, n: int) -> GradedTensorReport:
    """Verify Cl_{m+n} = Cl_m (graded tensor) Cl_n on generators and blades.

    Sends e_i to e'_i(x)1 for i <= m and to 1(x)e''_{i-m} otherwise, checks
    the Clifford relations under the Koszul product, then checks that every
    basis blade maps to its closed-form image, a bijection onto the
    2^(m+n) basis pairs.  Every operand is one signed basis pair.  m + n
    above MAX_TENSOR_TOTAL raises ValueError.
    """
    if m < 0 or n < 0:
        raise ValueError("m, n must be nonnegative")
    if m + n > MAX_TENSOR_TOTAL:
        raise ValueError(f"m+n={m + n} exceeds blade enumeration cap {MAX_TENSOR_TOTAL}")
    sig1, sig2 = Signature(m, 0), Signature(n, 0)
    total = m + n
    low = (1 << m) - 1

    def pair(blade: int) -> tuple[int, int, int]:
        """The closed-form image of the ascending blade: its generators
        <= m come first and pass no odd element of the second factor, so
        the Koszul rule gives +1 (blade & low, blade >> m)."""
        return 1, blade & low, blade >> m

    def image(i: int) -> tuple[int, int, int]:
        return pair(1 << (i - 1))

    relations_ok = all(_pair_product(sig1, sig2, image(i), image(i)) == (-1, 0, 0)
                       for i in range(1, total + 1))
    for i in range(1, total + 1):
        for j in range(i + 1, total + 1):
            ij = _pair_product(sig1, sig2, image(i), image(j))
            ji = _pair_product(sig1, sig2, image(j), image(i))
            if ij[1:] != ji[1:] or ij[0] + ji[0]:
                relations_ok = False

    # The image of e_{i1}...e_{ik} (ascending) is the image of the blade
    # without its top generator times that generator's image, and by
    # induction over the blades the former is already its closed form.
    bijective = True
    for blade in range(1, 1 << total):
        top = blade.bit_length()
        if _pair_product(sig1, sig2, pair(blade ^ (1 << (top - 1))), image(top)) != pair(blade):
            bijective = False
            break

    return GradedTensorReport(m, n, 1 << total, relations_ok, bijective)
