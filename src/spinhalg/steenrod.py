"""Mod-2 polynomial algebra in Stiefel-Whitney generators with the
Steenrod square action.

The ambient ring is Z2[w2, w3, w4, ...] = H*(BSO; Z2) (oriented: w1 = 0).
Squares act on generators through Wu's explicit formula

    Sq^i(w_j) = sum_t binom(i - j, t) w_{i-t} w_{j+t}   (mod 2)

with the generalized binomial coefficient reduced mod 2, and extend to
products by the Cartan rule.  On top of that sit Wu classes (triangular
solve of Sq(v) = w), Adem reduction of Steenrod monomials to admissible
form, the antipode chi, degreewise ideal membership by F2 row reduction,
and the Poincare / Sq1-homology series of the quotient presentations of
the classifying-space cohomologies this package cares about.
"""

from __future__ import annotations

from functools import lru_cache, partial
from itertools import repeat
from typing import Iterable

from . import _is_digits, _require_int, _value_class

# A generator w_i is its index i.  A monomial is a tuple of
# (index, exponent) pairs sorted by index, every exponent at least 1.
Gen = int
Monomial = tuple[tuple[Gen, int], ...]

UNIT: Monomial = ()

# Largest Wu class degree that the CLI computes: `steenrod wu` and
# `verify-bspinh --max-degree`, and a factor v<k> in a parsed polynomial.
# The cost grows steeply with the degree: on one core of a 2-core Intel
# Xeon (Python 3.11.7), `wu_classes` takes 0.5-0.6 s / 67 MiB at 40,
# 1.3-1.7 s / 159 MiB at 44 and 3.1-5.3 s / 404 MiB at 48, and the CLI's
# `verify-bspinh --max-degree 40 --format json` 0.6-0.9 s / 42 MiB.
MAX_STEENROD_DEGREE = 40

# Most monomials a product in a parsed polynomial may reach, bounded before
# it is built: a factor p^e has at most len(p)^popcount(e) terms, since
# over F2 each power p^(2^j) has the terms of p.  On one core of an Intel
# Xeon (Python 3.11), v24^3 (bound 12,996) and v16^7 (17,576) parse and
# take Sq^1 in under a second; v32*v40 (827,388) took 17 s / 487 MiB and
# v16^15 (456,976) 45 s / 1.2 GB.
MAX_PRODUCT_TERMS = 20_000

# Most generators past BASE_INDEX that one Steenrod call may lay out.
# Sq^k of w_m reaches about 2k of them, and the layout's memory grows
# with the count: `sq --k 20000 --poly w40000` lays out about 40,000 in
# 24 MiB, `sq --k 1000000 --poly w1000000` about two million in 414 MiB.
MAX_LAYOUT_GENERATORS = 100_000

# Most products one `sq` call may form in its Cartan expansion, bounded
# before it starts by the recursion of the expansion with + in place of
# XOR.  On one core of an Intel Xeon (Python 3.11), the CLI's `sq --k 8
# --poly v40*v2` (bound 731,800) takes about 1.8 s and `--k 64 --poly
# w200*w300*w500` (305,469) about 3.8 s; without the cap, `--k 16 --poly
# v40*v2` (15.9 million) took 9.8 s, `--k 88 --poly w200*w300*w500`
# (1.03 million) 18.9 s, and `--k 40 --poly w2*w3*...*w12` (9.4e10)
# printed nothing within 30 s.
MAX_CARTAN_TERMS = 1_000_000

# Most distinct generators in one monomial that `sq` takes.  Its Cartan
# bound and its expansion each recurse once per distinct generator, which
# is two interpreter frames with the cache wrapper on Python 3.11, so from
# the CLI a monomial of 494 met the default recursion limit of 1000.  The
# cap leaves a caller about 200 frames of its own.
MAX_SQ_GENERATORS = 400


class DegreeCapExceeded(ValueError):
    """A linear-algebra request went past the configured degree cap."""


def binom2(a: int, t: int) -> int:
    """Generalized binomial coefficient binom(a, t) mod 2, a any integer.

    By Lucas's theorem binom(a, t) is odd for a >= 0 iff the bits of t are
    among those of a."""
    if t < 0:
        return 0
    if a < 0:
        # binom(-n, t) = (-1)^t binom(n+t-1, t); signs vanish mod 2
        a = t - a - 1
    return int(a & t == t)


def monomial_degree(mono: Monomial) -> int:
    return sum(i * e for i, e in mono)


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    out = dict(a)
    for g, e in b:
        out[g] = out.get(g, 0) + e
    return tuple(sorted(out.items()))


class StiefelWhitneyRing:
    """Z2[w_i | i >= 2] (oriented).  It carries no state, so its methods
    are static and the package calls them on the class."""

    @staticmethod
    def w(index: int) -> "F2Polynomial":
        """The class w_index, with w0 = 1 and w1 = 0."""
        _require_int("index", index)
        if index < 0:
            raise ValueError("generator index must be nonnegative")
        if index == 0:
            return StiefelWhitneyRing.one()
        if index == 1:
            return StiefelWhitneyRing.zero()
        return F2Polynomial(frozenset({((index, 1),)}))

    @staticmethod
    def zero() -> "F2Polynomial":
        return F2Polynomial(frozenset())

    @staticmethod
    def one() -> "F2Polynomial":
        return F2Polynomial(frozenset({UNIT}))

    @staticmethod
    def from_monomials(monomials: Iterable[Monomial]) -> "F2Polynomial":
        acc: set[Monomial] = set()
        for m in monomials:
            acc.symmetric_difference_update({m})
        return F2Polynomial(frozenset(acc))

    @staticmethod
    def monomial_basis(degree: int) -> list[Monomial]:
        """All monomials of the exact degree, graded-lex ordered."""
        return list(_monomial_basis(degree, 2))


@lru_cache(maxsize=None)
def _monomial_basis(remaining: int, index: int) -> tuple[Monomial, ...]:
    """Monomials of weight `remaining` in the generators from w_index on,
    highest exponent of w_index first; every degree shares its tails."""
    if remaining == 0:
        return (UNIT,)
    if index > remaining:
        # no later generator fits
        return ()
    out: list[Monomial] = []
    for e in range(remaining // index, -1, -1):
        head = ((index, e),) if e else UNIT
        out.extend(head + tail for tail in _monomial_basis(remaining - e * index, index + 1))
    return tuple(out)


class F2Polynomial:
    """F2 linear combination of monomials: a frozenset with symmetric
    difference as addition."""

    __slots__ = ("terms",)

    def __init__(self, terms: frozenset[Monomial]):
        object.__setattr__(self, "terms", terms)

    def __setattr__(self, *args):
        raise AttributeError("F2Polynomial is immutable")

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Top degree present; -1 for the zero polynomial."""
        return max((monomial_degree(m) for m in self.terms), default=-1)

    def is_homogeneous(self) -> bool:
        return len({monomial_degree(m) for m in self.terms}) <= 1

    def __add__(self, other):
        if not isinstance(other, F2Polynomial):
            return NotImplemented
        return F2Polynomial(self.terms ^ other.terms)

    def __mul__(self, other):
        if not isinstance(other, F2Polynomial):
            return NotImplemented
        acc: set[Monomial] = set()
        for a in self.terms:
            for b in other.terms:
                acc.symmetric_difference_update({_mono_mul(a, b)})
        return F2Polynomial(frozenset(acc))

    def __pow__(self, e: int) -> "F2Polynomial":
        """Square and multiply; a nonpositive exponent gives one."""
        out, base = F2Polynomial(frozenset({UNIT})), self
        while e > 0:
            if e & 1:
                out = out * base
            e >>= 1
            if e:
                # squaring over F2 doubles every exponent, and distinct
                # monomials have distinct squares, so nothing cancels
                base = F2Polynomial(frozenset(
                    tuple((g, 2 * f) for g, f in m) for m in base.terms))
        return out

    def __eq__(self, other):
        if not isinstance(other, F2Polynomial):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for m in sorted(self.terms, key=lambda m: (monomial_degree(m), m)):
            # a monomial lists its generators by index, the order printed
            factors = [f"w{i}" if e == 1 else f"w{i}^{e}" for i, e in m]
            bits.append("*".join(factors) or "1")
        return "+".join(bits)

    __repr__ = __str__


# --------------------------------------------------------------------------
# Steenrod squares on packed monomials
# --------------------------------------------------------------------------
#
# The Cartan kernels code a monomial as one int (Monagan-Pearce packed
# exponent vectors): a layout lists generators in slot order and fixes a
# field width, and the exponent of the generator in slot s sits in bits
# s * width .. (s + 1) * width - 1.  A product is then an integer add and
# Frobenius a doubling, as long as no field carries, so a layout's width
# holds every exponent the call that picks it can reach.

# Every layout holds all generators up to BASE_INDEX, so calls that stay
# below it share one layout per width, and with it their cache
# entries; above it a layout holds only the generators its call can reach,
# so that codes grow with k and not with the generator index.  The base
# serves wu_classes (up to degree MAX_STEENROD_DEGREE) and sq; the
# verify-bspinh relations and Sq1 homology take Sq^1 by Wu's formula and
# never enter the Cartan engine.  A larger base lengthens every code and
# raises the peak memory of large calls.
BASE_INDEX = MAX_STEENROD_DEGREE + 1


def _decode(gens: tuple[Gen, ...], width: int, code: int) -> Monomial:
    """The tuple monomial of a code, read from its highest field down."""
    out = []
    while code:
        shift = (code.bit_length() - 1) // width * width
        out.append((gens[shift // width], code >> shift))
        code &= (1 << shift) - 1
    out.reverse()
    return tuple(out)


class _Layout:
    """Generators in sorted slot order and a field width.  Made only by
    _layout, so equal layouts are one object and hash by identity."""

    __slots__ = ("gens", "slot", "width", "mask", "decode")

    def __init__(self, gens: tuple[Gen, ...], width: int):
        self.gens = gens
        self.slot = {g: s for s, g in enumerate(gens)}
        self.width = width
        self.mask = (1 << width) - 1
        # One monomial turns up in the squares of many others, so decoding
        # is cached.  Keyed by the bare int, the cache holds nothing the
        # garbage collector has to scan; it goes with the layout when the
        # module caches are cleared.
        self.decode = lru_cache(maxsize=None)(partial(_decode, gens, width))

    def encode(self, mono: Monomial) -> int:
        return sum(e << self.slot[g] * self.width for g, e in mono)

    def gen_code(self, index: int) -> int:
        """Code of w_index, with w0 = 1."""
        return 1 << self.slot[index] * self.width if index else 0


@lru_cache(maxsize=None)
def _layout(runs: tuple[tuple[int, int], ...], width: int) -> _Layout:
    # the runs lie above the base in increasing order
    high = [j for lo, hi in runs for j in range(lo, hi + 1)]
    return _Layout((*range(2, BASE_INDEX + 1), *high), width)


def _pick_layout(spans: Iterable[tuple[int, int]], bound: int) -> _Layout:
    """A layout for a call whose exponents stay at or below bound and whose
    generators past the base lie in spans, given as (lowest index, highest
    index); their parts above BASE_INDEX, merged into disjoint runs, are
    the layout's key."""
    runs: list[list[int]] = []
    for lo, hi in sorted(spans):
        lo = max(lo, BASE_INDEX + 1)
        if lo > hi:
            continue
        if runs and lo <= runs[-1][1] + 1:
            runs[-1][1] = max(runs[-1][1], hi)
        else:
            runs.append([lo, hi])
    count = sum(hi - lo + 1 for lo, hi in runs)
    if count > MAX_LAYOUT_GENERATORS:
        raise ValueError(f"the call reaches {count} generators past w{BASE_INDEX}, "
                         f"over the cap {MAX_LAYOUT_GENERATORS}")
    return _layout(tuple(map(tuple, runs)), bound.bit_length())


def _xor_sums(acc: set[int], left: Iterable[int], right: Iterable[int]) -> None:
    """Add every product of packed monomials a*b (a in left, b in right)
    into acc over F2; for one a the sums a + b are distinct."""
    for a in left:
        acc ^= {a + b for b in right}


@lru_cache(maxsize=None)
def _sq_power(layout: _Layout, slot: int, e: int, i: int) -> frozenset[int]:
    """Sq^i of the power g^e of the generator g in the slot, the degree-i
    part of the total square Sq(g^e) = Sq(g)^e: Frobenius halves an even
    exponent, since Sq^{2j}(x^2) = (Sq^j x)^2 and the odd squares of x^2
    vanish; an odd exponent takes one Cartan step against Wu's formula."""
    index = layout.gens[slot]
    if i == 0:
        return frozenset({e << slot * layout.width})
    if i > index * e:
        return frozenset()
    acc: set[int] = set()
    if e == 1:
        # Wu's formula on the generator itself; w_1 = 0 drops t = i - 1
        for t in range(0, i + 1):
            if binom2(i - index, t) and t != i - 1:
                acc ^= {layout.gen_code(i - t) + layout.gen_code(index + t)}
        return frozenset(acc)
    if e % 2 == 0:
        if i % 2:
            return frozenset()
        return frozenset(2 * c for c in _sq_power(layout, slot, e // 2, i // 2))
    for a in range(max(0, i - index * (e - 1)), min(i, index) + 1):
        left = _sq_power(layout, slot, 1, a)
        if left:
            _xor_sums(acc, left, _sq_power(layout, slot, e - 1, i - a))
    return frozenset(acc)


@lru_cache(maxsize=None)
def _sq_code(layout: _Layout, k: int, code: int, degree: int) -> frozenset[int]:
    """Sq^k of a packed monomial of the given degree: the Cartan rule
    splits off the whole power of its lowest generator."""
    if k == 0:
        return frozenset({code})
    if k > degree:
        return frozenset()
    slot = ((code & -code).bit_length() - 1) // layout.width
    e = code >> slot * layout.width & layout.mask
    power_degree = layout.gens[slot] * e
    rest, rest_degree = code - (e << slot * layout.width), degree - power_degree
    acc: set[int] = set()
    for i in range(max(0, k - rest_degree), min(k, power_degree) + 1):
        left = _sq_power(layout, slot, e, i)
        if left:
            _xor_sums(acc, left, _sq_code(layout, k - i, rest, rest_degree))
    return frozenset(acc)


@lru_cache(maxsize=None)
def _sq_monomial(k: int, mono: Monomial) -> frozenset[Monomial]:
    """Sq^k of one monomial, decoded once for every later caller."""
    degree = monomial_degree(mono)
    if k == 0:
        return frozenset({mono})
    if k > degree:
        return frozenset()
    # Sq^i(w_j) = sum_t w_{i-t} w_{j+t} reaches indices in [2, k] and
    # [j, j + k]; every generator has degree >= 2 and Sq turns each factor
    # into at most two.
    spans = [(lo, hi) for index, _ in mono for lo, hi in ((2, k), (index, index + k))
             if hi > BASE_INDEX]
    layout = _pick_layout(spans, min((degree + k) // 2, 2 * sum(e for _, e in mono)))
    return frozenset(map(layout.decode, _sq_code(layout, k, layout.encode(mono), degree)))


def _count_disjoint(n: int, mask: int) -> int:
    """How many t in [0, n] share no bit with mask, n >= 0, read off the
    bits of n from the top: where n has a 1, the t that agree with n above
    and put a 0 there are free on the bits below that mask leaves open."""
    count = 0
    for b in reversed(range(n.bit_length())):
        if n >> b & 1:
            count += 1 << (b - (mask & ((1 << b) - 1)).bit_count())
            if mask >> b & 1:
                return count
    return count + 1


@lru_cache(maxsize=None)
def _power_terms(index: int, e: int, i: int) -> int:
    """Bound on the products _sq_power forms for Sq^i(w_index^e), counted
    by its recursion with + in place of XOR; a count past MAX_CARTAN_TERMS
    is stored as MAX_CARTAN_TERMS + 1."""
    if i == 0:
        return 1
    if i > index * e:
        return 0
    if e == 1:
        if i == index:
            return 1  # Sq^j w_j = w_j^2
        # Wu's formula below the top: binom(i - j, t) = binom(j - i + t - 1, t)
        # mod 2 is odd iff t & (j - i - 1) == 0 (Kummer), and t = i - 1
        # meets w_1 = 0
        mask = index - i - 1
        return _count_disjoint(i, mask) - ((i - 1) & mask == 0)
    if e % 2 == 0:
        return 0 if i % 2 else _power_terms(index, e // 2, i // 2)
    return min(sum(_power_terms(index, 1, a) * _power_terms(index, e - 1, i - a)
                   for a in range(max(0, i - index * (e - 1)), min(i, index) + 1)),
               MAX_CARTAN_TERMS + 1)


@lru_cache(maxsize=None)
def _cartan_terms(k: int, mono: Monomial) -> int:
    """Bound on the products the Cartan expansion of Sq^k(mono) forms:
    the recursion of _sq_code, which splits off the power of the lowest
    generator, counted with + in place of XOR and capped like _power_terms.
    It stops once the count passes the cap, which bounds its own cost for
    large k over several generators."""
    if k == 0:
        return 1
    degree = monomial_degree(mono)
    if k > degree:
        return 0
    (index, e), rest = mono[0], mono[1:]
    power_degree = index * e
    # a plain loop, so that the recursion takes one frame per generator,
    # as _sq_code's does
    total = 0
    for i in range(max(0, k - degree + power_degree), min(k, power_degree) + 1):
        left = _power_terms(index, e, i)
        if left:
            total += left * _cartan_terms(k - i, rest)
            if total > MAX_CARTAN_TERMS:
                return MAX_CARTAN_TERMS + 1
    return total


def sq(k: int, p: F2Polynomial) -> F2Polynomial:
    """k-th Steenrod square, extended by Cartan's formula."""
    if k < 0:
        raise ValueError("Steenrod squares are indexed by nonnegative integers")
    widest = max(map(len, p.terms), default=0)
    if widest > MAX_SQ_GENERATORS:
        raise ValueError(f"a monomial has {widest} distinct generators, "
                         f"over the cap {MAX_SQ_GENERATORS}")
    if sum(map(_cartan_terms, repeat(k), p.terms)) > MAX_CARTAN_TERMS:
        raise ValueError(f"the Cartan expansion of Sq^{k} may form more than "
                         f"{MAX_CARTAN_TERMS} products, over the cap")
    acc: set[Monomial] = set()
    for mono in p.terms:
        acc.symmetric_difference_update(_sq_monomial(k, mono))
    return F2Polynomial(frozenset(acc))


def wu_classes(max_degree: int) -> list[F2Polynomial]:
    """Wu classes v_0..v_max solving Sq(v) = w degree by degree.

    The triangular system v_k = w_k + sum_{i>=1} Sq^i(v_{k-i}) determines
    each class uniquely.  With w_1 = 0 every odd class vanishes (on a
    closed oriented manifold Sq^{2i+1} = Sq^1 Sq^{2i} is zero into the top
    degree), so only even k are solved, and only the even i meet a nonzero
    v_{k-i}; the tests check the odd equations on the result."""
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    # v_k has degree k: no index passes k and no exponent k // 2
    layout = _pick_layout([(2, max_degree)], max_degree // 2)
    nu: list[set[int]] = [{0}]
    for k in range(1, max_degree + 1):
        terms = set()
        if k % 2 == 0:
            terms.add(layout.gen_code(k))
            for i in range(2, k, 2):
                for code in nu[k - i]:
                    terms ^= _sq_code(layout, i, code, k - i)
        nu.append(terms)
    return [F2Polynomial(frozenset(map(layout.decode, terms))) for terms in nu]


# --------------------------------------------------------------------------
# Steenrod monomials: Adem reduction and the antipode
# --------------------------------------------------------------------------

SteenrodMonomial = tuple[int, ...]


def _normalize(mono: Iterable[int]) -> SteenrodMonomial:
    out = tuple(i for i in mono if i != 0)
    if any(i < 0 for i in out):
        raise ValueError("negative Steenrod index")
    return out


@lru_cache(maxsize=None)
def adem_reduce(mono: SteenrodMonomial) -> frozenset[SteenrodMonomial]:
    """Rewrite Sq^{i1}...Sq^{ik} as an F2 sum of admissible monomials
    using the Adem relations
    Sq^a Sq^b = sum_c binom(b-c-1, a-2c) Sq^{a+b-c} Sq^c  for a < 2b."""
    mono = _normalize(mono)
    for pos in range(len(mono) - 1):
        a, b = mono[pos], mono[pos + 1]
        if a >= 2 * b:
            continue
        head, tail = mono[:pos], mono[pos + 2:]
        acc: dict[SteenrodMonomial, int] = {}
        for c in range(0, a // 2 + 1):
            upper, t = b - c - 1, a - 2 * c
            if binom2(upper, t):
                replacement = (a + b - c,) + ((c,) if c else ())
                for reduced in adem_reduce(head + replacement + tail):
                    acc[reduced] = acc.get(reduced, 0) ^ 1
        return frozenset(m for m, parity in acc.items() if parity)
    return frozenset({mono})


@lru_cache(maxsize=None)
def chi_sq(k: int) -> frozenset[SteenrodMonomial]:
    """Antipode of Sq^k, as an admissible F2 sum, from the recursion
    chi(Sq^n) = sum_{i=1..n} Sq^i chi(Sq^{n-i})."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        return frozenset({()})
    acc: dict[SteenrodMonomial, int] = {}
    for i in range(1, k + 1):
        for tail in chi_sq(k - i):
            for reduced in adem_reduce((i,) + tail):
                acc[reduced] = acc.get(reduced, 0) ^ 1
    return frozenset(m for m, parity in acc.items() if parity)


def apply_monomial(mono: SteenrodMonomial, p: F2Polynomial) -> F2Polynomial:
    """Evaluate Sq^{i1}...Sq^{ik} on a polynomial, rightmost factor first."""
    out = p
    for i in reversed(_normalize(mono)):
        out = sq(i, out)
    return out


def apply_operation(ops: Iterable[SteenrodMonomial], p: F2Polynomial) -> F2Polynomial:
    """Evaluate an F2 sum of Steenrod monomials."""
    out = F2Polynomial(frozenset())
    for mono in ops:
        out = out + apply_monomial(mono, p)
    return out


# --------------------------------------------------------------------------
# graded ideals over F2
# --------------------------------------------------------------------------

def _reduce_row(row: int, rows: list[int], pivots: dict[int, int]) -> int:
    # Eliminate every pivot column present, not just the leading one, so
    # the row ends up a canonical coset representative.  Stored rows have
    # their pivot as leading bit, so the XOR at bit b changes only lower
    # bits, and one top-down pass, re-read below b after each step, clears
    # every pivot column.
    bits = row
    while bits:
        b = bits.bit_length() - 1
        hit = pivots.get(b)
        if hit is not None:
            row ^= rows[hit]
        bits = row & ((1 << b) - 1)
    return row


def _echelon(rows: Iterable[int]) -> tuple[list[int], dict[int, int]]:
    """Reduce F2 rows packed in ints, keeping each row that survives;
    returns the kept rows and the map pivot column -> row number."""
    kept: list[int] = []
    pivots: dict[int, int] = {}
    for row in rows:
        row = _reduce_row(row, kept, pivots)
        if row:
            pivots[row.bit_length() - 1] = len(kept)
            kept.append(row)
    return kept, pivots


class _Slice:
    """One degree of a GradedIdeal's row-reduced basis."""

    def __init__(self, monomials: list[Monomial], index: dict[Monomial, int],
                 rows: list[int], pivots: dict[int, int],
                 products: list[tuple[Monomial, int]], width: int):
        self.monomials = monomials
        self.index = index
        self.rows = rows          # reduced rows of monomial bits
        self.pivots = pivots      # pivot bit position -> row number
        self.products = products  # (multiplier, generator number)
        self.width = width        # number of monomial columns


class GradedIdeal:
    """Ideal of a Stiefel-Whitney ring given by homogeneous generators,
    with a per-degree row-reduced basis cache.

    Rows are packed into Python ints, one bit per monomial of the degree.
    Filling the slice cache is the only mutation; queries afterwards are
    read-only.
    """

    def __init__(self, generators: Iterable[F2Polynomial], degree_cap: int):
        self.generators = [g for g in generators if not g.is_zero()]
        if not all(g.is_homogeneous() for g in self.generators):
            raise ValueError("ideal generators must be homogeneous")
        self.degree_cap = degree_cap
        self._slices: dict[int, _Slice] = {}

    def slice(self, degree: int) -> _Slice:
        if degree > self.degree_cap:
            raise DegreeCapExceeded(
                f"degree {degree} exceeds cap {self.degree_cap}")
        cached = self._slices.get(degree)
        if cached is not None:
            return cached
        monomials = StiefelWhitneyRing.monomial_basis(degree)
        index = {m: i for i, m in enumerate(monomials)}
        width = len(monomials)
        products: list[tuple[Monomial, int]] = []
        raw_rows: list[int] = []
        for gnum, g in enumerate(self.generators):
            gdeg = g.degree()
            if gdeg > degree:
                continue
            for mult in StiefelWhitneyRing.monomial_basis(degree - gdeg):
                bits = 0
                for mono in g.terms:
                    bits ^= 1 << index[_mono_mul(mult, mono)]
                products.append((mult, gnum))
                raw_rows.append(bits)
        rows, pivots = _echelon(raw_rows)
        sl = _Slice(monomials, index, rows, pivots, products, width)
        self._slices[degree] = sl
        return sl


def ideal_membership(p: F2Polynomial, ideal: GradedIdeal) -> bool:
    """Whether a homogeneous polynomial lies in the degree slice of the
    ideal."""
    if p.is_zero():
        return True
    if not p.is_homogeneous():
        raise ValueError("membership test expects a homogeneous polynomial")
    sl = ideal.slice(p.degree())
    # the slice indexes every monomial of its degree
    row = 0
    for mono in p.terms:
        row ^= 1 << sl.index[mono]
    # reduced, the row is p's canonical coset representative
    return not _reduce_row(row, sl.rows, sl.pivots)


# --------------------------------------------------------------------------
# quotient models of classifying-space cohomology
# --------------------------------------------------------------------------

def free_subalgebra_series(allowed_degrees: Iterable[int], max_degree: int) -> list[int]:
    """Poincare series of a free commutative F2 algebra with one
    generator per listed degree (repeats mean several generators):
    product of 1/(1-t^d)."""
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    series = [0] * (max_degree + 1)
    series[0] = 1
    for d in sorted(allowed_degrees):
        if d < 1:
            raise ValueError("generator degrees must be positive")
        if d > max_degree:
            continue
        for k in range(d, max_degree + 1):
            series[k] += series[k - d]
    return series


# kind -> (low relations, degrees of its rational generators besides the
# Pontryagin classes: c1 for spin^c, p1' of the SO(3) bundle for spin^h).
# A relation is (degree it kills, Wu class it reads): v_2 = w2 itself kills
# 2, and Sq1 v_p, whose one linear term is w_{p+1}, kills p + 1.
KINDS = {
    "spin": (((2, 2), (3, 2)), ()),
    "spinc": (((3, 2),), (2,)),
    "spinh": ((), (4,)),
}


@_value_class
class QuotientModel:
    """A quotient of Z2[w2, w3, ...] by Sq1-of-Wu-class relations, paired
    with the free subalgebra predicted to survive."""

    kind: str
    max_degree: int
    ideal: GradedIdeal  # compared by identity: an ideal has no value equality
    allowed_degrees: tuple[int, ...] = ()

    def poincare_series(self) -> list[int]:
        """Dimensions of (ambient ring / ideal) per degree, 0..max_degree."""
        return [sl.width - len(sl.rows)
                for sl in map(self.ideal.slice, range(self.max_degree + 1))]

    def free_series(self) -> list[int]:
        return free_subalgebra_series(self.allowed_degrees, self.max_degree)


def bso_quotient_model(kind: str, max_degree: int) -> QuotientModel:
    """Quotient presentation of the classifying-space cohomology of a kind
    in KINDS: its low relations, then Sq1 v_{2^k} for k >= 2.

    Relation generators whose degree exceeds max_degree + 1 cannot meet
    the window and are omitted."""
    if kind not in KINDS:
        raise ValueError("kind must be spinh, spin or spinc")
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    top = max_degree + 1  # slices up to here are used by Sq1-homology
    shared = [(p + 1, p) for p in (1 << k for k in range(2, top.bit_length()))]
    relations = [(d, p) for d, p in (*KINDS[kind][0], *shared) if d <= top]
    # The ideal and the predicted generator degrees both come from the
    # relations, the degrees from the indices and not from the polynomials,
    # so a relation that comes out wrong shows in the series comparison.
    # v_k depends only on the lower classes, so the solve stops at the
    # highest class a relation reads.
    nu = wu_classes(max((p for _, p in relations), default=0))
    ideal = GradedIdeal([nu[p] if d == p else _sq1(nu[p]) for d, p in relations],
                        degree_cap=top)
    killed = {d for d, _ in relations}
    allowed = tuple(d for d in range(2, max_degree + 1) if d not in killed)
    return QuotientModel(kind, max_degree, ideal, allowed)


def _sq1_monomial(mono: Monomial) -> list[Monomial]:
    """The terms of Sq^1 of one monomial.  Sq^1 is a derivation, and Wu's
    formula with w_1 = 0 gives Sq^1 w_2j = w_{2j+1}, Sq^1 w_{2j+1} = 0: each
    odd power of an even-index generator trades one w_2j for w_{2j+1}.
    Distinct generators give distinct terms, so nothing cancels."""
    out = []
    for index, e in mono:
        if index % 2 or e % 2 == 0:
            continue
        image = dict(mono)
        image[index] -= 1
        image[index + 1] = image.get(index + 1, 0) + 1
        out.append(tuple(sorted((g, f) for g, f in image.items() if f)))
    return out


def _sq1(p: F2Polynomial) -> F2Polynomial:
    return StiefelWhitneyRing.from_monomials(
        image for mono in p.terms for image in _sq1_monomial(mono))


def sq1_homology_series(model: QuotientModel) -> list[int]:
    """Per-degree dimension of ker Sq1 / im Sq1 on the quotient model,
    computed by honest linear algebra."""
    ideal = model.ideal
    # Sq1 sends the quotient basis of degree d, the non-pivot monomials of
    # its slice, to rows of slice d + 1 reduced to coset representatives;
    # ranks[d] is the rank of those rows out of degree d - 1.
    slices = [ideal.slice(d) for d in range(0, model.max_degree + 2)]
    ranks = [0]
    for sl, target in zip(slices, slices[1:]):
        rows = []
        for i, mono in enumerate(sl.monomials):
            if i not in sl.pivots:
                bits = 0
                for image in _sq1_monomial(mono):
                    bits ^= 1 << target.index[image]
                rows.append(_reduce_row(bits, target.rows, target.pivots))
        ranks.append(len(_echelon(rows)[0]))
    # kernel out of degree d minus the image into it
    return [sl.width - len(sl.rows) - ranks[d + 1] - ranks[d]
            for d, sl in enumerate(slices[:-1])]


def sq1_homology_oracle(model: QuotientModel) -> list[int]:
    """Poincare series of the rational cohomology of the model's kind
    through its degree: Q[p1, p2, ...], with p_k in degree 4k, and the
    kind's extra generators from KINDS.  It reads no relation and no
    slice.  Where all torsion of the integral cohomology has order 2, the
    Sq1 homology has this series."""
    extras = KINDS[model.kind][1]
    return free_subalgebra_series([*range(4, model.max_degree + 1, 4), *extras],
                                  model.max_degree)


# --------------------------------------------------------------------------
# polynomial text grammar (CLI surface): w<i>, v<i>, +, *, ^
# --------------------------------------------------------------------------

def parse_polynomial(text: str) -> F2Polynomial:
    text = text.replace(" ", "")
    if not text:
        raise ValueError("empty polynomial")
    if text == "0":
        return StiefelWhitneyRing.zero()
    total = StiefelWhitneyRing.zero()
    nu: list[F2Polynomial] = []  # one solve serves every v<k> of the text
    for term in text.split("+"):
        if not term:
            raise ValueError("empty term in polynomial")
        factor_total = StiefelWhitneyRing.one()
        for factor in term.split("*"):
            base, caret, exp = factor.partition("^")
            if caret and not _is_digits(exp.removeprefix("-")):
                raise ValueError(f"cannot parse factor {factor!r}")
            e = int(exp) if caret else 1
            if e < 0:
                raise ValueError("negative exponent")
            if base == "1":
                poly = StiefelWhitneyRing.one()
            elif base[:1] == "w" and _is_digits(base[1:]):
                poly = StiefelWhitneyRing.w(int(base[1:]))
            elif base[:1] == "v" and _is_digits(base[1:]):
                k = int(base[1:])
                if k > MAX_STEENROD_DEGREE:
                    raise ValueError(f"Wu class v{k} has degree {k}, "
                                     f"over the cap {MAX_STEENROD_DEGREE}")
                if len(nu) <= k:
                    nu = wu_classes(k)
                poly = nu[k]
            else:
                raise ValueError(f"cannot parse factor {factor!r}")
            bound = len(factor_total.terms) * len(poly.terms) ** e.bit_count()
            if bound > MAX_PRODUCT_TERMS:
                raise ValueError(f"the product up to {factor!r} may reach {bound} "
                                 f"terms, over the cap {MAX_PRODUCT_TERMS}")
            factor_total = factor_total * poly ** e
        total = total + factor_total
    return total
