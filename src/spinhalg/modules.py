"""Classification data for Z2-graded Clifford modules.

Fundamental module dimensions, Grothendieck groups of graded modules
over R/C/H (with the dimension-shift quotients that K-theory sees),
scalar extension/restriction between the three base fields, graded
tensor identities, and the bigraded indefinite-signature tables.

Modules are tracked as labels; fundamental_dimension reads their real
dimensions off the normal forms of clifford.classify, and no matrix
actions are ever built.  Everything downstream consumes
equivalence-class data only.
"""

from __future__ import annotations

from enum import Enum

from . import _value_class

FIELDS = ("R", "C", "H")


class UnsupportedChange(ValueError):
    """Functor/label combination outside the classified identity families."""


# --------------------------------------------------------------------------
# abelian group expressions
# --------------------------------------------------------------------------

_TOKEN_ORDER = {"Q": 0, "Q/Z": 1, "Z": 2}


@_value_class
class AbGroupExpr:
    """Direct sum of Z, Q, Q/Z and finite cyclic factors.

    Summands are tokens: the strings "Z", "Q", "Q/Z" or an integer m >= 2
    standing for Z_m.  Canonical order: divisible and free factors first,
    torsion ascending.
    """

    summands: tuple = ()

    def __post_init__(self):
        for t in self.summands:
            if isinstance(t, str):
                if t not in _TOKEN_ORDER:
                    raise ValueError(f"unknown summand {t!r}")
            elif not (isinstance(t, int) and t >= 2):
                raise ValueError(f"bad torsion order {t!r}")
        object.__setattr__(self, "summands", self._canonical(self.summands))

    @staticmethod
    def _canonical(parts) -> tuple:
        named = sorted((t for t in parts if isinstance(t, str)),
                       key=_TOKEN_ORDER.__getitem__)
        torsion = sorted(t for t in parts if isinstance(t, int))
        return tuple(named) + tuple(torsion)

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls) -> "AbGroupExpr":
        return cls(())

    @classmethod
    def free(cls, rank: int = 1) -> "AbGroupExpr":
        return cls(("Z",) * rank)

    @classmethod
    def cyclic(cls, m: int) -> "AbGroupExpr":
        return cls((m,))

    # -- queries --------------------------------------------------------------

    @property
    def rank(self) -> int:
        return sum(1 for t in self.summands if t == "Z")

    @property
    def torsion(self) -> tuple[int, ...]:
        return tuple(t for t in self.summands if isinstance(t, int))

    def is_zero(self) -> bool:
        return not self.summands

    def __add__(self, other: "AbGroupExpr") -> "AbGroupExpr":
        return AbGroupExpr(self.summands + other.summands)

    def __str__(self):
        if not self.summands:
            return "0"
        return "+".join(t if isinstance(t, str) else f"Z{t}" for t in self.summands)


_Z = AbGroupExpr.free()
_Z2 = AbGroupExpr.cyclic(2)
_0 = AbGroupExpr.zero()


# --------------------------------------------------------------------------
# fundamental module dimensions
# --------------------------------------------------------------------------

def fundamental_dimension(n: int, field: str) -> int:
    """Real dimension of the fundamental Z2-graded module over Cl_n:
    twice an irreducible ungraded module over Cl_{n-1} carrying a
    compatible field structure, read off the matrix normal form.

    n above MAX_CLASSIFY_N raises ValueError, as in classify.
    """
    if field not in FIELDS:
        raise ValueError(f"field must be one of {FIELDS}")
    if n < 1:
        raise ValueError("graded fundamental modules are indexed from n = 1")
    from .clifford import _check_classify_n, classify
    _check_classify_n(n)
    variant = {"R": "Cl", "C": "CCl", "H": "Clh"}[field]
    return 2 * classify(n - 1, variant).irreducible_real_dimension


# --------------------------------------------------------------------------
# Grothendieck group tables
# --------------------------------------------------------------------------

# KO_n(pt) for n mod 8.  Atiyah-Bott-Shapiro identify N_n over R with
# KO_n(pt) and N_n over H with KSp_n(pt) = KO_{n+4}(pt); ktheory reads its
# coefficient tables through ngroup.
_KO = (_Z, _Z2, _Z2, _0, _Z, _0, _0, _0)


def ngroup(n: int, field: str, h: bool = False) -> AbGroupExpr:
    """The graded-module Grothendieck group N_n over the chosen field,
    i.e. graded modules modulo restrictions from one dimension up.

    Period 8 over R and H, period 2 over C.  The h flag asks for modules
    over the quaternionified algebra with complex scalars, which changes
    nothing (the two module categories are equivalent)."""
    if field not in FIELDS:
        raise ValueError(f"field must be one of {FIELDS}")
    if n < 0:
        raise ValueError("n must be nonnegative")
    if h and field != "C":
        raise ValueError("the h variant only applies to complex scalars")
    if field == "C":
        return _Z if n % 2 == 0 else _0
    return _KO[(n if field == "R" else n + 4) % 8]


@_value_class
class BigradedIndex:
    r: int
    s: int
    field: str

    def __post_init__(self):
        if self.r < 0 or self.s < 0:
            raise ValueError("bigraded indices must be nonnegative")
        if self.field not in ("R", "H"):
            raise ValueError("bigraded tables cover R and H only")


def ngroup_bigraded(idx: BigradedIndex) -> AbGroupExpr:
    """N_{r,s} via (1,1)-periodicity: only r - s matters, mod 8."""
    return ngroup((idx.r - idx.s) % 8, idx.field)


# --------------------------------------------------------------------------
# module labels and scalar change
# --------------------------------------------------------------------------

@_value_class
class ModuleLabel:
    """A fundamental Z2-graded module over Cl_n: Delta_n over R, C or H,
    with a sign when the volume element splits it (n = 0 mod 4 over R/H,
    n even over C)."""

    n: int
    field: str
    sign: str | None = None

    def __post_init__(self):
        if self.field not in FIELDS:
            raise ValueError(f"field must be one of {FIELDS}")
        if self.n < 1:
            raise ValueError("labels are indexed from n = 1")
        if self.sign not in (None, "+", "-"):
            raise ValueError("sign must be '+', '-' or None")
        if (self.sign is not None) != self.splits():
            want = "a sign" if self.splits() else "no sign"
            raise ValueError(f"Delta_{self.n} over {self.field} takes {want}")

    def splits(self) -> bool:
        if self.field == "C":
            return self.n % 2 == 0
        return self.n % 4 == 0

    def __str__(self):
        return f"Delta_{self.n}{self.sign or ''}({self.field})"


def bold_selection(n: int, field: str) -> ModuleLabel:
    """The preferred fundamental module: sign + for n = 0 mod 8, - for
    n = 4 mod 8 over R/H; + for even n over C; unsigned otherwise."""
    if field == "C":
        sign = "+" if n % 2 == 0 else None
    else:
        sign = None if n % 4 else ("+" if n % 8 == 0 else "-")
    return ModuleLabel(n, field, sign)


class ScalarChange(Enum):
    """Scalar extension (Ind) and restriction (Res) between base fields.

    Value: (source field, target field).  Where scalar_change applies, an
    induction (n = 0 mod 8) doubles the real dimension of a fundamental
    module and a restriction (n = 4 mod 8) keeps it."""

    IND_R_C = ("R", "C")
    RES_C_H = ("H", "C")
    RES_R_C = ("C", "R")
    IND_C_H = ("C", "H")

    @property
    def source(self):
        return self.value[0]

    @property
    def target(self):
        return self.value[1]


_FLIP = {"+": "-", "-": "+"}


def scalar_change(label: ModuleLabel, functor: ScalarChange) -> ModuleLabel:
    """Move a fundamental module across base fields.

    n = 4 mod 8: the two restrictions act, flipping the sign
    (Delta+-(H) -> Delta-+(C) -> Delta+-(R)).
    n = 0 mod 8: the two inductions act, preserving the sign.
    Any other combination does not send a fundamental module to a
    fundamental module and is rejected.
    """
    if label.field != functor.source:
        raise UnsupportedChange(
            f"{functor.name} does not apply to {label.field}-modules")
    if label.n % 4 != 0:
        raise UnsupportedChange("scalar change classified only for n = 0 mod 4")
    residue = label.n % 8
    if residue == 4:
        if functor not in (ScalarChange.RES_C_H, ScalarChange.RES_R_C):
            raise UnsupportedChange(
                f"{functor.name} is not fundamental-to-fundamental at n = 4 mod 8")
        return ModuleLabel(label.n, functor.target, _FLIP[label.sign])
    if functor not in (ScalarChange.IND_R_C, ScalarChange.IND_C_H):
        raise UnsupportedChange(
            f"{functor.name} is not fundamental-to-fundamental at n = 0 mod 8")
    return ModuleLabel(label.n, functor.target, label.sign)


# --------------------------------------------------------------------------
# graded tensor identities
# --------------------------------------------------------------------------

@_value_class
class GradedProductResult:
    label: ModuleLabel
    multiplicity: int = 1  # trivial R^multiplicity factor


def graded_product(a: ModuleLabel, b: ModuleLabel) -> GradedProductResult:
    """Graded tensor product of fundamental modules, in the three families
    where the answer is again fundamental:

    (i)   Delta+_8(R) (x) Delta_n(K) = Delta_{n+8}(K) for K = R, H;
    (ii)  Delta_n(R) (x) Delta+_4(H) = Delta_{n+4}(H);
    (iii) Delta_n(H) (x) Delta+_4(H) = Delta_{n+4}(R) (x) R^4.

    Signs ride along whenever the input carries one.
    """
    if a == ModuleLabel(8, "R", "+") and b.field in ("R", "H"):
        return GradedProductResult(ModuleLabel(b.n + 8, b.field, b.sign))
    if b == ModuleLabel(4, "H", "+"):
        if a.field == "R":
            return GradedProductResult(ModuleLabel(a.n + 4, "H", a.sign))
        if a.field == "H":
            return GradedProductResult(ModuleLabel(a.n + 4, "R", a.sign), multiplicity=4)
    raise UnsupportedChange(
        f"{a} (x) {b} is not one of the classified identity families")


# --------------------------------------------------------------------------
# bimodule decompositions of Cl^h_n
# --------------------------------------------------------------------------

@_value_class
class BimoduleReport:
    """Cl^h_n written as (left fundamental) (x)_K (right fundamental),
    with a 1/2 multiplicity in the residue-0 case."""

    n: int
    tensor_field: str      # base field of the tensor product
    half: bool             # True: one half of the complex bimodule
    factor_dimension: int  # real dimension of each tensor factor
    algebra_dimension: int
    dimension_identity_holds: bool


def bimodule_decomposition(n: int) -> BimoduleReport:
    """Tensor shape of the canonical bimodule Cl^h_n over itself.

    Defined for n = 0, 4, 5, 6 mod 8: the tensor is over C, R, C, H
    respectively, with a 1/2 multiplicity when n = 0 mod 8 (where the
    factors are the complex fundamentals, of real dimension twice the
    complex table entry)."""
    from .clifford import _FIELD_DIM
    residue = n % 8
    if residue not in (0, 4, 5, 6):
        raise UnsupportedChange("decomposition classified for n = 0,4,5,6 mod 8 only")
    if n < 4:
        raise ValueError("need n >= 4")
    algebra_dim = 2 ** (n + 2)  # dim Cl^h_n = 4 * 2^n
    if residue == 0:
        field, half = "C", True
        factor = 2 * fundamental_dimension(n, "C")
    else:
        field, half = {4: "R", 5: "C", 6: "H"}[residue], False
        factor = fundamental_dimension(n, "H")
    product = factor * factor // _FIELD_DIM[field]
    if half:
        product //= 2
    return BimoduleReport(n, field, half, factor, algebra_dim,
                          product == algebra_dim)
