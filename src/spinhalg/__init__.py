"""Exact computational toolkit for Clifford algebras, graded Clifford
modules, characteristic-class power series, the mod-2 Steenrod action on
Stiefel-Whitney classes, and Bott-periodic K-theory coefficient tables.

All arithmetic is exact (rationals or F2); nothing here touches floats.

`import spinhalg` loads no submodule: each public name below, and each
family module, is imported on first use (PEP 562), so a CLI subcommand
pays only for the family it runs.  The families' immutable value types
come from `_value_class` below, not from the standard dataclass
decorator: its module imports `inspect`, and it `exec`s source for each
class, costs that every short CLI process would pay again.
"""

from importlib import import_module as _import_module
from math import lcm as _lcm
from operator import attrgetter as _attrgetter

# public name -> submodule that defines it
_SUBMODULE = {
    name: module
    for module, names in {
        "clifford": (
            "AlgebraDescriptor",
            "CliffordElement",
            "Signature",
            "SignatureMismatch",
            "classify",
            "classify_indefinite",
            "graded_tensor_check",
            "volume_element",
            "volume_square_sign",
        ),
        "modules": (
            "AbGroupExpr",
            "BigradedIndex",
            "ModuleLabel",
            "ScalarChange",
            "bimodule_decomposition",
            "bold_selection",
            "fundamental_dimension",
            "graded_product",
            "ngroup",
            "ngroup_bigraded",
            "scalar_change",
        ),
        "series": (
            "GradedSeries",
            "a_hat_series",
            "chebyshev_theta",
            "cosh_sqrt_series",
            "genus_4manifold",
            "hp_pairing_binomial",
            "hp_pairing_matrix",
            "hp_pairing_residue",
        ),
        "steenrod": (
            "F2Polynomial",
            "GradedIdeal",
            "StiefelWhitneyRing",
            "adem_reduce",
            "bso_quotient_model",
            "chi_sq",
            "ideal_membership",
            "sq",
            "sq1_homology_series",
            "wu_classes",
        ),
        "ktheory": (
            "CoefficientRing",
            "FGAbelianGroup",
            "ZkIndexInput",
            "aind_classify",
            "dual_group",
            "k_coefficients",
            "zk_index",
            "zk_sphere_group",
        ),
    }.items()
    for name in names
}

# the family modules too: the eager package bound them as a side effect,
# so `from spinhalg import *` gave them
__all__ = [*dict.fromkeys(_SUBMODULE.values()), *_SUBMODULE]

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULE.values():
        # `spinhalg.steenrod` without `import spinhalg.steenrod` first
        return _import_module(f".{name}", __name__)
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_SUBMODULE[name]}", __name__), name)
    globals()[name] = value
    return value


def _is_digits(text: str) -> bool:
    """A nonempty run of ASCII digits; str.isdigit alone also passes the
    digits of other scripts, which int() reads as numbers."""
    return text.isascii() and text.isdigit()


def _require_int(name: str, value) -> None:
    """Refuse a value that is not an int with TypeError naming it: a float
    or a Fraction equal to an integer is refused as well."""
    if not isinstance(value, int):
        raise TypeError(f"{name} = {value!r} is a {type(value).__name__}; pass an int")


def _exact_reader(fraction):
    """The reader of exact scalars for a family, which passes its own
    Fraction class so that `import spinhalg` loads no `fractions`.

    The reader takes an int or a Fraction to a Fraction and refuses
    anything else with TypeError: Fraction() alone also reads a float
    (0.1 as 3602879701896397/36028797018963968), a Decimal and text, and
    the exact types guess no rational."""
    # int first: isinstance(an int, Fraction) would ask numbers.Rational's ABC
    exact = (int, fraction)

    def read(value):
        if isinstance(value, exact):
            return fraction(value)
        raise TypeError(f"{value!r} is a {type(value).__name__}; pass an int or a Fraction")

    return read


def _numerators(values) -> tuple[int, list[int]]:
    """Common denominator d of a sequence of Fractions and their integer
    numerators over d."""
    d = _lcm(*(c.denominator for c in values))
    return d, [c.numerator * (d // c.denominator) for c in values]


def _value_class(cls):
    """Decorate an immutable value type, as `@dataclass(frozen=True)` did.

    The fields are the class's own annotations in order, and a class-level
    value is a field's default.  The class gets an `__init__` taking the
    fields by position or keyword that then calls `__post_init__` if the
    class has one; the dataclass `repr`; `__eq__` between instances of the
    same class and `__hash__`, both over the fields; and a
    `__setattr__`/`__delattr__` that raise AttributeError (`__post_init__`
    normalises through `object.__setattr__`).  Built from closures, with
    no `exec`.
    """
    fields = tuple(cls.__annotations__)
    defaults = {name: cls.__dict__[name] for name in fields if name in cls.__dict__}
    get = _attrgetter(*fields)
    # attrgetter of one name returns the bare value; the hash is always
    # that of the tuple of the fields
    key = get if len(fields) > 1 else lambda self: (get(self),)
    post_init = hasattr(cls, "__post_init__")
    init_name = f"{cls.__qualname__}.__init__()"
    assign = object.__setattr__

    def __init__(self, *args, **kwargs):
        if len(args) > len(fields):
            raise TypeError(f"{init_name} takes {len(fields) + 1} positional "
                            f"arguments but {len(args) + 1} were given")
        for name, value in zip(fields, args):
            assign(self, name, value)
        for name in fields[len(args):]:
            if name in kwargs:
                assign(self, name, kwargs.pop(name))
            elif name in defaults:
                assign(self, name, defaults[name])
            else:
                raise TypeError(f"{init_name} missing required argument: {name!r}")
        if kwargs:
            name = next(iter(kwargs))
            problem = "multiple values for" if name in fields else "an unexpected keyword"
            raise TypeError(f"{init_name} got {problem} argument {name!r}")
        if post_init:
            self.__post_init__()

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in fields)
        return f"{self.__class__.__qualname__}({body})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    for method in (__init__, __repr__, __eq__, __hash__, __setattr__, __delattr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    return cls


def __dir__():
    return sorted(set(globals()) | set(__all__))
