"""The package's immutable value types behave as the frozen dataclasses they
replaced: the same repr, equality only within a class, a hash over the
fields, read-only fields, and construction by position or
keyword with defaults and validation."""

from fractions import Fraction

import pytest

from spinhalg import clifford, ktheory, modules, steenrod

# one value of each class, with its repr as the dataclass printed it
VALUES = [
    (lambda: clifford.Signature(1, 2), "Signature(r=1, s=2)"),
    (lambda: clifford.AlgebraDescriptor("H", 2),
     "AlgebraDescriptor(field='H', size=2, simple=True)"),
    (lambda: clifford.graded_tensor_check(1, 1),
     "GradedTensorReport(m=1, n=1, dimension=4, relations_ok=True, basis_bijective=True)"),
    (lambda: modules.AbGroupExpr((4, "Z", 2)), "AbGroupExpr(summands=('Z', 2, 4))"),
    (lambda: modules.BigradedIndex(1, 2, "R"), "BigradedIndex(r=1, s=2, field='R')"),
    (lambda: modules.ModuleLabel(4, "R", "+"), "ModuleLabel(n=4, field='R', sign='+')"),
    (lambda: modules.GradedProductResult(modules.ModuleLabel(3, "H"), 4),
     "GradedProductResult(label=ModuleLabel(n=3, field='H', sign=None), multiplicity=4)"),
    (lambda: modules.bimodule_decomposition(4),
     "BimoduleReport(n=4, tensor_field='R', half=False, factor_dimension=8, "
     "algebra_dimension=64, dimension_identity_holds=True)"),
    (lambda: ktheory.CoefficientRing("Zk", 4), "CoefficientRing(tag='Zk', k=4)"),
    (lambda: ktheory.k_coefficients_extension("KO", 2, ktheory.CoefficientRing("Zk", 2)),
     "CoefficientGroup(theory='KO', n=2, ring=CoefficientRing(tag='Zk', k=2), "
     "group=None, sub=AbGroupExpr(summands=(2,)), "
     "quot=AbGroupExpr(summands=(2,)))"),
    (lambda: ktheory.zk_sphere_group("KO", 4, 2),
     "ZkSphereResult(theory='KO', m=4, k=2, star=0, "
     "group=AbGroupExpr(summands=(2,)), sub=AbGroupExpr(summands=(2,)), "
     "quot=AbGroupExpr(summands=()), complexification='x2')"),
    (lambda: ktheory.ZkIndexInput(8, 3, 6, Fraction(1, 2)),
     "ZkIndexInput(n=8, k=3, integral_term=Fraction(6, 1), eta_term=Fraction(1, 2))"),
    (lambda: ktheory.aind_classify(4, 3),
     "IndexClassification(n=4, group=AbGroupExpr(summands=('Z',)), value=3)"),
    (lambda: ktheory.FGAbelianGroup(1, (2, 4)), "FGAbelianGroup(rank=1, torsion=(2, 4))"),
    (lambda: ktheory.dual_group(ktheory.FGAbelianGroup(1, (2,))),
     "DualityReport(group=FGAbelianGroup(rank=1, torsion=(2,)), verified=True, "
     "torsion_candidates=4, torsion_valid=2)"),
    (lambda: steenrod.QuotientModel("spinh", 4, None, (4,)),
     "QuotientModel(kind='spinh', max_degree=4, ideal=None, allowed_degrees=(4,))"),
]
CASES = [pytest.param(make, text, id=text.partition("(")[0]) for make, text in VALUES]

# classes whose every field has a default
ALL_DEFAULT = {"AbGroupExpr", "FGAbelianGroup"}


def test_one_case_per_class():
    assert len({text.partition("(")[0] for _, text in VALUES}) == len(VALUES) == 16


@pytest.mark.parametrize("make, text", CASES)
def test_repr_is_the_dataclass_form(make, text):
    assert repr(make()) == text


@pytest.mark.parametrize("make, text", CASES)
def test_equal_values_hash_equal(make, text):
    a, b = make(), make()
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(tuple(vars(a).values()))
    cls, fields = type(a), vars(a)
    assert cls(*fields.values()) == a == cls(**fields)


@pytest.mark.parametrize("make, text", CASES)
def test_other_classes_and_tuples_are_unequal(make, text):
    a = make()
    other = clifford.Signature(0, 0) if type(a) is not clifford.Signature else modules.AbGroupExpr()
    for stranger in (other, tuple(vars(a).values())):
        assert (a == stranger) is False and (a != stranger) is True
        assert a.__eq__(stranger) is NotImplemented


@pytest.mark.parametrize("make, text", CASES)
def test_fields_are_read_only(make, text):
    a = make()
    for name, value in vars(a).items():
        with pytest.raises(AttributeError):
            setattr(a, name, value)
        with pytest.raises(AttributeError):
            delattr(a, name)
        assert getattr(a, name) is value
    with pytest.raises(AttributeError):
        a.no_such_field = 1


@pytest.mark.parametrize("make, text", CASES)
def test_bad_arguments_are_type_errors(make, text):
    a = make()
    cls, fields = type(a), vars(a)
    if cls.__name__ in ALL_DEFAULT:
        assert cls() == cls(**{name: getattr(cls, name) for name in fields})
    else:
        with pytest.raises(TypeError):
            cls()
    with pytest.raises(TypeError):
        cls(*fields.values(), None)
    with pytest.raises(TypeError):
        cls(**fields, no_such_field=None)
    first = next(iter(fields))
    with pytest.raises(TypeError):
        cls(fields[first], **fields)


def test_keywords_defaults_and_validation():
    assert clifford.AlgebraDescriptor(size=2, field="H") == clifford.AlgebraDescriptor("H", 2)
    assert modules.ModuleLabel(3, "R") == modules.ModuleLabel(3, "R", None)
    assert ktheory.ZkIndexInput(8, 3, 6, 1).integral_term == Fraction(6)
    assert modules.AbGroupExpr((4, "Z", 2)).summands == ("Z", 2, 4)
    with pytest.raises(ValueError):
        clifford.Signature(-1, 0)
    with pytest.raises(ValueError):
        ktheory.FGAbelianGroup(0, (4, 2))


def test_quotient_models_compare_their_ideal_by_identity():
    # a GradedIdeal has no value equality, so two builds of one model differ
    a, b = (steenrod.bso_quotient_model("spinh", 6) for _ in range(2))
    assert a.ideal is not b.ideal and a != b
    c = steenrod.QuotientModel(a.kind, a.max_degree, a.ideal, a.allowed_degrees)
    assert c == a and hash(c) == hash(("spinh", 6, a.ideal, a.allowed_degrees))
    assert steenrod.QuotientModel("spin", 6, a.ideal, a.allowed_degrees) != a
