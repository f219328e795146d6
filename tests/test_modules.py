import pytest

from spinhalg.clifford import classify
from spinhalg.modules import (
    AbGroupExpr,
    BigradedIndex,
    ModuleLabel,
    ScalarChange,
    UnsupportedChange,
    bimodule_decomposition,
    bold_selection,
    fundamental_dimension,
    graded_product,
    ngroup,
    ngroup_bigraded,
    scalar_change,
)


def dim(label):
    """Real dimension of a fundamental module label."""
    return fundamental_dimension(label.n, label.field)


def product_dim(result):
    """Real dimension of a graded product: its label times R^multiplicity."""
    return dim(result.label) * result.multiplicity


class TestAbGroupExpr:
    def test_canonical_order_and_str(self):
        g = AbGroupExpr((4, "Z", 2, "Z"))
        assert str(g) == "Z+Z+Z2+Z4"
        assert g.rank == 2
        assert g.torsion == (2, 4)

    def test_zero(self):
        assert str(AbGroupExpr.zero()) == "0"
        assert AbGroupExpr.zero().is_zero()

    def test_sum(self):
        assert str(AbGroupExpr.cyclic(2) + AbGroupExpr.free()) == "Z+Z2"


# Table of fundamental graded module dimensions for n = 1..8.
DIMS = {
    "R": [2, 4, 8, 8, 16, 16, 16, 16],
    "C": [4, 4, 8, 8, 16, 16, 32, 32],
    "H": [8, 8, 8, 8, 16, 32, 64, 64],
}


class TestFundamentalDimension:
    @pytest.mark.parametrize("field", sorted(DIMS))
    def test_table(self, field):
        assert [fundamental_dimension(n, field) for n in range(1, 9)] == DIMS[field]

    def test_spot_values(self):
        assert fundamental_dimension(3, "H") == 8
        assert fundamental_dimension(7, "C") == 32
        assert fundamental_dimension(12, "C") == 128  # 16 * d(4, C)

    @pytest.mark.parametrize("field", sorted(DIMS))
    @pytest.mark.parametrize("n", range(1, 25))
    def test_recursion(self, n, field):
        assert fundamental_dimension(n + 8, field) == 16 * fundamental_dimension(n, field)

    @pytest.mark.parametrize("field", sorted(DIMS))
    @pytest.mark.parametrize("n", range(1, 25))
    def test_cross_check_against_classification(self, n, field):
        # each family against another normal form of classify: CCl_n has
        # complex period 2, and Cl_(n+4) = Cl_n (x) H(2), so the R and H
        # dimensions differ by a shift of 4 and a factor 2 or 8
        if field == "C":
            assert fundamental_dimension(n, "C") == 2 ** ((n + 1) // 2 + 1)
        elif field == "H":
            assert 2 * fundamental_dimension(n, "H") == fundamental_dimension(n + 4, "R")
        else:
            assert fundamental_dimension(n + 4, "H") == 8 * fundamental_dimension(n, "R")

    def test_relations_up_to_the_cap(self):
        for n in range(1, 1025):
            assert fundamental_dimension(n, "C") == 2 ** ((n + 1) // 2 + 1), n
        for n in range(1, 1021):
            assert 2 * fundamental_dimension(n, "H") == fundamental_dimension(n + 4, "R"), n

    @pytest.mark.parametrize("field", sorted(DIMS))
    def test_padded_table_up_to_the_cap(self, field):
        # the rule d(n + 8) = 16 d(n) on the table above, for every n
        for n in range(1, 1025):
            q, r = divmod(n - 1, 8)
            assert fundamental_dimension(n, field) == DIMS[field][r] * 16 ** q, n

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            fundamental_dimension(0, "R")


NGROUP_R = ["Z2", "Z2", "0", "Z", "0", "0", "0", "Z"]   # n = 1..8
NGROUP_H = ["0", "0", "0", "Z", "Z2", "Z2", "0", "Z"]   # n = 1..8


# the classify variant whose graded modules ngroup counts over each field
VARIANT = {"R": "Cl", "C": "CCl", "H": "Clh"}


def restriction_quotient(n, variant):
    """N_n = M_n / i*M_{n+1} from the classify normal forms alone.

    Graded modules over Cl_n are ungraded modules over Cl_{n-1}, and i* is
    restriction from Cl_n to Cl_{n-1}: it sends an irreducible over Cl_n to
    `ratio` irreducibles over Cl_{n-1}, split evenly between the two
    irreducibles when Cl_{n-1} = K(N)+K(N).  The same holds for the
    variants CCl, Clh and CClh of Cl."""
    source, target = classify(n, variant), classify(n - 1, variant)
    ratio, rest = divmod(source.irreducible_real_dimension,
                         target.irreducible_real_dimension)
    assert rest == 0
    if target.simple:
        free, torsion = (), ratio                # Z / ratio Z
    else:
        assert ratio % 2 == 0
        free, torsion = ("Z",), ratio // 2       # Z+Z / (ratio/2, ratio/2)
    return AbGroupExpr(free + ((torsion,) if torsion > 1 else ()))


class TestNGroup:
    @pytest.mark.parametrize("field", ["R", "C", "H"])
    def test_matches_the_restriction_quotient(self, field):
        for n in range(1, 65):
            assert ngroup(n, field) == restriction_quotient(n, VARIANT[field]), n

    def test_table_rows(self):
        assert [str(ngroup(n, "R")) for n in range(1, 9)] == NGROUP_R
        assert [str(ngroup(n, "H")) for n in range(1, 9)] == NGROUP_H
        assert [str(ngroup(n, "C")) for n in range(1, 3)] == ["0", "Z"]

    def test_spot_values(self):
        assert str(ngroup(5, "H")) == "Z2"
        assert str(ngroup(7, "H")) == "0"
        assert str(ngroup(20, "R")) == "Z"  # 20 = 4 mod 8

    @pytest.mark.parametrize("n", range(0, 24))
    def test_periodicity(self, n):
        assert ngroup(n + 8, "R") == ngroup(n, "R")
        assert ngroup(n + 8, "H") == ngroup(n, "H")
        assert ngroup(n + 2, "C") == ngroup(n, "C")

    @pytest.mark.parametrize("n", range(0, 17))
    def test_quaternionic_real_shift(self, n):
        assert ngroup(n, "H") == ngroup((n + 4) % 8, "R")

    @pytest.mark.parametrize("n", range(0, 10))
    def test_h_complex_variant(self, n):
        # modules over CCl^h_n; one case per last digit covers n = 1..64
        for m in range(n or 10, 65, 10):
            assert ngroup(m, "C", h=True) == restriction_quotient(m, "CClh"), m

    def test_h_variant_guard(self):
        with pytest.raises(ValueError):
            ngroup(3, "R", h=True)


class TestBigraded:
    def test_examples(self):
        assert str(ngroup_bigraded(BigradedIndex(1, 1, "R"))) == "Z"
        assert str(ngroup_bigraded(BigradedIndex(5, 1, "R"))) == "Z"
        assert str(ngroup_bigraded(BigradedIndex(4, 0, "H"))) == "Z"

    @pytest.mark.parametrize("r", range(0, 8))
    @pytest.mark.parametrize("s", range(0, 8))
    def test_one_one_shift(self, r, s):
        for field in ("R", "H"):
            assert ngroup_bigraded(BigradedIndex(r, s, field)) == \
                ngroup_bigraded(BigradedIndex(r + 1, s + 1, field))

    @pytest.mark.parametrize("r", range(0, 8))
    @pytest.mark.parametrize("s", range(0, 8))
    def test_quaternionic_shift(self, r, s):
        assert ngroup_bigraded(BigradedIndex(r + 4, s, "H")) == \
            ngroup_bigraded(BigradedIndex(r, s, "R"))

    def test_definite_column_matches_ngroup(self):
        for n in range(0, 16):
            for field in ("R", "H"):
                assert ngroup_bigraded(BigradedIndex(n, 0, field)) == ngroup(n, field)


class TestModuleLabel:
    def test_sign_invariant(self):
        ModuleLabel(4, "R", "+")
        ModuleLabel(2, "C", "-")
        ModuleLabel(3, "H")
        with pytest.raises(ValueError):
            ModuleLabel(3, "R", "+")
        with pytest.raises(ValueError):
            ModuleLabel(4, "H")
        with pytest.raises(ValueError):
            ModuleLabel(3, "C", "+")

    def test_bold_selection(self):
        assert bold_selection(8, "R").sign == "+"
        assert bold_selection(12, "H").sign == "-"
        assert bold_selection(6, "C").sign == "+"
        assert bold_selection(3, "R").sign is None


class TestScalarChange:
    def test_restriction_chain_flips_at_4(self):
        out = scalar_change(ModuleLabel(4, "H", "+"), ScalarChange.RES_C_H)
        assert out == ModuleLabel(4, "C", "-")
        out = scalar_change(out, ScalarChange.RES_R_C)
        assert out == ModuleLabel(4, "R", "+")

    def test_induction_chain_preserves_at_0(self):
        out = scalar_change(ModuleLabel(8, "R", "+"), ScalarChange.IND_R_C)
        assert out == ModuleLabel(8, "C", "+")
        out = scalar_change(out, ScalarChange.IND_C_H)
        assert out == ModuleLabel(8, "H", "+")

    def test_n_12_flip(self):
        out = scalar_change(ModuleLabel(12, "H", "-"), ScalarChange.RES_C_H)
        assert out == ModuleLabel(12, "C", "+")

    def test_wrong_field_rejected(self):
        with pytest.raises(UnsupportedChange):
            scalar_change(ModuleLabel(4, "R", "+"), ScalarChange.RES_C_H)

    def test_wrong_residue_rejected(self):
        with pytest.raises(UnsupportedChange):
            scalar_change(ModuleLabel(8, "H", "+"), ScalarChange.RES_C_H)
        with pytest.raises(UnsupportedChange):
            scalar_change(ModuleLabel(4, "R", "+"), ScalarChange.IND_R_C)
        with pytest.raises(UnsupportedChange):
            scalar_change(ModuleLabel(3, "H"), ScalarChange.RES_C_H)

    @pytest.mark.parametrize("n", [8, 16, 24])
    def test_res_after_ind_doubles_dimension(self, n):
        # dimension-level round trip: Ind doubles, Res keeps real dims
        start = ModuleLabel(n, "R", "+")
        mid = scalar_change(start, ScalarChange.IND_R_C)
        assert dim(mid) == 2 * dim(start)
        assert dim(scalar_change(mid, ScalarChange.IND_C_H)) == 4 * dim(start)

    @pytest.mark.parametrize("n", [4, 12, 20])
    def test_res_keeps_dimension(self, n):
        # restriction forgets scalars: the same real space, sign flipped
        start = ModuleLabel(n, "H", "+")
        mid = scalar_change(start, ScalarChange.RES_C_H)
        end = scalar_change(mid, ScalarChange.RES_R_C)
        assert dim(start) == dim(mid) == dim(end)

    def test_bold_selections_linked_by_scalar_change(self):
        # the preferred signs are exactly the ones the functors match up
        assert scalar_change(bold_selection(8, "R"), ScalarChange.IND_R_C) == bold_selection(8, "C")
        assert scalar_change(bold_selection(12, "C"), ScalarChange.RES_R_C) == bold_selection(12, "R")


class TestGradedProduct:
    def test_family_i(self):
        out = graded_product(ModuleLabel(8, "R", "+"), ModuleLabel(5, "H"))
        assert out.label == ModuleLabel(13, "H")
        assert out.multiplicity == 1

    def test_family_i_preserves_sign(self):
        out = graded_product(ModuleLabel(8, "R", "+"), ModuleLabel(4, "H", "-"))
        assert out.label == ModuleLabel(12, "H", "-")

    def test_family_ii(self):
        out = graded_product(ModuleLabel(3, "R"), ModuleLabel(4, "H", "+"))
        assert out.label == ModuleLabel(7, "H")

    def test_family_iii(self):
        out = graded_product(ModuleLabel(3, "H"), ModuleLabel(4, "H", "+"))
        assert out.label == ModuleLabel(7, "R")
        assert out.multiplicity == 4

    def test_dimension_audit_example(self):
        # d(3,R) * d(4,H) = 8 * 8 = 64 = d(7,H)
        out = graded_product(ModuleLabel(3, "R"), ModuleLabel(4, "H", "+"))
        assert dim(ModuleLabel(3, "R")) * dim(ModuleLabel(4, "H", "+")) == 64
        assert product_dim(out) == 64

    @pytest.mark.parametrize("n", range(1, 17))
    def test_dimension_multiplicativity(self, n):
        d4h = dim(ModuleLabel(4, "H", "+"))
        d8r = dim(ModuleLabel(8, "R", "+"))
        for field in ("R", "H"):
            sign = "+" if n % 4 == 0 else None
            a = ModuleLabel(n, field, sign)
            out = graded_product(ModuleLabel(8, "R", "+"), a)
            assert product_dim(out) == d8r * dim(a)
        for field in ("R", "H"):
            sign = "-" if n % 4 == 0 else None
            a = ModuleLabel(n, field, sign)
            out = graded_product(a, ModuleLabel(4, "H", "+"))
            assert product_dim(out) == dim(a) * d4h

    def test_unmatched_family(self):
        with pytest.raises(UnsupportedChange):
            graded_product(ModuleLabel(8, "R", "-"), ModuleLabel(5, "H"))
        with pytest.raises(UnsupportedChange):
            graded_product(ModuleLabel(2, "C", "+"), ModuleLabel(4, "H", "+"))


class TestBimodule:
    def test_n4(self):
        rep = bimodule_decomposition(4)
        assert (rep.tensor_field, rep.half) == ("R", False)
        assert rep.algebra_dimension == 64 and rep.factor_dimension == 8
        assert rep.dimension_identity_holds

    def test_n5(self):
        rep = bimodule_decomposition(5)
        assert (rep.tensor_field, rep.half) == ("C", False)
        assert rep.algebra_dimension == 128 and rep.factor_dimension == 16
        assert rep.dimension_identity_holds

    def test_n6(self):
        rep = bimodule_decomposition(6)
        assert (rep.tensor_field, rep.half) == ("H", False)
        assert rep.dimension_identity_holds

    def test_n8(self):
        rep = bimodule_decomposition(8)
        assert (rep.tensor_field, rep.half) == ("C", True)
        assert rep.factor_dimension == 64  # complex fundamental doubled
        assert rep.algebra_dimension == 2 ** 10
        assert rep.dimension_identity_holds

    @pytest.mark.parametrize("n", [4, 5, 6, 8, 12, 13, 14, 16, 20, 21, 22, 24])
    def test_identity_battery(self, n):
        assert bimodule_decomposition(n).dimension_identity_holds

    def test_bad_residues(self):
        for n in (7, 9, 10, 11, 15):
            with pytest.raises(UnsupportedChange):
                bimodule_decomposition(n)
