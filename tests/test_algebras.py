import pytest

from corings.algebras import (
    CYCLIC_2,
    KLEIN_4,
    AlgebraMorphism,
    FinDimAlgebra,
    check_algebra,
    check_algebra_morphism,
    check_group_table,
    dual_numbers,
    ground_algebra,
    group_algebra,
    identity_morphism,
    tensor_algebra,
)
from corings.errors import DimensionMismatch, FieldMismatch
from corings.linalg import Field, Mat
from oracles import tensor_algebra_morphism

Q = Field.rationals()
F2 = Field.prime(2)
F5 = Field.prime(5)


class TestCheckAlgebra:
    def test_dual_numbers(self):
        assert check_algebra(dual_numbers(Q)).ok

    def test_ground_field(self):
        assert check_algebra(ground_algebra(Q)).ok

    def test_wrong_unit_vector(self):
        # The cyclic-group table with the non-identity element declared as unit.
        table = [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]
        bad = FinDimAlgebra(Q, 2, table, [0, 1])
        v = check_algebra(bad)
        assert not v.ok
        assert v.law == "unit"
        assert "index 0" in v.witness

    def test_labels_must_fit_the_dimension(self):
        # With one label for two basis elements, the failing unit law of this
        # table would name index 1 by a label that is not there.
        table = [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]
        with pytest.raises(DimensionMismatch):
            FinDimAlgebra(Q, 2, table, [0, 1], labels=["e"])

    def test_non_associative_table(self):
        # x*x = y, x*y = 1, y*x = y*y = 0, so (x*x)*x differs from x*(x*x).
        z = [0, 0, 0]
        table = [
            [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
            [[0, 0, 1], z, z],
        ]
        v = check_algebra(FinDimAlgebra(Q, 3, table, [1, 0, 0]))
        assert not v.ok and v.law == "associativity"
        assert "(1,1,1)" in v.witness


class TestTensorAlgebra:
    def test_unit_object_collapses(self):
        a = dual_numbers(Q)
        k = ground_algebra(Q)
        assert tensor_algebra(k, a) == a
        assert tensor_algebra(a, k) == a

    def test_dual_tensor_dual(self):
        dd = tensor_algebra(dual_numbers(Q), dual_numbers(Q))
        assert dd.dim == 4
        assert check_algebra(dd).ok
        # (x (x) 1)(1 (x) y) = x (x) y and (x (x) y)^2 = 0 under row-major pairing.
        x1, y1, xy = dd.basis_vec(2), dd.basis_vec(1), dd.basis_vec(3)
        assert dd.mul_vec(x1, y1) == xy
        assert dd.mul_vec(xy, xy) == [Q.zero] * 4

    def test_group_algebra_of_product(self):
        c2 = group_algebra(F2, CYCLIC_2)
        assert tensor_algebra(c2, c2) == group_algebra(F2, KLEIN_4)

    def test_field_mismatch(self):
        with pytest.raises(FieldMismatch):
            tensor_algebra(ground_algebra(Q), ground_algebra(F5))

    @pytest.mark.parametrize("make", [ground_algebra, dual_numbers])
    def test_output_passes_checker(self, make):
        a = tensor_algebra(make(F5), group_algebra(F5, CYCLIC_2))
        assert check_algebra(a).ok


class TestAlgebraMorphism:
    def test_identity(self):
        assert check_algebra_morphism(identity_morphism(dual_numbers(Q))).ok

    def test_nilpotent_collapse(self):
        f = AlgebraMorphism(
            dual_numbers(Q), ground_algebra(Q), Mat.from_rows(Q, [[1], [0]])
        )
        assert check_algebra_morphism(f).ok

    def test_non_multiplicative(self):
        f = AlgebraMorphism(
            dual_numbers(Q), ground_algebra(Q), Mat.from_rows(Q, [[1], [1]])
        )
        v = check_algebra_morphism(f)
        assert not v.ok and v.law == "multiplicativity"
        assert "(x,x)" in v.witness

    def test_tensor_of_morphisms_is_a_morphism(self):
        f = AlgebraMorphism(
            dual_numbers(F5), ground_algebra(F5), Mat.from_rows(F5, [[1], [0]])
        )
        g = identity_morphism(group_algebra(F5, CYCLIC_2))
        assert check_algebra_morphism(tensor_algebra_morphism(f, g)).ok


class TestGroupTable:
    def test_valid(self):
        check_group_table(KLEIN_4)

    def test_identity_must_be_zero(self):
        with pytest.raises(ValueError):
            check_group_table([[1, 0], [0, 1]])

    def test_non_latin_rejected(self):
        with pytest.raises(ValueError):
            check_group_table([[0, 0], [1, 1]])
