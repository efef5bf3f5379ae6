from itertools import permutations
from pathlib import Path

import pytest

from conftest import CYCLIC_2, KLEIN_4

from corings.algebras import (
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
from corings.workspace import load_workspace
from oracles import tensor_algebra_morphism
from reference import _dense, _reference_tensor_algebra

Q = Field.rationals()
F2 = Field.prime(2)
F5 = Field.prime(5)
WORKSPACES = Path(__file__).resolve().parents[1] / "perfbench" / "workspaces"


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
        assert v.witness == "index 0: unit*a_0 or a_0*unit = a_1 != a_0"

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
        assert v.witness == "(1,1,1): (a_1*a_1)*a_1 = 0, a_1*(a_1*a_1) = a_0"


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
        assert dd.mul_vec(xy, xy) == {}

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
        assert v.witness == "(x,x): f(x*y) = 0, f(x)*f(y) = 1"

    def test_unit_witness_lists_terms_in_index_order(self):
        f = AlgebraMorphism(
            ground_algebra(Q), dual_numbers(Q), Mat.from_rows(Q, [[2, "-1/3"]])
        )
        v = check_algebra_morphism(f)
        assert not v.ok and v.law == "unit"
        assert v.witness == "unit maps to 2*1 + -1/3*x != 1"

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


def corpus_algebras(field):
    """The benchmark corpus's algebras over `field`, and two whose unit is not
    a basis vector: k x k, and k[x]/(x^2 - 1/2) on the basis {1 + x, x}."""
    ws = load_workspace(WORKSPACES / ("cli-q.json" if field.p is None else "cli-f5.json"))
    split = FinDimAlgebra(field, 2, [[[1, 0], [0, 0]], [[0, 0], [0, 1]]], [1, 1], ["e", "f"])
    half = "1/2"
    root = FinDimAlgebra(field, 2, [
        [["3/2", half], [half, half]],
        [[half, half], [half, "-1/2"]],
    ], [1, -1], ["1+x", "x"])
    return {**ws.algebras, "split": split, "root": root}


def corpus_and_tensors(field):
    algebras = corpus_algebras(field)
    tensors = {f"{n}(x){n2}": tensor_algebra(a, a2)
               for n, a in algebras.items() for n2, a2 in algebras.items()}
    return {**algebras, **tensors}


def dense_mul(a, x, y):
    """x * y on dense coordinate lists, one structure constant at a time."""
    field = a.field
    out = [field.zero] * a.dim
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            if xi and yj:
                for t, c in enumerate(_dense(a, a.table[i][j])):
                    out[t] = field.add(out[t], field.mul(field.mul(xi, yj), c))
    return out


@pytest.mark.parametrize("field", [Q, F5], ids=repr)
class TestAgainstDenseReference:
    """The sparse algebra elements against dense coordinate lists."""

    def test_corpus_algebras_are_algebras(self, field):
        for a in corpus_algebras(field).values():
            assert check_algebra(a).ok

    def test_tensor_algebra(self, field):
        algebras = corpus_algebras(field)
        for a in algebras.values():
            for a2 in algebras.values():
                t = tensor_algebra(a, a2)
                ref = _reference_tensor_algebra(a, a2)
                assert t == ref and t.labels == ref.labels

    def test_mul_vec(self, field):
        for a in corpus_and_tensors(field).values():
            full = {t: field.coerce(t + 1) for t in range(a.dim)}
            full = {t: v for t, v in full.items() if v}
            elements = [a.basis_vec(i) for i in range(a.dim)] + [a.unit, full]
            for x in elements:
                for y in elements:
                    got = a.mul_vec(x, y)
                    assert all(got.values())
                    assert _dense(a, got) == dense_mul(a, _dense(a, x), _dense(a, y))

    def test_group_algebra(self, field):
        s3 = list(permutations(range(3)))
        tables = [CYCLIC_2, KLEIN_4, [[s3.index(tuple(g[h[k]] for k in range(3)))
                                       for h in s3] for g in s3]]
        for table in tables:
            n = len(table)
            dense = [[[int(t == row[j]) for t in range(n)] for j in range(n)] for row in table]
            labels = [f"g_{i}" for i in range(n)]
            coerced = FinDimAlgebra(field, n, dense, [int(t == 0) for t in range(n)], labels)
            a = group_algebra(field, table)
            assert a == coerced and a.labels == coerced.labels
            assert check_algebra(a).ok
        with pytest.raises(DimensionMismatch):
            group_algebra(field, CYCLIC_2, ["g"])
