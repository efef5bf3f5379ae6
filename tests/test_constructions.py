import pytest

from conftest import CYCLIC_2

from corings.algebras import (
    AlgebraMorphism,
    dual_numbers,
    ground_algebra,
    group_algebra,
)
from corings.category import (
    CoringsMorphism,
    ExtMorphism,
    base_ring_extension,
    check_ext_morphism,
    corings_identity,
    counit_corings_morphism,
    ext_identity,
    ext_tensor_morphisms,
    ext_to_trivial,
    ext_to_unit,
)
from corings.constructions import (
    grouplike_coalgebra,
    matrix_coalgebra,
    sweedler_coring,
    tensor_coring,
    trivial_coring,
    unit_coring,
)
from corings.coring import check_coring
from corings.errors import CoringsError
from corings.linalg import Field, Mat
from oracles import base_extension_maps, interchange_iso
from reference import inverse, is_identity, project_mat

Q = Field.rationals()
F5 = Field.prime(5)


def dual_inclusion(field):
    return AlgebraMorphism(
        ground_algebra(field), dual_numbers(field), Mat.from_rows(field, [[1, 0]])
    )


class TestTensorCoring:
    def test_unit_collapses_exactly(self):
        mc = matrix_coalgebra(2, F5)
        kk = unit_coring(F5)
        assert tensor_coring(kk, mc) == mc
        assert tensor_coring(mc, kk) == mc

    def test_grouplike_squares_stay_grouplike(self):
        gl = grouplike_coalgebra(CYCLIC_2, F5)
        gg = tensor_coring(gl, gl)
        assert check_coring(gg).ok
        for i in range(4):
            assert gg.comul.rows[i] == gg.tens.quot.project_vec({i * 4 + i: F5.one})
            assert gg.counit_mat.rows[i] == {0: F5.one}

    def test_mixed_pair_passes_checker(self):
        t = tensor_coring(matrix_coalgebra(2, F5), grouplike_coalgebra(CYCLIC_2, F5))
        assert t.dim == 8
        assert check_coring(t).ok

    def test_nontrivial_bases_pass_checker(self):
        dr = trivial_coring(dual_numbers(Q))
        t = tensor_coring(dr, dr)
        assert t.base.dim == 4
        assert check_coring(t).ok

    def test_counit_is_kron_of_counits(self):
        a = matrix_coalgebra(2, F5)
        b = grouplike_coalgebra(CYCLIC_2, F5)
        assert tensor_coring(a, b).counit_mat == a.counit_mat.kron(b.counit_mat)

    def test_comultiplication_agrees_with_interchange_route(self):
        a = grouplike_coalgebra(CYCLIC_2, Q)
        b = trivial_coring(dual_numbers(Q))
        t = tensor_coring(a, b)
        iso = interchange_iso(a.tens, b.tens, target=t.tens)
        # comul (x) comul' expressed in the source of the regrouping iso.
        pair_rows = []
        for i in range(a.dim):
            for j in range(b.dim):
                row = {}
                for u, x in a.comul.rows[i].items():
                    for w, y in b.comul.rows[j].items():
                        row[u * b.tens.dim + w] = Q.mul(x, y)
                pair_rows.append(row)
        paired = Mat(Q, t.dim, a.tens.dim * b.tens.dim, pair_rows)
        assert paired @ iso.map == t.comul

    def test_field_mismatch(self):
        with pytest.raises(CoringsError, match="^tensor corings over different fields$"):
            tensor_coring(unit_coring(Q), unit_coring(F5))


class TestFixtures:
    def test_unit_coring_is_one_dimensional(self):
        assert unit_coring(Q).dim == 1
        assert check_coring(unit_coring(Q)).ok

    def test_unit_coring_is_one_object_per_field(self):
        assert unit_coring(F5) is unit_coring(F5)
        assert unit_coring(Field.prime(5)) is unit_coring(F5)
        assert unit_coring(Q) is not unit_coring(F5)
        mc = matrix_coalgebra(2, F5)
        assert tensor_coring(unit_coring(F5), mc) is tensor_coring(unit_coring(F5), mc)

    def test_matrix_coalgebra_comultiplication(self):
        mc = matrix_coalgebra(2, F5)
        # comul(e_11) = e_11 (x) e_11 + e_12 (x) e_21 in ambient coordinates.
        assert mc.comul_lift.rows[0] == {0: 1, 1 * 4 + 2: 1}
        assert mc.carrier.labels[1] == "e_12"

    def test_sweedler_coring_of_dual_numbers(self):
        sw = sweedler_coring(dual_inclusion(Q))
        assert sw.dim == 4
        assert check_coring(sw).ok

    @pytest.mark.parametrize("field", [Q, F5], ids=["Q", "F5"])
    @pytest.mark.parametrize("target, rows", [
        ("k", [[1], [0]]),  # the algebra map D -> k killing x
        ("D", [[1, 0], [1, 0]]),  # rank 1, no zero row
        ("D", [[1, 2], [2, 4]]),  # rank 1, the second row twice the first
        ("D", [[0, 0], [0, 0]]),
    ], ids=["collapse", "repeated-row", "multiple-row", "zero"])
    def test_sweedler_rejects_non_injective(self, field, target, rows):
        d = dual_numbers(field)
        b = ground_algebra(field) if target == "k" else d
        with pytest.raises(CoringsError, match="^the algebra map has a nonzero kernel$"):
            sweedler_coring(AlgebraMorphism(d, b, Mat.from_rows(field, rows)))

    @pytest.mark.parametrize("field", [Q, F5], ids=["Q", "F5"])
    def test_sweedler_checks_an_injective_map_for_the_algebra_laws(self, field):
        d = dual_numbers(field)
        swap = AlgebraMorphism(d, d, Mat.from_rows(field, [[0, 1], [1, 0]]))
        with pytest.raises(CoringsError, match="^the algebra map fails "):
            sweedler_coring(swap)
        assert sweedler_coring(dual_inclusion(field)).dim == 4

    def test_grouplike_requires_a_group(self):
        with pytest.raises(ValueError):
            grouplike_coalgebra([[0, 1], [1, 1]], Q)


class TestRightExtension:
    @pytest.mark.parametrize("field", [Q, F5], ids=["Q", "F5"])
    def test_regular_extension_of_each_fixture(self, field):
        for c in [unit_coring(field), trivial_coring(dual_numbers(field)),
                  matrix_coalgebra(2, field), grouplike_coalgebra(CYCLIC_2, field)]:
            ext = ext_identity(c)
            assert check_ext_morphism(ext).ok
            assert ext.coact_lift == c.comul_lift

    def test_trivial_extension(self):
        c = matrix_coalgebra(2, F5)
        ext = ext_to_trivial(c)
        assert check_ext_morphism(ext).ok
        assert ext.target.dim == c.base.dim

    def test_unit_extension_of_every_coring(self):
        for c in [matrix_coalgebra(2, F5), trivial_coring(dual_numbers(Q)),
                  sweedler_coring(dual_inclusion(Q))]:
            ext = ext_to_unit(c)
            assert check_ext_morphism(ext).ok
            assert ext.target.dim == 1

    def test_delta_must_be_right_linear(self):
        gl = grouplike_coalgebra(CYCLIC_2, F5)
        ga = group_algebra(F5, CYCLIC_2)
        mats = [ga.right_regular_mat(j) for j in range(2)]
        m = ExtMorphism(gl, trivial_coring(ga), mats, Mat(F5, 2, 4, [{}, {}]))
        v = check_ext_morphism(m)
        assert (v.law, v.witness, v.laws_passed) == (
            "delta-right-linear",
            "comultiplication does not commute with the right action of g_1",
            ("bimodule",),
        )

    def test_flip_coaction_is_a_coaction_but_not_colinear(self):
        mc = matrix_coalgebra(2, F5)
        rows = []
        for i in range(2):
            for j in range(2):
                rows.append({(t * 2 + j) * 4 + (t * 2 + i): F5.one for t in range(2)})
        flip = Mat(F5, 4, 16, rows)
        m = ExtMorphism(mc, mc, mc.carrier.right_act, flip)
        assert check_ext_morphism(m).law == "colinearity"

    def test_zero_coaction_rejected(self):
        mc = matrix_coalgebra(2, F5)
        m = ExtMorphism(mc, mc, mc.carrier.right_act, Mat(F5, 4, 16, [{} for _ in range(4)]))
        assert check_ext_morphism(m).law == "coaction"


class TestTensorExtension:
    def test_regular_pair_gives_regular_of_tensor(self):
        gl = grouplike_coalgebra(CYCLIC_2, F5)
        mc = matrix_coalgebra(2, F5)
        te = ext_tensor_morphisms(ext_identity(gl), ext_identity(mc))
        assert check_ext_morphism(te).ok
        assert te.coact_lift == tensor_coring(gl, mc).comul_lift

    def test_unit_pair(self):
        gl = grouplike_coalgebra(CYCLIC_2, F5)
        mc = matrix_coalgebra(2, F5)
        te = ext_tensor_morphisms(ext_to_unit(gl), ext_to_unit(mc))
        assert check_ext_morphism(te).ok
        assert te.target.dim == 1

    def test_mixed_pair_over_f5(self):
        te = ext_tensor_morphisms(
            ext_identity(grouplike_coalgebra(CYCLIC_2, F5)),
            ext_to_unit(matrix_coalgebra(2, F5)),
        )
        assert check_ext_morphism(te).ok
        assert te.source.dim == 8

    def test_nontrivial_bases(self):
        dr = trivial_coring(dual_numbers(Q))
        te = ext_tensor_morphisms(ext_identity(dr), ext_to_trivial(dr))
        assert check_ext_morphism(te).ok
        assert te.source.base.dim == 4


class TestBaseRingExtension:
    def test_identity_morphism_recovers_the_coring(self):
        mc = matrix_coalgebra(2, F5)
        m = corings_identity(mc)
        ext = base_ring_extension(m)
        collapse, embed = base_extension_maps(m)
        assert ext.source.dim == mc.dim
        assert check_coring(ext.source).ok
        assert check_ext_morphism(ext).ok
        assert is_identity(embed @ collapse)
        assert is_identity(collapse @ embed)
        mu, mu_inv = collapse, inverse(collapse)
        transported = mu_inv @ ext.coact_lift @ mu.kron(Mat.identity(F5, 4))
        assert transported @ project_mat(mc.tens.quot) == mc.comul
        ei = ext_identity(mc)
        for j in range(mc.base.dim):
            assert mu_inv @ ext.bimodule.right_act[j] @ mu == ei.action_mats[j]

    def test_collapse_to_ground_field(self):
        sw = sweedler_coring(dual_inclusion(Q))
        collapse = AlgebraMorphism(
            dual_numbers(Q), ground_algebra(Q), Mat.from_rows(Q, [[1], [0]])
        )
        m = CoringsMorphism(
            sw, unit_coring(Q), sw.counit_mat @ collapse.map, collapse
        )
        ext = base_ring_extension(m)
        assert ext.source.dim == 1
        assert check_coring(ext.source).ok
        assert check_ext_morphism(ext).ok

    def test_counit_morphism(self):
        sw = sweedler_coring(dual_inclusion(Q))
        ext = base_ring_extension(counit_corings_morphism(sw))
        assert ext.source.dim == sw.dim
        assert check_coring(ext.source).ok
        assert check_ext_morphism(ext).ok
