from pathlib import Path

import pytest

from conftest import CYCLIC_2, coring_family, ext_morphism_family

from corings.algebras import (
    AlgebraMorphism,
    dual_numbers,
    ground_algebra,
    group_algebra,
)
from corings.bimodules import (
    induced_map_on_tensor,
    regular_bimodule,
    restrict_scalars,
    scalar_bimodule,
    tensor_over_alg,
)
from corings.category import ExtMorphism, check_ext_morphism
from corings.constructions import (
    grouplike_coalgebra,
    matrix_coalgebra,
    sweedler_coring,
    trivial_coring,
)
from corings.coring import (
    Coring,
    check_coring,
    right_coaction_verdict,
)
from corings.linalg import Field, Mat
from corings.workspace import load_workspace
from oracles import unit_map
from reference import (
    contains,
    cotensor,
    is_identity,
    left_unit_collapse,
    mat_add,
    mat_sub,
    project_mat,
    rank,
    zero_mat,
)

Q = Field.rationals()
F5 = Field.prime(5)
WORKSPACES = Path(__file__).resolve().parents[1] / "perfbench" / "workspaces"


def right_module(c):
    """The carrier of `c` with the ground field acting on the left."""
    return restrict_scalars(c.carrier, left=unit_map(c.base))


def regular_cotensor(c):
    """C box_C C for the regular right and left comodules of `c`."""
    return cotensor(c.carrier, c.comul_lift, c, c.carrier, c.comul_lift)


class TestCheckCoring:
    @pytest.mark.parametrize("make_alg", [ground_algebra, dual_numbers,
                                          lambda f: group_algebra(f, CYCLIC_2)])
    @pytest.mark.parametrize("field", [Q, F5], ids=["Q", "F5"])
    def test_trivial_coring_over_fixture_algebras(self, make_alg, field):
        assert check_coring(trivial_coring(make_alg(field))).ok

    def test_matrix_coalgebra(self):
        assert check_coring(matrix_coalgebra(2, F5)).ok
        assert check_coring(matrix_coalgebra(3, F5)).ok

    def test_grouplike(self):
        assert check_coring(grouplike_coalgebra(CYCLIC_2, Q)).ok

    def test_corrupted_counit_detected_on_the_right(self):
        mc = matrix_coalgebra(2, F5)
        bad_counit = Mat(F5, 4, 1, [{0: 1}, {0: 1}, {}, {0: 1}])
        v = check_coring(Coring(mc.base, mc.carrier, mc.comul_lift, bad_counit))
        assert not v.ok
        assert v.law == "right-counit"
        assert v.witness.startswith("e_12")
        assert "e_11 + e_12" in v.witness

    def test_corrupted_comultiplication(self):
        mc = matrix_coalgebra(2, F5)
        rows = [dict(r) for r in mc.comul_lift.rows]
        del rows[0][6]  # drop the e_12 (x) e_21 leg of comul(e_11)
        bad = Coring(mc.base, mc.carrier, Mat(F5, 4, 16, rows), mc.counit_mat)
        v = check_coring(bad)
        assert not v.ok and v.law == "coassociativity"
        assert v.laws_passed == ("bilinearity",)

    def test_non_bilinear_comultiplication(self):
        c = trivial_coring(dual_numbers(Q))
        rows = [dict(r) for r in c.comul_lift.rows]
        rows[1][0] = Q.one
        bad = Coring(c.base, c.carrier, Mat(Q, 2, 4, rows), c.counit_mat)
        v = check_coring(bad)
        assert not v.ok and v.law == "bilinearity"


class TestComodule:
    def test_regular_right_comodule(self):
        mc = matrix_coalgebra(2, F5)
        assert right_coaction_verdict(right_module(mc), mc, mc.comul_lift).ok

    @pytest.mark.parametrize("field", [Q, F5], ids=["Q", "F5"])
    def test_regular_comodules_over_nontrivial_base(self, field):
        c = trivial_coring(dual_numbers(field))
        assert right_coaction_verdict(right_module(c), c, c.comul_lift).ok

    def test_zero_dimensional(self):
        mc = matrix_coalgebra(2, F5)
        assert right_coaction_verdict(scalar_bimodule(F5, 0), mc, Mat(F5, 0, 0, [])).ok

    def test_zero_coaction_fails_counit(self):
        mc = matrix_coalgebra(2, F5)
        v = right_coaction_verdict(right_module(mc), mc,
                                   Mat(F5, 4, 16, [{} for _ in range(4)]))
        assert not v.ok and v.law == "coaction-counit"


class TestLeftColinear:
    def test_counit_leg_collapse_is_identity_and_colinear(self):
        mc = matrix_coalgebra(2, F5)
        unit_tensor = tensor_over_alg(regular_bimodule(mc.base), mc.carrier)
        leg = induced_map_on_tensor(
            mc.counit_mat, Mat.identity(F5, 4), mc.tens, unit_tensor
        ) @ left_unit_collapse(unit_tensor)
        f = mc.comul @ leg
        assert is_identity(f)
        # f then comul is the comultiplication again: a valid extension of C by C.
        m = ExtMorphism(mc, mc, mc.carrier.right_act, f @ mc.comul_lift)
        assert check_ext_morphism(m).ok


class TestCotensor:
    def test_matrix_coalgebra_cotensor_square(self):
        mc = matrix_coalgebra(2, F5)
        assert regular_cotensor(mc).dim == mc.dim

    def test_regular_comodule_embeds_bijectively(self):
        for c in [matrix_coalgebra(2, F5), grouplike_coalgebra(CYCLIC_2, Q),
                  trivial_coring(dual_numbers(Q))]:
            ct = regular_cotensor(c)
            assert all(contains(ct.subspace, r) for r in c.comul.rows)
            assert rank(c.comul) == c.dim == ct.dim

    def test_trivial_coring_defect_vanishes(self):
        ct = regular_cotensor(trivial_coring(dual_numbers(Q)))
        assert ct.dim == ct.tensor.dim

    def test_cotensor_includes_back(self):
        ct = regular_cotensor(matrix_coalgebra(2, F5))
        assert ct.include.nrows == ct.dim
        for r in ct.include.rows:
            assert contains(ct.subspace, r)

    @pytest.mark.parametrize("source", ["Q", "F5", "cli-q", "cli-f5", "monoidal-f5"])
    def test_coaction_is_an_isomorphism_onto_the_cotensor(self, source):
        """Every valid right extension f: (E:A) -> (C:B) maps E onto E box_C C
        along its coaction, which is why the composition oracle does not
        re-check it: each row lies in the cotensor, and the rank of the
        coaction is dim E, which is dim E box_C C."""
        if source in ("Q", "F5"):
            morphisms = [m for _, m in ext_morphism_family(coring_family(
                Q if source == "Q" else F5))]
        else:
            ws = load_workspace(WORKSPACES / f"{source}.json")
            morphisms = [*ws.extensions.values(),
                         *(m for kind, m in ws.morphisms.values() if kind == "ext")]
        assert morphisms
        for f in morphisms:
            c = f.target
            ct = cotensor(f.bimodule, f.coact_lift, c, c.carrier, c.comul_lift)
            assert ct.tensor is f.coaction_tensor
            assert all(contains(ct.subspace, r) for r in f.coaction.rows)
            assert rank(f.coaction) == f.source.dim == ct.dim


def sweedler_dual(field):
    """The Sweedler coring A (x)_k A of k -> A = k[x]/(x^2).

    The carrier basis is 1(x)1, 1(x)x, x(x)1, x(x)x, labelled e_0 .. e_3, and
    C (x)_A C is a quotient of a 16-dim ambient by 8 relations.
    """
    inclusion = AlgebraMorphism(
        ground_algebra(field), dual_numbers(field), Mat.from_rows(field, [[1, 0]])
    )
    return sweedler_coring(inclusion)


def transported_coaction(c, i, j):
    """Lift of (phi^-1 (x) C) o comul o phi for phi = I + E_ij on the carrier."""
    field = c.field
    ident = Mat.identity(field, c.dim)
    n = zero_mat(field, c.dim, c.dim)
    n.rows[i][j] = field.one
    return mat_add(ident, n) @ c.comul_lift @ mat_sub(ident, n).kron(ident)


class TestTwoRouteCorruptions:
    """Every law comparing two routes into a triple tensor, tripped over a base
    whose tensor presentations have relations, with the witness pinned."""

    def test_coring_coassociativity(self, field):
        sw = sweedler_dual(field)
        one_plus_x = mat_add(sw.carrier.left_act[0], sw.carrier.left_act[1])
        lift = sw.comul_lift @ one_plus_x.kron(Mat.identity(field, 4))
        v = check_coring(Coring(sw.base, sw.carrier, lift, sw.counit_mat))
        assert (v.law, v.witness) == ("coassociativity", "e_0: the two triple coproducts differ")
        assert v.laws_passed == ("bilinearity",)

    def test_right_comodule_coassociativity(self, field):
        # rho = (pi (x) 1 (x) C) o comul with pi(x) = 2x: pi o pi != pi on x (x) a'.
        sw = sweedler_dual(field)
        pi = Mat.from_rows(field, [[1, 0], [0, 2]])
        psi = pi.kron(Mat.identity(field, 2))
        v = right_coaction_verdict(right_module(sw), sw,
                                   sw.comul_lift @ psi.kron(Mat.identity(field, 4)))
        assert (v.law, v.witness) == (
            "coaction-coassociativity", "e_2: the coaction is not coassociative")
        assert v.laws_passed == ("coaction-linearity",)

    def test_bicomodule_colinearity(self, field):
        # phi = I + E_03 is multiplication by 1(x)1 + x(x)x: A-bilinear, so the
        # transported right coaction is a right comodule, but not left colinear.
        sw = sweedler_dual(field)
        m = ExtMorphism(sw, sw, sw.carrier.right_act, transported_coaction(sw, 0, 3))
        v = check_ext_morphism(m)
        assert (v.law, v.witness) == ("colinearity", "e_0: the two coactions do not commute")
        assert v.laws_passed == ("bimodule", "delta-right-linear", "coaction")

    def test_descent_failure_on_the_right_hand_route(self, field):
        # phi = I + E_21 is right A-linear only: the transported right coaction
        # passes its own laws, but C (x) rho is not defined on C (x)_A M.
        sw = sweedler_dual(field)
        m = ExtMorphism(sw, sw, sw.carrier.right_act, transported_coaction(sw, 2, 1))
        v = check_ext_morphism(m)
        assert (v.law, v.witness) == (
            "colinearity", "ambient map does not send source relations into target relations")
        assert v.laws_passed == ("bimodule", "delta-right-linear", "coaction")
        # The left-hand route, (lambda (x) D) on M (x)_A D, does descend.  Here
        # M = C = D, so C (x)_A M and M (x)_A D are one presentation.
        t_md = tensor_over_alg(sw.carrier, sw.carrier)
        t_left = tensor_over_alg(t_md.result, sw.carrier)
        lam = sw.comul_lift @ project_mat(t_md.quot)
        induced_map_on_tensor(lam, Mat.identity(field, 4), t_md, t_left)
