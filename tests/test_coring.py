import pytest

from corings.algebras import (
    CYCLIC_2,
    AlgebraMorphism,
    dual_numbers,
    ground_algebra,
    group_algebra,
)
from corings.bimodules import (
    induced_map_on_tensor,
    left_unit_collapse,
    scalar_bimodule,
    tensor_over_alg,
)
from corings.constructions import (
    grouplike_coalgebra,
    matrix_coalgebra,
    sweedler_coring,
    trivial_coring,
)
from corings.coring import (
    LEFT,
    RIGHT,
    Bicomodule,
    Comodule,
    Coring,
    check_bicomodule,
    check_comodule,
    check_coring,
    check_left_colinear,
    cotensor,
)
from corings.linalg import Field, Mat, _vadd

Q = Field.rationals()
F5 = Field.prime(5)


def left_coaction_on_tensor(coring, t):
    """Lift of the left coaction on C (x)_A M induced by the comultiplication."""
    field = coring.field
    dim_c = coring.dim
    rows = []
    for s in range(t.dim):
        out = {}
        for idx, val in t.quot.lift.rows[s].items():
            c, x = divmod(idx, t.right_factor.dim)
            for pair, dv in coring.comul_lift.rows[c].items():
                c1, c2 = divmod(pair, dim_c)
                cls = t.quot.project_vec({c2 * t.right_factor.dim + x: field.one})
                _vadd(field, out,
                      {c1 * t.dim + q: v for q, v in cls.items()},
                      field.mul(val, dv))
        rows.append(out)
    return Mat(field, t.dim, dim_c * t.dim, rows)


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
        assert check_comodule(Comodule.regular(mc, RIGHT)).ok

    def test_regular_left_comodule(self):
        mc = matrix_coalgebra(2, F5)
        assert check_comodule(Comodule.regular(mc, LEFT)).ok

    @pytest.mark.parametrize("field", [Q, F5], ids=["Q", "F5"])
    def test_regular_comodules_over_nontrivial_base(self, field):
        c = trivial_coring(dual_numbers(field))
        assert check_comodule(Comodule.regular(c, RIGHT)).ok
        assert check_comodule(Comodule.regular(c, LEFT)).ok

    def test_zero_dimensional(self):
        mc = matrix_coalgebra(2, F5)
        z = Comodule(mc, RIGHT, scalar_bimodule(F5, 0), Mat(F5, 0, 0, []))
        assert check_comodule(z).ok

    def test_zero_coaction_fails_counit(self):
        mc = matrix_coalgebra(2, F5)
        z = Comodule(mc, RIGHT, mc.carrier.forget_left(),
                     Mat(F5, 4, 16, [{} for _ in range(4)]))
        v = check_comodule(z)
        assert not v.ok and v.law == "coaction-counit"

    def test_carrier_is_bicomodule_over_itself(self):
        mc = matrix_coalgebra(2, F5)
        b = Bicomodule(mc, mc, mc.carrier, mc.comul_lift, mc.comul_lift)
        assert check_bicomodule(b).ok


class TestLeftColinear:
    def test_comultiplication_is_colinear(self):
        mc = matrix_coalgebra(2, F5)
        m = Comodule.regular(mc, LEFT)
        carrier = mc.tens.result.forget_right()
        n = Comodule(mc, LEFT, carrier, left_coaction_on_tensor(mc, mc.tens))
        assert check_comodule(n).ok
        v = check_left_colinear(mc.comul, m, n)
        assert v.ok

    def test_counit_leg_collapse_is_identity_and_colinear(self):
        mc = matrix_coalgebra(2, F5)
        leg = induced_map_on_tensor(
            mc.counit_mat, Mat.identity(F5, 4), mc.tens, mc.unit_tensor_left
        ).map @ left_unit_collapse(mc.unit_tensor_left)
        f = mc.comul @ leg
        assert f.is_identity()
        m = Comodule.regular(mc, LEFT)
        assert check_left_colinear(f, m, m).ok

    def test_perturbed_map_gets_a_witness(self):
        mc = matrix_coalgebra(2, F5)
        m = Comodule.regular(mc, LEFT)
        f = Mat.identity(F5, 4)
        f.rows[0][1] = F5.one
        v = check_left_colinear(f, m, m)
        assert not v.ok and v.law == "colinearity"
        assert v.witness is not None


class TestCotensor:
    def test_matrix_coalgebra_cotensor_square(self):
        mc = matrix_coalgebra(2, F5)
        ct = cotensor(Comodule.regular(mc, RIGHT), Comodule.regular(mc, LEFT))
        assert ct.dim == mc.dim

    def test_regular_comodule_embeds_bijectively(self):
        for c in [matrix_coalgebra(2, F5), grouplike_coalgebra(CYCLIC_2, Q),
                  trivial_coring(dual_numbers(Q))]:
            cm = Comodule.regular(c, RIGHT)
            ct = cotensor(cm, Comodule.regular(c, LEFT))
            rho = cm.coaction
            coords = [ct.subspace.coords_of(r) for r in rho.rows]
            assert all(x is not None for x in coords)
            emb = Mat(c.field, c.dim, ct.dim, coords)
            emb.inverse()

    def test_trivial_coring_defect_vanishes(self):
        c = trivial_coring(dual_numbers(Q))
        cm = Comodule.regular(c, RIGHT)
        cl = Comodule.regular(c, LEFT)
        ct = cotensor(cm, cl)
        assert ct.dim == ct.tensor.dim

    def test_cotensor_includes_back(self):
        mc = matrix_coalgebra(2, F5)
        ct = cotensor(Comodule.regular(mc, RIGHT), Comodule.regular(mc, LEFT))
        assert ct.include.nrows == ct.dim
        for r in ct.include.rows:
            assert ct.subspace.contains(r)


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
    n = Mat.zero(field, c.dim, c.dim)
    n.rows[i][j] = field.one
    return (ident + n) @ c.comul_lift @ (ident - n).kron(ident)


class TestTwoRouteCorruptions:
    """Every law comparing two routes into a triple tensor, tripped over a base
    whose tensor presentations have relations, with the witness pinned."""

    def test_coring_coassociativity(self, field):
        sw = sweedler_dual(field)
        one_plus_x = sw.carrier.left_act[0] + sw.carrier.left_act[1]
        lift = sw.comul_lift @ one_plus_x.kron(Mat.identity(field, 4))
        v = check_coring(Coring(sw.base, sw.carrier, lift, sw.counit_mat))
        assert (v.law, v.witness) == ("coassociativity", "e_0: the two triple coproducts differ")
        assert v.laws_passed == ("bilinearity",)

    def test_right_comodule_coassociativity(self, field):
        # rho = (pi (x) 1 (x) C) o comul with pi(x) = 2x: pi o pi != pi on x (x) a'.
        sw = sweedler_dual(field)
        pi = Mat.from_rows(field, [[1, 0], [0, 2]])
        psi = pi.kron(Mat.identity(field, 2))
        m = Comodule(sw, RIGHT, sw.carrier.forget_left(),
                     sw.comul_lift @ psi.kron(Mat.identity(field, 4)))
        v = check_comodule(m)
        assert (v.law, v.witness) == (
            "coaction-coassociativity", "e_2: the coaction is not coassociative")
        assert v.laws_passed == ("coaction-linearity",)

    def test_left_comodule_coassociativity(self, field):
        # lambda = (C (x) 1 (x) pi) o comul: the mirror image, first bad row 1 (x) x.
        sw = sweedler_dual(field)
        pi = Mat.from_rows(field, [[1, 0], [0, 2]])
        psi = Mat.identity(field, 2).kron(pi)
        m = Comodule(sw, LEFT, sw.carrier.forget_right(),
                     sw.comul_lift @ Mat.identity(field, 4).kron(psi))
        v = check_comodule(m)
        assert (v.law, v.witness) == (
            "coaction-coassociativity", "e_1: the coaction is not coassociative")
        assert v.laws_passed == ("coaction-linearity",)

    def test_bicomodule_colinearity(self, field):
        # phi = I + E_03 is multiplication by 1(x)1 + x(x)x: A-bilinear, so the
        # transported right coaction is a right comodule, but not left colinear.
        sw = sweedler_dual(field)
        b = Bicomodule(sw, sw, sw.carrier, sw.comul_lift, transported_coaction(sw, 0, 3))
        v = check_bicomodule(b)
        assert (v.law, v.witness) == ("colinearity", "e_0: the two coactions do not commute")
        assert len(v.laws_passed) == 6

    def test_descent_failure_on_the_right_hand_route(self, field):
        # phi = I + E_21 is right A-linear only: the transported right coaction
        # passes its own laws, but C (x) rho is not defined on C (x)_A M.
        sw = sweedler_dual(field)
        rho_lift = transported_coaction(sw, 2, 1)
        b = Bicomodule(sw, sw, sw.carrier, sw.comul_lift, rho_lift)
        v = check_bicomodule(b)
        assert (v.law, v.witness) == (
            "colinearity", "ambient map does not send source relations into target relations")
        assert len(v.laws_passed) == 6
        # The left-hand route, (lambda (x) D) on M (x)_A D, does descend.  Here
        # M = C = D, so C (x)_A M and M (x)_A D are one presentation.
        t_md = tensor_over_alg(sw.carrier, sw.carrier)
        t_left = tensor_over_alg(t_md.result, sw.carrier)
        lam = sw.comul_lift @ t_md.project
        induced_map_on_tensor(lam, Mat.identity(field, 4), t_md, t_left)
