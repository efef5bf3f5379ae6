import random

import pytest

from conftest import CYCLIC_2

from corings.algebras import (
    AlgebraMorphism,
    dual_numbers,
    ground_algebra,
    group_algebra,
    tensor_algebra,
)
from corings import bimodules
from corings.bimodules import (
    Bimodule,
    induced_map_on_tensor,
    regrouped_id_tensor,
    regular_bimodule,
    restrict_scalars,
    scalar_bimodule,
    tensor_over_alg,
    tensor_over_k,
)
from corings.constructions import sweedler_coring, trivial_coring
from corings.errors import CoringsError, DescentFailure
from corings.linalg import Field, Mat
from oracles import (
    InterchangeFixtures,
    check_interchange_naturality,
    interchange_iso,
    left_unit_embed,
    module_hom_space,
    random_module_hom,
    right_unit_embed,
    unit_map,
)
from reference import (
    contains,
    from_generators,
    is_identity,
    left_unit_collapse,
    lift_mat,
    mat_sub,
    middle_swap,
    project_mat,
    pure_class,
    relation_space,
    right_unit_collapse,
    zero_mat,
)

Q = Field.rationals()
F5 = Field.prime(5)


@pytest.fixture
def dual_regular():
    return regular_bimodule(dual_numbers(Q))


class TestBimodule:
    def test_regular_passes(self, dual_regular):
        assert dual_regular.check().ok

    def test_scalar_passes(self):
        assert scalar_bimodule(F5, 3).check().ok

    def test_broken_unit_action(self):
        a = dual_numbers(Q)
        bad = Bimodule(a, a, 2, [zero_mat(Q, 2, 2), zero_mat(Q, 2, 2)],
                       regular_bimodule(a).right_act)
        v = bad.check()
        assert not v.ok and v.law == "left-module"

    @pytest.mark.parametrize("labels", [["u"], ["u", "v", "w"]])
    def test_labels_must_fit_the_dimension(self, labels):
        with pytest.raises(CoringsError, match=f"^need 2 labels, got {len(labels)}$"):
            scalar_bimodule(F5, 2, labels=labels)
        assert scalar_bimodule(F5, 2, labels=["u", "v"]).label(1) == "v"

    def test_non_commuting_actions(self):
        a = dual_numbers(Q)
        x_mat = Mat.from_rows(Q, [[0, 1], [0, 0]])
        other = Mat.from_rows(Q, [[0, 0], [1, 0]])
        bad = Bimodule(a, a, 2, [Mat.identity(Q, 2), x_mat],
                       [Mat.identity(Q, 2), other])
        v = bad.check()
        assert not v.ok and v.law == "commuting-actions"


class TestTensorOverK:
    def test_dims_and_scalar_actions(self):
        m = scalar_bimodule(Q, 2)
        n = scalar_bimodule(Q, 3)
        t = tensor_over_k(m, n)
        assert t.dim == 6
        assert is_identity(t.left_act[0]) and is_identity(t.right_act[0])

    def test_regular_tensor_regular_is_tensor_algebra_regular(self, dual_regular):
        t = tensor_over_k(dual_regular, dual_regular)
        reg = regular_bimodule(tensor_algebra(dual_numbers(Q), dual_numbers(Q)))
        assert t == reg

    def test_unit_collapse(self):
        m = regular_bimodule(group_algebra(F5, CYCLIC_2))
        k = scalar_bimodule(F5, 1)
        assert tensor_over_k(k, m) == m
        assert tensor_over_k(m, k) == m


class TestTensorOverAlg:
    def test_regular_square_dual_numbers(self, dual_regular):
        t = tensor_over_alg(dual_regular, dual_regular)
        assert t.quot.ambient_dim == 4
        assert relation_space(t.quot).dim == 2
        assert t.dim == 2
        assert t.result.check().ok

    def test_dimension_bookkeeping(self, dual_regular):
        t = tensor_over_alg(dual_regular, dual_regular)
        assert t.quot.ambient_dim == t.dim + relation_space(t.quot).dim

    def test_trivial_middle_reduces_to_plain_tensor(self):
        t = tensor_over_alg(scalar_bimodule(Q, 2), scalar_bimodule(Q, 3))
        assert relation_space(t.quot).dim == 0
        assert is_identity(project_mat(t.quot))

    def test_middle_mismatch(self, dual_regular):
        with pytest.raises(CoringsError, match="^middle algebras differ$"):
            tensor_over_alg(dual_regular, scalar_bimodule(Q, 2))

    def test_unit_isomorphisms(self, dual_regular):
        t = tensor_over_alg(regular_bimodule(dual_numbers(Q)), dual_regular)
        assert t.dim == dual_regular.dim
        assert is_identity(left_unit_embed(t) @ left_unit_collapse(t))
        t2 = tensor_over_alg(dual_regular, regular_bimodule(dual_numbers(Q)))
        assert t2.dim == dual_regular.dim
        assert is_identity(right_unit_embed(t2) @ right_unit_collapse(t2))

    def test_ambient_carries_pairwise_actions(self, dual_regular):
        t = tensor_over_alg(dual_regular, dual_regular)
        amb = tensor_over_k(t.left_factor, t.right_factor)
        assert amb.dim == 4
        assert amb.check().ok


def twisted_dual_regular():
    """Dual numbers over themselves, the right action of x twisted to 2x.

    x -> 2x is an algebra automorphism, so this is a bimodule; it differs from
    the regular bimodule in one entry of one action matrix.
    """
    reg = regular_bimodule(dual_numbers(Q))
    x_twice = Mat.from_rows(Q, [[0, 2], [0, 0]])
    assert reg.right_act[1] == Mat.from_rows(Q, [[0, 1], [0, 0]])
    return Bimodule(reg.left_alg, reg.right_alg, 2, reg.left_act,
                    [reg.right_act[0], x_twice])


def cache_cases():
    """(m, n) pairs over Q and F_5, each built from fresh objects.

    The last pairs a bimodule that records its factors, as the route builds
    it, with an equal copy that records none.
    """
    k4 = group_algebra(F5, [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])
    dual = regular_bimodule(dual_numbers(Q))
    routed = bimodules._factored(scalar_bimodule(F5, 2), scalar_bimodule(F5, 3))
    return [
        (dual, dual),
        (twisted_dual_regular(), dual),
        (regular_bimodule(k4), restrict_scalars(regular_bimodule(k4), right=unit_map(k4))),
        (scalar_bimodule(F5, 2), scalar_bimodule(F5, 3)),
        (tensor_over_k(dual, dual), regular_bimodule(tensor_algebra(
            dual_numbers(Q), dual_numbers(Q)))),
        (routed, Bimodule(routed.left_alg, routed.right_alg, routed.dim, routed.left_act,
                          routed.right_act)),
    ]


class TestTensorCache:
    """tensor_over_alg against the uncached builder it memoizes.

    Each test starts from an empty cache, so the counts below are its own.
    """

    @pytest.fixture(autouse=True)
    def empty_cache(self, monkeypatch):
        monkeypatch.setattr(bimodules, "_TENSORS", {})

    def test_equal_inputs_share_one_presentation(self):
        for (m, n), (m2, n2) in zip(cache_cases(), cache_cases()):
            assert m is not m2 and m == m2 and n == n2
            assert hash(m) == hash(m2) and hash(n) == hash(n2)
            assert tensor_over_alg(m, n) is tensor_over_alg(m2, n2)
        assert len(bimodules._TENSORS) == len(cache_cases())

    def test_labels_are_not_part_of_the_key(self, dual_regular):
        relabelled = Bimodule(dual_regular.left_alg, dual_regular.right_alg, 2,
                              dual_regular.left_act, dual_regular.right_act, ["p", "q"])
        assert hash(relabelled) == hash(dual_regular)
        assert tensor_over_alg(relabelled, dual_regular) is tensor_over_alg(
            dual_regular, dual_regular)

    def test_shared_presentation_matches_a_fresh_build(self):
        for m, n in cache_cases():
            cached, fresh = tensor_over_alg(m, n), bimodules._present_tensor(m, n)
            assert cached is not fresh
            assert relation_space(cached.quot).basis == relation_space(fresh.quot).basis
            assert project_mat(cached.quot) == project_mat(fresh.quot)
            assert lift_mat(cached.quot) == lift_mat(fresh.quot)
            assert cached.result.left_act == fresh.result.left_act
            assert cached.result.right_act == fresh.result.right_act

    def test_one_changed_action_entry_misses(self, dual_regular):
        plain = tensor_over_alg(dual_regular, dual_regular)
        twisted = tensor_over_alg(twisted_dual_regular(), dual_regular)
        assert len(bimodules._TENSORS) == 2
        assert twisted is not plain
        assert relation_space(twisted.quot).basis != relation_space(plain.quot).basis
        fresh = bimodules._present_tensor(twisted_dual_regular(), dual_regular)
        assert relation_space(twisted.quot).basis == relation_space(fresh.quot).basis
        assert tensor_over_alg(twisted_dual_regular(), dual_regular) is twisted

    @pytest.mark.parametrize("error", ["middle algebras differ",
                                       "tensor factors over different fields"],
                             ids=["algebra", "field"])
    def test_failing_call_raises_every_time_and_stores_nothing(self, error, dual_regular):
        if error == "middle algebras differ":
            m, n = dual_regular, scalar_bimodule(Q, 2)
        else:
            m, n = scalar_bimodule(Q, 2), scalar_bimodule(F5, 2)
        tensor_over_alg(dual_regular, dual_regular)
        before = dict(bimodules._TENSORS)
        for _ in range(3):
            with pytest.raises(CoringsError, match=f"^{error}$"):
                tensor_over_alg(m, n)
            assert bimodules._TENSORS == before


class TestInducedMap:
    def test_identity_descends_to_identity(self, dual_regular):
        t = tensor_over_alg(dual_regular, dual_regular)
        ident = Mat.identity(Q, 2)
        assert is_identity(induced_map_on_tensor(ident, ident, t, t))

    def test_functoriality_in_each_argument(self, dual_regular):
        t = tensor_over_alg(dual_regular, dual_regular)
        homs = module_hom_space(dual_regular, dual_regular, "right")
        homs_left = module_hom_space(dual_regular, dual_regular, "left")
        rng = random.Random(11)
        for _ in range(5):
            f1 = random_module_hom(rng, homs, Q, (2, 2))
            f2 = random_module_hom(rng, homs, Q, (2, 2))
            g1 = random_module_hom(rng, homs_left, Q, (2, 2))
            g2 = random_module_hom(rng, homs_left, Q, (2, 2))
            composite = induced_map_on_tensor(f1 @ f2, g1 @ g2, t, t)
            stepwise = (
                induced_map_on_tensor(f1, g1, t, t)
                @ induced_map_on_tensor(f2, g2, t, t)
            )
            assert composite == stepwise

    def test_non_linear_map_raises(self, dual_regular):
        t = tensor_over_alg(dual_regular, dual_regular)
        f = Mat.from_rows(Q, [[0, 0], [1, 0]])
        with pytest.raises(DescentFailure):
            induced_map_on_tensor(f, Mat.identity(Q, 2), t, t)


class TestMiddleSwap:
    def test_permutation_inverse(self):
        s = middle_swap(Q, 2, 3, 2, 2)
        s_back = middle_swap(Q, 2, 2, 3, 2)
        assert is_identity(s @ s_back)


class TestInterchangeIso:
    def test_regular_modules_pure_tensor_formula(self, dual_regular):
        t = tensor_over_alg(dual_regular, dual_regular)
        iso = interchange_iso(t, t)
        tgt = iso.target_tensor
        for c in range(2):
            for c2 in range(2):
                v1, v2 = pure_class(t, 0, c), pure_class(t, 0, c2)
                src = {}
                for i, a in v1.items():
                    for j, b in v2.items():
                        src[i * t.dim + j] = a * b
                expected = tgt.quot.project_vec({c * 2 + c2: Q.one})
                assert iso.map.apply(src) == expected

    def test_ground_field_right_factors_give_identity(self):
        m = scalar_bimodule(Q, 3)
        k_reg = regular_bimodule(ground_algebra(Q))
        t = tensor_over_alg(m, k_reg)
        iso = interchange_iso(t, t)
        assert is_identity(iso.map)

    def test_invertible_on_dual_numbers(self, dual_regular):
        t = tensor_over_alg(dual_regular, dual_regular)
        iso = interchange_iso(t, t)
        assert iso.map.nrows == iso.map.ncols == 4
        assert is_identity(iso.map @ iso.inverse_map)
        assert is_identity(iso.inverse_map @ iso.map)


class TestNaturality:
    @pytest.fixture
    def square(self, dual_regular):
        m = restrict_scalars(dual_regular, left=unit_map(dual_regular.left_alg))
        return InterchangeFixtures(m, m, m, m, dual_regular, dual_regular)

    def test_identity_square(self, square):
        ident = Mat.identity(Q, 2)
        assert check_interchange_naturality(ident, ident, square).ok

    def test_random_right_linear_maps(self, square, dual_regular):
        m = restrict_scalars(dual_regular, left=unit_map(dual_regular.left_alg))
        homs = module_hom_space(m, m, "right")
        assert len(homs) == 2
        rng = random.Random(23)
        for _ in range(10):
            f = random_module_hom(rng, homs, Q, (2, 2))
            g = random_module_hom(rng, homs, Q, (2, 2))
            assert check_interchange_naturality(f, g, square).ok

    def test_non_linear_rejected_at_precondition(self, square):
        bad = Mat.from_rows(Q, [[0, 0], [1, 0]])
        with pytest.raises(ValueError):
            check_interchange_naturality(bad, Mat.identity(Q, 2), square)

    def test_inverse_also_natural(self, square):
        # The inverse matrices satisfy the reversed square for random maps.
        m_homs = module_hom_space(square.m, square.m, "right")
        rng = random.Random(5)
        f = random_module_hom(rng, m_homs, Q, (2, 2))
        g = random_module_hom(rng, m_homs, Q, (2, 2))
        ident_c = Mat.identity(Q, 2)
        f_tens = induced_map_on_tensor(f, ident_c, square.t_mc, square.t_m2c)
        g_tens = induced_map_on_tensor(g, ident_c, square.t_nc, square.t_n2c)
        fg = induced_map_on_tensor(
            f.kron(g), Mat.identity(Q, 4), square.iso.target_tensor,
            square.iso2.target_tensor,
        )
        assert square.iso.inverse_map @ f_tens.kron(g_tens) == fg @ square.iso2.inverse_map


def two_route_corings():
    """Corings whose tensor presentations have relations."""
    sweedler = sweedler_coring(AlgebraMorphism(
        ground_algebra(F5), dual_numbers(F5), Mat.from_rows(F5, [[1, 0]])))
    return {
        "dual-Q": trivial_coring(dual_numbers(Q)),
        "dual-F5": trivial_coring(dual_numbers(F5)),
        "sweedler-F5": sweedler,
    }


def two_route_shapes(c):
    """(t_src, g_lift, t_pair, t_y) as the checkers use the helper.

    Coassociativity: X = Y = Y1 = Y2 = C and g the comultiplication.  Left
    coaction: X = Y1 = C, Y = Y2 = M the regular left comodule and g its
    coaction.  t_y presents Y1 (x) Y2, the tensor g lands in.
    """
    m = restrict_scalars(c.carrier, right=unit_map(c.base))
    t_cm = tensor_over_alg(c.carrier, m)
    return {
        "coassociativity": (c.tens, c.comul_lift, c.tens, c.tens),
        "left-coaction": (t_cm, c.comul_lift, c.tens, t_cm),
    }


def flat_triple_relations(t_pair, t_y):
    """R_{X,Y1} (x) Y2 + X (x) R_{Y1,Y2} inside X (x)_k Y1 (x)_k Y2."""
    d_x = t_pair.left_factor.dim
    d_y1, d_y2 = t_y.left_factor.dim, t_y.right_factor.dim
    gens = []
    for r in relation_space(t_pair.quot).basis.rows:
        for y2 in range(d_y2):
            gens.append({xy1 * d_y2 + y2: v for xy1, v in r.items()})
    for r in relation_space(t_y.quot).basis.rows:
        for x in range(d_x):
            gens.append({x * d_y1 * d_y2 + k: v for k, v in r.items()})
    return from_generators(t_pair.field, d_x * d_y1 * d_y2, gens)


def doubled_second_half(field, dim):
    """diag(1, .., 1, 2, .., 2).

    On k[x]/(x^2) and on its Sweedler coring the basis vectors with a left
    factor x come second, so this map is not left linear.
    """
    return Mat(field, dim, dim, [{i: field.coerce(1 + 2 * i // dim)} for i in range(dim)])


CORING_IDS = list(two_route_corings())
SHAPE_IDS = ["coassociativity", "left-coaction"]


class TestRegroupedIdTensor:
    """regrouped_id_tensor against the flat definition of the triple tensor."""

    @pytest.mark.parametrize("shape", SHAPE_IDS)
    @pytest.mark.parametrize("coring", CORING_IDS)
    def test_rows_are_flat_classes(self, coring, shape):
        t_src, g_lift, t_pair, t_y = two_route_shapes(two_route_corings()[coring])[shape]
        field = t_src.field
        t_left = tensor_over_alg(t_pair.result, t_y.right_factor)
        flat = flat_triple_relations(t_pair, t_y)
        assert flat.dim > 0
        assert flat.ambient_dim - flat.dim == t_left.dim

        got = regrouped_id_tensor(t_src, g_lift, t_pair, t_left)
        ident_y2 = Mat.identity(field, t_y.right_factor.dim)
        back = got @ lift_mat(t_left.quot) @ lift_mat(t_pair.quot).kron(ident_y2)
        ident_x = Mat.identity(field, t_src.left_factor.dim)
        direct = lift_mat(t_src.quot) @ ident_x.kron(g_lift)
        assert got.nrows == t_src.dim and any(got.rows)
        for row in mat_sub(back, direct).rows:
            assert contains(flat, row)

    @pytest.mark.parametrize("shape", SHAPE_IDS)
    @pytest.mark.parametrize("coring", CORING_IDS)
    def test_non_left_linear_map_raises(self, coring, shape):
        t_src, g_lift, t_pair, t_y = two_route_shapes(two_route_corings()[coring])[shape]
        t_left = tensor_over_alg(t_pair.result, t_y.right_factor)
        bent = doubled_second_half(t_src.field, g_lift.nrows) @ g_lift
        with pytest.raises(DescentFailure, match="^ambient map does not send source"):
            regrouped_id_tensor(t_src, bent, t_pair, t_left)
