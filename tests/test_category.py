from itertools import product
from pathlib import Path

import pytest

from conftest import (
    CYCLIC_2,
    FIELD_IDS,
    KLEIN_4,
    coring_family,
    corings_morphism_family,
    ext_morphism_family,
    make_field,
)
from corings.algebras import (
    AlgebraMorphism,
    dual_numbers,
    ground_algebra,
)
from corings.bimodules import _kron_apply
from corings.category import (
    CORINGS,
    EXT,
    CoringsMorphism,
    ExtMorphism,
    base_ring_extension,
    check_corings_morphism,
    check_ext_morphism,
    corings_compose,
    corings_identity,
    corings_tensor_morphisms,
    counit_corings_morphism,
    ext_compose,
    ext_compose_via_cotensor,
    ext_identity,
    ext_morphisms_equal,
    ext_tensor_morphisms,
    ext_to_trivial,
    ext_to_unit,
    grouplike_corings_morphism,
    trivial_corings_morphism,
    verify_monoidal,
)
from corings.constructions import (
    grouplike_coalgebra,
    matrix_coalgebra,
    tensor_coring,
    trivial_coring,
    unit_coring,
)
from corings.coring import _counit_contraction
from corings.errors import CoringsError
from corings.linalg import Field, Mat
from corings.workspace import load_workspace
from oracles import base_extension_maps
from reference import (
    describe,
    inverse,
    is_identity,
    project_mat,
    reference_ext_compose,
    reference_ext_compose_via_cotensor,
    scaled,
)

WORKSPACES = Path(__file__).resolve().parents[1] / "perfbench" / "workspaces"
Q = Field.rationals()
F5 = Field.prime(5)


@pytest.fixture(scope="module")
def f5_family():
    return coring_family(F5)


@pytest.fixture(scope="module")
def f5_ext_morphisms(f5_family):
    return ext_morphism_family(f5_family)


class TestExtMorphisms:
    def test_identity_passes(self, f5_family):
        for _, c in f5_family:
            assert check_ext_morphism(ext_identity(c)).ok

    def test_to_unit_and_to_trivial_pass(self, f5_family):
        for _, c in f5_family:
            assert check_ext_morphism(ext_to_unit(c)).ok
            assert check_ext_morphism(ext_to_trivial(c)).ok

    def test_zero_coaction_fails(self):
        mc = matrix_coalgebra(2, F5)
        z = ExtMorphism(mc, mc, ext_identity(mc).action_mats,
                        Mat(F5, 4, 16, [{} for _ in range(4)]))
        v = check_ext_morphism(z)
        assert not v.ok and v.law == "coaction"

    def test_non_unital_action_trips_bimodule(self):
        # The unit coring's base is k, so the one action matrix is that of 1.
        mc = matrix_coalgebra(2, F5)
        m = ExtMorphism(mc, unit_coring(F5), [scaled(Mat.identity(F5, 4), 2)],
                        ext_to_unit(mc).coact_lift)
        v = check_ext_morphism(m)
        assert (v.law, v.witness) == ("bimodule", "unit acts as a non-identity matrix")

    def test_identity_action_is_the_initial_action(self):
        mc = matrix_coalgebra(2, F5)
        ei = ext_identity(mc)
        assert [is_identity(m) for m in ei.action_mats] == [True]  # base is k
        assert ei.coact_lift == mc.comul_lift


class TestBulletComposition:
    def test_unit_laws(self, f5_ext_morphisms):
        for _, m in f5_ext_morphisms:
            assert ext_morphisms_equal(ext_compose(m, ext_identity(m.source)), m)
            assert ext_morphisms_equal(ext_compose(ext_identity(m.target), m), m)

    def test_associativity_on_chains(self, f5_family):
        for _, c in f5_family:
            f1 = ext_identity(c)
            f2 = ext_to_trivial(c)
            f3 = ext_to_unit(f2.target)
            lhs = ext_compose(f3, ext_compose(f2, f1))
            rhs = ext_compose(ext_compose(f3, f2), f1)
            assert ext_morphisms_equal(lhs, rhs)

    def test_composites_are_valid_morphisms(self, f5_family):
        for _, c in f5_family:
            comp = ext_compose(ext_to_unit(ext_to_trivial(c).target), ext_to_trivial(c))
            assert check_ext_morphism(comp).ok

    def test_object_mismatch(self, f5_family):
        corings = dict(f5_family)
        with pytest.raises(CoringsError, match="^inner endpoints do not match$"):
            ext_compose(ext_to_unit(corings["matrix2"]), ext_to_unit(corings["grouplike_c2"]))


def assert_composites_match_the_reference(morphisms):
    """On every pair (g, f) of `morphisms` with f's target g's source, at least
    one, and on (g (x) g2, f (x) f2) for every two such pairs, the composite
    the right-hand side of interchange forms, `ext_compose` equals
    `reference_ext_compose` exactly."""
    pairs = [(g, f) for g, f in product(morphisms, morphisms) if f.target == g.source]
    assert pairs
    tensors = [(ext_tensor_morphisms(g, g2), ext_tensor_morphisms(f, f2))
               for (g, f), (g2, f2) in product(pairs, pairs)]
    for g, f in [*pairs, *tensors]:
        assert ext_compose(g, f) == reference_ext_compose(g, f)


def term_by_term_contraction(lift, width, counit, acts, left):
    """`_counit_contraction` as a dense sum over every lift entry, counit
    column (t, j) and coordinate w of the module: val * e * acts[t][m][w]
    lands at w * s + j."""
    field = lift.field
    s = counit.ncols // len(acts)
    n = acts[0].nrows
    rows = []
    for row in lift.rows:
        out = [field.zero] * (n * s)
        for idx, val in row.items():
            x, y = divmod(idx, width)
            leg, m = (x, y) if left else (y, x)
            for t, j, w in product(range(len(acts)), range(s), range(n)):
                term = field.mul(field.mul(val, counit.rows[leg].get(t * s + j, field.zero)),
                                 acts[t].rows[m].get(w, field.zero))
                out[w * s + j] = field.add(out[w * s + j], term)
        rows.append(out)
    return Mat.from_rows(field, rows, n * s)


@pytest.mark.parametrize("field_id", FIELD_IDS)
@pytest.mark.parametrize("s", [1, 3])
def test_a_counit_valued_in_a_tensor_matches_the_term_by_term_sum(field_id, s):
    """A counit X -> A (x) k^s, here dense and without structure, contracts
    each lift into M (x) k^s on both legs."""
    field = make_field(field_id)
    for _, m in ext_morphism_family(coring_family(field)):
        c = m.source
        for lift, width, acts, left in ((m.coact_lift, m.target.dim, m.action_mats, False),
                                        (c.comul_lift, c.dim, c.carrier.left_act, True)):
            legs = lift.ncols // width if left else width
            counit = Mat.from_rows(field, [[(3 * i + 5 * k + 1) % 7 - 3
                                            for k in range(len(acts) * s)]
                                           for i in range(legs)])
            got = _counit_contraction(lift, width, counit, acts, left)
            assert got == term_by_term_contraction(lift, width, counit, acts, left)
            assert (got.nrows, got.ncols) == (lift.nrows, acts[0].nrows * s)


class TestBulletCoactionAgainstTheReference:
    """`ext_compose` contracts each row of f's lift with the counit
    (eps_C (x) D) o rho_g, valued in A (x) D; `reference_ext_compose` sums
    the terms of both lifts one by one."""

    @pytest.mark.parametrize("corpus", ["cli-q", "cli-f5", "monoidal-f5"])
    def test_every_corpus_pair(self, corpus):
        ws = load_workspace(WORKSPACES / f"{corpus}.json")
        assert_composites_match_the_reference(
            [*ws.extensions.values(), *(m for kind, m in ws.morphisms.values() if kind == "ext")])

    @pytest.mark.parametrize("field_id", FIELD_IDS)
    def test_every_family_pair(self, field_id):
        family = coring_family(make_field(field_id))
        assert_composites_match_the_reference([m for _, m in ext_morphism_family(family)])

    def test_the_contraction_lands_in_the_module(self):
        """For the identity of the 4-dim C over k, the counit of the bullet
        coaction is (eps (x) C) o comul, the identity of k (x) C, so the
        contraction of the comultiplication lift lands in C (x) C, dim 16, as
        that lift itself."""
        mc = matrix_coalgebra(2, F5)
        eps_rho = Mat(F5, 4, 4, [_kron_apply(mc.counit_mat, 4, row)
                                 for row in mc.comul_lift.rows])
        assert eps_rho == Mat.identity(F5, 4)
        got = _counit_contraction(mc.comul_lift, 4, eps_rho, mc.carrier.right_act, False)
        assert (got.nrows, got.ncols) == (4, 16)
        assert got == mc.comul_lift


def oracle_chains(c):
    """Composable pairs (g, f) of ext morphisms out of `c`."""
    return [
        (ext_identity(c), ext_identity(c)),
        (ext_to_unit(c), ext_identity(c)),
        (ext_to_trivial(c), ext_identity(c)),
        (ext_to_unit(ext_to_trivial(c).target), ext_to_trivial(c)),
    ]


class TestCotensorOracle:
    @pytest.mark.parametrize("field", [Q, F5], ids=["Q", "F5"])
    def test_oracle_matches_explicit_formula(self, field):
        for _, c in coring_family(field):
            for g, f in oracle_chains(c):
                a = ext_compose(g, f)
                assert ext_morphisms_equal(a, ext_compose_via_cotensor(g, f, a))

    @pytest.mark.parametrize("field", [Q, F5], ids=["Q", "F5"])
    def test_oracle_matches_the_route_that_rebuilt_the_cotensor(self, field):
        """The oracle that starts from f's coaction gives exactly the coaction
        lift of the route that built E box_C C and checked the embedding."""
        for _, c in coring_family(field):
            for g, f in oracle_chains(c):
                new = ext_compose_via_cotensor(g, f, ext_compose(g, f))
                old = reference_ext_compose_via_cotensor(g, f)
                assert new.coact_lift == old.coact_lift
                assert new.action_mats == old.action_mats


class TestExtTensor:
    def test_identity_tensor_identity(self, f5_family):
        corings = dict(f5_family)
        t = tensor_coring(corings["matrix2"], corings["grouplike_c2"])
        lhs = ext_tensor_morphisms(
            ext_identity(corings["matrix2"]), ext_identity(corings["grouplike_c2"]),
        )
        assert lhs.source == t == lhs.target
        assert lhs.action_mats == ext_identity(t).action_mats
        assert lhs.coact_lift == t.comul_lift

    def test_tensor_of_to_unit_morphisms(self, f5_family):
        corings = dict(f5_family)
        m = ext_tensor_morphisms(
            ext_to_unit(corings["grouplike_c2"]), ext_to_unit(corings["dual_regular"])
        )
        assert m.target.dim == 1
        assert check_ext_morphism(m).ok

    def test_interchange_on_a_square(self, f5_family):
        corings = dict(f5_family)
        squares = []
        for name in ("grouplike_c2", "dual_regular"):
            c = corings[name]
            squares.append((ext_to_unit(ext_to_trivial(c).target), ext_to_trivial(c)))
        (g, f), (g2, f2) = squares
        lhs = ext_tensor_morphisms(ext_compose(g, f), ext_compose(g2, f2))
        rhs = ext_compose(ext_tensor_morphisms(g, g2), ext_tensor_morphisms(f, f2))
        assert ext_morphisms_equal(lhs, rhs)


class TestCoringsMorphisms:
    def test_identity_and_counit(self, f5_family):
        for _, c in f5_family:
            assert check_corings_morphism(corings_identity(c)).ok
            assert check_corings_morphism(counit_corings_morphism(c)).ok

    def test_algebra_map_induced(self):
        collapse = AlgebraMorphism(
            dual_numbers(F5), ground_algebra(F5), Mat.from_rows(F5, [[1], [0]])
        )
        assert check_corings_morphism(trivial_corings_morphism(collapse)).ok

    def test_grouplike_inclusion(self):
        gl = grouplike_coalgebra(CYCLIC_2, F5)
        gl4 = grouplike_coalgebra(KLEIN_4, F5)
        m = grouplike_corings_morphism(gl, gl4, [0, 1])
        assert check_corings_morphism(m).ok

    def test_non_grouplike_image_fails(self):
        gl = grouplike_coalgebra(CYCLIC_2, F5)
        # g_0 maps to 3g_0 + 3g_1: the counit is preserved (3+3=1 mod 5) but
        # the image is not grouplike.
        phi = Mat.from_rows(F5, [[3, 3], [0, 1]])
        m = CoringsMorphism(gl, gl, phi, corings_identity(gl).varphi)
        v = check_corings_morphism(m)
        assert not v.ok and v.law == "comultiplication-square"

    def test_non_linear_carrier_map_trips_bilinearity(self):
        du = trivial_coring(dual_numbers(F5))
        phi = Mat.from_rows(F5, [[1, 0], [0, 0]])
        v = check_corings_morphism(CoringsMorphism(du, du, phi, corings_identity(du).varphi))
        assert (v.law, v.witness) == ("bilinearity", "carrier map is not left-linear over x")

    def test_scaled_carrier_map_trips_counit_square(self):
        gl = grouplike_coalgebra(CYCLIC_2, F5)
        phi = scaled(Mat.identity(F5, 2), 2)
        v = check_corings_morphism(CoringsMorphism(gl, gl, phi, corings_identity(gl).varphi))
        assert (v.law, v.witness) == (
            "counit-square",
            "counit of the target after the carrier map differs from the algebra map "
            "after the source counit",
        )

    def test_non_multiplicative_algebra_map(self):
        bad = AlgebraMorphism(
            dual_numbers(F5), ground_algebra(F5), Mat.from_rows(F5, [[1], [1]])
        )
        v = check_corings_morphism(trivial_corings_morphism(bad))
        assert not v.ok and v.law == "algebra-morphism"

    def test_compose_and_associativity(self):
        sw_counit = counit_corings_morphism(grouplike_coalgebra(CYCLIC_2, Q))
        collapse = trivial_corings_morphism(
            AlgebraMorphism(ground_algebra(Q), ground_algebra(Q), Mat.identity(Q, 1))
        )
        chain = corings_compose(collapse, sw_counit)
        assert check_corings_morphism(chain).ok
        lhs = corings_compose(collapse, corings_compose(collapse, sw_counit))
        rhs = corings_compose(corings_compose(collapse, collapse), sw_counit)
        assert lhs == rhs

    def test_tensor_of_morphisms(self, f5_family):
        corings = dict(f5_family)
        m = corings_tensor_morphisms(
            counit_corings_morphism(corings["matrix2"]),
            counit_corings_morphism(corings["grouplike_c2"]),
        )
        assert check_corings_morphism(m).ok

    def test_counit_tensor_counit_is_tensor_counit(self, f5_family):
        corings = dict(f5_family)
        a, b = corings["matrix2"], corings["grouplike_c2"]
        m = corings_tensor_morphisms(counit_corings_morphism(a), counit_corings_morphism(b))
        t = tensor_coring(a, b)
        assert m.phi == t.counit_mat


class TestMonoidalVerifiers:
    def test_ext_passes(self, f5_family, f5_ext_morphisms):
        v = verify_monoidal(EXT, [c for _, c in f5_family],
                            [m for _, m in f5_ext_morphisms], seed=0)
        assert v.ok, describe(v)

    def test_ext_single_unit_family(self):
        v = verify_monoidal(EXT, [unit_coring(F5)], [ext_identity(unit_coring(F5))])
        assert v.ok
        assert v.laws_vacuous == ()

    def test_ext_no_morphisms_interchange_vacuous(self, f5_family):
        v = verify_monoidal(EXT, [c for _, c in f5_family], [])
        assert v.ok
        assert v.laws_vacuous == ("interchange",)
        assert "interchange" in v.laws_passed

    def test_ext_detects_corruption_in_interchange(self, f5_family, f5_ext_morphisms):
        corings = dict(f5_family)
        morphs = [m for _, m in f5_ext_morphisms]
        mc = corings["matrix2"]
        bad = ExtMorphism(mc, unit_coring(F5), ext_to_unit(mc).action_mats,
                          Mat(F5, 4, 4, [{} for _ in range(4)]))
        idx = [name for name, _ in f5_ext_morphisms].index("to_unit_matrix2")
        morphs[idx] = bad
        v = verify_monoidal(EXT, [c for _, c in f5_family], morphs, seed=0)
        assert not v.ok and v.law == "interchange"
        assert v.witness is not None

    def test_corings_passes(self, f5_family):
        morphs = corings_morphism_family(F5, f5_family)
        corings = [c for _, c in f5_family]
        corings.append(grouplike_coalgebra(KLEIN_4, F5))
        v = verify_monoidal(CORINGS, corings, [m for _, m in morphs], seed=0)
        assert v.ok, describe(v)

    def test_corings_detects_corruption(self, f5_family):
        morphs = [m for _, m in corings_morphism_family(F5, f5_family)]
        gl = dict(f5_family)["grouplike_c2"]
        phi = Mat.from_rows(F5, [[1, 1], [0, 1]])
        morphs.append(CoringsMorphism(gl, gl, phi, corings_identity(gl).varphi))
        v = verify_monoidal(CORINGS, [c for _, c in f5_family], morphs, seed=0)
        assert not v.ok and v.law == "interchange"


class TestCoringsToExt:
    @pytest.mark.parametrize("field", [Q, F5], ids=["Q", "F5"])
    def test_every_fixture_morphism(self, field):
        family = coring_family(field)
        for name, m in corings_morphism_family(field, family):
            ext = base_ring_extension(m)
            assert check_ext_morphism(ext).ok, name

    def test_invalid_morphism_rejected(self):
        bad = AlgebraMorphism(
            dual_numbers(F5), ground_algebra(F5), Mat.from_rows(F5, [[1], [1]])
        )
        with pytest.raises(CoringsError, match="^algebra-morphism: multiplicativity: "):
            base_ring_extension(trivial_corings_morphism(bad))

    def test_identity_recovers_ext_identity(self):
        mc = matrix_coalgebra(2, F5)
        m = corings_identity(mc)
        ext = base_ring_extension(m)
        mu, _ = base_extension_maps(m)
        mu_inv = inverse(mu)
        ei = ext_identity(mc)
        for j in range(mc.base.dim):
            assert mu_inv @ ext.action_mats[j] @ mu == ei.action_mats[j]
        transported = mu_inv @ ext.coact_lift @ mu.kron(Mat.identity(F5, mc.dim))
        assert transported @ project_mat(mc.tens.quot) == mc.comul
