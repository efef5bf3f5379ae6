"""The strict monoidal structure checked as equalities of corings.

`verify_monoidal` checks the unitors and the associator by comparing corings
(C tensored with the unit is C; both groupings of a triple are one coring) and
checks each sampled composite once.  The verifier it replaced, which checked
each unitor and associator half as a morphism and each composite once per
square, is kept in tests/reference.py as `reference_verify_monoidal`; on
families whose corings are all valid both must give the same verdict, on the
three benchmark corpora and on derandomized corruptions of their morphisms.
The tests below also pin what the deleted re-checks covered, and
`regrouped_kron` against the Kronecker product followed by the middle-swap
permutation it replaced.
"""

import random
from functools import cache
from pathlib import Path
from unittest import mock

import pytest

from corings import category
from corings.bimodules import regrouped_kron
from corings.category import (
    CATEGORIES,
    CORINGS,
    EXT,
    MAX_SQUARES,
    MAX_TRIPLES,
    CoringsMorphism,
    ExtMorphism,
    _composable_pairs,
    _sampled,
    check_ext_morphism,
    corings_identity,
    ext_compose,
    ext_identity,
    ext_morphisms_equal,
    verify_monoidal,
)
from corings.constructions import tensor_coring
from corings.coring import Coring
from corings.linalg import Field, Mat, _vadd
from corings.workspace import load_workspace
from reference import is_identity, middle_swap, reference_verify_monoidal, scaled
from test_law_rows import corrupt_corings_morphism, corrupt_ext

WORKSPACES = Path(__file__).resolve().parents[1] / "perfbench" / "workspaces"
CORPORA = ("cli-q", "cli-f5", "monoidal-f5")
KINDS = ("ext", "corings")
SEEDS = range(4)
# Corrupted families per seed and category: most on the small monoidal
# corpus, whose runs are fastest; 248 in all.
CORRUPTIONS = {"cli-q": 3, "cli-f5": 3, "monoidal-f5": 25}
F5 = Field.prime(5)


@cache
def family(corpus, kind):
    ws = load_workspace(WORKSPACES / f"{corpus}.json")
    return list(ws.corings.values()), [m for k, m in ws.morphisms.values() if k == kind]


def outcome(run, *args):
    try:
        v = run(*args)
    except Exception as e:  # both verifiers must raise alike
        return ("raised", type(e).__name__, str(e))
    return (v.ok, v.law, v.witness, v.laws_passed, v.laws_vacuous)


@pytest.mark.parametrize("corpus", CORPORA)
@pytest.mark.parametrize("kind", KINDS)
def test_verdicts_match_the_reference_on_the_corpora(corpus, kind):
    corings, morphisms = family(corpus, kind)
    for seed in SEEDS:
        got = outcome(verify_monoidal, CATEGORIES[kind], corings, morphisms, seed)
        assert got == outcome(reference_verify_monoidal, corings, morphisms, seed, kind)
        assert got[0] is True


def corrupted_family(rng, kind, morphisms):
    """`morphisms` with one or two of them corrupted; the corings stay valid."""
    corrupt = corrupt_ext if kind == "ext" else corrupt_corings_morphism
    out = list(morphisms)
    for i in rng.sample(range(len(out)), rng.choice([1, 1, 2])):
        out[i] = corrupt(rng, out[i])
    return out


@pytest.mark.parametrize("corpus", CORPORA)
@pytest.mark.parametrize("kind", KINDS)
def test_verdicts_match_the_reference_on_corrupted_morphisms(corpus, kind):
    corings, morphisms = family(corpus, kind)
    rng = random.Random(f"{corpus}/{kind}")
    laws = set()
    for seed in SEEDS:
        for _ in range(CORRUPTIONS[corpus]):
            bad = corrupted_family(rng, kind, morphisms)
            got = outcome(verify_monoidal, CATEGORIES[kind], corings, bad, seed)
            assert got == outcome(reference_verify_monoidal, corings, bad, seed, kind)
            laws.add(got[1])
    # Some corruptions fail interchange, and some are never sampled.
    assert {"interchange", None} <= laws


def test_each_composite_is_checked_once():
    for kind in KINDS:
        check = mock.Mock(wraps=CATEGORIES[kind].check)
        counted = CATEGORIES[kind]._replace(check=check)
        corings, morphisms = family("monoidal-f5", kind)
        pairs = _composable_pairs(morphisms)
        squares = _sampled([(p, q) for p in pairs for q in pairs], MAX_SQUARES[kind], 1)
        assert verify_monoidal(counted, corings, morphisms, 1).ok
        assert check.call_count == len({p for square in squares for p in square})
        # Outside interchange no morphism is checked.
        check.reset_mock()
        assert verify_monoidal(counted, corings, [], 1).ok
        assert check.call_count == 0


def random_lift(rng, field, nrows, ncols):
    rows = [{j: field.coerce(rng.randrange(1, 5)) for j in rng.sample(range(ncols),
                                                                     rng.randrange(ncols + 1))}
            for _ in range(nrows)]
    return Mat(field, nrows, ncols, rows)


@pytest.mark.parametrize("field", [Field.rationals(), F5], ids=["Q", "F5"])
def test_regrouped_kron_is_kron_then_middle_swap(field):
    rng = random.Random(7)
    for _ in range(40):
        n1, n2, a, b, c, d = (rng.randrange(1, 4) for _ in range(6))
        f = random_lift(rng, field, n1, a * b)
        g = random_lift(rng, field, n2, c * d)
        assert regrouped_kron(f, g, b, d) == f.kron(g) @ middle_swap(field, a, b, c, d)


@pytest.mark.parametrize("corpus", CORPORA)
def test_regrouped_kron_on_corpus_lifts(corpus):
    corings, morphisms = family(corpus, "ext")
    corings = [c for c in corings if c.dim <= 4]
    for c in corings:
        for c2 in corings:
            want = c.comul_lift.kron(c2.comul_lift) @ middle_swap(
                c.field, c.dim, c.dim, c2.dim, c2.dim)
            assert regrouped_kron(c.comul_lift, c2.comul_lift, c.dim, c2.dim) == want
    for m in morphisms:
        for m2 in morphisms:
            want = m.coact_lift.kron(m2.coact_lift) @ middle_swap(
                m.source.field, m.source.dim, m.target.dim, m2.source.dim, m2.target.dim)
            got = regrouped_kron(m.coact_lift, m2.coact_lift, m.target.dim, m2.target.dim)
            assert got == want


# What the deleted unitor and associator re-checks covered.

@pytest.mark.parametrize("corpus", CORPORA)
def test_identity_of_every_corpus_coring_is_a_morphism_and_idempotent(corpus):
    corings, _ = family(corpus, "ext")
    for c in corings:
        ident = ext_identity(c)
        assert check_ext_morphism(ident).ok
        twice = ext_compose(ident, ident)
        assert twice.action_mats == ident.action_mats
        assert ext_morphisms_equal(twice, ident)


@pytest.mark.parametrize("corpus", CORPORA)
def test_every_admitted_triple_reassociates_to_the_same_coring(corpus):
    corings, _ = family(corpus, "ext")
    triples = [(x, y, z) for x in corings for y in corings for z in corings
               if x.dim * y.dim * z.dim <= 64]
    assert len(triples) > MAX_TRIPLES
    for x, y, z in triples:
        assert tensor_coring(tensor_coring(x, y), z) == tensor_coring(x, tensor_coring(y, z))


# Tensors of identities that are not the identity trip exactly
# identity-preservation, the first law.

IDENTITY_PRESERVATION_WITNESS = (
    "tensor of the identities of corings 0 and 0 is not the identity of their tensor")


def test_a_doubled_tensor_of_identities_trips_identity_preservation():
    corings, _ = family("monoidal-f5", "corings")

    def doubled(m, m2):
        t = CORINGS.tensor(m, m2)
        return CoringsMorphism(t.source, t.target, scaled(t.phi, F5.coerce(2)), t.varphi)

    v = verify_monoidal(CORINGS._replace(tensor=doubled), corings, [], 1)
    assert (v.ok, v.law, v.witness) == (False, "identity-preservation",
                                        IDENTITY_PRESERVATION_WITNESS)
    assert v.laws_passed == ()


def test_a_relation_added_to_the_coaction_lift_trips_identity_preservation():
    """The lift with a relation of its coaction tensor added is the identity in
    the quotient, so `ext_morphisms_equal` holds; identity preservation
    compares the data exactly and must still fail.  The base of
    dual_regular (x) dual_regular has dim 4, so the coaction tensor has
    relations."""
    dual = load_workspace(WORKSPACES / "cli-f5.json").corings["dual_regular"]
    perturbed = []

    def with_relation(m, m2):
        t = EXT.tensor(m, m2)
        lift = t.coact_lift.copy()
        _vadd(F5, lift.rows[0], next(t.coaction_tensor.quot.relation_rows()), F5.one)
        perturbed.append(ExtMorphism(t.source, t.target, t.action_mats, lift))
        return perturbed[-1]

    v = verify_monoidal(EXT._replace(tensor=with_relation), [dual], [], 1)
    assert (v.ok, v.law, v.witness) == (False, "identity-preservation",
                                        IDENTITY_PRESERVATION_WITNESS)
    assert v.laws_passed == ()
    [m] = perturbed
    assert m.source.base.dim == 4
    assert m.coact_lift != ext_identity(m.source).coact_lift
    assert ext_morphisms_equal(m, ext_identity(m.source))


def test_ext_morphism_equality_is_exact_on_the_data():
    """Two builds of one identity are equal.  With a relation of its coaction
    tensor added to the coaction lift it is another morphism, though
    `ext_morphisms_equal`, which compares coactions in the quotient, holds.
    Neither kind of morphism is hashable."""
    dual = load_workspace(WORKSPACES / "cli-f5.json").corings["dual_regular"]
    c = tensor_coring(dual, dual)
    ident = ext_identity(c)
    assert ident is not ext_identity(c) and ident == ext_identity(c)
    lift = ident.coact_lift.copy()
    _vadd(F5, lift.rows[0], next(ident.coaction_tensor.quot.relation_rows()), F5.one)
    perturbed = ExtMorphism(c, c, ident.action_mats, lift)
    assert perturbed != ident and ext_morphisms_equal(perturbed, ident)
    for m in (ident, corings_identity(c)):
        with pytest.raises(TypeError):
            hash(m)


# Corruptions that trip exactly one of the two strictness laws.  The family
# has no morphisms, so interchange is vacuous.

def perturbed_tensor_coring(when):
    """`tensor_coring` that adds 1 to one comultiplication-lift entry when `when` holds.

    `when(c, c2, made)` also sees every tensor coring built so far.  The
    perturbed coring is a copy: `tensor_coring` shares its results, which no
    caller may change.
    """
    made = []

    def build(c, c2):
        t = tensor_coring(c, c2)
        if when(c, c2, made):
            lift = t.comul_lift.copy()
            _vadd(t.field, lift.rows[0], {0: t.field.one}, t.field.one)
            t = Coring(t.base, t.carrier, lift, t.counit_mat)
        made.append(t)
        return t

    return build


def is_unit(c):
    return c.dim == 1 and c.base.dim == 1


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("unit_side", [0, 1], ids=["unit-left", "unit-right"])
def test_unit_corruption_trips_only_unit_isomorphisms(kind, unit_side):
    corings, _ = family("monoidal-f5", "ext")
    build = perturbed_tensor_coring(lambda c, c2, made: is_unit((c, c2)[unit_side]))
    with mock.patch.object(category, "tensor_coring", build):
        v = verify_monoidal(CATEGORIES[kind], corings, [], 1)
    assert (v.ok, v.law) == (False, "unit-isomorphisms")
    assert v.witness == "tensoring coring 0 with the unit does not collapse to it"
    assert v.laws_passed == ("identity-preservation", "interchange")
    assert v.laws_vacuous == ("interchange",)


@pytest.mark.parametrize("kind", KINDS)
def test_left_nested_corruption_trips_only_the_associator(kind):
    corings, _ = family("monoidal-f5", "ext")
    build = perturbed_tensor_coring(lambda c, c2, made: any(c is t for t in made))
    with mock.patch.object(category, "tensor_coring", build):
        v = verify_monoidal(CATEGORIES[kind], corings, [], 1)
    assert (v.ok, v.law) == (False, "associator")
    assert v.witness.startswith("the two groupings of (")
    assert v.laws_passed == ("identity-preservation", "interchange", "unit-isomorphisms")
    assert v.laws_vacuous == ("interchange",)


def test_a_tensor_that_is_not_functorial_trips_the_interchange_square():
    """Doubling every tensor of morphisms but identities breaks only the square."""
    corings, morphisms = family("monoidal-f5", "corings")

    def doubled(m, m2):
        t = CORINGS.tensor(m, m2)
        if is_identity(m.phi) and is_identity(m2.phi):
            return t
        return CoringsMorphism(t.source, t.target, scaled(t.phi, F5.coerce(2)), t.varphi)

    v = verify_monoidal(CORINGS._replace(tensor=doubled), corings, morphisms, 1)
    assert (v.ok, v.law) == (False, "interchange")
    assert v.witness.startswith("interchange fails on morphism pairs")
    assert v.laws_passed == ("identity-preservation",)
