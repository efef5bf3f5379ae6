"""The Sweedler coring and the base ring extension against their term-by-term builds.

`sweedler_coring` and `base_ring_extension` read each comultiplication and
coaction row off the Kronecker product of two projected factor maps applied
to a lift.  `reference_sweedler_coring` and `reference_base_ring_extension`
(tests/reference.py) project every pure tensor of every term on its own, as
the library did before.  Both must give the same coring, action matrices and
coaction lift exactly, over Q and F_5, on every corings morphism of the three
corpora, on the morphisms of `conftest.corings_morphism_family` (whose
`dual_collapse` changes the base), and on Sweedler corings of inclusions
with B = k and with B != k.
"""

from pathlib import Path

import pytest

from conftest import (
    CYCLIC_2,
    FIELD_IDS,
    KLEIN_4,
    coring_family,
    corings_morphism_family,
    make_field,
)
from corings.algebras import (
    AlgebraMorphism,
    dual_numbers,
    ground_algebra,
    group_algebra,
    identity_morphism,
)
from corings.category import base_ring_extension, corings_identity, counit_corings_morphism
from corings.constructions import sweedler_coring
from corings.linalg import Mat
from corings.workspace import load_workspace
from reference import reference_base_ring_extension, reference_sweedler_coring

WORKSPACES = Path(__file__).resolve().parents[1] / "perfbench" / "workspaces"
CORPORA = ("cli-q", "cli-f5", "monoidal-f5")


def inclusions(field):
    """Injective algebra maps B -> A: three with B = k, two with B != k."""
    k, dual = ground_algebra(field), dual_numbers(field)
    k4 = group_algebra(field, KLEIN_4)
    return {
        "k-k": identity_morphism(k),
        "k-dual": AlgebraMorphism(k, dual, Mat.from_rows(field, [[1, 0]])),
        "k-k4": AlgebraMorphism(k, k4, Mat.from_rows(field, [[1, 0, 0, 0]])),
        "dual-dual": identity_morphism(dual),
        # g_1 of C2 squares to 1, and so does g_1 of K4.
        "c2-k4": AlgebraMorphism(group_algebra(field, CYCLIC_2), k4,
                                 Mat.from_rows(field, [[1, 0, 0, 0], [0, 1, 0, 0]])),
    }


INCLUSIONS = ("k-k", "k-dual", "k-k4", "dual-dual", "c2-k4")


def assert_same_extension(m):
    new, old = base_ring_extension(m), reference_base_ring_extension(m)
    assert new.source == old.source
    assert new.source.carrier.labels == old.source.carrier.labels
    assert new.target == old.target
    assert new.action_mats == old.action_mats
    assert new.coact_lift == old.coact_lift


@pytest.mark.parametrize("field_id", FIELD_IDS)
@pytest.mark.parametrize("name", INCLUSIONS)
def test_sweedler_coring_matches_the_reference(field_id, name):
    inc = inclusions(make_field(field_id))[name]
    new, old = sweedler_coring(inc), reference_sweedler_coring(inc)
    assert new == old
    assert new.carrier.labels == old.carrier.labels


@pytest.mark.parametrize("field_id", FIELD_IDS)
@pytest.mark.parametrize("name", INCLUSIONS)
def test_base_extension_of_sweedler_morphisms_matches_the_reference(field_id, name):
    sw = sweedler_coring(inclusions(make_field(field_id))[name])
    assert_same_extension(counit_corings_morphism(sw))
    assert_same_extension(corings_identity(sw))


@pytest.mark.parametrize("corpus", CORPORA)
def test_base_extension_of_every_corpus_morphism_matches_the_reference(corpus):
    ws = load_workspace(WORKSPACES / f"{corpus}.json")
    morphisms = [m for kind, m in ws.morphisms.values() if kind == "corings"]
    assert morphisms
    for m in morphisms:
        assert_same_extension(m)


@pytest.mark.parametrize("field_id", FIELD_IDS)
def test_base_extension_of_the_morphism_family_matches_the_reference(field_id):
    field = make_field(field_id)
    morphisms = dict(corings_morphism_family(field, coring_family(field)))
    # The collapse of the dual numbers onto k really changes the base.
    assert morphisms["dual_collapse"].target.base != morphisms["dual_collapse"].source.base
    for m in morphisms.values():
        assert_same_extension(m)
