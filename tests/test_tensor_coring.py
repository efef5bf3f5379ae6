"""`tensor_coring` against the path it replaced, and its memo.

`tensor_coring` builds A (x) A' once from the factors' structure constants as
they are, uses it as the base and as both acting algebras of the carrier, and
holds the counit as a matrix.  `reference_tensor_coring` (tests/reference.py)
is the path it replaced; both must give the same base, carrier,
comultiplication lift and counit, labels included, on every ordered pair of
corings of the three benchmark corpora and on both groupings of every triple
of `monoidal-f5`.  The memo is keyed on the identity of the factors.
"""

from functools import cache
from itertools import product
from pathlib import Path

import pytest

from corings import constructions
from corings.algebras import CYCLIC_2
from corings.constructions import (
    grouplike_coalgebra,
    matrix_coalgebra,
    tensor_coring,
    unit_coring,
)
from corings.errors import FieldMismatch
from corings.linalg import Field
from corings.workspace import load_workspace
from reference import reference_tensor_coring

WORKSPACES = Path(__file__).resolve().parents[1] / "perfbench" / "workspaces"
CORPORA = ("cli-q", "cli-f5", "monoidal-f5")
F5 = Field.prime(5)


@cache
def corings_of(corpus):
    return list(load_workspace(WORKSPACES / f"{corpus}.json").corings.values())


def assert_same_coring(got, want):
    assert got.base == want.base
    assert got.base.labels == want.base.labels
    assert got.carrier == want.carrier
    assert got.carrier.labels == want.carrier.labels
    assert got.carrier.left_alg.labels == want.carrier.left_alg.labels
    assert got.carrier.right_alg.labels == want.carrier.right_alg.labels
    assert got.comul_lift == want.comul_lift
    assert got.counit_mat == want.counit_mat


@pytest.mark.parametrize("corpus", CORPORA)
def test_every_ordered_pair_matches_the_reference(corpus):
    corings = corings_of(corpus)
    for c, c2 in product(corings, repeat=2):
        assert_same_coring(tensor_coring(c, c2), reference_tensor_coring(c, c2))


def test_both_groupings_of_every_monoidal_triple_match_the_reference():
    corings = corings_of("monoidal-f5")
    triples = list(product(corings, repeat=3))
    assert len(triples) == 8
    ref = reference_tensor_coring
    for x, y, z in triples:
        assert_same_coring(tensor_coring(tensor_coring(x, y), z), ref(ref(x, y), z))
        assert_same_coring(tensor_coring(x, tensor_coring(y, z)), ref(x, ref(y, z)))


def test_the_same_factors_give_the_same_coring():
    m2, g2 = matrix_coalgebra(2, F5), grouplike_coalgebra(CYCLIC_2, F5)
    t = tensor_coring(m2, g2)
    assert tensor_coring(m2, g2) is t
    c, c2, held = constructions._TENSOR_CORINGS[id(m2), id(g2)]
    assert (c, c2, held) == (m2, g2, t) and c is m2 and c2 is g2 and held is t


def test_equal_but_distinct_factors_give_an_equal_distinct_coring():
    m2, g2 = matrix_coalgebra(2, F5), grouplike_coalgebra(CYCLIC_2, F5)
    again = matrix_coalgebra(2, F5)
    assert again == m2 and again is not m2
    t, t2 = tensor_coring(m2, g2), tensor_coring(again, g2)
    assert t == t2 and t is not t2


def test_a_field_mismatch_stores_nothing():
    q_unit, f5_unit = unit_coring(Field.rationals()), unit_coring(F5)
    before = len(constructions._TENSOR_CORINGS)
    for _ in range(2):
        with pytest.raises(FieldMismatch):
            tensor_coring(q_unit, f5_unit)
    assert len(constructions._TENSOR_CORINGS) == before
    assert (id(q_unit), id(f5_unit)) not in constructions._TENSOR_CORINGS
