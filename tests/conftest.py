import pytest

from corings.algebras import AlgebraMorphism, dual_numbers, ground_algebra
from corings.category import (
    corings_identity,
    counit_corings_morphism,
    ext_identity,
    ext_to_trivial,
    ext_to_unit,
    grouplike_corings_morphism,
    trivial_corings_morphism,
)
from corings.constructions import grouplike_coalgebra, matrix_coalgebra, trivial_coring, unit_coring
from corings.linalg import Field, Mat

FIELD_IDS = ["Q", "F5"]

# Multiplication tables of the cyclic group of order 2 and the Klein four-group.
CYCLIC_2 = [[0, 1], [1, 0]]
KLEIN_4 = [
    [0, 1, 2, 3],
    [1, 0, 3, 2],
    [2, 3, 0, 1],
    [3, 2, 1, 0],
]


def make_field(field_id):
    return Field.rationals() if field_id == "Q" else Field.prime(5)


@pytest.fixture(params=FIELD_IDS, ids=FIELD_IDS, scope="session")
def field(request):
    return make_field(request.param)


def coring_family(field):
    """The standard small corpus: unit, dual-numbers regular, matrix, grouplike."""
    return [
        ("unit", unit_coring(field)),
        ("dual_regular", trivial_coring(dual_numbers(field))),
        ("matrix2", matrix_coalgebra(2, field)),
        ("grouplike_c2", grouplike_coalgebra(CYCLIC_2, field)),
    ]


def ext_morphism_family(family):
    """Identities plus the to-unit and to-trivial morphisms of each coring."""
    morphisms = []
    for name, c in family:
        morphisms.append((f"id_{name}", ext_identity(c)))
        morphisms.append((f"to_unit_{name}", ext_to_unit(c)))
        morphisms.append((f"to_trivial_{name}", ext_to_trivial(c)))
    return morphisms


def corings_morphism_family(field, family):
    corings = dict(family)
    morphisms = [(f"id_{name}", corings_identity(c)) for name, c in family]
    morphisms += [(f"counit_{name}", counit_corings_morphism(c)) for name, c in family]
    collapse = AlgebraMorphism(
        dual_numbers(field), ground_algebra(field), Mat.from_rows(field, [[1], [0]])
    )
    morphisms.append(("dual_collapse", trivial_corings_morphism(collapse)))
    gl4 = grouplike_coalgebra(KLEIN_4, field)
    morphisms.append(
        ("c2_into_k4", grouplike_corings_morphism(corings["grouplike_c2"], gl4, [0, 1]))
    )
    return morphisms


@pytest.fixture(scope="session")
def families():
    return {fid: coring_family(make_field(fid)) for fid in FIELD_IDS}
