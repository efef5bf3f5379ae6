"""`descend` on the streamed relation basis against the check on the built `Subspace`.

`bimodules.descend` tests that an ambient map sends the source relations into
the target relations on the RREF basis of the source relations, streamed row
by row from the source quotient (`QuotientSpace.relation_rows`).
`reference_descend` (tests/reference.py) tests every row of the basis of the
`Subspace` that `reference.relation_space` builds whole.  Both must raise
DescentFailure, with the same message, on exactly the same inputs, and return
the same matrix otherwise.  `descend_both_ways` runs every library
call through both.  Here it watches the three corpora load and every
composable pair of their ext morphisms compose (each law and oracle that
reaches `induced_map_on_tensor` or `regrouped_id_tensor`), and random maps
between tensors of dual-number bimodules; tests/test_law_rows.py runs it over
its corpus objects and their corruptions.
"""

from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corings.algebras import dual_numbers, tensor_algebra
from corings.bimodules import (
    _combination,
    induced_map_on_tensor,
    regular_bimodule,
    tensor_over_alg,
)
from corings.category import check_ext_morphism, ext_compose, ext_compose_via_cotensor
from corings.errors import DescentFailure
from corings.linalg import Field, Mat, _vadd
from corings.workspace import load_workspace
from reference import descend_both_ways, mat_add

WORKSPACES = Path(__file__).resolve().parents[1] / "perfbench" / "workspaces"
CORPORA = ("cli-q", "cli-f5", "monoidal-f5")
FIELDS = {"Q": Field.rationals(), "F5": Field.prime(5)}


@pytest.mark.parametrize("corpus", CORPORA)
def test_corpus_loads_and_composites_agree(corpus):
    with descend_both_ways() as outcomes:
        ws = load_workspace(WORKSPACES / f"{corpus}.json")
        loaded = len(outcomes)
        exts = [m for kind, m in ws.morphisms.values() if kind == "ext"]
        for g, f in product(exts, exts):
            if f.target == g.source:
                composed = ext_compose(g, f)
                if check_ext_morphism(composed).ok:
                    ext_compose_via_cotensor(g, f, composed)
    assert 0 < loaded < len(outcomes)
    assert [o for o in outcomes if o[0] != o[1]] == []


SMALL = st.integers(-2, 2)


@st.composite
def tensor_maps(draw):
    """(f, g, t_src, t_tgt): M (x)_B N for B the dual numbers or their square,
    M = N = B regular, and f, g combinations of the actions that commute with
    the middle one, each perhaps with one entry moved, so that some descend
    and some do not."""
    field = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    d = dual_numbers(field)
    b = draw(st.sampled_from([d, tensor_algebra(d, d)]))
    r = regular_bimodule(b)
    t = tensor_over_alg(r, r)

    def side_map(acts):
        coeffs = draw(st.lists(SMALL, min_size=len(acts), max_size=len(acts)))
        m = _combination(field, b.dim, acts, enumerate(map(field.coerce, coeffs)))
        if draw(st.booleans()):
            i, j = draw(st.integers(0, b.dim - 1)), draw(st.integers(0, b.dim - 1))
            _vadd(field, m.rows[i], {j: field.one}, field.coerce(draw(st.integers(1, 2))))
        return m

    return side_map(r.left_act), side_map(r.right_act), t, t


@given(tensor_maps())
@settings(max_examples=150, deadline=None)
def test_random_maps_agree(case):
    f, g, t_src, t_tgt = case
    with descend_both_ways() as outcomes:
        try:
            induced_map_on_tensor(f, g, t_src, t_tgt)
        except DescentFailure:
            pass
    assert len(outcomes) == 1 and outcomes[0][0] == outcomes[0][1]


@pytest.mark.parametrize("field", FIELDS.values(), ids=FIELDS)
def test_random_maps_reach_both_outcomes(field):
    """The strategy's family holds maps that descend and maps that do not."""
    d = dual_numbers(field)
    r = regular_bimodule(d)
    t = tensor_over_alg(r, r)
    ident = Mat.identity(field, 2)
    swap = Mat.from_rows(field, [[0, 1], [1, 0]])
    with descend_both_ways() as outcomes:
        induced_map_on_tensor(mat_add(ident, r.left_act[1]), r.right_act[1], t, t)
        with pytest.raises(DescentFailure):
            induced_map_on_tensor(swap, ident, t, t)
    assert [got[0] for got, _ in outcomes] == ["descends", "fails"]
    assert outcomes[0][0] == outcomes[0][1] and outcomes[1][0] == outcomes[1][1]
