"""The echelon-form eliminator against the fully reducing one it replaced.

`ReferenceEliminator` (tests/reference.py) keeps every pivot row reduced on
each insert; the library's `_Eliminator` back-substitutes once when its result
is read.  Both must give the same canonical RREF, so every public consumer of
elimination (`rref`, `kernel`, `from_generators`, `inverse`) is run
once on each and the results compared exactly, over Q and F_5.  Those
consumers live in tests/reference.py and look `_Eliminator` up through
`corings.linalg` on each call, which is what lets `on_reference` swap it.
"""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corings import linalg
from corings.linalg import Field, Mat, _Eliminator
from reference import (
    IsoFailure,
    ReferenceEliminator,
    echelon_mat,
    from_generators,
    inverse,
    is_identity,
    kernel,
    rank,
    rref,
)

FIELDS = {"Q": Field.rationals(), "F5": Field.prime(5)}


def on_reference(fn, *args):
    """fn(*args) with the reference eliminator in place of the library's."""
    with mock.patch.object(linalg, "_Eliminator", ReferenceEliminator):
        return fn(*args)


def outcome(fn, *args):
    """The result, or the IsoFailure class when the call raises it."""
    try:
        return fn(*args)
    except IsoFailure:
        return IsoFailure


SCALARS = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


@st.composite
def matrices(draw, square=False):
    """A field and rows mixing independent rows with zero, duplicate and
    combined rows, so that rank deficiency is common."""
    field = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    ncols = draw(st.integers(1, 7))
    nrows = ncols if square else draw(st.integers(0, 9))
    base = draw(st.lists(st.lists(SCALARS, min_size=ncols, max_size=ncols),
                         min_size=1, max_size=max(1, nrows)))
    base = [[field.coerce(x) for x in r] for r in base]
    rows = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(["base", "zero", "copy", "combo"]))
        if kind == "zero":
            rows.append([field.zero] * ncols)
        elif kind == "copy" and rows:
            rows.append(list(draw(st.sampled_from(rows))))
        elif kind == "combo":
            a, b = draw(st.sampled_from(base)), draw(st.sampled_from(base))
            c = field.coerce(draw(st.integers(-2, 2)))
            rows.append([field.add(x, field.mul(c, y)) for x, y in zip(a, b)])
        else:
            rows.append(list(draw(st.sampled_from(base))))
    return Mat.from_rows(field, rows, ncols)


class TestAgainstReference:
    @given(matrices())
    @settings(max_examples=80, deadline=None)
    def test_rref_and_pivots(self, m):
        assert rref(m) == on_reference(rref, m)

    @given(matrices())
    @settings(max_examples=60, deadline=None)
    def test_kernel(self, m):
        got, want = kernel(m), on_reference(kernel, m)
        assert got == want and got.pivots == want.pivots

    @given(matrices())
    @settings(max_examples=60, deadline=None)
    def test_from_generators(self, m):
        args = (m.field, m.ncols, [dict(r) for r in m.rows])
        got = from_generators(*args)
        want = on_reference(from_generators, *args)
        assert got == want and got.pivots == want.pivots

    @given(matrices(square=True))
    @settings(max_examples=80, deadline=None)
    def test_inverse_or_singular(self, m):
        got = outcome(inverse, m)
        assert got == on_reference(outcome, inverse, m)
        if got is not IsoFailure:
            assert is_identity(m @ got)


@pytest.mark.parametrize("field", FIELDS.values(), ids=FIELDS)
class TestEchelonPaths:
    def test_reduction_brings_in_a_later_pivot_column(self, field):
        # Pivot row 0 keeps its entry in pivot column 1 until read, so reducing
        # e0 + e3 by it creates an entry at column 1, which must be eliminated
        # in turn (the heap re-push) before the row's own pivot is chosen.
        rows = [[1, 1, 0, 0], [0, 1, 1, 0], [1, 0, 0, 1]]
        elim = _Eliminator(field, 4)
        for r in rows[:2]:
            elim.insert({j: field.coerce(x) for j, x in enumerate(r) if x})
        assert 1 in elim.pivrows[0]
        elim.insert({0: 1, 3: 1})
        assert sorted(elim.pivrows) == [0, 1, 2]
        assert elim.pivrows[2] == {2: 1, 3: 1}
        m = Mat.from_rows(field, rows)
        assert rref(m) == on_reference(rref, m)
        assert rank(m) == 3

    def test_insert_after_a_read(self, field):
        rows = [[0, 2, 1, 0, 3], [1, 1, 0, 0, 0], [0, 0, 1, 1, 0], [1, 0, 0, 1, 1]]
        sparse = [{j: field.coerce(x) for j, x in enumerate(r) if x} for r in rows]
        elim = _Eliminator(field, 5)
        for r in sparse[:2]:
            elim.insert(dict(r))
        first = echelon_mat(elim)
        for r in sparse[2:]:
            elim.insert(dict(r))
        m = Mat.from_rows(field, rows)
        assert first == rref(Mat.from_rows(field, rows[:2]))[0]
        assert (echelon_mat(elim), elim.pivots()) == on_reference(rref, m)

    def test_fractions_stay_canonical(self, field):
        m = Mat.from_rows(field, [["1/2", "1/3", 0], ["1/4", "1/3", "1/2"], [1, 1, 1]])
        red, _ = rref(m)
        got = (red, outcome(inverse, m))
        assert got == on_reference(lambda: (rref(m)[0], outcome(inverse, m)))
        if field.p is None:
            assert all(
                v.__class__ is int or (v.__class__ is Fraction and v.denominator != 1)
                for r in red.rows for v in r.values()
            )
