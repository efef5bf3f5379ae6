"""Quotients collapsed from orbit rows against the eliminating quotient.

`quotient_by_rows` collapses relation rows of one or two terms with a weighted
union-find and eliminates only the rows of three or more terms.
`quotient(n, from_generators(...))` eliminates every row.  On the
same rows both must give the same representatives, projection, lift and
relation subspace, over Q and over F_2, F_3 and F_5.  The rows mix one-term
rows, two-term rows, wider rows, rows repeated on the same columns, and
cycles of two-term rows whose ratios agree (a live orbit) or disagree (a dead
one).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corings import linalg
from corings.linalg import Field, quotient_by_rows
from reference import from_generators, quotient

FIELDS = {
    "Q": Field.rationals(),
    "F2": Field.prime(2),
    "F3": Field.prime(3),
    "F5": Field.prime(5),
}

RATIONALS = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=3),
).filter(bool)


def scalar(draw, field):
    """A nonzero field element."""
    if field.p is None:
        return field.coerce(draw(RATIONALS))
    return draw(st.integers(1, field.p - 1))


@st.composite
def relation_rows(draw):
    field = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    n = draw(st.integers(1, 12))
    cols = st.integers(0, n - 1)
    # A nonzero weight per coordinate: a two-term row a e_x + b e_y with
    # a * weight[x] + b * weight[y] = 0 keeps every cycle through it consistent.
    weight = [scalar(draw, field) for _ in range(n)]
    rows = []
    for _ in range(draw(st.integers(0, 14))):
        kind = draw(st.sampled_from(["one", "pair", "consistent", "wide", "repeat", "cycle"]))
        if kind == "one":
            rows.append({draw(cols): scalar(draw, field)})
        elif kind in ("pair", "consistent") and n > 1:
            x, y = draw(st.lists(cols, min_size=2, max_size=2, unique=True))
            a = scalar(draw, field)
            if kind == "pair":
                b = scalar(draw, field)
            else:
                b = field.neg(field.mul(a, field.mul(weight[x], field.inv(weight[y]))))
            rows.append({x: a, y: b})
        elif kind == "wide" and n > 2:
            support = draw(st.lists(cols, min_size=3, max_size=min(n, 5), unique=True))
            rows.append({c: scalar(draw, field) for c in support})
        elif kind == "repeat" and rows:
            row = draw(st.sampled_from(rows))
            c = scalar(draw, field)
            rows.append({j: field.mul(c, v) for j, v in row.items()})
        elif kind == "cycle" and n > 2:
            # Consistent rows around a cycle, then maybe one that breaks it.
            cycle = draw(st.lists(cols, min_size=3, max_size=min(n, 6), unique=True))
            for x, y in zip(cycle, cycle[1:] + cycle[:1]):
                a = scalar(draw, field)
                rows.append({x: a, y: field.neg(field.mul(a, field.mul(
                    weight[x], field.inv(weight[y]))))})
            if draw(st.booleans()):
                x, y = cycle[0], cycle[-1]
                rows.append({x: field.one, y: scalar(draw, field)})
    return field, n, rows


def as_pairs(rows):
    """The rows as `quotient_by_rows` reads them: (column, value) pairs."""
    return (tuple(r.items()) for r in rows)


def assert_same_quotient(got, want):
    assert got.ambient_dim == want.ambient_dim
    assert got.rep_columns == want.rep_columns
    assert got.project == want.project
    assert got.lift == want.lift
    assert got.relations == want.relations
    assert got.relations.pivots == want.relations.pivots


@given(relation_rows())
@settings(max_examples=250, deadline=None)
def test_matches_the_eliminating_quotient(case):
    field, n, rows = case
    want = quotient(n, from_generators(field, n, [dict(r) for r in rows]))
    got = quotient_by_rows(field, n, as_pairs(rows))
    assert_same_quotient(got, want)


@pytest.mark.parametrize("field", FIELDS.values(), ids=FIELDS)
class TestOrbits:
    def test_chain_merges_into_its_largest_coordinate(self, field):
        # e_0 = c e_1, e_1 = c e_3, e_2 = e_3: one live orbit with root 3.
        c = field.coerce(2) or field.one
        rows = [{0: field.one, 1: field.neg(c)}, {1: field.one, 3: field.neg(c)},
                {2: field.one, 3: field.neg(field.one)}]
        got = quotient_by_rows(field, 5, as_pairs(rows))
        assert got.rep_columns == [3, 4]
        assert got.project.rows[0] == {0: field.mul(c, c)}
        assert_same_quotient(got, quotient(5, from_generators(field, 5, rows)))

    def test_one_term_row_kills_its_orbit(self, field):
        rows = [{0: field.one, 2: field.one}, {2: field.one, 3: field.one}, {0: field.one}]
        got = quotient_by_rows(field, 4, as_pairs(rows))
        assert got.rep_columns == [1]
        assert got.project.rows[3] == {}

    def test_inconsistent_cycle_kills_its_orbit(self, field):
        # e_0 = e_1 = e_2 and e_2 = c e_0: dead unless c = 1, as on F_2.
        c = field.coerce(2) or field.one
        minus_one = field.neg(field.one)
        rows = [{0: field.one, 1: minus_one}, {1: field.one, 2: minus_one},
                {0: field.neg(c), 2: field.one}]
        got = quotient_by_rows(field, 3, as_pairs(rows))
        assert got.rep_columns == ([2] if c == field.one else [])
        assert_same_quotient(got, quotient(3, from_generators(field, 3, rows)))

    def test_wide_rows_reach_the_eliminator_only_when_present(self, field, monkeypatch):
        built = []

        class Recording(linalg._Eliminator):
            def __init__(self, *args):
                built.append(self)
                super().__init__(*args)

        monkeypatch.setattr(linalg, "_Eliminator", Recording)
        pairs = [{0: field.one, 1: field.one}, {2: field.one, 3: field.one}]
        quotient_by_rows(field, 5, as_pairs(pairs))
        assert built == []
        wide = [{1: field.one, 3: field.one, 4: field.one}]
        got = quotient_by_rows(field, 5, as_pairs(pairs + wide))
        assert len(built) == 1
        assert_same_quotient(
            got, quotient(5, from_generators(field, 5, pairs + wide)))
