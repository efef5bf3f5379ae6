"""Quotients collapsed from orbit rows against the eliminating quotient.

`quotient_by_rows` collapses relation rows of one or two terms with a weighted
union-find and eliminates only the rows of three or more terms, and returns
the quotient in one of three forms: relation-free (its dim alone), monomial
(a class index and a scale per coordinate) or residual (a projection
matrix).  `quotient(n, from_generators(...))` eliminates every row and always
holds the matrix.  On the same rows both must give the same representatives,
projection and lift, over Q and over F_2, F_3 and F_5, in each of the three
forms, and the relation rows of each must be the RREF basis that
`from_generators` eliminates from the rows on its own.  The projection is
compared as a matrix, on random vectors, and on random vectors of
k^n (x) k^w under project (x) id_w, the projection that the regrouping of a
triple tensor reads.  The rows mix one-term rows, two-term rows, wider rows,
rows repeated on the same columns, and cycles of two-term rows whose ratios
agree (a live orbit) or disagree (a dead one).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corings import linalg
from corings.linalg import Field, Mat, quotient_by_rows
from reference import (
    from_generators,
    lift_mat,
    project_mat,
    quotient,
    quotient_form,
    relation_space,
)

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

ORBIT_KINDS = ("one", "pair", "consistent", "repeat", "cycle")
ALL_KINDS = (*ORBIT_KINDS, "wide")
# The kinds of row each form is drawn from, and the kind of a first row that
# makes sure the rows reach that form.
FORMS = {
    "free": ((), None),
    "monomial": (ORBIT_KINDS, "one"),
    "residual": (ALL_KINDS, "wide"),
}


def scalar(draw, field):
    """A nonzero field element."""
    if field.p is None:
        return field.coerce(draw(RATIONALS))
    return draw(st.integers(1, field.p - 1))


def sparse_vector(draw, field, dim):
    """A sparse vector of k^dim with nonzero entries."""
    cols = draw(st.lists(st.integers(0, dim - 1), max_size=min(dim, 6), unique=True))
    return {c: scalar(draw, field) for c in cols}


@st.composite
def relation_rows(draw, kinds=ALL_KINDS, lead=None):
    """(field, n, rows): relation rows of the given kinds on k^n.

    `lead` "one" starts the rows with a one-term row and "wide" with a row
    of three or more terms; no kinds give no rows.
    """
    field = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    n = draw(st.integers(3 if lead == "wide" else 1, 12))
    cols = st.integers(0, n - 1)
    # A nonzero weight per coordinate: a two-term row a e_x + b e_y with
    # a * weight[x] + b * weight[y] = 0 keeps every cycle through it consistent.
    weight = [scalar(draw, field) for _ in range(n)]
    rows = []
    if lead == "wide":
        support = draw(st.lists(cols, min_size=3, max_size=min(n, 5), unique=True))
        rows.append({c: scalar(draw, field) for c in support})
    elif lead == "one":
        rows.append({draw(cols): scalar(draw, field)})
    for _ in range(draw(st.integers(0, 14)) if kinds else 0):
        kind = draw(st.sampled_from(kinds))
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


def assert_same_quotient(got, relations):
    """`got` agrees with `want`, the eliminating quotient by `relations`, and
    the relation rows of each are the RREF basis of `relations`."""
    want = quotient(relations.ambient_dim, relations)
    assert got.ambient_dim == want.ambient_dim
    assert list(got.rep_columns) == want.rep_columns
    assert project_mat(got) == want.project
    assert lift_mat(got) == lift_mat(want)
    for quot in (got, want):
        assert relation_space(quot) == relations
        assert relation_space(quot).pivots == relations.pivots


def assert_same_projection(got, want, vec, width=1):
    """project_vec agrees with the eliminating quotient's matrix, as matrices do."""
    expected = want.project.kron(Mat.identity(want.field, width)).apply(vec)
    assert got.project_vec(dict(vec), width) == expected
    assert want.project_vec(dict(vec), width) == expected


def assert_same_on_random_vectors(draw, got, want):
    field, n = got.field, got.ambient_dim
    for _ in range(3):
        assert_same_projection(got, want, sparse_vector(draw, field, n))
    width = draw(st.integers(2, 3))
    for _ in range(3):
        assert_same_projection(got, want, sparse_vector(draw, field, n * width), width)


@given(data=st.data())
@settings(max_examples=250, deadline=None)
def test_matches_the_eliminating_quotient(data):
    field, n, rows = data.draw(relation_rows())
    relations = from_generators(field, n, [dict(r) for r in rows])
    got = quotient_by_rows(field, n, as_pairs(rows))
    assert_same_quotient(got, relations)
    assert_same_on_random_vectors(data.draw, got, quotient(n, relations))


@pytest.mark.parametrize("kind", sorted(FORMS))
@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_each_form_matches_the_eliminating_quotient(kind, data):
    field, n, rows = data.draw(relation_rows(*FORMS[kind]))
    relations = from_generators(field, n, [dict(r) for r in rows])
    got = quotient_by_rows(field, n, as_pairs(rows))
    assert quotient_form(got) == kind
    assert_same_quotient(got, relations)
    assert_same_on_random_vectors(data.draw, got, quotient(n, relations))


@pytest.mark.parametrize("field", FIELDS.values(), ids=FIELDS)
def test_a_relation_free_projection_returns_its_argument(field):
    got = quotient_by_rows(field, 4, iter(()))
    vec = {1: field.one, 3: field.neg(field.one)}
    assert quotient_form(got) == "free"
    assert got.rep_columns == range(4)
    assert got.project_vec(vec) is vec and got.project_vec(vec, 2) is vec
    assert list(got.relation_rows()) == []


@pytest.mark.parametrize("field", FIELDS.values(), ids=FIELDS)
class TestOrbits:
    def test_chain_merges_into_its_largest_coordinate(self, field):
        # e_0 = c e_1, e_1 = c e_3, e_2 = e_3: one live orbit with root 3.
        c = field.coerce(2) or field.one
        rows = [{0: field.one, 1: field.neg(c)}, {1: field.one, 3: field.neg(c)},
                {2: field.one, 3: field.neg(field.one)}]
        got = quotient_by_rows(field, 5, as_pairs(rows))
        assert quotient_form(got) == "monomial"
        assert got.rep_columns == [3, 4]
        assert got.project_vec({0: field.one}) == {0: field.mul(c, c)}
        assert (got.classes[0], got.scales[0]) == (0, field.mul(c, c))
        assert_same_quotient(got, from_generators(field, 5, rows))

    def test_one_term_row_kills_its_orbit(self, field):
        rows = [{0: field.one, 2: field.one}, {2: field.one, 3: field.one}, {0: field.one}]
        got = quotient_by_rows(field, 4, as_pairs(rows))
        assert got.rep_columns == [1]
        assert got.classes == [-1, 0, -1, -1]
        assert got.project_vec({3: field.one}) == {}

    def test_inconsistent_cycle_kills_its_orbit(self, field):
        # e_0 = e_1 = e_2 and e_2 = c e_0: dead unless c = 1, as on F_2.
        c = field.coerce(2) or field.one
        minus_one = field.neg(field.one)
        rows = [{0: field.one, 1: minus_one}, {1: field.one, 2: minus_one},
                {0: field.neg(c), 2: field.one}]
        got = quotient_by_rows(field, 3, as_pairs(rows))
        assert got.rep_columns == ([2] if c == field.one else [])
        assert_same_quotient(got, from_generators(field, 3, rows))

    def test_wide_rows_reach_the_eliminator_only_when_present(self, field, monkeypatch):
        built = []

        class Recording(linalg._Eliminator):
            def __init__(self, *args):
                built.append(self)
                super().__init__(*args)

        monkeypatch.setattr(linalg, "_Eliminator", Recording)
        pairs = [{0: field.one, 1: field.one}, {2: field.one, 3: field.one}]
        assert quotient_form(quotient_by_rows(field, 5, as_pairs(pairs))) == "monomial"
        assert built == []
        wide = [{1: field.one, 3: field.one, 4: field.one}]
        got = quotient_by_rows(field, 5, as_pairs(pairs + wide))
        assert len(built) == 1
        assert quotient_form(got) == "residual"
        assert_same_quotient(got, from_generators(field, 5, pairs + wide))
