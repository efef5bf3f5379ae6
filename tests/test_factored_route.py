"""Tensors with a factor over k, presented from the smaller pair, against the row route.

`_present_tensor` presents M (x)_B (X (x)_k Y), B acting through X, as
(M (x)_B X) (x)_k Y, and (U (x)_k V) (x)_B N, B acting through V, as
U (x)_k (V (x)_B N): the quotient is the smaller one widened by identities
(`QuotientSpace.widened`), and the outer actions are Kronecker products with
identities.  Here each is compared with what the route it replaces gives:
`quotient_by_rows` over `_relation_rows` on the whole ambient space, and the
outer actions pushed through that quotient.  The representatives, classes,
scales, projection, RREF relation rows and result actions must be equal, on
factored bimodules whose middle quotient is relation-free, monomial (dead
classes, scales other than one) or residual, on either side and chained,
over Q, F_2, F_3 and F_5.
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CYCLIC_2

from corings import bimodules
from corings.algebras import FinDimAlgebra, dual_numbers, ground_algebra, group_algebra
from corings.bimodules import (
    Bimodule,
    PresentedTensor,
    _factored,
    _present_tensor,
    _relation_rows,
    regular_bimodule,
)
from corings.linalg import Field, Mat, quotient_by_rows
from reference import factored_actions, quotient_form

FIELDS = {"Q": Field.rationals(), "F2": Field.prime(2), "F3": Field.prime(3),
          "F5": Field.prime(5)}


def algebras(field):
    """Commutative algebras of dim 2, each with its characters (one scalar per basis element)."""
    one = field.one
    split = FinDimAlgebra(field, 2, [[[1, 0], [0, 0]], [[0, 0], [0, 1]]], [1, 1])
    return {
        "c2": (group_algebra(field, CYCLIC_2), [[one, one], [one, field.neg(one)]]),
        "dual": (dual_numbers(field), [[one, 0]]),
        "split": (split, [[one, 0], [0, one]]),
    }


def module_actions(field, alg, chars, kind):
    """Action matrices of a module over a commutative algebra: left and right alike."""
    if kind == "regular":
        return [alg.left_regular_mat(i) for i in range(alg.dim)]
    return [Mat.from_rows(field, [[c]]) for c in chars[kind]]


def direct_sum(field, parts):
    dims = [p[0].nrows for p in parts]
    rows = []
    for acts in zip(*parts):
        row_list, base = [], 0
        for d, a in zip(dims, acts):
            row_list += [{base + j: v for j, v in r.items()} for r in a.rows]
            base += d
        rows.append(Mat(field, base, base, row_list))
    return rows


def twisted(field, acts, twist, c):
    """P a P^-1 for each action a: P diagonal (scales) or a shear (wider rows)."""
    d = acts[0].nrows
    if twist == "none" or (twist == "shear" and d < 2):
        return acts
    if twist == "scale":
        p = Mat(field, d, d, [{i: c if i % 2 else field.one} for i in range(d)])
        p_inv = Mat(field, d, d, [{i: field.inv(c) if i % 2 else field.one} for i in range(d)])
    else:
        p = Mat(field, d, d, [{0: field.one, 1: c}] + [{i: field.one} for i in range(1, d)])
        p_inv = Mat(field, d, d,
                    [{0: field.one, 1: field.neg(c)}] + [{i: field.one} for i in range(1, d)])
    return [p @ a @ p_inv for a in acts]


@st.composite
def modules(draw, field, alg_name):
    """Action matrices of a small module over the named algebra."""
    alg, chars = algebras(field)[alg_name]
    kinds = ["regular", *range(len(chars))]
    parts = [module_actions(field, alg, chars, draw(st.sampled_from(kinds)))
             for _ in range(draw(st.integers(1, 2)))]
    acts = direct_sum(field, parts)
    c = field.coerce(draw(st.integers(2, 4)))
    return twisted(field, acts, draw(st.sampled_from(["none", "scale", "shear"])),
                   c or field.one)


def left(field, alg, acts):
    """A left module as a (B, k)-bimodule."""
    d = acts[0].nrows
    return Bimodule(alg, ground_algebra(field), d, acts, [Mat.identity(field, d)])


def right(field, alg, acts):
    """A right module as a (k, B)-bimodule."""
    d = acts[0].nrows
    return Bimodule(ground_algebra(field), alg, d, [Mat.identity(field, d)], acts)


def row_route(m, n):
    """The presentation from every relation row of the ambient space, and pushed actions."""
    quot = quotient_by_rows(m.field, m.dim * n.dim, _relation_rows(m, n))
    return PresentedTensor(m, n, m.right_alg, quot)


def assert_same(got, want):
    gq, wq = got.quot, want.quot
    assert gq.ambient_dim == wq.ambient_dim
    assert gq.rep_columns == wq.rep_columns
    assert gq.classes == wq.classes
    assert gq.scales == wq.scales
    assert gq.project == wq.project
    assert list(gq.relation_rows()) == list(wq.relation_rows())
    assert got.result.left_act == want.result.left_act
    assert got.result.right_act == want.result.right_act
    assert got.result.factors is not None


def present(m, n):
    """The route's presentation from an empty memo."""
    with mock.patch.object(bimodules, "_TENSORS", {}):
        t = _present_tensor(m, n)
        t.result
    return t


@st.composite
def cases(draw):
    """(field, M, N): a tensor over B with a factor over k on one side or both,
    possibly a factored result tensored again."""
    field = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    names = sorted(algebras(field))
    a, b, c = (draw(st.sampled_from(names)) for _ in range(3))
    alg = {name: algebras(field)[name][0] for name in names}

    def other(name, side):
        """A (B, *)- or (*, B)-bimodule: a module or the regular bimodule."""
        if draw(st.booleans()):
            return regular_bimodule(alg[name])
        acts = draw(modules(field, name))
        return left(field, alg[name], acts) if side == "left" else right(field, alg[name], acts)

    shape = draw(st.sampled_from(["right", "left", "both", "chained"]))
    n = _factored(left(field, alg[b], draw(modules(field, b))),
                  right(field, alg[c], draw(modules(field, c))))
    m = _factored(left(field, alg[a], draw(modules(field, a))),
                  right(field, alg[b], draw(modules(field, b))))
    if shape == "right":
        return field, other(b, "right"), n
    if shape == "left":
        return field, m, other(b, "left")
    if shape == "both":
        return field, m, n
    # M (x)_B N recorded as (P, Y), Y over C, tensored over C again.
    return field, present(m, n).result, other(c, "left")


@settings(max_examples=200, deadline=None)
@given(cases())
def test_the_route_matches_the_row_route(case):
    _, m, n = case
    assert_same(present(m, n), row_route(m, n))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_factored_actions_are_the_kronecker_products(data):
    """`_factored` takes a (x) id_Y and id_X (x) c from `Mat.kron`; the index
    remap it replaced (`reference.factored_actions`) copies the rows of a and
    c.  The rows must match entry for entry, in the same key order."""
    field = FIELDS[data.draw(st.sampled_from(sorted(FIELDS)))]
    left_name, right_name = (data.draw(st.sampled_from(sorted(algebras(field))))
                             for _ in range(2))
    x = left(field, algebras(field)[left_name][0], data.draw(modules(field, left_name)))
    y = right(field, algebras(field)[right_name][0], data.draw(modules(field, right_name)))
    got = _factored(x, y)
    for got_acts, want_acts in zip((got.left_act, got.right_act), factored_actions(x, y)):
        assert got_acts == want_acts
        assert [list(r.items()) for m in got_acts for r in m.rows] == [
            list(r.items()) for m in want_acts for r in m.rows]


@pytest.mark.parametrize("field", FIELDS.values(), ids=FIELDS)
@pytest.mark.parametrize(("alg_name", "m_kind", "x_kind", "twist", "form"), [
    ("split", 0, 0, "none", "free"),  # both on one character: no relation
    ("dual", "regular", 0, "none", "monomial"),  # x (x) 1 is a relation: a dead class
    ("c2", "regular", "regular", "scale", "monomial"),
    ("c2", "regular", "regular", "shear", "residual"),
])
def test_each_middle_form(field, alg_name, m_kind, x_kind, twist, form):
    """M (x)_B (X (x)_k Y) and (Y' (x)_k M) (x)_B X, the middle M (x)_B X of each form."""
    alg, chars = algebras(field)[alg_name]
    c = field.coerce(2) or field.one
    m = right(field, alg, module_actions(field, alg, chars, m_kind))
    x = left(field, alg, twisted(field, module_actions(field, alg, chars, x_kind), twist, c))
    inner = row_route(m, x)
    assert quotient_form(inner.quot) == form
    if alg_name == "dual":
        assert -1 in inner.quot.classes
    if twist == "scale" and field.p != 2:
        assert set(inner.quot.scales) - {field.one}
    dual = regular_bimodule(dual_numbers(field))
    k, ident = ground_algebra(field), Mat.identity(field, 2)
    y = Bimodule(k, dual.right_alg, 2, [ident], dual.right_act)
    n = _factored(x, y)
    assert_same(present(m, n), row_route(m, n))
    u = Bimodule(dual.left_alg, k, 2, dual.left_act, [ident])
    m2 = _factored(u, m)
    assert_same(present(m2, x), row_route(m2, x))


def test_a_zero_dimensional_widening_is_free():
    """As `quotient_by_rows` gives with no row: the route presents a tensor with
    a zero-dimensional factor, such as a quotient in which every class is dead."""
    quot = quotient_by_rows(FIELDS["F5"], 2, [((1, 1),)])
    assert quotient_form(quot) == "monomial"
    for before, after in ((0, 3), (3, 0)):
        widened = quot.widened(before, after)
        assert widened.rep_columns == range(0)
        assert quotient_form(widened) == "free"
