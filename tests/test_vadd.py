"""The one accumulate kernel against the loops it replaced.

`linalg._vadd(field, dst, src, coeff, base, stride)` adds coeff * src[j]
into dst[base + stride * j]; `_vscale` accumulates into an empty row,
`Mat @` is the rows of `Mat.apply`, and `bimodules._factored` reads its
actions off `Mat.kron` with identities.  Each must give what the parent's
loop kept in tests/reference.py gives (`_vadd`, `_vadd_at`, `_vscale`,
`matmul`, `factored_actions`): the same rows, in the same key order, over
Q with fractions and over F_2 and F_5, including sums that cancel to zero.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from corings import linalg
from corings.algebras import ground_algebra, group_algebra
from corings.bimodules import Bimodule, _factored
from corings.linalg import Field, Mat
from reference import _vadd, _vadd_at, _vscale, factored_actions, matmul

FIELDS = {"Q": Field.rationals(), "F2": Field.prime(2), "F5": Field.prime(5)}

RATIONALS = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


def scalar(draw, field, nonzero=False):
    if field.p is None:
        x = field.coerce(draw(RATIONALS))
        return x if x or not nonzero else field.one
    return draw(st.integers(1 if nonzero else 0, field.p - 1))


def row(draw, field, ncols):
    """A sparse row of canonical nonzero entries, in a drawn key order."""
    cols = draw(st.lists(st.integers(0, ncols - 1), max_size=ncols, unique=True))
    return {c: scalar(draw, field, nonzero=True) for c in cols}


def matrix(draw, field, nrows, ncols):
    return Mat(field, nrows, ncols, [row(draw, field, ncols) for _ in range(nrows)])


fields = st.sampled_from(sorted(FIELDS)).map(FIELDS.get)


@st.composite
def accumulate_cases(draw):
    """(field, dst, src, coeff, base, stride): some entries of dst are the
    negatives of the terms that land on them, so those sums cancel."""
    field = draw(fields)
    src = row(draw, field, 6)
    coeff = scalar(draw, field)
    stride = draw(st.integers(1, 4))
    base = draw(st.integers(0, stride * 6))
    dst = row(draw, field, base + stride * 6)
    if coeff:
        for j, v in src.items():
            if draw(st.booleans()):
                dst[base + stride * j] = field.neg(field.mul(coeff, v))
    return field, dst, src, coeff, base, stride


@settings(max_examples=300, deadline=None)
@given(accumulate_cases())
def test_vadd_with_a_base_and_a_stride_is_the_old_vadd_at(case):
    field, dst, src, coeff, base, stride = case
    got, want = dict(dst), dict(dst)
    linalg._vadd(field, got, src, coeff, base, stride)
    _vadd_at(field, want, src, coeff, base, stride)
    assert list(got.items()) == list(want.items())
    assert all(got.values())


@settings(max_examples=200, deadline=None)
@given(accumulate_cases())
def test_vadd_with_the_defaults_is_the_old_vadd(case):
    field, dst, src, coeff, _, _ = case
    if coeff:  # cancel on some of the columns src itself lands on
        dst.update({j: field.neg(field.mul(coeff, v)) for j, v in list(src.items())[::2]})
    got, want = dict(dst), dict(dst)
    linalg._vadd(field, got, src, coeff)
    _vadd(field, want, src, coeff)
    assert list(got.items()) == list(want.items())
    assert all(got.values())


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_vscale_is_the_old_vscale(data):
    field = data.draw(fields)
    src = row(data.draw, field, 8)
    coeff = scalar(data.draw, field, nonzero=True)
    got = linalg._vscale(field, src, coeff)
    assert list(got.items()) == list(_vscale(field, src, coeff).items())


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_matmul_and_apply_are_the_old_loops(data):
    field = data.draw(fields)
    n, k, m = (data.draw(st.integers(1, 4)) for _ in range(3))
    a, b = matrix(data.draw, field, n, k), matrix(data.draw, field, k, m)
    got, want = a @ b, matmul(a, b)
    assert got == want
    assert [list(r.items()) for r in got.rows] == [list(r.items()) for r in want.rows]
    for i, r in enumerate(a.rows):
        assert list(b.apply(r).items()) == list(want.rows[i].items())


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_factored_is_the_old_index_remap(data):
    """On any action matrices, laws or not: `Bimodule` checks only shapes."""
    field = data.draw(fields)
    k = ground_algebra(field)
    algebras = (k, group_algebra(field, [[0, 1], [1, 0]]))
    a, c = (data.draw(st.sampled_from(algebras)) for _ in range(2))
    xd, yd = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    x = Bimodule(a, k, xd, [matrix(data.draw, field, xd, xd) for _ in range(a.dim)],
                 [Mat.identity(field, xd)])
    y = Bimodule(k, c, yd, [Mat.identity(field, yd)],
                 [matrix(data.draw, field, yd, yd) for _ in range(c.dim)])
    got = _factored(x, y)
    for got_acts, want_acts in zip((got.left_act, got.right_act), factored_actions(x, y)):
        assert got_acts == want_acts
        assert [list(r.items()) for m in got_acts for r in m.rows] == [
            list(r.items()) for m in want_acts for r in m.rows]
