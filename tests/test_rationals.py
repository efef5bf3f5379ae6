"""The Q scalar representation: `int` when integral, else a reduced `Fraction`.

The differential tests run the sparse eliminator against a dense Gauss-Jordan
reference written here in plain `Fraction` arithmetic.  The invariant tests
walk every matrix a Q workspace load builds, and every tensor coring that
`verify-monoidal corings` forms from it, so a code path that stops
normalizing fails here instead of silently slowing the program down.  The
same walks, and one over F_5, hold every algebra element they reach to the
sparse row form.
"""

from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corings import cli, constructions
from corings.bimodules import (
    Bimodule,
    BimoduleMorphism,
    PresentedTensor,
    regrouped_id_tensor,
    tensor_over_alg,
)
from corings.coring import check_coring
from corings.linalg import Field, Mat, Subspace
from corings.workspace import load_workspace
from reference import IsoFailure, inverse, kernel, lift_mat, mat_add, project_mat, rref, scaled

Q = Field.rationals()
WORKSPACES = Path(__file__).resolve().parents[1] / "perfbench" / "workspaces"
CLI_Q = WORKSPACES / "cli-q.json"


def is_canonical(x):
    """An int (never a bool), or a Fraction whose denominator is not 1."""
    return x.__class__ is int or (x.__class__ is Fraction and x.denominator != 1)


def assert_sparse_algebra(a):
    """Each table entry and the unit: a dict, keys ascending, no zero value.

    `FinDimAlgebra.__eq__`, `bimodules._alg_key` and the fingerprint that
    `perfbench/tracer.py` takes of `repr(a.table)` all rely on this form.
    """
    p = a.field.p
    for vec in [v for row in a.table for v in row] + [a.unit]:
        assert isinstance(vec, dict) and list(vec) == sorted(vec), vec
        assert all(0 <= t < a.dim for t in vec), vec
        if p is None:
            assert all(v and is_canonical(v) for v in vec.values()), vec
        else:
            assert all(v.__class__ is int and 0 < v < p for v in vec.values()), vec


def loaded_algebras(ws):
    """The named algebras of a workspace and those of its coring carriers."""
    yield from ws.algebras.values()
    for c in ws.corings.values():
        yield from (c.base, c.carrier.left_alg, c.carrier.right_alg)


def formed_tensor_corings(capsys, workspace):
    """Every tensor coring that `verify-monoidal corings` forms on `workspace`."""
    before = set(constructions._TENSOR_CORINGS)
    argv = ["--workspace", str(workspace), "--seed", "1", "verify-monoidal", "corings"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    return [t for key, (_, _, t) in constructions._TENSOR_CORINGS.items()
            if key not in before]


def dense_rref(rows, ncols):
    """Gauss-Jordan in plain Fraction arithmetic: (nonzero RREF rows, pivots)."""
    m = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pick = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pick is None:
            continue
        m[r], m[pick] = m[pick], m[r]
        lead = m[r][c]
        m[r] = [x / lead for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return m[: len(pivots)], pivots


def dense_kernel(rows, ncols):
    """RREF basis of {v : rows v = 0}."""
    red, pivots = dense_rref(rows, ncols)
    gens = []
    for j in range(ncols):
        if j in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[j] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -red[r][j]
        gens.append(v)
    return dense_rref(gens, ncols)[0] if gens else []


def assert_canonical(m):
    bad = [v for r in m.rows for v in r.values() if not is_canonical(v)]
    assert not bad, f"non-canonical Q scalars: {bad[:5]}"


SMALL_FRACTIONS = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


@st.composite
def q_matrices(draw, square=False):
    nrows = draw(st.integers(1, 5))
    ncols = nrows if square else draw(st.integers(1, 5))
    row = st.lists(SMALL_FRACTIONS, min_size=ncols, max_size=ncols)
    return draw(st.lists(row, min_size=nrows, max_size=nrows)), ncols


class TestRepresentation:
    def test_pins(self):
        two = Q.coerce("4/2")
        assert two == 2 and two.__class__ is int
        assert Q.inv(2) == Fraction(1, 2)
        one = Q.mul(Fraction(1, 2), 2)
        assert one == 1 and one.__class__ is int
        assert Q.zero.__class__ is int and Q.one.__class__ is int

    def test_field_ops_normalize(self):
        half = Fraction(1, 2)
        assert Q.add(half, half).__class__ is int
        assert Q.sub(Fraction(3, 2), half).__class__ is int
        assert Q.inv(1).__class__ is int
        assert Q.inv(half).__class__ is int
        assert Q.coerce(Fraction(6, 3)).__class__ is int
        assert Q.coerce("3/4") == Fraction(3, 4)

    def test_matrix_ops_normalize(self):
        halves = Mat.from_rows(Q, [["1/2", "3/2"], ["1/2", "-1/2"]])
        evens = Mat.from_rows(Q, [[2, 4]])
        for m in (mat_add(halves, halves), scaled(halves, 2), halves.kron(evens),
                  halves @ scaled(halves, 4), inverse(halves)):
            assert_canonical(m)


class TestAgainstDenseReference:
    @given(q_matrices())
    @settings(max_examples=60, deadline=None)
    def test_rref(self, data):
        rows, ncols = data
        red, pivots = rref(Mat.from_rows(Q, rows))
        ref, ref_pivots = dense_rref(rows, ncols)
        assert red.to_lists() == ref and pivots == ref_pivots
        assert_canonical(red)

    @given(q_matrices(square=True))
    @settings(max_examples=60, deadline=None)
    def test_inverse(self, data):
        rows, n = data
        m = Mat.from_rows(Q, rows)
        aug = [r + [Fraction(int(i == j)) for j in range(n)] for i, r in enumerate(rows)]
        ref, pivots = dense_rref(aug, 2 * n)
        if pivots[n - 1 : n] != [n - 1]:
            with pytest.raises(IsoFailure):
                inverse(m)
            return
        inv = inverse(m)
        assert inv.to_lists() == [r[n:] for r in ref]
        assert_canonical(inv)

    @given(q_matrices())
    @settings(max_examples=60, deadline=None)
    def test_kernel(self, data):
        rows, ncols = data
        k = kernel(Mat.from_rows(Q, rows))
        assert k.basis.to_lists() == dense_kernel(rows, ncols)
        assert_canonical(k.basis)


def reachable_mats(obj, seen):
    """Every Mat reachable from presentations, bimodules, morphisms and tuples.

    `seen` maps id to object and keeps each visited object alive, so that no
    id is reused by a later temporary.
    """
    if id(obj) in seen:
        return
    seen[id(obj)] = obj
    if isinstance(obj, Mat):
        yield obj
    elif isinstance(obj, PresentedTensor):
        q = obj.quot
        for part in (project_mat(q), lift_mat(q), q.relations.basis, obj.result):
            yield from reachable_mats(part, seen)
    elif isinstance(obj, Bimodule):
        for part in (*obj.left_act, *obj.right_act):
            yield from reachable_mats(part, seen)
    elif isinstance(obj, BimoduleMorphism):
        yield from reachable_mats(obj.map, seen)
    elif isinstance(obj, Subspace):
        yield from reachable_mats(obj.basis, seen)
    elif isinstance(obj, (tuple, list)):
        for part in obj:
            yield from reachable_mats(part, seen)


def test_loaded_q_workspace_holds_only_canonical_scalars():
    ws = load_workspace(CLI_Q)
    sw = ws.corings["sw"]
    assert check_coring(sw).ok
    for a in loaded_algebras(ws):
        assert_sparse_algebra(a)
    seen = {}
    mats = []
    regrouped = {}
    for name, c in ws.corings.items():
        # The left-associated triple tensor and id (x) comul regrouped into it:
        # the presentation and the matrix every coassociativity check reads.
        t_left = tensor_over_alg(c.tens.result, c.carrier)
        regrouped[name] = regrouped_id_tensor(c.tens, c.comul_lift, c.tens, t_left)
        mats += reachable_mats(
            [c.carrier, c.comul_lift, c.comul, c.counit_mat, c.tens, t_left, regrouped[name]],
            seen,
        )
    for e in ws.extensions.values():
        mats += reachable_mats([e.bimodule, e.coact_lift], seen)
    # The Sweedler coring alone presents tensors over a 4-dim base, so the walk
    # covers eliminated relations, not only identity presentations.
    assert len(mats) > 100
    assert any(m.field == Q and m.rows and m is regrouped["sw"] for m in mats)
    for m in mats:
        assert_canonical(m)


def test_tensor_corings_of_verify_monoidal_hold_only_canonical_scalars(capsys):
    # tensor_coring takes exact field data as is, so its results must be
    # canonical without a coercion pass.  The memo holds every tensor coring
    # the run formed, with whatever presented tensor square it built.
    formed = formed_tensor_corings(capsys, CLI_Q)
    assert len(formed) > 10 and all(t.field == Q for t in formed)
    seen = {}
    mats = []
    for t in formed:
        assert_sparse_algebra(t.base)
        built = [t.__dict__[k] for k in ("tens", "comul") if k in t.__dict__]
        mats += reachable_mats([t.carrier, t.comul_lift, t.counit_mat, *built], seen)
    assert any(m.rows for m in mats)
    for m in mats:
        assert_canonical(m)


def test_f5_algebras_reached_are_sparse_rows(capsys):
    cli_f5 = WORKSPACES / "cli-f5.json"
    formed = formed_tensor_corings(capsys, cli_f5)
    assert len(formed) > 10 and all(t.field == Field.prime(5) for t in formed)
    reached = [*loaded_algebras(load_workspace(cli_f5)), *(t.base for t in formed)]
    assert any(a.dim > 4 for a in reached)
    for a in reached:
        assert_sparse_algebra(a)


@pytest.mark.parametrize(("x", "want"), [
    (10 ** 4299, "1" + "0" * 4299),
    (10 ** 4300 - 1, "9" * 4300),
    (10 ** 4300, "<integer of 4301 digits>"),
    (-(10 ** 5000), "-<integer of 5001 digits>"),
    (2 ** 20000, "<integer of 6021 digits>"),
    (Fraction(10 ** 5000 + 1, 3), "<integer of 5001 digits>/3"),
    (Fraction(-1, 10 ** 5000 + 1), "-1/<integer of 5001 digits>"),
    (Fraction(-2, 3), "-2/3"),
], ids=["4300-digits", "4300-nines", "4301-digits", "negative", "power-of-2",
        "long-numerator", "long-denominator", "fraction"])
def test_fmt_names_the_digit_count_past_the_limit(x, want):
    assert Q.fmt(x) == want
