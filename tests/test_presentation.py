"""Tensor presentations from algebra generators against the all-basis builder.

`_present_tensor` takes the relations of a generating set of the middle
algebra only and trusts the bimodule laws of its (validated) factors.
`reference_present_tensor` (tests/reference.py) takes the relations of every
basis element, eliminates them with the reference eliminator and re-checks
that the outer actions preserve the relations.  On every (M, N) the CLI
presents for the benchmark corpus, both must agree exactly.

Every algebra generator the corpus presents over acts by monomial matrices,
so each relation row has one or two terms and `quotient_by_rows` collapses
it as an orbit.  While the three workspaces load, and while `tensor sw m2`
runs, no relation row of a presentation reaches an `_Eliminator`.

A tensor with a factor over k is presented from the smaller pair
(`bimodules._present_tensor`, compared with the row route in
`test_factored_route.py`).  While cli-q and cli-f5 load, and while
`base-extend counit_sw` runs, no relation row is streamed over an ambient
space of dim above 16.

The right linearity of an extension's comultiplication reads the new right
action on C (x)_A C off `tensor_over_alg(C, M)`, M the carrier with that
action: the relations of that presentation depend on the left action of M
only, which is C's.  On every extension of the corpus it must present what
the tensor square does, and the checker must give the verdict that
`reference_right_extension_verdict`, on the hand-induced action of
`reference_delta_right_linearity`, gives.
"""

import tracemalloc
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CYCLIC_2, KLEIN_4

from corings import bimodules, cli, constructions, linalg
from corings.algebras import (
    FinDimAlgebra,
    dual_numbers,
    ground_algebra,
    group_algebra,
    tensor_algebra,
)
from corings.bimodules import Bimodule, _algebra_generators, tensor_over_alg
from corings.category import ExtMorphism, check_ext_morphism
from corings.constructions import (
    grouplike_coalgebra,
    matrix_coalgebra,
    tensor_coring,
    trivial_coring,
)
from corings.coring import check_coring
from corings.linalg import Field, Mat
from corings.workspace import load_workspace
from reference import (
    from_generators,
    lift_mat,
    project_mat,
    quotient_form,
    reference_present_tensor,
    reference_right_extension_verdict,
)

WORKSPACES = Path(__file__).resolve().parents[1] / "perfbench" / "workspaces"
FIELDS = {"Q": Field.rationals(), "F5": Field.prime(5)}


def presented_pairs(run):
    """Every distinct (M, N) that `run()` presents, from an empty cache."""
    pairs = []
    build = bimodules._present_tensor

    def recording(m, n):
        pairs.append((m, n))
        return build(m, n)

    with mock.patch.object(bimodules, "_TENSORS", {}), \
            mock.patch.object(bimodules, "_present_tensor", recording):
        run()
    return pairs


def load(name):
    return lambda: load_workspace(WORKSPACES / name)


def verify_monoidal(category):
    def run():
        code = cli.main(["--workspace", str(WORKSPACES / "monoidal-f5.json"),
                         "--seed", "1", "verify-monoidal", category])
        assert code == 0

    return run


RUNS = {
    "load-cli-q": load("cli-q.json"),
    "load-cli-f5": load("cli-f5.json"),
    "verify-monoidal-ext": verify_monoidal("ext"),
    "verify-monoidal-corings": verify_monoidal("corings"),
}


@pytest.mark.parametrize("run", sorted(RUNS))
def test_every_presentation_matches_the_reference(run, capsys):
    pairs = presented_pairs(RUNS[run])
    capsys.readouterr()
    assert pairs
    for m, n in pairs:
        got = bimodules._present_tensor(m, n)
        want = reference_present_tensor(m, n)  # raises GuardFired if the guard fires
        assert got.quot.relations.basis == want.quot.relations.basis
        assert got.quot.relations.pivots == want.quot.relations.pivots
        assert project_mat(got.quot) == project_mat(want.quot)
        assert lift_mat(got.quot) == lift_mat(want.quot)
        assert got.result.left_act == want.result.left_act
        assert got.result.right_act == want.result.right_act


GUARDED_RUNS = {
    "load-cli-q": load("cli-q.json"),
    "load-cli-f5": load("cli-f5.json"),
    "load-monoidal-f5": load("monoidal-f5.json"),
    "tensor-sw-m2": lambda: cli.main(["--workspace", str(WORKSPACES / "cli-f5.json"),
                                      "tensor", "sw", "m2"]),
}


@pytest.mark.parametrize("run", sorted(GUARDED_RUNS))
def test_presentations_eliminate_no_relation_row(run, capsys):
    inserted = []
    presenting = []
    build = bimodules._present_tensor

    class Recording(linalg._Eliminator):
        def insert(self, row):
            if presenting:
                inserted.append(row)
            super().insert(row)

    def guarded(m, n):
        presenting.append((m.dim, n.dim))
        try:
            return build(m, n)
        finally:
            presenting.pop()

    with mock.patch.object(bimodules, "_TENSORS", {}), \
            mock.patch.object(constructions, "_TENSOR_CORINGS", {}), \
            mock.patch.object(bimodules, "_present_tensor", guarded), \
            mock.patch.object(linalg, "_Eliminator", Recording):
        built = presented_pairs(GUARDED_RUNS[run])
    out = capsys.readouterr().out
    assert built
    assert inserted == []
    if run == "tensor-sw-m2":
        assert "result: pass" in out.splitlines()
        assert (1024, 64) in [(m.dim, n.dim) for m, n in built]  # ambient dim 65,536


# One round of each benchmark workload's commands, `dims k` standing for load.
CLI_COMMANDS = [
    ["dims", "k"], ["check", "m3"], ["check", "regular_dual"], ["tensor", "m2", "c2"],
    ["extend-tensor", "regular_dual", "unit_m2"], ["compose", "to_trivial_dual", "id_dual"],
    ["compose", "counit_m2", "cid_m2"], ["base-extend", "counit_sw"],
]
CORPUS_COMMANDS = [
    *[(corpus, argv) for corpus in ("cli-q", "cli-f5") for argv in CLI_COMMANDS],
    *[("monoidal-f5", ["--seed", "1", "verify-monoidal", category])
      for category in ("ext", "corings")],
]


@pytest.mark.parametrize(("corpus", "argv"), CORPUS_COMMANDS,
                         ids=[f"{c}-{'-'.join(a)}" for c, a in CORPUS_COMMANDS])
def test_no_command_builds_a_projection_matrix(corpus, argv, capsys, tmp_path, monkeypatch):
    """Every presentation a corpus command builds is relation-free or monomial:
    none holds a `project` matrix, a dict per ambient coordinate."""
    monkeypatch.chdir(tmp_path)
    forms = Counter()
    build = bimodules.quotient_by_rows

    def recording(*args):
        quot = build(*args)
        forms[quotient_form(quot)] += 1
        return quot

    with mock.patch.object(bimodules, "_TENSORS", {}), \
            mock.patch.object(constructions, "_TENSOR_CORINGS", {}), \
            mock.patch.object(bimodules, "quotient_by_rows", recording):
        code = cli.main(["--workspace", str(WORKSPACES / f"{corpus}.json"), *argv])
    capsys.readouterr()
    assert code == 0
    assert forms["residual"] == 0
    assert forms["free"] > 0
    if corpus != "monoidal-f5":
        # The Sweedler coring presents over k[K4], with relations.
        assert forms["monomial"] > 0
    if argv == ["dims", "k"]:
        # The Sweedler square and triple are widened from A (x)_A A (ambient
        # 16), not built by `quotient_by_rows`.
        assert forms == {"free": 10, "monomial": 3}


def base_extend(corpus):
    def run():
        code = cli.main(["--workspace", str(WORKSPACES / f"{corpus}.json"),
                         "base-extend", "counit_sw"])
        assert code == 0

    return run


FACTORED_RUNS = {
    "load-cli-q": load("cli-q.json"),
    "load-cli-f5": load("cli-f5.json"),
    "base-extend-counit_sw-q": base_extend("cli-q"),
    "base-extend-counit_sw-f5": base_extend("cli-f5"),
}


def relation_ambients(run):
    """The ambient dim of each `quotient_by_rows` call of `run()` given a relation row,
    from empty caches."""
    ambients = []
    build = bimodules.quotient_by_rows

    def recording(field, ambient_dim, rows):
        rows = list(rows)
        if rows:
            ambients.append(ambient_dim)
        return build(field, ambient_dim, rows)

    with mock.patch.object(bimodules, "_TENSORS", {}), \
            mock.patch.object(constructions, "_TENSOR_CORINGS", {}), \
            mock.patch.object(bimodules, "quotient_by_rows", recording):
        run()
    return ambients


@pytest.mark.parametrize("run", sorted(FACTORED_RUNS))
def test_tensors_with_a_factor_over_k_stream_no_large_relation_space(run, capsys):
    """The Sweedler coring's carrier A (x)_k A, its square and triple, and the
    base extension B (x)_A C (x)_A B of its counit, with that coring's own
    checks, are presented from A (x)_A A and its like: no relation row is
    streamed over an ambient space of dim above 16 (1,024 for the triple)."""
    ambients = relation_ambients(FACTORED_RUNS[run])
    capsys.readouterr()
    assert ambients
    assert max(ambients) <= 16


def test_factor_guard_sees_the_row_route():
    """With no factors recorded, loading streams the Sweedler triple's rows."""
    factored = bimodules._factored

    def unfactored(x, y):
        b = factored(x, y)
        b.factors = None
        return b

    with mock.patch.object(bimodules, "_factored", unfactored):
        ambients = relation_ambients(load("cli-f5.json"))
    assert max(ambients) == 1024


@pytest.mark.parametrize("field", FIELDS.values(), ids=FIELDS)
def test_matrix_3_squared_checks_in_small_memory(field):
    """The triple tensor of m3 (x) m3 has ambient dim 531,441 and no relation:
    it is held as its dim.  Holding a projection matrix peaked at 350 MB."""
    m3 = matrix_coalgebra(3, field)
    with mock.patch.object(bimodules, "_TENSORS", {}), \
            mock.patch.object(constructions, "_TENSOR_CORINGS", {}):
        tracemalloc.start()
        try:
            verdict = check_coring(tensor_coring(m3, m3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert verdict.ok
    assert peak < 64 * 2**20


def closure(a, gens):
    """Span of all products of the generators, built from words of growing length."""
    field = a.field
    words = [a.unit]
    for _ in range(a.dim):
        words += [a.mul_vec(w, a.basis_vec(g)) for w in words for g in gens]
        words = from_generators(field, a.dim, words).basis.rows
        words.append(a.unit)
    return from_generators(field, a.dim, words)


def algebras(field):
    dual = dual_numbers(field)
    k4 = group_algebra(field, KLEIN_4)
    return {
        "k": (ground_algebra(field), 0),
        "dual": (dual, 1),
        "k4": (k4, 2),
        "dual(x)dual": (tensor_algebra(dual, dual), 2),
        "k4(x)dual": (tensor_algebra(k4, dual), 3),
    }


@pytest.mark.parametrize("field", FIELDS.values(), ids=FIELDS)
@pytest.mark.parametrize("name", sorted(algebras(Field.rationals())))
def test_algebra_generators(field, name):
    a, count = algebras(field)[name]
    gens = _algebra_generators(a)
    assert len(gens) == count
    assert closure(a, gens).dim == a.dim
    if name == "dual":
        assert gens == [1]
    assert _algebra_generators(algebras(field)[name][0]) is gens


def test_generators_are_needed():
    """Dropping any chosen generator of k[K4] leaves a proper subalgebra."""
    a = group_algebra(Field.prime(5), KLEIN_4)
    gens = _algebra_generators(a)
    for g in gens:
        assert closure(a, [h for h in gens if h != g]).dim < a.dim


def corpus_extensions():
    """Every extension and ext morphism the three benchmark workspaces load."""
    found = []
    for name in ("cli-q", "cli-f5", "monoidal-f5"):
        ws = load_workspace(WORKSPACES / f"{name}.json")
        found += ws.extensions.values()
        found += [m for kind, m in ws.morphisms.values() if kind == "ext"]
    return found


def not_right_linear():
    """k[C2] acting on the right of the grouplike coalgebra: a bimodule whose
    comultiplication is not right linear."""
    f5 = Field.prime(5)
    ga = group_algebra(f5, CYCLIC_2)
    mats = [ga.right_regular_mat(j) for j in range(2)]
    return ExtMorphism(grouplike_coalgebra(CYCLIC_2, f5), trivial_coring(ga), mats,
                       Mat(f5, 2, 4, [{}, {}]))


def test_new_action_presents_the_tensor_square():
    extensions = corpus_extensions()
    assert len(extensions) == 18
    for e in extensions:
        t = tensor_over_alg(e.source.carrier, e.bimodule)
        assert t.quot.relations.basis == e.source.tens.quot.relations.basis
        assert t.quot.relations.pivots == e.source.tens.quot.relations.pivots
        assert project_mat(t.quot) == project_mat(e.source.tens.quot)


def test_right_linearity_matches_the_reference():
    cases = [*corpus_extensions(), not_right_linear()]
    got = [check_ext_morphism(e) for e in cases]
    want = [reference_right_extension_verdict(e.source, e.target, e.action_mats, e.coact_lift)
            for e in cases]
    assert got == want
    assert got[-1].law == "delta-right-linear"
    assert all(v.ok for v in got[:-1])


# Random modules over B = k[x]/(p), for the row producer against the
# reference.  x generates B, so every relation row comes from the matrix X by
# which x acts, and X is block diagonal (up to a permutation of the basis)
# with blocks whose minimal polynomials divide p = x^e * prod (x - l):
# a shift e_i -> c_i e_{i+1} of size at most e (monomial rows, the last one
# zero), a 1x1 block [l] (a fixed point with scalar l; a zero row when l = 0),
# and [[l, s], [0, l']] with l != l' (a row of two entries, so a relation row
# of three terms).  Two fixed points with equal scalars give a zero relation
# row, with unequal scalars a one-term row.
ROW_FIELDS = {"Q": Field.rationals(), "F2": Field.prime(2), "F3": Field.prime(3),
              "F5": Field.prime(5)}


def polynomial_algebra(field, p):
    """k[x]/(p) on the basis 1, x, ..., x^(d-1), for p monic (low degree first)."""
    d = len(p) - 1
    powers = [[field.one if t == s else field.zero for t in range(d)] for s in range(d)]
    x_d = [field.neg(c) for c in p[:d]]  # x^d = -(p_0 + ... + p_(d-1) x^(d-1))
    powers.append(x_d)
    for _ in range(d, 2 * d - 2):
        prev = powers[-1]
        nxt = [field.zero] + prev[:-1]
        powers.append([field.add(a, field.mul(prev[-1], b)) for a, b in zip(nxt, x_d)])
    table = [[powers[i + j] for j in range(d)] for i in range(d)]
    return FinDimAlgebra(field, d, table, powers[0])


def block_matrix(field, blocks, order):
    """The block-diagonal matrix of `blocks` (sparse row lists), basis permuted by `order`."""
    rows = []
    for block in blocks:
        base = len(rows)
        rows += [{base + c: v for c, v in r.items()} for r in block]
    n = len(rows)
    where = {old: new for new, old in enumerate(order)}
    out = [None] * n
    for old, r in enumerate(rows):
        out[where[old]] = {where[c]: v for c, v in r.items()}
    return Mat(field, n, n, out)


@st.composite
def x_action(draw, field, e, roots):
    nonzero = st.integers(1, 3) if field.p is None else st.integers(1, field.p - 1)
    blocks = []
    for _ in range(draw(st.integers(1, 3))):
        kinds = ["fixed"] + (["shift"] if e else []) + (["wide"] if len(roots) > 1 else [])
        kind = draw(st.sampled_from(kinds))
        if kind == "shift":
            size = draw(st.integers(1, e))
            blocks.append([{i + 1: field.coerce(draw(nonzero))} for i in range(size - 1)] + [{}])
        elif kind == "fixed":
            lam = draw(st.sampled_from(roots))
            blocks.append([{0: lam} if lam else {}])
        else:
            lam, mu = draw(st.lists(st.sampled_from(roots), min_size=2, max_size=2, unique=True))
            blocks.append([{0: lam, 1: field.coerce(draw(nonzero))} if lam else
                           {1: field.coerce(draw(nonzero))}, {1: mu} if mu else {}])
    n = sum(len(b) for b in blocks)
    return block_matrix(field, blocks, draw(st.permutations(range(n))))


@st.composite
def module_pairs(draw):
    field = ROW_FIELDS[draw(st.sampled_from(sorted(ROW_FIELDS)))]
    e = draw(st.integers(0, 2))
    elements = range(1, 4) if field.p is None else range(1, field.p)
    nonzero_roots = draw(st.lists(st.sampled_from(elements), max_size=2, unique=True))
    roots = [field.coerce(r) for r in nonzero_roots] + ([field.zero] if e else [])
    if not roots:
        roots = [field.one]
        nonzero_roots = [1]
    p = [field.one]  # x^e * prod (x - r), low degree first
    for r in [0] * e + nonzero_roots:
        r = field.coerce(r)
        p = [field.sub(a, field.mul(r, b)) for a, b in zip([field.zero] + p, p + [field.zero])]
    b = polynomial_algebra(field, p)
    k = ground_algebra(field)
    xm, xn = draw(x_action(field, e, roots)), draw(x_action(field, e, roots))

    def powers(x):
        acts = [Mat.identity(field, x.nrows)]
        while len(acts) < b.dim:
            acts.append(acts[-1] @ x)
        return acts

    m = Bimodule(k, b, xm.nrows, [Mat.identity(field, xm.nrows)], powers(xm))
    n = Bimodule(b, k, xn.nrows, powers(xn), [Mat.identity(field, xn.nrows)])
    return m, n


def assert_matches_the_reference(m, n):
    assert m.check().ok and n.check().ok
    got = bimodules._present_tensor(m, n)
    want = reference_present_tensor(m, n)
    assert got.quot.relations.basis == want.quot.relations.basis
    assert got.quot.relations.pivots == want.quot.relations.pivots
    assert project_mat(got.quot) == project_mat(want.quot)
    assert lift_mat(got.quot) == lift_mat(want.quot)
    assert got.result.left_act == want.result.left_act
    assert got.result.right_act == want.result.right_act


@given(module_pairs())
@settings(max_examples=150, deadline=None)
def test_relation_rows_match_the_reference(pair):
    assert_matches_the_reference(*pair)


@pytest.mark.parametrize("field", FIELDS.values(), ids=FIELDS)
def test_every_kind_of_relation_row_matches_the_reference(field):
    """B = k[x]/(x^2 (x - 1) (x + 1)): X_M has a shift, the fixed points 1 and
    -1 and a two-entry row; X_N has a shift and the fixed point 1."""
    one, minus_one, two = field.one, field.neg(field.one), field.coerce(2)
    p = [field.zero, field.zero, minus_one, field.zero, one]  # x^4 - x^2
    b = polynomial_algebra(field, p)
    k = ground_algebra(field)
    xm = block_matrix(field, [[{1: two}, {}], [{0: one}], [{0: minus_one}],
                              [{0: one, 1: two}, {1: minus_one}]], [5, 0, 3, 1, 4, 2])
    xn = block_matrix(field, [[{1: two}, {}], [{0: one}]], [1, 2, 0])
    acts_m, acts_n = [Mat.identity(field, 6)], [Mat.identity(field, 3)]
    for _ in range(3):
        acts_m.append(acts_m[-1] @ xm)
        acts_n.append(acts_n[-1] @ xn)
    m = Bimodule(k, b, 6, [Mat.identity(field, 6)], acts_m)
    n = Bimodule(b, k, 3, acts_n, [Mat.identity(field, 3)])
    assert _algebra_generators(b) == [1]
    lengths = sorted({len(r) for r in bimodules._relation_rows(m, n)})
    assert lengths == [1, 2, 3]
    # 18 basis pairs, two of them zero rows: the fixed point 1 on both sides,
    # and the zero rows that end the two shifts.
    assert sum(1 for _ in bimodules._relation_rows(m, n)) == 16
    assert_matches_the_reference(m, n)
