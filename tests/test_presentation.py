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

The right linearity of an extension's comultiplication reads the new right
action on C (x)_A C off `tensor_over_alg(C, M)`, M the carrier with that
action: the relations of that presentation depend on the left action of M
only, which is C's.  On every extension of the corpus it must present what
the tensor square does, and the checker must give the verdict that
`reference_right_extension_verdict`, on the hand-induced action of
`reference_delta_right_linearity`, gives.
"""

from pathlib import Path
from unittest import mock

import pytest

from corings import bimodules, cli, constructions, linalg
from corings.algebras import (
    CYCLIC_2,
    KLEIN_4,
    dual_numbers,
    ground_algebra,
    group_algebra,
    tensor_algebra,
)
from corings.bimodules import _algebra_generators, tensor_over_alg
from corings.category import ExtMorphism, check_ext_morphism
from corings.constructions import grouplike_coalgebra, trivial_coring
from corings.linalg import Field, Mat, Subspace
from corings.workspace import load_workspace
from reference import reference_present_tensor, reference_right_extension_verdict

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
        assert got.relations.basis == want.relations.basis
        assert got.relations.pivots == want.relations.pivots
        assert got.project == want.project
        assert got.lift == want.lift
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


def closure(a, gens):
    """Span of all products of the generators, built from words of growing length."""
    field = a.field
    words = [a.unit]
    for _ in range(a.dim):
        words += [a.mul_vec(w, a.basis_vec(g)) for w in words for g in gens]
        words = Subspace.from_generators(field, a.dim, words).basis.to_lists()
        words.append(a.unit)
    return Subspace.from_generators(field, a.dim, words)


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
        assert t.relations.basis == e.source.tens.relations.basis
        assert t.relations.pivots == e.source.tens.relations.pivots
        assert t.project == e.source.tens.project


def test_right_linearity_matches_the_reference():
    cases = [*corpus_extensions(), not_right_linear()]
    got = [check_ext_morphism(e) for e in cases]
    want = [reference_right_extension_verdict(e.source, e.target, e.action_mats, e.coact_lift)
            for e in cases]
    assert got == want
    assert got[-1].law == "delta-right-linear"
    assert all(v.ok for v in got[:-1])
