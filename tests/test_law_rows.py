"""Law checkers on lift rows against the checkers that induced whole maps.

`check_coring`, `check_ext_morphism` and `check_corings_morphism` evaluate
each two-route law on the rows of the comultiplication or coaction lift, and
each counit law by contracting the counit with a module action in the
ambient space.  The checkers they replaced are kept in tests/reference.py.
On every object of the three benchmark corpora, and on derandomized
corruptions of those objects, both must give the same (ok, law, witness,
laws_passed), and for an extension the same whole verdict: no law vacuous,
the four laws declared.

A corruption changes only the object under test and keeps each checker's
preconditions: the carriers and the corings an object refers to stay as
loaded, so every carrier is a bimodule and every D a coring.  Corruptions
include adding a relation of the presented tensor to a lift row, which must
change no verdict, because the new checkers read the lift itself, and
transporting a coaction along an automorphism that is right B-linear only,
which keeps the coaction laws but can break colinearity.

Every `descend` call those checkers make, on the corpus objects and on their
corruptions, runs through `reference_descend` too (`descend_both_ways`): the
check on the generating relation rows must fail exactly where the check on a
relation basis fails.

The extension reference, `reference_right_extension_verdict`, calls no law
checker of the library.  A coring's comultiplication is the right coaction of
C on itself, so the identity extension of C (`ext_identity`) must pass and
fail its `coaction` law on the corruptions that `check_coring` fails on
coassociativity or the right counit, with the part and the row of that law.
"""

import random
from functools import cache
from pathlib import Path

import pytest

from corings.algebras import AlgebraMorphism
from corings.bimodules import induced_map_on_tensor, regular_bimodule, tensor_over_alg
from corings.category import (
    EXT_MORPHISM_LAWS,
    CoringsMorphism,
    ExtMorphism,
    base_ring_extension,
    check_corings_morphism,
    check_ext_morphism,
    ext_identity,
)
from corings.coring import Coring, _counit_contraction, check_coring
from corings.linalg import Mat, _vadd
from corings.workspace import load_workspace
from reference import (
    IsoFailure,
    descend_both_ways,
    inverse,
    kernel,
    left_unit_collapse,
    mat_add,
    mat_sub,
    project_mat,
    reference_check_coring,
    reference_check_corings_morphism,
    reference_right_extension_verdict,
    relation_space,
    right_unit_collapse,
    scaled,
    transpose,
    zero_mat,
)

WORKSPACES = Path(__file__).resolve().parents[1] / "perfbench" / "workspaces"
CORPORA = ("cli-q", "cli-f5", "monoidal-f5")
CORRUPTIONS_PER_OBJECT = 50


def outcome(v):
    return (v.ok, v.law, v.witness, v.laws_passed)


@cache
def workspace(corpus):
    return load_workspace(WORKSPACES / f"{corpus}.json")


@cache
def corpus_objects(corpus):
    """(name, kind, object) for every coring, extension and morphism of `corpus`.

    The base ring extension of each corings morphism and its coring, which
    `base-extend` checks, count too: unlike the loaded extensions, they act
    on the left and on the right through different algebras.  So does the
    identity extension of each coring, which `verify-monoidal ext` builds:
    over a base of dim > 1 its transported coactions (`corrupt_ext`) reach
    the descent failure of `colinearity`.
    """
    ws = workspace(corpus)
    objects = [(name, "coring", c) for name, c in ws.corings.items()]
    objects += [(name, "ext", e) for name, e in ws.extensions.items()]
    objects += [(name, kind, m) for name, (kind, m) in ws.morphisms.items()]
    objects += [(f"identity {name}", "ext", ext_identity(c)) for name, c in ws.corings.items()]
    for name, (kind, m) in ws.morphisms.items():
        if kind == "corings":
            ext = base_ring_extension(m)
            objects += [(f"base-extend {name} coring", "coring", ext.source),
                        (f"base-extend {name}", "ext", ext)]
    return objects


def scalar(rng, field):
    return field.coerce(rng.choice([-2, -1, 2, 3]))


def added(mat, i, vec, coeff):
    """A copy of `mat` with coeff * vec added to row i."""
    out = mat.copy()
    _vadd(out.field, out.rows[i], vec, coeff)
    return out


def poke(rng, mat):
    """`mat` with one entry moved by a random nonzero scalar."""
    if not (mat.nrows and mat.ncols):
        return mat
    return added(mat, rng.randrange(mat.nrows), {rng.randrange(mat.ncols): mat.field.one},
                 scalar(rng, mat.field))


def shift_by_relation(rng, lift, relations):
    """`lift` with a multiple of a relation added to one row: the same classes."""
    if not (lift.nrows and relations.dim):
        return lift
    r = relations.basis.rows[rng.randrange(relations.dim)]
    return added(lift, rng.randrange(lift.nrows), r, scalar(rng, lift.field))


def twist(rng, field, n, counit=None):
    """I + s (E_ij - E_il) on an n-dim space, or s I when n < 2.

    With `counit` given, e_j and e_l have the same counit where possible, so
    that the twist keeps the counit.  Over a ground-field base every such map
    is bilinear, so a lift composed with it reaches the laws after bilinearity.
    """
    if n < 2:
        return scaled(Mat.identity(field, n), scalar(rng, field))
    i, j, l = rng.randrange(n), rng.randrange(n), rng.randrange(n)
    if counit is not None:
        same = [(a, b) for a in range(n) for b in range(a)
                if counit.rows[a] == counit.rows[b]]
        if same:
            j, l = rng.choice(same)
    return added(Mat.identity(field, n), i, {j: field.one, l: field.neg(field.one)} if j != l else {},
                 scalar(rng, field))


def corrupt_coring(rng, c):
    lift, counit = c.comul_lift, c.counit_mat
    ident = Mat.identity(c.field, c.dim)
    for _ in range(rng.choice([1, 1, 2])):
        step = rng.randrange(6)
        if step == 0:
            lift = poke(rng, lift)
        elif step == 1:
            counit = poke(rng, counit)
        elif step == 2:
            counit = scaled(counit, scalar(rng, c.field))
        elif step == 3:
            lift = lift @ twist(rng, c.field, c.dim).kron(ident)
        elif step == 4:
            lift = lift @ ident.kron(twist(rng, c.field, c.dim))
        else:
            lift = shift_by_relation(rng, lift, relation_space(c.tens.quot))
    return Coring(c.base, c.carrier, lift, counit)


@cache
def right_linear_maps(bimodule):
    """A basis of the maps X: M -> M with R X = X R for every right action R.

    X is solved for as a vector, entry (a, b) at a * n + b, on which R X - X R
    is the matrix R (x) I - I (x) R^T.
    """
    field, n = bimodule.field, bimodule.dim
    ident = Mat.identity(field, n)
    equations = [row for r in bimodule.right_act
                 for row in mat_sub(r.kron(ident), ident.kron(transpose(r))).rows]
    maps = []
    for x in kernel(Mat(field, len(equations), n * n, equations)).basis.rows:
        rows = [{} for _ in range(n)]
        for j, v in x.items():
            rows[j // n][j % n] = v
        maps.append(Mat(field, n, n, rows))
    return maps


def corrupt_ext(rng, m):
    actions, lift = list(m.action_mats), m.coact_lift
    c_dim, d_dim = m.source.dim, m.target.dim
    field = m.source.field
    for _ in range(rng.choice([1, 1, 2])):
        step = rng.randrange(8)
        if step == 0:
            lift = poke(rng, lift)
        elif step == 1:
            lift = scaled(lift, scalar(rng, field))
        elif step == 2:
            lift = lift @ Mat.identity(field, c_dim).kron(twist(rng, field, d_dim))
        elif step == 3:
            # Transport along phi = I + N, N = s E_ij nilpotent: lift of
            # (phi^-1 (x) D) o rho o phi.
            n = zero_mat(field, c_dim, c_dim)
            if c_dim > 1:
                i, j = rng.sample(range(c_dim), 2)
                n = added(n, i, {j: field.one}, scalar(rng, field))
            ident = Mat.identity(field, c_dim)
            lift = mat_add(ident, n) @ lift @ mat_sub(ident, n).kron(Mat.identity(field, d_dim))
        elif step == 4:
            lift = shift_by_relation(rng, lift, relation_space(m.coaction_tensor.quot))
        elif step == 5:
            j = rng.randrange(len(actions))
            actions[j] = poke(rng, actions[j])
        elif step == 6:
            lift = lift @ twist(rng, field, c_dim).kron(Mat.identity(field, d_dim))
        else:
            # Transport along phi = I + s X, X right B-linear: a right
            # D-coaction again, but phi need not be left A-linear, and then
            # C (x) rho does not descend (`colinearity`).
            maps = right_linear_maps(m.bimodule)
            phi = mat_add(Mat.identity(field, c_dim), scaled(rng.choice(maps), scalar(rng, field)))
            try:
                lift = phi @ lift @ inverse(phi).kron(Mat.identity(field, d_dim))
            except IsoFailure:
                pass
    return ExtMorphism(m.source, m.target, actions, lift)


def corrupt_corings_morphism(rng, m):
    phi, varphi = m.phi, m.varphi
    for _ in range(rng.choice([1, 1, 2])):
        step = rng.randrange(5)
        if step == 0:
            phi = poke(rng, phi)
        elif step == 1:
            phi = scaled(phi, scalar(rng, phi.field))
        elif step == 2:
            phi = phi @ twist(rng, phi.field, m.target.dim, m.target.counit_mat)
        elif step == 3:
            phi = twist(rng, phi.field, m.source.dim, m.source.counit_mat) @ phi
        else:
            varphi = AlgebraMorphism(varphi.source, varphi.target, poke(rng, varphi.map))
    return CoringsMorphism(m.source, m.target, phi, varphi)


def compare(kind, obj):
    """[(checker, new outcome, reference outcome)] for one object; an
    extension's outcome is its whole `Verdict`."""
    if kind == "coring":
        return [("check_coring", outcome(check_coring(obj)),
                 outcome(reference_check_coring(obj)))]
    if kind == "corings":
        return [("check_corings_morphism", outcome(check_corings_morphism(obj)),
                 outcome(reference_check_corings_morphism(obj)))]
    ref = reference_right_extension_verdict(obj.source, obj.target, obj.action_mats,
                                            obj.coact_lift)
    return [("check_ext_morphism", check_ext_morphism(obj),
             ref._replace(laws_declared=EXT_MORPHISM_LAWS))]


CORRUPT = {"coring": corrupt_coring, "ext": corrupt_ext, "corings": corrupt_corings_morphism}


@cache
def corruption_run(corpus):
    """(results, descents) over CORRUPTIONS_PER_OBJECT corruptions per object.

    A result is (object, index, checker, new, reference); a descent is the
    (library, reference) outcome pair of one `descend` call the checkers made
    (`descend_both_ways`).
    """
    results = []
    with descend_both_ways() as descents:
        for name, kind, obj in corpus_objects(corpus):
            for k in range(CORRUPTIONS_PER_OBJECT):
                rng = random.Random(f"{corpus}/{name}/{k}")
                bad = CORRUPT[kind](rng, obj)
                results += [(name, k, *row) for row in compare(kind, bad)]
    return results, descents


def corruption_results(corpus):
    return corruption_run(corpus)[0]


# The extension checker's failures count by the part of `coaction` that the
# witness names and by the two ways `colinearity` fails (`tripped`).
LAWS_TRIPPED = {
    "check_coring": ("coassociativity", "right-counit", "left-counit"),
    "check_ext_morphism": (
        "bimodule", "coaction-linearity", "coaction-coassociativity", "coaction-counit",
        "ambient map does not send source relations into target relations",
        "the two coactions do not commute",
    ),
    "check_corings_morphism": ("counit-square", "comultiplication-square"),
}


def tripped(checker, law, witness):
    """The entry of LAWS_TRIPPED that a failure of `checker` counts for."""
    if checker != "check_ext_morphism":
        return law
    if law == "coaction":
        return witness.split(": ")[0]
    if law == "colinearity":
        return witness.split(": ")[-1]
    return law


@pytest.mark.parametrize("corpus", CORPORA)
def test_corpus_objects_agree(corpus):
    with descend_both_ways() as descents:
        for name, kind, obj in corpus_objects(corpus):
            for checker, new, ref in compare(kind, obj):
                assert new == ref, (name, checker)
                assert new[0], (name, checker)
    assert descents and [d for d in descents if d[0] != d[1]] == []


@pytest.mark.parametrize("corpus", CORPORA)
def test_corruptions_agree(corpus):
    """On each corpus, the corruptions also make the extension checker fail
    `bimodule`, `coaction` and `colinearity`: no corpus stops reaching one."""
    results = corruption_results(corpus)
    assert [r for r in results if r[3] != r[4]] == []
    laws = {r[3].law for r in results if r[2] == "check_ext_morphism"}
    assert {"bimodule", "coaction", "colinearity"} <= laws


def test_descend_on_corruptions_agrees_with_the_relation_basis_check():
    """`descend` raises on exactly the calls `reference_descend` raises on.

    No corruption of `monoidal-f5` reaches a map that fails to descend; those
    of the two cli corpora do.
    """
    descents = [d for corpus in CORPORA for d in corruption_run(corpus)[1]]
    assert [d for d in descents if d[0] != d[1]] == []
    assert {got[0] for got, _ in descents} == {"descends", "fails"}


def test_corruptions_reach_every_law():
    results = [r for corpus in CORPORA for r in corruption_results(corpus)]
    assert len({(corpus, name, k) for corpus in CORPORA
                for name, k, *_ in corruption_results(corpus)}) >= 2000
    failed = {(checker, tripped(checker, new[1], new[2]))
              for _, _, checker, new, _ in results if not new[0]}
    for checker, laws in LAWS_TRIPPED.items():
        for law in laws:
            assert (checker, law) in failed


def test_relations_added_to_lift_rows_change_no_verdict():
    shifted = 0
    for corpus, (name, kind, obj) in ((c, o) for c in CORPORA for o in corpus_objects(c)):
        rng = random.Random(f"{corpus}/{name}/relations")
        if kind == "coring" and relation_space(obj.tens.quot).dim:
            lift = obj.comul_lift
            for _ in range(3):
                lift = shift_by_relation(rng, lift, relation_space(obj.tens.quot))
            obj = Coring(obj.base, obj.carrier, lift, obj.counit_mat)
        elif kind == "ext" and relation_space(obj.coaction_tensor.quot).dim:
            lift = obj.coact_lift
            for _ in range(3):
                lift = shift_by_relation(rng, lift, relation_space(obj.coaction_tensor.quot))
            obj = ExtMorphism(obj.source, obj.target, obj.action_mats, lift)
        else:
            continue
        shifted += 1
        for checker, new, ref in compare(kind, obj):
            assert new == ref, (name, checker)
            assert new[0], (name, checker)
    assert shifted


def collapse_route(lift, t, counit, left):
    """The contraction of `_counit_contraction` through the presented unit tensor.

    `t` presents the source X (x)_A Y of the lift's class; the counit is
    induced onto A (x)_A Y (`left`) or X (x)_A A and collapsed there.
    """
    field = lift.field
    if left:
        unit_tensor = tensor_over_alg(regular_bimodule(t.over), t.right_factor)
        f, g = counit, Mat.identity(field, t.right_factor.dim)
        collapse = left_unit_collapse(unit_tensor)
    else:
        unit_tensor = tensor_over_alg(t.left_factor, regular_bimodule(t.over))
        f, g = Mat.identity(field, t.left_factor.dim), counit
        collapse = right_unit_collapse(unit_tensor)
    return lift @ project_mat(t.quot) @ induced_map_on_tensor(f, g, t, unit_tensor) @ collapse


@pytest.mark.parametrize("corpus", CORPORA)
def test_counit_contraction_equals_the_collapse_route(corpus):
    """On every corpus coring and coaction, and on lifts corrupted with the counit kept."""
    for name, kind, obj in corpus_objects(corpus):
        for k in range(5):
            rng = random.Random(f"{corpus}/{name}/contraction/{k}")
            if kind == "coring":
                c = obj if k == 0 else corrupt_coring(rng, obj)
                lift, t, counit = c.comul_lift, obj.tens, obj.counit_mat
                sides = ((True, obj.carrier.left_act), (False, obj.carrier.right_act))
            elif kind == "ext":
                lift = obj.coact_lift if k == 0 else poke(rng, obj.coact_lift)
                t, counit = obj.coaction_tensor, obj.target.counit_mat
                sides = ((False, obj.bimodule.right_act),)
            else:
                continue
            for left, acts in sides:
                got = _counit_contraction(lift, t.right_factor.dim, counit, acts, left)
                assert got == collapse_route(lift, t, counit, left), (name, k)


@pytest.mark.parametrize("corpus", CORPORA)
def test_a_coring_coacts_on_itself(corpus):
    """The comultiplication is the right coaction of C on itself.

    The identity extension passes on every corpus coring; where a corruption
    makes `check_coring` fail coassociativity or the right counit law,
    `coaction` fails in the matching part on the same row.
    """
    same_law = {"coassociativity": "coaction-coassociativity",
                "right-counit": "coaction-counit"}
    seen = set()
    for name, kind, obj in corpus_objects(corpus):
        if kind != "coring":
            continue
        assert check_ext_morphism(ext_identity(obj)).ok, name
        for k in range(CORRUPTIONS_PER_OBJECT):
            c = corrupt_coring(random.Random(f"{corpus}/{name}/{k}"), obj)
            v = check_coring(c)
            if v.law not in same_law:
                continue
            w = check_ext_morphism(ext_identity(c))
            assert w.law == "coaction", (name, k)
            assert w.witness.split(": ")[:2] == [same_law[v.law], v.witness.split(": ")[0]], (
                name, k)
            seen.add(v.law)
    assert seen == set(same_law)
