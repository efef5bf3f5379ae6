"""Law checkers on lift rows against the checkers that induced whole maps.

`check_coring`, `right_coaction_verdict`, `coaction_compatibility` and
`check_corings_morphism` evaluate each two-route law on the rows of the
comultiplication or coaction lift, and each counit law by contracting the
counit with a module action in the ambient space.  The checkers they replaced
are kept in tests/reference.py.  On every object of the three benchmark
corpora, and on derandomized corruptions of those objects, both must give the
same (ok, law, witness, laws_passed).

A corruption changes only the object under test and keeps each checker's
preconditions: the carriers and the corings an object refers to stay as
loaded, so every carrier is a bimodule and every D a coring.  Corruptions
include adding a relation of the presented tensor to a lift row, which must
change no verdict, because the new checkers read the lift itself.

Every `descend` call those checkers make, on the corpus objects and on their
corruptions, runs through `reference_descend` too (`descend_both_ways`): the
check on the generating relation rows must fail exactly where the check on a
relation basis fails.

On the same extensions and corruptions, `check_ext_morphism`, which runs the
four extension laws on its `ExtMorphism`, must give the verdict of
`reference_right_extension_verdict`.  A coring's comultiplication is the right
coaction of C on itself, so `right_coaction_verdict` must pass it and fail the
corruptions that `check_coring` fails on coassociativity or the right counit,
on the same row.
"""

import random
from functools import cache
from pathlib import Path
from unittest import mock

import pytest

from corings import category
from corings.algebras import AlgebraMorphism
from corings.bimodules import induced_map_on_tensor, regular_bimodule, tensor_over_alg
from corings.category import (
    CoringsMorphism,
    ExtMorphism,
    base_ring_extension,
    check_corings_morphism,
    check_ext_morphism,
)
from corings.coring import (
    Coring,
    _counit_contraction,
    check_coring,
    coaction_compatibility,
    right_coaction_verdict,
)
from corings.linalg import Mat, _vadd
from corings.workspace import load_workspace
from reference import (
    descend_both_ways,
    left_unit_collapse,
    mat_add,
    mat_sub,
    reference_check_coring,
    reference_check_corings_morphism,
    reference_coaction_compatibility,
    reference_right_coaction_verdict,
    reference_right_extension_verdict,
    right_unit_collapse,
    scaled,
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
    on the left and on the right through different algebras.
    """
    ws = workspace(corpus)
    objects = [(name, "coring", c) for name, c in ws.corings.items()]
    objects += [(name, "ext", e) for name, e in ws.extensions.items()]
    objects += [(name, kind, m) for name, (kind, m) in ws.morphisms.items()]
    for name, (kind, m) in ws.morphisms.items():
        if kind == "corings":
            ext = base_ring_extension(m)
            objects += [(f"base-extend {name} coring", "coring", ext.source),
                        (f"base-extend {name}", "ext", ext)]
    return objects


def reference_ext_verdict(m):
    """`check_ext_morphism` with the reference coaction checkers swapped in."""
    with mock.patch.object(category, "right_coaction_verdict",
                           reference_right_coaction_verdict), \
            mock.patch.object(category, "coaction_compatibility",
                              reference_coaction_compatibility):
        return check_ext_morphism(m)


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
            lift = shift_by_relation(rng, lift, c.tens.quot.relations)
    return Coring(c.base, c.carrier, lift, counit)


def corrupt_ext(rng, m):
    actions, lift = list(m.action_mats), m.coact_lift
    c_dim, d_dim = m.source.dim, m.target.dim
    field = m.source.field
    for _ in range(rng.choice([1, 1, 2])):
        step = rng.randrange(7)
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
            lift = shift_by_relation(rng, lift, m.coaction_tensor.quot.relations)
        elif step == 5:
            j = rng.randrange(len(actions))
            actions[j] = poke(rng, actions[j])
        else:
            lift = lift @ twist(rng, field, c_dim).kron(Mat.identity(field, d_dim))
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
    """[(checker, new outcome, reference outcome)] for one object."""
    if kind == "coring":
        return [("check_coring", outcome(check_coring(obj)),
                 outcome(reference_check_coring(obj)))]
    if kind == "corings":
        return [("check_corings_morphism", outcome(check_corings_morphism(obj)),
                 outcome(reference_check_corings_morphism(obj)))]
    v = check_ext_morphism(obj)
    rows = [("check_ext_morphism", outcome(v), outcome(reference_ext_verdict(obj)))]
    # Called directly only under their preconditions: M a bimodule, and for
    # compatibility the comultiplication right linear for the new action.
    if "bimodule" in v.laws_passed:
        args = (obj.bimodule, obj.target, obj.coact_lift)
        rows.append(("right_coaction_verdict", outcome(right_coaction_verdict(*args)),
                     outcome(reference_right_coaction_verdict(*args))))
    if "delta-right-linear" in v.laws_passed:
        args = (obj.source, obj.target, obj.bimodule, obj.source.comul_lift, obj.coact_lift)
        rows.append(("coaction_compatibility", outcome(coaction_compatibility(*args)),
                     outcome(reference_coaction_compatibility(*args))))
    return rows


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


LAWS_TRIPPED = {
    "check_coring": ("coassociativity", "right-counit", "left-counit"),
    "right_coaction_verdict": ("coaction-coassociativity", "coaction-counit"),
    "coaction_compatibility": ("colinearity",),
    "check_corings_morphism": ("counit-square", "comultiplication-square"),
}


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
    assert [r for r in corruption_results(corpus) if r[3] != r[4]] == []


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
    failed = {(checker, new[1]) for _, _, checker, new, _ in results if not new[0]}
    for checker, laws in LAWS_TRIPPED.items():
        for law in laws:
            assert (checker, law) in failed
    witnesses = {new[2] for _, _, checker, new, _ in results
                 if checker == "coaction_compatibility" and not new[0]}
    assert "ambient map does not send source relations into target relations" in witnesses
    assert any(w.endswith("the two coactions do not commute") for w in witnesses)


def test_relations_added_to_lift_rows_change_no_verdict():
    shifted = 0
    for corpus, (name, kind, obj) in ((c, o) for c in CORPORA for o in corpus_objects(c)):
        rng = random.Random(f"{corpus}/{name}/relations")
        if kind == "coring" and obj.tens.quot.relations.dim:
            lift = obj.comul_lift
            for _ in range(3):
                lift = shift_by_relation(rng, lift, obj.tens.quot.relations)
            obj = Coring(obj.base, obj.carrier, lift, obj.counit_mat)
        elif kind == "ext" and obj.coaction_tensor.quot.relations.dim:
            lift = obj.coact_lift
            for _ in range(3):
                lift = shift_by_relation(rng, lift, obj.coaction_tensor.quot.relations)
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
    return lift @ t.project @ induced_map_on_tensor(f, g, t, unit_tensor) @ collapse


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


def ext_cases(corpus):
    """Every extension-kind object of `corpus` and its derandomized corruptions."""
    for name, kind, obj in corpus_objects(corpus):
        if kind == "ext":
            yield name, obj
            for k in range(CORRUPTIONS_PER_OBJECT):
                yield name, corrupt_ext(random.Random(f"{corpus}/{name}/{k}"), obj)


@pytest.mark.parametrize("corpus", CORPORA)
def test_extension_checker_matches_the_reference(corpus):
    """`check_ext_morphism` on its `ExtMorphism` against the four laws on raw data."""
    laws = set()
    for name, m in ext_cases(corpus):
        v = check_ext_morphism(m)
        ref = reference_right_extension_verdict(m.source, m.target, m.action_mats,
                                                m.coact_lift)
        assert v == ref, name
        laws.add(v.law)
    assert {None, "bimodule", "coaction", "colinearity"} <= laws


@pytest.mark.parametrize("corpus", CORPORA)
def test_a_coring_coacts_on_itself(corpus):
    """The comultiplication is the right coaction of C on itself.

    It passes `right_coaction_verdict` on every corpus coring; where a
    corruption makes `check_coring` fail coassociativity or the right counit
    law, the coaction laws fail on the same row.
    """
    same_law = {"coassociativity": "coaction-coassociativity",
                "right-counit": "coaction-counit"}
    seen = set()
    for name, kind, obj in corpus_objects(corpus):
        if kind != "coring":
            continue
        assert right_coaction_verdict(obj.carrier, obj, obj.comul_lift).ok, name
        for k in range(CORRUPTIONS_PER_OBJECT):
            c = corrupt_coring(random.Random(f"{corpus}/{name}/{k}"), obj)
            v = check_coring(c)
            if v.law not in same_law:
                continue
            w = right_coaction_verdict(c.carrier, c, c.comul_lift)
            assert w.law == same_law[v.law], (name, k)
            assert w.witness.split(": ")[0] == v.witness.split(": ")[0], (name, k)
            seen.add(v.law)
    assert seen == set(same_law)
