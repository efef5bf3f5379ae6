"""No checker's declared law tuple can drift from the laws it yields.

Each checker declares its laws once, as the tuple of its `@checker`, and a
report lists the laws of a verdict from `laws_declared` alone.  A passing
verdict has run every law, so its `laws_passed` must be exactly the declared
tuple, in order: a law the checker yields but does not declare, or declares
but never yields, or yields out of order, fails here.

The checkers run on every object of the three benchmark corpora: the
checker of each kind (`workspace.CHECKERS`), and the checkers nested in
them on the same objects.  Both monoidal verifiers run on `monoidal-f5`,
where every law has instances, so none may be vacuous.
"""

from functools import cache
from pathlib import Path

import pytest

from corings.algebras import check_algebra_morphism
from corings.bimodules import Bimodule, regular_bimodule
from corings.category import CATEGORIES, MONOIDAL_LAWS, verify_monoidal
from corings.coring import coaction_compatibility, right_coaction_verdict
from corings.workspace import CHECKERS, load_workspace
from reference import BimoduleMorphism

WORKSPACES = Path(__file__).resolve().parents[1] / "perfbench" / "workspaces"
CORPORA = ("cli-q", "cli-f5", "monoidal-f5")
# Every checker in the package but the monoidal verifiers, by qualified name,
# and the reference `BimoduleMorphism.check` that `check_coring` checked
# bilinearity with before it checked the algebra's generators.
EVERY_CHECKER = {
    "check_algebra", "check_algebra_morphism", "Bimodule.check", "BimoduleMorphism.check",
    "check_coring", "right_coaction_verdict", "coaction_compatibility",
    "check_ext_morphism", "check_corings_morphism",
}


def objects(ws):
    """(kind, name, object) for every object of `ws`, with the kinds of `Workspace.find`."""
    for section in ("algebras", "modules", "corings", "extensions"):
        for name, obj in getattr(ws, section).items():
            yield section[:-1], name, obj
    for name, (kind, obj) in ws.morphisms.items():
        yield f"{kind}-morphism", name, obj


def nested(kind, obj):
    """(checker, arguments) of each checker nested in the checker of `kind`, on `obj`."""
    if kind == "coring":
        yield BimoduleMorphism.check, (BimoduleMorphism(obj.carrier, obj.tens.result, obj.comul),)
        yield BimoduleMorphism.check, (
            BimoduleMorphism(obj.carrier, regular_bimodule(obj.base), obj.counit_mat),)
    elif kind in ("extension", "ext-morphism"):
        yield Bimodule.check, (obj.bimodule,)
        yield right_coaction_verdict, (obj.bimodule, obj.target, obj.coact_lift)
        yield coaction_compatibility, (obj.source, obj.target, obj.bimodule,
                                       obj.source.comul_lift, obj.coact_lift)
    elif kind == "corings-morphism":
        yield check_algebra_morphism, (obj.varphi,)


@cache
def verdicts(corpus):
    """(checker name, object name, verdict) of every checker on every object of `corpus`."""
    found = []
    for kind, name, obj in objects(load_workspace(WORKSPACES / f"{corpus}.json")):
        for check, args in [(CHECKERS[kind], (obj,)), *nested(kind, obj)]:
            found.append((check.__qualname__, name, check(*args)))
    return found


@pytest.mark.parametrize("corpus", CORPORA)
def test_every_passing_verdict_passed_exactly_its_declared_laws(corpus):
    for checker, name, v in verdicts(corpus):
        assert v.ok, (checker, name)
        assert v.laws_declared and v.laws_passed == v.laws_declared, (checker, name)


def test_the_corpora_reach_every_checker():
    assert {checker for corpus in CORPORA for checker, _, _ in verdicts(corpus)} == EVERY_CHECKER


@pytest.mark.parametrize("category", CATEGORIES)
def test_the_monoidal_verifiers_pass_every_declared_law_on_instances(category):
    ws = load_workspace(WORKSPACES / "monoidal-f5.json")
    morphisms = [m for kind, m in ws.morphisms.values() if kind == category]
    v = verify_monoidal(CATEGORIES[category], list(ws.corings.values()), morphisms, 0)
    assert v.ok
    assert v.laws_passed == v.laws_declared == MONOIDAL_LAWS
    assert v.laws_vacuous == ()
