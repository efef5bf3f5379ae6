"""`Verdict`: truthiness, immutability, hashing and repr of a checker result;
`run_laws` and `checker`, which turn a generator of laws into one that
carries the checker's declared law tuple."""

import pytest

from corings.verdict import VACUOUS, Verdict, checker, run_laws


def test_truth_is_the_outcome_not_the_tuple_length():
    assert Verdict.passed(("unit",))
    assert not Verdict.failed("unit", "index 0", ("a",))
    assert not Verdict(False)


def test_fields_defaults_and_repr():
    v = Verdict.failed("coassociativity", "e_11: differ", ["bilinearity"], ["x"],
                       ["bilinearity", "coassociativity"])
    assert (v.ok, v.law, v.witness, v.laws_passed, v.laws_vacuous, v.laws_declared) == (
        False, "coassociativity", "e_11: differ", ("bilinearity",), ("x",),
        ("bilinearity", "coassociativity"))
    assert Verdict(True) == Verdict.passed()
    assert repr(Verdict.passed(["unit"], declared=["unit"])) == (
        "Verdict(ok=True, law=None, witness=None, laws_passed=('unit',), laws_vacuous=(), "
        "laws_declared=('unit',))"
    )


def test_immutable_and_hashable():
    v = Verdict.passed(["unit"])
    with pytest.raises(AttributeError):
        v.ok = False
    with pytest.raises(AttributeError):
        v.extra = 1
    assert {v: 1}[Verdict.passed(("unit",))] == 1


def test_runner_stops_at_the_first_witness_and_never_resumes():
    ran = []

    def laws():
        ran.append("unit")
        yield "unit", None
        ran.append("associativity")
        yield "associativity", "(0,0,1): differ"
        raise AssertionError("resumed after the failing law")

    assert run_laws(laws()) == Verdict.failed("associativity", "(0,0,1): differ", ("unit",))
    assert ran == ["unit", "associativity"]


def test_a_law_with_several_parts_fails_at_its_first_failing_part():
    laws = ("bilinearity", "coassociativity")

    @checker(laws)
    def bilinearity(comul_ok, counit_ok):
        if not comul_ok:
            yield "bilinearity", "comultiplication: w"
        if not counit_ok:
            yield "bilinearity", "counit: w"
        yield "bilinearity", None
        yield "coassociativity", None

    assert bilinearity(True, True) == Verdict.passed(laws, declared=laws)
    assert bilinearity(False, False) == Verdict.failed(
        "bilinearity", "comultiplication: w", declared=laws)
    assert bilinearity(True, False) == Verdict.failed("bilinearity", "counit: w", declared=laws)


def test_vacuous_laws_pass_in_band():
    laws = ("identity-preservation", "interchange", "associator")

    def outcomes(fail):
        yield "identity-preservation", VACUOUS
        yield "interchange", "pairs (0,1) and (1,0)" if fail else None
        yield "associator", VACUOUS

    assert run_laws(outcomes(False), laws) == Verdict.passed(
        laws, ("identity-preservation", "associator"), laws)
    assert run_laws(outcomes(True), laws) == Verdict.failed(
        "interchange", "pairs (0,1) and (1,0)", ("identity-preservation",),
        ("identity-preservation",), laws)


def test_an_empty_generator_passes():
    assert run_laws(iter(())) == Verdict.passed()
    assert checker(())(lambda: iter(()))() == Verdict(True)


def test_checker_keeps_the_name_and_signature():
    def check_thing(a, b):
        """Doc."""
        yield "law", None

    wrapped = checker(("law",))(check_thing)
    assert (wrapped.__name__, wrapped.__doc__, wrapped.__wrapped__) == (
        "check_thing", "Doc.", check_thing)
    assert wrapped(1, 2) == Verdict.passed(("law",), declared=("law",))
