"""`Verdict`: truthiness, immutability, hashing and repr of a checker result."""

import pytest

from corings.verdict import Verdict


def test_truth_is_the_outcome_not_the_tuple_length():
    assert Verdict.passed(("unit",))
    assert not Verdict.failed("unit", "index 0", ("a",))
    assert not Verdict(False)


def test_fields_defaults_and_repr():
    v = Verdict.failed("coassociativity", "e_11: differ", ["bilinearity"], ["x"])
    assert (v.ok, v.law, v.witness, v.laws_passed, v.laws_vacuous) == (
        False, "coassociativity", "e_11: differ", ("bilinearity",), ("x",))
    assert Verdict(True) == Verdict.passed()
    assert repr(Verdict.passed(["unit"])) == (
        "Verdict(ok=True, law=None, witness=None, laws_passed=('unit',), laws_vacuous=())"
    )


def test_immutable_and_hashable():
    v = Verdict.passed(["unit"])
    with pytest.raises(AttributeError):
        v.ok = False
    with pytest.raises(AttributeError):
        v.extra = 1
    assert {v: 1}[Verdict.passed(("unit",))] == 1
