"""Structured pass/fail results for axiom checkers.

A checker yields `(law, witness)` for each named law in order, with a witness
of None when the law held.  `run_laws` alone records the laws that passed and
stops at the first witness, so a failing verdict carries exactly one; the
`checker` decorator makes the generator return that `Verdict`.  A law that
held on zero instances is listed in `laws_vacuous` as well as `laws_passed`,
so a report can tell "checked and held" from "nothing to check".
"""

from __future__ import annotations

from collections import namedtuple
from functools import wraps


class Verdict(namedtuple("Verdict", "ok law witness laws_passed laws_vacuous",
                         defaults=(None, None, (), ()))):
    """Immutable and hashable; a namedtuple keeps `dataclasses` off the import path."""

    __slots__ = ()

    def __bool__(self):
        return self.ok

    @classmethod
    def passed(cls, laws=(), vacuous=()):
        return cls(True, None, None, tuple(laws), tuple(vacuous))

    @classmethod
    def failed(cls, law, witness, laws_passed=(), laws_vacuous=()):
        return cls(False, law, witness, tuple(laws_passed), tuple(laws_vacuous))


def run_laws(outcomes, vacuous=()):
    """The verdict of `(law, witness)` pairs in law order; a None witness held.

    The first other witness fails the check, and `outcomes` is never resumed,
    so a law with several parts yields each part that fails, then None once.
    `vacuous` is read only at the end: the checker may still be filling it.
    """
    passed = []
    for law, witness in outcomes:
        if witness is not None:
            return Verdict.failed(law, witness, passed, vacuous)
        passed.append(law)
    return Verdict.passed(passed, vacuous)


def checker(laws):
    """Make a generator of `(law, witness)` pairs return its `Verdict`."""

    @wraps(laws)
    def check(*args):
        return run_laws(laws(*args))

    return check


def format_combo(vec, label, fmt):
    """Render a sparse vector as `c*label + ...` in ascending index order.

    `vec` is a {index: nonzero coefficient} dict, a matrix row or an algebra
    element; `label` maps an index to a basis name and `fmt` formats one scalar.
    """
    if not vec:
        return "0"
    terms = []
    for i, v in sorted(vec.items()):
        s = fmt(v)
        terms.append(label(i) if s == "1" else f"{s}*{label(i)}")
    return " + ".join(terms)


def first_difference(lhs, rhs):
    """Index of the first row where two same-shape matrices differ, or None."""
    return next((i for i, (a, b) in enumerate(zip(lhs.rows, rhs.rows)) if a != b), None)


def first_noncommuting(acts, f, acts2):
    """Index of the first i with acts[i] @ f != f @ acts2[i], or None."""
    return next((i for i, (a, b) in enumerate(zip(acts, acts2)) if a @ f != f @ b), None)
