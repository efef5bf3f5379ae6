"""Structured pass/fail results for axiom checkers.

A checker declares its law tuple once, in `@checker(laws)`, and yields
`(law, witness)` for each law in order: None when it held, `VACUOUS` when it
held on zero instances (listed in `laws_vacuous` as well as `laws_passed`).
`run_laws` alone records the laws that passed and stops at the first other
witness, so a failing verdict carries exactly one.  Each verdict carries the
tuple as `laws_declared`, so a report reads every law's status off the
verdict, even through a wrapper around the checker that copies no attributes.
"""

from collections import namedtuple
from functools import wraps

VACUOUS = object()  # the witness of a law that held on zero instances


class Verdict(namedtuple("Verdict", "ok law witness laws_passed laws_vacuous laws_declared",
                         defaults=(None, None, (), (), ()))):
    """Immutable and hashable; a namedtuple keeps `dataclasses` off the import path."""

    __slots__ = ()

    def __bool__(self):
        return self.ok

    @classmethod
    def passed(cls, laws=(), vacuous=(), declared=()):
        return cls(True, None, None, tuple(laws), tuple(vacuous), tuple(declared))

    @classmethod
    def failed(cls, law, witness, laws_passed=(), laws_vacuous=(), declared=()):
        return cls(False, law, witness, tuple(laws_passed), tuple(laws_vacuous),
                   tuple(declared))


def run_laws(outcomes, laws=()):
    """The verdict of `(law, witness)` pairs over the declared tuple `laws`.

    A witness of None or `VACUOUS` held.  The first other witness fails the
    check, and `outcomes` is never resumed, so a law with several parts yields
    each part that fails, then None once.
    """
    passed, vacuous = [], []
    for law, witness in outcomes:
        if witness is VACUOUS:
            vacuous.append(law)
        elif witness is not None:
            return Verdict.failed(law, witness, passed, vacuous, laws)
        passed.append(law)
    return Verdict.passed(passed, vacuous, laws)


def checker(laws):
    """Make a generator of `(law, witness)` pairs over `laws` return its `Verdict`."""

    def decorate(outcomes):
        @wraps(outcomes)
        def check(*args, **kwargs):
            return run_laws(outcomes(*args, **kwargs), laws)

        return check

    return decorate


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


def first_noncommuting(acts, f, acts2, indices):
    """The first i of `indices` with acts[i] @ f != f @ acts2[i], or None."""
    return next((i for i in indices if acts[i] @ f != f @ acts2[i]), None)
