"""Structured pass/fail results for axiom checkers.

Checkers run a fixed sequence of named laws and stop at the first
counterexample, so a failing verdict carries exactly one witness.  A law that
held on zero instances is listed in `laws_vacuous` as well as `laws_passed`,
so a report can tell "checked and held" from "nothing to check".
"""

from __future__ import annotations

from collections import namedtuple


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

    def describe(self):
        if self.ok:
            return "pass"
        return f"fail [{self.law}] {self.witness}"


def format_combo(vec, label, fmt):
    """Render a sparse or dense vector as `c*label + ...` with stable ordering.

    `vec` is a {index: coefficient} dict or a dense list; `label` maps an index
    to a basis name and `fmt` formats one scalar.
    """
    if isinstance(vec, dict):
        items = sorted(vec.items())
    else:
        items = [(i, v) for i, v in enumerate(vec) if v]
    if not items:
        return "0"
    terms = []
    for i, v in items:
        s = fmt(v)
        terms.append(label(i) if s == "1" else f"{s}*{label(i)}")
    return " + ".join(terms)


def first_difference(lhs, rhs):
    """Index of the first row where two same-shape matrices differ, or None."""
    return next((i for i, (a, b) in enumerate(zip(lhs.rows, rhs.rows)) if a != b), None)


def first_noncommuting(acts, f, acts2):
    """Index of the first i with acts[i] @ f != f @ acts2[i], or None."""
    return next((i for i, (a, b) in enumerate(zip(acts, acts2)) if a @ f != f @ b), None)
