"""Structured pass/fail results for axiom checkers.

Checkers run a fixed sequence of named laws and stop at the first
counterexample, so a failing verdict carries exactly one witness.  A law that
held on zero instances is listed in `laws_vacuous` as well as `laws_passed`,
so a report can tell "checked and held" from "nothing to check".
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Verdict:
    ok: bool
    law: str | None = None
    witness: str | None = None
    laws_passed: tuple[str, ...] = ()
    laws_vacuous: tuple[str, ...] = ()

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
