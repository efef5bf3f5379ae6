"""Output checks for the benchmark's commands.

Every expected value here comes from theory or from the corpus model in
corpus.py, never from a saved copy of the program's output: dims from closed
forms, `result: pass` where the object is valid by construction, the cotensor
oracle agreeing, the monoidal laws passing with every law instantiated, and a
dense recheck of the coring axioms on a dumped tensor coring in this module's
own arithmetic.  Each check returns a list of problems; empty means it held.
"""

from __future__ import annotations

import json
from fractions import Fraction


def parse_report(text):
    """The CLI's `key: value` report as an ordered dict."""
    report = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            report[key] = value
    return report


def expect_pass(code, report):
    """Exit 0, `result: pass`, and every reported law passed."""
    problems = []
    if code != 0:
        problems.append(f"exit code {code}, expected 0")
    if report.get("result") != "pass":
        problems.append(f"result {report.get('result')!r}, expected 'pass'")
    laws = {k: v for k, v in report.items() if k.startswith(("check.", "coring."))}
    if not laws:
        problems.append("no law was reported")
    problems += [f"{k}: {v}, expected pass" for k, v in laws.items() if v != "pass"]
    return problems


def expect_fields(report, expected):
    return [
        f"{k}: {report.get(k)!r}, expected {v!r}"
        for k, v in expected.items()
        if report.get(k) != v
    ]


def expect_failure(code, report, exit_code, fields):
    """A negative control: the given exit code and report fields."""
    problems = []
    if code != exit_code:
        problems.append(f"exit code {code}, expected {exit_code}")
    return problems + expect_fields(report, fields)


# Dense recheck of a dumped coring over a one-dimensional base.


def field_parser(field_doc):
    """Scalar parser for the dump's field, in this module's own arithmetic."""
    if field_doc.get("kind") == "rationals":
        return None, Fraction
    p = field_doc["p"]

    def parse(x):
        num, _, den = str(x).partition("/")
        value = int(num) % p
        if den:
            value = value * pow(int(den), p - 2, p) % p
        return value

    return p, parse


def recheck_coalgebra_dump(text, name, dim):
    """Carrier dim, coassociativity and both counit laws of a dumped coring.

    Only a base of dimension one is handled: then C (x)_A C is C (x)_k C and
    the dumped comultiplication lift is the comultiplication itself.
    """
    doc = json.loads(text)
    p, parse = field_parser(doc["field"])

    def norm(x):
        return x % p if p is not None else x

    spec = doc["corings"][name]
    base = doc["algebras"][spec["base"]]
    if base["dim"] != 1 or [parse(x) for x in base["unit"]] != [1]:
        return [f"base of {name} is not the ground field"]
    n = spec["carrier"]["dim"]
    if n != dim:
        return [f"dumped carrier dim {n}, expected {dim}"]
    comul = [[parse(x) for x in row] for row in spec["comul_lift"]]
    counit = [parse(row[0]) for row in spec["counit"]]
    if len(comul) != n or any(len(row) != n * n for row in comul) or len(counit) != n:
        return [f"comultiplication or counit of {name} has the wrong shape"]

    def delta_then(i, side):
        """(comul (x) id) comul(e_i) or (id (x) comul) comul(e_i), dense in C^3."""
        out = [0] * n ** 3
        for ab, coeff in enumerate(comul[i]):
            if not coeff:
                continue
            a, b = divmod(ab, n)
            if side == "left":
                for uv, c2 in enumerate(comul[a]):
                    if c2:
                        out[uv * n + b] = norm(out[uv * n + b] + coeff * c2)
            else:
                for uv, c2 in enumerate(comul[b]):
                    if c2:
                        out[a * n * n + uv] = norm(out[a * n * n + uv] + coeff * c2)
        return out

    def counit_leg(i, side):
        out = [0] * n
        for ab, coeff in enumerate(comul[i]):
            a, b = divmod(ab, n)
            keep, drop = (a, b) if side == "right" else (b, a)
            out[keep] = norm(out[keep] + coeff * counit[drop])
        return out

    problems = []
    for i in range(n):
        unit_vec = [1 if j == i else 0 for j in range(n)]
        if delta_then(i, "left") != delta_then(i, "right"):
            problems.append(f"coassociativity fails on basis element {i}")
        if counit_leg(i, "right") != unit_vec:
            problems.append(f"right counit law fails on basis element {i}")
        if counit_leg(i, "left") != unit_vec:
            problems.append(f"left counit law fails on basis element {i}")
    return problems


# Monoidal instance counts from the corpus model.


def composable_pairs(morphisms):
    """(g, f) index pairs with f's target equal to g's source, by model keys."""
    return [
        (gi, fi)
        for gi, (g_src, _) in enumerate(morphisms)
        for fi, (_, f_tgt) in enumerate(morphisms)
        if f_tgt == g_src
    ]


def small_triples(dims, limit=64):
    return [
        (i, j, l)
        for i in range(len(dims))
        for j in range(len(dims))
        for l in range(len(dims))
        if dims[i] * dims[j] * dims[l] <= limit
    ]
