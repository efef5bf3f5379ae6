"""Workspace input through `cli.main`: bad documents exit 2 with a syntax error.

Exit code 1 is reserved for a failed mathematical check, so a malformed file
or an inexact scalar must never surface as a traceback or as exit 1.  A
Hypothesis fuzzer edits one or two values or keys of a small workspace and
holds every command to that contract.
"""

import contextlib
import copy
import io
import json
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import KLEIN_4

from corings import cli
from corings.algebras import AlgebraMorphism, dual_numbers, ground_algebra, group_algebra
from corings.category import (
    ExtMorphism,
    corings_identity,
    counit_corings_morphism,
    ext_identity,
    ext_morphisms_equal,
    ext_to_trivial,
    ext_to_unit,
    grouplike_corings_morphism,
    trivial_corings_morphism,
)
from corings.constructions import (
    grouplike_coalgebra,
    matrix_coalgebra,
    sweedler_coring,
    trivial_coring,
    unit_coring,
)
from corings.linalg import Field, Mat
from corings.workspace import FIXTURES, Dumper, parse_workspace

Q = {"kind": "rationals"}
F5 = {"kind": "prime", "p": 5}
C2 = {"fixture": {"kind": "grouplike", "table": [[0, 1], [1, 0]]}}


def one_dim_algebra(field, entry):
    spec = {"dim": 1, "table": [[[entry]]], "unit": [1]}
    return {"field": field, "algebras": {"a": spec}}


def run_doc(capsys, tmp_path, doc, *argv):
    ws = tmp_path / "ws.json"
    ws.write_text(json.dumps(doc))
    code = cli.main(["--workspace", str(ws), *argv])
    out, err = capsys.readouterr()
    return code, out, err


MALFORMED = {
    "section-is-list": ({"field": Q, "algebras": []}, "algebras: expected an object"),
    "spec-not-object": ({"field": Q, "algebras": {"k": 5}}, "algebra k: expected an object"),
    "fixture-not-object": (
        {"field": Q, "corings": {"c": {"fixture": 5}}},
        "coring c: fixture: expected an object",
    ),
    "fixture-string": (
        {"field": Q, "algebras": {"k": {"fixture": "kind"}}},
        "algebra k: fixture: expected an object",
    ),
    "matrix-n-string": (
        {"field": Q, "corings": {"m": {"fixture": {"kind": "matrix_coalgebra", "n": "2"}}}},
        "coring m: n must be a positive integer",
    ),
    "matrix-n-negative": (
        {"field": Q, "corings": {"m": {"fixture": {"kind": "matrix_coalgebra", "n": -1}}}},
        "coring m: n must be a positive integer",
    ),
    "fixture-kind-unhashable": (
        {
            "field": Q,
            "corings": {"u": {"fixture": {"kind": "unit"}}},
            "extensions": {"e": {"fixture": {"kind": ["regular"], "coring": "u"}}},
        },
        "extension e: unknown fixture kind ['regular']",
    ),
    "grouplike-mapping-out-of-range": (
        {
            "field": Q,
            "corings": {"c2": C2},
            "morphisms": {
                "g": {
                    "kind": "corings",
                    "fixture": {
                        "kind": "grouplike", "source": "c2", "target": "c2",
                        "mapping": [0, 7],
                    },
                }
            },
        },
        "morphism g: mapping must list 2 indices in [0, 2)",
    ),
    # The fixture takes the identity of the source base as its algebra map,
    # which exited 2 with `error: invalid-input` and named no object.
    "grouplike-morphism-across-bases": (
        {
            "field": Q,
            "algebras": {"k": {"fixture": {"kind": "ground"}},
                         "k4": {"fixture": {"kind": "group_algebra", "table": KLEIN_4}}},
            "corings": {
                "g2": C2,
                "sw": {"fixture": {"kind": "sweedler", "source": "k", "target": "k4",
                                   "map": [[1, 0, 0, 0]]}},
            },
            "morphisms": {
                "c4": {
                    "kind": "corings",
                    "fixture": {
                        "kind": "grouplike", "source": "g2", "target": "sw",
                        "mapping": [1, 0],
                    },
                }
            },
        },
        "morphism c4: source and target must be corings over one base",
    ),
    # `dims k` and `check k` reported the coring, and no command could name
    # the algebra: `Workspace.find` resolved corings first.
    "one-name-in-two-sections": (
        {
            "field": Q,
            "algebras": {"k": {"fixture": {"kind": "ground"}}},
            "corings": {"k": {"fixture": {"kind": "trivial", "algebra": "k"}}},
        },
        'corings: "k" already names an entry of algebras',
    ),
}


BAD_DIMS = {"string": "1", "bool": True, "zero": 0, "negative": -1, "float": 1.0}


def dim_doc(section, dim):
    if section == "algebras":
        spec = {"dim": dim, "table": [[[1]]], "unit": [1]}
        return {"field": Q, "algebras": {"x": spec}}
    spec = {"left": "k", "right": "k", "dim": dim,
            "left_action": [[[1]]], "right_action": [[[1]]]}
    return {"field": Q, "algebras": {"k": {"fixture": {"kind": "ground"}}},
            "modules": {"x": spec}}


MALFORMED.update({
    f"{section}-dim-{name}": (dim_doc(section, dim), f"{what}: dim must be a positive integer")
    for section, what in (("algebras", "algebra x"), ("modules", "module x"))
    for name, dim in BAD_DIMS.items()
})

# The carrier's left and right actions of x do not commute: not a bimodule, so
# the tensor square C (x)_A C cannot be presented from it.
MALFORMED["coring-carrier-not-descending"] = (
    {
        "field": Q,
        "algebras": {"d": {"fixture": {"kind": "dual_numbers"}}},
        "corings": {"c": {
            "base": "d",
            "carrier": {"left": "d", "right": "d", "dim": 2,
                        "left_action": [[[1, 0], [0, 1]], [[0, 1], [0, 0]]],
                        "right_action": [[[1, 0], [0, 1]], [[0, 0], [1, 0]]]},
            "comul_lift": [[1, 0, 0, 0], [0, 0, 0, 1]],
            "counit": [[1, 0], [0, 1]],
        }},
    },
    "coring c: carrier: commuting-actions: left action of x does not commute with "
    "right action of x",
)



def sweedler_doc(source, map_rows):
    """A Sweedler fixture over F_5 from `source` into the dual numbers."""
    algebras = {"k": {"fixture": {"kind": "ground"}},
                "d": {"fixture": {"kind": "dual_numbers"}}}
    fixture = {"kind": "sweedler", "source": source, "target": "d", "map": map_rows}
    return {"field": F5, "algebras": algebras, "corings": {"s": {"fixture": fixture}}}


# Injective maps that are not algebra morphisms: 1 -> 1 + x is not unital, and
# x -> 1 + x on the dual numbers is unital but (1 + x)^2 != 0.
MALFORMED["sweedler-map-not-unital"] = (
    sweedler_doc("k", [["1", "1"]]),
    "coring s: the algebra map fails unit: unit maps to 1 + x != 1",
)
MALFORMED["sweedler-map-not-multiplicative"] = (
    sweedler_doc("d", [["1", "0"], ["1", "1"]]),
    "coring s: the algebra map fails multiplicativity: (x,x)",
)


def f5_doc(section, name, spec):
    """A one-object F_5 workspace, with the ground algebra `k` and unit coring `u`."""
    doc = {"field": F5, "algebras": {"k": {"fixture": {"kind": "ground"}}},
           "corings": {"u": {"fixture": {"kind": "unit"}}}}
    doc.setdefault(section, {})[name] = spec
    return doc


# An unhashable fixture kind is an unknown one for every kind of object, as
# for the extension of "fixture-kind-unhashable".
MALFORMED.update({
    f"{kind}-fixture-kind-unhashable": (
        f5_doc(section, "x", {**extra, "fixture": {"kind": [fixture], "coring": "u"}}),
        f"{what} x: unknown fixture kind [{fixture!r}]",
    )
    for kind, section, what, extra, fixture in (
        ("algebra", "algebras", "algebra", {}, "ground"),
        ("coring", "corings", "coring", {}, "unit"),
        ("ext-morphism", "morphisms", "morphism", {"kind": "ext"}, "identity"),
        ("corings-morphism", "morphisms", "morphism", {"kind": "corings"}, "identity"),
    )
})

ONE_DIM_CARRIER = {"left": "k", "right": "k", "dim": 1,
                   "left_action": [[["1"]]], "right_action": [[["1"]]]}
ONE_DIM_CORING = {"base": "k", "carrier": ONE_DIM_CARRIER, "comul_lift": [["1"]],
                  "counit": [["1"]]}

# A key that the entry's parser does not read, at any depth, was ignored: each
# of these loaded and `check` exited 0.
MALFORMED.update({
    f"unknown-key-{name}": (doc, detail) for name, doc, detail in (
        ("in-field", {**f5_doc("algebras", "k", {"fixture": {"kind": "ground"}}),
                      "field": {**F5, "q": 7}}, "field: unknown key 'q'"),
        ("p-over-q", {**f5_doc("algebras", "k", {"fixture": {"kind": "ground"}}),
                      "field": {**Q, "p": 5}}, "field: unknown key 'p'"),
        ("in-fixture", f5_doc("algebras", "x", {"fixture": {"kind": "ground", "size": 3}}),
         "algebra x: fixture: unknown key 'size'"),
        ("beside-fixture", f5_doc("corings", "x", {"fixture": {"kind": "unit"}, "base": "zzz"}),
         "coring x: unknown key 'base'"),
        ("in-extension-fixture",
         f5_doc("extensions", "x", {"fixture": {"kind": "regular", "coring": "u", "by": "u"}}),
         "extension x: fixture: unknown key 'by'"),
        ("beside-morphism-fixture",
         f5_doc("morphisms", "x", {"kind": "ext", "fixture": {"kind": "identity", "coring": "u"},
                                   "phi": "junk"}),
         "morphism x: unknown key 'phi'"),
        ("in-coring", f5_doc("corings", "x", {**ONE_DIM_CORING, "comul": [["1"]]}),
         "coring x: unknown key 'comul'"),
        ("in-carrier",
         f5_doc("corings", "x", {**ONE_DIM_CORING,
                                 "carrier": {**ONE_DIM_CARRIER, "label": ["e"]}}),
         "coring x: carrier: unknown key 'label'"),
        ("in-module", f5_doc("modules", "x", {**ONE_DIM_CARRIER, "labels": ["e"], "lables": 1}),
         "module x: unknown key 'lables'"),
    )
})


def grouplike_doc(table):
    return f5_doc("corings", "c", {"fixture": {"kind": "grouplike", "table": table}})


def group_algebra_doc(table):
    return f5_doc("algebras", "g", {"fixture": {"kind": "group_algebra", "table": table}})


def module_doc(**changes):
    spec = {"left": "k", "right": "k", "dim": 2,
            "left_action": [[[1, 0], [0, 1]]], "right_action": [[[1, 0], [0, 1]]]}
    return f5_doc("modules", "m", {**spec, **changes})


GROUP_TABLE = "table must be a non-empty array of arrays of integers"
DUAL_TABLE = [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]
# Malformed shapes that escaped as Python exceptions, or loaded, before the
# workspace checked them at the boundary.
MALFORMED.update({
    "grouplike-table-strings": (grouplike_doc([[0, "1"], ["1", 0]]), f"coring c: {GROUP_TABLE}"),
    "grouplike-table-row-not-array": (grouplike_doc([[0, 1], 1]), f"coring c: {GROUP_TABLE}"),
    "grouplike-table-bools": (grouplike_doc([[0, True], [True, 0]]), f"coring c: {GROUP_TABLE}"),
    "grouplike-table-empty": (grouplike_doc([]), f"coring c: {GROUP_TABLE}"),
    "group-algebra-table-ragged": (
        group_algebra_doc([[0, 1], []]), "algebra g: group table must be square"
    ),
    "group-algebra-table-string": (
        group_algebra_doc([[0, 1], [1, "0"]]), f"algebra g: {GROUP_TABLE}"
    ),
    "group-algebra-table-bools": (
        group_algebra_doc([[0, True], [True, 0]]), f"algebra g: {GROUP_TABLE}"
    ),
    "module-action-not-array": (
        module_doc(left_action=5), "module m: left_action must be an array of matrices"
    ),
    "module-labels-not-array": (module_doc(labels=5), "module m: labels must be 2 strings"),
    "module-labels-too-short": (module_doc(labels=["a"]), "module m: labels must be 2 strings"),
    "extension-action-not-array": (
        f5_doc("extensions", "e", {"coring": "u", "by": "u", "right_action": 3,
                                   "coaction_lift": [[1]]}),
        "extension e: right_action must be an array of matrices",
    ),
    "field-p-float": (
        {"field": {"kind": "prime", "p": 5.5}}, "field: p must be a positive integer"
    ),
    "field-p-string": (
        {"field": {"kind": "prime", "p": "5"}}, "field: p must be a positive integer"
    ),
    "algebra-missing-unit": (
        f5_doc("algebras", "a", {"dim": 1, "table": [[[1]]]}), "algebra a: missing key 'unit'"
    ),
    # A string in place of a coordinate vector was read one character at a
    # time, so these loaded the dual numbers.
    "algebra-table-vectors-strings": (
        f5_doc("algebras", "a", {"dim": 2, "table": [["10", "01"], ["01", "00"]],
                                 "unit": [1, 0]}),
        "algebra a: table must be arrays of coordinate vectors",
    ),
    "algebra-unit-string": (
        f5_doc("algebras", "a", {"dim": 2, "table": DUAL_TABLE, "unit": "10"}),
        "algebra a: unit must be an array of scalars",
    ),
    "algebra-table-not-array": (
        f5_doc("algebras", "a", {"dim": 1, "table": 5, "unit": [1]}),
        "algebra a: table must be arrays of coordinate vectors",
    ),
    # e_0 e_1 = 0 breaks the unit law, whose witness would read the missing label.
    "algebra-labels-too-short": (
        f5_doc("algebras", "a", {"dim": 2, "table": [[[1, 0], [0, 0]], [[0, 1], [0, 0]]],
                                 "unit": [1, 0], "labels": ["e"]}),
        "algebra a: labels must be 2 strings",
    ),
})


# A label or an object name holding a line break would split a report line.
ONE_OBJECT = {
    "algebras": {"fixture": {"kind": "ground"}},
    "modules": module_doc()["modules"]["m"],
    "corings": {"fixture": {"kind": "unit"}},
    "extensions": {"fixture": {"kind": "regular", "coring": "u"}},
    "morphisms": {"kind": "ext", "fixture": {"kind": "identity", "coring": "u"}},
}
MALFORMED.update({
    "algebra-label-line-break": (
        f5_doc("algebras", "a", {"dim": 1, "table": [[[1]]], "unit": [1], "labels": ["1\n"]}),
        "algebra a: label '1\\n' breaks a report line",
    ),
    "module-label-line-break": (
        module_doc(labels=["p", "q\u2028r"]), "module m: label 'q\\u2028r' breaks a report line"
    ),
    **{
        f"{section}-name-line-break": (
            f5_doc(section, "x\nresult: pass", spec),
            f"{section[:-1]} name 'x\\nresult: pass' breaks a report line",
        )
        for section, spec in ONE_OBJECT.items()
    },
})


# Scalar strings follow one grammar on every field: an integer or an integer
# over a positive integer.  Q used to load decimals and exponents through
# `Fraction`, so "1e5000" loaded and crashed when a witness printed it, and
# "1e10000000" took seconds to parse.
EXACT = '(give an integer or a string such as "3/4")'
MALFORMED.update({
    f"scalar-{name}-{tag}": (one_dim_algebra(field, entry), f"algebra a: {detail}")
    for tag, field in (("Q", Q), ("F5", F5))
    for name, entry, detail in (
        ("exponent", "1e5000", f"not an exact scalar: '1e5000' {EXACT}"),
        ("huge-exponent", "1e10000000", f"not an exact scalar: '1e10000000' {EXACT}"),
        ("decimal", "1.5", f"not an exact scalar: '1.5' {EXACT}"),
        ("spaces", " 1", f"not an exact scalar: ' 1' {EXACT}"),
        ("plus-sign", "+1", f"not an exact scalar: '+1' {EXACT}"),
        ("signed-denominator", "1/-1", f"not an exact scalar: '1/-1' {EXACT}"),
        ("too-long", "1" * 5000, "scalar string of 5000 characters is too long"),
    )
})
MALFORMED.update({
    "scalar-zero-denominator-Q": (one_dim_algebra(Q, "1/0"), "algebra a: zero denominator: '1/0'"),
    "scalar-zero-denominator-F5": (
        one_dim_algebra(F5, "1/0"), "algebra a: zero denominator in F_5: '1/0'"
    ),
    "scalar-denominator-p-F5": (
        one_dim_algebra(F5, "2/5"), "algebra a: zero denominator in F_5: '2/5'"
    ),
})


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_workspace_is_a_syntax_error(case, capsys, tmp_path):
    doc, detail = MALFORMED[case]
    code, out, err = run_doc(capsys, tmp_path, doc, "dims", "k")
    assert code == 2
    assert err == ""
    lines = out.splitlines()
    assert "error: syntax" in lines
    assert lines[-1] == "result: error"
    [line] = [line for line in lines if line.startswith("detail: ")]
    assert detail in line
    assert line.count(detail.split(": ")[0] + ": ") == 1  # the object is named once


@pytest.mark.parametrize(
    "field, entry",
    [(F5, 1.5), (Q, 0.1), (Q, True), (F5, True)],
    ids=["F5-float", "Q-float", "Q-bool", "F5-bool"],
)
def test_inexact_scalar_is_a_syntax_error(field, entry, capsys, tmp_path):
    code, out, err = run_doc(capsys, tmp_path, one_dim_algebra(field, entry), "dims", "a")
    assert (code, err) == (2, "")
    assert "error: syntax" in out.splitlines()
    assert "not an exact scalar" in out


@pytest.mark.parametrize("field", [Q, F5], ids=["Q", "F5"])
@pytest.mark.parametrize("entry", [1, "1", "3/3"])
def test_exact_scalar_spellings_load(field, entry, capsys, tmp_path):
    code, out, err = run_doc(capsys, tmp_path, one_dim_algebra(field, entry), "dims", "a")
    assert (code, err) == (0, "")
    assert "dim: 1" in out.splitlines()


def test_algebra_scalars_are_coerced_once(capsys, tmp_path):
    """A 2-dim algebra has 8 structure constants and 2 unit coordinates."""
    doc = {"field": F5, "algebras": {"a": {"dim": 2, "table": DUAL_TABLE, "unit": [1, 0]}}}
    coerce = Field.coerce
    calls = []

    def counting(field, x):
        calls.append(x)
        return coerce(field, x)

    with mock.patch.object(Field, "coerce", counting):
        code, out, err = run_doc(capsys, tmp_path, doc, "dims", "a")
    assert (code, err) == (0, "")
    assert len(calls) == 10


# Files that json.loads cannot read as a document: bytes that are not UTF-8,
# nesting deeper than the decoder's recursion limit, and an integer literal
# longer than the interpreter converts (a ValueError that used to escape).
UNREADABLE = {
    "not-utf8": (b'\xff\xfe{"field": {"kind": "rationals"}}', "not UTF-8 at byte 0"),
    "nested-too-deep": (b"[" * 100_000 + b"]" * 100_000, "nested too deep"),
    **{
        f"number-too-long-{tag}": (
            b'{"field": ' + field + b', "algebras": {"a": {"dim": 1, "table": [[[1'
            + b"0" * 5000 + b']]], "unit": [1]}}}',
            "a number has too many digits",
        )
        for tag, field in (("Q", b'{"kind": "rationals"}'), ("F5", b'{"kind": "prime", "p": 5}'))
    },
}


@pytest.mark.parametrize("case", sorted(UNREADABLE))
def test_unreadable_file_is_a_syntax_error(case, capsys, tmp_path):
    data, detail = UNREADABLE[case]
    ws = tmp_path / "ws.json"
    ws.write_bytes(data)
    code = cli.main(["--workspace", str(ws), "dims", "a"])
    out, err = capsys.readouterr()
    assert (code, err) == (2, "")
    lines = out.splitlines()
    assert "error: syntax" in lines
    assert lines[-1] == "result: error"
    assert detail in out


# A key given twice in one object, which `json.loads` alone reads as its last
# value: the F_5 field loaded over Q, the second `algebras` dropped `k`, and
# coring m loaded as matrix 3.  A dict cannot hold a key twice, so each case
# is a raw document text, with the name of an object its last values define.
GROUND = '{"k": {"fixture": {"kind": "ground"}}}'
DUPLICATED = {
    "top-level-key": (
        '{"field": {"kind": "prime", "p": 5}, "field": {"kind": "rationals"}, '
        f'"algebras": {GROUND}}}',
        "k", "key 'field' given twice",
    ),
    "section": (
        f'{{"field": {{"kind": "rationals"}}, "algebras": {GROUND}, '
        '"algebras": {"d": {"fixture": {"kind": "dual_numbers"}}}}',
        "d", "key 'algebras' given twice",
    ),
    "object-name": (
        f'{{"field": {{"kind": "rationals"}}, "algebras": {GROUND}, "corings": {{'
        '"m": {"fixture": {"kind": "matrix_coalgebra", "n": 2}}, '
        '"m": {"fixture": {"kind": "matrix_coalgebra", "n": 3}}}}',
        "m", "key 'm' given twice",
    ),
    "fixture-key": (
        f'{{"field": {{"kind": "rationals"}}, "algebras": {GROUND}, "corings": {{'
        '"m": {"fixture": {"kind": "matrix_coalgebra", "n": 2, "n": 3}}}}',
        "m", "key 'n' given twice",
    ),
}


@pytest.mark.parametrize("case", sorted(DUPLICATED))
def test_duplicated_key_is_a_syntax_error(case, capsys, tmp_path):
    text, name, detail = DUPLICATED[case]
    ws = tmp_path / "ws.json"
    ws.write_text(text)
    code = cli.main(["--workspace", str(ws), "dims", name])
    out, err = capsys.readouterr()
    assert (code, err) == (2, "")
    lines = out.splitlines()
    assert "error: syntax" in lines
    assert lines[-1] == "result: error"
    assert f"detail: {ws}: {detail}" in lines


# A small F_5 workspace with every section and both spellings (fixture and
# inline) of each kind of object; every object loads and checks.
I2 = [[1, 0], [0, 1]]
FUZZ_BASE = {
    "field": F5,
    "algebras": {
        "k": {"fixture": {"kind": "ground"}},
        "d": {"fixture": {"kind": "dual_numbers"}},
        "g": {"fixture": {"kind": "group_algebra", "table": [[0, 1], [1, 0]]}},
        "a": {"dim": 1, "table": [[["1"]]], "unit": ["1"], "labels": ["1"]},
    },
    "modules": {
        "m": {"left": "k", "right": "d", "dim": 2, "left_action": [I2],
              "right_action": [I2, [[0, 1], [0, 0]]], "labels": ["p", "q"]},
    },
    "corings": {
        "u": {"fixture": {"kind": "unit"}},
        "t": {"fixture": {"kind": "trivial", "algebra": "d"}},
        "c2": {"fixture": {"kind": "grouplike", "table": [[0, 1], [1, 0]]}},
        "m2": {"fixture": {"kind": "matrix_coalgebra", "n": 2}},
        "s": {"fixture": {"kind": "sweedler", "source": "k", "target": "d",
                          "map": [["1", "0"]]}},
        "i": {"base": "k", "carrier": {"left": "k", "right": "k", "dim": 1,
                                       "left_action": [[[1]]], "right_action": [[[1]]]},
              "comul_lift": [[1]], "counit": [[1]]},
    },
    "extensions": {
        "r": {"fixture": {"kind": "regular", "coring": "t"}},
        "e": {"coring": "c2", "by": "u", "right_action": [I2], "coaction_lift": I2},
    },
    "morphisms": {
        "id": {"kind": "ext", "fixture": {"kind": "identity", "coring": "t"}},
        "ic": {"kind": "ext", "fixture": {"kind": "identity", "coring": "c2"}},
        "x": {"kind": "ext", "source": "c2", "target": "u", "action": I2,
              "coaction_lift": I2},
        "cu": {"kind": "corings", "fixture": {"kind": "counit", "coring": "t"}},
        "cm": {"kind": "corings", "source": "c2", "target": "u", "alg_map": [[1]],
               "phi": [[1], [1]]},
        "gl": {"kind": "corings", "fixture": {"kind": "grouplike", "source": "c2",
                                               "target": "c2", "mapping": [1, 0]}},
        "tr": {"kind": "corings", "fixture": {"kind": "trivial", "source": "d",
                                               "target": "k", "map": [[1], [0]]}},
    },
}
FUZZ_VALUES = [0, 1, -1, 7, 2**70, "1", "x", "1/0", "0.5", "", True, None, 1.5, [], {},
               [[]], [[1]], [0, 1], I2, {"kind": "unit"}, "u", "k", "d", "c2", "x"]
FUZZ_KEYS = ["kind", "fixture", "dim", "labels", "zzz"]
FUZZ_COMMANDS = [
    ["dims", "s"], ["dims", "e"], ["check", "a"], ["check", "m"], ["check", "e"],
    ["check", "x"], ["check", "gl"], ["tensor", "c2", "t"], ["extend-tensor", "r", "e"],
    ["compose", "id", "id"], ["compose", "x", "ic"], ["compose", "cu", "cu"],
    ["base-extend", "cm"], ["verify-monoidal", "ext"], ["verify-monoidal", "corings"],
]


def json_paths(node, prefix=()):
    """The key path of every value below the root of a JSON tree."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from json_paths(value, prefix + (key,))


def mutate(doc, path, op, arg):
    """Set, delete or rename (in an array: duplicate) the value at `path`, if it resolves."""
    parent, node = None, doc
    for key in path:
        if not (isinstance(node, dict) and key in node
                or isinstance(node, list) and isinstance(key, int) and key < len(node)):
            return
        parent, node = node, node[key]
    if op == "set":
        parent[key] = copy.deepcopy(arg)
    elif op == "delete":
        del parent[key]
    elif isinstance(parent, dict):
        parent[arg] = parent.pop(key)
    else:
        parent.insert(key, copy.deepcopy(parent[key]))


MUTATION = st.tuples(
    st.sampled_from(list(json_paths(FUZZ_BASE))),
    st.one_of(
        st.tuples(st.just("set"), st.sampled_from(FUZZ_VALUES)),
        st.tuples(st.just("delete"), st.none()),
        st.tuples(st.just("rename"), st.sampled_from(FUZZ_KEYS)),
    ),
)


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "ws.json"


@settings(derandomize=True, max_examples=250, deadline=None)
@given(mutations=st.lists(MUTATION, min_size=1, max_size=2),
       command=st.sampled_from(FUZZ_COMMANDS))
def test_mutated_workspace_keeps_the_exit_contract(fuzz_file, mutations, command):
    doc = copy.deepcopy(FUZZ_BASE)
    for path, (op, arg) in mutations:
        mutate(doc, path, op, arg)
    fuzz_file.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["--json-report", "--workspace", str(fuzz_file), *command])
    assert code in (0, 1, 2)
    assert err.getvalue() == ""
    json.loads(out.getvalue())


def test_fuzz_base_loads_and_checks(capsys, tmp_path):
    for command in FUZZ_COMMANDS:
        code, out, err = run_doc(capsys, tmp_path, FUZZ_BASE, *command)
        assert (code, err) == (0, ""), (command, out)


# A line break in a label or an object name used to split a line of the text
# report: a carrier labelled "x\nresult: pass" on a coring whose counit is
# wrong made `dims g` print `witness: x`, then a bogus `result: pass` line
# before the real `result: fail`.  Every break that `str.splitlines` splits at
# is refused at load.
LINE_BREAKS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
               "\u2028", "\u2029"]


def carrier_label_doc(label, counit="2", name="g"):
    carrier = {"left": "k", "right": "k", "dim": 1, "labels": [label],
               "left_action": [[["1"]]], "right_action": [[["1"]]]}
    return f5_doc("corings", name, {"base": "k", "carrier": carrier,
                                    "comul_lift": [["1"]], "counit": [[counit]]})


@pytest.mark.parametrize("brk", LINE_BREAKS, ids=ascii)
def test_carrier_label_with_a_line_break_is_a_syntax_error(brk, capsys, tmp_path):
    label = f"x{brk}result: pass"
    code, out, err = run_doc(capsys, tmp_path, carrier_label_doc(label), "dims", "g")
    assert (code, err) == (2, "")
    lines = out.splitlines()
    assert "error: syntax" in lines
    assert f"detail: module g.carrier: label {label!r} breaks a report line" in lines
    assert [line for line in lines if line.startswith("result:")] == ["result: error"]


def test_labels_and_names_without_a_line_break_load(capsys, tmp_path):
    """Tabs, spaces and non-ASCII letters split no line."""
    doc = carrier_label_doc("\u03b1 \u03b2\t", counit="1", name="g\th k")
    code, out, err = run_doc(capsys, tmp_path, doc, "check", "g\th k")
    assert (code, err) == (0, "")
    assert out.endswith("result: pass\n")


# Every fixture of `workspace.FIXTURES`, loaded as the entry "x" of a workspace
# over F_5, and the object its builder should give, from the loaded workspace.
FIELD = Field.prime(5)
C2_TABLE = [[0, 1], [1, 0]]
K4_TABLE = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
FIXTURE_BASE = {
    "field": F5,
    "algebras": {
        "k": {"fixture": {"kind": "ground"}},
        "d": {"fixture": {"kind": "dual_numbers"}},
        "c2a": {"fixture": {"kind": "group_algebra", "table": C2_TABLE}},
        "k4": {"fixture": {"kind": "group_algebra", "table": K4_TABLE}},
    },
    "corings": {
        "td": {"fixture": {"kind": "trivial", "algebra": "d"}},
        "g2": {"fixture": {"kind": "grouplike", "table": C2_TABLE}},
    },
}
ON_TD = {"coring": "td"}
EXTENSIONS = {"regular": ext_identity, "unit": ext_to_unit, "trivial": ext_to_trivial}
EXT_MORPHISMS = {"identity": ext_identity, "to-unit": ext_to_unit, "to-trivial": ext_to_trivial}
FIXTURE_CASES = {
    ("algebra", "ground"): ({}, lambda ws: ground_algebra(FIELD)),
    ("algebra", "dual_numbers"): ({}, lambda ws: dual_numbers(FIELD)),
    ("algebra", "group_algebra"): ({"table": C2_TABLE}, lambda ws: group_algebra(FIELD, C2_TABLE)),
    ("coring", "trivial"): ({"algebra": "d"}, lambda ws: trivial_coring(ws.algebras["d"])),
    ("coring", "unit"): ({}, lambda ws: unit_coring(FIELD)),
    ("coring", "matrix_coalgebra"): ({"n": 2}, lambda ws: matrix_coalgebra(2, FIELD)),
    ("coring", "grouplike"): ({"table": K4_TABLE}, lambda ws: grouplike_coalgebra(K4_TABLE, FIELD)),
    # k[C2] -> k[K4], g_1 -> g_1: a Sweedler coring over a base other than k.
    ("coring", "sweedler"): (
        {"source": "c2a", "target": "k4", "map": [[1, 0, 0, 0], [0, 1, 0, 0]]},
        lambda ws: sweedler_coring(AlgebraMorphism(
            ws.algebras["c2a"], ws.algebras["k4"],
            Mat.from_rows(FIELD, [[1, 0, 0, 0], [0, 1, 0, 0]]))),
    ),
    **{("extension", name): (ON_TD, lambda ws, f=f: f(ws.corings["td"]))
       for name, f in EXTENSIONS.items()},
    **{("ext-morphism", name): (ON_TD, lambda ws, f=f: f(ws.corings["td"]))
       for name, f in EXT_MORPHISMS.items()},
    ("corings-morphism", "identity"): (ON_TD, lambda ws: corings_identity(ws.corings["td"])),
    ("corings-morphism", "counit"): (ON_TD, lambda ws: counit_corings_morphism(ws.corings["td"])),
    # No corpus holds this one: the collapse of the dual numbers onto k.
    ("corings-morphism", "trivial"): (
        {"source": "d", "target": "k", "map": [[1], [0]]},
        lambda ws: trivial_corings_morphism(AlgebraMorphism(
            ws.algebras["d"], ws.algebras["k"], Mat.from_rows(FIELD, [[1], [0]]))),
    ),
    ("corings-morphism", "grouplike"): (
        {"source": "g2", "target": "g2", "mapping": [1, 0]},
        lambda ws: grouplike_corings_morphism(ws.corings["g2"], ws.corings["g2"], [1, 0]),
    ),
}
SECTION_OF = {"algebra": "algebras", "coring": "corings", "extension": "extensions",
              "ext-morphism": "morphisms", "corings-morphism": "morphisms"}


def same_object(a, b):
    if isinstance(a, ExtMorphism):
        return ext_morphisms_equal(a, b)
    return a == b


def test_every_fixture_has_a_loader_case():
    assert set(FIXTURE_CASES) == {(kind, name) for kind, names in FIXTURES.items()
                                  for name in names}


@pytest.mark.parametrize("kind, name", sorted(FIXTURE_CASES))
def test_fixture_loads_as_its_builder_builds_it(kind, name):
    keys, expected = FIXTURE_CASES[kind, name]
    spec = {"fixture": {"kind": name, **keys}}
    if kind.endswith("-morphism"):
        spec["kind"] = kind.split("-")[0]
    doc = copy.deepcopy(FIXTURE_BASE)
    doc.setdefault(SECTION_OF[kind], {})["x"] = spec
    ws = parse_workspace(json.dumps(doc))
    found_kind, obj = ws.find("x")
    assert found_kind == kind
    assert same_object(obj, expected(ws))
    assert ws.verdicts[kind, "x"].ok


def test_explicit_ext_morphism_splits_its_interleaved_action():
    """An `ext` morphism spells its action as one C (x)_k B -> C matrix; over the
    two-dimensional dual numbers, loading splits it back into the two matrices."""
    ws = parse_workspace(json.dumps(FIXTURE_BASE))
    m = ext_to_trivial(ws.corings["td"])
    assert m.target.base.dim == 2
    dumper = Dumper(ws)
    dumper.morphism("ext", m, "x")
    doc = copy.deepcopy(FIXTURE_BASE)
    doc["morphisms"] = {"x": dumper.doc["morphisms"]["x"]}
    assert "fixture" not in doc["morphisms"]["x"]
    loaded = parse_workspace(json.dumps(doc)).morphisms["x"]
    assert loaded[0] == "ext"
    assert loaded[1].action_mats == m.action_mats
    assert loaded[1].coact_lift == m.coact_lift


def test_dumper_names_each_object_once():
    """An object equal to a workspace entry takes that entry's name, one equal
    to a generated entry the generated name, and a new one the next
    `<prefix>_<n>` used neither by the workspace nor by the dump."""
    field = Field.prime(5)
    ws = parse_workspace(json.dumps({
        "field": F5,
        "algebras": {"k": {"fixture": {"kind": "ground"}},
                     "algebra_2": {"fixture": {"kind": "dual_numbers"}}},
        "corings": {"m2": {"fixture": {"kind": "matrix_coalgebra", "n": 2}}},
    }))
    dumper = Dumper(ws)
    assert dumper.coring(matrix_coalgebra(2, field)) == "m2"
    assert dumper.algebra(ground_algebra(field)) == "k"
    assert dumper.coring(ws.corings["m2"], "coring_1") == "coring_1"
    # coring_1 is in the dump and algebra_2 in the workspace.
    assert dumper.coring(matrix_coalgebra(3, field)) == "coring_2"
    assert dumper.algebra(group_algebra(field, KLEIN_4)) == "algebra_3"
    assert dumper.coring(matrix_coalgebra(3, field)) == "coring_2"
    assert dumper.algebra(group_algebra(field, KLEIN_4)) == "algebra_3"
    assert list(dumper.doc["corings"]) == ["m2", "coring_1", "coring_2"]
    assert list(dumper.doc["algebras"]) == ["k", "algebra_3"]
    reloaded = parse_workspace(dumper.text())
    assert reloaded.corings["coring_2"] == matrix_coalgebra(3, field)
    assert reloaded.algebras["algebra_3"] == group_algebra(field, KLEIN_4)


# Where README.md describes the fixtures of each kind: from the first marker
# to the next occurrence of the second.
README_FIXTURES = {
    "algebra": ("- **algebras**", "- **modules**"),
    "coring": ("- **corings**", "- **extensions**"),
    "extension": ("- **extensions**", "- **morphisms**"),
    "ext-morphism": ("An `ext` morphism", "A `corings` morphism"),
    "corings-morphism": ("A `corings` morphism", "\n\n"),
}


def test_readme_names_every_fixture_of_each_kind():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    assert set(README_FIXTURES) == set(FIXTURES)
    missing = []
    for kind, (start, end) in README_FIXTURES.items():
        at = readme.index(start)
        block = readme[at:readme.index(end, at)]
        missing += [(kind, name) for name in FIXTURES[kind] if f"`{name}`" not in block]
    assert missing == []
