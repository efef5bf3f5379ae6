"""Workspace input through `cli.main`: bad documents exit 2 with a syntax error.

Exit code 1 is reserved for a failed mathematical check, so a malformed file
or an inexact scalar must never surface as a traceback or as exit 1.
"""

import json

import pytest

from corings import cli

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


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_workspace_is_a_syntax_error(case, capsys, tmp_path):
    doc, detail = MALFORMED[case]
    code, out, err = run_doc(capsys, tmp_path, doc, "dims", "k")
    assert code == 2
    assert err == ""
    lines = out.splitlines()
    assert "error: syntax" in lines
    assert lines[-1] == "result: error"
    assert any(line.startswith("detail: ") and detail in line for line in lines)


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
