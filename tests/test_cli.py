"""End-to-end tests of the command-line front end, called in-process.

The golden reports under `golden/cli-q/` were recorded from the code that held
every rational scalar as a `Fraction`; they pin the report bytes, the JSON
report and the `--dump` file of the benchmark's Q command list.  Those under
`golden/cli-f5/` (the same commands over F_5) and `golden/monoidal-f5/`
(`verify-monoidal` with seed 1) were recorded from the code that rebuilt every
tensor presentation on each call, before presentations were memoized.  The
`--dump` files of `extend-tensor` and `compose` on both workspaces were recorded
while an ext morphism still stored its right action as one interleaved matrix.
The two `dims_k` reports were re-recorded when `dims` gained its
`result: pass` line.
"""

import json
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest

from corings import category, cli, workspace
from corings.linalg import Mat, _vadd
from corings.coring import CORING_LAWS
from corings.verdict import Verdict
from corings.workspace import load_workspace

ROOT = Path(__file__).resolve().parents[1]
WORKSPACES = ROOT / "perfbench" / "workspaces"
CLI_Q = WORKSPACES / "cli-q.json"
GOLDEN_ROOT = Path(__file__).resolve().parent / "golden"
GOLDEN = GOLDEN_ROOT / "cli-q"
DUMP = "tensor_m2_c2.dump.json"

GOLDEN_CASES = {
    "dims_k": ["dims", "k"],
    "check_m3": ["check", "m3"],
    "check_regular_dual": ["check", "regular_dual"],
    "tensor_m2_c2": ["tensor", "m2", "c2", "--out", "m2c2", "--dump", DUMP],
    "extend_tensor_regular_dual_unit_m2": ["extend-tensor", "regular_dual", "unit_m2"],
    "compose_to_trivial_dual_id_dual": ["compose", "to_trivial_dual", "id_dual"],
    "compose_counit_m2_cid_m2": ["compose", "counit_m2", "cid_m2"],
    "base_extend_counit_sw": ["base-extend", "counit_sw"],
}

# Cases whose `--dump` file is pinned too; the report is the case's golden
# plus the `dumped:` line.
DUMP_CASES = ("extend_tensor_regular_dual_unit_m2", "compose_to_trivial_dual_id_dual")
FAMILIES = ("cli-q", "cli-f5")

MONOIDAL_CASES = {
    f"verify_monoidal_{kind}": ["--seed", "1", "verify-monoidal", kind]
    for kind in ("ext", "corings")
}


def run_cli(capsys, workspace, *argv):
    code = cli.main(["--workspace", str(workspace), *argv])
    out, err = capsys.readouterr()
    return code, out, err


def check_golden(capsys, tmp_path, monkeypatch, family, case, argv):
    """Run `argv` on the workspace `<family>.json` against golden/<family>/."""
    monkeypatch.chdir(tmp_path)
    golden = GOLDEN_ROOT / family
    code, out, err = run_cli(capsys, WORKSPACES / f"{family}.json", *argv)
    assert (code, err) == (0, "")
    assert out == (golden / f"{case}.txt").read_text(encoding="utf-8")
    if "--dump" in argv:
        dumped = (tmp_path / DUMP).read_text(encoding="utf-8")
        assert dumped == (golden / DUMP).read_text(encoding="utf-8")


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_golden_text_report(case, capsys, tmp_path, monkeypatch):
    check_golden(capsys, tmp_path, monkeypatch, "cli-q", case, GOLDEN_CASES[case])


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_golden_f5_text_report(case, capsys, tmp_path, monkeypatch):
    check_golden(capsys, tmp_path, monkeypatch, "cli-f5", case, GOLDEN_CASES[case])


@pytest.mark.parametrize("case", sorted(MONOIDAL_CASES))
def test_golden_monoidal_report(case, capsys, tmp_path, monkeypatch):
    check_golden(capsys, tmp_path, monkeypatch, "monoidal-f5", case, MONOIDAL_CASES[case])


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("case", DUMP_CASES)
def test_golden_dump(case, family, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    golden = GOLDEN_ROOT / family
    dump = f"{case}.dump.json"
    code, out, err = run_cli(
        capsys, WORKSPACES / f"{family}.json", *GOLDEN_CASES[case], "--dump", dump
    )
    assert (code, err) == (0, "")
    assert out == (golden / f"{case}.txt").read_text(encoding="utf-8") + f"dumped: {dump}\n"
    assert (tmp_path / dump).read_text(encoding="utf-8") == (golden / dump).read_text(
        encoding="utf-8"
    )


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("case", [*DUMP_CASES, "base_extend_counit_sw"])
def test_dump_reloads_and_checks(case, family, capsys, tmp_path):
    dump = tmp_path / "out.json"
    code, _, err = run_cli(
        capsys, WORKSPACES / f"{family}.json", *GOLDEN_CASES[case], "--dump", str(dump)
    )
    assert (code, err) == (0, "")
    code, out, err = run_cli(capsys, dump, "check", "result")
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "result: pass"


def test_golden_json_report(capsys):
    code, out, err = run_cli(capsys, CLI_Q, "--json-report", "check", "m3")
    assert (code, err) == (0, "")
    assert out == (GOLDEN / "check_m3.json").read_text(encoding="utf-8")
    assert json.loads(out)["result"] == "pass"


def test_verify_monoidal_reports_vacuous_associator(capsys, tmp_path):
    # matrix 3 has dim 9, so every triple has dim product 729 > 64 and the
    # associator check has no instance to run.
    ws = tmp_path / "m3.json"
    ws.write_text(json.dumps({
        "field": {"kind": "rationals"},
        "corings": {"m3": {"fixture": {"kind": "matrix_coalgebra", "n": 3}}},
        "morphisms": {
            "id": {"kind": "corings", "fixture": {"kind": "identity", "coring": "m3"}}
        },
    }))
    code, out, err = run_cli(capsys, ws, "verify-monoidal", "corings")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert "check.associator: vacuous" in lines
    assert "check.interchange: pass" in lines
    assert lines[-1] == "result: pass"


@pytest.mark.parametrize("seed", ["0", "1", "2", "3"])
@pytest.mark.parametrize("family", FAMILIES)
def test_verify_monoidal_ext_takes_the_extensions_as_morphisms(family, seed, capsys):
    """The two extensions of each cli workspace are morphisms of the
    extension category, next to its four ext morphisms."""
    code, out, err = run_cli(capsys, WORKSPACES / f"{family}.json",
                             "--seed", seed, "verify-monoidal", "ext")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert "morphisms: 6" in lines
    assert [line for line in lines if line.startswith("check.")] == [
        f"check.{law}: pass" for law in category.MONOIDAL_LAWS]
    assert lines[-1] == "result: pass"


@pytest.mark.parametrize("category", ["ext", "corings"])
def test_verify_monoidal_on_an_empty_family_is_vacuous(category, capsys, tmp_path):
    # Every law holds on zero instances: no failed math check, so exit 0.
    ws = tmp_path / "empty.json"
    ws.write_text(json.dumps({"field": {"kind": "prime", "p": 5}}))
    code, out, err = run_cli(capsys, ws, "verify-monoidal", category)
    assert (code, err) == (0, "")
    assert out.splitlines()[-5:] == [
        "check.identity-preservation: vacuous",
        "check.interchange: vacuous",
        "check.unit-isomorphisms: vacuous",
        "check.associator: vacuous",
        "result: pass",
    ]


# One object of each kind in cli-f5.json, named in the message with its article.
KIND_OBJECTS = {
    "algebra": ("k", "an algebra"),
    "coring": ("m2", "a coring"),
    "extension": ("regular_dual", "an extension"),
    "ext-morphism": ("id_m2", "an ext morphism"),
    "corings-morphism": ("cid_m2", "a corings morphism"),
}
# Each command that takes named objects: its argv around one name, and the
# kinds it accepts, as the message spells them.
WANTS = {
    "tensor": (lambda x: ["tensor", x, "m2"], {"coring"}, "a coring"),
    "extend-tensor": (lambda x: ["extend-tensor", x, "regular_dual"], {"extension"},
                      "an extension"),
    "compose": (lambda x: ["compose", x, "id_m2"], {"ext-morphism", "corings-morphism"},
                "a morphism"),
    "base-extend": (lambda x: ["base-extend", x], {"corings-morphism"},
                    "a corings morphism"),
}


WRONG_KINDS = [
    (command, kind)
    for command in sorted(WANTS)
    for kind in sorted(KIND_OBJECTS)
    if kind not in WANTS[command][1]
]


@pytest.mark.parametrize(("command", "kind"), WRONG_KINDS)
def test_wrong_kind_is_named_with_its_article(command, kind, capsys):
    argv, _, expected = WANTS[command]
    name, spelled = KIND_OBJECTS[kind]
    code, out, err = run_cli(capsys, WORKSPACES / "cli-f5.json", *argv(name))
    assert (code, err) == (2, "")
    assert f'detail: "{name}" is {spelled}, expected {expected}\n' in out
    assert out.endswith("result: error\n")


@pytest.mark.parametrize(("first", "second", "spelled"), [
    ("cid_m2", "id_dual", "a corings morphism with an ext morphism"),
    ("id_dual", "cid_m2", "an ext morphism with a corings morphism"),
])
def test_compose_across_kinds_names_each_with_its_article(first, second, spelled, capsys):
    code, out, err = run_cli(capsys, CLI_Q, "compose", first, second)
    assert (code, err) == (2, "")
    assert f"detail: cannot compose {spelled}\n" in out
    assert out.endswith("result: error\n")


def test_scalar_past_the_digit_limit_is_named_by_its_digit_count(capsys, tmp_path):
    """Each scalar loads (3,001 digits), but the unit-law witness is their
    6,001-digit product, past the interpreter's limit on int-to-str digits."""
    big = "1" + "0" * 3000
    path = tmp_path / "big.json"
    path.write_text(json.dumps({
        "field": {"kind": "rationals"},
        "algebras": {"a": {"dim": 1, "table": [[[big]]], "unit": [big]}},
    }), encoding="utf-8")
    code, out, err = run_cli(capsys, path, "check", "a")
    assert (code, err) == (1, "")
    assert "witness: index 0: unit*a_0 or a_0*unit = <integer of 6001 digits>*a_0 != a_0\n" in out
    assert out.endswith("result: fail\n")


def test_dump_of_a_scalar_past_the_digit_limit_is_an_error(capsys, tmp_path):
    """A grouplike coring with comul scalar 10^3000 and counit 10^-3000 loads,
    but C (x) C has the 6,001-digit comul scalar 10^6000, which no workspace
    can hold: the dump stops with exit 2, and no file is written."""
    big = "1" + "0" * 3000
    path = tmp_path / "big.json"
    path.write_text(json.dumps({
        "field": {"kind": "rationals"},
        "algebras": {"k": {"fixture": {"kind": "ground"}}},
        "corings": {"c": {
            "base": "k",
            "carrier": {"left": "k", "right": "k", "dim": 1,
                        "left_action": [[["1"]]], "right_action": [[["1"]]]},
            "comul_lift": [[big]],
            "counit": [["1/" + big]],
        }},
    }), encoding="utf-8")
    assert run_cli(capsys, path, "check", "c")[0] == 0
    dump = tmp_path / "out.json"
    code, out, err = run_cli(capsys, path, "tensor", "c", "c", "--dump", str(dump))
    assert (code, err) == (2, "")
    assert "error: invalid-input\n" in out
    assert ("detail: cannot dump the scalar <integer of 6001 digits>: "
            "a workspace loads no integer past 4300 digits\n") in out
    assert "dumped" not in out
    assert not dump.exists()


@pytest.mark.parametrize("family", FAMILIES)
def test_compose_builds_the_bullet_composite_once(family, capsys, tmp_path, monkeypatch):
    """The cotensor oracle checks the composite the command built; it builds none."""
    monkeypatch.chdir(tmp_path)
    from_cli = mock.Mock(wraps=category.ext_compose)
    with mock.patch.dict(cli.CATEGORIES, ext=category.EXT._replace(compose=from_cli)), \
            mock.patch.object(category, "ext_compose", wraps=category.ext_compose) as inside:
        code, out, _ = run_cli(capsys, WORKSPACES / f"{family}.json",
                               *GOLDEN_CASES["compose_to_trivial_dual_id_dual"])
    assert code == 0 and "oracle.cotensor-route: equal" in out
    assert (from_cli.call_count, inside.call_count) == (1, 0)


@pytest.mark.parametrize("case", ["tensor_m2_c2", *DUMP_CASES, "base_extend_counit_sw"])
def test_empty_dump_path_is_an_io_error(case, capsys, tmp_path, monkeypatch):
    """`--dump ""` is a path that cannot be opened: exit 2, and nothing is dumped."""
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, WORKSPACES / "cli-f5.json", *GOLDEN_CASES[case],
                             "--dump", "")
    assert (code, err) == (2, "")
    assert "result: error\nerror: io\n" in out
    assert "dumped" not in out
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("family", [*FAMILIES, "monoidal-f5"])
def test_check_reports_the_verdict_of_load(family, capsys):
    """Load checks every object once; `check` reports that verdict and runs no checker."""
    path = WORKSPACES / f"{family}.json"
    ws = load_workspace(path)
    assert len(ws.verdicts) == sum(
        len(getattr(ws, section))
        for section in ("algebras", "modules", "corings", "extensions", "morphisms"))
    for (kind, name), verdict in ws.verdicts.items():
        assert ws.find(name)[0] == kind
        assert verdict == workspace.CHECKERS[kind](ws.find(name)[1])

    calls = Counter()

    def counted(kind, checker):
        def run(obj):
            calls[kind] += 1
            return checker(obj)
        return run

    counting = {kind: counted(kind, f) for kind, f in workspace.CHECKERS.items()}
    for kind, name in ws.verdicts:
        calls.clear()
        with mock.patch.dict(workspace.CHECKERS, counting):
            code, out, _ = run_cli(capsys, path, "check", name)
        assert code == 0 and out.endswith("result: pass\n")
        assert f"kind: {kind}\n" in out
        assert sum(calls.values()) == len(ws.verdicts)


@pytest.mark.parametrize("case", ["tensor_m2_c2", *DUMP_CASES, "base_extend_counit_sw"])
def test_out_name_with_a_line_break_is_a_syntax_error(case, capsys, tmp_path, monkeypatch):
    """An --out name is printed on the `out:` line: a line break in it is bad input,
    refused before anything runs, so the report keeps one `result:` line."""
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, CLI_Q, *GOLDEN_CASES[case],
                             "--out", "r\nresult: pass", "--dump", "out.json")
    assert (code, err) == (2, "")
    lines = out.splitlines()
    assert "error: syntax" in lines
    assert "detail: --out name 'r\\nresult: pass' breaks a report line" in lines
    assert [line for line in lines if line.startswith("result:")] == ["result: error"]
    assert list(tmp_path.iterdir()) == []


BROKEN = "zz\nresult: pass"

# Each command line with one argument that holds a line break, and the start of
# the `detail:` line it gets.  The path cases name no file that exists.
LINE_BREAK_ARGUMENTS = {
    "dims-name": (["dims", BROKEN], "object name"),
    "check-name": (["check", "m3\r"], "object name"),
    "tensor-right": (["tensor", "m2", "c2\u2028"], "object name"),
    "compose-first": (["compose", BROKEN, "id_dual"], "object name"),
    "base-extend-morphism": (["base-extend", BROKEN], "object name"),
    "tensor-dump": (["tensor", "m2", "c2", "--dump", "a\nresult: fail"], "--dump path"),
    "compose-dump": (["compose", "to_trivial_dual", "id_dual", "--dump", "a\nb"],
                     "--dump path"),
}


@pytest.mark.parametrize("case", sorted(LINE_BREAK_ARGUMENTS))
def test_argument_with_a_line_break_is_a_syntax_error(case, capsys, tmp_path, monkeypatch):
    """A name or path the report may print is bad input when a line break would
    split it: refused before load, so the report keeps one `result:` line."""
    monkeypatch.chdir(tmp_path)
    argv, what = LINE_BREAK_ARGUMENTS[case]
    [broken] = [arg for arg in argv if "".join(arg.splitlines()) != arg]
    code, out, err = run_cli(capsys, WORKSPACES / "cli-f5.json", *argv)
    assert (code, err) == (2, "")
    lines = out.splitlines()
    assert lines[1:3] == ["error: syntax", f"detail: {what} {broken!r} breaks a report line"]
    assert [line for line in lines if line.startswith("result:")] == ["result: error"]
    assert list(tmp_path.iterdir()) == []


def test_workspace_path_with_a_line_break_is_a_syntax_error(capsys, tmp_path):
    """Refused before the file is read: a malformed file there printed its path,
    line break and all, at the head of the JSON decoder's `detail:`."""
    path = tmp_path / BROKEN
    path.write_text("{", encoding="utf-8")
    code, out, err = run_cli(capsys, path, "dims", "k")
    assert (code, err) == (2, "")
    lines = out.splitlines()
    detail = f"detail: --workspace path {str(path)!r} breaks a report line"
    assert lines[1:3] == ["error: syntax", detail]
    assert [line for line in lines if line.startswith("result:")] == ["result: error"]


def test_tensor_dumps_only_a_passing_coring(capsys, tmp_path, monkeypatch):
    """Like the other dumping commands, `tensor` writes no file for a failed check."""
    monkeypatch.chdir(tmp_path)
    failed = Verdict.failed("coassociativity", "g: differ", ("bilinearity",),
                            declared=CORING_LAWS)
    with mock.patch.object(cli, "check_coring", return_value=failed):
        code, out, err = run_cli(capsys, CLI_Q, *GOLDEN_CASES["tensor_m2_c2"])
    assert (code, err) == (1, "")
    assert "check.coassociativity: fail\n" in out
    assert out.endswith("result: fail\n")
    assert "dumped" not in out
    assert list(tmp_path.iterdir()) == []


def test_compose_oracle_mismatch_names_a_witness(capsys, tmp_path, monkeypatch):
    """A composite the cotensor route disagrees with fails with one `law:` and one
    `witness:` line, naming the first basis element whose coactions differ, and
    writes no file."""
    monkeypatch.chdir(tmp_path)
    path = WORKSPACES / "cli-f5.json"

    def perturbed(g, f, composed):
        # One more of the first class of the coaction tensor in the lift of e_1.
        oracle = category.ext_compose_via_cotensor(g, f, composed)
        field, lift = oracle.source.field, oracle.coact_lift
        rows = [dict(r) for r in lift.rows]
        _vadd(field, rows[1], {composed.coaction_tensor.quot.rep_columns[0]: field.one},
              field.one)
        return category.ExtMorphism(oracle.source, oracle.target, oracle.action_mats,
                                    Mat(field, lift.nrows, lift.ncols, rows))

    with mock.patch.object(cli, "ext_compose_via_cotensor", perturbed):
        code, out, err = run_cli(capsys, path, *GOLDEN_CASES["compose_to_trivial_dual_id_dual"],
                                 "--dump", "out.json")
    assert (code, err) == (1, "")
    label = load_workspace(path).find("id_dual")[1].source.label(1)
    lines = out.splitlines()
    assert lines[-4:] == [
        "oracle.cotensor-route: mismatch",
        "law: cotensor-route",
        f"witness: {label}: the bullet coaction differs from the cotensor route",
        "result: fail",
    ]
    assert [line for line in lines if line.startswith(("law:", "witness:"))] == lines[-3:-1]
    assert "dumped" not in out
    assert list(tmp_path.iterdir()) == []


# An F_5 workspace whose unit coring is named as the dump names a coring it
# generates.  `extend-tensor u_m2 u_c2` has the unit coring as its target.
NAMED_LIKE_A_DUMP = {
    "field": {"kind": "prime", "p": 5},
    "algebras": {"k": {"fixture": {"kind": "ground"}}},
    "corings": {
        "coring_1": {"fixture": {"kind": "unit"}},
        "m2": {"fixture": {"kind": "matrix_coalgebra", "n": 2}},
        "c2": {"fixture": {"kind": "grouplike", "table": [[0, 1], [1, 0]]}},
    },
    "extensions": {
        "u_m2": {"fixture": {"kind": "unit", "coring": "m2"}},
        "u_c2": {"fixture": {"kind": "unit", "coring": "c2"}},
    },
}


def test_a_generated_name_skips_the_workspace_names(capsys, tmp_path):
    """The 8-dim source took the generated name `coring_1` and the unit target
    the workspace's, so `by` named the source and the dump failed to load
    (exit 2, expected 64 columns, got 8) after reporting `dumped`."""
    path, dump = tmp_path / "ws.json", tmp_path / "out.json"
    path.write_text(json.dumps(NAMED_LIKE_A_DUMP))
    code, out, err = run_cli(capsys, path, "extend-tensor", "u_m2", "u_c2", "--dump", str(dump))
    assert (code, err) == (0, "")
    entry = json.loads(dump.read_text())["extensions"]["result"]
    assert (entry["coring"], entry["by"]) == ("coring_2", "coring_1")
    code, out, err = run_cli(capsys, dump, "dims", "result")
    assert (code, err) == (0, "")
    assert "coring-dim: 8\n" in out and "by-dim: 1\n" in out


# Each --out name that the dump also writes in another section, where
# `Workspace.find` on the dump would hide one of the two entries: the
# workspace (None for NAMED_LIKE_A_DUMP), the command and the `detail:` line.
OUT_CLASHES = {
    # The generated name of the 8-dim source coring is `coring_2`.
    "extension-and-coring": (None, ["extend-tensor", "u_m2", "u_c2", "--out", "coring_2"],
                             'cannot dump "coring_2": the dump\'s corings also use that name'),
    # The base k (x) k is the workspace's algebra `k`: `dims k` on the dump
    # reported the coring.
    "coring-and-algebra": (WORKSPACES / "cli-f5.json", ["tensor", "m2", "c2", "--out", "k"],
                           'cannot dump "k": the dump\'s algebras also use that name'),
}


@pytest.mark.parametrize("case", OUT_CLASHES)
def test_an_out_name_written_in_another_section_is_refused(case, capsys, tmp_path):
    """Exit 2 before the dump is opened; the same command without the clash dumps."""
    path, argv, detail = OUT_CLASHES[case]
    if path is None:
        path = tmp_path / "ws.json"
        path.write_text(json.dumps(NAMED_LIKE_A_DUMP))
    dump = tmp_path / "out.json"
    code, out, err = run_cli(capsys, path, *argv, "--dump", str(dump))
    assert (code, err) == (2, "")
    lines = out.splitlines()
    assert lines[-2:] == ["error: invalid-input", f"detail: {detail}"]
    assert [line for line in lines if line.startswith("result:")] == ["result: error"]
    assert not dump.exists()
    code, out, err = run_cli(capsys, path, *argv[:-1], "fresh", "--dump", str(dump))
    assert (code, err) == (0, "")
    assert out.endswith(f"dumped: {dump}\n")


def test_a_coring_equal_to_a_generated_one_reuses_its_name(capsys, tmp_path):
    """The source and the target of `regular_dual (x) regular_dual` are one
    coring, written once; it was written twice, as `coring_1` and `coring_3`."""
    dump = tmp_path / "out.json"
    code, _, err = run_cli(capsys, WORKSPACES / "cli-f5.json", "extend-tensor",
                           "regular_dual", "regular_dual", "--dump", str(dump))
    assert (code, err) == (0, "")
    doc = json.loads(dump.read_text())
    entry = doc["extensions"]["result"]
    assert list(doc["corings"]) == ["coring_1"]
    assert (entry["coring"], entry["by"]) == ("coring_1", "coring_1")
    code, out, err = run_cli(capsys, dump, "check", "result")
    assert (code, err) == (0, "")
    assert out.endswith("result: pass\n")
