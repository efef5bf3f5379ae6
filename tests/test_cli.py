"""End-to-end tests of the command-line front end, called in-process.

The golden reports under `golden/cli-q/` were recorded from the code that held
every rational scalar as a `Fraction`; they pin the report bytes, the JSON
report and the `--dump` file of the benchmark's Q command list.
"""

import json
from pathlib import Path

import pytest

from corings import cli

ROOT = Path(__file__).resolve().parents[1]
CLI_Q = ROOT / "perfbench" / "workspaces" / "cli-q.json"
GOLDEN = Path(__file__).resolve().parent / "golden" / "cli-q"
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


def run_cli(capsys, workspace, *argv):
    code = cli.main(["--workspace", str(workspace), *argv])
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_golden_text_report(case, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, CLI_Q, *GOLDEN_CASES[case])
    assert (code, err) == (0, "")
    assert out == (GOLDEN / f"{case}.txt").read_text(encoding="utf-8")
    if "--dump" in GOLDEN_CASES[case]:
        dumped = (tmp_path / DUMP).read_text(encoding="utf-8")
        assert dumped == (GOLDEN / DUMP).read_text(encoding="utf-8")


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
