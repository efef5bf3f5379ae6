"""The benchmark's own checks trip on wrong answers.

Runs under `python -m pytest perfbench` without starting any process: every
report and dump below is written by hand.
"""

import json

import pytest

import checks
import corpus
import run


def m2_c2_dump(field, corrupt=None):
    """matrix 2 (x) grouplike C2 over k, written out densely by hand."""
    n = 8

    def idx(i, j, a):
        return (i * 2 + j) * 2 + a

    comul = [["0"] * (n * n) for _ in range(n)]
    counit = [["0"] for _ in range(n)]
    for i in range(2):
        for j in range(2):
            for a in range(2):
                for t in range(2):
                    comul[idx(i, j, a)][idx(i, t, a) * n + idx(t, j, a)] = "1"
                counit[idx(i, j, a)] = ["1" if i == j else "0"]
    if corrupt == "comul":
        comul[idx(0, 1, 0)][idx(0, 0, 0) * n + idx(0, 1, 0)] = "0"
    if corrupt == "counit":
        counit[idx(1, 1, 1)] = ["2"]
    ident = [["1" if r == c else "0" for c in range(n)] for r in range(n)]
    return json.dumps({
        "field": field,
        "algebras": {"k": {"dim": 1, "table": [[["1"]]], "unit": ["1"]}},
        "corings": {"m2c2": {
            "base": "k",
            "carrier": {"left": "k", "right": "k", "dim": n,
                        "left_action": [ident], "right_action": [ident]},
            "comul_lift": comul,
            "counit": counit,
        }},
    })


@pytest.mark.parametrize("field", [corpus.Q, corpus.F5], ids=["Q", "F5"])
def test_dense_recheck_accepts_the_hand_built_tensor_coring(field):
    assert checks.recheck_coalgebra_dump(m2_c2_dump(field), "m2c2", 8) == []


@pytest.mark.parametrize("field", [corpus.Q, corpus.F5], ids=["Q", "F5"])
@pytest.mark.parametrize("corrupt, law", [("comul", "coassociativity"),
                                          ("counit", "counit")])
def test_dense_recheck_trips_on_a_corrupted_dump(field, corrupt, law):
    problems = checks.recheck_coalgebra_dump(m2_c2_dump(field, corrupt), "m2c2", 8)
    assert any(law in p for p in problems)


def test_dense_recheck_trips_on_a_wrong_dim_or_base():
    assert checks.recheck_coalgebra_dump(m2_c2_dump(corpus.Q), "m2c2", 9)
    doc = json.loads(m2_c2_dump(corpus.Q))
    doc["algebras"]["k"]["unit"] = ["2"]
    assert checks.recheck_coalgebra_dump(json.dumps(doc), "m2c2", 8)


def test_report_parsing_keeps_colons_in_values():
    rep = checks.parse_report("law: right-counit\nwitness: e_11: (C (x) counit) o comul = 0\n")
    assert rep == {"law": "right-counit", "witness": "e_11: (C (x) counit) o comul = 0"}


GOOD = {"result": "pass", "check.bilinearity": "pass", "check.coassociativity": "pass"}


@pytest.mark.parametrize("code, change", [
    (1, {}),
    (0, {"result": "fail"}),
    (0, {"check.coassociativity": "skipped"}),
    (0, {"check.bilinearity": "fail"}),
])
def test_expect_pass_trips(code, change):
    assert checks.expect_pass(0, GOOD) == []
    assert checks.expect_pass(code, {**GOOD, **change})


def test_expect_pass_trips_when_no_law_is_reported():
    assert checks.expect_pass(0, {"result": "pass"})


def by_label(commands):
    return {c.label: c for c in commands}


@pytest.mark.parametrize("label, key, wrong", [
    ("tensor m2 c2", "carrier-dim", "9"),
    ("tensor m2 c2", "base-dim", "2"),
    ("extend-tensor regular_dual unit_m2", "coring-dim", "4"),
    ("extend-tensor regular_dual unit_m2", "by-dim", "4"),
    ("compose to_trivial_dual id_dual", "oracle.cotensor-route", "mismatch"),
    ("base-extend counit_sw", "coring-dim", "64"),
    ("base-extend counit_sw", "base-dim", "1"),
    ("check regular_dual", "kind", "coring"),
])
def test_cli_checks_trip_on_wrong_fields(label, key, wrong):
    cmd = by_label(run.cli_commands("q"))[label]
    report = {"result": "pass", "check.bimodule": "pass", key: wrong}
    assert any(key in p for p in cmd.check(0, report))


def test_cli_closed_forms():
    cmds = by_label(run.cli_commands("f5"))
    expected = {
        "extend-tensor regular_dual unit_m2": {"coring-dim": "8", "by-dim": "2"},
        "base-extend counit_sw": {"coring-dim": "16", "base-dim": "4"},
        "compose to_trivial_dual id_dual": {"kind": "ext", "oracle.cotensor-route": "equal"},
    }
    for label, fields in expected.items():
        assert cmds[label].check(0, {"result": "pass", "check.x": "pass", **fields}) == []


def monoidal_report(change):
    rep = {"category": "ext", "corings": "2", "morphisms": "6", "seed": "7",
           "check.identity-preservation": "pass", "check.interchange": "pass",
           "check.unit-isomorphisms": "pass", "check.associator": "pass",
           "result": "pass"}
    rep.update(change)
    return rep


@pytest.mark.parametrize("change", [
    {"seed": "0"},
    {"morphisms": "5"},
    {"corings": "3"},
    {"check.associator": "skipped"},
    {"result": "fail"},
])
def test_monoidal_checks_trip(change):
    cmd = run.monoidal_commands(7)[0]
    assert cmd.check(0, monoidal_report({})) == []
    assert cmd.check(0, monoidal_report(change))


def test_monoidal_corpus_instantiates_every_law_and_the_caps_bind():
    assert run.monoidal_preflight() == []


def test_every_triple_is_filtered_out_of_matrix3_alone():
    # The vacuous case: three copies of a dim-9 coring exceed the 64 cap.
    assert checks.small_triples([9]) == []
    assert checks.small_triples([4, 4]) != []


def test_negative_controls_trip_when_the_fault_is_missed():
    bad, unknown = run._controls("q")
    hit = {"error": "validation", "object": "m2_bad", "law": "right-counit",
           "result": "fail", "witness": "e_11: (C (x) counit) o comul = 0 != e_11"}
    assert bad.check(1, hit) == []
    assert bad.check(0, {"result": "pass"})
    assert bad.check(1, {**hit, "law": "coassociativity"})
    assert bad.check(1, {**hit, "witness": "e_12: ..."})
    assert unknown.check(2, {"result": "error"}) == []
    assert unknown.check(1, {"result": "error"})


def test_committed_workspaces_match_the_generator():
    assert corpus.stale_files() == []


def test_layer_self_times_partition_the_root_span():
    doc = {
        "names": ["cli.main", "bimodules.tensor_over_alg", "linalg.quotient"],
        "spans": [[0, -1, 0.0, 10.0], [1, 0, 1.0, 6.0], [2, 1, 2.0, 3.0],
                  [2, 0, 7.0, 9.0]],
        "tensor_sizes": [[16, 4, 12]],
        "tensor_repeats": 0,
        "generator_rows": [[8, 4]],
    }
    agg = run.aggregate_trace(doc)
    assert agg["cli.main.self_s"] == 3.0
    assert agg["bimodules.tensor_over_alg.self_s"] == 4.0
    assert agg["linalg.quotient.calls"] == 2
    assert agg["linalg.quotient.self_s"] == 3.0
    layers = sum(agg[f"{layer}.self_s"] for layer in run.LAYERS)
    assert layers == agg["cli.main.total_s"] == 10.0


def test_tensor_repeats_count_structurally_equal_pairs():
    linalg = pytest.importorskip("corings.linalg")
    bimodules = pytest.importorskip("corings.bimodules")
    import tracer

    field = linalg.Field.prime(5)
    a, b = bimodules.scalar_bimodule(field, 4), bimodules.scalar_bimodule(field, 4)
    c = bimodules.scalar_bimodule(field, 2)
    recorder = tracer.Recorder()
    recorder.tensor_inputs = [(a, a), (b, b), (a, c), (c, a), (b, c)]
    assert recorder.repeats() == 2
