"""`cli.parse_args` against the `argparse` parser it replaced.

`reference_parser` (tests/reference.py) is the `argparse` parser the command
line was read with before.  Both read each command line below: every one the
golden tests of tests/test_cli.py, tests/test_entry_point.py, the CI workflow
and the benchmark's command lists pass, and a Hypothesis stream drawn from the
grammar's words.  Where `argparse` accepts, `parse_args` must give the same
attributes in the same order, with equal values of equal types.  Where it
prints its help and exits 0, `parse_args` must print its own help to stdout
and exit 0.  Where it rejects, `parse_args` must raise SystemExit(2) with
nothing on stdout, and stderr must start with the usage and end with a
`corings: error:` line.

Two departures are pinned on their own, outside the stream:
- `argparse` of Python 3.11 and earlier drops the first `--` from the
  values of an option or positional.  A value that was only `--`, as in
  `--workspace=--` or `tensor a -- --`, becomes an empty list, and the command
  crashed on it with a traceback.  `parse_args` keeps the string `--`.
- A `--` before the command is where `argparse` releases differ: Python
  3.11, like `parse_args`, reads it as the command and refuses it, and later
  releases drop it.  So the stream draws `--` only after the command word,
  at most once.
"""

import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corings.cli import COMMANDS, parse_args
from reference import reference_parser
from test_cli import GOLDEN_CASES, LINE_BREAK_ARGUMENTS, MONOIDAL_CASES
from test_entry_point import CASES

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import run as perfbench_run  # noqa: E402

REFERENCE = reference_parser()
WS = ["--workspace", "ws.json"]


def outcome(parse, argv):
    """("accepts", [(attribute, type, value)...]) or (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            args = parse(list(argv))
    except SystemExit as e:
        return e.code, out.getvalue(), err.getvalue()
    assert (out.getvalue(), err.getvalue()) == ("", "")
    return "accepts", [(k, type(v), v) for k, v in vars(args).items()]


def agree(argv):
    want = outcome(REFERENCE.parse_args, argv)
    got = outcome(parse_args, argv)
    if want[0] == "accepts":
        assert got == want, argv
    elif want[0] == 0:
        assert got[0] == 0 and got[1].startswith("usage: corings") and got[2] == "", argv
    else:
        assert want[0] == 2, argv
        code, out, err = got
        assert (code, out) == (2, ""), argv
        assert err.startswith("usage: corings"), argv
        assert err.splitlines()[-1].startswith("corings: error: "), argv
    return want[0]


CI_ARGV = [
    ["--workspace", "cli-q.json", "check", "m3"],
    ["--workspace", "bad-matrix2-f5.json", "dims", "m2_bad"],
    ["--workspace", "cli-q.json", "no-such-command"],
    ["--workspace", "cli-f5.json", "dims", "zz\nresult: pass"],
    ["--workspace", "cli-f5.json", "tensor", "m2", "c2", "--dump", "d/a\nresult: fail"],
    ["--workspace", "cli-q.json", "tensor", "m2", "m3", "--dump", "/dev/stdout"],
    ["--workspace", "cli-q.json", "compose", "id_m2", "cid_m2"],
    ["--workspace", "monoidal-f5.json", "--seed", "3", "verify-monoidal", "corings"],
    ["--workspace", "cli-f5.json", "tensor", "sw", "m2"],
    ["--help"],
    ["--seed", "x"],
    ["dims", "k"],
    ["--workspace", "cli-q.json", "verify-monoidal", "bogus"],
    ["--workspace", "cli-q.json", "dims"],
    ["--workspace", "cli-q.json", "dims", "k", "extra"],
    ["--workspace", "cli-q.json", "dims", "k", "--seed", "1"],
]


def benchmark_argv():
    commands = [*perfbench_run.cli_commands("q"), *perfbench_run.cli_commands("f5"),
                *perfbench_run.monoidal_commands(3)]
    for field in ("q", "f5"):
        commands += [perfbench_run._dims_probe(f"cli-{field}.json"),
                     *perfbench_run._controls(field)]
    return [command.argv() for command in commands]


def golden_argv():
    return [
        *(WS + argv for argv in GOLDEN_CASES.values()),
        *(WS + argv for argv in MONOIDAL_CASES.values()),
        *(WS + argv for argv, _ in LINE_BREAK_ARGUMENTS.values()),
        WS + ["--json-report", "check", "m3"],
        *(argv for _, argv in CASES.values()),
    ]


@pytest.mark.parametrize("argv", [*golden_argv(), *CI_ARGV, *benchmark_argv()], ids=repr)
def test_known_command_lines_agree(argv):
    agree(argv)


def test_the_known_command_lines_reach_every_outcome():
    outcomes = {agree(argv) for argv in [*golden_argv(), *CI_ARGV, *benchmark_argv()]}
    assert outcomes == {"accepts", 0, 2}


WORDS = [
    *COMMANDS, "bogus", "ext", "corings", "k", "m2", "c2", "x", "",
    "-", "-1", "-x", "-h", "--help", "--he", "--bogus", "---",
    "--workspace", "--work", "--w", "--json-report", "--js", "--seed", "--se", "--s",
    "--out", "--o", "--dump", "--du", "--d",
]
OPTIONS = ["--help", "--workspace", "--work", "--json-report", "--js", "--seed", "--se",
           "--out", "--o", "--dump", "--du", "--bogus", "-x"]
VALUES = ["", "x", "1", "-1", "k", "ext"]
TOKENS = st.one_of(
    st.sampled_from(WORDS),
    st.builds(lambda o, v: f"{o}={v}", st.sampled_from(OPTIONS), st.sampled_from(VALUES)),
)
# A phrase is a word or an option with its value, so that many lines parse.
PHRASES = st.one_of(
    TOKENS.map(lambda t: [t]),
    st.sampled_from([WS, ["--seed", "3"], ["--seed", "-1"], ["--json-report"],
                     ["--out", "n"], ["--dump", "d.json"], ["--o", "-"], ["--du", "-1"]]),
)
# Top-level options that read the next word as their value.
TAKES_VALUE = {"--workspace", "--work", "--w", "--seed", "--se", "--s"}


@st.composite
def command_lines(draw):
    head = sum(draw(st.lists(PHRASES, max_size=4)), [])
    if draw(st.booleans()):
        head = WS + head
    if draw(st.integers(0, 4)) == 0:
        return head
    command = draw(st.sampled_from([*COMMANDS, "bogus"]))
    tail = sum(draw(st.lists(PHRASES, max_size=5)), [])
    # A `--` the top level could reach (the command word read as an option's
    # value) is where `argparse` releases differ; see the module docstring.
    if draw(st.booleans()) and not (head and head[-1] in TAKES_VALUE):
        tail.insert(draw(st.integers(0, len(tail))), "--")
    return [*head, command, *tail]


@given(command_lines())
@settings(max_examples=600, deadline=None)
def test_random_command_lines_agree(argv):
    agree(argv)


@pytest.mark.parametrize(("argv", "attr", "value"), [
    (["--workspace=--", "dims", "k"], "workspace", "--"),
    (WS + ["tensor", "a", "--", "--"], "right", "--"),
    (WS + ["tensor", "a", "b", "--out=--"], "out", "--"),
    (WS + ["base-extend", "m", "--dump=--"], "dump", "--"),
])
def test_a_lone_double_dash_value_stays_a_string(argv, attr, value):
    assert getattr(parse_args(argv), attr) == value


def test_a_lone_double_dash_seed_is_refused():
    assert outcome(parse_args, ["--seed=--"] + WS + ["dims", "k"])[0] == 2


def test_a_double_dash_before_the_command_is_refused():
    code, out, err = outcome(parse_args, WS + ["--", "dims", "k"])
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == (
        "corings: error: argument command: invalid choice: '--' (choose from "
        + ", ".join(map(repr, COMMANDS)) + ")")


def test_help_lists_every_command_with_its_help_line():
    code, out, err = outcome(parse_args, ["--workspace", "w", "compose", "--help"])
    assert (code, err) == (0, "")
    for command, (_, names, _, text) in COMMANDS.items():
        line = next(line for line in out.splitlines() if line.startswith(f"  {command} "))
        assert line.endswith(text)
