"""`python -m corings` in a fresh process against `cli.main` called in-process.

The entry point runs `cli.main`, freezes the garbage collector and exits with
its code.  On the benchmark workspaces both routes must write the same report
bytes and give the same exit code for each exit class: a pass (0), a failed
mathematical check (1), bad input (2) and an argument error (2, usage on
stderr).  A `--dump` file written by the fresh process must be complete: the
same bytes as the in-process one, and valid JSON.  A reader that closes the
pipe before the output ends makes an I/O error (exit 2) with nothing on
stderr.  Only the entry point freezes: an in-process call leaves the
collector's frozen set as it was.
"""

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import corings
from corings import cli

WORKSPACES = Path(__file__).resolve().parents[1] / "perfbench" / "workspaces"
SRC = Path(corings.__file__).resolve().parents[1]

CASES = {
    "pass": (0, ["--workspace", str(WORKSPACES / "cli-q.json"), "check", "m3"]),
    "math-failure": (1, ["--workspace", str(WORKSPACES / "bad-matrix2-f5.json"),
                         "dims", "m2_bad"]),
    "bad-input": (2, ["--workspace", str(WORKSPACES / "unknown-key.json"), "dims", "k"]),
    "argument-error": (2, ["--workspace", str(WORKSPACES / "cli-q.json"), "no-such-command"]),
}


def fresh_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_fresh(argv, cwd):
    proc = subprocess.run([sys.executable, "-m", "corings", *argv], cwd=cwd, env=fresh_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


def run_in_process(argv, capsysbinary):
    try:
        code = cli.main(argv)
    except SystemExit as e:  # argparse rejects the arguments
        code = e.code
    out, err = capsysbinary.readouterr()
    return code, out, err


@pytest.mark.parametrize("case", sorted(CASES))
def test_fresh_process_matches_in_process(case, capsysbinary, tmp_path):
    want_code, argv = CASES[case]
    frozen = gc.get_freeze_count()
    code, out, err = run_in_process(argv, capsysbinary)
    assert gc.get_freeze_count() == frozen
    assert code == want_code
    fresh = run_fresh(argv, tmp_path)
    assert fresh[:2] == (code, out)
    if case == "argument-error":
        assert out == b""
        assert fresh[2] == err
        assert err.startswith(b"usage: corings")


def test_fresh_process_writes_a_complete_dump(capsysbinary, tmp_path):
    argv = ["--workspace", str(WORKSPACES / "cli-f5.json"), "tensor", "m2", "c2",
            "--out", "m2c2", "--dump"]
    fresh, here = tmp_path / "fresh.json", tmp_path / "here.json"
    code, out, _ = run_fresh([*argv, str(fresh)], tmp_path)
    want = run_in_process([*argv, str(here)], capsysbinary)
    assert (code, out) == (0, want[1].replace(bytes(here), bytes(fresh)))
    assert fresh.read_bytes() == here.read_bytes()
    assert "m2c2" in json.loads(fresh.read_text(encoding="utf-8"))["corings"]


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_a_closed_pipe_is_an_io_error_without_a_traceback(unbuffered, tmp_path):
    """The dump of M_2 (x) M_3, about 750 KB, outlasts any pipe buffer, so the
    reader below closes the pipe while the program still writes."""
    env = dict(fresh_env(), PYTHONUNBUFFERED=unbuffered)
    argv = ["--workspace", str(WORKSPACES / "cli-q.json"), "tensor", "m2", "m3",
            "--dump", "/dev/stdout"]
    with subprocess.Popen([sys.executable, "-m", "corings", *argv], cwd=tmp_path, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 2
    assert err == b""
