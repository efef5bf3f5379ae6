"""End-to-end and per-layer benchmark of the `corings` command line.

    python3 perfbench/run.py --workload cli-q --seed 1 --seconds 36 --trace 0

One closed-loop client: every command runs as a fresh `python -m corings`
process, one at a time, so each pays interpreter start, import and
validate-on-load like a user does.  A run repeats whole rounds (the
workload's command list in a seeded order) for about `--seconds`, and at
least three rounds.  Each output is checked (see checks.py); a check that
misses counts as a failed operation.

With --trace 0 the run prints the end-to-end metrics; with --trace 1 each
command runs under tracer.py instead and the run prints the per-layer metrics.
Each child is pinned to one CPU, the CPUs taken in turn, and its wall time is
scaled to a reference speed by a fixed calibration loop timed on the same CPU
just before and just after it; `pass_s` sums each command's median scaled time
and `setup_s` is the probes' median (see the README for why).  The last line
of standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import corpus  # noqa: E402
from tracer import FROM_GENERATORS, LAYERS, TENSOR  # noqa: E402

OUT_DIR = HERE / "out"
MIN_ROUNDS = 3
PROBES_PER_ROUND = 1
COMMAND_TIMEOUT_S = 60
# Caps of `corings verify-monoidal` (the verifiers' defaults).
MAX_SQUARES = {"ext": 12, "corings": 24}
MAX_TRIPLES = 4
# Calibration chunks timed on a command's CPU just before and just after it,
# and chunks run once at start to warm the loop up (not used).
CAL_CHUNKS_EACH_SIDE = 2
CAL_WARMUP_CHUNKS = 5
# Mean time of one calibration chunk at reference speed: the median over
# fifteen runs of a run's mean chunk time, on a shared 2-vCPU VM with
# CPython 3.11.  Timings are reported at the speed where a chunk takes this long.
CAL_REFERENCE_S = 0.021
# The CPUs children run on, in turn; None where affinity cannot be set.
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else [None]


class Command:
    """One CLI call of a workload and the check of its output."""

    def __init__(self, label, workspace, args, check):
        self.label = label
        self.workspace = workspace
        self.args = args
        self.check = check  # (exit code, report) -> list of problems

    def argv(self):
        return ["--workspace", str(corpus.WORKSPACE_DIR / self.workspace)] + self.args


def _dims_probe(workspace):
    expected = {"command": "dims", "object": "k", "kind": "algebra",
                "dim": str(corpus.ALGEBRA_DIMS["k"])}
    return Command(
        "setup: dims k", workspace, ["dims", "k"],
        lambda code, rep: ([] if code == 0 else [f"exit code {code}"])
        + checks.expect_fields(rep, expected),
    )


def _passes(**fields):
    return lambda code, rep: checks.expect_pass(code, rep) + checks.expect_fields(rep, fields)


def _controls(field_tag):
    bad = Command(
        "control: corrupted matrix 2", f"bad-matrix2-{field_tag}.json", ["dims", "m2_bad"],
        lambda code, rep: checks.expect_failure(
            code, rep, 1,
            {"error": "validation", "object": "m2_bad", "law": "right-counit",
             "result": "fail"},
        ) + ([] if rep.get("witness", "").startswith("e_11") else
             [f"witness {rep.get('witness')!r} does not name e_11"]),
    )
    unknown = Command(
        "control: unknown top-level key", "unknown-key.json", ["dims", "k"],
        lambda code, rep: checks.expect_failure(code, rep, 2, {"result": "error"}),
    )
    return [bad, unknown]


def cli_commands(field_tag):
    """The cli workloads' command list, with closed-form expectations."""
    ws = f"cli-{field_tag}.json"
    cor = {n: corpus.coring_model(s) for n, s in corpus.CLI_CORINGS.items()}
    alg = corpus.ALGEBRA_DIMS
    ext = {n: corpus.extension_model(cor, s) for n, s in corpus.CLI_EXTENSIONS.items()}
    (reg_c, reg_by), (unit_c, unit_by) = ext["regular_dual"], ext["unit_m2"]
    dump = OUT_DIR / f"tensor-m2-c2-{field_tag}.json"
    tensor_dim = cor["m2"].dim * cor["c2"].dim
    tensor_pass = _passes(**{"carrier-dim": str(tensor_dim),
                             "base-dim": str(alg[cor["m2"].base] * alg[cor["c2"].base])})

    def tensor_check(code, rep):
        problems = tensor_pass(code, rep)
        if not problems:
            problems = checks.recheck_coalgebra_dump(
                dump.read_text(encoding="utf-8"), "m2c2", tensor_dim)
        return problems

    sw_counit = corpus.CLI_MORPHISMS["counit_sw"]["fixture"]["coring"]
    return [
        Command("check m3", ws, ["check", "m3"], _passes(kind="coring")),
        Command("check regular_dual", ws, ["check", "regular_dual"],
                _passes(kind="extension")),
        Command("tensor m2 c2", ws, ["tensor", "m2", "c2", "--out", "m2c2",
                                     "--dump", str(dump)], tensor_check),
        Command("extend-tensor regular_dual unit_m2", ws,
                ["extend-tensor", "regular_dual", "unit_m2"],
                _passes(**{"coring-dim": str(reg_c.dim * unit_c.dim),
                           "by-dim": str(reg_by.dim * unit_by.dim)})),
        Command("compose to_trivial_dual id_dual", ws,
                ["compose", "to_trivial_dual", "id_dual"],
                _passes(kind="ext", **{"oracle.cotensor-route": "equal"})),
        Command("compose counit_m2 cid_m2", ws, ["compose", "counit_m2", "cid_m2"],
                _passes(kind="corings")),
        # Base extension along the identity algebra map of k4 keeps the
        # Sweedler coring's dim over the same base.
        Command("base-extend counit_sw", ws, ["base-extend", "counit_sw"],
                _passes(**{"coring-dim": str(cor[sw_counit].dim),
                           "base-dim": str(alg[cor[sw_counit].base])})),
    ]


def monoidal_model():
    """Coring models, morphism endpoints and composable pairs per category,
    and the triples the associator check may pick, all by the corpus model."""
    cor = {n: corpus.coring_model(s) for n, s in corpus.MONOIDAL_CORINGS.items()}
    by_kind = {"ext": [], "corings": []}
    for spec in corpus.MONOIDAL_MORPHISMS.values():
        by_kind[spec["kind"]].append(corpus.endpoints(cor, spec))
    pairs = {k: checks.composable_pairs(v) for k, v in by_kind.items()}
    triples = checks.small_triples([c.dim for c in cor.values()])
    return cor, by_kind, pairs, triples


def monoidal_preflight():
    """Every monoidal law has an instance, and the caps bind, by the model."""
    _, _, pairs, triples = monoidal_model()
    problems = []
    for kind, p in pairs.items():
        if not p or len(p) ** 2 <= MAX_SQUARES[kind]:
            problems.append(f"{kind}: {len(p) ** 2} squares, cap {MAX_SQUARES[kind]} does not bind")
    if not triples or len(triples) <= MAX_TRIPLES:
        problems.append(f"{len(triples)} triples, cap {MAX_TRIPLES} does not bind")
    return problems


def monoidal_commands(seed):
    cor, by_kind, _, _ = monoidal_model()
    return [
        Command(f"verify-monoidal {kind}", "monoidal-f5.json",
                ["--seed", str(seed), "verify-monoidal", kind],
                _passes(category=kind, corings=str(len(cor)),
                        morphisms=str(len(by_kind[kind])), seed=str(seed)))
        for kind in ("ext", "corings")
    ]


WORKLOADS = {
    "cli-q": lambda seed: ("q", cli_commands("q")),
    "cli-f5": lambda seed: ("f5", cli_commands("f5")),
    "monoidal-f5": lambda seed: ("f5", monoidal_commands(seed)),
}


def calibration_chunk():
    """A fixed piece of interpreter work, independent of `corings`: dense
    products of small matrices over Q (Fraction) and over F_5 (int), the
    arithmetic the program spends its time in."""
    n = 7
    a = [[Fraction(i + 1, j + 2) for j in range(n)] for i in range(n)]
    b = [[Fraction(i - j, i + j + 1) for j in range(n)] for i in range(n)]
    c = [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    m = 12
    x = [[(3 * i + j) % 5 for j in range(m)] for i in range(m)]
    for _ in range(60):
        x = [[sum(x[i][k] * x[k][j] for k in range(m)) % 5 for j in range(m)]
             for i in range(m)]
    return c, x


def run_child(argv):
    """Run one child to completion: (exit code, stdout, wall seconds)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # Python's default: the first call writes the bytecode cache and later
    # calls read it, as for an installed CLI, whatever the caller's setting.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, timeout=COMMAND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, "", time.perf_counter() - start
    return proc.returncode, proc.stdout.decode("utf-8", "replace"), time.perf_counter() - start


def aggregate_trace(doc):
    """Per-function calls / inclusive / self seconds and the size counters."""
    names = doc["names"]
    spans = doc["spans"]
    child = [0.0] * len(spans)
    for fid, parent, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    calls = [0] * len(names)
    total = [0.0] * len(names)
    self_s = [0.0] * len(names)
    for idx, (fid, parent, start, end) in enumerate(spans):
        calls[fid] += 1
        total[fid] += end - start
        self_s[fid] += end - start - child[idx]
    out = {}
    for fid, name in enumerate(names):
        out[f"{name}.calls"] = calls[fid]
        out[f"{name}.total_s"] = total[fid]
        out[f"{name}.self_s"] = self_s[fid]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            self_s[fid] for fid, name in enumerate(names) if name.split(".")[0] == layer)
    sizes = doc["tensor_sizes"]
    out[f"{TENSOR}.ambient_dim.sum"] = sum(s[0] for s in sizes)
    out[f"{TENSOR}.ambient_dim.max"] = max((s[0] for s in sizes), default=0)
    out[f"{TENSOR}.relation_rank.sum"] = sum(s[1] for s in sizes)
    out[f"{TENSOR}.quotient_dim.sum"] = sum(s[2] for s in sizes)
    out[f"{TENSOR}.repeats"] = doc["tensor_repeats"]
    rows = doc["generator_rows"]
    out[f"{FROM_GENERATORS}.rows_in"] = sum(r[0] for r in rows)
    out[f"{FROM_GENERATORS}.rank_out"] = sum(r[1] for r in rows)
    return out


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for layer, targets in LAYERS.items():
        for target in targets:
            name = f"{layer}.{target}"
            units[f"{name}.calls"] = "count"
            units[f"{name}.total_s"] = "s"
            units[f"{name}.self_s"] = "s"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    units["cli.startup_s"] = "s"
    for key in ("ambient_dim.sum", "ambient_dim.max", "relation_rank.sum",
                "quotient_dim.sum"):
        units[f"{TENSOR}.{key}"] = "dim"
    units[f"{TENSOR}.repeats"] = "count"
    units[f"{FROM_GENERATORS}.rows_in"] = "count"
    units[f"{FROM_GENERATORS}.rank_out"] = "count"
    units[f"{FROM_GENERATORS}.rank_per_row"] = "ratio"
    units["traced.pass_s"] = "s"
    units["machine.calibration_s"] = "s"
    return units


class Run:
    """Attempted / failed bookkeeping and the timing samples of one run."""

    def __init__(self, trace):
        self.trace = trace
        self.attempted = 0
        self.failed = 0
        self.samples = {}  # label -> [(wall, scaled)] (untraced)
        self.traced = {}  # label -> [(wall, scaled, aggregates)]
        self.chunks = []  # seconds of every calibration chunk used
        calibrate(CAL_WARMUP_CHUNKS)

    def execute(self, cmd):
        self.attempted += 1
        if self.trace:
            trace_path = OUT_DIR / "trace.json"
            trace_path.unlink(missing_ok=True)
            argv = [sys.executable, str(HERE / "tracer.py"), str(trace_path), "--"]
        else:
            argv = [sys.executable, "-m", "corings"]
        cpu = CPUS[self.attempted % len(CPUS)]
        with pinned(cpu):
            before = calibrate(CAL_CHUNKS_EACH_SIDE)
            code, stdout, wall = run_child(argv + cmd.argv())
            after = calibrate(CAL_CHUNKS_EACH_SIDE)
        self.chunks += before + after
        speed = CAL_REFERENCE_S / statistics.fmean(before + after)
        problems = ["timed out"] if code is None else cmd.check(code, checks.parse_report(stdout))
        if problems:
            self.failed += 1
            print(f"FAILED {cmd.label}: {'; '.join(problems)}", file=sys.stderr)
            return
        if self.trace:
            header, spans = trace_path.read_text(encoding="utf-8").split("\n", 1)
            doc = json.loads(header)
            doc["spans"] = json.loads(spans)
            wall -= doc["exit_s"]
            self.traced.setdefault(cmd.label, []).append(
                (wall, wall * speed, aggregate_trace(doc)))
        else:
            self.samples.setdefault(cmd.label, []).append((wall, wall * speed))

    def scaled(self, label):
        """The untraced times of one command at reference speed."""
        return [scaled for _, scaled in self.samples[label]]


@contextlib.contextmanager
def pinned(cpu):
    """Run the block, and the children it starts, on one CPU."""
    if cpu is None:
        yield
        return
    everywhere = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, everywhere)


def calibrate(count):
    """Seconds of each of `count` calibration chunks."""
    secs = []
    for _ in range(count):
        start = time.perf_counter()
        calibration_chunk()
        secs.append(time.perf_counter() - start)
    return secs


def end_to_end(run, commands, probe):
    setup = statistics.median(run.scaled(probe.label))
    pass_s = sum(statistics.median(run.scaled(c.label)) for c in commands)
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "setup_s": (setup, "s"),
        "pass_s": (pass_s, "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }


def per_layer(run, commands):
    """Sum over commands of the traced execution with the median time at
    reference speed (the lower one of the middle two).

    `traced.pass_s` is at reference speed, like `pass_s`; every other time is
    as measured, and `machine.calibration_s`, the run's mean calibration chunk
    time, says how fast the machine ran (CAL_REFERENCE_S at reference speed)."""
    units = per_layer_units()
    totals = dict.fromkeys(units, 0)
    for c in commands:
        executions = sorted(run.traced[c.label], key=lambda s: s[1])
        wall, scaled, agg = executions[(len(executions) - 1) // 2]
        for key, value in agg.items():
            if key.endswith(".max"):
                totals[key] = max(totals[key], value)
            else:
                totals[key] += value
        totals["cli.startup_s"] += wall - agg["cli.main.total_s"]
        totals["traced.pass_s"] += scaled
    rows_in = totals[f"{FROM_GENERATORS}.rows_in"]
    totals[f"{FROM_GENERATORS}.rank_per_row"] = (
        totals[f"{FROM_GENERATORS}.rank_out"] / rows_in if rows_in else 0.0)
    totals["machine.calibration_s"] = statistics.fmean(run.chunks)
    return {k: (totals[k], units[k]) for k in units}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "corings" / "__init__.py").is_file():
        sys.exit(f"no corings package under {ROOT / 'src'}: nothing to measure")
    stale = corpus.stale_files()
    if stale:
        sys.exit(f"workspaces differ from perfbench/corpus.py: {', '.join(stale)}; "
                 "run python3 perfbench/corpus.py")
    if args.workload.startswith("monoidal"):
        problems = monoidal_preflight()
        if problems:
            sys.exit("monoidal corpus leaves a law uninstantiated: " + "; ".join(problems))

    OUT_DIR.mkdir(exist_ok=True)
    field_tag, commands = WORKLOADS[args.workload](args.seed)
    probe = _dims_probe(commands[0].workspace)
    run = Run(trace=bool(args.trace))
    for control in _controls(field_tag):
        run.execute(control)

    round_ops = list(commands) if args.trace else list(commands) + [probe] * PROBES_PER_ROUND
    rng = random.Random(args.seed)
    begin = time.perf_counter()
    rounds = 0
    while True:
        order = list(round_ops)
        rng.shuffle(order)
        for cmd in order:
            run.execute(cmd)
        rounds += 1
        elapsed = time.perf_counter() - begin
        # Start another round only if it should end within half a round of
        # --seconds, so a run lasts about --seconds whatever the round length.
        if rounds >= MIN_ROUNDS and elapsed * (rounds + 0.5) / rounds >= args.seconds:
            break

    correct = run.failed == 0
    measured = run.traced if args.trace else run.samples
    metrics = {}
    if all(c.label in measured for c in commands + ([] if args.trace else [probe])):
        metrics = per_layer(run, commands) if args.trace else end_to_end(run, commands, probe)
    print(f"workload {args.workload}, seed {args.seed}: {rounds} rounds in {elapsed:.1f} s, "
          f"{run.attempted} operations attempted, {run.failed} failed; "
          f"{len(run.chunks)} calibration chunks, mean "
          f"{statistics.fmean(run.chunks) * 1e3:.2f} ms "
          f"(reference {CAL_REFERENCE_S * 1e3:.2f} ms)")
    if not args.trace:
        (OUT_DIR / f"samples-{args.workload}.json").write_text(json.dumps(
            {"samples": run.samples, "chunks": run.chunks}))
    for label, samples in run.samples.items():
        walls = [wall for wall, _ in samples]
        print(f"  {label}: wall min {min(walls):.3f} s, median {statistics.median(walls):.3f} s, "
              f"max {max(walls):.3f} s over {len(walls)}; median at reference speed "
              f"{statistics.median(run.scaled(label)):.3f} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
