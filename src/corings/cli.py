"""Command-line front end.

Every command loads a workspace (loading validates every object), runs, and
emits a structured report: `key: value` lines in a fixed order, or the same
data as JSON with --json-report.  Each law line reads `pass`, `fail`,
`skipped` (not reached after a failure) or `vacuous` (held on zero instances,
e.g. when no re-association triple fits the verifier's size cap).  Exit codes:
0 all checks pass, 1 a mathematical check failed (witness printed), 2 input
error.
"""

from __future__ import annotations

import argparse
import sys

from .category import (
    base_ring_extension,
    check_corings_morphism,
    check_ext_morphism,
    corings_compose,
    ext_compose,
    ext_compose_via_cotensor,
    ext_morphisms_equal,
    ext_tensor_morphisms,
    verify_corings_monoidal,
    verify_ext_monoidal,
)
from .constructions import tensor_coring
from .coring import check_coring
from .errors import CoringsError, UnknownReference, ValidationFailure, WorkspaceError
from .workspace import LAWS_BY_KIND, Dumper, load_workspace


def _law_lines(report, kind, verdict, prefix="check"):
    laws = LAWS_BY_KIND[kind]
    for law in laws:
        if law in verdict.laws_vacuous:
            status = "vacuous"
        elif law in verdict.laws_passed:
            status = "pass"
        elif law == verdict.law:
            status = "fail"
        else:
            status = "skipped"
        report[f"{prefix}.{law}"] = status
    if not verdict.ok:
        report["law"] = verdict.law
        report["witness"] = verdict.witness


def _cmd_check(ws, args, report):
    """Report the verdict that loading the workspace reached on the object."""
    kind = ws.find(args.name)[0]
    report["object"] = args.name
    report["kind"] = kind
    verdict = ws.verdicts[kind, args.name]
    _law_lines(report, kind, verdict)
    report["result"] = "pass" if verdict.ok else "fail"
    return 0 if verdict.ok else 1


def _cmd_dims(ws, args, report):
    kind, obj = ws.find(args.name)
    report["object"] = args.name
    report["kind"] = kind
    if kind == "algebra":
        report["dim"] = str(obj.dim)
    elif kind == "module":
        report["dim"] = str(obj.dim)
        report["left-algebra-dim"] = str(obj.left_alg.dim)
        report["right-algebra-dim"] = str(obj.right_alg.dim)
    elif kind == "coring":
        report["carrier-dim"] = str(obj.dim)
        report["base-dim"] = str(obj.base.dim)
        report["tensor-square-dim"] = str(obj.tens.dim)
    elif kind == "extension":
        report["coring-dim"] = str(obj.source.dim)
        report["base-dim"] = str(obj.source.base.dim)
        report["by-dim"] = str(obj.target.dim)
        report["by-base-dim"] = str(obj.target.base.dim)
        report["coaction-target-dim"] = str(obj.coaction_tensor.dim)
    else:
        report["source-dim"] = str(obj.source.dim)
        report["target-dim"] = str(obj.target.dim)
    return 0


def _dump(ws, args, report, add):
    """Write the workspace fragment that `add(dumper)` fills to --dump, if given.

    An empty path is given too: opening it fails, an I/O error (exit 2).
    """
    if args.dump is not None:
        dumper = Dumper(ws)
        add(dumper)
        with open(args.dump, "w", encoding="utf-8") as fh:
            fh.write(dumper.text())
        report["dumped"] = args.dump


def _a(kind):
    """A kind name as prose, with its article: "ext-morphism" -> "an ext morphism"."""
    words = kind.replace("-", " ")
    return f"{'an' if words[0] in 'aeiou' else 'a'} {words}"


def _want(ws, name, expected, kinds=None):
    """(kind, object) named `name`, whose kind must be in `kinds` (default: `expected`)."""
    kind, obj = ws.find(name)
    if kind not in (kinds or (expected,)):
        raise UnknownReference(f'"{name}" is {_a(kind)}, expected {_a(expected)}')
    return kind, obj


def _cmd_tensor(ws, args, report):
    c = _want(ws, args.left, "coring")[1]
    c2 = _want(ws, args.right, "coring")[1]
    out_name = args.out or "result"
    t = tensor_coring(c, c2)
    report["left"] = args.left
    report["right"] = args.right
    report["out"] = out_name
    report["carrier-dim"] = str(t.dim)
    report["base-dim"] = str(t.base.dim)
    verdict = check_coring(t)
    _law_lines(report, "coring", verdict)
    report["result"] = "pass" if verdict.ok else "fail"
    _dump(ws, args, report, lambda dumper: dumper.coring(t, out_name))
    return 0 if verdict.ok else 1


def _cmd_extend_tensor(ws, args, report):
    e = _want(ws, args.left, "extension")[1]
    e2 = _want(ws, args.right, "extension")[1]
    out_name = args.out or "result"
    report["left"] = args.left
    report["right"] = args.right
    report["out"] = out_name
    t = ext_tensor_morphisms(e, e2)
    report["coring-dim"] = str(t.source.dim)
    report["by-dim"] = str(t.target.dim)
    verdict = check_ext_morphism(t)
    _law_lines(report, "extension", verdict)
    report["result"] = "pass" if verdict.ok else "fail"
    if verdict.ok:
        _dump(ws, args, report, lambda dumper: dumper.extension(t, out_name))
    return 0 if verdict.ok else 1


def _want_morphism(ws, name):
    kind, obj = _want(ws, name, "morphism", ("ext-morphism", "corings-morphism"))
    return kind.split("-")[0], obj


def _cmd_compose(ws, args, report):
    kind_g, g = _want_morphism(ws, args.first)
    kind_f, f = _want_morphism(ws, args.second)
    if kind_g != kind_f:
        raise UnknownReference(
            f"cannot compose {_a(kind_g + '-morphism')} with {_a(kind_f + '-morphism')}"
        )
    report["kind"] = kind_g
    report["first"] = args.first
    report["second"] = args.second
    out_name = args.out or "result"
    report["out"] = out_name
    if kind_g == "ext":
        composed = ext_compose(g, f)
        verdict = check_ext_morphism(composed)
        _law_lines(report, "ext-morphism", verdict)
        if verdict.ok:
            oracle = ext_compose_via_cotensor(g, f, composed)
            agreed = ext_morphisms_equal(composed, oracle)
            report["oracle.cotensor-route"] = "equal" if agreed else "mismatch"
            if not agreed:
                report["result"] = "fail"
                return 1
    else:
        composed = corings_compose(g, f)
        verdict = check_corings_morphism(composed)
        _law_lines(report, "corings-morphism", verdict)
    report["result"] = "pass" if verdict.ok else "fail"
    if verdict.ok:
        _dump(ws, args, report, lambda dumper: dumper.morphism(kind_g, composed, out_name))
    return 0 if verdict.ok else 1


def _cmd_base_extend(ws, args, report):
    m = _want(ws, args.morphism, "corings-morphism")[1]
    report["morphism"] = args.morphism
    out_name = args.out or "result"
    report["out"] = out_name
    ext = base_ring_extension(m)
    report["coring-dim"] = str(ext.source.dim)
    report["base-dim"] = str(ext.source.base.dim)
    verdict = check_coring(ext.source)
    _law_lines(report, "coring", verdict, prefix="coring")
    if not verdict.ok:
        report["result"] = "fail"
        return 1
    verdict = check_ext_morphism(ext)
    _law_lines(report, "ext-morphism", verdict)
    report["result"] = "pass" if verdict.ok else "fail"
    if verdict.ok:
        _dump(ws, args, report, lambda dumper: dumper.morphism("ext", ext, out_name))
    return 0 if verdict.ok else 1


def _cmd_verify_monoidal(ws, args, report):
    corings = list(ws.corings.values())
    morphisms = [m for kind, m in ws.morphisms.values() if kind == args.category]
    report["category"] = args.category
    report["corings"] = str(len(corings))
    report["morphisms"] = str(len(morphisms))
    report["seed"] = str(args.seed)
    verify = verify_ext_monoidal if args.category == "ext" else verify_corings_monoidal
    verdict = verify(corings, morphisms, seed=args.seed)
    _law_lines(report, "monoidal", verdict)
    report["result"] = "pass" if verdict.ok else "fail"
    return 0 if verdict.ok else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="corings",
        description="Exact computations with corings, coring extensions, and "
        "their monoidal categories.",
    )
    parser.add_argument("--workspace", required=True, help="workspace JSON file")
    parser.add_argument(
        "--json-report", action="store_true", help="emit the report as JSON"
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="seed for randomized property commands"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run the validator of a named object")
    p.add_argument("name")

    p = sub.add_parser("dims", help="report the dimensions of a named object")
    p.add_argument("name")

    p = sub.add_parser("tensor", help="tensor two corings and check the result")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--out", default=None)
    p.add_argument("--dump", default=None, help="write the result as a workspace file")

    p = sub.add_parser("extend-tensor", help="tensor two right extensions")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--out", default=None)
    p.add_argument("--dump", default=None)

    p = sub.add_parser("compose", help="compose two morphisms (second, then first)")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--out", default=None)
    p.add_argument("--dump", default=None)

    p = sub.add_parser("base-extend", help="base ring extension of a corings morphism")
    p.add_argument("morphism")
    p.add_argument("--out", default=None)
    p.add_argument("--dump", default=None)

    p = sub.add_parser("verify-monoidal", help="monoidal-category laws on the workspace")
    p.add_argument("category", choices=["ext", "corings"])
    return parser


_HANDLERS = {
    "check": _cmd_check,
    "dims": _cmd_dims,
    "tensor": _cmd_tensor,
    "extend-tensor": _cmd_extend_tensor,
    "compose": _cmd_compose,
    "base-extend": _cmd_base_extend,
    "verify-monoidal": _cmd_verify_monoidal,
}


def _render(report, as_json, stream):
    if as_json:
        import json

        stream.write(json.dumps(report, indent=2) + "\n")
    else:
        for k, v in report.items():
            stream.write(f"{k}: {v}\n")


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    report = {"command": args.command}
    try:
        ws = load_workspace(args.workspace)
        code = _HANDLERS[args.command](ws, args, report)
    except ValidationFailure as e:
        report["error"] = e.kind
        report["object"] = e.object_name
        report["law"] = e.law
        report["witness"] = e.witness
        report["result"] = "fail"
        code = e.exit_code
    except WorkspaceError as e:
        report["error"] = e.kind
        report["detail"] = str(e)
        report["result"] = "error"
        code = e.exit_code
    except CoringsError as e:
        report["error"] = "invalid-input"
        report["detail"] = str(e)
        report["result"] = "error"
        code = 2
    except OSError as e:
        report["error"] = "io"
        report["detail"] = str(e)
        report["result"] = "error"
        code = 2
    _render(report, args.json_report, sys.stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
