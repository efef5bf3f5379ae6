"""Command-line front end.

    corings [-h] --workspace PATH [--json-report] [--seed INT] COMMAND NAME...
            [--out NAME] [--dump PATH]

The global options come before the command: `--workspace` (required),
`--json-report`, and `--seed`, an int (default 0).  A command takes the
positional names of its row in `COMMANDS`, in order; `verify-monoidal`
takes a key of `category.CATEGORIES`, `ext` or `corings`, and checks the
laws of that category's record.  `--out` and `--dump` come after the
command, in any order with its names, and only `tensor`, `extend-tensor`,
`compose` and `base-extend` take them; the dump refuses an `--out` name that
it also writes in another section (exit 2).  An option takes its value after
`=` or as the next argument, which must not read as an option: `-1` and `-`
are values, `-x` is not.  A unique prefix of a long option stands for it,
and the last of a repeated option wins.  `--` after the command ends the
options: a name that starts with `-` goes after it.  `-h` or `--help` prints
the usage and the commands, from the same tables, to stdout and exits 0.  A
command line that does not parse prints the usage and the error to stderr
and exits 2.

Every command loads a workspace (loading validates every object), runs, and
emits a structured report: `key: value` lines in a fixed order, or the same
data as JSON with --json-report.  Each law line reads `pass`, `fail`,
`skipped` (not reached after a failure) or `vacuous` (held on zero instances,
e.g. when no re-association triple fits the verifier's size cap).  A verdict
ends a command in `_finish`: exit 0 all checks pass, 1 a mathematical check
failed (witness printed).  An error ends it in `main`, with the report and
exit code the `CoringsError` carries (`errors`), or 2 for an I/O error.
"""

import gc
import os
import re
import sys
from types import SimpleNamespace

from .category import (
    CATEGORIES,
    base_ring_extension,
    check_ext_morphism,
    ext_compose_via_cotensor,
    ext_tensor_morphisms,
    verify_monoidal,
)
from .constructions import tensor_coring
from .coring import check_coring
from .errors import CoringsError, UnknownReference
from .verdict import Verdict, first_difference
from .workspace import Dumper, load_workspace, one_line


def _law_lines(report, verdict, prefix="check"):
    for law in verdict.laws_declared:
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
    _law_lines(report, verdict)
    return _finish(ws, args, report, verdict)


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
    return _finish(ws, args, report, Verdict.passed())


def _finish(ws, args, report, verdict, add=None):
    """Report the verdict and return the exit code.

    Only a passing result is dumped: `add(dumper)` fills the workspace
    fragment written to --dump, if given.  An empty path is given too: opening
    it fails, an I/O error (exit 2).
    """
    report["result"] = "pass" if verdict.ok else "fail"
    if verdict.ok and add is not None and args.dump is not None:
        dumper = Dumper(ws)
        add(dumper)
        with open(args.dump, "w", encoding="utf-8") as fh:
            fh.write(dumper.text())
        report["dumped"] = args.dump
    return 0 if verdict.ok else 1


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
    _law_lines(report, verdict)
    return _finish(ws, args, report, verdict, lambda dumper: dumper.coring(t, out_name))


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
    _law_lines(report, verdict)
    return _finish(ws, args, report, verdict, lambda dumper: dumper.extension(t, out_name))


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
    category = CATEGORIES[kind_g]
    composed = category.compose(g, f)
    verdict = category.check(composed)
    _law_lines(report, verdict)
    if kind_g == "ext" and verdict.ok:
        # The oracle shares the composite's endpoints and action: only a
        # coaction row can differ, and the first that does is the witness.
        oracle = ext_compose_via_cotensor(g, f, composed)
        i = first_difference(composed.coaction,
                             composed.coaction_tensor.quot.project_rows(oracle.coact_lift))
        report["oracle.cotensor-route"] = "equal" if i is None else "mismatch"
        if i is not None:
            # No checker declares this law, so `_law_lines` adds only `law:` and `witness:`.
            verdict = Verdict.failed("cotensor-route", f"{composed.source.label(i)}: the bullet "
                                     "coaction differs from the cotensor route")
            _law_lines(report, verdict)
    return _finish(ws, args, report, verdict,
                   lambda dumper: dumper.morphism(kind_g, composed, out_name))


def _cmd_base_extend(ws, args, report):
    m = _want(ws, args.morphism, "corings-morphism")[1]
    report["morphism"] = args.morphism
    out_name = args.out or "result"
    report["out"] = out_name
    ext = base_ring_extension(m)
    report["coring-dim"] = str(ext.source.dim)
    report["base-dim"] = str(ext.source.base.dim)
    verdict = check_coring(ext.source)
    _law_lines(report, verdict, prefix="coring")
    if not verdict.ok:
        return _finish(ws, args, report, verdict)
    verdict = check_ext_morphism(ext)
    _law_lines(report, verdict)
    return _finish(ws, args, report, verdict,
                   lambda dumper: dumper.morphism("ext", ext, out_name))


def _cmd_verify_monoidal(ws, args, report):
    corings = list(ws.corings.values())
    # The extensions are morphisms of the extension category too.
    morphisms = [*(ws.extensions.values() if args.category == "ext" else ()),
                 *(m for kind, m in ws.morphisms.values() if kind == args.category)]
    report["category"] = args.category
    report["corings"] = str(len(corings))
    report["morphisms"] = str(len(morphisms))
    report["seed"] = str(args.seed)
    verdict = verify_monoidal(CATEGORIES[args.category], corings, morphisms, args.seed)
    _law_lines(report, verdict)
    return _finish(ws, args, report, verdict)


COMMANDS = {  # command: (handler, positional names, takes --out and --dump, help)
    "check": (_cmd_check, ("name",), False, "run the validator of a named object"),
    "dims": (_cmd_dims, ("name",), False, "report the dimensions of a named object"),
    "tensor": (_cmd_tensor, ("left", "right"), True, "tensor two corings and check the result"),
    "extend-tensor": (_cmd_extend_tensor, ("left", "right"), True, "tensor two right extensions"),
    "compose": (_cmd_compose, ("first", "second"), True,
                "compose two morphisms (second, then first)"),
    "base-extend": (_cmd_base_extend, ("morphism",), True,
                    "base ring extension of a corings morphism"),
    "verify-monoidal": (_cmd_verify_monoidal, ("category",), False,
                        "monoidal-category laws on the workspace"),
}
CHOICES = {"command": COMMANDS, "category": CATEGORIES}
GLOBAL_OPTIONS = {  # option: (attribute, metavar, help); no metavar for a flag
    "--workspace": ("workspace", "PATH", "workspace JSON file (required)"),
    "--json-report": ("json_report", None, "emit the report as JSON"),
    "--seed": ("seed", "INT", "seed for randomized property commands (default 0)"),
}
RESULT_OPTIONS = {
    "--out": ("out", "NAME", 'name of the result in the dump (default "result")'),
    "--dump": ("dump", "PATH", "write the result as a workspace file"),
}
HELP = ("-h", "--help")
USAGE = "usage: corings [-h] --workspace PATH [--json-report] [--seed INT] COMMAND ..."
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _fail(message):
    sys.stderr.write(f"{USAGE}\ncorings: error: {message}\n")
    raise SystemExit(2)


def _columns(rows):
    width = max(len(left) for left, _ in rows) + 2
    return [f"  {left:<{width}}{right}" for left, right in rows]


def _help():
    """Print the usage, the commands and the options to stdout, and exit 0."""
    def spelled(name):
        return "{%s}" % ",".join(CHOICES[name]) if name in CHOICES else name.upper()

    def option_rows(options):
        return [(f"{o} {metavar}" if metavar else o, text)
                for o, (_, metavar, text) in options.items()]

    *takers, last = [command for command, row in COMMANDS.items() if row[2]]
    lines = [
        USAGE, "",
        "Exact computations with corings, coring extensions, and their monoidal categories.",
        "", "commands:",
        *_columns([(" ".join([command, *map(spelled, names)]), text)
                   for command, (_, names, _, text) in COMMANDS.items()]),
        "", "options, before the command:",
        *_columns([("-h, --help", "show this help and exit"), *option_rows(GLOBAL_OPTIONS)]),
        "", f"options after {', '.join(takers)} or {last}:",
        *_columns(option_rows(RESULT_OPTIONS)),
        "",
        'An option takes its value as the next argument or after "=", and a unique',
        'prefix of its name stands for it.  "--" after the command ends the options:',
        'a name that starts with "-" goes after it.',
    ]
    sys.stdout.write("\n".join(lines) + "\n")
    raise SystemExit(0)


def _option(arg, options):
    """How `arg` reads among `options` and -h/--help: None for a positional,
    else (option, the value attached to it or None), where the option is None
    for one that this level does not know.

    A value is attached after "=", or to -h directly; a long option may be
    shortened to any prefix that no other option shares.  A negative number,
    a lone "-" and anything with a space are positionals.
    """
    if not arg.startswith("-") or arg == "-":
        return None
    if arg in options or arg in HELP:
        return arg, None
    name, eq, value = arg.partition("=")
    if eq and (name in options or name in HELP):
        return name, value
    if arg[1] == "-":
        matches = [o for o in ("--help", *options) if o.startswith(name)]
        if len(matches) > 1:
            _fail(f"ambiguous option: {arg} could match {', '.join(matches)}")
        if matches:
            return matches[0], value if eq else None
    elif arg[1] == "h":
        return "-h", arg[2:]
    if _NEGATIVE_NUMBER.match(arg) or " " in arg:
        return None
    return None, None


def _read(argv, options, names, args, extras):
    """Read one level of the command line into `args`: the options `options`
    and -h/--help, and the positionals `names` in order.

    Every argument before the first "--" is classified first, so that an
    ambiguous abbreviation fails before anything is read.  Unknown options
    and positionals past `names` go to `extras`.  At the top level `names` is
    ("command",): the command ends the level, and the index after it is
    returned.  A "--" there is read as the command, which no command is.
    """
    end = argv.index("--") if "--" in argv else len(argv)
    kinds = [_option(arg, options) for arg in argv[:end]]
    names = list(names)
    filled = None  # the index of the last positional read
    i = 0
    while i < len(argv):
        arg, kind = argv[i], kinds[i] if i < end else None
        i += 1
        if i - 1 == end and "command" not in names:
            # The "--" goes with a positional right before or after it, else it is an extra.
            if filled != i - 2 and not (names and i < len(argv)):
                extras.append(arg)
        elif kind is None:
            if not names:
                extras.append(arg)
                continue
            name = names.pop(0)
            if name in CHOICES and arg not in CHOICES[name]:
                choices = ", ".join(map(repr, CHOICES[name]))
                _fail(f"argument {name}: invalid choice: {arg!r} (choose from {choices})")
            args[name] = arg
            filled = i - 1
            if name == "command":
                return i
        elif kind[0] is None:
            extras.append(arg)
        elif kind[0] in HELP:
            value = kind[1]
            if value is None or kind[0] == "-h" and value and not value.strip("h"):
                _help()
            _fail(f"argument -h/--help: ignored explicit argument {value!r}")
        else:
            option, value = kind
            attr, metavar, _ = options[option]
            if metavar is None:
                if value is not None:
                    _fail(f"argument {option}: ignored explicit argument {value!r}")
                value = True
            elif value is None:
                if i == end or kinds[i] is not None:
                    _fail(f"argument {option}: expected one argument")
                value = argv[i]
                i += 1
            if metavar == "INT":
                try:
                    value = int(value)
                except ValueError:
                    _fail(f"argument {option}: invalid int value: {value!r}")
            args[attr] = value
    return i


def parse_args(argv):
    """The command line `argv` as a namespace, one attribute each.

    The attributes are `workspace`, `json_report`, `seed`, `command`, the
    command's positional names and, where it takes them, `out` and `dump`;
    an option not given reads None (`json_report` False, `seed` 0).
    -h/--help prints the help to stdout and raises SystemExit(0).  A command
    line that does not parse prints the usage and the error to stderr and
    raises SystemExit(2).
    """
    argv = list(argv)
    args = {"workspace": None, "json_report": False, "seed": 0, "command": None}
    extras = []
    start = _read(argv, GLOBAL_OPTIONS, ("command",), args, extras)
    command = args["command"]
    if command is not None:
        _, names, takes_result, _ = COMMANDS[command]
        options = RESULT_OPTIONS if takes_result else {}
        args.update(dict.fromkeys([*names, *(attr for attr, _, _ in options.values())]))
        _read(argv[start:], options, names, args, extras)
        missing = [name for name in names if args[name] is None]
        if missing:
            _fail(f"the following arguments are required: {', '.join(missing)}")
    missing = [what for what in ("--workspace", "command") if args[what.lstrip("-")] is None]
    if missing:
        _fail(f"the following arguments are required: {', '.join(missing)}")
    if extras:
        _fail(f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(**args)


# `main` holds every string argument to `one_line`, since each can reach a report
# line; the positional arguments are object names.
_ARGUMENT_WHAT = {"workspace": "--workspace path", "out": "--out name", "dump": "--dump path"}


def _render(report, as_json, stream):
    if as_json:
        import json

        stream.write(json.dumps(report, indent=2) + "\n")
    else:
        for k, v in report.items():
            stream.write(f"{k}: {v}\n")


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    report = {"command": args.command}
    try:
        for key, value in vars(args).items():
            if isinstance(value, str):
                one_line(value, _ARGUMENT_WHAT.get(key, "object name"))
        ws = load_workspace(args.workspace)
        code = COMMANDS[args.command][0](ws, args, report)
    except CoringsError as e:
        report.update(error=e.kind, **e.fields(), result=e.result)
        code = e.exit_code
    except OSError as e:
        report.update(error="io", detail=str(e), result="error")
        code = 2
    _render(report, args.json_report, sys.stdout)
    return code


def run():
    """The entry point of `python -m corings[.cli]` and the `corings` script."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader of the output went away, as `| head -1` does: the report is
        # lost, an I/O error (exit 2).  Point stdout at the null device so that
        # the interpreter's own flush at exit does not fail on the pipe again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 2
    # Once the report is written, the interpreter's exit is pure cost, and most
    # of it is the final garbage collections walking and freeing every object
    # the collector tracks, the modules loaded at start-up included.  Freezing
    # moves every object out of their reach.  Exit stays normal otherwise:
    # atexit handlers, the flush of the standard streams and the exit code.
    # - Not `os._exit`: it skips all three, and a caller that runs this module
    #   and catches SystemExit, such as a tracer that writes its spans
    #   afterwards, would never get control back.
    # - Not a freeze before `main`: everything the call builds would still be
    #   left to the exit collections.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
