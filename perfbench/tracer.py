"""Run one `corings` command with spans around the public functions of each layer.

Usage: python3 perfbench/tracer.py TRACE_OUT -- <corings arguments>

Behaves like `python -m corings <arguments>` (same report, same exit code),
after wrapping the functions in LAYERS wherever a `corings` module holds a
reference to them.  Every call becomes a span (function, parent span, start,
end) held in memory; at exit they are written once to TRACE_OUT (a JSON header
line with the sizes read off `tensor_over_alg` results and the
`from_generators` row counts, then the spans as one JSON line).  The program itself is not modified.
"""

from __future__ import annotations

import functools
import importlib
import json
import runpy
import sys
import time

# layer (module) -> wrapped public functions; "Class.method" wraps a method,
# a bare class name wraps its constructor.
LAYERS = {
    "workspace": ["parse_workspace"],
    "cli": ["main"],
    "category": [
        "verify_ext_monoidal", "verify_corings_monoidal", "check_ext_morphism",
        "check_corings_morphism", "ext_compose", "ext_compose_via_cotensor",
        "ext_tensor_morphisms", "corings_tensor_morphisms",
    ],
    "constructions": [
        "tensor_coring", "tensor_extension", "right_extension_verdict",
        "base_ring_extension", "sweedler_coring",
    ],
    "coring": [
        "Coring", "check_coring", "right_coaction_verdict",
        "coaction_compatibility", "cotensor",
    ],
    "bimodules": ["tensor_over_alg", "induced_map_on_tensor", "associator"],
    "linalg": [
        "Subspace.from_generators", "Subspace.contains", "kernel", "quotient",
        "Mat.rref", "Mat.__matmul__", "Mat.kron",
    ],
}

TENSOR = "bimodules.tensor_over_alg"
FROM_GENERATORS = "linalg.Subspace.from_generators"


class Recorder:
    """Spans and per-call sizes of one process, kept in memory until exit."""

    def __init__(self):
        self.names = []
        self.spans = []  # [name index, parent span index or -1, start, end]
        self.stack = []
        self.tensor_sizes = []  # [ambient dim, relation rank, quotient dim]
        self.tensor_inputs = []  # (m, n) argument pairs, fingerprinted at exit
        self.generator_rows = []  # [rows in, rank out]

    def wrap(self, name, fn):
        fid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        if name == TENSOR:
            note = self._note_tensor
        elif name == FROM_GENERATORS:
            note = self._note_generators
        else:
            note = None

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [fid, stack[-1] if stack else -1, 0.0, 0.0]
            spans.append(span)
            stack.append(idx)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if note is not None:
                note(args, result)
            return result

        return functools.wraps(fn)(traced)

    def _note_tensor(self, args, result):
        quot = result.quot
        self.tensor_sizes.append([quot.ambient_dim, quot.relations.dim, quot.dim])
        self.tensor_inputs.append((args[0], args[1]))

    def _note_generators(self, args, result):
        # args: (cls, field, ambient_dim, gens); both call sites pass a list.
        self.generator_rows.append([len(args[3]), result.dim])

    def repeats(self):
        """tensor_over_alg calls whose (m, n) equals an earlier call's pair."""
        memo = {}
        seen = set()
        count = 0
        for m, n in self.tensor_inputs:
            key = (_fingerprint(m, memo), _fingerprint(n, memo))
            if key in seen:
                count += 1
            seen.add(key)
        return count

    def dump(self, path):
        """Write everything at once: a JSON header line, then the spans.

        `exit_s` is the time spent here fingerprinting and serialising before
        the write; the benchmark takes it off the child's wall time.
        """
        start = time.perf_counter()
        spans = json.dumps(self.spans, separators=(",", ":"))
        header = {
            "names": self.names,
            "tensor_sizes": self.tensor_sizes,
            "tensor_repeats": self.repeats(),
            "generator_rows": self.generator_rows,
        }
        header["exit_s"] = time.perf_counter() - start
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, separators=(",", ":")) + "\n" + spans)


def _mat_key(m):
    return (m.field.p, m.nrows, m.ncols, tuple(tuple(sorted(r.items())) for r in m.rows))


def _fingerprint(bimodule, memo):
    """Structural key of a bimodule: what Bimodule.__eq__ compares."""
    key = memo.get(id(bimodule))
    if key is None:
        algs = tuple(
            (a.field.p, a.dim, repr(a.table), repr(a.unit))
            for a in (bimodule.left_alg, bimodule.right_alg)
        )
        key = (
            algs,
            bimodule.dim,
            tuple(_mat_key(m) for m in bimodule.left_act),
            tuple(_mat_key(m) for m in bimodule.right_act),
        )
        memo[id(bimodule)] = key
    return key


def install(recorder):
    """Wrap every function in LAYERS in every loaded `corings` module.

    A function the program no longer has is skipped, so its metrics read 0.
    """
    for layer in LAYERS:
        importlib.import_module(f"corings.{layer}")
    modules = [m for n, m in sys.modules.items() if n == "corings" or n.startswith("corings.")]
    for layer, targets in LAYERS.items():
        mod = sys.modules[f"corings.{layer}"]
        for target in targets:
            name = f"{layer}.{target}"
            if "." in target:
                cls_name, meth = target.split(".")
                raw = vars(getattr(mod, cls_name, object)).get(meth)
                if isinstance(raw, classmethod):
                    setattr(getattr(mod, cls_name), meth,
                            classmethod(recorder.wrap(name, raw.__func__)))
                elif raw is not None:
                    setattr(getattr(mod, cls_name), meth, recorder.wrap(name, raw))
                continue
            orig = getattr(mod, target, None)
            if orig is None:
                continue
            if isinstance(orig, type):
                orig.__init__ = recorder.wrap(name, orig.__init__)
                continue
            traced = recorder.wrap(name, orig)
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, traced)


def main():
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        sys.stderr.write("usage: tracer.py TRACE_OUT -- <corings arguments>\n")
        return 2
    out = sys.argv[1]
    recorder = Recorder()
    install(recorder)
    sys.argv = ["corings"] + sys.argv[3:]
    code = 0
    try:
        runpy.run_module("corings", run_name="__main__", alter_sys=True)
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else (0 if e.code is None else 1)
    recorder.dump(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
