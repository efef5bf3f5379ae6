"""Declarative JSON workspaces: parse, validate on load, and dump.

A workspace file has top-level keys `field`, `algebras`, `modules`, `corings`,
`extensions`, `morphisms`.  Matrices are arrays of arrays of scalar strings
("3/4" over the rationals, "2" over a prime field; plain ints are accepted,
floats and booleans are rejected as inexact or not numbers).
Comultiplications and coactions are given as lifts into the ambient (x)_k
space with row-major pair indexing, so files never depend on internal pivot
choices.  An extension lists its new right action as one matrix per basis
element of the new base; an `ext` morphism spells the same data as one
interleaved matrix C (x)_k B -> C, split on load and joined on dump here, so
that both load as `category.ExtMorphism`.  Loading validates every object; the
first violation aborts with the object name and a witness.

The shape of every value is checked before it reaches a constructor (exit 2):
action lists must be arrays of matrices, group tables non-empty arrays of
arrays of integers, an algebra's table arrays of arrays of coordinate vectors
and its unit an array, and `labels`, when present, exactly `dim` strings.  Every
bimodule built from file data is validated before a tensor over an algebra is
presented from it, since presentations assume the bimodule laws: named modules
by `Bimodule.check` (exit 1), inline coring carriers by the same check at parse
time and the algebra map of a Sweedler fixture by `check_algebra_morphism`
inside `sweedler_coring` (both exit 2, as input errors), and the actions of
extensions and ext morphisms (by `check_ext_morphism`, in the same load loop)
and the algebra map of a corings morphism by their checkers, whose first law
is exactly that.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager

from .algebras import (
    ALGEBRA_LAWS,
    AlgebraMorphism,
    FinDimAlgebra,
    check_algebra,
    dual_numbers,
    ground_algebra,
    group_algebra,
)
from .bimodules import BIMODULE_LAWS, Bimodule
from .category import (
    CORINGS_MORPHISM_LAWS,
    EXT_MORPHISM_LAWS,
    MONOIDAL_LAWS,
    CoringsMorphism,
    ExtMorphism,
    check_corings_morphism,
    check_ext_morphism,
    corings_identity,
    counit_corings_morphism,
    ext_identity,
    ext_to_trivial,
    ext_to_unit,
    grouplike_corings_morphism,
    trivial_corings_morphism,
)
from .constructions import (
    grouplike_coalgebra,
    matrix_coalgebra,
    sweedler_coring,
    trivial_coring,
    unit_coring,
)
from .coring import CORING_LAWS, Coring, check_coring
from .errors import (
    CoringsError,
    UnknownReference,
    ValidationFailure,
    WorkspaceError,
    WorkspaceSyntaxError,
)
from .linalg import Field, Mat

# The checker of each kind of object: loading runs it on every object, and
# keeps the verdict for `Workspace.verdicts`.
CHECKERS = {
    "algebra": check_algebra,
    "module": Bimodule.check,
    "coring": check_coring,
    "extension": check_ext_morphism,
    "ext-morphism": check_ext_morphism,
    "corings-morphism": check_corings_morphism,
}

LAWS_BY_KIND = {
    "algebra": ALGEBRA_LAWS,
    "module": BIMODULE_LAWS,
    "coring": CORING_LAWS,
    "extension": EXT_MORPHISM_LAWS,
    "ext-morphism": EXT_MORPHISM_LAWS,
    "corings-morphism": CORINGS_MORPHISM_LAWS,
    "monoidal": MONOIDAL_LAWS,
}


class Workspace:
    """The loaded objects by section, and `verdicts`: the passing verdict that
    load reached on each, keyed by (kind, name) with the kinds of `find`."""

    def __init__(self, field):
        self.field = field
        self.algebras = {}
        self.modules = {}
        self.corings = {}
        self.extensions = {}
        self.morphisms = {}
        self.verdicts = {}

    def find(self, name):
        """Resolve a name to (kind, object) across all sections."""
        if name in self.corings:
            return "coring", self.corings[name]
        if name in self.algebras:
            return "algebra", self.algebras[name]
        if name in self.modules:
            return "module", self.modules[name]
        if name in self.extensions:
            return "extension", self.extensions[name]
        if name in self.morphisms:
            kind, obj = self.morphisms[name]
            return f"{kind}-morphism", obj
        raise UnknownReference(f'no object named "{name}"')


@contextmanager
def _input_errors(what):
    """Report a constructor's rejection of file data as a syntax error in `what`.

    A `WorkspaceError` (a bad reference, or a syntax error already naming
    its object) passes unchanged.
    """
    try:
        yield
    except WorkspaceError:
        raise
    except (CoringsError, ValueError, TypeError, ZeroDivisionError) as e:
        raise WorkspaceSyntaxError(f"{what}: {e}")


def _mat(field, data, nrows=None, ncols=None, what="matrix"):
    if not isinstance(data, list) or not all(isinstance(r, list) for r in data):
        raise WorkspaceSyntaxError(f"{what} must be an array of arrays of scalars")
    with _input_errors(what):
        m = Mat.from_rows(field, data) if data else Mat(field, 0, ncols or 0, [])
    if nrows is not None and m.nrows != nrows:
        raise WorkspaceSyntaxError(f"{what}: expected {nrows} rows, got {m.nrows}")
    if ncols is not None and m.ncols != ncols:
        raise WorkspaceSyntaxError(f"{what}: expected {ncols} columns, got {m.ncols}")
    return m


def _object(value, what):
    if not isinstance(value, dict):
        raise WorkspaceSyntaxError(f"{what}: expected an object")
    return value


def _require(spec, key, what):
    if key not in spec:
        raise WorkspaceSyntaxError(f"{what}: missing key {key!r}")
    return spec[key]


def _positive_int(spec, key, what):
    value = _require(spec, key, what)
    if value.__class__ is not int or value < 1:
        raise WorkspaceSyntaxError(f"{what}: {key} must be a positive integer")
    return value


def _labels(spec, dim, what):
    labels = spec.get("labels")
    if labels is not None and not (
        isinstance(labels, list) and len(labels) == dim
        and all(isinstance(x, str) for x in labels)
    ):
        raise WorkspaceSyntaxError(f"{what}: labels must be {dim} strings")
    return labels


def _group_table(fx, what):
    table = _require(fx, "table", what)
    if not isinstance(table, list) or not table or not all(
        isinstance(row, list) and all(x.__class__ is int for x in row) for row in table
    ):
        raise WorkspaceSyntaxError(
            f"{what}: table must be a non-empty array of arrays of integers"
        )
    return table


def _actions(ws, spec, key, dim, what):
    """The dim x dim matrices of the array `spec[key]`."""
    mats = _require(spec, key, what)
    if not isinstance(mats, list):
        raise WorkspaceSyntaxError(f"{what}: {key} must be an array of matrices")
    return [_mat(ws.field, m, dim, dim, what) for m in mats]


def _parse_field(spec):
    if not isinstance(spec, dict) or "kind" not in spec:
        raise WorkspaceSyntaxError('field: expected {"kind": "rationals" | "prime"}')
    kind = spec["kind"]
    if kind == "rationals":
        return Field.rationals()
    if kind == "prime":
        with _input_errors("field"):
            return Field.prime(_positive_int(spec, "p", "field"))
    raise WorkspaceSyntaxError(f"field: unknown kind {kind!r}")


def _parse_algebra(ws, name, spec):
    what = f"algebra {name}"
    if "fixture" in spec:
        fx = _object(spec["fixture"], f"{what}: fixture")
        kind = _require(fx, "kind", what)
        if kind == "ground":
            return ground_algebra(ws.field)
        if kind == "dual_numbers":
            return dual_numbers(ws.field)
        if kind == "group_algebra":
            with _input_errors(what):
                return group_algebra(ws.field, _group_table(fx, what))
        raise WorkspaceSyntaxError(f"{what}: unknown fixture kind {kind!r}")
    dim = _positive_int(spec, "dim", what)
    table = _require(spec, "table", what)
    unit = _require(spec, "unit", what)
    labels = _labels(spec, dim, what)
    if not isinstance(table, list) or not all(
        isinstance(row, list) and all(isinstance(vec, list) for vec in row) for row in table
    ):
        raise WorkspaceSyntaxError(f"{what}: table must be arrays of coordinate vectors")
    if not isinstance(unit, list):
        raise WorkspaceSyntaxError(f"{what}: unit must be an array of scalars")
    with _input_errors(what):
        return FinDimAlgebra(ws.field, dim, table, unit, labels)


def _get_algebra(ws, ref, what):
    if not isinstance(ref, str):
        raise WorkspaceSyntaxError(f"{what}: algebra reference must be a name")
    if ref not in ws.algebras:
        raise UnknownReference(f'no object named "{ref}"')
    return ws.algebras[ref]


def _parse_module(ws, name, spec):
    what = f"module {name}"
    left = _get_algebra(ws, _require(spec, "left", what), what)
    right = _get_algebra(ws, _require(spec, "right", what), what)
    dim = _positive_int(spec, "dim", what)
    left_action = _actions(ws, spec, "left_action", dim, what)
    right_action = _actions(ws, spec, "right_action", dim, what)
    with _input_errors(what):
        return Bimodule(left, right, dim, left_action, right_action, _labels(spec, dim, what))


def _get_coring(ws, ref, what):
    if not isinstance(ref, str):
        raise WorkspaceSyntaxError(f"{what}: coring reference must be a name")
    if ref not in ws.corings:
        raise UnknownReference(f'no object named "{ref}"')
    return ws.corings[ref]


def _parse_coring(ws, name, spec):
    what = f"coring {name}"
    if "fixture" in spec:
        fx = _object(spec["fixture"], f"{what}: fixture")
        kind = _require(fx, "kind", what)
        with _input_errors(what):
            if kind == "trivial":
                return trivial_coring(_get_algebra(ws, _require(fx, "algebra", what), what))
            if kind == "unit":
                return unit_coring(ws.field)
            if kind == "matrix_coalgebra":
                return matrix_coalgebra(_positive_int(fx, "n", what), ws.field)
            if kind == "grouplike":
                return grouplike_coalgebra(_group_table(fx, what), ws.field)
            if kind == "sweedler":
                src = _get_algebra(ws, _require(fx, "source", what), what)
                tgt = _get_algebra(ws, _require(fx, "target", what), what)
                inc = AlgebraMorphism(
                    src, tgt, _mat(ws.field, _require(fx, "map", what), src.dim, tgt.dim, what)
                )
                return sweedler_coring(inc)
        raise WorkspaceSyntaxError(f"{what}: unknown fixture kind {kind!r}")
    base = _get_algebra(ws, _require(spec, "base", what), what)
    carrier_spec = _require(spec, "carrier", what)
    if isinstance(carrier_spec, str):
        if carrier_spec not in ws.modules:
            raise UnknownReference(f'no object named "{carrier_spec}"')
        carrier = ws.modules[carrier_spec]
    else:
        carrier = _parse_module(
            ws, f"{name}.carrier", _object(carrier_spec, f"{what}: carrier")
        )
        v = carrier.check()
        if not v.ok:
            raise WorkspaceSyntaxError(f"{what}: carrier: {v.law}: {v.witness}")
    with _input_errors(what):
        return Coring(
            base,
            carrier,
            _mat(ws.field, _require(spec, "comul_lift", what),
                 carrier.dim, carrier.dim**2, what),
            _mat(ws.field, _require(spec, "counit", what), carrier.dim, base.dim, what),
        )


def _parse_extension(ws, name, spec):
    what = f"extension {name}"
    if "fixture" in spec:
        fx = _object(spec["fixture"], f"{what}: fixture")
        kind = _require(fx, "kind", what)
        c = _get_coring(ws, _require(fx, "coring", what), what)
        builders = {"regular": ext_identity, "unit": ext_to_unit, "trivial": ext_to_trivial}
        if not isinstance(kind, str) or kind not in builders:
            raise WorkspaceSyntaxError(f"{what}: unknown fixture kind {kind!r}")
        return builders[kind](c)
    c = _get_coring(ws, _require(spec, "coring", what), what)
    d = _get_coring(ws, _require(spec, "by", what), what)
    mats = _actions(ws, spec, "right_action", c.dim, what)
    if len(mats) != d.base.dim:
        raise WorkspaceSyntaxError(
            f"{what}: need one right-action matrix per basis element of the new base"
        )
    lift = _mat(ws.field, _require(spec, "coaction_lift", what), c.dim, c.dim * d.dim, what)
    return ExtMorphism(c, d, mats, lift)


def _split_action(m, dim_c, dim_b):
    """The interleaved action C (x)_k B -> C of a file entry, one matrix per basis element."""
    return [
        Mat(m.field, dim_c, dim_c, [m.rows[i * dim_b + j] for i in range(dim_c)])
        for j in range(dim_b)
    ]


def _parse_morphism(ws, name, spec):
    what = f"morphism {name}"
    kind = _require(spec, "kind", what)
    if kind not in ("ext", "corings"):
        raise WorkspaceSyntaxError(f"{what}: kind must be 'ext' or 'corings'")
    if "fixture" in spec:
        fx = _object(spec["fixture"], f"{what}: fixture")
        fkind = _require(fx, "kind", what)
        if kind == "ext":
            builders = {
                "identity": ext_identity,
                "to-unit": ext_to_unit,
                "to-trivial": ext_to_trivial,
            }
            if not isinstance(fkind, str) or fkind not in builders:
                raise WorkspaceSyntaxError(f"{what}: unknown fixture kind {fkind!r}")
            return kind, builders[fkind](_get_coring(ws, _require(fx, "coring", what), what))
        if fkind == "identity":
            return kind, corings_identity(_get_coring(ws, _require(fx, "coring", what), what))
        if fkind == "counit":
            return kind, counit_corings_morphism(
                _get_coring(ws, _require(fx, "coring", what), what)
            )
        if fkind == "trivial":
            src = _get_algebra(ws, _require(fx, "source", what), what)
            tgt = _get_algebra(ws, _require(fx, "target", what), what)
            f = AlgebraMorphism(
                src, tgt, _mat(ws.field, _require(fx, "map", what), src.dim, tgt.dim, what)
            )
            return kind, trivial_corings_morphism(f)
        if fkind == "grouplike":
            src = _get_coring(ws, _require(fx, "source", what), what)
            tgt = _get_coring(ws, _require(fx, "target", what), what)
            mapping = _require(fx, "mapping", what)
            if (
                not isinstance(mapping, list)
                or len(mapping) != src.dim
                or any(i.__class__ is not int or not 0 <= i < tgt.dim for i in mapping)
            ):
                raise WorkspaceSyntaxError(
                    f"{what}: mapping must list {src.dim} indices in [0, {tgt.dim})"
                )
            return kind, grouplike_corings_morphism(src, tgt, mapping)
        raise WorkspaceSyntaxError(f"{what}: unknown fixture kind {fkind!r}")
    src = _get_coring(ws, _require(spec, "source", what), what)
    tgt = _get_coring(ws, _require(spec, "target", what), what)
    with _input_errors(what):
        if kind == "ext":
            action = _mat(ws.field, _require(spec, "action", what),
                          src.dim * tgt.base.dim, src.dim, what)
            return kind, ExtMorphism(
                src, tgt,
                _split_action(action, src.dim, tgt.base.dim),
                _mat(ws.field, _require(spec, "coaction_lift", what),
                     src.dim, src.dim * tgt.dim, what),
            )
        varphi = AlgebraMorphism(
            src.base, tgt.base,
            _mat(ws.field, _require(spec, "alg_map", what),
                 src.base.dim, tgt.base.dim, what),
        )
        return kind, CoringsMorphism(
            src, tgt,
            _mat(ws.field, _require(spec, "phi", what), src.dim, tgt.dim, what),
            varphi,
        )


def _validate(ws, kind, name, obj):
    """Check `obj` with the checker of its kind and keep the verdict; a failed
    law aborts the load."""
    verdict = CHECKERS[kind](obj)
    if not verdict.ok:
        raise ValidationFailure(name, verdict.law, verdict.witness)
    ws.verdicts[kind, name] = verdict


def parse_workspace(text, source="<workspace>"):
    """Parse and validate a workspace document; load means validate."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise WorkspaceSyntaxError(f"{source}:{e.lineno}: {e.msg}")
    except RecursionError:
        raise WorkspaceSyntaxError(f"{source}: arrays or objects nested too deep")
    except ValueError:  # an integer literal past the interpreter's limit on digits
        raise WorkspaceSyntaxError(f"{source}: a number has too many digits")
    if not isinstance(doc, dict):
        raise WorkspaceSyntaxError(f"{source}: top level must be an object")
    for key in doc:
        if key not in ("field", "algebras", "modules", "corings", "extensions", "morphisms"):
            raise WorkspaceSyntaxError(f"{source}: unknown top-level key {key!r}")
    if "field" not in doc:
        raise WorkspaceSyntaxError(f"{source}: missing top-level key 'field'")
    ws = Workspace(_parse_field(doc["field"]))

    def entries(section):
        specs = _object(doc.get(section, {}), f"{source}: {section}")
        return [
            (name, _object(spec, f"{section[:-1]} {name}"))
            for name, spec in specs.items()
        ]

    for name, spec in entries("algebras"):
        a = _parse_algebra(ws, name, spec)
        _validate(ws, "algebra", name, a)
        ws.algebras[name] = a
    for name, spec in entries("modules"):
        m = _parse_module(ws, name, spec)
        _validate(ws, "module", name, m)
        ws.modules[name] = m
    for name, spec in entries("corings"):
        c = _parse_coring(ws, name, spec)
        _validate(ws, "coring", name, c)
        ws.corings[name] = c
    for name, spec in entries("extensions"):
        e = _parse_extension(ws, name, spec)
        _validate(ws, "extension", name, e)
        ws.extensions[name] = e
    for name, spec in entries("morphisms"):
        kind, m = _parse_morphism(ws, name, spec)
        _validate(ws, f"{kind}-morphism", name, m)
        ws.morphisms[name] = (kind, m)
    return ws


def load_workspace(path):
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as e:
            raise WorkspaceSyntaxError(f"{path}: not UTF-8 at byte {e.start}")
    return parse_workspace(text, source=str(path))


def field_to_json(field):
    if field.is_prime_field:
        return {"kind": "prime", "p": field.p}
    return {"kind": "rationals"}


def _scalar_json(field, x):
    """The file text of scalar x, which loading reads back as x.

    An integer past the interpreter's limit on digits has no such text: it
    is an error (exit 2), never the digit count `Field.fmt` shows in a
    witness, so no dump is written that cannot be loaded.
    """
    try:
        return str(x)
    except ValueError:
        raise WorkspaceError(
            f"cannot dump the scalar {field.fmt(x)}: a workspace loads no integer "
            f"past {sys.get_int_max_str_digits()} digits"
        ) from None


def mat_to_json(m):
    field = m.field
    return [[_scalar_json(field, x) for x in row] for row in m.to_lists()]


def algebra_to_json(a):
    field = a.field
    out = {
        "dim": a.dim,
        "table": [[[_scalar_json(field, x) for x in vec] for vec in row] for row in a.table],
        "unit": [_scalar_json(field, x) for x in a.unit],
    }
    if a.labels is not None:
        out["labels"] = list(a.labels)
    return out


class Dumper:
    """Collects a self-contained workspace fragment for constructed objects.

    Objects structurally equal to a workspace entry are written back under
    their existing name; anything else gets a deterministic generated name.
    """

    def __init__(self, ws):
        self.ws = ws
        self.doc = {
            "field": field_to_json(ws.field),
            "algebras": {},
            "modules": {},
            "corings": {},
            "extensions": {},
            "morphisms": {},
        }
        self._anon = 0

    def _fresh(self, prefix):
        self._anon += 1
        return f"{prefix}_{self._anon}"

    def algebra(self, a):
        for name, known in self.ws.algebras.items():
            if known == a:
                self.doc["algebras"].setdefault(name, algebra_to_json(a))
                return name
        for name, entry in self.doc["algebras"].items():
            if name not in self.ws.algebras and entry == algebra_to_json(a):
                return name
        name = self._fresh("algebra")
        self.doc["algebras"][name] = algebra_to_json(a)
        return name

    def module_json(self, m):
        out = {
            "left": self.algebra(m.left_alg),
            "right": self.algebra(m.right_alg),
            "dim": m.dim,
            "left_action": [mat_to_json(x) for x in m.left_act],
            "right_action": [mat_to_json(x) for x in m.right_act],
        }
        if m.labels is not None:
            out["labels"] = list(m.labels)
        return out

    def coring_json(self, c):
        return {
            "base": self.algebra(c.base),
            "carrier": self.module_json(c.carrier),
            "comul_lift": mat_to_json(c.comul_lift),
            "counit": mat_to_json(c.counit_mat),
        }

    def coring(self, c, name=None):
        if name is None:
            for known_name, known in self.ws.corings.items():
                if known == c:
                    self.doc["corings"].setdefault(known_name, self.coring_json(c))
                    return known_name
            name = self._fresh("coring")
        self.doc["corings"][name] = self.coring_json(c)
        return name

    def extension(self, e, name=None):
        entry = {
            "coring": self.coring(e.source),
            "by": self.coring(e.target),
            "right_action": [mat_to_json(x) for x in e.action_mats],
            "coaction_lift": mat_to_json(e.coact_lift),
        }
        if name is None:
            name = self._fresh("extension")
        self.doc["extensions"][name] = entry
        return name

    def morphism(self, kind, m, name=None):
        if kind == "ext":
            # Join the per-basis matrices into the file's interleaved C (x)_k B -> C.
            mats = [mat_to_json(x) for x in m.action_mats]
            entry = {
                "kind": "ext",
                "source": self.coring(m.source),
                "target": self.coring(m.target),
                "action": [rows[i] for i in range(m.source.dim) for rows in mats],
                "coaction_lift": mat_to_json(m.coact_lift),
            }
        else:
            entry = {
                "kind": "corings",
                "source": self.coring(m.source),
                "target": self.coring(m.target),
                "phi": mat_to_json(m.phi),
                "alg_map": mat_to_json(m.varphi.map),
            }
        if name is None:
            name = self._fresh("morphism")
        self.doc["morphisms"][name] = entry
        return name

    def text(self):
        doc = {k: v for k, v in self.doc.items() if k == "field" or v}
        return json.dumps(doc, indent=2) + "\n"
