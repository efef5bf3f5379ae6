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

An entry may instead name a standard object, `{"fixture": {"kind": NAME, ...}}`:
`FIXTURES` holds the builder of each fixture name of each kind of object, and
`SECTIONS` the parser of each section, in load order.

The shape of every value is checked before it reaches a constructor (exit 2):
action lists must be arrays of matrices, group tables non-empty arrays of
arrays of integers, an algebra's table arrays of arrays of coordinate vectors
and its unit an array, and `labels`, when present, exactly `dim` strings.  No
label or object name may hold a line break, since a report prints each on one
line (`one_line`, which holds every command-line argument to the same rule).
Every bimodule built from file data is validated before a tensor over an algebra is
presented from it, since presentations assume the bimodule laws: named modules
by `Bimodule.check` (exit 1), inline coring carriers by the same check at parse
time and the algebra map of a Sweedler fixture by `check_algebra_morphism`
inside `sweedler_coring` (both exit 2, as input errors), and the actions of
extensions and ext morphisms (by `check_ext_morphism`, in the same load loop)
and the algebra map of a corings morphism by their checkers, whose first law
is exactly that.
"""

import json
import sys
from contextlib import contextmanager
from itertools import chain

from .algebras import (
    AlgebraMorphism,
    FinDimAlgebra,
    check_algebra,
    dual_numbers,
    ground_algebra,
    group_algebra,
)
from .bimodules import Bimodule
from .category import (
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
from .coring import Coring, check_coring
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


class Workspace:
    """The loaded objects by section; `named`, (kind, object) by name, with
    the kinds of `CHECKERS`; and `verdicts`: the passing verdict that load
    reached on each object, keyed by (kind, name)."""

    def __init__(self, field):
        self.field = field
        self.algebras = {}
        self.modules = {}
        self.corings = {}
        self.extensions = {}
        self.morphisms = {}
        self.named = {}
        self.verdicts = {}

    def find(self, name):
        """Resolve a name, which names one object of one section, to (kind, object)."""
        if name not in self.named:
            raise UnknownReference(f'no object named "{name}"')
        return self.named[name]


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


class _Entry(dict):
    """A JSON object of the document, recording the keys read from it."""

    __slots__ = ("read",)

    def __init__(self, pairs):
        super().__init__(pairs)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return dict.__getitem__(self, key)

    def get(self, key, default=None):
        self.read.add(key)
        return dict.get(self, key, default)


def _known_keys(spec, what):
    """Reject a key of `spec`, or of an object under a key read from it, that
    its parser never read: a misspelt or stray key is bad input."""
    for key, value in spec.items():
        if key not in spec.read:
            raise WorkspaceSyntaxError(f"{what}: unknown key {key!r}")
        if isinstance(value, _Entry):
            _known_keys(value, f"{what}: {key}")


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


def one_line(text, what):
    """`text`, which a report prints on one line: no line break may split it."""
    if "".join(text.splitlines()) != text:
        raise WorkspaceSyntaxError(f"{what} {text!r} breaks a report line")
    return text


def _labels(spec, dim, what):
    labels = spec.get("labels")
    if labels is not None and not (
        isinstance(labels, list) and len(labels) == dim
        and all(isinstance(x, str) for x in labels)
    ):
        raise WorkspaceSyntaxError(f"{what}: labels must be {dim} strings")
    for label in labels or ():
        one_line(label, f"{what}: label")
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


def _ref(ws, section, spec, key, what):
    """The object of the workspace section (e.g. "corings") named by `spec[key]`."""
    ref = _require(spec, key, what)
    if not isinstance(ref, str):
        raise WorkspaceSyntaxError(f"{what}: {section[:-1]} reference must be a name")
    loaded = getattr(ws, section)
    if ref not in loaded:
        raise UnknownReference(f'no object named "{ref}"')
    return loaded[ref]


def _algebra_map(ws, fx, what):
    """The algebra map `map` of a fixture, from its algebra `source` to `target`."""
    src = _ref(ws, "algebras", fx, "source", what)
    tgt = _ref(ws, "algebras", fx, "target", what)
    return AlgebraMorphism(
        src, tgt, _mat(ws.field, _require(fx, "map", what), src.dim, tgt.dim, what)
    )


def _grouplike_morphism(ws, fx, what):
    src = _ref(ws, "corings", fx, "source", what)
    tgt = _ref(ws, "corings", fx, "target", what)
    if src.base != tgt.base:
        raise WorkspaceSyntaxError(f"{what}: source and target must be corings over one base")
    mapping = _require(fx, "mapping", what)
    if (
        not isinstance(mapping, list)
        or len(mapping) != src.dim
        or any(i.__class__ is not int or not 0 <= i < tgt.dim for i in mapping)
    ):
        raise WorkspaceSyntaxError(
            f"{what}: mapping must list {src.dim} indices in [0, {tgt.dim})"
        )
    return grouplike_corings_morphism(src, tgt, mapping)


def _on_coring(build):
    """The builder of a fixture that is `build` of the coring its `coring` key names."""
    return lambda ws, fx, what: build(_ref(ws, "corings", fx, "coring", what))


# The right extensions a coring has by itself, in both spellings a workspace uses.
_EXTENSIONS = tuple(map(_on_coring, (ext_identity, ext_to_unit, ext_to_trivial)))

# The fixture builders of each kind of object, by fixture name.  A builder
# reads its keys from the fixture object: builder(ws, fixture, what).
FIXTURES = {
    "algebra": {
        "ground": lambda ws, fx, what: ground_algebra(ws.field),
        "dual_numbers": lambda ws, fx, what: dual_numbers(ws.field),
        "group_algebra": lambda ws, fx, what: group_algebra(ws.field, _group_table(fx, what)),
    },
    "coring": {
        "trivial": lambda ws, fx, what: trivial_coring(_ref(ws, "algebras", fx, "algebra", what)),
        "unit": lambda ws, fx, what: unit_coring(ws.field),
        "matrix_coalgebra":
            lambda ws, fx, what: matrix_coalgebra(_positive_int(fx, "n", what), ws.field),
        "grouplike": lambda ws, fx, what: grouplike_coalgebra(_group_table(fx, what), ws.field),
        "sweedler": lambda ws, fx, what: sweedler_coring(_algebra_map(ws, fx, what)),
    },
    "extension": dict(zip(("regular", "unit", "trivial"), _EXTENSIONS)),
    "ext-morphism": dict(zip(("identity", "to-unit", "to-trivial"), _EXTENSIONS)),
    "corings-morphism": {
        "identity": _on_coring(corings_identity),
        "counit": _on_coring(counit_corings_morphism),
        "trivial": lambda ws, fx, what: trivial_corings_morphism(_algebra_map(ws, fx, what)),
        "grouplike": _grouplike_morphism,
    },
}


def _fixture(ws, kind, spec, what):
    """The object of kind `kind` that the `fixture` of `spec` names and parameterizes."""
    fx = _object(spec["fixture"], f"{what}: fixture")
    name = _require(fx, "kind", what)
    builders = FIXTURES[kind]
    if not isinstance(name, str) or name not in builders:
        raise WorkspaceSyntaxError(f"{what}: unknown fixture kind {name!r}")
    return builders[name](ws, fx, what)


def _parse_algebra(ws, name, spec):
    what = f"algebra {name}"
    if "fixture" in spec:
        with _input_errors(what):
            return _fixture(ws, "algebra", spec, what)
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


def _parse_module(ws, name, spec):
    what = f"module {name}"
    left = _ref(ws, "algebras", spec, "left", what)
    right = _ref(ws, "algebras", spec, "right", what)
    dim = _positive_int(spec, "dim", what)
    left_action = _actions(ws, spec, "left_action", dim, what)
    right_action = _actions(ws, spec, "right_action", dim, what)
    with _input_errors(what):
        return Bimodule(left, right, dim, left_action, right_action, _labels(spec, dim, what))


def _parse_coring(ws, name, spec):
    what = f"coring {name}"
    if "fixture" in spec:
        with _input_errors(what):
            return _fixture(ws, "coring", spec, what)
    base = _ref(ws, "algebras", spec, "base", what)
    carrier_spec = _require(spec, "carrier", what)
    if isinstance(carrier_spec, str):
        carrier = _ref(ws, "modules", spec, "carrier", what)
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
        return _fixture(ws, "extension", spec, what)
    c = _ref(ws, "corings", spec, "coring", what)
    d = _ref(ws, "corings", spec, "by", what)
    mats = _actions(ws, spec, "right_action", c.dim, what)
    if len(mats) != d.base.dim:
        raise WorkspaceSyntaxError(
            f"{what}: need one right-action matrix per basis element of the new base"
        )
    lift = _mat(ws.field, _require(spec, "coaction_lift", what), c.dim, c.dim * d.dim, what)
    return ExtMorphism(c, d, mats, lift)


def _parse_morphism(ws, name, spec):
    """(kind, morphism), the kind "ext" or "corings"."""
    what = f"morphism {name}"
    kind = _require(spec, "kind", what)
    if kind not in ("ext", "corings"):
        raise WorkspaceSyntaxError(f"{what}: kind must be 'ext' or 'corings'")
    if "fixture" in spec:
        return kind, _fixture(ws, f"{kind}-morphism", spec, what)
    src = _ref(ws, "corings", spec, "source", what)
    tgt = _ref(ws, "corings", spec, "target", what)
    with _input_errors(what):
        if kind == "ext":
            dim_b = tgt.base.dim
            action = _mat(ws.field, _require(spec, "action", what), src.dim * dim_b, src.dim, what)
            return kind, ExtMorphism(
                src, tgt,
                [Mat(ws.field, src.dim, src.dim, action.rows[j::dim_b]) for j in range(dim_b)],
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


# The sections in load order, each with its parser: an entry may name objects
# of the sections before its own.
SECTIONS = {
    "algebras": _parse_algebra,
    "modules": _parse_module,
    "corings": _parse_coring,
    "extensions": _parse_extension,
    "morphisms": _parse_morphism,
}


def _validate(ws, kind, name, obj):
    """Check `obj` with the checker of its kind and keep it and the verdict;
    a failed law aborts the load."""
    verdict = CHECKERS[kind](obj)
    if not verdict.ok:
        raise ValidationFailure(name, verdict.law, verdict.witness)
    ws.named[name] = kind, obj
    ws.verdicts[kind, name] = verdict


def parse_workspace(text, source="<workspace>"):
    """Parse and validate a workspace document; load means validate.

    A section's names and entry objects are checked before any of its entries
    is parsed, and each entry is validated before the next is parsed.  A name
    that an earlier section already holds is a syntax error, so that
    `Workspace.find` resolves every name to one object.  A key
    given twice in one object is a syntax error, where `json` would keep the
    last value and drop the first unseen, and so is a key, at any depth of an
    entry or of `field`, that its parser does not read (`_known_keys`).
    """
    def one_value_per_key(pairs):
        obj = _Entry(pairs)
        if len(obj) < len(pairs):
            keys = [key for key, _ in pairs]
            twice = next(key for i, key in enumerate(keys) if key in keys[:i])
            raise WorkspaceSyntaxError(f"{source}: key {twice!r} given twice")
        return obj

    try:
        doc = json.loads(text, object_pairs_hook=one_value_per_key)
    except json.JSONDecodeError as e:
        raise WorkspaceSyntaxError(f"{source}:{e.lineno}: {e.msg}")
    except RecursionError:
        raise WorkspaceSyntaxError(f"{source}: arrays or objects nested too deep")
    except ValueError:  # an integer literal past the interpreter's limit on digits
        raise WorkspaceSyntaxError(f"{source}: a number has too many digits")
    if not isinstance(doc, dict):
        raise WorkspaceSyntaxError(f"{source}: top level must be an object")
    for key in doc:
        if key != "field" and key not in SECTIONS:
            raise WorkspaceSyntaxError(f"{source}: unknown top-level key {key!r}")
    if "field" not in doc:
        raise WorkspaceSyntaxError(f"{source}: missing top-level key 'field'")
    ws = Workspace(_parse_field(doc["field"]))
    _known_keys(doc["field"], "field")
    for section, parse in SECTIONS.items():
        what = section[:-1]
        specs = _object(doc.get(section, {}), f"{source}: {section}")
        entries = [(one_line(name, f"{what} name"), _object(spec, f"{what} {name}"))
                   for name, spec in specs.items()]
        for name, _ in entries:
            held = next((s for s in SECTIONS if name in getattr(ws, s)), None)
            if held is not None:
                raise WorkspaceSyntaxError(
                    f'{source}: {section}: "{name}" already names an entry of {held}')
        loaded = getattr(ws, section)
        for name, spec in entries:
            value = parse(ws, name, spec)
            _known_keys(spec, f"{what} {name}")
            if section == "morphisms":
                _validate(ws, f"{value[0]}-morphism", name, value[1])
            else:
                _validate(ws, what, name, value)
            loaded[name] = value
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
    """The algebra with each sparse element written as a dense coordinate list:
    table row i is the left regular matrix of a_i, the unit a one-row matrix."""
    out = {
        "dim": a.dim,
        "table": [mat_to_json(a.left_regular_mat(i)) for i in range(a.dim)],
        "unit": mat_to_json(Mat(a.field, 1, a.dim, [a.unit]))[0],
    }
    if a.labels is not None:
        out["labels"] = list(a.labels)
    return out


class Dumper:
    """Collects a self-contained workspace fragment for constructed objects.

    An algebra or coring equal to a workspace entry is written under that
    entry's name, one equal to an object the dump already generated a name
    for under that name, and anything else under the next generated
    `<prefix>_<n>` that neither the workspace nor the dump uses.
    """

    def __init__(self, ws):
        self.ws = ws
        self.doc = {"field": field_to_json(ws.field), **{section: {} for section in SECTIONS}}
        self._anon = 0
        self._made = {"algebras": {}, "corings": {}}

    def _fresh(self, prefix):
        while True:
            self._anon += 1
            name = f"{prefix}_{self._anon}"
            if not any(name in getattr(self.ws, s) or name in self.doc[s] for s in SECTIONS):
                return name

    def _named(self, section, obj, to_json):
        """The name of `obj` in `section`, its entry written under it."""
        entries, made = self.doc[section], self._made[section]
        for name, known in chain(getattr(self.ws, section).items(), made.items()):
            if known == obj:
                break
        else:
            name = self._fresh(section[:-1])
            made[name] = obj
        if name not in entries:
            entries[name] = to_json(obj)
        return name

    def algebra(self, a):
        return self._named("algebras", a, algebra_to_json)

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

    def _put(self, section, name, entry):
        """Write `entry` under `name`.  A name the dump also writes in another
        section would hide one of the two entries from `Workspace.find`, so
        it is refused (exit 2)."""
        other = next((s for s in SECTIONS if s != section and name in self.doc[s]), None)
        if other is not None:
            raise WorkspaceError(f'cannot dump "{name}": the dump\'s {other} also use that name')
        self.doc[section][name] = entry
        return name

    def coring(self, c, name=None):
        if name is None:
            return self._named("corings", c, self.coring_json)
        return self._put("corings", name, self.coring_json(c))

    def extension(self, e, name):
        return self._put("extensions", name, {
            "coring": self.coring(e.source),
            "by": self.coring(e.target),
            "right_action": [mat_to_json(x) for x in e.action_mats],
            "coaction_lift": mat_to_json(e.coact_lift),
        })

    def morphism(self, kind, m, name):
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
        return self._put("morphisms", name, entry)

    def text(self):
        doc = {k: v for k, v in self.doc.items() if k == "field" or v}
        return json.dumps(doc, indent=2) + "\n"
