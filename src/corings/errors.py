"""Exception hierarchy shared by the whole library.

Each error carries the report that ends a command it stops, which `cli.main`
writes: `error: <kind>`, the lines of `fields()`, `result:` and `exit_code`.
"""


class CoringsError(Exception):
    """Base class for every error raised by this package: by default bad
    input (exit 2), reported with its message as `detail`."""

    kind = "invalid-input"
    result = "error"
    exit_code = 2

    def fields(self):
        """The report lines that follow `error:`."""
        return {"detail": str(self)}


class FieldMismatch(CoringsError):
    """Two operands live over different scalar fields."""


class DimensionMismatch(CoringsError):
    """Matrix or module dimensions are incompatible."""


class AlgebraMismatch(CoringsError):
    """A tensor-over-an-algebra was requested across different middle algebras."""


class DescentFailure(CoringsError):
    """An ambient map does not send source relations into target relations.

    Signals a non-bilinear input pair to an induced tensor map.
    """


class ObjectMismatch(CoringsError):
    """Composition was requested for morphisms that do not share an endpoint."""


class NotInjective(CoringsError):
    """An algebra inclusion required to be injective has a kernel."""


class InvalidMorphism(CoringsError):
    """A morphism failed its validity check where a valid one was required."""


class WorkspaceError(CoringsError):
    """Base class for workspace-file problems, raised bare where a dump is refused."""


class WorkspaceSyntaxError(WorkspaceError):
    kind = "syntax"


class UnknownReference(WorkspaceError):
    kind = "unknown-reference"


class ValidationFailure(WorkspaceError):
    """A loaded object failed its mathematical validator: raised with the
    object's name, the law and the witness."""

    kind = "validation"
    result = "fail"
    exit_code = 1

    def fields(self):
        return dict(zip(("object", "law", "witness"), self.args))
