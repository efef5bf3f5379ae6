"""Exception hierarchy shared by the whole library."""


class CoringsError(Exception):
    """Base class for every error raised by this package."""


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
    """Base class for workspace-file problems; `exit_code` drives the CLI."""

    exit_code = 2
    kind = "error"


class WorkspaceSyntaxError(WorkspaceError):
    kind = "syntax"


class UnknownReference(WorkspaceError):
    kind = "unknown-reference"


class ValidationFailure(WorkspaceError):
    """A loaded object failed its mathematical validator."""

    exit_code = 1
    kind = "validation"

    def __init__(self, object_name, law, witness):
        super().__init__(f"{object_name}: {law}: {witness}")
        self.object_name = object_name
        self.law = law
        self.witness = witness
