"""Exception hierarchy shared by the whole library.

Each error carries the report that ends a command it stops, which `cli.main`
writes: `error: <kind>`, the lines of `fields()`, `result:` and `exit_code`.
Bad input raises `CoringsError` with a message that says what is wrong.  A
subclass exists only where a handler catches it by name or where it carries
a report of its own.
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


class DescentFailure(CoringsError):
    """An ambient map does not send source relations into target relations.

    Signals a non-bilinear input pair to an induced tensor map; the
    extension checker reports it as a `colinearity` witness.
    """


class WorkspaceError(CoringsError):
    """Base class for workspace-file problems, which loading passes on unchanged."""


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
