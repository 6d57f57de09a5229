"""Exception types shared across the package, and how their messages show user text."""


class SiftmineError(Exception):
    """Base class for every error raised by this package."""


class InputError(SiftmineError):
    """Malformed data, file content, or argument value."""


class ConstraintSyntaxError(InputError):
    """Constraint text that does not follow the grammar.

    Carries the 1-based line and column of the offending fragment when
    they are known.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + where)


class KindMismatchError(InputError):
    """An operation was applied across different pattern kinds."""


class BoundExceededError(SiftmineError):
    """An exhaustive search was asked to exceed its configured size bound."""


def shown(token: str) -> str:
    """A user token for an error message: quoted by repr(), cut to its first 40 characters and its length when longer."""
    if len(token) <= 40:
        return repr(token)
    return f"{token[:40]!r}... ({len(token)} characters)"


def shown_number(n: int) -> str:
    """A user number for an error message: its digits, cut to the first 40 and the digit count when longer."""
    digits = str(n)
    return digits if len(digits) <= 40 else f"{digits[:40]}... ({len(digits)} digits)"
