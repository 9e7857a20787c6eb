"""Error taxonomy shared by the library and the CLI.

The CLI maps these onto process exit codes: bad input files exit 2,
verification failures exit 1, internal invariant breaches exit 3.
"""

from __future__ import annotations


class CartwheelError(Exception):
    """Base class for every error this package raises deliberately."""


class InputError(CartwheelError):
    """A rules / configuration / presentation file is malformed.

    Carries an optional 1-based line number and path so the CLI can
    point at the offending line.
    """

    def __init__(self, message: str, line: int | None = None, path: str | None = None):
        self.message = message
        self.line = line
        self.path = path
        super().__init__(message)

    def __str__(self) -> str:
        where = ""
        if self.path is not None:
            where += self.path
        if self.line is not None:
            where += f":{self.line}"
        if where:
            return f"{where}: {self.message}"
        return self.message


def records(text):
    """Yield (line number, fields) for every line of text that holds
    anything once its '#' comment is cut.  Lines end at '\\n' only, so
    form feeds and Unicode line separators are just whitespace."""
    for no, raw in enumerate(text.split("\n"), start=1):
        fields = raw.split("#", 1)[0].split()
        if fields:
            yield no, fields


def integers(fields, message, line, path):
    """The fields as ints, each an optional '-' followed by ASCII
    digits; anything else raises InputError(message, line, path)."""
    # on fields free of whitespace, as records gives them, int() takes
    # just those once '+', '_' and non-ASCII digits are ruled out
    text = "".join(fields)
    if text.isascii() and "+" not in text and "_" not in text:
        try:
            return list(map(int, fields))
        except ValueError:
            pass
    raise InputError(message, line, path)


class VerificationFailure(CartwheelError):
    """The inputs parsed fine but the proof does not check out."""

    def __init__(self, message: str, line: int | None = None):
        self.message = message
        self.line = line
        super().__init__(message)

    def __str__(self) -> str:
        if self.line is not None:
            return f"line {self.line}: {self.message}"
        return self.message


class ReducibilityFailure(VerificationFailure):
    """No good configuration appears well-positioned in some refinement.

    `axle` is the refinement that defeated the search and `trail` the
    stack of (position, lowered upper bound) choices that led there.
    """

    def __init__(self, message: str, axle, trail, line: int | None = None):
        super().__init__(message, line)
        self.axle = axle
        self.trail = trail


class InternalInvariantError(CartwheelError):
    """A self-check that should be unreachable fired; the run is void."""
