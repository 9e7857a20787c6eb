"""Error taxonomy shared by the library and the CLI.

The CLI maps these onto process exit codes: bad input files exit 2,
verification failures exit 1, internal invariant breaches exit 3.
"""

from __future__ import annotations


class CartwheelError(Exception):
    """Base class for every error this package raises deliberately.

    Carries the message and, when known, the 1-based line.  The library
    reads text, not files, so it names lines only; the CLI sets `path`
    to the file the error is about before it prints the error.
    """

    def __init__(self, message: str, line: int | None = None,
                 path: str | None = None):
        self.message = message
        self.line = line
        self.path = path
        super().__init__(message)

    def __str__(self) -> str:
        if self.path is None:
            if self.line is None:
                return self.message
            return f"line {self.line}: {self.message}"
        if self.line is None:
            return f"{self.path}: {self.message}"
        return f"{self.path}:{self.line}: {self.message}"


class InputError(CartwheelError):
    """A rules / configuration / presentation file is malformed."""


def split_lines(text):
    """The lines of text, each ended by '\\r\\n', '\\r' or '\\n' and by
    nothing else, so form feeds and Unicode line separators are just
    whitespace.  A text that ends with a line break ends with ''."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def records(text):
    """Yield (line number, fields) for every line of text that holds
    anything once its '#' comment is cut."""
    for no, raw in enumerate(split_lines(text), start=1):
        fields = raw.split("#", 1)[0].split()
        if fields:
            yield no, fields


def integers(fields, message, line):
    """The fields as ints, each an optional '-' followed by ASCII
    digits; anything else raises InputError(message, line)."""
    # on fields free of whitespace, as records gives them, int() takes
    # just those once '+', '_' and non-ASCII digits are ruled out
    text = "".join(fields)
    if text.isascii() and "+" not in text and "_" not in text:
        try:
            return list(map(int, fields))
        except ValueError:
            pass
    raise InputError(message, line)


class VerificationFailure(CartwheelError):
    """The inputs parsed fine but the proof does not check out."""


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
