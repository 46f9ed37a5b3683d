"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes: validation problems exit
with 2, transport failures with 3 and resource caps with 4.
"""


class PacreachError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(PacreachError):
    """Invalid model, symbol, horizon or argument."""


class ParseError(ValidationError):
    """Malformed model or monomial text.

    Carries the 1-based ``line`` (and ``column`` when known) of the
    offending token, and the ``message`` without them.
    """

    def __init__(self, message, line=None, column=None):
        self.message = message
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f"line {line}"
            if column is not None:
                where += f", column {column}"
            where += ": "
        super().__init__(where + message)


class TransportError(PacreachError):
    """A black-box endpoint timed out, hung up or violated the protocol."""


class ResourceCapError(PacreachError):
    """An enumeration or expansion exceeded its configured cap."""


class SamplingCapError(ResourceCapError):
    """No safe example was found within the attempt budget.

    Usually means the safety probability is (near) zero, or the safety
    predicate of the queried system is broken.
    """

    def __init__(self, attempts):
        self.attempts = attempts
        super().__init__(f"no safe example found in {attempts} attempts")
