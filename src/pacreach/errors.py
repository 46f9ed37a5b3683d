"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes: validation problems exit
with 2, transport failures with 3 and resource caps with 4.
"""


class PacreachError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(PacreachError):
    """Invalid model, symbol, horizon or argument."""


def check_int(name, value, low=None, high=None):
    """``value`` if it is an int, not a bool, within [low, high].

    The one rule for every count argument (a horizon, a budget, a seed,
    a port); anything else raises ValidationError naming ``name``.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{name} must be an int, got {value!r}")
    if low is not None and value < low:
        raise ValidationError(f"{name} must be >= {low}, got {value}")
    if high is not None and value > high:
        raise ValidationError(f"{name} must be <= {high}, got {value}")
    return value


def check_real(name, value):
    """``value`` if it is an int or a float, not a bool; the caller
    checks its range. Anything else raises ValidationError naming
    ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    return value


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
