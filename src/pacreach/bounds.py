"""Sample-size bound and its inversion to a confidence level.

The learning guarantee ties three quantities together: the sample
budget, the number of positive results the learned set may cover, and a
knob we call the inverse error rate. With ``samples`` at least
``2 * rate * (positives + ln(rate))`` the learned set is, with
confidence ``1 - 1/rate``, wrong on at most a ``1/rate`` fraction of
draws. Going forward (rate, positives) -> samples is a ceiling; going
backward (samples, positives) -> rate is a root find on a monotone
function.

Counts are arbitrary-precision integers throughout: the number of
covered paths reaches |I|^n, which leaves 64-bit range almost
immediately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ValidationError, check_int, check_real

__all__ = ["PacBound", "rate_for_confidence", "required_samples",
           "solve_confidence", "safety_probability"]

# Above this, an integer no longer fits the double mantissa and the
# bound is evaluated in exact rational arithmetic instead.
_MANTISSA_MAX = 2 ** 53

_REL_TOL = 1e-10


@dataclass(frozen=True)
class PacBound:
    """One consistent assignment of the bound's three quantities."""

    inverse_error: float
    confidence: float
    samples: int
    positives: int


def _confidence(inverse_error: float) -> float:
    """1 - 1/rate, clamped to 0: the guarantee is vacuous at rate <= 1."""
    if inverse_error <= 1.0:
        return 0.0
    return 1.0 - 1.0 / inverse_error


def rate_for_confidence(confidence: float) -> float:
    """The inverse of `_confidence`: the rate 1/(1 - confidence).

    ``confidence`` is a number in (0, 1).
    """
    if not 0.0 < check_real("confidence", confidence) < 1.0:
        raise ValidationError(
            f"confidence must lie in (0, 1), got {confidence}")
    return 1.0 / (1.0 - confidence)


def required_samples(inverse_error: float, positives: int) -> int:
    """Smallest integer sample budget satisfying the bound.

    Exact: the product is formed as a rational number of the float
    inputs, so the ceiling never suffers double rounding.
    ``inverse_error`` is a finite number above 1, ``positives`` an int
    >= 0.
    """
    if not 1.0 < check_real("inverse error rate", inverse_error) < math.inf:
        raise ValidationError(f"inverse error rate must be finite and "
                              f"exceed 1, got {inverse_error}")
    check_int("covered-count bound d_bound (--d-bound)", positives, 0)
    rate = Fraction(inverse_error)
    log_term = Fraction(math.log(inverse_error))
    return math.ceil(2 * rate * (positives + log_term))


def _bound_value(rate: float, positives: float) -> float:
    return 2.0 * rate * (positives + math.log(rate))


def solve_confidence(samples: int, positives: int) -> PacBound:
    """Invert the bound: find the rate whose budget equals ``samples``.

    2*r*(positives + ln r) is strictly increasing wherever it is
    positive, so for any samples >= 1 there is exactly one solution;
    bisection converges unconditionally. Rates at or below 1 clamp to
    confidence 0. ``samples`` is an int >= 1, ``positives`` an int >= 0.
    """
    check_int("samples", samples, 1)
    check_int("covered-count bound d_bound (--d-bound)", positives, 0)

    if positives > _MANTISSA_MAX:
        # The solution is microscopic; ln(rate) is noise next to
        # `positives`, so the exact rational ratio is already far inside
        # the bisection tolerance. Confidence is 0 out here regardless.
        rate = float(Fraction(samples, 2 * positives))
        return PacBound(rate, 0.0, samples, positives)

    d = float(positives)

    lo = 1e-12
    while _bound_value(lo, d) >= samples:
        lo /= 2.0
    hi = 2.0
    while _bound_value(hi, d) < samples:
        hi *= 2.0

    while hi - lo > _REL_TOL * hi:
        mid = (lo + hi) / 2.0
        if _bound_value(mid, d) < samples:
            lo = mid
        else:
            hi = mid
    rate = (lo + hi) / 2.0
    return PacBound(rate, _confidence(rate), samples, positives)


def safety_probability(safe_count: int, alphabet_size: int, horizon: int) -> float:
    """safe_count / alphabet_size**horizon as a correctly rounded double.

    Each argument is an int; ``alphabet_size`` and ``horizon`` are >= 1,
    and ``safe_count`` lies in 0..alphabet_size**horizon.
    """
    check_int("alphabet size", alphabet_size, 1)
    total = alphabet_size ** check_int("horizon", horizon, 1)
    if not 0 <= check_int("safe count", safe_count) <= total:
        raise ValidationError(
            f"safe count {safe_count} outside 0..{total} "
            f"(= {alphabet_size}^{horizon}); exact counting required")
    return float(Fraction(safe_count, total))
