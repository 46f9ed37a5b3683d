import math
import time

import pytest

from pacreach.bounds import (required_samples, safety_probability,
                             solve_confidence)
from pacreach.errors import ValidationError


def test_required_samples_worked_example():
    # 2 * 1.83 * (272 + ln 1.83) = 997.74..., so 998 is the minimum
    assert required_samples(1.83, 272) == 998


def test_required_samples_rate_e():
    assert required_samples(math.e, 0) == 6  # ceil(2e)


def test_required_samples_direct_evaluation():
    assert required_samples(25, 17) == 1011


def test_required_samples_domain():
    with pytest.raises(ValidationError):
        required_samples(1.0, 5)
    with pytest.raises(ValidationError):
        required_samples(0.5, 5)
    with pytest.raises(ValidationError):
        required_samples(2.0, -1)


@pytest.mark.parametrize("rate", [math.inf, -math.inf, math.nan])
def test_required_samples_rejects_a_non_finite_rate(rate):
    with pytest.raises(ValidationError, match="inverse error rate"):
        required_samples(rate, 5)


def test_required_samples_is_minimal():
    # L-1 must violate the bound, L must satisfy it
    for rate, d in [(1.83, 272), (25, 17), (2.0, 0), (7.5, 1234)]:
        L = required_samples(rate, d)
        bound = 2 * rate * (d + math.log(rate))
        assert L >= bound
        assert L - 1 < bound


SOLVE_TABLE = [
    (17, 0.96), (41, 0.91), (99, 0.80),
    (23, 0.95), (71, 0.85), (207, 0.58),
    (952, 0.00), (988, 0.00),
]


@pytest.mark.parametrize("d,want", SOLVE_TABLE)
def test_solve_confidence_reference_values(d, want):
    got = solve_confidence(1000, d)
    assert abs(got.confidence - want) <= 0.01


def test_solve_confidence_satisfies_the_bound_equation():
    for d in (0, 1, 17, 99, 500, 10**6):
        b = solve_confidence(1000, d)
        value = 2 * b.inverse_error * (d + math.log(b.inverse_error))
        assert value == pytest.approx(1000, rel=1e-8)


def test_solve_confidence_clamps_at_rate_one():
    b = solve_confidence(1000, 952)
    assert b.inverse_error < 1
    assert b.confidence == 0.0


def test_solve_confidence_halves_the_lower_bracket_for_a_large_count():
    # 2 * 1e-12 * (1e12 + ln 1e-12) > 1 sample: the solution lies below
    # the first lower bracket
    d = 10**12
    b = solve_confidence(1, d)
    assert b.inverse_error < 1e-12
    value = 2 * b.inverse_error * (d + math.log(b.inverse_error))
    assert value == pytest.approx(1, rel=1e-8)
    assert b.confidence == 0.0


def test_solve_confidence_monotonicity():
    fixed_budget = [solve_confidence(1000, d).confidence
                    for d in (1, 5, 17, 50, 99, 200)]
    assert fixed_budget == sorted(fixed_budget, reverse=True)
    fixed_count = [solve_confidence(L, 17).confidence
                   for L in (50, 100, 500, 1000, 5000)]
    assert fixed_count == sorted(fixed_count)


def test_solve_confidence_round_trips_required_samples():
    for rate, d in [(1.83, 272), (25.0, 17), (4.97, 99), (2.0, 3)]:
        L = required_samples(rate, d)
        back = solve_confidence(L, d)
        # the ceiling adds less than 1 to L; the bound's slope in the
        # rate is at least 2*(d + ln rate)
        slack = 1.0 / (2 * (d + math.log(rate))) + 1e-6
        assert abs(back.inverse_error - rate) <= slack


def test_solve_confidence_huge_count_uses_ratio():
    d = 10 ** 40
    b = solve_confidence(1000, d)
    assert b.confidence == 0.0
    assert b.inverse_error == pytest.approx(1000 / (2 * d))


def test_solve_confidence_validation():
    with pytest.raises(ValidationError):
        solve_confidence(0, 5)
    with pytest.raises(ValidationError):
        solve_confidence(100, -1)


def test_solve_confidence_is_fast():
    t0 = time.perf_counter()
    for d, _ in SOLVE_TABLE:
        solve_confidence(1000, d)
    per_call = (time.perf_counter() - t0) / len(SOLVE_TABLE)
    assert per_call < 1e-3


def test_safety_probability_examples():
    assert safety_probability(272, 4, 5) == 0.265625
    assert safety_probability(17, 3, 3) == pytest.approx(17 / 27)
    assert safety_probability(0, 3, 3) == 0.0
    assert safety_probability(27, 3, 3) == 1.0


def test_safety_probability_range_errors():
    with pytest.raises(ValidationError):
        safety_probability(28, 3, 3)
    with pytest.raises(ValidationError):
        safety_probability(-1, 3, 3)
    with pytest.raises(ValidationError):
        safety_probability(1, 0, 3)


def test_safety_probability_refuses_horizon_zero():
    with pytest.raises(ValidationError, match="horizon must be >= 1, got 0"):
        safety_probability(1, 2, 0)


def test_safety_probability_big_integers():
    # exact rational division survives counts far beyond double range
    total_exp = 400
    assert safety_probability(3 ** total_exp, 3, total_exp) == 1.0
    assert safety_probability(3 ** 399, 3, 400) == pytest.approx(1 / 3)
