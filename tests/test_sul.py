import itertools
import random
from collections import Counter

import pytest

from pacreach.errors import ValidationError
from pacreach.models import build_alks
from pacreach.sul import MachineSafetyQuery


def test_adapter_agrees_with_trace_exhaustively():
    for with_assist in (False, True):
        machine = build_alks(with_assist)
        sul = MachineSafetyQuery(machine)
        for n in range(1, 5):
            for seq in itertools.product(machine.inputs, repeat=n):
                assert sul.is_safe(seq) == machine.trace(seq).safe


def test_verdict_examples():
    without = MachineSafetyQuery(build_alks(False))
    with_assist = MachineSafetyQuery(build_alks(True))
    assert without.is_safe(["l", "l", "s"]) is False
    assert with_assist.is_safe(["l", "l", "s"]) is True


def test_query_counter_counts_answered_queries():
    sul = MachineSafetyQuery(build_alks(False))
    assert sul.query_count == 0
    sul.is_safe(["s"])
    sul.is_safe(["l", "l"])
    assert sul.query_count == 2
    with pytest.raises(ValidationError):
        sul.is_safe(["nope"])
    assert sul.query_count == 2  # failed queries are not answered


def test_queries_are_deterministic():
    sul = MachineSafetyQuery(build_alks(False))
    seq = ("l", "r", "s", "l", "l")
    assert sul.is_safe(seq) == sul.is_safe(seq)


def test_unknown_symbol_is_validation_error():
    sul = MachineSafetyQuery(build_alks(False))
    with pytest.raises(ValidationError, match="alphabet"):
        sul.is_safe(["l", "x", "s"])


def test_random_input_shape_and_membership():
    sul = MachineSafetyQuery(build_alks(False))
    rng = random.Random(99)
    seq = sul.random_input(7, rng)
    assert len(seq) == 7
    assert set(seq) <= set(sul.input_alphabet)
    with pytest.raises(ValidationError):
        sul.random_input(0, rng)


def test_random_input_single_symbol_alphabet():
    from pacreach.models import random_machine
    sul = MachineSafetyQuery(random_machine(1, 1, 0.0, seed=0))
    assert sul.random_input(4, random.Random(0)) == ("i0",) * 4


def test_random_input_deterministic_in_seed():
    sul = MachineSafetyQuery(build_alks(False))
    a = [sul.random_input(5, random.Random(123)) for _ in range(10)]
    b = [sul.random_input(5, random.Random(123)) for _ in range(10)]
    assert a == b


def test_random_input_is_roughly_uniform():
    # 10^5 single-step draws: each symbol within 2 percentage points of 1/3
    sul = MachineSafetyQuery(build_alks(False))
    rng = random.Random(2024)
    freq = Counter(sul.random_input(1, rng)[0] for _ in range(100_000))
    for sym in sul.input_alphabet:
        assert abs(freq[sym] / 100_000 - 1 / 3) < 0.02
